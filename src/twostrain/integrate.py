"""Adaptive trajectory integration tailored to the nonnegative orthant.

The stepper is an embedded Dormand-Prince 5(4) pair with a PI step-size
controller. Two domain-specific behaviours sit on top of the textbook
scheme:

* Invariant faces stay exact. Every compartment enters its own derivative
  multiplicatively, so a component that is exactly zero stays exactly zero
  through all stages. Tiny negative undershoot (within ``abs_tol``) from
  rounding is clamped back to zero; larger undershoot rejects the step and
  retries with half the step size, so accepted states never dip below
  ``-abs_tol`` before clamping.

* Runs stop early once the state has settled: when the vector field norm
  stays below ``settle_tol * (1 + |state|)`` for ``settle_time`` time
  units the trajectory is reported as converged. A settle event is only
  accepted at a rest point that is locally non-expanding in the directions
  the orbit can still move. Orbits shadowing a saddle's stable manifold can
  drive a compartment so close to zero that the field norm looks settled
  while an unstable mode is still growing from a subnormal amplitude; those
  fly-bys are ridden out instead of being reported as convergence. A
  compartment equal to exactly zero is excluded from the expansion test,
  because zero compartments are invariant and cannot be excited.

``integrate`` steps at most the config's ``max_step``.
``run_to_attractor`` runs one start in a plain-float loop until it has
dwelt 10 time units in the ball of one attractor. Its output is a label,
not samples, so its steps are bounded by a quarter of that dwell time
(2.5) instead, whatever ``max_step`` says.
``run_to_attractor_batch`` runs many starts as lanes of one numpy stepper,
launches more as runs end if asked to, and returns, for every start,
exactly what ``run_to_attractor`` returns. Its squares and powers use
``np.float_power``, which rounds like Python's ``**``; ``np.power`` does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .model import ModelParameters, _field, _parameter_values, jacobian, scalar_field

__all__ = [
    "IntegrationConfig",
    "Trajectory",
    "StepFailureError",
    "ReachResult",
    "UNDECIDED",
    "integrate",
    "run_to_attractor",
    "run_to_attractor_batch",
    "write_trajectory_csv",
]

UNDECIDED = "undecided"

REACHED_T_MAX = "reached_t_max"
CONVERGED = "converged"
STEP_FAILURE = "step_failure"
_STOPPED = "stopped"

# Dormand-Prince 5(4) coefficients.
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# Difference between the 5th- and embedded 4th-order solutions.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# PI controller constants (classical values for this pair).
_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2
_FAC_MAX = 10.0


@dataclass(frozen=True)
class IntegrationConfig:
    """Tolerances and limits for one integration run.

    ``settle_tol``/``settle_time`` define the convergence stop: the scaled
    field norm must stay small for that long. ``min_step`` is the step
    size below which the run is abandoned as a step failure.

    ``max_step`` bounds the steps of ``integrate`` runs only (``simulate``
    and the trajectory scenarios). A ``max_step`` above the default can pin
    such a run at the stepper's stability limit, where it ends as
    ``reached_t_max``: fig1 from (0, 1.8, 0.1, 0.1) with ``max_step`` 10
    stops at t = 2000 instead of converging at t ≈ 116.8. Attractor runs
    (``run_to_attractor`` and its batch, so ``basin``, ``separatrix`` and
    fig4) step at most a quarter of their 10-unit dwell time, 2.5, whatever
    ``max_step`` says; their first step is ``min(initial_step, 2.5, t_max)``.

    ``rel_tol`` and ``abs_tol`` hold for every run but one kind:
    ``basin.separatrix_points`` runs its bisection midpoints at ``rel_tol``
    raised to at least 1e-5 and ``abs_tol`` to at least a hundredth of
    that, never tighter than given here. Grid nodes, side probes, the
    certificate runs of each final bracket's ends and the second bisection
    of a segment that fails its certificate all run at these tolerances.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 2000.0
    initial_step: float = 1e-3
    max_step: float = 1.0
    settle_tol: float = 1e-12
    settle_time: float = 10.0
    min_step: float = 1e-14

    def __post_init__(self) -> None:
        # Written so that NaN fails every check. An infinite tolerance,
        # settle_tol or min_step voids the error test, the settle test or
        # the step floor, so those must be finite; max_step and settle_time
        # may be infinite.
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if not 0.0 < self.initial_step <= self.max_step:
            raise ValueError("need 0 < initial_step <= max_step")
        if not 0.0 < self.min_step < math.inf:
            raise ValueError("min_step must be positive and finite")
        if not 0.0 < self.settle_tol < math.inf:
            raise ValueError("settle_tol must be positive and finite")
        if not self.settle_time >= 0.0:
            raise ValueError("settle_time must be nonnegative")

    def with_tolerance(self, rel_tol: float) -> "IntegrationConfig":
        """Scale both tolerances from a single knob (abs = rel / 100)."""
        return replace(self, rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration samples plus the reason the run ended."""

    times: np.ndarray
    states: np.ndarray
    termination: str

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)


class StepFailureError(RuntimeError):
    """Step size underflowed; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


_Field = Callable[[float, float, float, float], tuple[float, float, float, float]]
_State = tuple[float, float, float, float]

_SETTLE_EXPANSION_BAND = 1e-8
_SETTLE_REARM_FACTOR = 10.0

# Time a run must stay inside one attractor ball to be attributed to it.
_DWELL_TIME = 10.0
# Longest step of an attractor run, whatever the config's max_step: the
# dwell window then holds at least four accepted samples.
_ATTRACTOR_MAX_STEP = _DWELL_TIME / 4


def _stationary_check(params: ModelParameters) -> Callable[[_State], bool]:
    """Build the test deciding whether a settled state counts as converged.

    The Jacobian is restricted to the compartments the orbit can still
    move: a compartment at exactly zero is frozen by face invariance, so
    instability along it is unreachable. The susceptible pool stays active
    whenever either infected compartment is nonzero (recovery feeds it
    additively). Settling is accepted only when the restricted spectrum
    has no eigenvalue with real part above a small band.
    """

    def check(y: _State) -> bool:
        active = [i for i in range(4) if y[i] != 0.0]
        if 1 not in active and (y[2] != 0.0 or y[3] != 0.0):
            active.append(1)
            active.sort()
        if not active:
            return True
        sub = jacobian(params, y)[np.ix_(active, active)]
        return float(np.max(np.linalg.eigvals(sub).real)) <= _SETTLE_EXPANSION_BAND

    return check


def _integrate_core(
    field: _Field,
    y0: Sequence[float],
    cfg: IntegrationConfig,
    max_step: float,
    settle_check: Callable[[_State], bool],
    stop: Callable[[float, _State], bool] | None = None,
) -> tuple[list[float], list[tuple[float, float, float, float]], str]:
    """Run the stepper, no step longer than ``max_step``.

    Returns (times, states, termination).
    """
    y = tuple(float(v) for v in y0)
    t = 0.0
    times = [t]
    states = [y]

    rel, atol = cfg.rel_tol, cfg.abs_tol
    k1 = field(*y)

    def settle_ratio(state: _State, deriv: _State) -> float:
        fn = max(abs(deriv[0]), abs(deriv[1]), abs(deriv[2]), abs(deriv[3]))
        yn = max(abs(state[0]), abs(state[1]), abs(state[2]), abs(state[3]))
        return fn / (cfg.settle_tol * (1.0 + yn))

    settle_armed = True
    settle_since = 0.0 if settle_ratio(y, k1) <= 1.0 else None
    if stop is not None:
        stop(t, y)

    h = min(cfg.initial_step, max_step, cfg.t_max)
    facold = 1e-4
    termination = REACHED_T_MAX

    while t < cfg.t_max:
        remaining = cfg.t_max - t
        if remaining <= cfg.min_step:
            break
        if h > remaining:
            h = remaining
        if h < cfg.min_step:
            return times, states, STEP_FAILURE

        y1, y2, y3, y4 = y
        k11, k12, k13, k14 = k1

        u1 = y1 + h * _A21 * k11
        u2 = y2 + h * _A21 * k12
        u3 = y3 + h * _A21 * k13
        u4 = y4 + h * _A21 * k14
        k21, k22, k23, k24 = field(u1, u2, u3, u4)

        u1 = y1 + h * (_A31 * k11 + _A32 * k21)
        u2 = y2 + h * (_A31 * k12 + _A32 * k22)
        u3 = y3 + h * (_A31 * k13 + _A32 * k23)
        u4 = y4 + h * (_A31 * k14 + _A32 * k24)
        k31, k32, k33, k34 = field(u1, u2, u3, u4)

        u1 = y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
        u2 = y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32)
        u3 = y3 + h * (_A41 * k13 + _A42 * k23 + _A43 * k33)
        u4 = y4 + h * (_A41 * k14 + _A42 * k24 + _A43 * k34)
        k41, k42, k43, k44 = field(u1, u2, u3, u4)

        u1 = y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
        u2 = y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)
        u3 = y3 + h * (_A51 * k13 + _A52 * k23 + _A53 * k33 + _A54 * k43)
        u4 = y4 + h * (_A51 * k14 + _A52 * k24 + _A53 * k34 + _A54 * k44)
        k51, k52, k53, k54 = field(u1, u2, u3, u4)

        u1 = y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
        u2 = y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
        u3 = y3 + h * (_A61 * k13 + _A62 * k23 + _A63 * k33 + _A64 * k43 + _A65 * k53)
        u4 = y4 + h * (_A61 * k14 + _A62 * k24 + _A63 * k34 + _A64 * k44 + _A65 * k54)
        k61, k62, k63, k64 = field(u1, u2, u3, u4)

        v1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
        v2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
        v3 = y3 + h * (_B1 * k13 + _B3 * k33 + _B4 * k43 + _B5 * k53 + _B6 * k63)
        v4 = y4 + h * (_B1 * k14 + _B3 * k34 + _B4 * k44 + _B5 * k54 + _B6 * k64)
        k71, k72, k73, k74 = field(v1, v2, v3, v4)

        d1 = h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71)
        d2 = h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72)
        d3 = h * (_E1 * k13 + _E3 * k33 + _E4 * k43 + _E5 * k53 + _E6 * k63 + _E7 * k73)
        d4 = h * (_E1 * k14 + _E3 * k34 + _E4 * k44 + _E5 * k54 + _E6 * k64 + _E7 * k74)

        s1 = atol + rel * max(abs(y1), abs(v1))
        s2 = atol + rel * max(abs(y2), abs(v2))
        s3 = atol + rel * max(abs(y3), abs(v3))
        s4 = atol + rel * max(abs(y4), abs(v4))
        try:
            err = math.sqrt(((d1 / s1) ** 2 + (d2 / s2) ** 2 + (d3 / s3) ** 2 + (d4 / s4) ** 2) / 4.0)
        except OverflowError:  # a square past the float range is inf, as in the lanes
            err = math.inf

        if not math.isfinite(err):
            h *= _FAC_MIN
            if h < cfg.min_step:
                return times, states, STEP_FAILURE
            continue

        if err > 1.0:
            h *= min(1.0, max(_FAC_MIN, _SAFETY * err**-_EXPO))
            if h < cfg.min_step:
                return times, states, STEP_FAILURE
            continue

        low = min(v1, v2, v3, v4)
        if low < -atol:
            # Real undershoot, not representable rounding noise: retry.
            h *= 0.5
            if h < cfg.min_step:
                return times, states, STEP_FAILURE
            continue
        if low < 0.0:
            v1 = v1 if v1 >= 0.0 else 0.0
            v2 = v2 if v2 >= 0.0 else 0.0
            v3 = v3 if v3 >= 0.0 else 0.0
            v4 = v4 if v4 >= 0.0 else 0.0
            k71, k72, k73, k74 = field(v1, v2, v3, v4)

        t += h
        y = (v1, v2, v3, v4)
        k1 = (k71, k72, k73, k74)
        times.append(t)
        states.append(y)

        ratio = settle_ratio(y, k1)
        if settle_armed:
            if ratio <= 1.0:
                if settle_since is None:
                    settle_since = t
                elif t - settle_since >= cfg.settle_time:
                    if settle_check(y):
                        termination = CONVERGED
                        break
                    # Quiet fly-by past a non-attracting rest point: keep
                    # going and only re-arm once the field norm recovers.
                    settle_armed = False
                    settle_since = None
            else:
                settle_since = None
        elif ratio > _SETTLE_REARM_FACTOR:
            settle_armed = True

        if stop is not None and stop(t, y):
            termination = _STOPPED
            break

        if err == 0.0:
            factor = _FAC_MAX
        else:
            factor = min(_FAC_MAX, max(_FAC_MIN, _SAFETY * err**-_EXPO * facold**_BETA))
        facold = max(err, 1e-4)
        h = min(h * factor, max_step)

    return times, states, termination


def _as_trajectory(
    times: list[float], states: list[tuple[float, float, float, float]], termination: str
) -> Trajectory:
    return Trajectory(
        times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=float),
        termination=termination,
    )


def integrate(
    params: ModelParameters,
    x0: Sequence[float],
    config: IntegrationConfig | None = None,
) -> Trajectory:
    """Integrate from ``x0`` until ``t_max``, convergence, or failure.

    Raises ValueError unless ``x0`` is finite and nonnegative, and
    StepFailureError (with the partial trajectory attached) if the step
    size underflows.
    """
    cfg = config or IntegrationConfig()
    start = tuple(float(v) for v in x0)
    if not all(0.0 <= v < math.inf for v in start):  # NaN fails too
        raise ValueError("initial state must be finite and nonnegative")
    times, states, termination = _integrate_core(
        scalar_field(params), start, cfg, cfg.max_step, _stationary_check(params)
    )
    traj = _as_trajectory(times, states, termination)
    if termination == STEP_FAILURE:
        raise StepFailureError(
            f"step size underflowed below {cfg.min_step} at t={times[-1]:.6g}", traj
        )
    return traj


@dataclass(frozen=True)
class ReachResult:
    """Outcome of running a start state toward a set of attractors.

    ``attractor_id`` is None when the run ended undecided. ``t_detected``
    is the time the dwell requirement was met (None if undecided).
    """

    attractor_id: str | None
    t_detected: float | None
    final_state: np.ndarray
    termination: str

    @property
    def label(self) -> str:
        return self.attractor_id if self.attractor_id is not None else UNDECIDED


def _attractor_list(attractors: Iterable) -> list[tuple[str, tuple[float, float, float, float]]]:
    out = []
    for item in attractors:
        if hasattr(item, "id") and hasattr(item, "coordinates"):
            coords = tuple(float(v) for v in item.coordinates)
            out.append((str(item.id), coords))
        else:
            name, coords = item
            out.append((str(name), tuple(float(v) for v in coords)))
    if not out:
        raise ValueError("need at least one attractor")
    return out


def _separated_attractors(
    attractors: Iterable, match_radius: float
) -> list[tuple[str, tuple[float, float, float, float]]]:
    if not match_radius > 0.0:
        raise ValueError(f"match_radius must be positive, got {match_radius!r}")
    targets = _attractor_list(attractors)
    for i in range(len(targets)):
        for j in range(i + 1, len(targets)):
            ci, cj = targets[i][1], targets[j][1]
            gap = math.dist(ci, cj)
            if gap <= 2.0 * match_radius:
                raise ValueError(
                    f"attractors {targets[i][0]} and {targets[j][0]} are separated by "
                    f"{gap:.6g} <= 2 * match_radius = {2.0 * match_radius:.6g}"
                )
    return targets


def run_to_attractor(
    params: ModelParameters,
    x0: Sequence[float],
    attractors: Iterable,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
) -> ReachResult:
    """Integrate until the state has dwelt near one attractor.

    A run is attributed to an attractor after the state stays inside the
    Euclidean ball of ``match_radius`` around it for 10 time units without
    leaving. Attractor centres must be separated by more than twice the
    radius so membership is unambiguous. Runs that settle
    elsewhere or exhaust ``t_max`` come back undecided; step failures
    raise StepFailureError. A listed point that does not attract, such as
    a saddle, captures runs that dwell near it on their way past: on the
    fig4 parameters with E2 = (0, 3, 0, 0) listed next to E1 and E4, the
    start (0.6, 0, 0.25, 0) is labelled E2 at t = 47.4 while V grows away
    from it. A start must be finite and nonnegative.

    Steps are bounded by a quarter of the dwell time (2.5), not by the
    config's ``max_step``, so the dwell window holds at least four
    accepted samples.
    """
    cfg = config or IntegrationConfig()
    targets = _separated_attractors(attractors, match_radius)
    r2 = match_radius * match_radius
    current = {"ball": -1, "entered": 0.0, "hit": -1, "t_hit": math.nan}

    def stop(t: float, y: tuple[float, float, float, float]) -> bool:
        inside = -1
        for idx, (_, c) in enumerate(targets):
            try:
                d2 = (y[0] - c[0]) ** 2 + (y[1] - c[1]) ** 2 + (y[2] - c[2]) ** 2 + (y[3] - c[3]) ** 2
            except OverflowError:  # a distance past the float range is outside every ball
                continue
            if d2 <= r2:
                inside = idx
                break
        if inside != current["ball"]:
            current["ball"] = inside
            current["entered"] = t
        if inside >= 0 and t - current["entered"] >= _DWELL_TIME:
            current["hit"] = inside
            current["t_hit"] = t
            return True
        return False

    start = tuple(float(v) for v in x0)
    if not all(0.0 <= v < math.inf for v in start):  # NaN fails too
        raise ValueError("initial state must be finite and nonnegative")
    times, states, termination = _integrate_core(
        scalar_field(params), start, cfg, _ATTRACTOR_MAX_STEP, _stationary_check(params), stop=stop
    )
    if termination == STEP_FAILURE:
        raise StepFailureError(
            f"step size underflowed below {cfg.min_step} at t={times[-1]:.6g}",
            _as_trajectory(times, states, termination),
        )

    final = np.asarray(states[-1], dtype=float)
    if termination == _STOPPED:
        return ReachResult(targets[current["hit"]][0], float(current["t_hit"]), final, termination)
    if termination == CONVERGED and current["ball"] >= 0:
        # Settled in place inside a ball: the dwell is implied.
        return ReachResult(targets[current["ball"]][0], float(times[-1]), final, termination)
    return ReachResult(None, None, final, termination)


def _column_max(x: np.ndarray) -> np.ndarray:
    """``max(x[0], x[1], ...)`` of each column, with Python's ordering of NaN.

    Python's ``max`` keeps its running value unless an item compares
    greater, so a NaN counts only in first place; numpy's propagates.
    """
    out = np.maximum.reduce(x)
    if np.count_nonzero(np.isnan(out)):
        out = x[0]
        for row in x[1:]:
            out = np.where(row > out, row, out)
    return out


def run_to_attractor_batch(
    params: ModelParameters,
    starts: Sequence[Sequence[float]] | np.ndarray,
    attractors: Iterable,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
    on_result: Callable[[int, ReachResult], Sequence[Sequence[float]]] | None = None,
) -> list[ReachResult]:
    """``run_to_attractor`` from every row of the ``(n, 4)`` array ``starts``.

    The runs advance as lanes of one Dormand-Prince stepper: column ``j``
    of the ``(4, m)`` state is one run, every pass of the loop makes one
    step attempt on every running lane, and finished lanes drop out. Each
    lane takes exactly the steps ``_integrate_core`` takes from its start,
    with the same rejections, settle and fly-by decisions, dwell ball and
    step bound (a quarter of the dwell time, not the config's
    ``max_step``), so every returned ``ReachResult`` equals
    ``run_to_attractor``'s bit for bit, labels by listed points that do
    not attract included. Elementwise numpy ``+ - * /``
    round like Python's float operators, and ``np.float_power`` rounds
    like Python's ``**`` (numpy's ``**``, ``np.power``, does not), so the
    error-norm squares, the step-factor powers and the ball distances are
    whole-lane numpy too.

    Every run has a launch index, and ``starts`` are launches 0 to n-1.
    If ``on_result`` is given, ``on_result(launch_index, result)`` is
    called as each run ends. The starts it returns are launched with the
    next indices, in the order returned, and join the running lanes in
    the next pass. The result of every launch comes back, in launch order.
    Every start, those ``on_result`` returns included, must be finite and
    nonnegative, or ValueError is raised before it steps.

    A start offered while no lane is running, and alone, is run by
    ``run_to_attractor`` directly: one lane costs the batch machinery's
    overhead and gains nothing.

    Once a run fails on step size, nothing more is launched
    (``on_result`` is not called again) and lanes of higher launch index
    stop. The failing launch of lowest index is then run again by
    ``run_to_attractor``, whose StepFailureError (with the partial
    trajectory) propagates.
    """
    cfg = config or IntegrationConfig()
    targets = _separated_attractors(attractors, match_radius)

    def start_rows(batch: Sequence[Sequence[float]] | np.ndarray) -> list[np.ndarray]:
        x = np.asarray(batch, dtype=float).reshape(len(batch), 4)
        if not np.all((x >= 0.0) & (x < math.inf)):  # NaN fails too
            raise ValueError("initial state must be finite and nonnegative")
        return list(x)

    pending = start_rows(starts)
    # 0-d arrays: numpy multiplies them into a column faster than floats.
    values = tuple(np.array(v) for v in _parameter_values(params))
    settle_check = _stationary_check(params)
    centres = np.array([c for _, c in targets])[:, :, None]
    r2 = match_radius * match_radius
    rel, atol = cfg.rel_tol, cfg.abs_tol
    h0 = min(cfg.initial_step, _ATTRACTOR_MAX_STEP, cfg.t_max)

    def field(u: np.ndarray) -> np.ndarray:
        return np.array(_field(*u, *values))

    def settle_ratio(y: np.ndarray, k: np.ndarray) -> np.ndarray:
        return _column_max(np.abs(k)) / (cfg.settle_tol * (1.0 + _column_max(np.abs(y))))

    def ball_of(y: np.ndarray) -> np.ndarray:
        """Index of the first attractor ball holding each lane, or -1."""
        q = np.float_power(y - centres, 2.0)
        d2 = ((q[:, 0] + q[:, 1]) + q[:, 2]) + q[:, 3]
        inside = -1
        for index in range(len(d2) - 1, -1, -1):
            inside = np.where(d2[index] <= r2, index, inside)
        return inside

    # Start and outcome of every launch, by launch index.
    launched: list[np.ndarray] = []
    results: list[ReachResult | None] = []
    ended: list[tuple[int, ReachResult]] = []  # (launch index, result) of this pass
    first_failure = math.inf

    def launch() -> None:
        """Give the pending starts the next launch indices, and run them.

        A start offered alone while no lane runs goes to the scalar loop,
        and the starts its end queues are launched in turn.
        """
        nonlocal pending, lane, y, k1, t, h, facold, armed, since, ball, entered
        while pending:
            first, m = len(results), len(pending)
            launched.extend(pending)
            results.extend([None] * m)
            x, pending = np.array(pending).T, []
            if m == 1 and not lane.size:
                # One lane costs the batch machinery's overhead and gains nothing.
                ended.append((first, run_to_attractor(params, x[:, 0], targets, cfg, match_radius)))
                report()
                continue
            k = field(x)
            new = (
                np.arange(first, first + m),
                x,
                k,
                np.zeros(m),
                np.full(m, h0),
                np.full(m, 1e-4),
                np.ones(m, dtype=bool),
                np.where(settle_ratio(x, k) <= 1.0, 0.0, np.nan),  # NaN: not quiet
                ball_of(x),
                np.zeros(m),
            )
            lane, y, k1, t, h, facold, armed, since, ball, entered = (
                np.concatenate((a, b), axis=-1)
                for a, b in zip((lane, y, k1, t, h, facold, armed, since, ball, entered), new)
            )

    def finish(mask: np.ndarray, how: str, index: np.ndarray | None = None) -> None:
        for j in np.flatnonzero(mask):
            hit = -1 if index is None else int(index[j])
            found = (targets[hit][0], float(t[j])) if hit >= 0 else (None, None)
            ended.append((int(lane[j]), ReachResult(*found, y[:, j].copy(), how)))

    def report() -> None:
        """Store the ended runs and queue the starts ``on_result`` returns."""
        for index, result in ended:
            results[index] = result
            if on_result is not None and first_failure == math.inf:
                pending.extend(start_rows(on_result(index, result)))
        ended.clear()

    def drop(done: np.ndarray, failed: np.ndarray) -> None:
        """Drop finished lanes, and every lane past the lowest failing launch."""
        nonlocal first_failure, lane, y, k1, t, h, facold, armed, since, ball, entered
        if failed.any():
            first_failure = min(first_failure, int(lane[failed].min()))
        keep = ~(done | failed) & (lane < first_failure)
        lane, y, k1, t, h, facold, armed, since, ball, entered = (
            a[..., keep] for a in (lane, y, k1, t, h, facold, armed, since, ball, entered)
        )
        report()

    # Overflow, NaN and the power of a zero error pass silently.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Lane state, one column per running run.
        lane = np.zeros(0, dtype=int)
        y = k1 = np.zeros((4, 0))
        t = h = facold = since = entered = np.zeros(0)
        armed = np.zeros(0, dtype=bool)
        ball = np.zeros(0, dtype=int)

        while True:
            launch()
            if not lane.size:
                break

            # Loop head: out of time, or a step too small to take.
            remaining = cfg.t_max - t
            h = np.minimum(h, remaining)
            if np.count_nonzero(h <= cfg.min_step):
                over = remaining <= cfg.min_step
                failed = ~over & (h < cfg.min_step)
                if over.any() or failed.any():
                    finish(over, REACHED_T_MAX)
                    drop(over, failed)
                    continue

            u = y + h * _A21 * k1
            k2 = field(u)
            u = y + h * (_A31 * k1 + _A32 * k2)
            k3 = field(u)
            u = y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
            k4 = field(u)
            u = y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
            k5 = field(u)
            u = y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
            k6 = field(u)
            v = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k7 = field(v)
            d = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
            # A NaN in v comes with a non-finite d, so the error is
            # non-finite whichever max the scale takes.
            q = np.float_power(d / (atol + rel * np.maximum(np.abs(y), np.abs(v))), 2.0)
            err = np.sqrt((((q[0] + q[1]) + q[2]) + q[3]) / 4.0)
            finite = np.isfinite(err)
            big = err > 1.0
            # The factor a rejected step shrinks by, or an accepted one grows
            # by; an error of 0 has an infinite power, so it grows by _FAC_MAX.
            grow = _SAFETY * np.float_power(err, -_EXPO)
            pi = np.minimum(_FAC_MAX, np.maximum(_FAC_MIN, grow * np.float_power(facold, _BETA)))
            factors = np.where(big, np.minimum(1.0, np.maximum(_FAC_MIN, grow)), pi)

            # Reject on a non-finite error, an error above one, or real
            # undershoot; clamp rounding undershoot of an accepted step.
            low = np.minimum.reduce(v)  # no NaN where the error is finite
            accepted = finite & ~big & (low >= -atol)
            hf = h * factors
            shrunk = np.where(finite, np.where(big, hf, h * 0.5), h * _FAC_MIN)
            failed = ~accepted & (shrunk < cfg.min_step)
            clamp = accepted & (low < 0.0)
            if np.count_nonzero(clamp):
                vc = v[:, clamp]
                vc = np.where(vc >= 0.0, vc, 0.0)
                v[:, clamp] = vc
                k7[:, clamp] = field(vc)
            t = np.where(accepted, t + h, t)
            y = np.where(accepted, v, y)
            k1 = np.where(accepted, k7, k1)
            facold = np.where(accepted, np.maximum(err, 1e-4), facold)
            h = np.where(accepted, np.minimum(hf, _ATTRACTOR_MAX_STEP), shrunk)

            # Settle test. A lane is timed while armed and quiet (since is
            # NaN while it is not); a fly-by disarms it until the field
            # norm recovers.
            ratio = settle_ratio(y, k1)
            quiet = ratio <= 1.0
            timing = accepted & armed
            due = timing & quiet & (t - since >= cfg.settle_time)
            since = np.where(timing, np.where(quiet, np.fmin(since, t), np.nan), since)
            armed |= accepted & (ratio > _SETTLE_REARM_FACTOR)
            converged = np.zeros_like(due)
            if np.count_nonzero(due):
                for j in due.nonzero()[0]:
                    converged[j] = settle_check(tuple(y[:, j].tolist()))
                flyby = due & ~converged
                armed &= ~flyby
                since[flyby] = np.nan
                # A converged lane ends before the dwell test, in the ball
                # it was in after its previous step.
                finish(converged & (ball >= 0), CONVERGED, ball)
                finish(converged & (ball < 0), CONVERGED)
                accepted &= ~converged

            # Dwell test of run_to_attractor's stop.
            inside = ball_of(y)
            moved = accepted & (inside != ball)
            ball = np.where(moved, inside, ball)
            entered = np.where(moved, t, entered)
            stopped = accepted & (inside >= 0) & (t - entered >= _DWELL_TIME)
            done = converged | stopped
            if np.count_nonzero(done | failed):
                finish(stopped, _STOPPED, inside)
                drop(done, failed)

    if first_failure < math.inf:
        run_to_attractor(params, launched[first_failure], targets, cfg, match_radius)
        raise RuntimeError(f"batched run of launch {first_failure} failed where the scalar run did not")
    return results


def write_trajectory_csv(trajectory: Trajectory, stream: IO[str]) -> None:
    """Write samples as CSV with header ``t,P,S,V,W``.

    Every value is written as ``%.17g`` of its Python float, so it reads
    back to the same bits. The rows are formatted by one ``%`` over a flat
    list of floats and written at once.
    """
    rows = np.column_stack((trajectory.times, trajectory.states))
    line = "%.17g,%.17g,%.17g,%.17g,%.17g\n"
    stream.write("t,P,S,V,W\n" + (line * len(rows)) % tuple(rows.ravel().tolist()))
