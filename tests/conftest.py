"""Shared fixtures and helpers for the test suite.

The named scenario presets double as well-understood parameter sets, so
most tests pull them from ``twostrain.figures`` instead of retyping
constants. Random parameter draws share one box: every rate uniform in
[0.05, 2], with the four strictly positive rates (s, r, L, K) redrawn
from [0.1, 2] so no draw sits near a validation boundary.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from twostrain import equilibria, integrate, stability
from twostrain.figures import PRESETS, reproduce
from twostrain.model import ModelParameters, PARAMETER_KEYS


def draw_parameter_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 14) random valid parameter rows in PARAMETER_KEYS order."""
    matrix = rng.uniform(0.05, 2.0, size=(n, len(PARAMETER_KEYS)))
    for key in ("s", "r", "L", "K"):
        matrix[:, PARAMETER_KEYS.index(key)] = rng.uniform(0.1, 2.0, size=n)
    return matrix


def params_from_row(row: np.ndarray) -> ModelParameters:
    return ModelParameters.from_dict(dict(zip(PARAMETER_KEYS, row)))


def replay_to_attractor(params, x0, attractors, config=None, match_radius=0.05, gates=()):
    """The scalar reference of one lane of ``run_to_attractor_batch``.

    It replays the lane from one run of the scalar stepper that
    ``integrate`` uses (``integrate._integrate_core``) at the attractor
    step bound: ``integrate._attractor_exits`` on each accepted state, as
    one column, up to the first dwell or gate. The start gets the call
    too, but only its ball counts. A run that converges stops before that
    step's call, in the ball of its previous step. A run that fails on
    step size before any dwell or gate ends undecided, with termination
    ``step_failure`` and its last accepted state.
    """
    targets, gate_list, centres, r2 = integrate._targets(attractors, match_radius, gates)
    cfg = config or integrate.IntegrationConfig()
    times, states, termination = integrate._integrate_core(
        integrate.scalar_field(params), x0, cfg, integrate._ATTRACTOR_MAX_STEP, integrate._stationary_check(params)
    )
    states = np.asarray(states, dtype=float)
    ball, entered = np.full(1, -1), np.zeros(1)
    # A state far out squares past the float range, as in the lanes.
    with np.errstate(over="ignore", invalid="ignore"):
        for step, (t, y) in enumerate(zip(times, states[:-1] if termination == integrate.CONVERGED else states)):
            ball, entered, dwelt, side = integrate._attractor_exits(
                y[:, None], t, True, ball, entered, centres, r2, gate_list
            )
            if step and side[0] >= 0:
                return integrate._reach(targets, int(side[0]), t, y.copy(), integrate._GATED)
            if step and dwelt[0]:
                return integrate._reach(targets, int(ball[0]), t, y.copy(), integrate._STOPPED)
    hit = int(ball[0]) if termination == integrate.CONVERGED else -1
    return integrate._reach(targets, hit, times[-1], states[-1].copy(), termination)


@pytest.fixture(scope="session")
def fig1_params() -> ModelParameters:
    return PRESETS["fig1"].params


@pytest.fixture(scope="session")
def fig4_params() -> ModelParameters:
    return PRESETS["fig4"].params


@pytest.fixture(scope="session")
def fig5_params() -> ModelParameters:
    return PRESETS["fig5"].params


def _replace_everywhere(monkeypatch, original, replacement) -> None:
    """Replace a function in every twostrain namespace that refers to it."""
    for name, module in list(sys.modules.items()):
        if name == "twostrain" or name.startswith("twostrain."):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def threshold_calls(monkeypatch) -> list:
    """Record every threshold computation, whichever module makes it.

    The helpers the closed forms compute their thresholds through (each
    strain's endemic and mixed values, and the in-plane discriminant) are
    replaced in every twostrain namespace that refers to them, so calls
    through a module attribute are counted. Each call is recorded as
    (function name, params, its other arguments).
    """
    calls = []

    def counting(original):
        def counted(params, *rates):
            calls.append((original.__name__, params, rates))
            return original(params, *rates)

        return counted

    for original in (
        equilibria._endemic_thresholds,
        equilibria._mixed_thresholds,
        equilibria._in_plane_discriminant,
    ):
        _replace_everywhere(monkeypatch, original, counting(original))
    return calls


def threshold_call(name: str, params: ModelParameters, strain: str = "") -> tuple:
    """The ``threshold_calls`` entry of one helper call: ``name`` is
    "endemic", "mixed" or "in_plane", and ``strain`` "one" or "two"."""
    if name == "in_plane":
        return ("_in_plane_discriminant", params, ())
    rates = ("lam", "psi", "mu", "e") if strain == "one" else ("beta", "phi", "nu", "f")
    if name == "endemic":
        rates = rates[:3]
    return (f"_{name}_thresholds", params, tuple(getattr(params, rate) for rate in rates))


@pytest.fixture
def point_computations(monkeypatch) -> Counter:
    """Count every closed-form equilibrium point computed, by full id.

    Every record, a face id's included, is finished once by
    ``equilibria._finish`` under its full id.
    """
    counts = Counter()
    original = equilibria._finish

    def counted(eq_id, *args, **kwargs):
        counts[eq_id] += 1
        return original(eq_id, *args, **kwargs)

    monkeypatch.setattr(equilibria, "_finish", counted)
    return counts


@pytest.fixture
def classify_forbidden(monkeypatch) -> None:
    """Make every call of the full ``stability.classify`` verdict fail.

    For work that should read only the spectrum it needs. The failure is
    an AssertionError, which no twostrain caller or CLI handler catches.
    """

    def forbidden(params, eq_id):
        raise AssertionError(f"stability.classify reached for {eq_id}")

    _replace_everywhere(monkeypatch, stability.classify, forbidden)


@pytest.fixture(scope="session")
def fig4_pipeline(tmp_path_factory):
    """One full basin/separatrix reproduction, shared by every consumer.

    The run takes about half a minute, so the summary dict and output
    directory are computed once per session.
    """
    outdir = tmp_path_factory.mktemp("fig4_pipeline")
    summary = reproduce("fig4", outdir)
    return summary, outdir


# ----------------------------------------------------------------------
# Acceptance-criterion reporting: every acceptance test records one
# PASS/FAIL line; the collected block is echoed in the terminal summary
# so the verdicts are visible even for passing tests.
# ----------------------------------------------------------------------

CRITERION_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)
