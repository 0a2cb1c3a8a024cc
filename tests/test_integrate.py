"""Adaptive integrator: endpoints, invariants, stopping and failure modes."""

import importlib
import io
import itertools
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import twostrain
from conftest import draw_parameter_matrix, params_from_row
from twostrain.equilibria import catalog, compute_equilibrium
from twostrain.figures import _FIG4_BOUNDS, PRESETS
from twostrain.integrate import (
    _ATTRACTOR_MAX_STEP,
    _BETA,
    _DWELL_TIME,
    _EXPO,
    CONVERGED,
    STEP_FAILURE,
    UNDECIDED,
    IntegrationConfig,
    StepFailureError,
    Trajectory,
    integrate,
    run_to_attractor,
    run_to_attractor_batch,
    write_trajectory_csv,
)


def test_package_attribute_is_the_integrate_module():
    module = importlib.import_module("twostrain.integrate")
    assert isinstance(twostrain.integrate, types.ModuleType)
    assert twostrain.integrate is module
    assert module.integrate is integrate


class TestConfig:
    def test_with_tolerance_scales_both_knobs(self):
        cfg = IntegrationConfig().with_tolerance(1e-6)
        assert cfg.rel_tol == 1e-6
        assert cfg.abs_tol == 1e-8

    def test_validation(self):
        with pytest.raises(ValueError, match="tolerances"):
            IntegrationConfig(rel_tol=0.0)
        with pytest.raises(ValueError, match="t_max"):
            IntegrationConfig(t_max=-1.0)
        with pytest.raises(ValueError, match="initial_step"):
            IntegrationConfig(initial_step=2.0, max_step=1.0)
        with pytest.raises(ValueError, match="min_step"):
            IntegrationConfig(min_step=0.0)
        with pytest.raises(ValueError, match="settle_tol"):
            IntegrationConfig(settle_tol=0.0)
        nan = float("nan")
        with pytest.raises(ValueError, match="settle_time"):
            IntegrationConfig(settle_time=-1.0)
        # NaN fails every check, and t_max must be finite.
        for field, message in [
            ("rel_tol", "tolerances"),
            ("abs_tol", "tolerances"),
            ("t_max", "t_max"),
            ("initial_step", "initial_step"),
            ("max_step", "initial_step"),
            ("min_step", "min_step"),
            ("settle_tol", "settle_tol"),
            ("settle_time", "settle_time"),
        ]:
            with pytest.raises(ValueError, match=message):
                IntegrationConfig(**{field: nan})
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            IntegrationConfig(t_max=math.inf)
        # Tolerances, min_step and settle_tol must be finite too;
        # max_step and settle_time may be infinite.
        for field, message in [
            ("rel_tol", "tolerances must be positive and finite"),
            ("abs_tol", "tolerances must be positive and finite"),
            ("min_step", "min_step must be positive and finite"),
            ("settle_tol", "settle_tol must be positive and finite"),
        ]:
            with pytest.raises(ValueError, match=message):
                IntegrationConfig(**{field: math.inf})
        with pytest.raises(ValueError, match="tolerances"):
            IntegrationConfig().with_tolerance(math.inf)
        assert IntegrationConfig(max_step=math.inf).max_step == math.inf
        assert IntegrationConfig(settle_time=math.inf).settle_time == math.inf
        assert IntegrationConfig(settle_time=0.0).settle_time == 0.0


class TestKnownEndpoints:
    def test_endemic_scenario_settles_at_the_endemic_point(self, fig1_params):
        traj = integrate(fig1_params, (0.0, 1.8, 0.1, 0.1))
        assert traj.termination == CONVERGED
        assert traj.final_time <= 2000.0
        np.testing.assert_allclose(
            traj.final_state, (0.0, 1.0, 0.7, 0.0), rtol=0, atol=1e-3
        )

    def test_exclusion_scenario_settles_at_the_first_competitor(self, fig1_params):
        traj = integrate(fig1_params, (1.7, 0.8, 0.1, 0.1))
        assert traj.termination == CONVERGED
        np.testing.assert_allclose(
            traj.final_state, (1.5, 0.0, 0.0, 0.0), rtol=0, atol=1e-3
        )

    def test_zero_state_stays_zero(self, fig1_params):
        traj = integrate(fig1_params, (0.0, 0.0, 0.0, 0.0))
        assert np.all(traj.states == 0.0)

    def test_start_at_rest_point_stays_put(self, fig1_params):
        traj = integrate(fig1_params, (0.0, 1.0, 0.7, 0.0))
        assert traj.termination == CONVERGED
        np.testing.assert_allclose(
            traj.final_state, (0.0, 1.0, 0.7, 0.0), rtol=0, atol=1e-9
        )

    def test_tightened_tolerance_preserves_the_endpoint(self, fig1_params):
        loose = integrate(fig1_params, (0.0, 1.8, 0.1, 0.1))
        tight = integrate(
            fig1_params, (0.0, 1.8, 0.1, 0.1), IntegrationConfig().with_tolerance(1e-9)
        )
        assert float(np.max(np.abs(loose.final_state - tight.final_state))) < 1e-7


class TestInvariants:
    def test_forward_invariance_of_the_orthant(self):
        rng = np.random.default_rng(17)
        for row in draw_parameter_matrix(rng, 10):
            p = params_from_row(row)
            x0 = rng.uniform(0.0, 1.0, size=4) * (2.0 * p.L, 2.0 * p.K, p.K, p.K)
            traj = integrate(p, tuple(x0), IntegrationConfig(t_max=200.0))
            assert float(traj.states.min()) >= -IntegrationConfig().abs_tol

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_healthy_pools_end_below_their_capacities(self, name):
        preset = PRESETS[name]
        traj = integrate(preset.params, preset.start)
        tail = traj.states[int(0.9 * len(traj)) :]
        assert float(tail[:, 0].max()) <= preset.params.L * (1.0 + 1e-3)
        assert float(tail[:, 1].max()) <= preset.params.K * (1.0 + 1e-3)

    def test_times_strictly_increase(self, fig1_params):
        traj = integrate(fig1_params, (0.0, 1.8, 0.1, 0.1))
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[0] == 0.0
        np.testing.assert_array_equal(traj.states[0], (0.0, 1.8, 0.1, 0.1))

    def test_determinism(self, fig1_params):
        a = integrate(fig1_params, (0.0, 1.8, 0.1, 0.1))
        b = integrate(fig1_params, (0.0, 1.8, 0.1, 0.1))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.times, b.times)


class TestRiddenOutSaddles:
    """Convergence detection must not stop at a saddle fly-by.

    Orbits tracking a basin boundary pass close to rest points whose
    unstable direction still carries a vanishing population, so the raw
    field norm alone looks settled there; the stationarity check on the
    active components has to veto that stop.
    """

    def test_strain_free_plane_start_reaches_the_endemic_point(self, fig4_params):
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        result = run_to_attractor(fig4_params, (1.3, 0.0, 0.6, 0.0), [e1, e4])
        assert result.attractor_id == "E4"

    def test_susceptible_axis_settles_honestly_outside_the_listed_set(
        self, fig4_params
    ):
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        result = run_to_attractor(fig4_params, (0.0, 2.9, 0.0, 0.0), [e1, e4])
        assert result.attractor_id is None
        assert result.label == UNDECIDED
        assert result.termination == CONVERGED
        # It settled at the disease-free competitor, which is not listed.
        np.testing.assert_allclose(
            result.final_state, (0.0, 3.0, 0.0, 0.0), rtol=0, atol=1e-6
        )


class TestRunToAttractor:
    def test_example_start_reaches_the_exclusion_point(self, fig4_params):
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        result = run_to_attractor(fig4_params, (1.4, 0.1, 0.1, 0.0), [e1, e4])
        assert result.attractor_id == "E1"
        assert result.t_detected is not None and result.t_detected > 0.0

    def test_start_on_an_attractor_is_detected_immediately(self, fig4_params):
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        result = run_to_attractor(fig4_params, tuple(e1.coordinates), [e1, e4])
        assert result.attractor_id == "E1"
        assert result.t_detected < 20.0

    def test_accepts_plain_tuples_as_attractors(self, fig4_params):
        result = run_to_attractor(
            fig4_params,
            (1.4, 0.1, 0.1, 0.0),
            [("one", (1.5, 0.0, 0.0, 0.0)), ("two", (0.0, 1.8333333333333335, 1.6635802469135804, 0.0))],
        )
        assert result.attractor_id == "one"

    def test_overlapping_attractor_balls_are_rejected(self, fig4_params):
        with pytest.raises(ValueError, match="2 \\* match_radius"):
            run_to_attractor(
                fig4_params,
                (1.0, 1.0, 0.0, 0.0),
                [("x", (0.0, 0.0, 0.0, 0.0)), ("y", (0.05, 0.0, 0.0, 0.0))],
            )

    def test_negative_start_rejected(self, fig4_params):
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        with pytest.raises(ValueError, match="nonnegative"):
            run_to_attractor(fig4_params, (-0.1, 1.0, 0.0, 0.0), [e1, e4])

    @pytest.mark.parametrize("component", [0, 2])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_start_is_rejected_before_any_step(self, fig4_params, monkeypatch, component, value):
        # NaN compares False with 0.0, so a sign test alone lets it through
        # to a step-size failure at t = 0.
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        good = (1.0, 1.0, 0.1, 0.0)
        bad = list(good)
        bad[component] = value
        finite = "initial state must be finite and nonnegative"
        # The offered start is rejected after the first run has ended.
        with pytest.raises(ValueError, match=finite):
            run_to_attractor_batch(fig4_params, [good], [e1, e4], on_result=lambda index, result: [bad])
        monkeypatch.setattr(twostrain.integrate, "_integrate_core", _no_steps)
        with pytest.raises(ValueError, match=finite):
            integrate(fig4_params, bad)
        with pytest.raises(ValueError, match=finite):
            run_to_attractor(fig4_params, bad, [e1, e4])
        with pytest.raises(ValueError, match=finite):
            run_to_attractor_batch(fig4_params, [good, bad], [e1, e4])


def _no_steps(*args, **kwargs):
    raise AssertionError("stepped before validating the start")


class TestStepFailure:
    def test_unreachable_accuracy_raises_with_partial_trajectory(self, fig1_params):
        cfg = IntegrationConfig(
            rel_tol=1e-12, abs_tol=1e-14, initial_step=0.9, max_step=1.0, min_step=0.5
        )
        with pytest.raises(StepFailureError) as err:
            integrate(fig1_params, (0.0, 1.8, 0.1, 0.1), cfg)
        partial = err.value.trajectory
        assert isinstance(partial, Trajectory)
        assert partial.termination == STEP_FAILURE
        assert len(partial) >= 1


def _python_pow(x: float, p: float) -> float:
    """``x ** p``, with inf where Python raises instead of returning it."""
    try:
        return x**p
    except (OverflowError, ZeroDivisionError):  # past the float range, or 0 ** -p
        return math.inf


@pytest.mark.parametrize("exponent", [2.0, -_EXPO, _BETA], ids=["square", "minus_expo", "beta"])
def test_float_power_rounds_like_python_pow(exponent):
    # The lane stepper squares, and raises errors to the controller's
    # powers, with np.float_power because it rounds like Python's **: both
    # call libm's pow, where np.power takes its own kernel. If a numpy or
    # libm change breaks that, this fails here rather than as an obscure
    # lane-vs-scalar mismatch.
    rng = np.random.default_rng(20240611)
    x = rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.integers(-300, 300, 200_000)
    special = [0.0, 5e-324, 2.5e-320, 1e-310, 2.2250738585072014e-308, 1e-200, 1e200, 1.7e308]
    x = np.concatenate((special, x, [math.inf, math.nan]))
    if exponent == 2.0:  # error ratios and ball offsets are signed
        x = np.concatenate((x, -x))
    with np.errstate(over="ignore", divide="ignore"):
        got = np.float_power(x, exponent).tolist()
    want = [_python_pow(v, exponent) for v in x.tolist()]
    wrong = [(v, a, b) for v, a, b in zip(x.tolist(), got, want) if a.hex() != b.hex()]
    assert not wrong, (
        f"np.float_power(x, {exponent!r}) differs from Python's x ** {exponent!r} on {len(wrong)} of "
        f"{len(x)} inputs, e.g. (x, numpy, Python) = {wrong[:3]}; the lane stepper would no longer "
        f"match the scalar loop bit for bit"
    )


def _same_reach(batched, scalar) -> bool:
    return (
        batched.attractor_id == scalar.attractor_id
        and batched.t_detected == scalar.t_detected
        and batched.termination == scalar.termination
        and batched.final_state.tobytes() == scalar.final_state.tobytes()
    )


def _separated_rest_points(params, match_radius=0.05):
    """Feasible catalog points, greedily kept while their balls stay apart."""
    chosen = []
    for rec in catalog(params):
        if not rec.feasible or rec.coordinates is None:
            continue
        coords = tuple(float(v) for v in rec.coordinates)
        if all(math.dist(coords, c) > 2.0 * match_radius for _, c in chosen):
            chosen.append((rec.id, coords))
    return chosen


class TestBatchedReach:
    """run_to_attractor_batch must reproduce scalar run_to_attractor bit for bit."""

    def test_fig4_box_nodes_match_the_scalar_runs(self, fig4_params):
        attractors = [compute_equilibrium(fig4_params, "E1"), compute_equilibrium(fig4_params, "E4")]
        axes = [np.linspace(lo, hi, 6) for lo, hi in _FIG4_BOUNDS]
        starts = [(u1, u2, u3, 0.0) for u1, u2, u3 in itertools.product(*axes)]
        batched = run_to_attractor_batch(fig4_params, starts, attractors)
        assert len(batched) == len(starts)
        for x0, got in zip(starts, batched):
            assert _same_reach(got, run_to_attractor(fig4_params, x0, attractors)), x0
            assert got.final_state[3] == 0.0
        labels = {got.label for got in batched}
        assert labels == {"E1", "E4", UNDECIDED}

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), tol=st.sampled_from([1e-8, 1e-6, 1e-3]))
    @example(seed=11, tol=1e-3)  # start 13 takes an undershoot rejection
    def test_random_draws_match_the_scalar_runs(self, seed, tol):
        # Starts span twelve decades, some sit on faces and the first ones
        # on the attractors, and the tolerance varies: together they reach
        # clamps, undershoot rejections, fly-bys, settling inside and
        # outside a ball, and t_max.
        rng = np.random.default_rng(seed)
        params = params_from_row(draw_parameter_matrix(rng, 1)[0])
        points = _separated_rest_points(params)
        chosen = rng.choice(len(points), size=rng.integers(1, len(points) + 1), replace=False)
        attractors = [points[i] for i in sorted(chosen)]
        starts = rng.uniform(0.0, 2.0, size=(40, 4)) * 10.0 ** rng.uniform(-12.0, 0.0, size=(40, 4))
        starts[rng.random((40, 4)) < 0.25] = 0.0
        starts[: len(attractors)] = [c for _, c in attractors]
        cfg = IntegrationConfig(t_max=100.0).with_tolerance(tol)
        batched = run_to_attractor_batch(params, starts, attractors, cfg)
        for x0, got in zip(starts, batched):
            assert _same_reach(got, run_to_attractor(params, x0, attractors, cfg)), x0
            assert np.all(got.final_state >= 0.0)
            # P, V and W enter their own rates multiplicatively; S is fed by
            # recovery, so its face is invariant only without infection.
            frozen = x0 == 0.0
            frozen[1] &= x0[2] == 0.0 and x0[3] == 0.0
            assert np.all(got.final_state[frozen] == 0.0)

    def test_empty_batch(self, fig4_params):
        assert run_to_attractor_batch(fig4_params, [], [("E1", (1.5, 0.0, 0.0, 0.0))]) == []

    def test_validation_precedes_any_run(self, fig4_params):
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        with pytest.raises(ValueError, match="nonnegative"):
            run_to_attractor_batch(fig4_params, [(1.0, 1.0, 0.0, 0.0), (-0.1, 1.0, 0.0, 0.0)], [e1, e4])
        with pytest.raises(ValueError, match="2 \\* match_radius"):
            run_to_attractor_batch(
                fig4_params,
                [(1.0, 1.0, 0.0, 0.0)],
                [("x", (0.0, 0.0, 0.0, 0.0)), ("y", (0.05, 0.0, 0.0, 0.0))],
            )

    def test_step_failure_is_the_scalar_failure_of_the_lowest_failing_start(self, fig4_params):
        cfg = IntegrationConfig(
            rel_tol=1e-12, abs_tol=1e-14, initial_step=0.9, max_step=1.0, min_step=0.5
        )
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        # A start on E1 never leaves it. The other two fail on step size,
        # the second after one accepted step, the third at once.
        starts = [tuple(e1.coordinates), (1.5, 1e-5, 0.0, 0.0), (1.4, 0.1, 0.1, 0.0)]
        assert run_to_attractor(fig4_params, starts[0], [e1, e4], cfg).attractor_id == "E1"
        with pytest.raises(StepFailureError):
            run_to_attractor(fig4_params, starts[2], [e1, e4], cfg)
        with pytest.raises(StepFailureError) as scalar:
            run_to_attractor(fig4_params, starts[1], [e1, e4], cfg)
        assert len(scalar.value.trajectory) == 2
        with pytest.raises(StepFailureError) as batched:
            run_to_attractor_batch(fig4_params, starts, [e1, e4], cfg)
        assert str(batched.value) == str(scalar.value)
        got, want = batched.value.trajectory, scalar.value.trajectory
        assert got.termination == want.termination == STEP_FAILURE
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()

    def test_step_failure_is_the_scalar_failure_of_the_lowest_failing_launch(
        self, fig4_params, monkeypatch
    ):
        cfg = IntegrationConfig(
            rel_tol=1e-12, abs_tol=1e-14, initial_step=0.9, max_step=1.0, min_step=0.5
        )
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        ok, fail_late, fail_now = tuple(e1.coordinates), (1.5, 1e-5, 0.0, 0.0), (1.4, 0.1, 0.1, 0.0)
        with pytest.raises(StepFailureError) as scalar:
            run_to_attractor(fig4_params, fail_late, [e1, e4], cfg)
        calls, reruns = [], []

        def on_result(index, result):
            calls.append(index)
            return {0: [ok, fail_late, fail_now], 1: [ok]}.get(index, [])

        def recording(params, start, *args):
            reruns.append(tuple(start))
            return run_to_attractor(params, start, *args)

        # Launches 0 and 1 end on their rest points and launch 2 to 5.
        # Launch 4 fails at once, launch 3 one pass later, while launch 2
        # still runs: its end calls nothing, and launch 3 is the one rerun.
        monkeypatch.setattr(twostrain.integrate, "run_to_attractor", recording)
        with pytest.raises(StepFailureError) as batched:
            run_to_attractor_batch(
                fig4_params, [ok, tuple(e4.coordinates)], [e1, e4], cfg, on_result=on_result
            )
        assert calls == [0, 1]
        assert reruns == [fail_late]
        assert str(batched.value) == str(scalar.value)
        got, want = batched.value.trajectory, scalar.value.trajectory
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()

    def test_refilled_lanes_match_the_scalar_runs(self, fig4_params):
        # Starts the callback returns join lanes that are still running,
        # after other lanes have ended; one call returns two starts.
        attractors = [compute_equilibrium(fig4_params, "E1"), compute_equilibrium(fig4_params, "E4")]
        axes = [np.linspace(lo, hi, 4) for lo, hi in _FIG4_BOUNDS]
        nodes = [(u1, u2, u3, 0.0) for u1, u2, u3 in itertools.product(*axes)]
        launched, refill = nodes[:6], nodes[6:]
        ended = []

        def on_result(index, result):
            ended.append(index)
            batch = refill[: 2 if index == 1 else 1]
            del refill[: len(batch)]
            launched.extend(batch)
            return batch

        results = run_to_attractor_batch(fig4_params, launched[:6], attractors, on_result=on_result)
        assert refill == [] and len(launched) == len(nodes)
        assert sorted(ended) == list(range(len(nodes)))
        assert ended != sorted(ended)  # runs end out of launch order
        assert len(results) == len(nodes)
        for x0, got in zip(launched, results):
            assert _same_reach(got, run_to_attractor(fig4_params, x0, attractors)), x0
        assert {got.label for got in results} == {"E1", "E4", UNDECIDED}

    @pytest.mark.parametrize("x0", [(1e160, 1.0, 1.0, 0.0), (1e200, 3.0, 2.5, 0.0)])
    def test_start_far_outside_the_balls_fails_on_step_size(self, fig4_params, x0):
        # The squared distance to the balls overflows Python floats there;
        # it counts as outside every ball, and the run fails as integrate's does.
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        with pytest.raises(StepFailureError) as plain:
            integrate(fig4_params, x0)
        with pytest.raises(StepFailureError) as scalar:
            run_to_attractor(fig4_params, x0, [e1, e4])
        assert str(scalar.value) == str(plain.value)
        for starts in ([x0], [(1.4, 0.1, 0.1, 0.0), x0]):
            with pytest.raises(StepFailureError) as batched:
                run_to_attractor_batch(fig4_params, starts, [e1, e4])
            assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("tol", [1e-200, 1e-300])
    def test_overflowing_error_norm_fails_on_step_size_everywhere(self, fig4_params, tol):
        # The squared error ratios overflow: Python's ** raises where numpy
        # returns inf. Both steppers reject as on any non-finite error, shrink
        # by _FAC_MIN and fail on step size, with the same message.
        cfg = IntegrationConfig().with_tolerance(tol)
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        x0 = (1.4, 0.1, 0.1, 0.0)
        with pytest.raises(StepFailureError) as plain:
            integrate(fig4_params, x0, cfg)
        with pytest.raises(StepFailureError) as scalar:
            run_to_attractor(fig4_params, x0, [e1, e4], cfg)
        with pytest.raises(StepFailureError) as batched:
            run_to_attractor_batch(fig4_params, [x0, (1.0, 1.0, 1.0, 0.0)], [e1, e4], cfg)
        assert str(plain.value) == str(scalar.value) == str(batched.value)
        assert str(batched.value) == f"step size underflowed below {cfg.min_step} at t=0"

    def test_one_start_is_a_scalar_run(self, fig4_params, monkeypatch):
        e1 = compute_equilibrium(fig4_params, "E1")
        e4 = compute_equilibrium(fig4_params, "E4")
        x0 = (1.4, 0.1, 0.1, 0.0)
        want = run_to_attractor(fig4_params, x0, [e1, e4])
        calls = []

        def recording(params, start, *args):
            calls.append(tuple(start))
            return run_to_attractor(params, start, *args)

        monkeypatch.setattr(twostrain.integrate, "run_to_attractor", recording)
        (got,) = run_to_attractor_batch(fig4_params, [x0], [e1, e4])
        assert calls == [x0]
        assert _same_reach(got, want)
        with pytest.raises(ValueError, match="nonnegative"):
            run_to_attractor_batch(fig4_params, [(-0.1, 1.0, 0.0, 0.0)], [e1, e4])
        assert calls == [x0]

        # A start the callback offers alone, with no lane running, is a
        # scalar run too; two offered together run as lanes.
        x1, x2, x3 = (1.9, 0.2, 0.3, 0.0), (0.5, 2.0, 1.0, 0.0), (1.0, 1.0, 2.0, 0.0)
        offers = {0: [x1], 1: [x2, x3]}
        calls.clear()
        got = run_to_attractor_batch(
            fig4_params, [x0], [e1, e4], on_result=lambda index, result: offers.get(index, [])
        )
        assert calls == [x0, x1]
        for start, result in zip([x0, x1, x2, x3], got):
            assert _same_reach(result, run_to_attractor(fig4_params, start, [e1, e4]))


def _record_accepted_times(monkeypatch) -> list:
    """Collect the accepted times of every scalar run, one list per run."""
    runs = []
    core = twostrain.integrate._integrate_core

    def recording(*args, **kwargs):
        times, states, termination = core(*args, **kwargs)
        runs.append(times)
        return times, states, termination

    monkeypatch.setattr(twostrain.integrate, "_integrate_core", recording)
    return runs


class TestAttractorStepBound:
    """Attractor runs step at most a quarter of the dwell time, whatever max_step says."""

    def test_outcomes_do_not_depend_on_max_step_and_the_bound_binds(
        self, fig4_params, monkeypatch
    ):
        attractors = [compute_equilibrium(fig4_params, "E1"), compute_equilibrium(fig4_params, "E4")]
        axes = [np.linspace(lo, hi, 3) for lo, hi in _FIG4_BOUNDS]
        nodes = [(u1, u2, u3, 0.0) for u1, u2, u3 in itertools.product(*axes)]
        # 0.05 to either side of points on fig4's boundary surface.
        probes = [
            (1.106, 0.0, 0.192, 0.0),
            (1.106, 0.0, 0.292, 0.0),
            (1.408, 0.012, 0.325, 0.0),
            (1.408, 0.012, 0.425, 0.0),
            (1.631, 0.253, 0.036, 0.0),
            (1.631, 0.253, 0.136, 0.0),
        ]
        starts = nodes + probes
        runs = _record_accepted_times(monkeypatch)
        configs = [IntegrationConfig(max_step=m) for m in (1.0, 0.5, math.inf)]
        assert configs[0] == IntegrationConfig()
        outcomes = []
        for cfg in configs:
            scalar = [run_to_attractor(fig4_params, x0, attractors, cfg) for x0 in starts]
            batched = run_to_attractor_batch(fig4_params, starts, attractors, cfg)
            for x0, got, want in zip(starts, batched, scalar):
                assert _same_reach(got, want), (cfg.max_step, x0)
            outcomes.append(
                [(r.label, r.t_detected, r.termination, r.final_state.tobytes()) for r in scalar]
            )
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        assert {label for label, *_ in outcomes[0]} == {"E1", "E4", UNDECIDED}

        # The documented bound, a quarter of the dwell time.
        assert _ATTRACTOR_MAX_STEP == _DWELL_TIME / 4 == 2.5
        # Each scalar run above; the lanes take the same steps. An accepted
        # time is t + h rounded, so a step of exactly the bound may read a
        # few units in the last place of t off it.
        assert len(runs) == 3 * len(starts)
        longest = []
        for times in runs:
            t = np.asarray(times)
            slack = 4.0 * np.spacing(t[1:])
            assert np.all(np.diff(t) <= _ATTRACTOR_MAX_STEP + slack)
            longest.append(np.max(np.diff(t) - slack))
        assert max(longest) >= _ATTRACTOR_MAX_STEP - 1e-9

    def test_initial_step_above_the_bound_is_clamped(self, fig4_params, monkeypatch):
        # A valid config whose initial_step exceeds the bound: the first
        # attempt is min(initial_step, bound, t_max), and nothing rebuilds
        # the config (whose checks would reject initial_step > max_step).
        cfg = IntegrationConfig(initial_step=5.0, max_step=10.0)
        attractors = [compute_equilibrium(fig4_params, "E1"), compute_equilibrium(fig4_params, "E4")]
        # A start on E1 has a zero field, so its first attempt is accepted.
        starts = [
            tuple(attractors[0].coordinates),
            (1.4, 0.1, 0.1, 0.0),
            (0.5, 2.0, 1.0, 0.0),
            (1.0, 1.0, 2.0, 0.0),
        ]
        runs = _record_accepted_times(monkeypatch)
        scalar = [run_to_attractor(fig4_params, x0, attractors, cfg) for x0 in starts]
        batched = run_to_attractor_batch(fig4_params, starts, attractors, cfg)
        for x0, got, want in zip(starts, batched, scalar):
            assert _same_reach(got, want), x0
        assert {r.label for r in scalar} == {"E1", "E4"}
        assert len(runs) == len(starts)
        assert runs[0][1] == _ATTRACTOR_MAX_STEP
        for times in runs:
            assert 0.0 < times[1] - times[0] <= _ATTRACTOR_MAX_STEP


class TestCsv:
    def test_header_and_shape(self, fig1_params):
        traj = integrate(fig1_params, (0.0, 1.8, 0.1, 0.1))
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,P,S,V,W"
        assert len(lines) == len(traj) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 1.8, 0.1, 0.1]

    def test_bytes_match_the_per_row_format(self, fig1_params):
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, sys.float_info.max, 0.1, 1.0 / 3.0]
        rng = np.random.default_rng(59)
        values = np.array(special * 4)[rng.permutation(4 * len(special))].reshape(-1, 5)
        real = integrate(fig1_params, (0.0, 1.8, 0.1, 0.1))
        for traj in (Trajectory(values[:, 0], values[:, 1:], "converged"), real):
            want = "t,P,S,V,W\n" + "".join(
                f"{t:.17g},{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g}\n"
                for t, row in zip(traj.times, traj.states)
            )
            buf = io.StringIO()
            write_trajectory_csv(traj, buf)
            assert buf.getvalue() == want
