"""Closed-form equilibrium catalog, thresholds and the vectorized root search."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import draw_parameter_matrix, params_from_row
from twostrain import equilibria
from twostrain.equilibria import (
    ALL_IDS,
    EQUILIBRIUM_IDS,
    DegenerateEquilibriumError,
    batched_newton,
    catalog,
    compute_equilibrium,
    equilibrium_residual,
    random_interior_starts,
    records_to_jsonl,
    thresholds,
)
from twostrain.model import PARAMETER_KEYS, _field, _field_jacobian, rhs


def _reference_newton(param_matrix, starts, iterations=40, tol=1e-10):
    """``batched_newton`` as a plain loop: every row for every iteration."""
    param_matrix = np.asarray(param_matrix, dtype=float)
    x = np.array(starts, dtype=float, copy=True)
    cols = tuple(param_matrix.T)
    eye = np.eye(4)
    for _ in range(iterations):
        residual = np.column_stack(_field(*x.T, *cols))
        J = _field_jacobian(*x.T, *cols)
        finite = np.isfinite(x).all(axis=1) & np.isfinite(residual).all(axis=1)
        det = np.where(finite, np.abs(np.linalg.det(np.where(finite[:, None, None], J, eye))), 0.0)
        ok = finite & (det > 1e-300)
        J[~ok] = eye
        residual[~ok] = 0.0
        step = np.linalg.solve(J, residual[..., None])[..., 0]
        x = x - step
    finite_x = np.where(np.isfinite(x), x, 0.0)
    final = np.column_stack(_field(*finite_x.T, *cols))
    scale = 1.0 + np.max(np.abs(finite_x), axis=1)
    converged = np.isfinite(x).all(axis=1) & (np.max(np.abs(final), axis=1) <= tol * scale)
    return x, converged


def _assert_same_newton(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _edge_newton_rows(params):
    """Parameter rows and starts that stress the early exit of batched_newton.

    Starts exactly on every catalog root, a divergent start, a NaN start
    and starts with negative zeros.
    """
    row = [params.as_dict()[k] for k in PARAMETER_KEYS]
    starts = [rec.coordinates for rec in catalog(params) if rec.coordinates is not None]
    starts += [
        (1e30, 1e30, 1e30, 1e30),
        (np.nan, 1.0, 0.5, 0.5),
        (-0.0, 1.0, -0.0, 0.0),
        (-0.0, -0.0, -0.0, -0.0),
        (0.3, -0.0, 0.7, -0.0),
    ]
    return np.repeat([row], len(starts), axis=0), np.array(starts, dtype=float)


class TestThresholds:
    def test_reference_values(self, fig1_params, fig4_params):
        t = thresholds(fig1_params)
        assert t.A == pytest.approx(1.0, rel=1e-14)
        assert t.B == pytest.approx(8.0, rel=1e-14)
        assert t.C == pytest.approx(0.49, rel=1e-14)
        assert t.G == pytest.approx(0.4, rel=1e-14)
        assert t.M == pytest.approx(0.476 / 1.89, rel=1e-14)
        assert t.N == pytest.approx(0.224 / 0.06, rel=1e-13)
        assert t.undefined == ()
        assert thresholds(fig4_params).A == pytest.approx(11.0 / 6.0, rel=1e-14)

    def test_vanishing_transmission_marks_fields_undefined(self, fig1_params):
        t = thresholds(fig1_params.replace(**{"lambda": 0.0}))
        assert t.A is None
        assert "A" in t.undefined
        assert t.B is not None

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_upper_comparison_point_exceeds_the_window_edge(self, seed):
        # N - G = s*lam*mu*(e*L + mu + psi) / (e*L*psi*(mu+psi)) > 0 for
        # positive rates, so N never undercuts G.
        rng = np.random.default_rng(seed)
        t = thresholds(params_from_row(draw_parameter_matrix(rng, 1)[0]))
        assert t.N > t.G


class TestClosedForms:
    def test_trivial_and_single_population_points(self, fig1_params):
        e0 = compute_equilibrium(fig1_params, "E0")
        np.testing.assert_array_equal(e0.coordinates, (0.0, 0.0, 0.0, 0.0))
        assert e0.feasible and not e0.marginal and e0.margins == {}
        e1 = compute_equilibrium(fig1_params, "E1")
        np.testing.assert_array_equal(e1.coordinates, (1.5, 0.0, 0.0, 0.0))
        e2 = compute_equilibrium(fig1_params, "E2")
        np.testing.assert_array_equal(e2.coordinates, (0.0, 2.0, 0.0, 0.0))

    def test_endemic_point_with_the_first_competitor(self, fig1_params):
        e6 = compute_equilibrium(fig1_params, "E6")
        np.testing.assert_allclose(
            e6.coordinates,
            (21.0 / 74.0, 40.0 / 37.0, 910.0 / 3811.0, 0.0),
            rtol=1e-12,
            atol=0,
        )
        assert round(float(e6.coordinates[2]), 6) == 0.238782
        assert e6.feasible

    def test_feasibility_verdicts(self, fig1_params):
        feasible = {r.id for r in catalog(fig1_params) if r.feasible}
        assert feasible == {"E0", "E1", "E2", "E3", "E4", "E6"}
        e5 = compute_equilibrium(fig1_params, "E5")
        assert e5.margins["strain_two_invades"] == pytest.approx(-6.0)
        e7 = compute_equilibrium(fig1_params, "E7")
        assert not e7.feasible

    def test_basin_scenario_attractor_coordinates(self, fig4_params):
        e1 = compute_equilibrium(fig4_params, "E1")
        np.testing.assert_array_equal(e1.coordinates, (1.5, 0.0, 0.0, 0.0))
        e3 = compute_equilibrium(fig4_params, "E3")
        np.testing.assert_allclose(
            e3.coordinates, (1.3125, 0.1875, 0.0, 0.0), rtol=1e-12, atol=0
        )
        assert e3.feasible
        e4 = compute_equilibrium(fig4_params, "E4")
        np.testing.assert_allclose(
            e4.coordinates,
            (0.0, 11.0 / 6.0, 0.539 / 0.324, 0.0),
            rtol=1e-12,
            atol=0,
        )

    def test_decoupled_competition_recovers_both_capacities(self, fig1_params):
        p = fig1_params.replace(a=0.0, b=0.0)
        e3 = compute_equilibrium(p, "E3")
        np.testing.assert_allclose(e3.coordinates, (1.5, 2.0, 0.0, 0.0), rtol=1e-14)

    def test_coexistence_with_both_invasion_margins_negative(self, fig5_params):
        # Both in-plane invasion slacks are negative yet the point is
        # feasible: the shared denominator is negative too.
        q3 = compute_equilibrium(fig5_params, "Q3")
        np.testing.assert_allclose(q3.coordinates, (0.2, 0.8, 0.0, 0.0), rtol=1e-12)
        assert q3.feasible
        assert q3.subsystem == "competition_PS"
        assert q3.margins["first_invades_second"] < 0.0
        assert q3.margins["second_invades_first"] < 0.0

    def test_marginal_flag_at_an_exchange(self, fig1_params):
        e4 = compute_equilibrium(fig1_params.replace(K=1.0), "E4")
        assert e4.marginal
        assert e4.feasible
        np.testing.assert_allclose(e4.coordinates, (0.0, 1.0, 0.0, 0.0), atol=1e-15)

    def test_unknown_id_rejected(self, fig1_params):
        with pytest.raises(ValueError, match="unknown equilibrium id"):
            compute_equilibrium(fig1_params, "E9")
        assert set(EQUILIBRIUM_IDS) < set(ALL_IDS)


class TestDegeneracies:
    def test_balanced_competition_denominator(self, fig1_params):
        # b*L*K*a = r*s wipes out the in-plane coexistence denominator.
        p = fig1_params.replace(a=fig1_params.r * fig1_params.s / (0.7 * 1.5 * 2.0))
        with pytest.raises(DegenerateEquilibriumError) as err:
            compute_equilibrium(p, "E3")
        assert err.value.eq_id == "E3"

    def test_vanishing_transmission_or_mortality(self, fig1_params):
        with pytest.raises(DegenerateEquilibriumError):
            compute_equilibrium(fig1_params.replace(**{"lambda": 0.0}), "E4")
        with pytest.raises(DegenerateEquilibriumError):
            compute_equilibrium(fig1_params.replace(mu=0.0), "E4")

    def test_vanishing_infected_branch_denominator(self, fig1_params):
        # psi chosen so s*lam*e*L + s*lam*mu = psi*e*L*a exactly.
        p = fig1_params.replace(psi=0.224 / 0.09)
        with pytest.raises(DegenerateEquilibriumError):
            compute_equilibrium(p, "E6")

    def test_catalog_keeps_degenerate_entries(self, fig1_params):
        records = catalog(fig1_params.replace(**{"lambda": 0.0}))
        assert [r.id for r in records] == list(EQUILIBRIUM_IDS)
        e4 = next(r for r in records if r.id == "E4")
        assert e4.coordinates is None and not e4.feasible
        with pytest.raises(DegenerateEquilibriumError):
            e4.coordinate_tuple()


def test_catalog_computes_the_thresholds_once(fig1_params, fig4_params, threshold_calls):
    for params in (fig1_params, fig4_params, fig1_params.replace(**{"lambda": 0.0})):
        threshold_calls.clear()
        records = catalog(params)
        assert len(records) == len(EQUILIBRIUM_IDS)
        assert threshold_calls == [params]


class TestResidualProperty:
    def test_feasible_entries_are_exact_roots(self):
        rng = np.random.default_rng(61)
        for row in draw_parameter_matrix(rng, 300):
            p = params_from_row(row)
            for rec in catalog(p):
                if rec.coordinates is None or not rec.feasible:
                    continue
                scale = 1.0 + float(np.max(np.abs(rec.coordinates)))
                assert equilibrium_residual(p, rec) <= 1e-10 * scale

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_endemic_consistency(self, seed):
        # Whenever the single-strain endemic point is feasible, its
        # damping coefficient is positive: K >= A forces C > 0.
        rng = np.random.default_rng(seed)
        p = params_from_row(draw_parameter_matrix(rng, 1)[0])
        t = thresholds(p)
        if t.A is not None and p.K >= t.A and p.mu > 0.0:
            assert compute_equilibrium(p, "E4").feasible
            assert t.C > 0.0


class TestVectorizedRootSearch:
    def test_converges_back_to_a_perturbed_catalog_point(self, fig1_params):
        e4 = compute_equilibrium(fig1_params, "E4").coordinates
        row = np.array([[fig1_params.as_dict()[k] for k in PARAMETER_KEYS]])
        pm = np.repeat(row, 2, axis=0)
        starts = np.vstack((e4 + 1e-3, e4))
        roots, converged = batched_newton(pm, starts)
        assert converged.all()
        np.testing.assert_allclose(roots, np.vstack((e4, e4)), rtol=0, atol=1e-9)

    def test_mismatched_rows_rejected(self, fig1_params):
        row = np.array([[fig1_params.as_dict()[k] for k in PARAMETER_KEYS]])
        with pytest.raises(ValueError, match="matching row counts"):
            batched_newton(row, np.zeros((2, 4)))

    def test_divergent_rows_report_unconverged_without_raising(self, fig1_params):
        row = np.array([[fig1_params.as_dict()[k] for k in PARAMETER_KEYS]])
        pm = np.repeat(row, 2, axis=0)
        starts = np.array([[1e30, 1e30, 1e30, 1e30], [0.0, 1.0, 0.7, 0.0]])
        roots, converged = batched_newton(pm, starts)
        assert not converged[0]
        assert converged[1]

    def test_matches_the_plain_loop_byte_for_byte(self):
        rng = np.random.default_rng(23)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 50), 20, rng)
        _assert_same_newton(batched_newton(tiled, starts), _reference_newton(tiled, starts))

    def test_edge_rows_match_the_plain_loop(self, fig1_params, fig4_params):
        for params in (fig1_params, fig4_params):
            tiled, starts = _edge_newton_rows(params)
            for iterations in (0, 1, 2, 40):
                _assert_same_newton(
                    batched_newton(tiled, starts, iterations),
                    _reference_newton(tiled, starts, iterations),
                )
        # Mixed into a batch where most rows settle and the set is compacted.
        rng = np.random.default_rng(29)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 10), 20, rng)
        edge_params, edge_starts = _edge_newton_rows(fig4_params)
        tiled = np.vstack((edge_params, tiled, edge_params))
        starts = np.vstack((edge_starts, starts, edge_starts))
        _assert_same_newton(batched_newton(tiled, starts), _reference_newton(tiled, starts))

    def test_rows_do_not_depend_on_the_rest_of_the_batch(self, fig4_params):
        rng = np.random.default_rng(31)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 20), 15, rng)
        edge_params, edge_starts = _edge_newton_rows(fig4_params)
        tiled = np.vstack((tiled, edge_params))
        starts = np.vstack((starts, edge_starts))
        roots, converged = batched_newton(tiled, starts)
        order = rng.permutation(len(starts))
        p_roots, p_converged = batched_newton(tiled[order], starts[order])
        assert p_roots.tobytes() == roots[order].tobytes()
        assert p_converged.tobytes() == converged[order].tobytes()
        for part in np.array_split(np.arange(len(starts)), 7):
            s_roots, s_converged = batched_newton(tiled[part], starts[part])
            assert s_roots.tobytes() == roots[part].tobytes()
            assert s_converged.tobytes() == converged[part].tobytes()

    def test_interior_start_boxes(self):
        rng = np.random.default_rng(19)
        matrix = draw_parameter_matrix(rng, 5)
        tiled, starts = random_interior_starts(matrix, 7, rng)
        assert tiled.shape == (35, 14)
        assert starts.shape == (35, 4)
        np.testing.assert_array_equal(tiled[0], tiled[6])
        L = tiled[:, PARAMETER_KEYS.index("L")]
        K = tiled[:, PARAMETER_KEYS.index("K")]
        assert np.all(starts > 0.0)
        assert np.all(starts[:, 0] <= 2.0 * L)
        assert np.all(starts[:, 1:] <= 2.0 * K[:, None])

    @pytest.mark.parametrize(
        "params_shape, starts_shape, iterations, name",
        [
            ((2, 13), (2, 4), 40, "param_matrix"),
            ((2, 15), (2, 4), 40, "param_matrix"),
            ((14,), (2, 4), 40, "param_matrix"),
            ((2, 14), (2, 3), 40, "starts"),
            ((2, 14), (2, 5), 40, "starts"),
            ((2, 14), (4,), 40, "starts"),
            ((2, 14), (2, 4), -1, "iterations"),
            ((2, 14), (2, 4), 2.0, "iterations"),
            ((2, 14), (2, 4), None, "iterations"),
            # A tol case gives (iterations, tol) in the iterations column.
            ((2, 14), (2, 4), (40, 0.0), "tol"),
            ((2, 14), (2, 4), (40, -1.0), "tol"),
            ((2, 14), (2, 4), (40, float("nan")), "tol"),
            ((2, 14), (2, 4), (40, float("inf")), "tol"),
        ],
    )
    def test_bad_newton_input_is_rejected_before_any_work(
        self, monkeypatch, params_shape, starts_shape, iterations, name
    ):
        def no_work(*args):
            raise AssertionError("the field was evaluated")

        monkeypatch.setattr(equilibria, "_field", no_work)
        trailing = iterations if isinstance(iterations, tuple) else (iterations,)
        with pytest.raises(ValueError, match=name):
            batched_newton(np.ones(params_shape), np.ones(starts_shape), *trailing)

    @pytest.mark.parametrize(
        "params_shape, per_row, name",
        [
            ((2, 13), 3, "param_matrix"),
            ((2, 15), 3, "param_matrix"),
            ((14,), 3, "param_matrix"),
            ((2, 14), 0, "per_row"),
            ((2, 14), -1, "per_row"),
            ((2, 14), 1.5, "per_row"),
        ],
    )
    def test_bad_start_request_is_rejected_before_any_draw(self, params_shape, per_row, name):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=name):
            random_interior_starts(np.ones(params_shape), per_row, rng)
        assert rng.bit_generator.state == state

    def test_singular_rows_take_the_determinant_fallback(self, monkeypatch):
        # Row 0 of the Jacobian is exactly [0, -0, 0, 0] here: P = 0 and
        # s = a * S.
        row = dict.fromkeys(PARAMETER_KEYS, 1.0)
        row.update(s=1.0, a=0.5)
        singular = np.array([row[k] for k in PARAMETER_KEYS])
        start = np.array([0.0, 2.0, 0.3, 0.4])
        J = _field_jacobian(*start, *singular)
        assert J[0].tobytes() == np.array([0.0, -0.0, 0.0, 0.0]).tobytes()
        assert np.linalg.det(J) == 0.0

        rng = np.random.default_rng(37)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 10), 20, rng)
        at = [0, 101, 202]
        tiled = np.insert(tiled, [0, 100, 200], singular, axis=0)
        starts = np.insert(starts, [0, 100, 200], start, axis=0)
        want = _reference_newton(tiled, starts)
        seen = _record_determinants(monkeypatch)
        roots, converged = batched_newton(tiled, starts)
        _assert_same_newton((roots, converged), want)
        assert roots[at].tobytes() == np.repeat([start], 3, axis=0).tobytes()
        assert not converged[at].any()
        # The singular rows reach np.linalg.det on every iteration until the
        # batch is compacted, and no other row ever does.
        assert seen and all(m.tobytes() == np.repeat([J], 3, axis=0).tobytes() for m in seen)

    def test_underflowing_determinants_take_the_fallback(self, monkeypatch, fig4_params):
        rng = np.random.default_rng(41)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 10), 20, rng)
        row = np.array([[fig4_params.as_dict()[k] for k in PARAMETER_KEYS]]) * 1e-100
        tiny_params, tiny_starts = random_interior_starts(row, 4, rng)
        tiled = np.vstack((tiny_params, tiled))
        starts = np.vstack((tiny_starts, starts))
        want = _reference_newton(tiled, starts)
        seen = _record_determinants(monkeypatch)
        _assert_same_newton(batched_newton(tiled, starts), want)
        # Every entry is about 1e-100, so the determinant underflows, LAPACK
        # reads it as 0 and the rows stay where they started.
        assert want[0][:4].tobytes() == tiny_starts.tobytes()
        assert len(seen) >= 1 and all(len(m) == 4 for m in seen)

    def test_non_finite_jacobian_entries_take_the_fallback(self, monkeypatch):
        # lambda * S overflows in the Jacobian, while the field stays finite
        # because V = 0; with lambda = 1 only the determinant overflows.
        rows, row_starts = [], []
        for lam, W in ((1e200, 0.0), (1e200, 0.5), (1.0, 0.0)):
            row = dict.fromkeys(PARAMETER_KEYS, 1.0)
            row.update({"lambda": lam, "K": 1e200})
            rows.append([row[k] for k in PARAMETER_KEYS])
            row_starts.append([0.0, 1e200, 0.0, W])
        rng = np.random.default_rng(43)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 10), 20, rng)
        tiled = np.vstack((rows, tiled))
        starts = np.vstack((row_starts, starts))
        with np.errstate(all="ignore"):
            J = _field_jacobian(*starts[:3].T, *tiled[:3].T)
            assert np.isinf(J[:2]).any(axis=(1, 2)).all() and np.isfinite(J[2]).all()
            want = _reference_newton(tiled, starts)
            seen = _record_determinants(monkeypatch)
            _assert_same_newton(batched_newton(tiled, starts), want)
        assert seen and len(seen[0]) == 3
        assert want[0][:2].tobytes() == starts[:2].tobytes()
        assert not want[1][1]


def _record_determinants(monkeypatch):
    """Wrap ``np.linalg.det`` and return the list of stacks it is given."""
    seen = []
    det = np.linalg.det

    def recording(a):
        seen.append(np.array(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", recording)
    return seen


def _scaled(rng, shape, lo, hi):
    return 10.0 ** rng.uniform(lo, hi, shape)


def _matrix_families(rng, n):
    """Named (n, 4, 4) stacks that stress a nonsingularity certificate."""
    A = rng.standard_normal((n, 4, 4))
    yield "rows 10^U(-100, 100)", A * _scaled(rng, (n, 4, 1), -100, 100)
    A = rng.standard_normal((n, 4, 4))
    yield "rows 10^U(-3, 3), all 10^U(-76, 70)", A * _scaled(rng, (n, 4, 1), -3, 3) * _scaled(rng, (n, 1, 1), -76, 70)
    A = rng.standard_normal((n, 4, 4))
    yield "rows and columns 10^U(-60, 60)", A * _scaled(rng, (n, 4, 1), -60, 60) * _scaled(rng, (n, 1, 4), -60, 60)
    A = rng.standard_normal((n, 4, 4))
    A[:, 3] = np.einsum("ni,nij->nj", rng.standard_normal((n, 3)), A[:, :3])
    A[:, 3] += rng.standard_normal((n, 4)) * _scaled(rng, (n, 1), -18, -2)
    yield "near-singular", A[:, rng.permutation(4)]
    p = draw_parameter_matrix(rng, n) * _scaled(rng, (n, 1), -150, 80)
    x = rng.uniform(0.0, 2.0, (n, 4)) * _scaled(rng, (n, 1), -150, 150)
    with np.errstate(all="ignore"):
        yield "model Jacobians", _field_jacobian(*x.T, *p.T)


class TestSingularityCertificate:
    """``equilibria._certified_nonsingular`` never certifies a matrix whose
    LAPACK determinant is at most 1e-300, the test ``_reference_newton``
    freezes rows by."""

    def test_certified_matrices_pass_the_lapack_test(self):
        rng = np.random.default_rng(47)
        counts = {}
        for name, A in _matrix_families(rng, 100_000):
            with np.errstate(all="ignore"):
                certified = equilibria._certified_nonsingular(A)
                det = np.abs(np.linalg.det(A[certified]))
            assert np.all(det > 1e-300), name
            counts[name] = int(np.count_nonzero(certified))
        assert counts["rows 10^U(-3, 3), all 10^U(-76, 70)"] > 50_000
        assert counts["near-singular"] > 10_000
        assert counts["model Jacobians"] > 10_000

    def test_rows_of_very_different_size_are_not_trusted(self):
        # Partial pivoting picks the 2**80-scaled row first, and the small
        # rows' entries vanish below its rounding: LAPACK's det is exactly 0
        # for many of these matrices although the true determinant is at
        # least a tenth of the product of the row norms.
        rng = np.random.default_rng(53)
        n = 20_000
        U = rng.integers(-3, 4, (n, 4, 4)).astype(float)
        U[:, 1:, 0] = rng.choice([-2.0, -1.0, 1.0, 2.0, 4.0], (n, 3))
        U[:, 0, 0] = 2.0**-60
        A = U.copy()
        A[:, 0] *= 2.0**80
        exact = np.abs(np.linalg.det(U)) * 2.0**80
        trap = (np.linalg.det(A) == 0.0) & (exact > 0.1 * np.prod(np.linalg.norm(A, axis=2), axis=1))
        assert np.count_nonzero(trap) > 1000
        assert not equilibria._certified_nonsingular(A[trap]).any()


class TestSerialization:
    def test_jsonl_round_trip_fields(self, fig1_params):
        records = catalog(fig1_params)
        lines = records_to_jsonl(records).splitlines()
        assert len(lines) == len(EQUILIBRIUM_IDS)
        parsed = [json.loads(line) for line in lines]
        assert [obj["id"] for obj in parsed] == list(EQUILIBRIUM_IDS)
        e4 = next(obj for obj in parsed if obj["id"] == "E4")
        np.testing.assert_allclose(e4["coords"], (0.0, 1.0, 0.7, 0.0), atol=1e-14)
        assert e4["feasible"] is True
        assert e4["subsystem"] == "full"
        assert "strain_one_invades" in e4["margins"]

    def test_degenerate_records_serialize_null_coordinates(self, fig1_params):
        records = catalog(fig1_params.replace(**{"lambda": 0.0}))
        parsed = [json.loads(line) for line in records_to_jsonl(records).splitlines()]
        e4 = next(obj for obj in parsed if obj["id"] == "E4")
        assert e4["coords"] is None
