"""Closed-form equilibrium catalog, its thresholds and the vectorized root search."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import draw_parameter_matrix, params_from_row, threshold_call
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
)
from twostrain.figures import PRESETS
from twostrain.model import PARAMETER_KEYS, _field, _field_jacobian, rhs
from twostrain.stability import STABLE_FOCUS, classify


def _reference_newton(param_matrix, starts, iterations=40, tol=1e-10):
    """``batched_newton`` as a plain loop: each row alone, with no blocks and
    no compaction, until it is frozen, its step is at rounding level or the
    budget runs out."""
    param_matrix = np.asarray(param_matrix, dtype=float)
    x = np.array(starts, dtype=float, copy=True)
    rounding = 4.0 * np.finfo(float).eps
    with np.errstate(all="ignore"):
        for params, point in zip(param_matrix, x):
            for _ in range(iterations):
                residual = np.array(_field(*point[:, None], *params[:, None]))
                step, ok = equilibria._newton_step(_field_jacobian(*point[:, None], *params[:, None]), residual)
                if not (ok[0] and np.isfinite(point).all()):
                    break  # frozen where it stands
                step = step[:, 0]
                last = np.all(np.abs(step) <= rounding * (1.0 + np.max(np.abs(point))))
                point -= step
                if last:
                    break
    finite_x = np.where(np.isfinite(x), x, 0.0)
    final = np.column_stack(_field(*finite_x.T, *param_matrix.T))
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
        # Each threshold as a record carries it: A and B are E4's and E5's
        # S, C is E4's endemic damping over r, and the window edges M and G
        # are E6's margins a - M and G - a.
        records = {rec.id: rec for rec in catalog(fig1_params)}
        assert all(rec.coordinates is not None for rec in records.values())
        assert records["E4"].coordinates[1] == pytest.approx(1.0, rel=1e-14)
        assert records["E5"].coordinates[1] == pytest.approx(8.0, rel=1e-14)
        assert records["E4"].in_face["endemic_damping"] / fig1_params.r == pytest.approx(0.49, rel=1e-14)
        margins = records["E6"].margins
        assert fig1_params.a + margins["first_competitor_positive"] == pytest.approx(0.4, rel=1e-14)
        assert fig1_params.a - margins["infected_branch_positive"] == pytest.approx(0.476 / 1.89, rel=1e-14)
        assert compute_equilibrium(fig4_params, "E4").coordinates[1] == pytest.approx(11.0 / 6.0, rel=1e-14)

    def test_vanishing_transmission_makes_the_endemic_point_degenerate(self, fig1_params):
        p = fig1_params.replace(**{"lambda": 0.0})
        with pytest.raises(DegenerateEquilibriumError, match="E4 undefined: lambda vanishes"):
            compute_equilibrium(p, "E4")
        assert compute_equilibrium(p, "E5").coordinates is not None

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_upper_window_edge_is_where_the_first_competitor_vanishes(self, seed):
        # P = L*(lam*s - a*(mu + psi)) / (lam*s + e*L*a), so for positive
        # rates P has the sign of G - a, with G = lam*s / (mu + psi).
        rng = np.random.default_rng(seed)
        p = params_from_row(draw_parameter_matrix(rng, 1)[0])
        for eq_id in ("E6", "E7"):
            rec = compute_equilibrium(p, eq_id)
            margin = rec.margins["first_competitor_positive"]
            if abs(margin) > 1e-9 * p.a:
                assert np.sign(margin) == np.sign(rec.coordinates[0]), (eq_id, p)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_lower_window_edge_is_where_the_infected_numerator_vanishes(self, seed):
        # The infected coordinate is s*(mu + psi + e*L)*E / (K*den*F), and E
        # is linear in a with a positive slope for positive rates, vanishing
        # at a = M: so a - M has the sign of E, and the coordinate that of E*F.
        rng = np.random.default_rng(seed)
        p = params_from_row(draw_parameter_matrix(rng, 1)[0])
        for eq_id, slot, rates in (("E6", 2, (p.lam, p.psi, p.mu, p.e)), ("E7", 3, (p.beta, p.phi, p.nu, p.f))):
            rec = compute_equilibrium(p, eq_id)
            E, F, M, _ = equilibria._mixed_thresholds(p, *rates)
            margin = rec.margins["infected_branch_positive"]
            if abs(margin) > 1e-9 * max(p.a, M):
                assert np.sign(margin) == np.sign(E), (eq_id, p)
                assert np.sign(rec.coordinates[slot]) == np.sign(E) * np.sign(F), (eq_id, p)

    @pytest.mark.parametrize(
        "zeros, eq_id, key, slot",
        [
            (("psi", "mu"), "E6", "first_competitor_positive", 0),
            (("phi", "nu"), "E7", "first_competitor_positive", 0),
            (("b", "e"), "E6", "infected_branch_positive", 2),
            (("b", "f"), "E7", "infected_branch_positive", 3),
        ],
    )
    def test_an_undefined_window_edge_falls_back_to_its_coordinate(self, fig1_params, zeros, eq_id, key, slot):
        # G's denominator is its strain's mu + psi and M's is L*K*(e*r +
        # b*psi + b*mu); where one vanishes, the margin is the coordinate
        # that edge bounds (signed by the infected numerator, which is the
        # coordinate's own sign here since F = s*lam*mu > 0 when b = e = 0).
        p = fig1_params.replace(**{name: 0.0 for name in zeros})
        rec = compute_equilibrium(p, eq_id)
        assert rec.coordinates[slot] != 0.0
        assert float(rec.margins[key]).hex() == float(rec.coordinates[slot]).hex()


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

    def test_rates_in_a_finer_time_unit_keep_every_point(self):
        # fig3's rates (every parameter but the capacities L and K) times
        # 2**-17, a time unit of about 1.5 days in seconds. The equilibria
        # do not move, bit for bit: each degeneracy test compares a
        # difference with its own terms, whatever their units.
        fig3 = PRESETS["fig3"].params
        slow = fig3.replace(**{k: v * 2.0**-17 for k, v in fig3.as_dict().items() if k not in ("L", "K")})
        for eq_id in EQUILIBRIUM_IDS:
            want, got = compute_equilibrium(fig3, eq_id).coordinates, compute_equilibrium(slow, eq_id).coordinates
            assert np.array(got).tobytes() == np.array(want).tobytes(), eq_id
        assert classify(slow, "E6").classification == classify(fig3, "E6").classification == STABLE_FOCUS

    def test_catalog_keeps_degenerate_entries(self, fig1_params):
        records = catalog(fig1_params.replace(**{"lambda": 0.0}))
        assert [r.id for r in records] == list(EQUILIBRIUM_IDS)
        e4 = next(r for r in records if r.id == "E4")
        assert e4.coordinates is None and not e4.feasible
        with pytest.raises(DegenerateEquilibriumError, match=r"^E4 undefined: lambda vanishes$"):
            e4.coordinate_tuple()

    @pytest.mark.parametrize(
        "change, eq_id, text",
        [
            (lambda p: p.replace(lam=0.0), "E4", "E4 undefined: lambda vanishes"),
            (lambda p: p.replace(mu=0.0), "E4", "E4 undefined: mu vanishes"),
            (lambda p: p.replace(nu=0.0), "E5", "E5 undefined: nu vanishes"),
            # Nonzero rates whose product underflows.
            (lambda p: p.replace(K=0.01, lam=10.0, mu=5e-324), "E4", "E4 undefined: K*lambda*mu vanishes"),
            (lambda p: p.replace(b=p.r * p.s / (p.L * p.K * p.a)), "E3", "E3 undefined: b*L*K*a - r*s vanishes"),
            (
                lambda p: p.replace(psi=0.224 / 0.09),
                "E6",
                "E6 undefined: F = s*lambda*e*L + s*lambda*mu - psi*e*L*a vanishes",
            ),
            # Coordinate quotients that overflow while their denominators
            # do not vanish: S = (psi + mu) / lambda, and E3's P.
            (
                lambda p: p.replace(lam=5e-155, K=1e200, mu=1e154, r=1e-160),
                "E4",
                "E4 undefined: lambda vanishes",
            ),
            (lambda p: p.replace(L=1e300, b=1e-300, r=1e10), "E3", "E3 undefined: b*L*K*a - r*s vanishes"),
        ],
        ids=["lambda", "mu", "nu", "K*lambda*mu", "b", "psi", "A overflows", "P3 overflows"],
    )
    def test_a_degenerate_catalog_record_raises_the_point_text(self, fig1_params, change, eq_id, text):
        p = change(fig1_params)
        with pytest.raises(DegenerateEquilibriumError) as point:
            compute_equilibrium(p, eq_id)
        assert str(point.value) == text
        rec = next(r for r in catalog(p) if r.id == eq_id)
        assert rec.notes == f"degenerate: {point.value.expression} vanishes"
        for check in (rec.coordinate_tuple, lambda: equilibrium_residual(p, rec)):
            with pytest.raises(DegenerateEquilibriumError) as err:
                check()
            assert (err.value.eq_id, err.value.expression, str(err.value)) == (eq_id, point.value.expression, text)

    def test_a_record_without_a_closed_form_spectrum_has_no_pair(self, fig1_params):
        cases = 0
        rng = np.random.default_rng(29)
        draws = [params_from_row(row) for row in draw_parameter_matrix(rng, 40)]
        zeroed = [p.replace(**{name: 0.0}) for p in draws for name in ("lam", "mu", "beta", "nu")]
        for p in [fig1_params, *draws, *zeroed]:
            for rec in catalog(p):
                if rec.coordinates is None or rec.id in ("E6", "E7"):
                    assert rec.pair is None and (rec.transverse, rec.in_face, rec.across) == ([], {}, {})
                    cases += rec.coordinates is None
                else:
                    assert len(rec.pair) == 2 and len(rec.transverse) == 2
        assert cases >= 160


def test_catalog_computes_the_thresholds_once(fig1_params, fig4_params, threshold_calls):
    # E3 computes the in-plane discriminant, E4/E5 their strain's endemic
    # values and E6/E7 its mixed values, each once. At lambda = 0, E4 is degenerate before it reads any.
    for params in (fig1_params, fig4_params, fig1_params.replace(**{"lambda": 0.0})):
        threshold_calls.clear()
        records = catalog(params)
        assert len(records) == len(EQUILIBRIUM_IDS)
        expected = [
            threshold_call("in_plane", params),
            threshold_call("endemic", params, "one"),
            threshold_call("endemic", params, "two"),
            threshold_call("mixed", params, "one"),
            threshold_call("mixed", params, "two"),
        ]
        if params.lam == 0.0:
            expected.remove(threshold_call("endemic", params, "one"))
        assert threshold_calls == expected


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
        # damping coefficient is positive: K >= A, E4's S, forces r*C > 0.
        rng = np.random.default_rng(seed)
        p = params_from_row(draw_parameter_matrix(rng, 1)[0])
        e4 = compute_equilibrium(p, "E4")
        if p.K >= e4.coordinates[1] and p.mu > 0.0:
            assert e4.feasible
            assert e4.in_face["endemic_damping"] > 0.0


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

    def test_matches_the_plain_loop_byte_for_byte(self, monkeypatch):
        rng = np.random.default_rng(23)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 50), 20, rng)
        want = _reference_newton(tiled, starts)
        # One block, then eleven blocks of at most 97 rows.
        for block_rows in (equilibria._BLOCK_ROWS, 97):
            monkeypatch.setattr(equilibria, "_BLOCK_ROWS", block_rows)
            _assert_same_newton(batched_newton(tiled, starts), want)

    def test_edge_rows_match_the_plain_loop(self, monkeypatch, fig1_params, fig4_params):
        for params in (fig1_params, fig4_params):
            tiled, starts = _edge_newton_rows(params)
            for iterations in (0, 1, 2, 40):
                want = _reference_newton(tiled, starts, iterations)
                for block_rows in (equilibria._BLOCK_ROWS, 3):
                    monkeypatch.setattr(equilibria, "_BLOCK_ROWS", block_rows)
                    _assert_same_newton(batched_newton(tiled, starts, iterations), want)
                monkeypatch.undo()
        # Mixed into a batch where most rows stop early and the blocks shrink.
        rng = np.random.default_rng(29)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 10), 20, rng)
        edge_params, edge_starts = _edge_newton_rows(fig4_params)
        tiled = np.vstack((edge_params, tiled, edge_params))
        starts = np.vstack((edge_starts, starts, edge_starts))
        want = _reference_newton(tiled, starts)
        for block_rows in (equilibria._BLOCK_ROWS, 64):
            monkeypatch.setattr(equilibria, "_BLOCK_ROWS", block_rows)
            _assert_same_newton(batched_newton(tiled, starts), want)

    def test_rows_do_not_depend_on_the_rest_of_the_batch(self, monkeypatch, fig4_params):
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
        # A batch of two blocks at the shipped size, run whole, in two
        # one-block halves and in blocks of 1000 rows.
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 440), 20, rng)
        tiled = np.vstack((edge_params, tiled, edge_params))
        starts = np.vstack((edge_starts, starts, edge_starts))
        assert equilibria._BLOCK_ROWS < len(starts) <= 2 * equilibria._BLOCK_ROWS
        roots, converged = batched_newton(tiled, starts)
        halves = [batched_newton(tiled[part], starts[part]) for part in np.array_split(np.arange(len(starts)), 2)]
        _assert_same_newton((roots, converged), tuple(np.concatenate(side) for side in zip(*halves)))
        monkeypatch.setattr(equilibria, "_BLOCK_ROWS", 1000)
        _assert_same_newton(batched_newton(tiled, starts), (roots, converged))

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
            ((2, 14), (2, 4), True, "iterations"),
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
            ((2, 14), True, "per_row"),
        ],
    )
    def test_bad_start_request_is_rejected_before_any_draw(self, params_shape, per_row, name):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=name):
            random_interior_starts(np.ones(params_shape), per_row, rng)
        assert rng.bit_generator.state == state

    def test_an_exactly_singular_row_is_frozen_at_its_start(self, monkeypatch):
        # Row 0 of the Jacobian is exactly [0, -0, 0, 0] here: P = 0 and
        # s = a * S.
        row = dict.fromkeys(PARAMETER_KEYS, 1.0)
        row.update(s=1.0, a=0.5)
        singular = np.array([row[k] for k in PARAMETER_KEYS])
        start = np.array([0.0, 2.0, 0.3, 0.4])
        J = _field_jacobian(*start, *singular)
        assert J[0].tobytes() == np.array([0.0, -0.0, 0.0, 0.0]).tobytes()

        rng = np.random.default_rng(37)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 10), 20, rng)
        at = [0, 101, 202]
        tiled = np.insert(tiled, [0, 100, 200], singular, axis=0)
        starts = np.insert(starts, [0, 100, 200], start, axis=0)
        want = _reference_newton(tiled, starts)
        # The kernel takes no LAPACK call.
        for name in ("solve", "det", "inv", "lstsq"):
            monkeypatch.setattr(np.linalg, name, _no_lapack)
        roots, converged = batched_newton(tiled, starts)
        _assert_same_newton((roots, converged), want)
        assert roots[at].tobytes() == np.repeat([start], 3, axis=0).tobytes()
        assert not converged[at].any()

    def test_non_finite_jacobian_entries_freeze_the_row(self):
        # lambda * S overflows in the Jacobian, while the field stays finite
        # because V = 0.
        rows, row_starts = [], []
        for W in (0.5, 0.0):
            row = dict.fromkeys(PARAMETER_KEYS, 1.0)
            row.update({"lambda": 1e200, "K": 1e200})
            rows.append([row[k] for k in PARAMETER_KEYS])
            row_starts.append([0.0, 1e200, 0.0, W])
        rng = np.random.default_rng(43)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 10), 20, rng)
        tiled = np.vstack((rows, tiled))
        starts = np.vstack((row_starts, starts))
        with np.errstate(all="ignore"):
            J = _field_jacobian(*starts[:2].T, *tiled[:2].T)
            residual = np.array(_field(*starts[:2].T, *tiled[:2].T))
        assert np.isinf(J).any(axis=(1, 2)).all() and np.isfinite(residual).all()
        want = _reference_newton(tiled, starts)
        roots, converged = batched_newton(tiled, starts)
        _assert_same_newton((roots, converged), want)
        assert roots[:2].tobytes() == starts[:2].tobytes()
        # The W = 0.5 row is off every root; the W = 0 row sits on E2.
        assert not converged[0] and converged[1]

    def test_scaling_every_rate_by_a_power_of_two_leaves_the_roots(self, fig4_params):
        # Scaling the rates by 2**k (the capacities stay) scales each field
        # component and Jacobian entry by 2**k exactly: the same problem in
        # another time unit. At 2**-332, about 1e-100, an absolute test on
        # the determinant would freeze every row; the scaled test sees the
        # same matrices as at 2**0.
        rng = np.random.default_rng(41)
        tiled, starts = random_interior_starts(draw_parameter_matrix(rng, 10), 20, rng)
        edge_params, edge_starts = _edge_newton_rows(fig4_params)
        tiled = np.vstack((edge_params, tiled))
        starts = np.vstack((edge_starts, starts))
        roots, converged = batched_newton(tiled, starts)
        assert converged.mean() > 0.9
        rates = [k not in ("L", "K") for k in PARAMETER_KEYS]
        for k in (1, 60, 300):
            scaled = np.where(rates, np.ldexp(tiled, k), tiled)
            assert batched_newton(scaled, starts)[0].tobytes() == roots.tobytes(), k
        # Scaled down, a row whose iterate heads for a face drives a field
        # component below 2**-1022, where it rounds as a subnormal; the
        # roots then differ only in that vanishing component.
        for k in (-40, -332):
            scaled = np.where(rates, np.ldexp(tiled, k), tiled)
            s_roots, s_converged = batched_newton(scaled, starts)
            np.testing.assert_allclose(s_roots, roots, rtol=0.0, atol=1e-200, err_msg=str(k))
            # A smaller residual passes the same convergence test.
            assert (s_converged >= converged).all(), k


def _no_lapack(*args, **kwargs):
    raise AssertionError("batched_newton called np.linalg")


def _test_box_jacobians(rng, n):
    """``_field_jacobian`` and ``_field`` on test-box parameter rows, at states
    in their start boxes with about a third of the components zero."""
    params = draw_parameter_matrix(rng, n)
    x = rng.uniform(0.0, 2.0, (n, 4))
    x[rng.random((n, 4)) < 0.3] = 0.0
    return _field_jacobian(*x.T, *params.T), np.array(_field(*x.T, *params.T))


class TestNewtonStep:
    """``equilibria._newton_step``, the kernel of ``batched_newton``, checked
    against what it assumes and against LAPACK."""

    _ZEROS = ((0, 2), (0, 3), (2, 3), (3, 2))

    def test_the_structural_zeros_are_exact(self):
        rng = np.random.default_rng(47)
        params = draw_parameter_matrix(rng, 2000)
        x = rng.uniform(0.0, 2.0, (2000, 4))
        extreme = np.array([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan])
        x[:1000] = rng.choice(extreme, (1000, 4))
        params[:500] *= rng.choice([1e-300, 1e300, np.inf, np.nan], (500, 1))
        with np.errstate(all="ignore"):
            J = _field_jacobian(*x.T, *params.T)
        for i, j in self._ZEROS:
            assert J[:, i, j].tobytes() == np.zeros(2000).tobytes(), (i, j)
        assert not np.isfinite(J).all()

    def test_the_step_matches_lapack_within_a_backward_error_bound(self):
        # One step of refinement makes the solve backward stable, as
        # LAPACK's LU with partial pivoting is: on these draws both keep
        # ||J s - r|| <= 8 eps ||J|| ||s|| (their largest ratios are about 2).
        rng = np.random.default_rng(53)
        J, residual = _test_box_jacobians(rng, 100_000)
        step, ok = equilibria._newton_step(J, residual)
        assert ok.all()
        moved = np.abs(residual).max(axis=0) > 0.0
        J, r, s = J[moved], residual.T[moved], step.T[moved]
        lapack = np.linalg.solve(J, r[..., None])[..., 0]
        eps = np.finfo(float).eps
        norm_J = np.abs(J).sum(axis=2).max(axis=1)
        for solution in (s, lapack):
            backward = np.abs(np.einsum("nij,nj->ni", J, solution) - r).max(axis=1)
            assert np.all(backward <= 8.0 * eps * norm_J * np.abs(solution).max(axis=1))
        # So the two steps agree to the matrix's condition number.
        kappa = norm_J * np.abs(np.linalg.inv(J)).sum(axis=2).max(axis=1)
        assert np.all(np.abs(s - lapack).max(axis=1) <= 16.0 * eps * kappa * np.abs(lapack).max(axis=1))

    def test_scaling_an_equation_by_a_power_of_two_changes_no_bit(self):
        rng = np.random.default_rng(59)
        J, residual = _test_box_jacobians(rng, 5000)
        # Exactly singular rows (a zero equation, a zero V column), rows
        # whose V column is 2**-60 times its equations' size (the scaled
        # determinant is below 2**-56), and one with a non-finite residual.
        J[:100, 0] = 0.0
        J[100:200, :, 2] = 0.0
        J[200:300, 1, 2] = 0.0
        J[200:300, 2, :3] = (1.0, 1.0, 2.0**-60)
        residual[1, 300] = np.inf
        with np.errstate(all="ignore"):
            step, ok = equilibria._newton_step(J, residual)
        assert not ok[:301].any() and ok[301:].all()
        for i in range(4):
            for k in (-600, -100, -1, 1, 100, 600):
                J2, r2 = J.copy(), residual.copy()
                J2[:, i] = np.ldexp(J2[:, i], k)
                r2[i] = np.ldexp(r2[i], k)
                with np.errstate(all="ignore"):
                    step2, ok2 = equilibria._newton_step(J2, r2)
                assert ok2.tobytes() == ok.tobytes(), (i, k)
                assert step2[:, ok].tobytes() == step[:, ok].tobytes(), (i, k)


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
