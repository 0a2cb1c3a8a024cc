"""Spectra, qualitative classification and per-face verdicts."""

import json

import numpy as np
import pytest

from conftest import draw_parameter_matrix, params_from_row, threshold_call
from twostrain.equilibria import _FACES, ALL_IDS, DegenerateEquilibriumError, compute_equilibrium
from twostrain.stability import (
    MARGINAL,
    SADDLE,
    STABLE_FOCUS,
    STABLE_NODE,
    UNSTABLE_FOCUS,
    UNSTABLE_NODE,
    EigenSolverError,
    analytic_eigenvalues,
    classify,
    classify_eigenvalues,
    numeric_eigenvalues,
    verdicts_to_jsonl,
)


class TestNumericSpectrum:
    def test_sorted_by_descending_real_part(self):
        eigs = numeric_eigenvalues(np.diag([1.0, 3.0, 2.0, 4.0]))
        np.testing.assert_allclose(eigs, [4.0, 3.0, 2.0, 1.0], rtol=1e-14)
        assert eigs.dtype == complex

    def test_ties_broken_by_descending_imaginary_part(self):
        eigs = numeric_eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(eigs, [1.0j, -1.0j], atol=1e-14)

    def test_nonsquare_input_rejected(self):
        with pytest.raises(EigenSolverError):
            numeric_eigenvalues(np.zeros((2, 3)))


class TestAnalyticSpectra:
    def test_extinction_point(self, fig1_params):
        eigs = analytic_eigenvalues(fig1_params, "E0")
        np.testing.assert_allclose(eigs, [0.7, 0.4, -0.7, -1.6], atol=1e-13)

    def test_first_competitor_alone(self, fig1_params):
        eigs = analytic_eigenvalues(fig1_params, "E1")
        np.testing.assert_allclose(eigs, [-0.35, -0.4, -1.0, -1.9], atol=1e-13)

    def test_second_competitor_alone_is_invadable(self, fig1_params):
        eigs = analytic_eigenvalues(fig1_params, "E2")
        np.testing.assert_allclose(eigs, [0.7, -0.2, -0.7, -1.2], atol=1e-13)
        assert classify_eigenvalues(eigs) == SADDLE

    def test_no_cross_pressure_keeps_the_bare_growth_rate(self, fig1_params):
        eigs = analytic_eigenvalues(fig1_params.replace(b=0.0), "E1")
        assert np.any(np.isclose(eigs.real, fig1_params.r, atol=1e-14))

    def test_mixed_equilibria_have_no_closed_form(self, fig1_params):
        for eq_id in ("E6", "E7"):
            with pytest.raises(ValueError, match="no closed-form spectrum"):
                analytic_eigenvalues(fig1_params, eq_id)

    def test_degenerate_point_raises(self, fig1_params):
        with pytest.raises(DegenerateEquilibriumError):
            analytic_eigenvalues(fig1_params.replace(**{"lambda": 0.0}), "E4")

    @pytest.mark.parametrize("eq_id", [eq_id for eq_id in ALL_IDS if eq_id not in ("E6", "E7")])
    def test_the_point_is_computed_once(self, fig1_params, point_computations, eq_id):
        analytic_eigenvalues(fig1_params, eq_id)
        assert point_computations == {_FACES[eq_id].full_id if eq_id in _FACES else eq_id: 1}

    def test_matches_numeric_solver_across_draws(self):
        rng = np.random.default_rng(71)
        checked = 0
        for row in draw_parameter_matrix(rng, 100):
            p = params_from_row(row)
            for eq_id in ("E0", "E1", "E2", "E3", "E4", "E5"):
                try:
                    v = classify(p, eq_id)
                except DegenerateEquilibriumError:
                    continue
                assert v.method == "both"
                scale = 1.0 + float(np.max(np.abs(v.eigenvalues)))
                assert v.diagnostics["analytic_numeric_max_diff"] <= 1e-7 * scale
                checked += 1
        assert checked >= 500


class TestClassifyEigenvalues:
    def test_qualitative_labels(self):
        assert classify_eigenvalues([-1.0, -2.0]) == STABLE_NODE
        assert classify_eigenvalues([-1 + 2j, -1 - 2j, -3]) == STABLE_FOCUS
        assert classify_eigenvalues([2.0, 1.0]) == UNSTABLE_NODE
        assert classify_eigenvalues([1 + 1j, 1 - 1j]) == UNSTABLE_FOCUS
        assert classify_eigenvalues([1.0, -1.0]) == SADDLE

    def test_marginal_band(self):
        assert classify_eigenvalues([1e-11, -1.0]) == MARGINAL
        assert classify_eigenvalues([1e-11, -1.0], band=1e-12) == SADDLE

    def test_tiny_imaginary_parts_do_not_make_a_focus(self):
        assert classify_eigenvalues([-1 + 1e-12j, -1 - 1e-12j]) == STABLE_NODE

    def test_same_labels_as_the_array_comparisons(self):
        def reference(eigs, band):
            eigs = np.asarray(eigs, dtype=complex)
            re = eigs.real
            if np.any(np.abs(re) <= band):
                return MARGINAL
            has_complex = bool(np.any(np.abs(eigs.imag) > band))
            if np.all(re < 0.0):
                return STABLE_FOCUS if has_complex else STABLE_NODE
            if np.all(re > 0.0):
                return UNSTABLE_FOCUS if has_complex else UNSTABLE_NODE
            return SADDLE

        rng = np.random.default_rng(101)
        # Parts near the band edges, signed zeros, infinities and NaN.
        parts = np.array([0.0, -0.0, 1e-10, -1e-10, 1.0000001e-10, 2.0, -3.0, np.inf, -np.inf, np.nan])
        for _ in range(3000):
            size = int(rng.integers(0, 5))
            eigs = [complex(a, b) for a, b in zip(rng.choice(parts, size), rng.choice(parts, size))]
            for band in (1e-10, 0.0):
                assert classify_eigenvalues(eigs, band) == reference(eigs, band), (eigs, band)


class TestVerdicts:
    def test_saddle_with_attracting_faces(self, fig1_params):
        v = classify(fig1_params, "E4")
        assert v.classification == SADDLE
        assert v.method == "both"
        np.testing.assert_allclose(v.coordinates, (0.0, 1.0, 0.7, 0.0), atol=1e-14)
        assert v.lead_real_part == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_allclose(
            v.eigenvalues,
            [0.1, -0.245 + 0.430087j, -0.245 - 0.430087j, -1.4],
            atol=1e-6,
        )
        assert v.condition_report["first_excluded"] == pytest.approx(-0.1, abs=1e-12)
        assert v.condition_report["strain_two_subcritical"] == pytest.approx(1.4)
        assert v.condition_report["endemic_damping"] == pytest.approx(0.343)
        assert v.condition_report["endemic_discriminant"] == pytest.approx(-0.362551)
        assert v.face_classes == {
            "SVW": STABLE_FOCUS,
            "PSV": SADDLE,
            "SV": STABLE_FOCUS,
        }
        assert v.diagnostics["analytic_numeric_max_diff"] <= 1e-10

    def test_stable_boundary_point(self, fig1_params):
        v = classify(fig1_params, "E1")
        assert v.classification == STABLE_NODE
        assert v.condition_report == {"second_excluded": pytest.approx(0.35)}
        assert set(v.face_classes) == {"PSW", "PSV", "PS", "P"}
        assert all(c == STABLE_NODE for c in v.face_classes.values())

    def test_extinction_repels_along_every_face(self, fig1_params):
        v = classify(fig1_params, "E0")
        assert v.classification == SADDLE
        assert v.condition_report == {
            "first_can_grow": pytest.approx(0.4),
            "second_can_grow": pytest.approx(0.7),
        }
        assert v.face_classes["PS"] == UNSTABLE_NODE
        assert v.face_classes["P"] == UNSTABLE_NODE
        assert v.face_classes["SV"] == SADDLE

    def test_marginal_exchange_detected(self, fig1_params):
        v = classify(fig1_params.replace(K=1.0), "E2")
        assert v.classification == MARGINAL

    def test_bistable_scenario_verdicts(self, fig4_params):
        e1 = classify(fig4_params, "E1")
        e4 = classify(fig4_params, "E4")
        e3 = classify(fig4_params, "E3")
        assert e1.classification == STABLE_NODE
        assert e4.classification == STABLE_NODE
        assert e3.classification == SADDLE
        assert e3.lead_real_part == pytest.approx(0.03811376600992806, rel=1e-9)

    def test_coexistence_attractor_on_the_competition_face(self, fig5_params):
        v = classify(fig5_params, "E3")
        assert v.classification == STABLE_NODE
        assert v.condition_report["in_plane_damping"] == pytest.approx(0.175, rel=1e-6)
        assert v.condition_report["in_plane_discriminant"] == pytest.approx(
            0.009016, rel=1e-4
        )
        assert v.condition_report["strain_one_subcritical"] == pytest.approx(
            0.18, rel=1e-6
        )
        assert v.condition_report["strain_two_subcritical"] == pytest.approx(
            1.48, rel=1e-6
        )
        q3 = classify(fig5_params, "Q3")
        assert q3.classification == STABLE_NODE
        assert q3.eigenvalues.shape == (2,)
        np.testing.assert_allclose(q3.eigenvalues.real, [-0.088707, -0.631293], atol=1e-5)
        assert q3.face_classes == {}
        np.testing.assert_allclose(q3.coordinates, (0.2, 0.8, 0.0, 0.0), rtol=1e-12)

    def test_mixed_point_is_classified_numerically(self, fig1_params):
        v = classify(fig1_params, "E6")
        assert v.method == "numeric"
        assert v.classification == STABLE_FOCUS
        assert v.lead_real_part == pytest.approx(-0.04644552159699014, rel=1e-9)
        assert v.condition_report == {}
        assert set(v.face_classes) == {"PSV"}
        assert v.face_classes["PSV"] == STABLE_FOCUS

    def test_undefined_point_propagates(self, fig1_params):
        with pytest.raises(DegenerateEquilibriumError):
            classify(fig1_params.replace(**{"lambda": 0.0}), "E4")

    def test_serialization_fields(self, fig1_params):
        verdicts = [classify(fig1_params, eq_id) for eq_id in ("E1", "E4")]
        lines = verdicts_to_jsonl(verdicts).splitlines()
        assert len(lines) == 2
        for line, v in zip(lines, verdicts):
            obj = json.loads(line)
            assert set(obj) == {
                "id", "coords", "eigenvalues", "class", "method",
                "condition_report", "face_classes", "diagnostics",
            }
            assert obj["class"] == v.classification
            assert len(obj["eigenvalues"]) == 4
            assert all(len(pair) == 2 for pair in obj["eigenvalues"])
            assert obj["eigenvalues"][0][0] == pytest.approx(v.lead_real_part)


def test_the_condition_report_is_the_records_slacks(fig1_params, fig4_params, fig5_params):
    rng = np.random.default_rng(31)
    draws = [params_from_row(row) for row in draw_parameter_matrix(rng, 30)]
    zeroed = [p.replace(**{name: 0.0}) for p in draws for name in ("lam", "psi", "mu", "e")]
    checked = 0
    for p in [fig1_params, fig4_params, fig5_params, *draws, *zeroed]:
        for eq_id in ALL_IDS:
            try:
                rec = compute_equilibrium(p, eq_id)
            except DegenerateEquilibriumError:
                continue
            # repr, so that NaN slacks compare equal too.
            assert repr(classify(p, eq_id).condition_report) == repr(rec.in_face | rec.across), eq_id
            checked += 1
    assert checked >= 1800


# The thresholds each verdict's point computes, by id: none but its own.
_POINT_THRESHOLDS = {
    "E3": [("in_plane", "")],
    "Q3": [("in_plane", "")],
    "E4": [("endemic", "one")],
    "SV_endemic": [("endemic", "one")],
    "E5": [("endemic", "two")],
    "E6": [("mixed", "one")],
    "E7": [("mixed", "two")],
}


def test_classify_computes_the_thresholds_once(fig1_params, fig4_params, threshold_calls):
    classified = 0
    for params in (fig1_params, fig4_params):
        for eq_id in ALL_IDS:
            threshold_calls.clear()
            try:
                classify(params, eq_id)
            except DegenerateEquilibriumError:
                pass
            else:
                classified += 1
            expected = [threshold_call(name, params, strain) for name, strain in _POINT_THRESHOLDS.get(eq_id, [])]
            assert threshold_calls == expected, eq_id
    assert classified >= 20


class TestSignConsistency:
    def test_subcritical_slack_matches_the_eigenvalue_sign(self):
        rng = np.random.default_rng(83)
        checked = 0
        for row in draw_parameter_matrix(rng, 200):
            p = params_from_row(row)
            v = classify(p, "E2")
            slack = v.condition_report["strain_one_subcritical"]
            eig = p.lam * p.K - p.psi - p.mu
            if abs(slack) <= 1e-12:
                continue
            assert (slack > 0.0) == (eig < 0.0)
            assert np.any(np.isclose(v.eigenvalues.real, eig, atol=1e-12))
            checked += 1
        assert checked >= 190

    def test_endemic_discriminant_separates_node_from_focus(self):
        rng = np.random.default_rng(89)
        checked = 0
        for row in draw_parameter_matrix(rng, 300):
            p = params_from_row(row)
            # E4's S is A, and its discriminant Delta4.
            rec = compute_equilibrium(p, "SV_endemic")
            delta = rec.in_face["endemic_discriminant"]
            if p.K <= rec.coordinates[1] or p.mu == 0.0:
                continue
            if abs(delta) <= 1e-8 * (1.0 + delta**2):
                continue
            pair = analytic_eigenvalues(p, "SV_endemic")
            has_spiral = bool(np.any(np.abs(pair.imag) > 0.0))
            assert has_spiral == (delta < 0.0)
            checked += 1
        assert checked >= 40

    def test_bistable_competition_forces_an_interior_saddle(self):
        rng = np.random.default_rng(97)
        cases = 0
        for row in draw_parameter_matrix(rng, 300):
            p = params_from_row(row)
            margin = 1e-6
            if p.b * p.L - p.r <= margin or p.a * p.K - p.s <= margin:
                continue
            assert classify(p, "Q1").classification == STABLE_NODE
            assert classify(p, "Q2").classification == STABLE_NODE
            assert classify(p, "Q3").classification == SADDLE
            cases += 1
        assert cases >= 30
