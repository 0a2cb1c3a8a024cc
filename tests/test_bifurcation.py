"""Parameter sweeps and transcritical crossing location."""

import io

import numpy as np
import pytest

from conftest import draw_parameter_matrix, params_from_row
from twostrain.bifurcation import (
    SUPPORTED_PAIRS,
    NoSignChangeError,
    UnsupportedPairError,
    find_transcritical,
    sweep,
    write_sweep_csv,
)
from twostrain.equilibria import EQUILIBRIUM_IDS, compute_equilibrium
from twostrain.stability import SADDLE, STABLE_NODE, analytic_eigenvalues


class TestSweep:
    def test_grid_shape_and_row_order(self, fig1_params):
        result = sweep(fig1_params, "K", 0.5, 3.0, 26)
        assert result.parameter == "K"
        assert len(result.values) == 26
        assert len(result.rows) == 26 * 8
        assert [row.id for row in result.rows[:8]] == list(EQUILIBRIUM_IDS)
        assert result.rows[8].param_value == pytest.approx(0.6)

    def test_feasibility_flips_at_the_sustainment_capacity(self, fig1_params):
        result = sweep(fig1_params, "K", 0.5, 3.0, 26)
        # The endemic strain-one point needs K >= (psi + mu) / lambda = 1.
        for row in result.rows:
            if row.id == "E4":
                assert row.feasible == (row.param_value >= 1.0 - 1e-12)

    def test_classification_flips_with_competitive_pressure(self, fig1_params):
        result = sweep(fig1_params, "b", 0.1, 1.0, 10)
        e1 = [row for row in result.rows if row.id == "E1"]
        for row in e1:
            expected = SADDLE if row.param_value < 0.7 / 1.5 else STABLE_NODE
            assert row.classification == expected
        assert e1[0].lead_real_part == pytest.approx(0.55)
        assert e1[3].lead_real_part == pytest.approx(0.1)
        assert e1[-1].lead_real_part < 0.0

    def test_validation(self, fig1_params):
        with pytest.raises(ValueError, match="unknown parameter"):
            sweep(fig1_params, "q", 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="lo < hi"):
            sweep(fig1_params, "K", 2.0, 2.0, 5)
        with pytest.raises(ValueError, match="at least two"):
            sweep(fig1_params, "K", 0.5, 3.0, 1)
        with pytest.raises(ValueError, match="must be > 0"):
            sweep(fig1_params, "s", 0.0, 1.0, 3)

    def test_degenerate_grid_point_yields_empty_row(self, fig1_params):
        result = sweep(fig1_params, "lambda", 0.0, 0.7, 2)
        degenerate = [row for row in result.rows if row.coordinates is None]
        assert {row.id for row in degenerate} == {"E4"}
        assert all(row.param_value == 0.0 for row in degenerate)
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "param_value,id,P,S,V,W,feasible,class,lead_re"
        assert len(lines) == 1 + 16
        assert "0,E4,,,,,false,," in lines

    def test_csv_round_trip_values(self, fig1_params):
        result = sweep(fig1_params, "K", 0.5, 3.0, 3)
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        body = buf.getvalue().splitlines()[1:]
        first = body[0].split(",")
        assert first[0] == "0.5" and first[1] == "E0"
        np.testing.assert_allclose([float(v) for v in first[2:6]], 0.0, atol=0)
        assert first[6] == "true"


class TestTranscritical:
    def test_supported_pairs_are_sorted_tuples(self):
        assert ("E2", "E4") in SUPPORTED_PAIRS
        assert tuple(sorted(SUPPORTED_PAIRS)) == SUPPORTED_PAIRS

    def test_capacity_threshold_for_strain_one(self, fig1_params):
        tp = find_transcritical(fig1_params, "K", ("E2", "E4"), 0.5, 3.0)
        assert tp.pair == ("E2", "E4")
        assert tp.critical_value == pytest.approx(1.0, abs=1e-10)
        assert tp.coincidence_gap <= 1e-8
        assert tp.crossing_real_part <= 1e-8
        assert tp.crossing_index == (1, 1)

    def test_capacity_threshold_for_strain_two(self, fig1_params):
        tp = find_transcritical(fig1_params, "K", ("E2", "E5"), 1.0, 20.0)
        assert tp.critical_value == pytest.approx(8.0, abs=1e-9)

    def test_endpoint_sitting_on_the_crossing(self, fig1_params):
        tp = find_transcritical(fig1_params, "a", ("E4", "E6"), 0.01, 0.4)
        assert tp.critical_value == 0.4
        assert tp.coincidence_gap == 0.0

    def test_in_plane_exchanges(self, fig1_params):
        tp = find_transcritical(fig1_params, "b", ("E1", "E3"), 0.3, 0.7)
        assert tp.critical_value == pytest.approx(0.7 / 1.5, abs=1e-10)
        tp = find_transcritical(fig1_params, "a", ("E2", "E3"), 0.1, 0.3)
        assert tp.critical_value == 0.2

    def test_eigenvalue_really_crosses_zero(self, fig1_params):
        tp = find_transcritical(fig1_params, "K", ("E2", "E4"), 0.5, 3.0)
        for eq_id, idx in zip(tp.pair, tp.crossing_index):
            lo = fig1_params.replace(K=tp.critical_value - 1e-4)
            hi = fig1_params.replace(K=tp.critical_value + 1e-4)
            re_lo = float(analytic_eigenvalues(lo, eq_id)[idx].real)
            re_hi = float(analytic_eigenvalues(hi, eq_id)[idx].real)
            assert re_lo * re_hi < 0.0

    def test_feasibility_flips_across_the_crossing(self, fig1_params):
        tp = find_transcritical(fig1_params, "K", ("E2", "E4"), 0.5, 3.0)
        below = fig1_params.replace(K=tp.critical_value - 0.1)
        above = fig1_params.replace(K=tp.critical_value + 0.1)
        assert not compute_equilibrium(below, "E4").feasible
        assert compute_equilibrium(above, "E4").feasible

    def test_unsupported_pair(self, fig1_params):
        with pytest.raises(UnsupportedPairError, match="no exchange margin"):
            find_transcritical(fig1_params, "K", ("E1", "E4"), 0.5, 3.0)

    def test_no_sign_change(self, fig1_params):
        with pytest.raises(NoSignChangeError, match="same sign"):
            find_transcritical(fig1_params, "K", ("E2", "E4"), 2.0, 3.0)

    def test_validation(self, fig1_params):
        with pytest.raises(ValueError, match="unknown parameter"):
            find_transcritical(fig1_params, "q", ("E2", "E4"), 0.5, 3.0)
        with pytest.raises(ValueError, match="lo < hi"):
            find_transcritical(fig1_params, "K", ("E2", "E4"), 3.0, 0.5)

    def test_every_located_crossing_passes_its_validation(self):
        # Bisection runs down to adjacent floats, so the coincidence and
        # crossing-eigenvalue checks (1e-8) hold for every sign change.
        rng = np.random.default_rng(11)
        located = 0
        for row in draw_parameter_matrix(rng, 200):
            p = params_from_row(row)
            for parameter in ("K", "a"):
                for pair in SUPPORTED_PAIRS:
                    try:
                        tp = find_transcritical(p, parameter, pair, 0.1, 2.0)
                    except NoSignChangeError:
                        continue
                    assert tp.coincidence_gap <= 1e-8
                    assert tp.crossing_real_part <= 1e-8
                    located += 1
        assert located > 700

    @pytest.mark.parametrize(
        "parameter, pair, lo, hi",
        [
            ("K", ("E2", "E4"), 0.5, 3.0),
            ("a", ("E4", "E6"), 0.1, 0.5),
            ("a", ("E5", "E7"), 0.01, 0.4),
        ],
    )
    def test_validation_computes_the_thresholds_once(
        self, fig1_params, threshold_calls, parameter, pair, lo, hi
    ):
        tp = find_transcritical(fig1_params, parameter, pair, lo, hi)
        assert threshold_calls == [fig1_params.replace(**{parameter: tp.critical_value})]

    def test_no_sign_change_computes_no_thresholds(self, fig1_params, threshold_calls):
        with pytest.raises(NoSignChangeError):
            find_transcritical(fig1_params, "K", ("E2", "E4"), 2.0, 3.0)
        assert threshold_calls == []
