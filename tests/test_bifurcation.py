"""Parameter sweeps and transcritical crossing location."""

import hashlib
import io

import numpy as np
import pytest

from conftest import draw_parameter_matrix, params_from_row, threshold_call
from twostrain import figures
from twostrain.bifurcation import (
    SUPPORTED_PAIRS,
    NoSignChangeError,
    UnsupportedPairError,
    find_transcritical,
    sweep,
    write_sweep_csv,
)
from twostrain.equilibria import EQUILIBRIUM_IDS, compute_equilibrium
from twostrain.stability import SADDLE, STABLE_NODE, analytic_eigenvalues, classify


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
        with pytest.raises(ValueError, match="count must be an int >= 2"):
            sweep(fig1_params, "K", 0.5, 3.0, 1)
        with pytest.raises(ValueError, match="must be > 0"):
            sweep(fig1_params, "s", 0.0, 1.0, 3)

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", True, None])
    def test_a_count_that_is_not_an_int_is_rejected_before_any_work(self, fig1_params, threshold_calls, count):
        # np.linspace or the comparison with 2 used to raise TypeError, and
        # only after the endpoint checks had run.
        with pytest.raises(ValueError, match="count must be an int >= 2"):
            sweep(fig1_params, "K", 0.5, 3.0, count)
        assert threshold_calls == []
        assert len(sweep(fig1_params, "K", 0.5, 3.0, np.int64(3)).values) == 3

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

    @pytest.mark.parametrize("parameter, lo, hi", [("K", 0.1, 2.0), ("a", 0.05, 2.0)])
    def test_rows_carry_the_full_verdict_bit_for_bit(self, fig1_params, parameter, lo, hi):
        rng = np.random.default_rng(23)
        draws = [fig1_params] + [params_from_row(row) for row in draw_parameter_matrix(rng, 50)]
        seen = set()
        for params in draws:
            for row in sweep(params, parameter, lo, hi, 6).rows:
                if row.coordinates is None:
                    continue
                verdict = classify(params.replace(**{parameter: row.param_value}), row.id)
                assert row.classification == verdict.classification
                assert row.lead_real_part.hex() == verdict.lead_real_part.hex()
                seen.add(row.id)
        # Closed-form spectra (E0-E5) and numeric-only ones (E6, E7) alike.
        assert seen == set(EQUILIBRIUM_IDS)

    def test_each_threshold_once_per_grid_value_and_no_full_verdict(
        self, fig1_params, threshold_calls, classify_forbidden
    ):
        # No point on this grid is degenerate, so each grid value computes
        # the in-plane discriminant and each strain's endemic and mixed
        # values exactly once.
        result = sweep(fig1_params, "K", 0.5, 3.0, 26)
        assert len(result.rows) == 26 * 8
        expected = []
        for v in result.values:
            p = fig1_params.replace(K=float(v))
            expected.append(threshold_call("in_plane", p))
            expected += [threshold_call(name, p, strain) for name in ("endemic", "mixed") for strain in ("one", "two")]
        assert threshold_calls == expected

    def test_every_point_is_computed_once_per_grid_value(self, fig1_params, point_computations):
        # E3's closed-form spectrum reads the record the sweep holds.
        sweep(fig1_params, "K", 0.1, 2.0, 11)
        assert point_computations == {eq_id: 11 for eq_id in EQUILIBRIUM_IDS}
        point_computations.clear()
        classify(fig1_params, "E3")
        assert point_computations == {"E3": 1}


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
        "parameter, pair, lo, hi, computed",
        [
            ("K", ("E2", "E4"), 0.5, 3.0, [("endemic", "one")]),
            ("a", ("E4", "E6"), 0.1, 0.5, [("endemic", "one"), ("mixed", "one")]),
            ("a", ("E5", "E7"), 0.01, 0.4, [("endemic", "two"), ("mixed", "two")]),
        ],
    )
    def test_validation_computes_the_thresholds_once(
        self, fig1_params, threshold_calls, parameter, pair, lo, hi, computed
    ):
        # Only the two records at the critical value read thresholds, and
        # only their own: the bisection reads the exchange margin alone.
        tp = find_transcritical(fig1_params, parameter, pair, lo, hi)
        critical = fig1_params.replace(**{parameter: tp.critical_value})
        assert threshold_calls == [threshold_call(name, critical, strain) for name, strain in computed]

    @pytest.mark.parametrize("parameter, pair, lo, hi", [("b", ("E1", "E3"), 0.3, 0.7), ("a", ("E2", "E3"), 0.1, 0.3)])
    def test_validation_computes_each_point_once(self, fig1_params, point_computations, parameter, pair, lo, hi):
        find_transcritical(fig1_params, parameter, pair, lo, hi)
        assert point_computations == {eq_id: 1 for eq_id in pair}

    def test_no_sign_change_computes_no_thresholds(self, fig1_params, threshold_calls):
        # No helper a closed form computes its thresholds through.
        with pytest.raises(NoSignChangeError):
            find_transcritical(fig1_params, "K", ("E2", "E4"), 2.0, 3.0)
        assert threshold_calls == []


# sha256 of write_sweep_csv over K on [0.1, 2.0] at 11 points, and of the
# repr of every find_transcritical outcome along K and along a on
# [0.1, 2.0], one line per supported pair: the critical value and both
# residuals, or the exception class. Only
# test_rows_carry_the_full_verdict_bit_for_bit checks sweep rows
# otherwise, and it checks them against classify, so these pin the
# equilibrium_scan outputs against any change to the spectrum path.
_SCAN_DIGESTS = {
    "_BASE": (
        "ae90d16cbcf578297d6fd29d627fdbd137efe0e0f5e7c85b5c73269e7d51982f",
        "69dce7da68f167fd7f75c6b7b21be18849aed355f5bfc82dfde264f01cee214a",
    ),
    "_BASIN": (
        "5ecbfbbbd15b37e199c649f5e090b7984bd9d6fc1d203a65479214094c96df65",
        "1af978478e2b8c889037bd772e58b712f702f5b8cab0092416050aa299c51977",
    ),
    "_SMALL": (
        "e32fbb4fdb2bb53269da39d9e6763f575de4a87962466da9fb7cd37dafdc9b7a",
        "0973800c8459800d316b4b45e8b3d575441798aad36b194195df907b99989adf",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _crossing_outcome(*args) -> str:
    try:
        tp = find_transcritical(*args)
    except Exception as err:  # the class is what is pinned
        return type(err).__name__
    return repr((tp.critical_value, tp.coincidence_gap, tp.crossing_real_part))


@pytest.mark.parametrize("preset", sorted(_SCAN_DIGESTS))
def test_scan_outputs_are_pinned(preset):
    p = getattr(figures, preset)
    buf = io.StringIO()
    write_sweep_csv(sweep(p, "K", 0.1, 2.0, 11), buf)
    crossings = "\n".join(
        _crossing_outcome(p, parameter, pair, 0.1, 2.0) for parameter in ("K", "a") for pair in SUPPORTED_PAIRS
    )
    assert (_sha(buf.getvalue()), _sha(crossings)) == _SCAN_DIGESTS[preset]
