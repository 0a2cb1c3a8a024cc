"""Basin grids, boundary bisection, surface fitting and probing."""

import dataclasses
import hashlib
import io
import itertools
import math
from collections import Counter, namedtuple

import numpy as np
import pytest

from twostrain import basin
from twostrain.basin import (
    BasinGrid,
    DegenerateGeometryError,
    SeparatrixSample,
    boundary_edge_segments,
    classify_grid,
    fit_surface,
    probe_surface_sides,
    reconstruct_separatrix,
    separatrix_points,
    write_grid_csv,
    write_points_csv,
    write_surface_lattice_csv,
    write_surface_obj,
)
from twostrain import integrate
from twostrain.equilibria import compute_equilibrium
from twostrain.figures import _basin_options, reproduce
from twostrain.integrate import (
    IntegrationConfig,
    ReachResult,
    StepFailureError,
    run_to_attractor,
    run_to_attractor_batch,
)
from twostrain.model import jacobian


@pytest.fixture(scope="module")
def fig4_attractors(fig4_params):
    return [
        compute_equilibrium(fig4_params, "E1"),
        compute_equilibrium(fig4_params, "E4"),
    ]


@pytest.fixture(scope="module")
def spot_grid(fig4_params, fig4_attractors):
    # One node in eight is undecided, above the 5% warning threshold.
    with pytest.warns(UserWarning, match="undecided"):
        return classify_grid(
            fig4_params,
            bounds=((1.3, 1.9), (0.1, 0.2), (0.0, 2.5)),
            resolution=2,
            attractors=fig4_attractors,
        )


def _no_runs(*args, **kwargs):
    raise AssertionError("integrated before validating every input")


# One batch basin ran: its config, whether it had a callback (a stream),
# its starts in launch order, its gates and its results.
_Batch = namedtuple("_Batch", "config streamed starts gates results")


def _record_launches(monkeypatch):
    """Record every batch basin runs as a ``_Batch``, and the attractor id
    (or None) reached from each start, keyed by (start, config, gates)."""
    batches, reached = [], {}

    def recording_batch(params, batch_starts, *args, config=None, on_result=None, gates=(), **kwargs):
        config, gates = config or IntegrationConfig(), tuple(gates)
        batch = _Batch(config, on_result is not None, [], gates, [])
        batches.append(batch)

        def record(starts):
            batch.starts.extend(tuple(float(v) for v in x0) for x0 in starts)
            return starts

        # Bisection launches most of its runs from the callback.
        if on_result is not None:
            kwargs["on_result"] = lambda index, result: record(on_result(index, result))
        results = run_to_attractor_batch(params, record(batch_starts), *args, config=config, gates=gates, **kwargs)
        batch.results.extend(results)
        for start, result in zip(batch.starts, results):
            reached[start, config, gates] = result.attractor_id
        return results

    monkeypatch.setattr(basin, "run_to_attractor_batch", recording_batch)
    return batches, reached


def _plain_bisection(segments, reach, bisect_tol):
    """Bisect one segment at a time, one run per midpoint.

    ``reach(start)`` gives the attractor id (or None) of the run from a
    4-tuple start. Returns the four fields of a ``SeparatrixSample``; per
    segment, its halvings as (midpoint, lower quarter, upper quarter)
    starts, where a skipped segment's last midpoint is the undecided one;
    and the starts of the final bracket ends that are not segment ends,
    lower end first, in segment order.
    """
    points, side_labels, ends, skipped, rounds, moved = [], [], [], [], [], []
    for index, (start, end, lab_lo, lab_hi) in enumerate(segments):
        lo, hi = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
        length = float(np.linalg.norm(hi - lo))
        halvings = []
        rounds.append(halvings)
        while length > bisect_tol:
            mid = 0.5 * (lo + hi)
            halvings.append(
                tuple((*(float(v) for v in u), 0.0) for u in (mid, 0.5 * (lo + mid), 0.5 * (mid + hi)))
            )
            label = reach(halvings[-1][0])
            if label is None:
                skipped.append((index, "undecided midpoint during bisection"))
                break
            if label == lab_lo:
                lo = mid
            else:
                hi = mid
            length *= 0.5
        else:
            points.append(0.5 * (lo + hi))
            side_labels.append((lab_lo, lab_hi))
            ends.append((np.asarray(start, dtype=float), np.asarray(end, dtype=float)))
            moved.extend((*(float(v) for v in u), 0.0) for u, own in ((lo, start), (hi, end)) if tuple(u) != tuple(own))
    return (
        np.array(points).reshape(len(points), 3),
        side_labels,
        np.array(ends).reshape(len(ends), 2, 3),
        skipped,
        rounds,
        moved,
    )


def _check_launches(starts, rounds, skipped):
    """Check that ``starts`` launch each midpoint of ``_plain_bisection``'s
    rounds once per segment, and otherwise only the quarters of two-level
    rounds that plain bisection did not take next; return how many
    two-level rounds there were.

    A round is two-level when its midpoint is launched directly followed
    by its lower and upper quarter. Its selected quarter is the segment's
    next midpoint, so the other one is the extra launch. Both quarters are
    extra when the round's midpoint is the undecided one of a skipped
    segment, and no segment's last halving may launch quarters otherwise.
    Segments that reach the same bracket go on alike, so a launched round
    may be credited to either, but only once.
    """
    follows = Counter(zip(starts, starts[1:], starts[2:]))
    skipped_rows = {row for row, _ in skipped}
    expected = Counter()
    two_level = 0
    for row, halvings in enumerate(rounds):
        for j, (mid, lower, upper) in enumerate(halvings):
            expected[mid] += 1
            last = j + 1 == len(halvings)
            if follows[mid, lower, upper] and (not last or row in skipped_rows):
                follows[mid, lower, upper] -= 1
                two_level += 1
                expected.update(q for q in (lower, upper) if last or q != halvings[j + 1][0])
    assert Counter(starts) == expected
    return two_level


def _slice_saddles(params, ids):
    """(x*, v_u) of each equilibrium of ``ids``: its coordinates, and the
    unit right eigenvector of the one unstable eigenvalue of its slice
    Jacobian, with numpy's sign."""
    saddles = []
    for eq_id in ids:
        x = np.asarray(compute_equilibrium(params, eq_id).coordinates, dtype=float)
        w, right = np.linalg.eig(jacobian(params, x)[:3, :3])
        assert np.count_nonzero(w.real > 0.0) == 1
        v = right[:, np.argmax(w.real)].real
        saddles.append((x, v / np.linalg.norm(v)))
    return saddles


def _check_gate_calibration(batch, saddles, reach):
    """Check that ``batch`` runs exactly the two unstable branches of each
    of ``saddles``, from x* plus and minus 0.1 v_u with every slice
    coordinate raised to at least 0.001, ungated; return (x*, sides, plus
    branch start) of each saddle whose branches reach two different
    attractors, as ``reach(start)`` gives them."""
    assert batch.gates == () and len(batch.starts) == 2 * len(saddles)
    kept = []
    for (x, v), plus, minus in zip(saddles, batch.starts[::2], batch.starts[1::2]):
        assert plus[3] == minus[3] == 0.0
        want = [np.maximum(x[:3] + sign * 0.1 * v, 0.001) for sign in (1.0, -1.0)]
        if abs(plus[0] - want[0][0]) + abs(plus[1] - want[0][1]) > 1e-9:
            want.reverse()  # eig may give either sign of v_u
        np.testing.assert_allclose([plus[:3], minus[:3]], want, rtol=0.0, atol=1e-12)
        sides = (reach(plus), reach(minus))
        if None not in sides and sides[0] != sides[1]:
            kept.append((x, sides, plus))
    return kept


def _check_bisection_batches(batches, segments, reach, config, bisect_tol, rebisected, saddles):
    """Check the batches of one ``separatrix_points`` call at ``config``,
    as ``_record_launches`` records them, and return how many two-level
    rounds they ran.

    ``reach(start, config, gates)`` gives the attractor id (or None) of the
    run from a start at a config through gates. The first batch runs the
    unstable branches of ``saddles`` at the labelling config, ungated
    (``_check_gate_calibration``). Next is a stream at the labelling
    config, with a gate at each saddle whose branches reach two different
    attractors, that launches what plain bisection through those gates
    needs. Then a batch at ``config`` runs exactly the final bracket ends
    of that bisection that are not segment ends, and, if any segment is
    ``rebisected``, a stream at ``config`` launches what plain bisection
    of those segments there needs. Only the labelling stream is gated.
    """
    label = basin._labelling_config(config)
    kinds = [(label, False), (label, True), (config, False)] + [(config, True)] * bool(rebisected)
    assert [(b.config, b.streamed) for b in batches] == kinds
    kept = _check_gate_calibration(batches[0], saddles, lambda u: reach(u, label))
    _, stream, certificate, *rest = batches
    gates = stream.gates
    assert [(g.centre, g.sides) for g in gates] == [(tuple(x), sides) for x, sides, _ in kept]
    for gate, (x, _, plus) in zip(gates, kept):
        # The plus branch's start is on the side a positive unstable
        # coordinate labels.
        assert np.dot(gate.left, np.subtract(plus, x)) > 0.0 and gate.left[3] == 0.0
        assert np.linalg.norm(gate.left) == pytest.approx(1.0, abs=1e-12)
    assert certificate.gates == () and all(b.gates == () for b in rest)
    _, _, _, skipped, rounds, moved = _plain_bisection(segments, lambda u: reach(u, label, gates), bisect_tol)
    two_level = _check_launches(stream.starts, rounds, skipped)
    assert certificate.starts == moved
    if rebisected:
        again = [segments[row] for row in rebisected]
        _, _, _, skipped, rounds, _ = _plain_bisection(again, lambda u: reach(u, config), bisect_tol)
        two_level += _check_launches(rest[-1].starts, rounds, skipped)
    return two_level


def _scalar_reach(params, attractors):
    """``reach(start, config, gates)``: the attractor id (or None) of a
    scalar run from a 4-tuple start, at the default config and ungated
    unless given."""
    memo = {}

    def reach(start, config=IntegrationConfig(), gates=()):
        key = (start, config, tuple(gates))
        if key not in memo:
            memo[key] = run_to_attractor(params, start, attractors, config, gates=gates).attractor_id
        return memo[key]

    return reach


def _answering_batch(reach, batches, order):
    """A stand-in for ``run_to_attractor_batch`` that answers each run with
    ``reach(start, config, gates)`` and records its batch as
    ``_record_launches`` does. Each wave of launches is answered in full,
    and its results reach the callback in launch order or, for ``order``
    "reverse", in reverse launch order. The starts the callback returns
    form the next wave."""

    def answering_batch(params, batch_starts, targets, *, config, on_result=None, gates=(), **kwargs):
        gates = tuple(gates)
        starts = [tuple(float(v) for v in x0) for x0 in batch_starts]
        batch = _Batch(config, on_result is not None, starts, gates, [])
        batches.append(batch)
        results = {}
        while len(results) < len(starts):
            wave = range(len(results), len(starts))
            for index in reversed(wave) if order == "reverse" else wave:
                results[index] = ReachResult(reach(starts[index], config, gates), None, np.zeros(4), "fake")
                if on_result is not None:
                    starts.extend(tuple(float(v) for v in x0) for x0 in on_result(index, results[index]))
        batch.results.extend(results[index] for index in range(len(starts)))
        return batch.results

    return answering_batch


class TestGridClassification:
    def test_spot_labels(self, spot_grid):
        name = lambda i, j, k: spot_grid.label_name(int(spot_grid.labels[i, j, k]))
        assert name(1, 1, 0) == "E1"
        assert name(1, 0, 0) == "E1"
        assert name(0, 0, 0) == "E1"
        assert name(1, 1, 1) == "E4"
        assert name(0, 0, 1) == "E4"
        assert name(0, 1, 1) == "E4"
        # (1.3, 0.2, 0) rides the in-plane boundary near the saddle and
        # legitimately fails to classify.
        assert name(0, 1, 0) == "undecided"
        assert spot_grid.undecided_fraction == pytest.approx(0.125)

    def test_grid_fields(self, spot_grid):
        assert spot_grid.labels.dtype == np.int8
        assert spot_grid.labels.shape == (2, 2, 2)
        assert spot_grid.attractor_ids == ("E1", "E4")
        assert spot_grid.bounds == ((1.3, 1.9), (0.1, 0.2), (0.0, 2.5))
        np.testing.assert_array_equal(spot_grid.axes_1d[0], [1.3, 1.9])
        np.testing.assert_array_equal(spot_grid.axes_1d[2], [0.0, 2.5])
        assert spot_grid.label_name(-1) == "undecided"
        assert spot_grid.label_name(0) == "E1"

    def test_nodes_off_every_attractor_warn(self, fig4_params, fig4_attractors):
        # Nodes with both strains absent drain toward the second
        # competitor alone, which is not in the attractor list.
        with pytest.warns(UserWarning, match="undecided"):
            grid = classify_grid(
                fig4_params,
                bounds=((0.0, 0.1), (2.8, 2.9), (0.0, 0.1)),
                resolution=2,
                attractors=fig4_attractors,
            )
        assert grid.undecided_fraction == pytest.approx(0.5)
        assert np.all(grid.labels[:, :, 0] == -1)
        assert np.all(grid.labels[:, :, 1] == 1)

    def test_a_numpy_int_resolution_is_an_int(self, fig4_params, fig4_attractors, spot_grid):
        # basin refused np.int64(2), a count that sweep and batched_newton take.
        with pytest.warns(UserWarning, match="undecided"):
            grid = classify_grid(fig4_params, ((1.3, 1.9), (0.1, 0.2), (0.0, 2.5)), np.int64(2), fig4_attractors)
        np.testing.assert_array_equal(grid.labels, spot_grid.labels)
        assert _basin_options(np.int64(3), np.int64(1)) == {"resolution": 3, "n_probes": 1}
        for bad in (True, False):
            with pytest.raises(ValueError, match=rf"^resolution must be an int >= 2, got {bad}$"):
                classify_grid(fig4_params, ((1.3, 1.9), (0.1, 0.2), (0.0, 2.5)), bad, fig4_attractors)

    def test_validation(self, fig4_params, fig4_attractors):
        box = ((0.0, 2.0), (0.0, 3.0), (0.0, 2.5))
        with pytest.raises(ValueError, match="resolution"):
            classify_grid(fig4_params, box, 1, fig4_attractors)
        with pytest.raises(ValueError, match="resolution"):
            classify_grid(fig4_params, box, (2, 2), fig4_attractors)
        with pytest.raises(ValueError, match="degenerate bounds"):
            classify_grid(fig4_params, ((1.0, 1.0), (0.0, 3.0), (0.0, 2.5)), 2, fig4_attractors)
        with pytest.raises(ValueError, match="three slice axes"):
            classify_grid(fig4_params, ((0.0, 2.0), (0.0, 3.0)), 2, fig4_attractors)
        with pytest.raises(ValueError, match="nonnegative orthant"):
            classify_grid(fig4_params, ((-0.1, 2.0), (0.0, 3.0), (0.0, 2.5)), 2, fig4_attractors)
        with pytest.raises(ValueError, match="not finite"):
            classify_grid(fig4_params, ((0.0, 2.0), (0.0, math.inf), (0.0, 2.5)), 2, fig4_attractors)
        with pytest.raises(ValueError, match="at least one attractor"):
            classify_grid(fig4_params, box, 2, [])

    def test_grid_csv(self, spot_grid):
        buf = io.StringIO()
        write_grid_csv(spot_grid, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "P,S,V,label"
        assert len(lines) == 1 + 8
        first = lines[1].split(",")
        assert [float(x) for x in first[:3]] == [1.3, 0.1, 0.0]
        assert first[3] == "E1"
        last = lines[8].split(",")
        assert [float(x) for x in last[:3]] == [1.9, 0.2, 2.5]
        assert last[3] == "E4"


class TestSegments:
    def test_boundary_edge_harvest(self):
        labels = np.array(
            [[[0, 0], [0, 1]], [[-1, 1], [1, 1]]], dtype=np.int8
        )
        axes = tuple(np.linspace(0.0, 1.0, 2) for _ in range(3))
        grid = BasinGrid(
            bounds=((0.0, 1.0),) * 3,
            axes_1d=axes,
            labels=labels,
            attractor_ids=("E1", "E4"),
        )
        full = boundary_edge_segments(grid)
        assert len(full) == 12
        keys = {(tuple(lo), tuple(hi)) for lo, hi, _, _ in full}
        assert len(keys) == 12
        for lo, hi, name_lo, name_hi in full:
            # Every pair joins two decided, differently-labelled nodes
            # and carries their labels.
            la = labels[tuple(int(v) for v in lo)]
            lb = labels[tuple(int(v) for v in hi)]
            assert la >= 0 and lb >= 0 and la != lb
            assert (name_lo, name_hi) == (grid.attractor_ids[la], grid.attractor_ids[lb])


class TestBisection:
    def test_column_through_the_basin_boundary(self, fig4_params, fig4_attractors):
        sample = separatrix_points(
            fig4_params,
            [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4")],
            fig4_attractors,
        )
        assert sample.skipped == []
        assert sample.points.shape == (1, 3)
        assert sample.segments.shape == (1, 2, 3)
        assert sample.side_labels == [("E1", "E4")]
        pt = sample.points[0]
        assert pt[0] == 1.9 and pt[1] == 0.2
        assert pt[2] == pytest.approx(0.37784576, abs=1e-6)

    def test_bracket_points_classify_to_opposite_sides(self, fig4_params, fig4_attractors):
        low = run_to_attractor(
            fig4_params, (1.9, 0.2, 0.37784576 - 1e-4, 0.0), fig4_attractors
        )
        high = run_to_attractor(
            fig4_params, (1.9, 0.2, 0.37784576 + 1e-4, 0.0), fig4_attractors
        )
        assert low.attractor_id == "E1"
        assert high.attractor_id == "E4"

    def test_single_basin_segment_is_rejected_before_any_run(
        self, fig4_params, fig4_attractors, monkeypatch
    ):
        monkeypatch.setattr(basin, "run_to_attractor_batch", _no_runs)
        with pytest.raises(ValueError, match="two different ids"):
            separatrix_points(
                fig4_params,
                [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"), ((0.1, 0.5, 1.0), (1.9, 0.5, 1.0), "E4", "E4")],
                fig4_attractors,
            )

    def test_in_plane_boundary_matches_the_saddle(self, fig4_params, fig4_attractors):
        attractors = [fig4_attractors[0], ("E2", (0.0, 3.0, 0.0, 0.0))]
        ends = run_to_attractor_batch(fig4_params, [(0.0, 0.1875, 0.0, 0.0), (1.9, 0.1875, 0.0, 0.0)], attractors)
        assert [end.attractor_id for end in ends] == ["E2", "E1"]
        sample = separatrix_points(
            fig4_params, [((0.0, 0.1875, 0.0), (1.9, 0.1875, 0.0), "E2", "E1")], attractors
        )
        assert sample.points[0][0] == pytest.approx(1.3125, abs=1e-3)

    def test_midpoint_landing_on_the_saddle_is_skipped(self, fig4_params, fig4_attractors):
        # Repeated halving of [0, 2] lands exactly on the saddle at
        # P = 1.3125, which never settles to either attractor.
        e1 = fig4_attractors[0]
        sample = separatrix_points(
            fig4_params,
            [((0.0, 0.1875, 0.0), (2.0, 0.1875, 0.0), "E2", "E1")],
            [e1, ("E2", (0.0, 3.0, 0.0, 0.0))],
        )
        assert sample.points.shape == (0, 3)
        assert sample.skipped == [(0, "undecided midpoint during bisection")]

    @pytest.mark.parametrize("labels", [("undecided", "E4"), ("E1", "E2")])
    def test_unknown_label_is_rejected_before_any_run(
        self, fig4_params, fig4_attractors, monkeypatch, labels
    ):
        monkeypatch.setattr(basin, "run_to_attractor_batch", _no_runs)
        with pytest.raises(ValueError, match="two different ids"):
            separatrix_points(
                fig4_params,
                [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"), ((0.0, 2.9, 0.0), (0.0, 2.9, 0.5), *labels)],
                fig4_attractors,
            )

    @pytest.mark.parametrize("bisect_tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_bisect_tol_is_rejected_before_any_run(
        self, fig4_params, fig4_attractors, monkeypatch, bisect_tol
    ):
        monkeypatch.setattr(basin, "run_to_attractor_batch", _no_runs)
        with pytest.raises(ValueError, match="bisect_tol must be positive"):
            separatrix_points(
                fig4_params,
                [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4")],
                fig4_attractors,
                bisect_tol=bisect_tol,
            )

    def test_orthant_validation(self, fig4_params, fig4_attractors):
        with pytest.raises(ValueError, match="nonnegative orthant"):
            separatrix_points(
                fig4_params,
                [((-0.1, 0.2, 0.0), (1.9, 0.2, 0.0), "E1", "E4")],
                fig4_attractors,
            )

    def test_orthant_is_checked_before_any_run(self, fig4_params, fig4_attractors, monkeypatch):
        monkeypatch.setattr(basin, "run_to_attractor_batch", _no_runs)
        with pytest.raises(ValueError, match="nonnegative orthant"):
            separatrix_points(
                fig4_params,
                [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"), ((1.9, 0.2, 0.0), (1.9, -0.2, 2.5), "E1", "E4")],
                fig4_attractors,
            )

    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_ends_are_checked_before_any_run(self, fig4_params, fig4_attractors, monkeypatch, end, bad):
        # A NaN end passed the orthant check and came back as a boundary
        # point; an inf end failed inside the stream, after the gate search.
        monkeypatch.setattr(basin, "run_to_attractor_batch", _no_runs)
        ends = [(1.9, 0.2, 0.0), (1.9, 0.2, 2.5)]
        ends[end] = (1.9, bad, ends[end][2])
        with pytest.raises(ValueError, match="is not finite"):
            separatrix_points(fig4_params, [(*ends, "E1", "E4")], fig4_attractors)

    def test_lockstep_bisection_matches_one_segment_at_a_time(self, fig4_params, fig4_attractors):
        # Streamed bisection: segments need different numbers of halvings
        # (an edge 5, a face and a body diagonal 6, the columns 8), and
        # the saddle segment is skipped at its fifth midpoint, so the
        # segments' runs fall out of step.
        segments = [
            ((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"),
            ((0.6, 0.0, 0.0), (0.6, 0.0, 0.25), "E1", "E4"),
            ((1.3, 0.1, 2.5), (1.3, 0.1, 0.0), "E4", "E1"),
            ((0.0, 0.1875, 0.0), (2.0, 0.1875, 0.0), "E2", "E1"),
            ((0.2, 0.0, 0.0), (0.2, 0.3, 0.25), "E1", "E4"),
            ((0.0, 0.3, 0.25), (0.2, 0.0, 0.0), "E4", "E1"),
            ((1.9, 0.1, 0.0), (1.9, 0.1, 2.5), "E1", "E4"),
        ]
        attractors = [*fig4_attractors, ("E2", (0.0, 3.0, 0.0, 0.0))]
        together = separatrix_points(fig4_params, segments, attractors, bisect_tol=1e-2)
        assert together.skipped == [(3, "undecided midpoint during bisection")]
        alone = [separatrix_points(fig4_params, [seg], attractors, bisect_tol=1e-2) for seg in segments]
        assert [one.skipped for one in alone] == [
            [(0, "undecided midpoint during bisection")] if i == 3 else [] for i in range(len(segments))
        ]
        assert together.points.tobytes() == np.concatenate([one.points for one in alone]).tobytes()
        assert together.segments.tobytes() == np.concatenate([one.segments for one in alone]).tobytes()
        assert together.side_labels == [label for one in alone for label in one.side_labels]

    def test_unknown_graph_axis_fails_before_any_work(self, fig4_params, fig4_attractors, tmp_path):
        with pytest.raises(ValueError, match="unknown graph axis"):
            reconstruct_separatrix(
                fig4_params, ((1.3, 1.9), (0.1, 0.3), (0.0, 0.8)), 2, fig4_attractors, tmp_path,
                graph_axis="X",
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("graph_axis", [1.0, 2.0, True, False, np.float64(2.0)])
    def test_a_graph_axis_equal_to_an_index_is_not_one(
        self, fig4_params, fig4_attractors, tmp_path, monkeypatch, graph_axis
    ):
        # These compare equal to 0, 1 or 2 but index no axis; they used to
        # pass the check and fail in the fit, after every run.
        monkeypatch.setattr(basin, "run_to_attractor_batch", _no_runs)
        with pytest.raises(ValueError, match="graph_axis must be an int or an axis name"):
            reconstruct_separatrix(
                fig4_params, ((1.3, 1.9), (0.1, 0.3), (0.0, 0.8)), 5, fig4_attractors, tmp_path,
                graph_axis=graph_axis,
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_pipeline_integrates_no_grid_node_twice(
        self, fig4_params, fig4_attractors, tmp_path, monkeypatch
    ):
        batches, reached = _record_launches(monkeypatch)
        grid, segments, sample, _, probes = reconstruct_separatrix(
            fig4_params,
            ((1.3, 1.9), (0.1, 0.3), (0.0, 0.8)),
            4,
            fig4_attractors,
            tmp_path,
            bisect_tol=1e-2,
        )
        nodes = {(*u, 0.0) for u in itertools.product(*grid.axes_1d)}
        config, streamed, grid_starts, gates, _ = batches[0]
        assert config == IntegrationConfig() and not streamed and gates == ()
        assert len(grid_starts) == grid.labels.size and set(grid_starts) == nodes
        assert len(segments) > 0 and len(sample.points) == len(segments)
        assert all(nodes.isdisjoint(batch.starts) for batch in batches[1:])
        assert probes is None

        # Plain bisection with the pipeline's own runs as its oracle, each
        # read at the config it ran at: a midpoint it needs that was never
        # launched raises KeyError.
        assert sample.rebisected == []
        bisection = batches[1:]
        saddles = _slice_saddles(fig4_params, ("E2", "E3"))
        oracle = lambda u, c, g=(): reached[u, c, g]
        assert _check_bisection_batches(bisection, segments, oracle, config, 1e-2, [], saddles) > 0
        points, _, _, skipped, _, _ = _plain_bisection(segments, _scalar_reach(fig4_params, fig4_attractors), 1e-2)
        assert sample.skipped == skipped == []
        assert sample.points.tobytes() == points.tobytes()

    def test_two_level_rounds_match_one_segment_at_a_time(
        self, fig4_params, fig4_attractors, monkeypatch
    ):
        attractors = [*fig4_attractors, ("E2", (0.0, 3.0, 0.0, 0.0))]
        saddle = (1.3125, 0.1875, 0.0, 0.0)
        segments = [
            # 12 halvings, then 9: even and odd counts.
            ((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"),
            ((0.6, 0.0, 0.0), (0.6, 0.0, 0.5), "E1", "E4"),
            # Already shorter than bisect_tol: no run at all.
            ((1.9, 0.2, 0.3778), (1.9, 0.2, 0.3785), "E1", "E4"),
            # The saddle is the fifth midpoint, so the midpoint of a round,
            ((0.0, 0.1875, 0.0), (2.0, 0.1875, 0.0), "E2", "E1"),
            # and here the sixth, so the quarter a round's midpoint selects.
            ((0.0, 0.1875, 0.0), (4.0, 0.1875, 0.0), "E2", "E1"),
            # Labels are taken as given. P = 1.0 reaches E2, but is given
            # as E1, so the first midpoint (P = 1.625, E1) discards the lower
            # half and its quarter, the undecided saddle. 11 halvings.
            ((1.0, 0.1875, 0.0), (2.25, 0.1875, 0.0), "E1", "E4"),
        ]
        batches, _ = _record_launches(monkeypatch)
        sample = separatrix_points(fig4_params, segments, attractors, bisect_tol=1e-3)
        reach = _scalar_reach(fig4_params, attractors)
        points, side_labels, ends, skipped, rounds, _ = _plain_bisection(segments, reach, 1e-3)
        assert [len(halvings) for halvings in rounds] == [12, 9, 0, 5, 6, 11]
        assert skipped == [(3, "undecided midpoint during bisection"), (4, "undecided midpoint during bisection")]
        assert rounds[3][-1][0] == rounds[4][-1][0] == rounds[5][0][1] == saddle
        assert sample.points.tobytes() == points.tobytes()
        assert sample.segments.tobytes() == ends.tobytes()
        assert sample.side_labels == side_labels
        assert sample.skipped == skipped
        # Every midpoint here takes the same side at the labelling
        # tolerance, through E3's gate. The saddle is undecided at both, so
        # the two segments that meet it are bisected again, and skipped there.
        # E2 is listed, so only E3 has a gate.
        saddles = _slice_saddles(fig4_params, ("E3",))
        label = basin._labelling_config(IntegrationConfig())
        stream = batches[1]
        assert len(stream.gates) == 1
        assert _plain_bisection(segments, lambda u: reach(u, label, stream.gates), 1e-3)[4] == rounds
        assert sample.rebisected == [3, 4]
        _check_bisection_batches(batches, segments, reach, IntegrationConfig(), 1e-3, [3, 4], saddles)
        # Each case was met in a two-level round of the labelling stream:
        # the midpoint run directly followed by its lower and upper quarter.
        starts = stream.starts
        follows = set(zip(starts, starts[1:], starts[2:]))
        assert {rounds[3][-1], rounds[4][-2], rounds[5][0]} <= follows

        # A segment bisected alone launches like any other: each round's
        # midpoint with both quarters while two or more halvings remain,
        # so every other halving reads a quarter, and a lone last halving
        # (9 is odd) launches its midpoint alone. Then its final bracket ends.
        for row in (0, 1):
            batches.clear()
            alone = separatrix_points(fig4_params, segments[row : row + 1], attractors, bisect_tol=1e-3)
            halvings = rounds[row]
            assert batches[1].starts == [
                start
                for j in range(0, len(halvings), 2)
                for start in (halvings[j] if j + 1 < len(halvings) else halvings[j][:1])
            ]
            _check_bisection_batches(batches, segments[row : row + 1], reach, IntegrationConfig(), 1e-3, [], saddles)
            assert alone.points.tobytes() == points[row : row + 1].tobytes()

    @pytest.mark.parametrize("order", ["reverse", "launch"])
    def test_arrival_order_does_not_matter(self, fig4_params, fig4_attractors, monkeypatch, order):
        # Each wave of launches is answered in full by scalar runs, and its
        # results reach the callback in reverse launch order (so a round's
        # selected quarter arrives before its midpoint) or in launch order.
        attractors = [*fig4_attractors, ("E2", (0.0, 3.0, 0.0, 0.0))]
        segments = [
            ((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"),
            # Skipped at a round's midpoint, and at a selected quarter.
            ((0.0, 0.1875, 0.0), (2.0, 0.1875, 0.0), "E2", "E1"),
            ((0.0, 0.1875, 0.0), (4.0, 0.1875, 0.0), "E2", "E1"),
            # The first round's unselected lower quarter is the undecided saddle.
            ((1.0, 0.1875, 0.0), (2.25, 0.1875, 0.0), "E1", "E4"),
        ]
        reach = _scalar_reach(fig4_params, attractors)
        batches = []
        monkeypatch.setattr(basin, "run_to_attractor_batch", _answering_batch(reach, batches, order))
        sample = separatrix_points(fig4_params, segments, attractors, bisect_tol=1e-3)
        points, side_labels, ends, skipped, rounds, _ = _plain_bisection(segments, reach, 1e-3)
        assert len(skipped) == 2
        assert reach(rounds[3][0][1]) is None and rounds[3][1][0] != rounds[3][0][1]
        assert sample.points.tobytes() == points.tobytes()
        assert sample.segments.tobytes() == ends.tobytes()
        assert sample.side_labels == side_labels
        assert sample.skipped == skipped
        assert sample.rebisected == [1, 2]
        saddles = _slice_saddles(fig4_params, ("E3",))
        assert _check_bisection_batches(batches, segments, reach, IntegrationConfig(), 1e-3, [1, 2], saddles) > 0

    @pytest.mark.parametrize("answer", ["E1", None])
    def test_a_wrong_or_undecided_labelling_run_rebisects_its_segment(
        self, fig4_params, fig4_attractors, monkeypatch, answer
    ):
        # The labelling run of segment 0's first midpoint, V = 1.25, which
        # reaches E4, answers E1 (so the bracket closes in on V = 1.25,
        # whose certificate run reaches E4) or undecided. Segment 2's first
        # midpoint is undecided at every tolerance, as a point on the
        # boundary would be, so segment 2 is bisected again and skipped.
        segments = [
            ((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"),
            ((0.6, 0.0, 0.0), (0.6, 0.0, 0.5), "E1", "E4"),
            ((1.3, 0.1, 2.5), (1.3, 0.1, 0.0), "E4", "E1"),
        ]
        config = IntegrationConfig()
        label = basin._labelling_config(config)
        reach = _scalar_reach(fig4_params, fig4_attractors)
        wrong, stuck = (1.9, 0.2, 1.25, 0.0), (1.3, 0.1, 1.25, 0.0)
        assert reach(wrong) == reach(wrong, label) == "E4"

        def faulty(start, config=config, gates=()):
            if start == stuck:
                return None
            return answer if (start, config) == (wrong, label) else reach(start, config, gates)

        batches = []
        monkeypatch.setattr(basin, "run_to_attractor_batch", _answering_batch(faulty, batches, "launch"))
        sample = separatrix_points(fig4_params, segments, fig4_attractors, bisect_tol=1e-3)
        points, side_labels, ends, skipped, _, _ = _plain_bisection(segments, faulty, 1e-3)
        assert skipped == [(2, "undecided midpoint during bisection")]
        assert sample.rebisected == [0, 2]
        assert sample.points.tobytes() == points.tobytes()
        assert sample.segments.tobytes() == ends.tobytes()
        assert sample.side_labels == side_labels
        assert sample.skipped == skipped
        assert wrong in batches[1].starts
        saddles = _slice_saddles(fig4_params, ("E2", "E3"))
        _check_bisection_batches(batches, segments, faulty, config, 1e-3, [0, 2], saddles)

    @pytest.mark.parametrize("tol", [1e-5, 1e-4])
    def test_a_config_as_loose_as_labelling_is_gated_and_certified(
        self, fig4_params, fig4_attractors, monkeypatch, tol
    ):
        # --tol 1e-5 or looser: the labelling config is the config, and the
        # stream still runs through E3's gate, so its final brackets are
        # certified at the config, ungated. The saddle segment's undecided
        # midpoint gets it bisected again, and skipped there.
        config = IntegrationConfig().with_tolerance(tol)
        assert basin._labelling_config(config) == config
        attractors = [*fig4_attractors, ("E2", (0.0, 3.0, 0.0, 0.0))]
        segments = [
            ((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"),
            ((0.6, 0.0, 0.0), (0.6, 0.0, 0.5), "E1", "E4"),
            ((0.0, 0.1875, 0.0), (2.0, 0.1875, 0.0), "E2", "E1"),
        ]
        batches, _ = _record_launches(monkeypatch)
        sample = separatrix_points(fig4_params, segments, attractors, bisect_tol=1e-3, config=config)
        reach = _scalar_reach(fig4_params, attractors)
        points, side_labels, ends, skipped, _, _ = _plain_bisection(segments, lambda u: reach(u, config), 1e-3)
        assert skipped == [(2, "undecided midpoint during bisection")]
        # Gate search, gated stream, certificate, second bisection.
        assert [(b.config, b.streamed, len(b.gates)) for b in batches] == [
            (config, False, 0), (config, True, 1), (config, False, 0), (config, True, 0)
        ]
        assert sample.rebisected == [2]
        saddles = _slice_saddles(fig4_params, ("E3",))
        assert _check_bisection_batches(batches, segments, reach, config, 1e-3, [2], saddles) > 0
        assert sample.points.tobytes() == points.tobytes()
        assert sample.segments.tobytes() == ends.tobytes()
        assert sample.side_labels == side_labels
        assert sample.skipped == skipped

    @pytest.mark.parametrize(
        "rel_tol, abs_tol", [(1e-8, 1e-10), (1e-8, 1e-3), (1e-3, 1e-12), (1e-6, 1e-9), (0.5, 0.5)]
    )
    def test_labelling_never_tightens_the_config(self, rel_tol, abs_tol):
        config = IntegrationConfig(rel_tol=rel_tol, abs_tol=abs_tol, t_max=50.0, settle_tol=1e-9)
        label = basin._labelling_config(config)
        assert label.rel_tol == max(rel_tol, 1e-5)
        assert label.abs_tol == max(abs_tol, label.rel_tol / 100)
        assert label.rel_tol >= config.rel_tol and label.abs_tol >= config.abs_tol
        assert dataclasses.replace(label, rel_tol=rel_tol, abs_tol=abs_tol) == config

    def test_a_loose_absolute_tolerance_is_kept(self, fig4_params, fig4_attractors, monkeypatch):
        # A large abs_tol and a small rel_tol: the labelling runs loosen
        # rel_tol only, and every run is at least as loose as the config.
        config = IntegrationConfig(rel_tol=1e-8, abs_tol=1e-3)
        segments = [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"), ((0.6, 0.0, 0.0), (0.6, 0.0, 0.5), "E1", "E4")]
        batches, _ = _record_launches(monkeypatch)
        sample = separatrix_points(fig4_params, segments, fig4_attractors, bisect_tol=1e-3, config=config)
        label = IntegrationConfig(rel_tol=1e-5, abs_tol=1e-3)
        assert [batch.config for batch in batches][:3] == [label, label, config]
        assert all(c.rel_tol >= config.rel_tol and c.abs_tol >= config.abs_tol for c, *_ in batches)
        reach = _scalar_reach(fig4_params, fig4_attractors)
        assert sample.rebisected == []
        _check_bisection_batches(batches, segments, reach, config, 1e-3, [], _slice_saddles(fig4_params, ("E2", "E3")))
        points = _plain_bisection(segments, lambda u: reach(u, config), 1e-3)[0]
        assert sample.points.tobytes() == points.tobytes()

    def test_deterministic(self, fig4_params, fig4_attractors):
        seg = [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4")]
        a = separatrix_points(fig4_params, seg, fig4_attractors)
        b = separatrix_points(fig4_params, seg, fig4_attractors)
        np.testing.assert_array_equal(a.points, b.points)


class TestSaddleGates:
    @pytest.mark.parametrize(
        "J",
        [
            np.diag([-1.0, -2.0, -3.0]),  # no unstable eigenvalue
            np.diag([1.0, 2.0, -3.0]),  # two
            np.array([[0.1, -1.0, 0.0], [1.0, 0.1, 0.0], [0.0, 0.0, -1.0]]),  # a complex pair
        ],
    )
    def test_a_saddle_needs_exactly_one_real_unstable_direction(self, J):
        assert basin._unstable_direction(J) is None

    def test_the_unstable_direction_and_its_left_eigenvector(self):
        # One real unstable eigenvalue next to a stable complex pair.
        J = np.array([[-0.1, -1.0, 0.3], [1.0, -0.1, 0.2], [0.0, 0.0, 0.5]])
        v, l = basin._unstable_direction(J)
        np.testing.assert_allclose(J @ v, 0.5 * v, atol=1e-12)
        np.testing.assert_allclose(l @ J, 0.5 * l, atol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0) and np.linalg.norm(l) == pytest.approx(1.0)
        assert l @ v > 0.0

    def test_fig4_gates_its_slice_saddle_only(self, fig4_params, fig4_attractors, monkeypatch):
        # E0 has two unstable directions and E1, E4 none. Both branches of
        # E2 reach E4 (raised off the V = 0 face, where E2 is unstable in
        # V), so only E3 separates two basins.
        batches, reached = _record_launches(monkeypatch)
        targets = [(rec.id, rec.coordinates) for rec in fig4_attractors]
        label = basin._labelling_config(IntegrationConfig())
        gates = basin._saddle_gates(fig4_params, targets, label, 0.05)
        ((config, streamed, starts, batch_gates, results),) = batches
        assert (config, streamed, batch_gates) == (label, False, ())
        assert [res.attractor_id for res in results] == ["E4", "E4", "E1", "E4"]
        _check_gate_calibration(batches[0], _slice_saddles(fig4_params, ("E2", "E3")), lambda u: reached[u, label, ()])
        (gate,) = gates
        e3 = compute_equilibrium(fig4_params, "E3").coordinates
        assert gate.centre == tuple(e3) and gate.sides == ("E1", "E4")
        l = np.array(gate.left[:3])
        J = jacobian(fig4_params, e3)[:3, :3]
        np.testing.assert_allclose(l @ J, 0.03811377 * l, atol=1e-8)

    @pytest.mark.parametrize(
        "listed, branches",
        # E2's two branches, then E3's: with E4 alone, E2's both reach E4
        # and one of E3's nothing; with E1 alone, E2's reach nothing.
        [("E4", ["E4", "E4", None, "E4"]), ("E1", [None, None, "E1", None])],
    )
    def test_branches_that_reach_one_attractor_or_none_give_no_gate(self, fig4_params, monkeypatch, listed, branches):
        batches, _ = _record_launches(monkeypatch)
        targets = [(listed, compute_equilibrium(fig4_params, listed).coordinates)]
        label = basin._labelling_config(IntegrationConfig())
        assert basin._saddle_gates(fig4_params, targets, label, 0.05) == []
        assert [res.attractor_id for res in batches[0].results] == branches

    @pytest.mark.parametrize("near, offset", [("E2", 0.0), ("E3", 0.14)])
    def test_a_gate_ball_that_meets_an_attractor_ball_gives_no_gate(
        self, fig4_params, fig4_attractors, monkeypatch, near, offset
    ):
        # A listed point at E2, or 0.14 from E3: within 0.1 + 0.05 of it.
        x = np.array(compute_equilibrium(fig4_params, near).coordinates) + [0.0, offset, 0.0, 0.0]
        targets = [(rec.id, rec.coordinates) for rec in fig4_attractors] + [("X", tuple(x))]
        batches, reached = _record_launches(monkeypatch)
        label = basin._labelling_config(IntegrationConfig())
        gates = basin._saddle_gates(fig4_params, targets, label, 0.05)
        other = {"E2": "E3", "E3": "E2"}[near]
        _check_gate_calibration(batches[0], _slice_saddles(fig4_params, (other,)), lambda u: reached[u, label, ()])
        assert [gate.centre for gate in gates] == ([tuple(compute_equilibrium(fig4_params, "E3").coordinates)] if near == "E2" else [])

    def test_the_certificate_catches_a_wrong_gate(self, fig4_params, fig4_attractors, monkeypatch):
        # Gate discovery swaps the two sides, so every gated labelling run
        # takes the wrong side. Each segment that read a gated midpoint is
        # bisected again at the config, and the sample equals plain
        # bisection there.
        found = basin._saddle_gates

        def swapped(*args):
            return [dataclasses.replace(gate, sides=gate.sides[::-1]) for gate in found(*args)]

        monkeypatch.setattr(basin, "_saddle_gates", swapped)
        segments = [
            ((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"),
            ((1.3, 0.1, 2.5), (1.3, 0.1, 0.0), "E4", "E1"),
            ((1.5, 0.3, 0.0), (1.5, 0.3, 1.0), "E1", "E4"),
            ((0.6, 0.0, 0.0), (0.6, 0.0, 0.5), "E1", "E4"),
            ((0.2, 0.0, 0.0), (0.2, 0.3, 0.25), "E1", "E4"),
        ]
        batches, _ = _record_launches(monkeypatch)
        sample = separatrix_points(fig4_params, segments, fig4_attractors, bisect_tol=1e-3)
        reach = _scalar_reach(fig4_params, fig4_attractors)
        points, side_labels, ends, skipped, _, _ = _plain_bisection(segments, reach, 1e-3)
        assert sample.points.tobytes() == points.tobytes()
        assert sample.segments.tobytes() == ends.tobytes()
        assert sample.side_labels == side_labels
        assert sample.skipped == skipped == []

        stream = batches[1]
        assert stream.streamed and len(stream.gates) == 1
        gated = {start for start, res in zip(stream.starts, stream.results) if res.termination == "gated"}
        label = basin._labelling_config(IntegrationConfig())
        rounds = _plain_bisection(segments, lambda u: reach(u, label, stream.gates), 1e-3)[4]
        read_gated = [row for row, halvings in enumerate(rounds) if gated & {mid for mid, _, _ in halvings}]
        # Bisection closes in on E3's stable manifold, so every segment here
        # reads a gated midpoint before its bracket is short.
        assert read_gated == sample.rebisected == list(range(len(segments)))

    def test_a_loose_config_finds_the_slice_saddle_gate(self, fig4_params, fig4_attractors, monkeypatch):
        # --tol 1e-5 is as loose as the labelling config, and the gate
        # search still runs there and gates the stream at E3.
        config = IntegrationConfig().with_tolerance(1e-5)
        batches, reached = _record_launches(monkeypatch)
        separatrix_points(fig4_params, [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4")], fig4_attractors, config=config)
        calibration, stream, *_ = batches
        assert (calibration.config, calibration.streamed) == (config, False)
        saddles = _slice_saddles(fig4_params, ("E2", "E3"))
        kept = _check_gate_calibration(calibration, saddles, lambda u: reached[u, config, ()])
        e3 = compute_equilibrium(fig4_params, "E3").coordinates
        assert [(tuple(x), sides) for x, sides, _ in kept] == [(tuple(e3), ("E1", "E4"))]
        (gate,) = stream.gates
        assert (stream.config, stream.streamed) == (config, True)
        assert gate.centre == tuple(e3) and gate.sides == ("E1", "E4")

    def test_a_loose_config_without_a_gate_certifies_nothing(self, fig4_params, fig4_attractors, monkeypatch):
        # No gate and a config as loose as the labelling one: the stream is
        # plain bisection at the config already, so it runs once, ungated,
        # and the saddle segment is skipped without a second bisection.
        config = IntegrationConfig().with_tolerance(1e-5)
        monkeypatch.setattr(basin, "_saddle_gates", lambda *args: [])
        attractors = [*fig4_attractors, ("E2", (0.0, 3.0, 0.0, 0.0))]
        segments = [
            ((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4"),
            ((0.6, 0.0, 0.0), (0.6, 0.0, 0.5), "E1", "E4"),
            ((0.0, 0.1875, 0.0), (2.0, 0.1875, 0.0), "E2", "E1"),
        ]
        batches, _ = _record_launches(monkeypatch)
        sample = separatrix_points(fig4_params, segments, attractors, bisect_tol=1e-3, config=config)
        assert [(b.config, b.streamed, b.gates) for b in batches] == [(config, True, ())]
        reach = _scalar_reach(fig4_params, attractors)
        points, side_labels, ends, skipped, rounds, _ = _plain_bisection(segments, lambda u: reach(u, config), 1e-3)
        assert skipped == [(2, "undecided midpoint during bisection")]
        assert _check_launches(batches[0].starts, rounds, skipped) > 0
        assert sample.points.tobytes() == points.tobytes()
        assert sample.segments.tobytes() == ends.tobytes()
        assert sample.side_labels == side_labels
        assert sample.skipped == skipped
        assert sample.rebisected == []


def _flat_sites(height):
    """Ten sites over the unit square, not collinear, all at one height."""
    u = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 0.25, 0.75, 0.25, 0.75, 0.5])
    v = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.25, 0.25, 0.75, 0.75, 0.1])
    return np.column_stack((u, v, np.full(10, height)))


class TestSurfaceFit:
    def test_affine_data_reproduced_everywhere(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 2.0, 30)
        v = rng.uniform(0.0, 3.0, 30)
        z = 0.3 + 0.2 * u - 0.1 * v
        model = fit_surface(np.column_stack((u, v, z)))
        assert model.fit_residual <= 1e-12
        far = float(model.evaluate((12.0, -7.0)))
        assert far == pytest.approx(0.3 + 0.2 * 12.0 - 0.1 * (-7.0), abs=1e-9)

    def test_constant_data_with_three_points(self):
        # Ten sites leave rounding error in the radial weights, so the
        # residual is not exactly zero.
        model = fit_surface(_flat_sites(0.7))
        assert model.fit_residual <= 1e-12
        assert float(model.evaluate((0.3, 0.3))) == pytest.approx(0.7, abs=1e-10)

    def test_interpolates_smooth_samples(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, 2.0, 40)
        v = rng.uniform(0.0, 2.0, 40)
        z = 0.5 + 0.1 * np.sin(u) * np.cos(v)
        model = fit_surface(np.column_stack((u, v, z)))
        np.testing.assert_allclose(
            model.evaluate(np.column_stack((u, v))), z, atol=1e-9
        )

    def test_degenerate_geometry(self):
        with pytest.raises(DegenerateGeometryError, match="need at least"):
            fit_surface(np.zeros((5, 3)) + np.arange(5)[:, None])
        dup = np.vstack((_flat_sites(0.1), [[0.0, 0.0, 0.2]]))
        with pytest.raises(DegenerateGeometryError, match="duplicate"):
            fit_surface(dup)
        line = np.column_stack((np.arange(10.0), np.arange(10.0), np.ones(10)))
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            fit_surface(line)

    @pytest.mark.parametrize("column", [2, 0], ids=["graph_axis", "plane"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_are_rejected(self, column, bad):
        # A non-finite graph-axis value gave a model with a NaN residual;
        # a NaN plane coordinate failed inside the SVD.
        pts = _flat_sites(0.7)
        pts[3, column] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            fit_surface(pts)

    def test_a_nan_residual_fails_the_residual_gate(self, monkeypatch):
        monkeypatch.setattr(basin.SeparatrixModel, "evaluate", lambda self, uv: np.full(len(uv), math.nan))
        with pytest.raises(basin.FitResidualError, match="by nan"):
            fit_surface(_flat_sites(0.7))

    def test_graph_axis_resolution(self):
        rng = np.random.default_rng(13)
        pts = np.column_stack(
            (rng.uniform(0, 1, 15), rng.uniform(0, 1, 15), rng.uniform(0, 1, 15))
        )
        assert fit_surface(pts, graph_axis="V").graph_axis == 2
        assert fit_surface(pts, graph_axis="P").graph_axis == 0
        assert fit_surface(pts, graph_axis=1).plane_axes == (0, 2)
        with pytest.raises(ValueError, match="unknown graph axis"):
            fit_surface(pts, graph_axis="X")
        with pytest.raises(ValueError, match="graph_axis"):
            fit_surface(pts, graph_axis=5)
        assert fit_surface(pts, graph_axis=np.int64(1)).graph_axis == 1
        for not_an_axis in (1.0, 2.0, True, False):
            with pytest.raises(ValueError, match="graph_axis must be an int or an axis name"):
                fit_surface(pts, graph_axis=not_an_axis)
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            fit_surface(pts[:, :2])


class TestProbes:
    def _patch_model(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(1.88, 1.92, 12)
        v = rng.uniform(0.19, 0.21, 12)
        pts = np.column_stack((u, v, np.full(12, 0.37784576)))
        return fit_surface(pts)

    def test_counts_and_determinism(self, fig4_params, fig4_attractors):
        model = self._patch_model()
        assert model.fit_residual <= 1e-12
        counts = probe_surface_sides(
            fig4_params,
            model,
            fig4_attractors,
            expected_above="E4",
            expected_below="E1",
            n_probes=4,
            rng=np.random.default_rng(11),
        )
        assert counts == (8, 8)
        again = probe_surface_sides(
            fig4_params,
            model,
            fig4_attractors,
            expected_above="E4",
            expected_below="E1",
            n_probes=4,
            rng=np.random.default_rng(11),
        )
        assert again == counts

    def test_a_numpy_int_n_probes_is_an_int(self, fig4_params, fig4_attractors):
        counts = probe_surface_sides(
            fig4_params,
            self._patch_model(),
            fig4_attractors,
            expected_above="E4",
            expected_below="E1",
            n_probes=np.int64(4),
            rng=np.random.default_rng(11),
        )
        assert counts == (8, 8)

    def test_probes_that_leave_the_orthant_exhaust(self, fig4_params, fig4_attractors):
        model = fit_surface(_flat_sites(0.02))
        with pytest.raises(RuntimeError, match="inside the orthant"):
            probe_surface_sides(
                fig4_params,
                model,
                fig4_attractors,
                expected_above="E4",
                expected_below="E1",
                n_probes=2,
                rng=np.random.default_rng(1),
            )

    @pytest.mark.parametrize("n_probes", [0, -3, 2.5, True, False])
    def test_bad_n_probes_is_rejected_before_any_run(
        self, fig4_params, fig4_attractors, monkeypatch, tmp_path, n_probes
    ):
        monkeypatch.setattr(basin, "run_to_attractor_batch", _no_runs)
        with pytest.raises(ValueError, match="n_probes must be an int >= 1"):
            probe_surface_sides(
                fig4_params, self._patch_model(), fig4_attractors, expected_above="E4", expected_below="E1",
                n_probes=n_probes,
            )
        with pytest.raises(ValueError, match="n_probes must be an int >= 1"):
            reconstruct_separatrix(fig4_params, _FIG4_BOX, 4, fig4_attractors, tmp_path, n_probes=n_probes)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="n_probes must be an int >= 1"):
            reproduce("fig4", tmp_path / "out", n_probes=n_probes)
        assert not (tmp_path / "out").exists()


# fig4's slice box. At resolution 4 its grid has 16 boundary segments.
_FIG4_BOX = ((0.0, 2.0), (0.0, 3.0), (0.0, 2.5))


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestProbesInTheCertificateBatch:
    """``reconstruct_separatrix`` with ``n_probes``: the side probes are drawn
    on a speculative fit and ride in the certificate batch, unless that
    speculation cannot stand; the results are those of probing afterwards."""

    @staticmethod
    def _reconstruct(params, attractors, outdir, **kwargs):
        outdir.mkdir()
        return reconstruct_separatrix(params, _FIG4_BOX, 4, attractors, outdir, bisect_tol=1e-3, **kwargs)

    @staticmethod
    def _same_files(a, b, names=("labels.csv", "boundary_points.csv", "surface.obj", "surface_lattice.csv")):
        assert sorted(path.name for path in b.iterdir()) == sorted(names)
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def _probed_afterwards(self, params, attractors, sample, model, seed, config=None):
        """What probing the returned model afterwards counts, from a fresh
        generator of ``seed``, and that generator."""
        fresh = np.random.default_rng(seed)
        above, below = basin._graph_sides(sample, model.graph_axis)
        counts = probe_surface_sides(params, model, attractors, above, below, n_probes=5, rng=fresh, config=config)
        return counts, fresh

    def test_the_probes_ride_in_the_certificate_batch(self, fig4_params, fig4_attractors, tmp_path, monkeypatch):
        batches, _ = _record_launches(monkeypatch)
        self._reconstruct(fig4_params, fig4_attractors, tmp_path / "plain")
        plain = batches[:]
        assert [(b.streamed, bool(b.gates)) for b in plain] == [(False, False), (False, False), (True, True), (False, False)]
        rng = np.random.default_rng(7)
        _, _, sample, model, probes = self._reconstruct(
            fig4_params, fig4_attractors, tmp_path / "probed", n_probes=5, rng=rng
        )
        assert sample.rebisected == []
        self._same_files(tmp_path / "plain", tmp_path / "probed")
        ridden = batches[len(plain) :]
        assert [(b.config, b.streamed, b.gates) for b in ridden] == [(b.config, b.streamed, b.gates) for b in plain]
        assert [b.starts for b in ridden[:3]] == [b.starts for b in plain[:3]]
        counts, fresh = self._probed_afterwards(fig4_params, fig4_attractors, sample, model, 7)
        assert probes == counts == (10, 10)
        # The certificate's ends, then the probes probe_surface_sides draws.
        assert ridden[3].starts == plain[3].starts + batches[-1].starts
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_a_certificate_disagreement_runs_the_probes_on_their_own(
        self, fig4_params, fig4_attractors, tmp_path, monkeypatch
    ):
        # The first certificate run answers undecided, so its segment is
        # bisected again at the config and the speculative probes are
        # dropped: the probes then run in a batch of their own, on the refit.
        batches, _ = _record_launches(monkeypatch)
        recording = basin.run_to_attractor_batch

        def disagreeing(*args, **kwargs):
            results = recording(*args, **kwargs)
            if len(batches) == 4:
                results[0] = dataclasses.replace(results[0], attractor_id=None)
            return results

        monkeypatch.setattr(basin, "run_to_attractor_batch", disagreeing)
        rng = np.random.default_rng(7)
        _, _, sample, model, probes = self._reconstruct(
            fig4_params, fig4_attractors, tmp_path / "probed", n_probes=5, rng=rng
        )
        assert len(sample.rebisected) == 1
        config = IntegrationConfig()
        label = basin._labelling_config(config)
        assert [(b.config, b.streamed, bool(b.gates)) for b in batches] == [
            (config, False, False), (label, False, False), (label, True, True), (config, False, False),
            (config, True, False), (config, False, False),
        ]
        # The dropped probes rode behind every segment's two moved ends.
        assert len(batches[3].starts) == 2 * len(sample.points) + 10 and len(batches[5].starts) == 10
        counts, fresh = self._probed_afterwards(fig4_params, fig4_attractors, sample, model, 7)
        assert probes == counts
        assert batches[5].starts == batches[-1].starts
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_without_a_certificate_the_probes_run_on_their_own(
        self, fig4_params, fig4_attractors, tmp_path, monkeypatch
    ):
        # No gate at --tol 1e-5: the stream is plain bisection at the
        # config, nothing is certified, and nothing carries the probes.
        config = IntegrationConfig().with_tolerance(1e-5)
        monkeypatch.setattr(basin, "_saddle_gates", lambda *args: [])
        batches, _ = _record_launches(monkeypatch)
        _, _, sample, model, probes = self._reconstruct(
            fig4_params, fig4_attractors, tmp_path / "probed", config=config, n_probes=5,
            rng=np.random.default_rng(7),
        )
        assert [(b.config, b.streamed, b.gates) for b in batches] == [
            (config, False, ()), (config, True, ()), (config, False, ())
        ]
        counts, _ = self._probed_afterwards(fig4_params, fig4_attractors, sample, model, 7, config)
        assert probes == counts
        assert batches[2].starts == batches[-1].starts

    def test_a_fit_that_raises_raises_after_the_points_are_written(
        self, fig4_params, fig4_attractors, tmp_path, monkeypatch
    ):
        batches, _ = _record_launches(monkeypatch)
        self._reconstruct(fig4_params, fig4_attractors, tmp_path / "plain")
        plain = batches[:]

        def failing_fit(*args, **kwargs):
            raise basin.FitResidualError("stand-in fit failure")

        monkeypatch.setattr(basin, "fit_surface", failing_fit)
        with pytest.raises(basin.FitResidualError, match="stand-in fit failure"):
            self._reconstruct(fig4_params, fig4_attractors, tmp_path / "probed", n_probes=5)
        # The certificate ran without probes, and no probe ran.
        assert [b.starts for b in batches[len(plain) :]] == [b.starts for b in plain]
        self._same_files(tmp_path / "plain", tmp_path / "probed", ("labels.csv", "boundary_points.csv"))

    def test_a_probe_that_fails_on_step_size_fails_after_every_file_is_written(
        self, fig4_params, fig4_attractors, tmp_path, monkeypatch
    ):
        # The first probe starts far outside the balls, where every run
        # fails on step size.
        far = (1e160, 1.0, 1.0, 0.0)
        draw = basin._probe_starts
        monkeypatch.setattr(basin, "_probe_starts", lambda *args: [far, *draw(*args)[1:]])
        batches, _ = _record_launches(monkeypatch)
        self._reconstruct(fig4_params, fig4_attractors, tmp_path / "plain")
        plain = batches[:]
        with pytest.raises(StepFailureError) as failed:
            self._reconstruct(fig4_params, fig4_attractors, tmp_path / "probed", n_probes=5)
        with pytest.raises(StepFailureError) as scalar:
            run_to_attractor(fig4_params, far, fig4_attractors)
        assert str(failed.value) == str(scalar.value)
        self._same_files(tmp_path / "plain", tmp_path / "probed")
        # The certificate with the probes, which fails; the certificate
        # alone; then the probes alone, which fail again.
        certificate = plain[3].starts
        ridden, alone, probes = batches[len(plain) + 3 :]
        assert ridden.starts[: len(certificate)] == certificate and ridden.starts[len(certificate)] == far
        assert alone.starts == certificate
        assert probes.starts == ridden.starts[len(certificate) :]


class TestWriters:
    def test_points_csv(self, fig4_params, fig4_attractors):
        sample = separatrix_points(
            fig4_params,
            [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4")],
            fig4_attractors,
        )
        buf = io.StringIO()
        write_points_csv(sample, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "P,S,V,side_lo,side_hi"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[0]) == 1.9 and float(fields[1]) == 0.2
        assert fields[3] == "E1" and fields[4] == "E4"

    def test_surface_obj(self):
        model = fit_surface(_flat_sites(0.7))
        buf = io.StringIO()
        write_surface_obj(model, buf)
        lines = buf.getvalue().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(verts) == 1600
        assert len(faces) == 3042
        first = verts[0].split()
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0
        assert float(first[3]) == pytest.approx(0.7, abs=1e-9)
        for face in faces:
            idx = [int(tok) for tok in face.split()[1:]]
            assert all(1 <= i <= 1600 for i in idx)

    def test_surface_lattice_csv(self):
        model = fit_surface(_flat_sites(0.7))
        buf = io.StringIO()
        write_surface_lattice_csv(model, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "P,S,V"
        assert len(lines) == 1 + 1600
        u, v, g = (float(x) for x in lines[1].split(","))
        assert (u, v) == (0.0, 0.0)
        assert g == pytest.approx(0.7, abs=1e-9)


# sha256 of the two files fig4 writes from its runs alone, at resolution 21.
_FIG4_RUN_DIGESTS = {
    "labels.csv": "466f960accd99b605cbeefc7eabc150ee87d4bd163cdfa493f74e28a279b3161",
    "boundary_points.csv": "aa1f2f68878ee3e042c571d34fb9b6883f98d4a7ff0c53bbd0e43a180d9e73c4",
}
# fig4's summary.txt, with the two numbers that come from the surface fit
# left as fields.
_FIG4_SUMMARY = """\
scenario fig4: basin geometry of the bistable exclusion/endemic pair
stability: E1 stable_node (lead Re -0.05); E3 saddle (lead Re 0.0381138); E4 stable_node (lead Re -0.0666667)
grid: 9261 nodes at resolution 21, undecided fraction 0.0439
boundary: 463 points from 463 opposite-basin cell corner pairs (0 skipped)
surface fit residual: {residual:.3e}
graph value over the saddle: {gap:.3e} (saddle at (1.3125000000000002, 0.1875000000000001) with zero infected component)
side-consistency probes: 200/200 = 1.0000 at offset 0.05
verdict (saddle gap <= 0.01, side probes >= 95%, no skipped segment): PASS
"""


def test_fig4_outputs_are_pinned(fig4_pipeline, fig4_params):
    """fig4's five files, byte for byte.

    The labels and boundary points are pinned by digest. The surface files
    and the fit's two numbers in the summary come from a linear solve whose
    last bits depend on the BLAS build and its thread count, so they are
    checked against a refit of the pinned points instead.
    """
    _, outdir = fig4_pipeline
    for name, digest in _FIG4_RUN_DIGESTS.items():
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest, (
            f"fig4's {name} changed. The lane stepper matches the scalar loop only while "
            "np.float_power rounds like Python's **: run "
            "tests/test_integrate.py::test_float_power_rounds_like_python_pow first"
        )

    rows = (outdir / "boundary_points.csv").read_text().splitlines()[1:]
    points = np.array([[float(v) for v in row.split(",")[:3]] for row in rows])
    model = fit_surface(points)
    writers = {"surface.obj": write_surface_obj, "surface_lattice.csv": write_surface_lattice_csv}
    for name, write in writers.items():
        buf = io.StringIO()
        write(model, buf)
        assert (outdir / name).read_text() == buf.getvalue(), name
    saddle = compute_equilibrium(fig4_params, "E3").coordinates
    gap = abs(float(model.evaluate((saddle[0], saddle[1]))) - float(saddle[2]))
    summary = _FIG4_SUMMARY.format(residual=model.fit_residual, gap=gap)
    assert (outdir / "summary.txt").read_text() == summary


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fig4_computes_each_point_twice(tmp_path, point_computations):
    # Once for its verdict and once more inside the basin pipeline; the
    # attractors and the saddle are read from the verdicts.
    reproduce("fig4", tmp_path, resolution=4, n_probes=2)
    assert {eq_id: point_computations[eq_id] for eq_id in ("E1", "E3", "E4")} == {"E1": 2, "E3": 2, "E4": 2}


def test_fig4_bisects_no_segment_twice(fig4_pipeline):
    # Every final bracket end of fig4's labelling-tolerance bisection keeps
    # its side at the config's tolerance; the count stays out of the files.
    summary, outdir = fig4_pipeline
    assert summary["n_rebisected"] == 0
    assert summary["n_boundary_points"] == summary["n_segments"] == 463
    assert "rebisect" not in (outdir / "summary.txt").read_text()


def _fig4_passes_per_batch(outdir, monkeypatch, config=None):
    """Reproduce fig4 at resolution 11 and count the stepper passes of each batch.

    The stepper loop of run_to_attractor_batch calls _gate_sides once in
    every pass that makes a step attempt, so counting its calls counts
    passes without timing anything. Returns the grid, gate search, stream
    and certificate counts, after checking that those are the batches, in
    that order, that the side probes ran in the certificate batch, and
    that no segment was bisected again.
    """
    passes = []
    gate_sides = integrate._gate_sides

    def counted(*args):
        passes[-1][1] += 1
        return gate_sides(*args)

    batch = basin.run_to_attractor_batch

    def tagged(params, starts, *args, on_result=None, gates=(), **kwargs):
        passes.append([(on_result is not None, bool(gates)), 0])
        sizes.append(len(starts))
        return batch(params, starts, *args, on_result=on_result, gates=gates, **kwargs)

    sizes = []
    monkeypatch.setattr(integrate, "_gate_sides", counted)
    monkeypatch.setattr(basin, "run_to_attractor_batch", tagged)
    summary = reproduce("fig4", outdir, resolution=11, config=config)
    assert summary["n_rebisected"] == 0
    kinds = [kind for kind, _ in passes]
    assert kinds == [(False, False), (False, False), (True, True), (False, False)]
    # Every final bracket end moved off its segment's ends, then 100 pairs.
    assert sizes[3] == 2 * summary["n_segments"] + summary["side_total"] == 2 * 128 + 200
    return tuple(count for _, count in passes)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fig4_stepper_passes_per_batch(tmp_path, monkeypatch):
    # At resolution 11 the labelling stream took 1,115 passes ungated; a
    # gate that stops firing shows here. The probes, 392 passes in a batch
    # of their own, add none to the certificate's.
    grid, calibration, stream, certificate = _fig4_passes_per_batch(tmp_path, monkeypatch)
    assert stream <= 400
    assert (grid, calibration, certificate) == (372, 81, 538)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fig4_stepper_passes_per_batch_at_a_loose_tolerance(tmp_path, monkeypatch):
    # At --tol 1e-4 the labelling config is the config, and the stream
    # still runs through E3's gate, so its final brackets are certified.
    # Ungated, the stream takes 976 passes, so a gate that stops firing
    # shows here.
    config = IntegrationConfig().with_tolerance(1e-4)
    grid, calibration, stream, certificate = _fig4_passes_per_batch(tmp_path, monkeypatch, config)
    assert stream <= 350
    assert (grid, calibration, certificate) == (85, 60, 256)


def test_fig4_side_vote_reads_each_segment_by_its_direction():
    # Three diagonals run down from E4 to E1 and one edge runs up from E1
    # to E4: counting every end label as above would make E1 the upper
    # side, 3 votes to 1.
    down = [((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)), ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), ((0.0, 0.0, 1.0), (1.0, 1.0, 0.0))]
    up = [((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))]
    sample = SeparatrixSample(
        points=np.zeros((4, 3)),
        side_labels=[("E4", "E1")] * 3 + [("E1", "E4")],
        segments=np.array(down + up),
        skipped=[],
    )
    assert basin._graph_sides(sample, 2) == ("E4", "E1")
    # Along P two diagonals rise and the rest are flat, without a vote.
    assert basin._graph_sides(sample, 0) == ("E1", "E4")
