"""Basin grids, boundary bisection, surface fitting and probing."""

import dataclasses
import hashlib
import io
import itertools
import math
from collections import Counter

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
from twostrain.equilibria import compute_equilibrium
from twostrain.figures import _graph_sides
from twostrain.integrate import IntegrationConfig, ReachResult, run_to_attractor, run_to_attractor_batch


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


def _record_launches(monkeypatch):
    """Record every batch basin runs, as (config, streamed, starts in launch
    order), where ``streamed`` says that it had a callback, and the attractor
    id (or None) reached from each start, keyed by (start, config)."""
    batches, reached = [], {}

    def recording_batch(params, batch_starts, *args, config=None, on_result=None, **kwargs):
        config = config or IntegrationConfig()
        starts = []
        batches.append((config, on_result is not None, starts))

        def record(batch):
            starts.extend(tuple(float(v) for v in x0) for x0 in batch)
            return batch

        # Bisection launches most of its runs from the callback.
        if on_result is not None:
            kwargs["on_result"] = lambda index, result: record(on_result(index, result))
        results = run_to_attractor_batch(params, record(batch_starts), *args, config=config, **kwargs)
        for start, result in zip(starts, results):
            reached[start, config] = result.attractor_id
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


def _check_bisection_batches(batches, segments, reach, config, bisect_tol, rebisected):
    """Check the batches of one ``separatrix_points`` call at ``config``,
    as ``_record_launches`` records them, and return how many two-level
    rounds they ran.

    ``reach(start, config)`` gives the attractor id (or None) of the run
    from a start at a config. The first batch is a stream at the labelling
    config that launches what plain bisection there needs. If that config
    is looser than ``config``, a batch at ``config`` follows that runs
    exactly the final bracket ends of that bisection that are not segment
    ends, and then, if any segment is ``rebisected``, a stream at ``config``
    that launches what plain bisection of those segments there needs.
    """
    label = basin._labelling_config(config)
    certified = label != config
    kinds = [(label, True)] + [(config, False)] * certified + [(config, True)] * bool(rebisected)
    assert [(c, streamed) for c, streamed, _ in batches] == kinds
    _, _, _, skipped, rounds, moved = _plain_bisection(segments, lambda u: reach(u, label), bisect_tol)
    two_level = _check_launches(batches[0][2], rounds, skipped)
    if certified:
        assert batches[1][2] == moved
    if rebisected:
        again = [segments[row] for row in rebisected]
        _, _, _, skipped, rounds, _ = _plain_bisection(again, lambda u: reach(u, config), bisect_tol)
        two_level += _check_launches(batches[-1][2], rounds, skipped)
    return two_level


def _scalar_reach(params, attractors):
    """``reach(start, config)``: the attractor id (or None) of a scalar run
    from a 4-tuple start, at the default config unless one is given."""
    memo = {}

    def reach(start, config=IntegrationConfig()):
        if (start, config) not in memo:
            memo[start, config] = run_to_attractor(params, start, attractors, config).attractor_id
        return memo[start, config]

    return reach


def _answering_batch(reach, batches, order):
    """A stand-in for ``run_to_attractor_batch`` that answers each run with
    ``reach(start, config)`` and records its batch as ``_record_launches``
    does. Each wave of launches is answered in full, and its results reach
    the callback in launch order or, for ``order`` "reverse", in reverse
    launch order. The starts the callback returns form the next wave."""

    def answering_batch(params, batch_starts, targets, *, config, on_result=None, **kwargs):
        starts = [tuple(float(v) for v in x0) for x0 in batch_starts]
        batches.append((config, on_result is not None, starts))
        results = {}
        while len(results) < len(starts):
            wave = range(len(results), len(starts))
            for index in reversed(wave) if order == "reverse" else wave:
                results[index] = ReachResult(reach(starts[index], config), None, np.zeros(4), "fake")
                if on_result is not None:
                    starts.extend(tuple(float(v) for v in x0) for x0 in on_result(index, results[index]))
        return [results[index] for index in range(len(starts))]

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

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_pipeline_integrates_no_grid_node_twice(
        self, fig4_params, fig4_attractors, tmp_path, monkeypatch
    ):
        batches, reached = _record_launches(monkeypatch)
        grid, segments, sample, _ = reconstruct_separatrix(
            fig4_params,
            ((1.3, 1.9), (0.1, 0.3), (0.0, 0.8)),
            4,
            fig4_attractors,
            tmp_path,
            bisect_tol=1e-2,
        )
        nodes = {(*u, 0.0) for u in itertools.product(*grid.axes_1d)}
        config, streamed, grid_starts = batches[0]
        assert config == IntegrationConfig() and not streamed
        assert len(grid_starts) == grid.labels.size and set(grid_starts) == nodes
        assert len(segments) > 0 and len(sample.points) == len(segments)
        assert all(nodes.isdisjoint(starts) for _, _, starts in batches[1:])

        # Plain bisection with the pipeline's own runs as its oracle, each
        # read at the config it ran at: a midpoint it needs that was never
        # launched raises KeyError.
        assert sample.rebisected == []
        bisection = batches[1:]
        assert _check_bisection_batches(bisection, segments, lambda u, c: reached[u, c], config, 1e-2, []) > 0
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
        # tolerance. The saddle is undecided at both, so the two segments
        # that meet it are bisected again, and skipped there.
        label = basin._labelling_config(IntegrationConfig())
        assert _plain_bisection(segments, lambda u: reach(u, label), 1e-3)[4] == rounds
        assert sample.rebisected == [3, 4]
        _check_bisection_batches(batches, segments, reach, IntegrationConfig(), 1e-3, [3, 4])
        # Each case was met in a two-level round of the labelling stream:
        # the midpoint run directly followed by its lower and upper quarter.
        starts = batches[0][2]
        follows = set(zip(starts, starts[1:], starts[2:]))
        assert {rounds[3][-1], rounds[4][-2], rounds[5][0]} <= follows

        # A segment bisected alone launches only its midpoints, in order,
        # and then its final bracket ends.
        batches.clear()
        alone = separatrix_points(fig4_params, segments[:1], attractors, bisect_tol=1e-3)
        assert batches[0][2] == [mid for mid, _, _ in rounds[0]]
        _check_bisection_batches(batches, segments[:1], reach, IntegrationConfig(), 1e-3, [])
        assert alone.points.tobytes() == points[:1].tobytes()

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
        assert _check_bisection_batches(batches, segments, reach, IntegrationConfig(), 1e-3, [1, 2]) > 0

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

        def faulty(start, config=config):
            if start == stuck:
                return None
            return answer if (start, config) == (wrong, label) else reach(start, config)

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
        assert wrong in batches[0][2]
        _check_bisection_batches(batches, segments, faulty, config, 1e-3, [0, 2])

    @pytest.mark.parametrize("tol", [1e-5, 1e-4])
    def test_a_config_as_loose_as_labelling_certifies_nothing(
        self, fig4_params, fig4_attractors, monkeypatch, tol
    ):
        # --tol 1e-5 or looser: plain bisection at the config, one stream,
        # and the saddle segment is skipped without a second bisection.
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
        assert [(c, streamed) for c, streamed, _ in batches] == [(config, True)]
        assert _check_bisection_batches(batches, segments, reach, config, 1e-3, []) > 0
        assert sample.points.tobytes() == points.tobytes()
        assert sample.segments.tobytes() == ends.tobytes()
        assert sample.side_labels == side_labels
        assert sample.skipped == skipped
        assert sample.rebisected == []

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
        assert [c for c, _, _ in batches][:2] == [label, config]
        assert all(c.rel_tol >= config.rel_tol and c.abs_tol >= config.abs_tol for c, _, _ in batches)
        reach = _scalar_reach(fig4_params, fig4_attractors)
        assert sample.rebisected == []
        _check_bisection_batches(batches, segments, reach, config, 1e-3, [])
        points = _plain_bisection(segments, lambda u: reach(u, config), 1e-3)[0]
        assert sample.points.tobytes() == points.tobytes()

    def test_deterministic(self, fig4_params, fig4_attractors):
        seg = [((1.9, 0.2, 0.0), (1.9, 0.2, 2.5), "E1", "E4")]
        a = separatrix_points(fig4_params, seg, fig4_attractors)
        b = separatrix_points(fig4_params, seg, fig4_attractors)
        np.testing.assert_array_equal(a.points, b.points)


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


def test_fig4_bisects_no_segment_twice(fig4_pipeline):
    # Every final bracket end of fig4's labelling-tolerance bisection keeps
    # its side at the config's tolerance; the count stays out of the files.
    summary, outdir = fig4_pipeline
    assert summary["n_rebisected"] == 0
    assert summary["n_boundary_points"] == summary["n_segments"] == 463
    assert "rebisect" not in (outdir / "summary.txt").read_text()


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
    assert _graph_sides(sample, 2) == ("E4", "E1")
    # Along P two diagonals rise and the rest are flat, without a vote.
    assert _graph_sides(sample, 0) == ("E1", "E4")
