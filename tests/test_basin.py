"""Basin grids, boundary bisection, surface fitting and probing."""

import io
import itertools
import math

import numpy as np
import pytest

from twostrain import basin
from twostrain.basin import (
    BasinGrid,
    DegenerateGeometryError,
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
from twostrain.integrate import run_to_attractor, run_to_attractor_batch


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

    @pytest.mark.parametrize("bisect_tol", [0.0, -1.0, float("nan")])
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
        starts = []

        def record(batch):
            starts.extend(tuple(float(v) for v in x0) for x0 in batch)
            return batch

        def recording_batch(params, batch_starts, *args, on_result=None, **kwargs):
            # Bisection launches most of its runs from the callback.
            if on_result is not None:
                kwargs["on_result"] = lambda index, result: record(on_result(index, result))
            return run_to_attractor_batch(params, record(batch_starts), *args, **kwargs)

        monkeypatch.setattr(basin, "run_to_attractor_batch", recording_batch)
        grid, segments, sample, _ = reconstruct_separatrix(
            fig4_params,
            ((1.3, 1.9), (0.1, 0.3), (0.0, 0.8)),
            4,
            fig4_attractors,
            tmp_path,
            bisect_tol=1e-2,
        )
        nodes = {(*u, 0.0) for u in itertools.product(*grid.axes_1d)}
        grid_starts = starts[: grid.labels.size]
        bisection_starts = starts[grid.labels.size :]
        assert set(grid_starts) == nodes
        assert len(segments) > 0 and len(sample.points) == len(segments)
        assert nodes.isdisjoint(bisection_starts)

        def halvings(start, end):
            length, runs = float(np.linalg.norm(end - start)), 0
            while length > 1e-2:
                length *= 0.5
                runs += 1
            return runs

        assert sample.skipped == []
        assert len(bisection_starts) == sum(halvings(start, end) for start, end, _, _ in segments) > 0

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
