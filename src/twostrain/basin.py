"""Basins of attraction in the slice of state space without the second strain.

Points of the slice have coordinates (P, S, V) and W = 0, which is an
invariant hyperplane of the model. The workflow has three stages. First
a box of grid nodes is classified by integrating each node to one of a
given set of attractors. Second, the basin boundary is located precisely
by bisecting straight segments whose endpoints reach different
attractors: every decided, differently-labelled corner pair of a grid
cell (its edges, face diagonals and body diagonals). This concentrates
all bisection work on cells the boundary actually crosses, which matters
when one basin is a small pocket of the box, and the grid labels of the
corners are reused, so bisection integrates only midpoints: a segment
is always ``(start, end, start_label, end_label)`` with two different
attractor ids. Third, the point cloud is interpolated with a thin-plate
spline surface so the boundary can be evaluated, meshed on a 40x40
lattice, and probed 0.05 to either side. ``reconstruct_separatrix`` runs
the three stages and writes their files, after checking every input
before any run.

Every stage integrates its starts together with
``integrate.run_to_attractor_batch``: the grid in one batch, the probes in
one batch, and bisection as one stream of runs. Each segment is plain
bisection over a memo of the runs it launched: it halves while its
midpoint's result is known and launches the midpoint when it is not.
While other segments are still bisecting, it launches both quarter
points with the midpoint, since one of them is its next midpoint, so
each stepper pass carries more lanes and a segment needs about half as
many passes in a row. The lanes of a batch reproduce one-at-a-time runs
bit for bit, so the stream launches exactly what plain bisection, one
segment and one midpoint at a time, needs.

A midpoint yields only a label, so the stream runs at a labelling
tolerance (``rel_tol`` no tighter than 1e-5), and both ends of each final
bracket are then certified in one batch at the caller's tolerance; a
segment that fails, or met an undecided midpoint, is bisected again at
the caller's tolerance. On fig4 at resolution 11 this takes bisection
from 3,514 stepper passes to 1,566 plus 539 for the certificate, and the
whole of fig4 from 4,280 to 2,871, with every output byte-identical.
The grid and the probes run at the caller's tolerance.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .integrate import IntegrationConfig, ReachResult, UNDECIDED, _separated_attractors, run_to_attractor_batch
from .model import ModelParameters

__all__ = [
    "BasinGrid",
    "SeparatrixSample",
    "SeparatrixModel",
    "DegenerateGeometryError",
    "FitResidualError",
    "classify_grid",
    "boundary_edge_segments",
    "separatrix_points",
    "fit_surface",
    "probe_surface_sides",
    "write_grid_csv",
    "write_points_csv",
    "write_surface_obj",
    "write_surface_lattice_csv",
    "reconstruct_separatrix",
]

# Slice coordinates, in the order of every point, bound and CSV column.
_AXIS_NAMES = ("P", "S", "V")

# Share of undecided grid nodes above which classify_grid warns.
_MAX_UNDECIDED = 0.05
# Smallest sample count the surface fit accepts.
_MIN_FIT_POINTS = 10
# Distance along the graph axis of each side probe from the surface.
_PROBE_OFFSET = 0.05
# Lattice of the surface mesh and CSV, per plane axis.
_LATTICE = 40
# Loosest relative tolerance of bisection's labelling runs. fig4's
# midpoint labels at resolutions 7, 11 and 21 are the same at 1e-5 as at
# the default 1e-8; each final bracket is certified at the caller's.
_LABEL_REL_TOL = 1e-5


class DegenerateGeometryError(ValueError):
    """Sample sites are collinear or duplicated; the fit is underdetermined."""


class FitResidualError(RuntimeError):
    """The interpolant failed to reproduce its own samples."""


def _check_grid(
    bounds: Sequence[tuple[float, float]], resolution: int, attractors: Iterable, match_radius: float
) -> list[tuple[str, tuple[float, float, float, float]]]:
    """Check ``classify_grid``'s inputs without integrating; returns the attractors."""
    targets = _separated_attractors(attractors, match_radius)
    bounds = list(bounds)
    if len(bounds) != 3:
        raise ValueError("bounds must give (lo, hi) for each of the three slice axes")
    for lo, hi in bounds:
        if not lo < hi:
            raise ValueError(f"degenerate bounds ({lo}, {hi})")
        if lo < 0.0:
            raise ValueError(f"slice box ({lo}, {hi}) reaches outside the nonnegative orthant")
        if hi == math.inf:
            raise ValueError(f"slice box ({lo}, {hi}) is not finite")
    if not isinstance(resolution, int) or resolution < 2:
        raise ValueError(f"resolution must be an int >= 2, got {resolution!r}")
    return targets


def _check_bisect_tol(bisect_tol: float) -> None:
    if not 0.0 < bisect_tol < math.inf:
        raise ValueError(f"bisect_tol must be positive and finite, got {bisect_tol!r}")


@dataclass(frozen=True)
class BasinGrid:
    """Labelled grid nodes on a slice box.

    ``labels[i, j, k]`` indexes ``attractor_ids`` (-1 for undecided) at
    node ``(axes_1d[0][i], axes_1d[1][j], axes_1d[2][k])``.
    """

    bounds: tuple[tuple[float, float], ...]
    axes_1d: tuple[np.ndarray, np.ndarray, np.ndarray]
    labels: np.ndarray
    attractor_ids: tuple[str, ...]

    @property
    def undecided_fraction(self) -> float:
        return float(np.mean(self.labels < 0))

    def label_name(self, index: int) -> str:
        return UNDECIDED if index < 0 else self.attractor_ids[index]


def classify_grid(
    params: ModelParameters,
    bounds: Sequence[tuple[float, float]],
    resolution: int,
    attractors: Iterable,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
) -> BasinGrid:
    """Integrate every node of a ``resolution``-per-axis grid to an attractor
    (or undecided), as one batch.

    Every input is checked before any run. Emits a warning (never an
    error) when more than 5% of the nodes fail to classify: points exactly
    on basin boundaries or on invariant faces that drain to an unlisted
    attractor are legitimate.
    """
    targets = _check_grid(bounds, resolution, attractors, match_radius)
    shape = (resolution, resolution, resolution)
    axes_1d = tuple(np.linspace(lo, hi, resolution) for lo, hi in bounds)
    labels = np.full(shape, -1, dtype=np.int8)
    index_of = {name: i for i, (name, _) in enumerate(targets)}

    starts = [(u1, u2, u3, 0.0) for u1, u2, u3 in itertools.product(*axes_1d)]
    results = run_to_attractor_batch(params, starts, targets, config=config, match_radius=match_radius)
    for node, result in zip(np.ndindex(shape), results):
        if result.attractor_id is not None:
            labels[node] = index_of[result.attractor_id]

    grid = BasinGrid(
        bounds=tuple((float(lo), float(hi)) for lo, hi in bounds),
        axes_1d=axes_1d,
        labels=labels,
        attractor_ids=tuple(name for name, _ in targets),
    )
    if grid.undecided_fraction > _MAX_UNDECIDED:
        warnings.warn(
            f"{grid.undecided_fraction:.1%} of grid nodes undecided "
            f"(threshold {_MAX_UNDECIDED:.1%})",
            stacklevel=2,
        )
    return grid


def write_grid_csv(grid: BasinGrid, stream: IO[str]) -> None:
    """One row per node: slice coordinates and the attractor label."""
    stream.write(",".join(_AXIS_NAMES) + ",label\n")
    n1, n2, n3 = grid.labels.shape
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                name = grid.label_name(int(grid.labels[i, j, k]))
                stream.write(
                    f"{grid.axes_1d[0][i]:.17g},{grid.axes_1d[1][j]:.17g},"
                    f"{grid.axes_1d[2][k]:.17g},{name}\n"
                )


@dataclass(frozen=True)
class SeparatrixSample:
    """Boundary points found by segment bisection.

    ``points`` are slice coordinates; ``side_labels[i]`` gives the
    attractor ids bracketing point ``i`` (segment-start side first) and
    ``segments[i]`` the originating segment endpoints, shape (n, 2, 3).
    ``skipped`` records (segment index, reason) for segments that could
    not be bisected. ``rebisected`` lists the segments bisected a second
    time at the caller's tolerance, because a labelling-tolerance midpoint
    was undecided or a final bracket end failed its certificate.
    """

    points: np.ndarray
    side_labels: list[tuple[str, str]]
    segments: np.ndarray
    skipped: list[tuple[int, str]]
    rebisected: list[int] = dataclasses.field(default_factory=list)


def boundary_edge_segments(grid: BasinGrid) -> list[tuple[np.ndarray, np.ndarray, str, str]]:
    """Segments joining differently-labelled corners of each grid cell.

    Every decided opposite-label corner pair of a cell is returned once:
    cell edges, face diagonals and body diagonals. Each brackets the basin
    boundary within one cell, so bisecting them spends no integrator time
    on segments that never leave a single basin. A segment is
    ``(start, end, start_label, end_label)``, carrying the attractor ids
    the grid gave its two nodes. Pairs involving an undecided node are
    never returned.
    """
    labels = grid.labels
    segments = []
    seen: set[tuple[tuple[int, int, int], tuple[int, int, int]]] = set()

    def node_point(node: tuple[int, int, int]) -> np.ndarray:
        return np.array([grid.axes_1d[d][node[d]] for d in range(3)])

    corners = list(np.ndindex(2, 2, 2))
    n0, n1, n2 = labels.shape
    for i in range(n0 - 1):
        for j in range(n1 - 1):
            for k in range(n2 - 1):
                nodes = [(i + d0, j + d1, k + d2) for d0, d1, d2 in corners]
                labs = [int(labels[n]) for n in nodes]
                decided = {l for l in labs if l >= 0}
                if len(decided) < 2:
                    continue
                for a in range(8):
                    if labs[a] < 0:
                        continue
                    for b in range(a + 1, 8):
                        if labs[b] < 0 or labs[b] == labs[a]:
                            continue
                        key = (nodes[a], nodes[b])
                        if key in seen:
                            continue
                        seen.add(key)
                        segments.append(
                            (
                                node_point(nodes[a]),
                                node_point(nodes[b]),
                                grid.attractor_ids[labs[a]],
                                grid.attractor_ids[labs[b]],
                            )
                        )
    return segments


def _labelling_config(config: IntegrationConfig) -> IntegrationConfig:
    """``config`` with its tolerances loosened to bisection's labelling ones,
    and never tightened."""
    rel_tol = max(_LABEL_REL_TOL, config.rel_tol)
    return dataclasses.replace(config, rel_tol=rel_tol, abs_tol=max(config.abs_tol, rel_tol / 100))


def _bisect(
    params: ModelParameters,
    targets: list[tuple[str, tuple[float, float, float, float]]],
    ends: list[tuple[np.ndarray, np.ndarray]],
    sides: list[tuple[str, str]],
    rows: Iterable[int],
    bisect_tol: float,
    config: IntegrationConfig,
    match_radius: float,
) -> dict[int, list[np.ndarray] | None]:
    """Plain bisection of the segments ``rows``, as one stream of runs at ``config``.

    Returns each row's final bracket ``[lo, hi]``, whose ends are the
    segment's own arrays until they move, or None if a midpoint was
    undecided.
    """
    bracket: dict[int, list[np.ndarray] | None] = {row: list(ends[row]) for row in rows}
    length = {row: float(np.linalg.norm(ends[row][1] - ends[row][0])) for row in bracket}
    running = {row for row in bracket if length[row] > bisect_tol}
    # memo[row] maps each point the segment launched (its bytes) to the
    # run's result, None while the run is out.
    memo: dict[int, dict[bytes, ReachResult | None]] = {row: {} for row in running}
    tag_of: list[tuple[int, bytes]] = []  # (segment, point) by launch index

    def advance(row: int) -> list[tuple[float, float, float, float]]:
        """Halve the bracket while its midpoint's result is in the memo;
        return the starts to launch if the midpoint never was."""
        lo_hi = bracket[row]
        while length[row] > bisect_tol:
            mid = 0.5 * (lo_hi[0] + lo_hi[1])
            key = mid.tobytes()
            if key not in memo[row]:
                points = [mid]
                # Halving is exact, so the quarters are bitwise the two
                # midpoints that could come next.
                if len(running) > 1 and length[row] * 0.5 > bisect_tol:
                    points += [0.5 * (lo_hi[0] + mid), 0.5 * (mid + lo_hi[1])]
                for u in points:
                    memo[row][u.tobytes()] = None
                    tag_of.append((row, u.tobytes()))
                return [(*u, 0.0) for u in points]
            res = memo[row][key]
            if res is None:  # still running
                return []
            if res.attractor_id is None:
                bracket[row] = None
                break
            if res.attractor_id == sides[row][0]:
                lo_hi[0] = mid
            else:
                lo_hi[1] = mid
            length[row] *= 0.5
        running.discard(row)
        return []

    def on_result(index: int, res: ReachResult) -> list[tuple[float, float, float, float]]:
        row, key = tag_of[index]
        memo[row][key] = res
        return advance(row) if row in running else []

    first = [start for row in sorted(running) for start in advance(row)]
    run_to_attractor_batch(
        params, first, targets, config=config, match_radius=match_radius, on_result=on_result
    )
    return bracket


def separatrix_points(
    params: ModelParameters,
    segments: Sequence[tuple[np.ndarray, np.ndarray, str, str]],
    attractors: Iterable,
    bisect_tol: float = 1e-4,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
) -> SeparatrixSample:
    """Bisect each segment to a basin-boundary point.

    A segment is ``(start, end, start_label, end_label)``, as
    ``boundary_edge_segments`` returns it: the two labels are different
    ids of ``attractors``, taken as given, so only midpoints are
    integrated. Every segment must lie in the nonnegative orthant, and
    ``bisect_tol`` must be positive and finite; all of that is checked
    before anything is integrated. A segment whose midpoint fails to
    classify is skipped with a note, in segment order. The bisection stops
    once the bracket is shorter than ``bisect_tol`` in slice coordinates;
    the returned point is the bracket midpoint.

    The segments are bisected as one stream of runs, and each is plain
    bisection reading a memo of the results of the points it launched,
    keyed by the point's bytes. As each run ends, its segment halves its
    bracket while the midpoint has a result, and then waits for the
    midpoint's run or launches it, so no segment waits for another. If
    two or more halvings remain and another segment is still bisecting,
    the launch also runs both quarter points: halving is exact, so the
    quarter the midpoint's label selects is bitwise the next midpoint,
    and the other is a memo entry never read, even if it is undecided. A
    segment bisected alone runs its midpoints one at a time, so each goes
    through the scalar loop.

    A midpoint only yields a label, so the stream runs at a labelling
    config: ``rel_tol`` at least 1e-5 and ``abs_tol`` at least a hundredth
    of that, never tighter than ``config``. Then both ends of every final
    bracket run in one batch at ``config``, except an end that is still
    one of the segment's own. A segment whose loose midpoint was undecided,
    or whose bracket end reaches the other side at ``config``, is listed
    in ``rebisected`` and bisected again from its own ends at ``config``,
    where an undecided midpoint skips it. Every returned point is thus
    the midpoint of a bracket whose ends carry ``config`` labels of two
    different attractors, as plain bisection at ``config`` promises. If
    ``config`` is already as loose as the labelling config, the stream
    runs at ``config`` and nothing is certified. On fig4 at resolution 11
    the stream takes 1,566 stepper passes and the certificate 539, where
    bisecting at ``config`` took 3,514, and no segment is rebisected.
    """
    cfg = config or IntegrationConfig()
    targets = _separated_attractors(attractors, match_radius)
    _check_bisect_tol(bisect_tol)
    names = {name for name, _ in targets}
    ends = []
    sides = []
    for start, end, lab_lo, lab_hi in segments:
        u_lo, u_hi = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
        for u in (u_lo, u_hi):
            if np.any(u < 0.0):
                raise ValueError(f"segment point {u} maps outside the nonnegative orthant")
        if lab_lo == lab_hi or lab_lo not in names or lab_hi not in names:
            raise ValueError(
                f"segment labels ({lab_lo!r}, {lab_hi!r}) must be two different ids of {sorted(names)}"
            )
        ends.append((u_lo, u_hi))
        sides.append((lab_lo, lab_hi))

    n = len(ends)
    label_cfg = _labelling_config(cfg)
    brackets = _bisect(params, targets, ends, sides, range(n), bisect_tol, label_cfg, match_radius)
    rebisected = []
    if label_cfg != cfg:
        # (segment, side, point) of every final bracket end that moved: an
        # end still the segment's own array has its grid label already.
        moved = [
            (row, side, u)
            for row, bracket in brackets.items()
            if bracket is not None
            for side, (u, own) in enumerate(zip(bracket, ends[row]))
            if u is not own
        ]
        certified = run_to_attractor_batch(
            params, [(*u, 0.0) for _, _, u in moved], targets, config=cfg, match_radius=match_radius
        )
        wrong = {row for row, bracket in brackets.items() if bracket is None}
        for (row, side, _), res in zip(moved, certified):
            upper = res.attractor_id != sides[row][0]
            if res.attractor_id is None or upper != (side == 1):
                wrong.add(row)
        rebisected = sorted(wrong)
        if rebisected:
            brackets.update(_bisect(params, targets, ends, sides, rebisected, bisect_tol, cfg, match_radius))

    rows = [row for row in range(n) if brackets[row] is not None]
    pts = np.array([0.5 * (brackets[row][0] + brackets[row][1]) for row in rows]).reshape(len(rows), 3)
    side_labels = [sides[row] for row in rows]
    segs = np.array([ends[row] for row in rows]).reshape(len(rows), 2, 3)
    skipped = [(row, "undecided midpoint during bisection") for row in range(n) if brackets[row] is None]
    return SeparatrixSample(
        points=pts, side_labels=side_labels, segments=segs, skipped=skipped, rebisected=rebisected
    )


def write_points_csv(sample: SeparatrixSample, stream: IO[str]) -> None:
    stream.write(",".join(_AXIS_NAMES) + ",side_lo,side_hi\n")
    for pt, (lo, hi) in zip(sample.points, sample.side_labels):
        stream.write(f"{pt[0]:.17g},{pt[1]:.17g},{pt[2]:.17g},{lo},{hi}\n")


# ----------------------------------------------------------------------
# Surface fitting
# ----------------------------------------------------------------------


def _thin_plate(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    mask = r > 0.0
    out[mask] = r[mask] ** 2 * np.log(r[mask])
    return out


@dataclass(frozen=True)
class SeparatrixModel:
    """Interpolated basin boundary as a graph over a coordinate plane.

    ``evaluate`` maps plane coordinates to the graph-axis value. Sites
    are stored normalized (centered and scaled) for conditioning; the
    transform is part of the model.
    """

    graph_axis: int
    plane_axes: tuple[int, int]
    sites: np.ndarray
    center: np.ndarray
    scale: float
    weights: np.ndarray
    poly: np.ndarray
    points: np.ndarray
    fit_residual: float

    def evaluate(self, plane_coords: Sequence[float] | np.ndarray) -> np.ndarray:
        """Graph-axis values at one or many plane points (shape (..., 2))."""
        uv = np.asarray(plane_coords, dtype=float)
        single = uv.ndim == 1
        uv2 = np.atleast_2d(uv)
        z = (uv2 - self.center) / self.scale
        r = np.sqrt(
            np.maximum(
                ((z[:, None, :] - self.sites[None, :, :]) ** 2).sum(axis=2), 0.0
            )
        )
        phi = _thin_plate(r)
        vals = phi @ self.weights + self.poly[0] + z @ self.poly[1:]
        return float(vals[0]) if single else vals


_AXIS_BY_NAME = {"0": 0, "1": 1, "2": 2}


def _resolve_axis(graph_axis: int | str) -> int:
    if isinstance(graph_axis, str):
        if graph_axis in _AXIS_NAMES:
            return _AXIS_NAMES.index(graph_axis)
        if graph_axis in _AXIS_BY_NAME:
            return _AXIS_BY_NAME[graph_axis]
        raise ValueError(f"unknown graph axis {graph_axis!r}; slice axes are {_AXIS_NAMES}")
    if graph_axis not in (0, 1, 2):
        raise ValueError("graph_axis must be 0, 1 or 2")
    return graph_axis


def fit_surface(points: np.ndarray, graph_axis: int | str = 2) -> SeparatrixModel:
    """Interpolate boundary points as a graph over the remaining plane.

    The interpolant is a thin-plate spline expansion augmented with an
    affine polynomial, solved as one symmetric linear system with the
    standard orthogonality side conditions on the radial weights. It
    reproduces the samples exactly (residual enforced below 1e-8) and
    degrades to the pure affine part far from data.

    Raises DegenerateGeometryError for fewer than 10, duplicated, or
    collinear sites, and FitResidualError if the solved system fails to
    reproduce the samples.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    axis = _resolve_axis(graph_axis)
    plane = tuple(k for k in range(3) if k != axis)

    n = pts.shape[0]
    if n < _MIN_FIT_POINTS:
        raise DegenerateGeometryError(f"need at least {_MIN_FIT_POINTS} points, got {n}")

    proj = pts[:, plane]
    vals = pts[:, axis]

    # Duplicate sites make the kernel matrix singular.
    diff = proj[:, None, :] - proj[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    offdiag = dist + np.diag(np.full(n, np.inf))
    if float(offdiag.min()) < 1e-10:
        raise DegenerateGeometryError("duplicate projected sites")

    center = proj.mean(axis=0)
    spread = proj.std(axis=0)
    scale = float(np.max(spread))
    if scale <= 0.0:
        raise DegenerateGeometryError("all sites project to a single point")
    z = (proj - center) / scale

    # Collinear sites cannot pin down the affine part.
    sv = np.linalg.svd(z - z.mean(axis=0), compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise DegenerateGeometryError("projected sites are collinear")

    r = np.sqrt(np.maximum(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2), 0.0))
    phi = _thin_plate(r)
    P = np.column_stack((np.ones(n), z))
    A = np.zeros((n + 3, n + 3))
    A[:n, :n] = phi
    A[:n, n:] = P
    A[n:, :n] = P.T
    b = np.concatenate((vals, np.zeros(3)))
    try:
        sol = np.linalg.solve(A, b)
        # One step of iterative refinement buys back rounding losses on
        # ill-conditioned kernel systems.
        sol = sol + np.linalg.solve(A, b - A @ sol)
    except np.linalg.LinAlgError as err:
        raise DegenerateGeometryError(f"singular interpolation system: {err}") from err

    weights = sol[:n]
    poly = sol[n:]
    model = SeparatrixModel(
        graph_axis=axis,
        plane_axes=plane,
        sites=z,
        center=center,
        scale=scale,
        weights=weights,
        poly=poly,
        points=pts,
        fit_residual=0.0,
    )
    residual = float(np.max(np.abs(model.evaluate(proj) - vals)))
    model = dataclasses.replace(model, fit_residual=residual)
    if residual > 1e-8:
        raise FitResidualError(
            f"interpolant misses its own samples by {residual:.3g} (> 1e-8)"
        )
    return model


def probe_surface_sides(
    params: ModelParameters,
    model: SeparatrixModel,
    attractors: Iterable,
    expected_above: str,
    expected_below: str,
    n_probes: int = 100,
    rng: np.random.Generator | None = None,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
) -> tuple[int, int]:
    """Check that points offset from the surface reach the expected side.

    Draws probe sites as convex combinations of random sample triples (so
    they stay inside the sampled region), offsets them by 0.05 along the
    graph axis in both directions, classifies each offset point, and
    counts matches against the expected attractor for that side. Offsets that leave the nonnegative orthant are redrawn. All
    probe points are drawn first and then classified in one batch.

    Returns (matches, total) with total = 2 * n_probes.
    """
    rng = rng or np.random.default_rng(0)
    targets = _separated_attractors(attractors, match_radius)
    proj = model.points[:, model.plane_axes]
    n = proj.shape[0]

    starts = []
    attempts = 0
    while len(starts) < 2 * n_probes:
        attempts += 1
        if attempts > 50 * n_probes:
            raise RuntimeError("could not place probes inside the orthant")
        idx = rng.integers(0, n, size=3)
        w = rng.dirichlet(np.ones(3))
        site = w @ proj[idx]
        g = float(model.evaluate(site))
        pair = np.zeros((2, 3))
        pair[:, model.plane_axes[0]] = site[0]
        pair[:, model.plane_axes[1]] = site[1]
        pair[:, model.graph_axis] = (g + _PROBE_OFFSET, g - _PROBE_OFFSET)
        if not np.any(pair < 0.0):
            starts.extend((*u, 0.0) for u in pair)

    results = run_to_attractor_batch(params, starts, targets, config=config, match_radius=match_radius)
    expected = (expected_above, expected_below) * n_probes
    matches = sum(res.attractor_id == side for res, side in zip(results, expected))
    return matches, len(starts)


def write_surface_obj(model: SeparatrixModel, stream: IO[str]) -> None:
    """Triangulated Wavefront OBJ mesh of the fitted surface.

    Vertices are written in slice coordinates (the three axis values in
    order), evaluated on a regular 40x40 lattice over the sampled plane
    region.
    """
    proj = model.points[:, model.plane_axes]
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    nu = nv = _LATTICE
    us = np.linspace(lo[0], hi[0], nu)
    vs = np.linspace(lo[1], hi[1], nv)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    sites = np.column_stack((uu.ravel(), vv.ravel()))
    gg = model.evaluate(sites)
    for (u, v), g in zip(sites, gg):
        coords = np.zeros(3)
        coords[model.plane_axes[0]] = u
        coords[model.plane_axes[1]] = v
        coords[model.graph_axis] = g
        stream.write(f"v {coords[0]:.10g} {coords[1]:.10g} {coords[2]:.10g}\n")
    for i in range(nu - 1):
        for j in range(nv - 1):
            v00 = i * nv + j + 1
            v01 = v00 + 1
            v10 = v00 + nv
            v11 = v10 + 1
            stream.write(f"f {v00} {v10} {v11}\n")
            stream.write(f"f {v00} {v11} {v01}\n")


def write_surface_lattice_csv(model: SeparatrixModel, stream: IO[str]) -> None:
    """Regular 40x40 lattice of surface evaluations over the sampled plane region, as CSV."""
    proj = model.points[:, model.plane_axes]
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    u_name, v_name = (_AXIS_NAMES[k] for k in model.plane_axes)
    stream.write(f"{u_name},{v_name},{_AXIS_NAMES[model.graph_axis]}\n")
    for u in np.linspace(lo[0], hi[0], _LATTICE):
        for v in np.linspace(lo[1], hi[1], _LATTICE):
            g = float(model.evaluate((u, v)))
            stream.write(f"{u:.17g},{v:.17g},{g:.17g}\n")


def reconstruct_separatrix(
    params: ModelParameters,
    bounds: Sequence[tuple[float, float]],
    resolution: int,
    attractors: Iterable,
    outdir: str | Path,
    graph_axis: int | str = 2,
    bisect_tol: float = 1e-4,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
) -> tuple[BasinGrid, list[tuple[np.ndarray, np.ndarray, str, str]], SeparatrixSample, SeparatrixModel]:
    """Classify a grid, bisect its boundary cells and fit the boundary surface.

    Writes ``labels.csv``, ``boundary_points.csv``, ``surface.obj`` and
    ``surface_lattice.csv`` into the existing directory ``outdir``, each
    as soon as its stage is done, and returns (grid, segments, sample,
    model). An unknown ``graph_axis``, or any other input that
    ``classify_grid`` or ``separatrix_points`` would reject, raises
    ValueError before any work.
    """
    axis = _resolve_axis(graph_axis)
    targets = _check_grid(bounds, resolution, attractors, match_radius)
    _check_bisect_tol(bisect_tol)
    out = Path(outdir)
    grid = classify_grid(
        params, bounds, resolution, targets, config=config, match_radius=match_radius
    )
    with open(out / "labels.csv", "w") as fh:
        write_grid_csv(grid, fh)
    segments = boundary_edge_segments(grid)
    sample = separatrix_points(
        params, segments, targets, bisect_tol=bisect_tol, config=config, match_radius=match_radius
    )
    with open(out / "boundary_points.csv", "w") as fh:
        write_points_csv(sample, fh)
    model = fit_surface(sample.points, graph_axis=axis)
    with open(out / "surface.obj", "w") as fh:
        write_surface_obj(model, fh)
    with open(out / "surface_lattice.csv", "w") as fh:
        write_surface_lattice_csv(model, fh)
    return grid, segments, sample, model
