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
corners are reused, so bisection integrates only midpoints. Third, the
point cloud is interpolated with a thin-plate spline surface so the
boundary can be evaluated, meshed, and probed anywhere.
``reconstruct_separatrix`` runs the three stages and writes their files.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .integrate import IntegrationConfig, UNDECIDED, _attractor_list, run_to_attractor
from .model import ModelParameters

__all__ = [
    "BasinGrid",
    "SeparatrixSample",
    "KernelConfig",
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


class DegenerateGeometryError(ValueError):
    """Sample sites are collinear or duplicated; the fit is underdetermined."""


class FitResidualError(RuntimeError):
    """The interpolant failed to reproduce its own samples."""


def _check_box(bounds: Sequence[tuple[float, float]]) -> None:
    bounds = list(bounds)
    if len(bounds) != 3:
        raise ValueError("bounds must give (lo, hi) for each of the three slice axes")
    for lo, hi in bounds:
        if not lo < hi:
            raise ValueError(f"degenerate bounds ({lo}, {hi})")
        if lo < 0.0:
            raise ValueError(f"slice box ({lo}, {hi}) reaches outside the nonnegative orthant")


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
    resolution: int | tuple[int, int, int],
    attractors: Iterable,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
    max_undecided: float = 0.05,
) -> BasinGrid:
    """Integrate every grid node to an attractor (or undecided).

    Emits a warning (never an error) when more than ``max_undecided`` of
    the nodes fail to classify: points exactly on basin boundaries or on
    invariant faces that drain to an unlisted attractor are legitimate.
    """
    targets = _attractor_list(attractors)
    _check_box(bounds)
    if isinstance(resolution, int):
        shape = (resolution, resolution, resolution)
    else:
        shape = tuple(int(n) for n in resolution)
    if len(shape) != 3 or any(n < 2 for n in shape):
        raise ValueError("resolution must be an int >= 2 or three ints >= 2")

    axes_1d = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape))
    labels = np.full(shape, -1, dtype=np.int8)
    index_of = {name: i for i, (name, _) in enumerate(targets)}

    for i, u1 in enumerate(axes_1d[0]):
        for j, u2 in enumerate(axes_1d[1]):
            for k, u3 in enumerate(axes_1d[2]):
                result = run_to_attractor(
                    params, (u1, u2, u3, 0.0), targets, config=config, match_radius=match_radius
                )
                if result.attractor_id is not None:
                    labels[i, j, k] = index_of[result.attractor_id]

    grid = BasinGrid(
        bounds=tuple((float(lo), float(hi)) for lo, hi in bounds),
        axes_1d=axes_1d,
        labels=labels,
        attractor_ids=tuple(name for name, _ in targets),
    )
    if grid.undecided_fraction > max_undecided:
        warnings.warn(
            f"{grid.undecided_fraction:.1%} of grid nodes undecided "
            f"(threshold {max_undecided:.1%})",
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
    not be bisected.
    """

    points: np.ndarray
    side_labels: list[tuple[str, str]]
    segments: np.ndarray
    skipped: list[tuple[int, str]]


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


def separatrix_points(
    params: ModelParameters,
    segments: Sequence[tuple],
    attractors: Iterable,
    bisect_tol: float = 1e-4,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
) -> SeparatrixSample:
    """Bisect each segment to a basin-boundary point.

    A segment is ``(start, end)``, whose endpoints are classified first,
    or ``(start, end, start_label, end_label)`` as ``boundary_edge_segments``
    returns it, whose endpoint labels are taken as given so that only
    midpoints are integrated. Segments whose endpoints classify
    identically, or fail to classify, are skipped with a note. The
    bisection stops once the bracket is shorter than ``bisect_tol`` in
    slice coordinates; the returned point is the bracket midpoint.
    """
    targets = _attractor_list(attractors)

    def label(u: np.ndarray) -> str | None:
        if np.any(u < 0.0):
            raise ValueError(f"segment point {u} maps outside the nonnegative orthant")
        res = run_to_attractor(params, (*u, 0.0), targets, config=config, match_radius=match_radius)
        return res.attractor_id

    points = []
    sides = []
    used = []
    skipped = []
    for idx, segment in enumerate(segments):
        start, end = segment[0], segment[1]
        u_lo = np.asarray(start, dtype=float)
        u_hi = np.asarray(end, dtype=float)
        if len(segment) == 4:
            lab_lo, lab_hi = segment[2], segment[3]
        else:
            lab_lo, lab_hi = label(u_lo), label(u_hi)
        if lab_lo is None or lab_hi is None:
            skipped.append((idx, "undecided endpoint"))
            continue
        if lab_lo == lab_hi:
            skipped.append((idx, f"both endpoints reach {lab_lo}"))
            continue
        length = float(np.linalg.norm(u_hi - u_lo))
        undecided_mid = False
        while length > bisect_tol:
            mid = 0.5 * (u_lo + u_hi)
            lab_mid = label(mid)
            if lab_mid is None:
                undecided_mid = True
                break
            if lab_mid == lab_lo:
                u_lo = mid
            else:
                u_hi = mid
            length *= 0.5
        if undecided_mid:
            skipped.append((idx, "undecided midpoint during bisection"))
            continue
        points.append(0.5 * (u_lo + u_hi))
        sides.append((lab_lo, lab_hi))
        used.append((np.asarray(start, dtype=float), np.asarray(end, dtype=float)))

    pts = np.asarray(points, dtype=float).reshape(len(points), 3)
    segs = np.asarray(used, dtype=float).reshape(len(used), 2, 3)
    return SeparatrixSample(points=pts, side_labels=sides, segments=segs, skipped=skipped)


def write_points_csv(sample: SeparatrixSample, stream: IO[str]) -> None:
    stream.write(",".join(_AXIS_NAMES) + ",side_lo,side_hi\n")
    for pt, (lo, hi) in zip(sample.points, sample.side_labels):
        stream.write(f"{pt[0]:.17g},{pt[1]:.17g},{pt[2]:.17g},{lo},{hi}\n")


# ----------------------------------------------------------------------
# Surface fitting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelConfig:
    """Settings of the thin-plate spline (r^2 log r) boundary interpolant.

    ``min_points`` is the smallest sample count accepted by the fit.
    """

    min_points: int = 10

    def __post_init__(self) -> None:
        if self.min_points < 3:
            raise ValueError("min_points must be at least 3")


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
    kernel: KernelConfig
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

    def point_on_surface(self, plane_coords: Sequence[float]) -> np.ndarray:
        """Full slice-coordinate point above the given plane coordinates."""
        out = np.zeros(3)
        out[self.plane_axes[0]] = plane_coords[0]
        out[self.plane_axes[1]] = plane_coords[1]
        out[self.graph_axis] = self.evaluate(plane_coords)
        return out


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


def fit_surface(
    points: np.ndarray,
    graph_axis: int | str = 2,
    kernel: KernelConfig | None = None,
) -> SeparatrixModel:
    """Interpolate boundary points as a graph over the remaining plane.

    The interpolant is a thin-plate spline expansion augmented with an
    affine polynomial, solved as one symmetric linear system with the
    standard orthogonality side conditions on the radial weights. It
    reproduces the samples exactly (residual enforced below 1e-8) and
    degrades to the pure affine part far from data.

    Raises DegenerateGeometryError for too few, duplicated, or collinear
    sites, and FitResidualError if the solved system fails to reproduce
    the samples.
    """
    kernel = kernel or KernelConfig()
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    axis = _resolve_axis(graph_axis)
    plane = tuple(k for k in range(3) if k != axis)

    n = pts.shape[0]
    if n < kernel.min_points:
        raise DegenerateGeometryError(
            f"need at least {kernel.min_points} points, got {n}"
        )

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
        kernel=kernel,
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
    offset: float = 0.05,
    rng: np.random.Generator | None = None,
    config: IntegrationConfig | None = None,
    match_radius: float = 0.05,
) -> tuple[int, int]:
    """Check that points offset from the surface reach the expected side.

    Draws probe sites as convex combinations of random sample triples (so
    they stay inside the sampled region), offsets them by ``offset``
    along the graph axis in both directions, classifies each offset
    point, and counts matches against the expected attractor for that
    side. Offsets that leave the nonnegative orthant are redrawn.

    Returns (matches, total) with total = 2 * n_probes.
    """
    rng = rng or np.random.default_rng(0)
    targets = _attractor_list(attractors)
    proj = model.points[:, model.plane_axes]
    n = proj.shape[0]

    matches = 0
    total = 0
    produced = 0
    attempts = 0
    while produced < n_probes:
        attempts += 1
        if attempts > 50 * n_probes:
            raise RuntimeError("could not place probes inside the orthant")
        idx = rng.integers(0, n, size=3)
        w = rng.dirichlet(np.ones(3))
        site = w @ proj[idx]
        g = float(model.evaluate(site))
        candidates = []
        ok = True
        for sign, expected in ((+1.0, expected_above), (-1.0, expected_below)):
            u = np.zeros(3)
            u[model.plane_axes[0]] = site[0]
            u[model.plane_axes[1]] = site[1]
            u[model.graph_axis] = g + sign * offset
            if np.any(u < 0.0):
                ok = False
                break
            candidates.append(((*u, 0.0), expected))
        if not ok:
            continue
        produced += 1
        for x0, expected in candidates:
            res = run_to_attractor(params, x0, targets, config=config, match_radius=match_radius)
            total += 1
            if res.attractor_id == expected:
                matches += 1
    return matches, total


def write_surface_obj(
    model: SeparatrixModel,
    stream: IO[str],
    resolution: tuple[int, int] = (40, 40),
) -> None:
    """Triangulated Wavefront OBJ mesh of the fitted surface.

    Vertices are written in slice coordinates (the three axis values in
    order), evaluated on a regular lattice over the sampled plane region.
    """
    proj = model.points[:, model.plane_axes]
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    nu, nv = resolution
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


def write_surface_lattice_csv(
    model: SeparatrixModel,
    stream: IO[str],
    resolution: tuple[int, int] = (40, 40),
) -> None:
    """Regular lattice of surface evaluations over the sampled plane region, as CSV."""
    proj = model.points[:, model.plane_axes]
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    nu, nv = resolution
    u_name, v_name = (_AXIS_NAMES[k] for k in model.plane_axes)
    stream.write(f"{u_name},{v_name},{_AXIS_NAMES[model.graph_axis]}\n")
    for u in np.linspace(lo[0], hi[0], nu):
        for v in np.linspace(lo[1], hi[1], nv):
            g = float(model.evaluate((u, v)))
            stream.write(f"{u:.17g},{v:.17g},{g:.17g}\n")


def reconstruct_separatrix(
    params: ModelParameters,
    bounds: Sequence[tuple[float, float]],
    resolution: int | tuple[int, int, int],
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
    model).
    """
    out = Path(outdir)
    grid = classify_grid(
        params, bounds, resolution, attractors, config=config, match_radius=match_radius
    )
    with open(out / "labels.csv", "w") as fh:
        write_grid_csv(grid, fh)
    segments = boundary_edge_segments(grid)
    sample = separatrix_points(
        params, segments, attractors, bisect_tol=bisect_tol, config=config, match_radius=match_radius
    )
    with open(out / "boundary_points.csv", "w") as fh:
        write_points_csv(sample, fh)
    model = fit_surface(sample.points, graph_axis=graph_axis)
    with open(out / "surface.obj", "w") as fh:
        write_surface_obj(model, fh)
    with open(out / "surface_lattice.csv", "w") as fh:
        write_surface_lattice_csv(model, fh)
    return grid, segments, sample, model
