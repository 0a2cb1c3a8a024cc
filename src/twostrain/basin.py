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
``integrate.run_to_attractor_batch``: the grid in one batch, and bisection
as one stream of runs and a certificate batch (below). The side probes
of ``reconstruct_separatrix`` ride in the certificate batch unless they
are dropped, and run in a batch of their own then. Each segment is plain
bisection over a memo of the runs it launched: it halves while its
midpoint's result is known and launches the midpoint when it is not.
While two or more halvings remain, it launches both quarter points
with the midpoint, since one of them is its next midpoint, so each
stepper pass carries more lanes and a segment needs about half as many
passes in a row. The lanes of a batch reproduce one-at-a-time runs
bit for bit, so the stream launches exactly what plain bisection, one
segment and one midpoint at a time, needs.

A midpoint yields only a label, so the stream runs at a labelling
tolerance (``rel_tol`` no tighter than 1e-5), and through a saddle gate at
each equilibrium of the slice whose one unstable direction separates two
basins: a run that leaves the saddle along that direction ends there,
with the label of the attractor that side's branch reaches, instead of
escaping the saddle and then dwelling in an attractor ball. Both ends of
each final bracket are then certified in one batch at the caller's
tolerance, ungated; a segment that fails, or met an undecided midpoint,
is bisected again at the caller's tolerance. So at every tolerance each
boundary point is the midpoint of a bracket whose ends carry ungated
labels at the caller's tolerance. The grid and the probes run at the
caller's tolerance. The probes need the fitted surface, so to ride in the
certificate batch they are drawn on a fit of the points the certificate
would confirm; ``separatrix_points`` says when they are dropped.

A run that fails on step size stops no stage: its grid node is labelled
``step_failure``, a segment whose midpoint fails is skipped, a failing
certificate end is bisected again, and a failing probe is a miss.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .equilibria import _check_count, catalog
from .integrate import (
    _GATE_RADIUS,
    IntegrationConfig,
    ReachResult,
    STEP_FAILURE,
    SaddleGate,
    UNDECIDED,
    _separated_attractors,
    run_to_attractor_batch,
)
from .model import ModelParameters, jacobian

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
# Grid label code of a node whose run failed on step size; -1 is undecided.
_FAILED = -2
# Why bisection skips a segment, by how its midpoint's run ended.
_UNDECIDED_MIDPOINT = "undecided midpoint during bisection"
_FAILED_MIDPOINT = "step failure during bisection"


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
    _check_count("resolution", resolution, 2)
    return targets


def _check_bisect_tol(bisect_tol: float) -> None:
    if not 0.0 < bisect_tol < math.inf:
        raise ValueError(f"bisect_tol must be positive and finite, got {bisect_tol!r}")


@dataclass(frozen=True)
class BasinGrid:
    """Labelled grid nodes on a slice box.

    ``labels[i, j, k]`` indexes ``attractor_ids`` at node
    ``(axes_1d[0][i], axes_1d[1][j], axes_1d[2][k])``, or is -1 for an
    undecided node and -2 for one whose run failed on step size.
    ``undecided_fraction`` counts both.
    """

    bounds: tuple[tuple[float, float], ...]
    axes_1d: tuple[np.ndarray, np.ndarray, np.ndarray]
    labels: np.ndarray
    attractor_ids: tuple[str, ...]

    @property
    def undecided_fraction(self) -> float:
        return float(np.mean(self.labels < 0))

    @property
    def failed_nodes(self) -> int:
        return int(np.count_nonzero(self.labels == _FAILED))

    def label_name(self, index: int) -> str:
        if index >= 0:
            return self.attractor_ids[index]
        return STEP_FAILURE if index == _FAILED else UNDECIDED


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

    Every input is checked before any run. Nodes that fail to classify
    are not an error and raise no warning: points exactly on basin
    boundaries or on invariant faces that drain to an unlisted attractor
    are legitimate. Their share is ``BasinGrid.undecided_fraction``, and
    each command that classifies a grid states it in its own output. A
    node whose run fails on step size is labelled -2 and counted by
    ``BasinGrid.failed_nodes``; the other nodes keep their labels.
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
        elif result.termination == STEP_FAILURE:
            labels[node] = _FAILED

    return BasinGrid(
        bounds=tuple((float(lo), float(hi)) for lo, hi in bounds),
        axes_1d=axes_1d,
        labels=labels,
        attractor_ids=tuple(name for name, _ in targets),
    )


def write_grid_csv(grid: BasinGrid, stream: IO[str]) -> None:
    """One row per node: slice coordinates and the attractor label.

    The rows are formatted by one ``%`` over a flat list and written at once.
    """
    nodes = np.stack(np.meshgrid(*grid.axes_1d, indexing="ij"), axis=-1).reshape(-1, 3).tolist()
    names = [grid.label_name(index) for index in grid.labels.ravel().tolist()]
    flat = [v for node, name in zip(nodes, names) for v in (*node, name)]
    header = ",".join(_AXIS_NAMES) + ",label\n"
    stream.write(header + ("%.17g,%.17g,%.17g,%s\n" * len(names)) % tuple(flat))


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

    @property
    def failed_segments(self) -> int:
        return sum(reason == _FAILED_MIDPOINT for _, reason in self.skipped)


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


def _unstable_direction(J: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Unit right and left eigenvectors of the one eigenvalue of ``J`` with
    positive real part, the left one signed so that their product is
    positive; None unless there is exactly one such eigenvalue and it is
    real."""
    w, right = np.linalg.eig(J)
    unstable = np.flatnonzero(w.real > 0.0)
    if len(unstable) != 1 or w[unstable[0]].imag != 0.0:
        return None
    w_left, left = np.linalg.eig(J.T)
    v, l = right[:, unstable[0]].real, left[:, np.argmax(w_left.real)].real
    l = l if l @ v > 0.0 else -l
    return v / np.linalg.norm(v), l / np.linalg.norm(l)


def _saddle_gates(
    params: ModelParameters,
    targets: list[tuple[str, tuple[float, float, float, float]]],
    config: IntegrationConfig,
    match_radius: float,
) -> list[SaddleGate]:
    """A gate for each candidate saddle whose two unstable branches reach
    two different attractors at ``config``.

    A candidate is a feasible equilibrium x* in the slice whose slice
    Jacobian has one unstable direction v_u, real, and whose gate ball stays
    clear of every attractor ball. Both branches of every candidate run in
    one batch, from x* plus and minus ``_GATE_RADIUS`` times v_u, each slice
    coordinate raised to at least a hundredth of that radius, off the
    invariant faces; the coordinates so raised are the gate's ``lifted``.
    """
    candidates = []
    for record in catalog(params):
        if not record.feasible or record.coordinates[3] != 0.0:
            continue
        x = np.asarray(record.coordinates, dtype=float)
        if any(math.dist(x, c) <= _GATE_RADIUS + match_radius for _, c in targets):
            continue
        found = _unstable_direction(jacobian(params, x)[:3, :3])
        if found is not None:
            v, l = found
            candidates.append((x, l, [x[:3] + sign * _GATE_RADIUS * v for sign in (1.0, -1.0)]))
    if not candidates:
        return []
    floor = _GATE_RADIUS / 100
    starts = [(*np.maximum(u, floor), 0.0) for _, _, branches in candidates for u in branches]
    ends = run_to_attractor_batch(params, starts, targets, config=config, match_radius=match_radius)
    gates = []
    for (x, l, branches), plus, minus in zip(candidates, ends[::2], ends[1::2]):
        sides = (plus.attractor_id, minus.attractor_id)
        if None not in sides and sides[0] != sides[1]:
            left = (*(float(v) for v in l), 0.0)
            lifted = tuple(int(k) for k in np.flatnonzero(np.minimum(*branches) < floor))
            gates.append(SaddleGate(tuple(float(v) for v in x), left, sides, lifted))
    return gates


def _bisect(
    params: ModelParameters,
    targets: list[tuple[str, tuple[float, float, float, float]]],
    ends: list[tuple[np.ndarray, np.ndarray]],
    sides: list[tuple[str, str]],
    rows: Iterable[int],
    bisect_tol: float,
    config: IntegrationConfig,
    match_radius: float,
    gates: Sequence[SaddleGate] = (),
) -> dict[int, list[np.ndarray] | str]:
    """Plain bisection of the segments ``rows``, as one stream of runs at
    ``config`` through ``gates``.

    Returns each row's final bracket ``[lo, hi]``, whose ends are the
    segment's own arrays until they move, or the reason the row is
    skipped if a midpoint was undecided or failed on step size.
    """
    bracket: dict[int, list[np.ndarray] | str] = {row: list(ends[row]) for row in rows}
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
                if length[row] * 0.5 > bisect_tol:
                    points += [0.5 * (lo_hi[0] + mid), 0.5 * (mid + lo_hi[1])]
                for u in points:
                    memo[row][u.tobytes()] = None
                    tag_of.append((row, u.tobytes()))
                return [(*u, 0.0) for u in points]
            res = memo[row][key]
            if res is None:  # still running
                return []
            if res.attractor_id is None:
                bracket[row] = _FAILED_MIDPOINT if res.termination == STEP_FAILURE else _UNDECIDED_MIDPOINT
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
        params, first, targets, config=config, match_radius=match_radius, on_result=on_result, gates=gates
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
    integrated. Every segment end must be finite and in the nonnegative
    orthant, and ``bisect_tol`` must be positive and finite; all of that
    is checked before anything is integrated. A segment whose midpoint fails to
    classify is skipped with a note, in segment order, that says whether
    the midpoint was undecided or failed on step size. The bisection stops
    once the bracket is shorter than ``bisect_tol`` in slice coordinates;
    the returned point is the bracket midpoint.

    The segments are bisected as one stream of runs, and each is plain
    bisection reading a memo of the results of the points it launched,
    keyed by the point's bytes. As each run ends, its segment halves its
    bracket while the midpoint has a result, and then waits for the
    midpoint's run or launches it, so no segment waits for another. If
    two or more halvings remain, the launch also runs both quarter
    points, a segment bisected alone included: halving is exact, so the
    quarter the midpoint's label selects is bitwise the next midpoint,
    and the other is a memo entry never read, even if it is undecided.

    A midpoint only yields a label, so the stream runs at a labelling
    config, ``rel_tol`` at least 1e-5 and ``abs_tol`` at least a hundredth
    of that, never tighter than ``config``, and through saddle gates
    (below). Then both ends of every final bracket run in one batch at
    ``config``, ungated, except an end that is still one of the segment's
    own. A segment whose labelling midpoint was undecided or failed, or
    whose bracket end reaches the other side or no side at ``config``, is
    listed in ``rebisected`` and bisected again from its own ends at
    ``config``, ungated, where such a midpoint skips it. Every returned point is
    thus the midpoint of a bracket whose ends carry ungated ``config``
    labels of two different attractors, as plain bisection at ``config``
    promises. Only a stream that ran ungated at ``config`` itself, with
    no gate found and ``config`` as loose as the labelling config, is
    plain bisection already and is not certified.

    ``reconstruct_separatrix`` runs its side probes in that certificate
    batch, behind the bracket ends, drawn on a fit of the points the
    certificate would confirm. It drops them, and probes the final fit in
    a batch of their own, when a labelling midpoint was undecided or
    failed, when the stream was plain bisection already, when that fit or
    the draw raises, when the batch with them rejects a start (the
    certificate then runs again alone), or when a segment is bisected
    again. A probe that fails on step size is a miss.

    A saddle gate is an ``integrate.SaddleGate``. A candidate is a feasible
    ``equilibria.catalog`` point x* with W = 0 whose slice Jacobian has
    exactly one eigenvalue with positive real part, a real one, with unit
    right eigenvector v_u, and whose gate ball of radius 0.1 stays farther
    than 0.1 + ``match_radius`` from every attractor. Both unstable
    branches of every candidate run in one batch at the labelling config,
    from x* ± 0.1 v_u with each slice coordinate raised to at least 0.001,
    off the invariant faces. A candidate whose two branches reach two
    different attractors gets a gate: a labelling run that comes within 0.1
    of x*, but not within 1e-4, with at least half of its distance along
    the unstable coordinate, ends with the label of that side's branch,
    unless it lies on a face its branches were raised off, which it never
    leaves. Since the certificate runs ungated, a gate that labels a run
    wrongly costs a rebisection, not a wrong point. On fig4 only E3 gets a
    gate (both branches of E2 reach E4), and it never decides a run on
    V = 0, where runs reach E2 instead.
    """
    cfg = config or IntegrationConfig()
    targets = _separated_attractors(attractors, match_radius)
    _check_bisect_tol(bisect_tol)
    return _certified_sample(params, segments, targets, bisect_tol, cfg, match_radius)[0]


def _certified_sample(
    params: ModelParameters,
    segments: Sequence[tuple[np.ndarray, np.ndarray, str, str]],
    targets: list[tuple[str, tuple[float, float, float, float]]],
    bisect_tol: float,
    config: IntegrationConfig,
    match_radius: float,
    riders: Callable[[SeparatrixSample], Sequence[Sequence[float]]] | None = None,
) -> tuple[SeparatrixSample, list[ReachResult] | None]:
    """``separatrix_points``' sample, from checked ``targets``,
    ``bisect_tol`` and ``config``, and the results of the starts that
    ``riders`` returns for the sample the certificate would confirm, run
    behind the certificate's ends; None when the riders are dropped, as
    ``separatrix_points`` says."""
    names = {name for name, _ in targets}
    ends = []
    sides = []
    for start, end, lab_lo, lab_hi in segments:
        u_lo, u_hi = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
        for u in (u_lo, u_hi):
            if not np.all((u >= 0.0) & (u < math.inf)):
                raise ValueError(f"segment point {u} is not finite or maps outside the nonnegative orthant")
        if lab_lo == lab_hi or lab_lo not in names or lab_hi not in names:
            raise ValueError(
                f"segment labels ({lab_lo!r}, {lab_hi!r}) must be two different ids of {sorted(names)}"
            )
        ends.append((u_lo, u_hi))
        sides.append((lab_lo, lab_hi))

    label_cfg = _labelling_config(config)
    gates = _saddle_gates(params, targets, label_cfg, match_radius)
    brackets = _bisect(params, targets, ends, sides, range(len(ends)), bisect_tol, label_cfg, match_radius, gates)

    def sample(rebisected: list[int]) -> SeparatrixSample:
        rows = [row for row in range(len(ends)) if not isinstance(brackets[row], str)]
        pts = np.array([0.5 * (brackets[row][0] + brackets[row][1]) for row in rows])
        return SeparatrixSample(
            points=pts.reshape(len(rows), 3),
            side_labels=[sides[row] for row in rows],
            segments=np.array([ends[row] for row in rows]).reshape(len(rows), 2, 3),
            skipped=[(row, brackets[row]) for row in range(len(ends)) if isinstance(brackets[row], str)],
            rebisected=rebisected,
        )

    if not gates and label_cfg == config:  # plain bisection at config already
        return sample([]), None
    # (segment, side, point) of each final bracket end that is not one of
    # the segment's own, which carry their grid labels already.
    moved = [
        (row, side, u)
        for row, bracket in brackets.items()
        if not isinstance(bracket, str)
        for side, (u, own) in enumerate(zip(bracket, ends[row]))
        if u is not own
    ]

    def certificate(riding: list[Sequence[float]]) -> list[ReachResult]:
        starts = [(*u, 0.0) for _, _, u in moved] + riding
        return run_to_attractor_batch(params, starts, targets, config=config, match_radius=match_radius)

    riding = None
    if riders is not None and not any(isinstance(bracket, str) for bracket in brackets.values()):
        try:
            riding = list(riders(sample([])))
        except (ArithmeticError, ValueError, RuntimeError):
            pass  # the fit's or the draw's error, which the caller meets again
    if riding is not None:
        try:
            certified = certificate(riding)
        except ValueError:
            riding = None  # a rejected start, met again alone
    if riding is None:
        certified = certificate([])
    wrong = {row for row, bracket in brackets.items() if isinstance(bracket, str)}
    for (row, side, _), res in zip(moved, certified):
        if res.attractor_id is None or (res.attractor_id != sides[row][0]) != (side == 1):
            wrong.add(row)
    rebisected = sorted(wrong)
    if rebisected:
        brackets.update(_bisect(params, targets, ends, sides, rebisected, bisect_tol, config, match_radius))
        riding = None
    return sample(rebisected), None if riding is None else certified[len(moved) :]


def write_points_csv(sample: SeparatrixSample, stream: IO[str]) -> None:
    """One row per boundary point and its two side labels, formatted by one ``%`` and written at once."""
    flat = [v for pt, sides in zip(sample.points.tolist(), sample.side_labels) for v in (*pt, *sides)]
    header = ",".join(_AXIS_NAMES) + ",side_lo,side_hi\n"
    stream.write(header + ("%.17g,%.17g,%.17g,%s,%s\n" * len(sample.side_labels)) % tuple(flat))


# ----------------------------------------------------------------------
# Surface fitting
# ----------------------------------------------------------------------


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from every row of ``a`` to every row of ``b``, both (n, 2),
    worked in place on (len(a), len(b)) arrays."""
    d0 = a[:, 0, None] - b[:, 0]
    d1 = a[:, 1, None] - b[:, 1]
    d0 *= d0
    d1 *= d1
    d0 += d1
    return np.sqrt(d0, out=d0)


def _thin_plate(r: np.ndarray) -> np.ndarray:
    """r * r * log(r) where r > 0, and 0 elsewhere."""
    out = r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        out *= np.log(r)
    out[~(r > 0.0)] = 0.0
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
        z = (np.atleast_2d(uv) - self.center) / self.scale
        phi = _thin_plate(_distances(z, self.sites))
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
    # 1.0 and True compare equal to an axis index, so the type is checked first.
    if isinstance(graph_axis, bool) or not isinstance(graph_axis, (int, np.integer)):
        raise ValueError(f"graph_axis must be an int or an axis name, got {graph_axis!r}")
    if graph_axis not in (0, 1, 2):
        raise ValueError("graph_axis must be 0, 1 or 2")
    return int(graph_axis)


def fit_surface(points: np.ndarray, graph_axis: int | str = 2) -> SeparatrixModel:
    """Interpolate boundary points as a graph over the remaining plane.

    The interpolant is a thin-plate spline expansion augmented with an
    affine polynomial, solved as one symmetric linear system with the
    standard orthogonality side conditions on the radial weights. It
    reproduces the samples exactly (residual enforced below 1e-8) and
    degrades to the pure affine part far from data.

    Raises ValueError for points that are not finite or not of shape
    (n, 3), before any work; DegenerateGeometryError for fewer than 10,
    duplicated, or collinear sites; and FitResidualError if the solved
    system fails to reproduce the samples.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    axis = _resolve_axis(graph_axis)
    plane = tuple(k for k in range(3) if k != axis)

    n = pts.shape[0]
    if n < _MIN_FIT_POINTS:
        raise DegenerateGeometryError(f"need at least {_MIN_FIT_POINTS} points, got {n}")

    proj = pts[:, plane]
    vals = pts[:, axis]

    # Duplicate sites make the kernel matrix singular.
    offdiag = _distances(proj, proj) + np.diag(np.full(n, np.inf))
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

    phi = _thin_plate(_distances(z, z))
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
    if not residual <= 1e-8:  # a NaN residual fails too
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

    Returns (matches, total) with total = 2 * n_probes. A ``n_probes`` that
    is not an int of at least 1 raises ValueError before any run.
    """
    _check_count("n_probes", n_probes, 1)
    rng = rng or np.random.default_rng(0)
    targets = _separated_attractors(attractors, match_radius)
    starts = _probe_starts(model, n_probes, rng)
    results = run_to_attractor_batch(params, starts, targets, config=config, match_radius=match_radius)
    return _probe_matches(results, expected_above, expected_below)


def _probe_starts(model: SeparatrixModel, n_probes: int, rng: np.random.Generator) -> list[tuple[float, ...]]:
    """The starts of ``probe_surface_sides``: ``n_probes`` pairs, each the
    point above the surface and then the one below."""
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
    return starts


def _probe_matches(results: Sequence[ReachResult], above: str, below: str) -> tuple[int, int]:
    """(matches, total) of the results of ``_probe_starts``' pairs."""
    expected = (above, below) * (len(results) // 2)
    return sum(res.attractor_id == side for res, side in zip(results, expected)), len(results)


def _graph_sides(sample: SeparatrixSample, graph_axis: int) -> tuple[str, str]:
    """The attractor ids (above, below) the fitted graph separates.

    A majority vote over the segments that cross the graph axis: the end
    with the larger graph-axis coordinate is above. Segments run either
    way (face and body diagonals also run downward), so the end label is
    not always the upper one.
    """
    above_votes: Counter = Counter()
    below_votes: Counter = Counter()
    for seg, (lo, hi) in zip(sample.segments, sample.side_labels):
        rise = seg[1, graph_axis] - seg[0, graph_axis]
        if abs(rise) > 1e-12:
            up, down = (hi, lo) if rise > 0.0 else (lo, hi)
            above_votes[up] += 1
            below_votes[down] += 1
    if not above_votes:
        above_votes = Counter(hi for _, hi in sample.side_labels)
        below_votes = Counter(lo for lo, _ in sample.side_labels)
    return above_votes.most_common(1)[0][0], below_votes.most_common(1)[0][0]


def _surface_lattice(model: SeparatrixModel) -> np.ndarray:
    """(u, v, graph value) rows of the regular 40x40 lattice over the sampled plane region, v fastest.

    Both surface files are written from these rows, evaluated in one batch.
    """
    proj = model.points[:, model.plane_axes]
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    uu, vv = np.meshgrid(np.linspace(lo[0], hi[0], _LATTICE), np.linspace(lo[1], hi[1], _LATTICE), indexing="ij")
    sites = np.column_stack((uu.ravel(), vv.ravel()))
    return np.column_stack((sites, model.evaluate(sites)))


def write_surface_obj(model: SeparatrixModel, stream: IO[str]) -> None:
    """Triangulated Wavefront OBJ mesh of the fitted surface.

    Vertices are the rows of ``_surface_lattice`` in slice coordinates (the
    three axis values in order), and each lattice cell is two triangles.
    """
    lattice = _surface_lattice(model)
    vertices = np.empty_like(lattice)
    vertices[:, [*model.plane_axes, model.graph_axis]] = lattice
    n = _LATTICE
    v00 = (np.arange(n - 1)[:, None] * n + np.arange(1, n)).ravel()
    corners = np.column_stack((v00, v00 + n, v00 + n + 1, v00, v00 + n + 1, v00 + 1))
    text = "v %.10g %.10g %.10g\n" * len(vertices) + "f %d %d %d\nf %d %d %d\n" * len(corners)
    stream.write(text % tuple(vertices.ravel().tolist() + corners.ravel().tolist()))


def write_surface_lattice_csv(model: SeparatrixModel, stream: IO[str]) -> None:
    """The rows of ``_surface_lattice`` as CSV, named by their slice axes."""
    lattice = _surface_lattice(model)
    u_name, v_name = (_AXIS_NAMES[k] for k in model.plane_axes)
    header = f"{u_name},{v_name},{_AXIS_NAMES[model.graph_axis]}\n"
    stream.write(header + ("%.17g,%.17g,%.17g\n" * len(lattice)) % tuple(lattice.ravel().tolist()))


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
    n_probes: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[
    BasinGrid,
    list[tuple[np.ndarray, np.ndarray, str, str]],
    SeparatrixSample,
    SeparatrixModel,
    tuple[int, int] | None,
]:
    """Classify a grid, bisect its boundary cells and fit the boundary surface.

    Writes ``labels.csv``, ``boundary_points.csv``, ``surface.obj`` and
    ``surface_lattice.csv`` into the existing directory ``outdir``, each
    as soon as its stage is done, and returns (grid, segments, sample,
    model, probes). An unknown ``graph_axis``, or any other input that
    ``classify_grid``, ``separatrix_points`` or ``probe_surface_sides``
    would reject, raises ValueError before any work.

    With ``n_probes`` None, nothing is probed and ``probes`` is None.
    Otherwise ``probes`` is what ``probe_surface_sides`` returns for the
    model, ``n_probes``, ``rng`` and ``config``, with the sides the sample's
    segments vote for: the end with the larger graph-axis coordinate is
    above. The probes ride in the certificate batch of ``separatrix_points``
    when they can, drawn from ``rng``, and otherwise run on their own after
    the surface files are written, from ``rng`` as it was given. Either
    way the files, the results and any exception are the same, and ``rng``
    is left as ``probe_surface_sides`` leaves it.
    """
    axis = _resolve_axis(graph_axis)
    targets = _check_grid(bounds, resolution, attractors, match_radius)
    _check_bisect_tol(bisect_tol)
    if n_probes is not None:
        _check_count("n_probes", n_probes, 1)
        rng = rng or np.random.default_rng(0)
    cfg = config or IntegrationConfig()
    out = Path(outdir)
    grid = classify_grid(params, bounds, resolution, targets, config=cfg, match_radius=match_radius)
    with open(out / "labels.csv", "w") as fh:
        write_grid_csv(grid, fh)
    segments = boundary_edge_segments(grid)
    given = None if n_probes is None else rng.bit_generator.state
    model = None

    def riders(sample: SeparatrixSample) -> list[tuple[float, ...]]:
        """The probes on a fit of ``sample``, drawn from ``rng``."""
        nonlocal model
        model = fit_surface(sample.points, graph_axis=axis)
        return _probe_starts(model, n_probes, rng)

    sample, ridden = _certified_sample(
        params, segments, targets, bisect_tol, cfg, match_radius, None if n_probes is None else riders
    )
    with open(out / "boundary_points.csv", "w") as fh:
        write_points_csv(sample, fh)
    if ridden is None:
        if given is not None:
            rng.bit_generator.state = given  # undo any draws of the dropped riders
        model = fit_surface(sample.points, graph_axis=axis)
    with open(out / "surface.obj", "w") as fh:
        write_surface_obj(model, fh)
    with open(out / "surface_lattice.csv", "w") as fh:
        write_surface_lattice_csv(model, fh)
    if n_probes is None:
        return grid, segments, sample, model, None
    above, below = _graph_sides(sample, axis)
    if ridden is None:
        probes = probe_surface_sides(
            params, model, targets, above, below, n_probes=n_probes, rng=rng, config=cfg, match_radius=match_radius
        )
    else:
        probes = _probe_matches(ridden, above, below)
    return grid, segments, sample, model, probes
