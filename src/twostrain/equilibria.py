"""Closed-form equilibria of the model and their feasibility bookkeeping.

The full system has eight isolated equilibria: total extinction, each
competitor alone, disease-free coexistence, one endemic strain without the
first competitor (one per strain), and one endemic strain coexisting with
the first competitor (one per strain). The invariant two-species faces
contribute their own fixed points, which embed into the full space with
zeros in the removed coordinates.

Every equilibrium is reported whether feasible or not: bifurcation sweeps
need the sign changes of the feasibility margins, so infeasible points are
flagged rather than hidden. A point is feasible when all coordinates are
nonnegative (within 1e-12); it is marginal when one of its feasibility
margins sits within 1e-12 of zero, which is exactly the transcritical
boundary where it exchanges position with a neighbouring equilibrium.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .model import ModelParameters, PARAMETER_KEYS, _field, _field_jacobian, rhs

__all__ = [
    "DegenerateEquilibriumError",
    "ThresholdSet",
    "EquilibriumRecord",
    "EQUILIBRIUM_IDS",
    "FACE_EQUILIBRIUM_IDS",
    "ALL_IDS",
    "thresholds",
    "compute_equilibrium",
    "catalog",
    "equilibrium_residual",
    "records_to_jsonl",
    "batched_newton",
    "random_interior_starts",
]

# Full-space equilibria, in conventional order.
EQUILIBRIUM_IDS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7")

# Fixed points of the invariant faces, embedded with zeros elsewhere.
# Q* live in the disease-free competition face (V = W = 0); SV_endemic is
# the endemic point of the strain-one face (P = W = 0), the face view of E4.
FACE_EQUILIBRIUM_IDS = ("Q0", "Q1", "Q2", "Q3", "SV_endemic")

ALL_IDS = EQUILIBRIUM_IDS + FACE_EQUILIBRIUM_IDS

FEASIBILITY_TOL = 1e-12
MARGINAL_BAND = 1e-12

# Threshold below which a denominator counts as structurally zero.
_DEGENERATE_TOL = 1e-14


class DegenerateEquilibriumError(ValueError):
    """A closed-form denominator vanished; the equilibrium is undefined."""

    def __init__(self, eq_id: str, expression: str):
        self.eq_id = eq_id
        self.expression = expression
        super().__init__(f"{eq_id} undefined: {expression} vanishes")


@dataclass(frozen=True)
class ThresholdSet:
    """Derived quantities controlling feasibility and stability.

    ``A``/``B`` are the susceptible-pool sizes at which strain one/two can
    just sustain itself. ``C``/``Dtilde`` control whether the endemic
    single-strain points attract or spiral. ``Delta3``/``Delta4``/``Delta5``
    are eigenvalue discriminants (node versus focus) of the disease-free
    coexistence and the two endemic points. ``E``/``F`` are the numerator
    and denominator structure of the infected coordinate of the mixed
    equilibrium with strain one, with ``M``/``G`` the resulting window of
    competition pressure ``a`` in which that equilibrium is feasible, and
    ``N`` an upper comparison point that always exceeds ``G``. Hatted
    fields are the strain-two analogues.

    A field is ``None`` when its denominator vanishes; the ``undefined``
    tuple lists those field names.
    """

    A: float | None
    B: float | None
    C: float
    Dtilde: float
    Delta3: float
    Delta4: float
    Delta5: float
    E: float
    F: float
    M: float | None
    N: float | None
    G: float | None
    Ehat: float
    Fhat: float
    Mhat: float | None
    Nhat: float | None
    Ghat: float | None
    undefined: tuple[str, ...] = field(default=())


def thresholds(params: ModelParameters) -> ThresholdSet:
    """Evaluate every named threshold for one parameter set."""
    p = params
    undefined: list[str] = []

    def guard(name: str, num: float, den: float) -> float | None:
        if den == 0.0:
            undefined.append(name)
            return None
        return num / den

    A = guard("A", p.psi + p.mu, p.lam)
    B = guard("B", p.phi + p.nu, p.beta)
    C = p.mu**2 + p.K * p.lam * p.psi - p.psi**2
    Dtilde = p.nu**2 + p.K * p.beta * p.phi - p.phi**2

    # Discriminant of the in-plane eigenvalue pair at disease-free
    # coexistence, written so it is defined even when that point is not.
    rs = p.r * p.s
    D3den = p.b * p.L * p.K * p.a - rs
    Delta3 = (rs * (p.r + p.s - p.b * p.L - p.a * p.K)) ** 2 + 4.0 * rs * (
        p.a * p.K - p.s
    ) * (p.b * p.L - p.r) * D3den

    Delta4 = (p.r * C) ** 2 - 4.0 * p.r * p.K * p.lam * p.mu**2 * (p.mu + p.psi) * (
        p.K * p.lam - p.mu - p.psi
    )
    Delta5 = (p.r * Dtilde) ** 2 - 4.0 * p.r * p.K * p.beta * p.nu**2 * (
        p.nu + p.phi
    ) * (p.K * p.beta - p.nu - p.phi)

    E = (
        p.r * p.L * p.K * p.e * p.a
        - p.e * p.L * p.r * p.s
        - p.L * p.K * p.b * p.lam * p.s
        + p.b * p.L * p.K * p.a * p.psi
        + p.b * p.L * p.K * p.a * p.mu
        - rs * p.psi
        + p.r * p.K * p.lam * p.s
        - rs * p.mu
    )
    F = p.s * p.lam * p.e * p.L + p.s * p.lam * p.mu - p.psi * p.e * p.L * p.a
    M = guard(
        "M",
        p.s * (p.e * p.L * p.r + p.b * p.L * p.K * p.lam + p.r * p.psi - p.r * p.K * p.lam + p.r * p.mu),
        p.L * p.K * (p.e * p.r + p.b * p.psi + p.b * p.mu),
    )
    N = guard("N", p.s * p.lam * (p.e * p.L + p.mu), p.e * p.L * p.psi)
    G = guard("G", p.lam * p.s, p.mu + p.psi)

    Ehat = (
        p.r * p.L * p.K * p.f * p.a
        - p.f * p.L * p.r * p.s
        - p.L * p.K * p.b * p.beta * p.s
        + p.b * p.L * p.K * p.a * p.phi
        + p.b * p.L * p.K * p.a * p.nu
        - rs * p.phi
        + p.r * p.K * p.beta * p.s
        - rs * p.nu
    )
    Fhat = p.s * p.beta * p.f * p.L + p.s * p.beta * p.nu - p.phi * p.f * p.L * p.a
    Mhat = guard(
        "Mhat",
        p.s * (p.f * p.L * p.r + p.b * p.L * p.K * p.beta + p.r * p.phi - p.r * p.K * p.beta + p.r * p.nu),
        p.L * p.K * (p.f * p.r + p.b * p.phi + p.b * p.nu),
    )
    Nhat = guard("Nhat", p.s * p.beta * (p.f * p.L + p.nu), p.f * p.L * p.phi)
    Ghat = guard("Ghat", p.beta * p.s, p.nu + p.phi)

    return ThresholdSet(
        A=A, B=B, C=C, Dtilde=Dtilde,
        Delta3=Delta3, Delta4=Delta4, Delta5=Delta5,
        E=E, F=F, M=M, N=N, G=G,
        Ehat=Ehat, Fhat=Fhat, Mhat=Mhat, Nhat=Nhat, Ghat=Ghat,
        undefined=tuple(undefined),
    )


@dataclass(frozen=True)
class EquilibriumRecord:
    """One equilibrium with feasibility verdict and audit margins.

    ``coordinates`` is the embedding into the full (P, S, V, W) space, or
    ``None`` when a closed-form denominator vanished. ``margins`` maps each
    named feasibility condition to its slack (positive means satisfied);
    ``marginal`` flags a slack within 1e-12 of zero, the signature of a
    transcritical exchange. ``subsystem`` names the invariant face a
    face-equilibrium belongs to ("full" for the eight full-space points).
    """

    id: str
    coordinates: np.ndarray | None
    feasible: bool
    marginal: bool
    margins: dict[str, float]
    subsystem: str = "full"
    notes: str = ""

    def coordinate_tuple(self) -> tuple[float, float, float, float]:
        if self.coordinates is None:
            raise DegenerateEquilibriumError(self.id, self.notes or "undefined")
        P, S, V, W = (float(v) for v in self.coordinates)
        return P, S, V, W


def _finish(
    eq_id: str,
    coords: Sequence[float],
    margins: dict[str, float],
    subsystem: str = "full",
    notes: str = "",
) -> EquilibriumRecord:
    arr = np.asarray(coords, dtype=float) + 0.0  # folds -0.0 into 0.0
    feasible = bool(np.all(arr >= -FEASIBILITY_TOL))
    marginal = any(abs(m) <= MARGINAL_BAND for m in margins.values())
    return EquilibriumRecord(
        id=eq_id,
        coordinates=arr,
        feasible=feasible,
        marginal=marginal,
        margins=margins,
        subsystem=subsystem,
        notes=notes,
    )


def compute_equilibrium(params: ModelParameters, eq_id: str) -> EquilibriumRecord:
    """Evaluate one equilibrium in closed form.

    Raises DegenerateEquilibriumError when a defining denominator vanishes
    (for example the disease-free coexistence point when b*L*K*a = r*s).
    """
    return _equilibrium(params, eq_id, thresholds(params))


def _equilibrium(params: ModelParameters, eq_id: str, t: ThresholdSet) -> EquilibriumRecord:
    """``compute_equilibrium`` with the thresholds of ``params`` given."""
    p = params

    if eq_id == "E0":
        return _finish("E0", (0.0, 0.0, 0.0, 0.0), {}, notes="total extinction")

    if eq_id == "E1":
        return _finish("E1", (p.L, 0.0, 0.0, 0.0), {}, notes="first competitor alone")

    if eq_id == "E2":
        return _finish("E2", (0.0, p.K, 0.0, 0.0), {}, notes="second competitor alone, disease free")

    if eq_id in ("E3", "Q3"):
        den = p.b * p.L * p.K * p.a - p.r * p.s
        scale = p.b * p.L * p.K * p.a + p.r * p.s
        if abs(den) <= _DEGENERATE_TOL * max(scale, 1.0):
            raise DegenerateEquilibriumError(eq_id, "b*L*K*a - r*s")
        P3 = p.L * p.r * (p.a * p.K - p.s) / den
        S3 = p.K * p.s * (p.b * p.L - p.r) / den
        margins = {
            "first_invades_second": p.a * p.K - p.s,
            "second_invades_first": p.b * p.L - p.r,
        }
        subsystem = "competition_PS" if eq_id == "Q3" else "full"
        return _finish(eq_id, (P3, S3, 0.0, 0.0), margins, subsystem=subsystem,
                       notes="disease-free coexistence")

    if eq_id in ("E4", "SV_endemic"):
        if p.lam == 0.0:
            raise DegenerateEquilibriumError(eq_id, "lambda")
        if p.mu == 0.0:
            raise DegenerateEquilibriumError(eq_id, "mu")
        S4 = t.A
        V4 = p.r * (p.mu + p.psi) * (p.K * p.lam - p.mu - p.psi) / (p.K * p.lam**2 * p.mu)
        margins = {"strain_one_invades": p.K - t.A}
        subsystem = "one_strain_SV" if eq_id == "SV_endemic" else "full"
        return _finish(eq_id, (0.0, S4, V4, 0.0), margins, subsystem=subsystem,
                       notes="strain one endemic, first competitor absent")

    if eq_id == "E5":
        if p.beta == 0.0:
            raise DegenerateEquilibriumError(eq_id, "beta")
        if p.nu == 0.0:
            raise DegenerateEquilibriumError(eq_id, "nu")
        S5 = t.B
        W5 = p.r * (p.nu + p.phi) * (p.K * p.beta - p.nu - p.phi) / (p.K * p.beta**2 * p.nu)
        margins = {"strain_two_invades": p.K - t.B}
        return _finish("E5", (0.0, S5, 0.0, W5), margins,
                       notes="strain two endemic, first competitor absent")

    if eq_id == "E6":
        den = p.lam * p.s + p.e * p.L * p.a
        if den <= _DEGENERATE_TOL:
            raise DegenerateEquilibriumError(eq_id, "lambda*s + e*L*a")
        if abs(t.F) <= _DEGENERATE_TOL * max(abs(p.s * p.lam * (p.e * p.L + p.mu)) + abs(p.psi * p.e * p.L * p.a), 1.0):
            raise DegenerateEquilibriumError(eq_id, "F = s*lambda*e*L + s*lambda*mu - psi*e*L*a")
        P6 = p.L * (p.lam * p.s - p.a * (p.mu + p.psi)) / den
        S6 = p.s * (p.mu + p.psi + p.e * p.L) / den
        V6 = p.s * (p.mu + p.psi + p.e * p.L) * t.E / (p.K * den * t.F)
        margins = {}
        notes = "strain one endemic alongside the first competitor"
        if t.M is not None:
            margins["infected_branch_positive"] = p.a - t.M
        else:
            margins["infected_branch_positive"] = float(np.sign(t.E)) * abs(V6)
            notes += "; lower feasibility threshold undefined, using coordinate sign"
        if t.G is not None:
            margins["first_competitor_positive"] = t.G - p.a
        else:
            margins["first_competitor_positive"] = P6
        return _finish("E6", (P6, S6, V6, 0.0), margins, notes=notes)

    if eq_id == "E7":
        den = p.beta * p.s + p.f * p.L * p.a
        if den <= _DEGENERATE_TOL:
            raise DegenerateEquilibriumError(eq_id, "beta*s + f*L*a")
        if abs(t.Fhat) <= _DEGENERATE_TOL * max(abs(p.s * p.beta * (p.f * p.L + p.nu)) + abs(p.phi * p.f * p.L * p.a), 1.0):
            raise DegenerateEquilibriumError(eq_id, "Fhat = s*beta*f*L + s*beta*nu - phi*f*L*a")
        P7 = p.L * (p.beta * p.s - p.a * (p.nu + p.phi)) / den
        S7 = p.s * (p.nu + p.phi + p.f * p.L) / den
        W7 = p.s * (p.nu + p.phi + p.f * p.L) * t.Ehat / (p.K * den * t.Fhat)
        margins = {}
        notes = "strain two endemic alongside the first competitor"
        if t.Mhat is not None:
            margins["infected_branch_positive"] = p.a - t.Mhat
        else:
            margins["infected_branch_positive"] = float(np.sign(t.Ehat)) * abs(W7)
            notes += "; lower feasibility threshold undefined, using coordinate sign"
        if t.Ghat is not None:
            margins["first_competitor_positive"] = t.Ghat - p.a
        else:
            margins["first_competitor_positive"] = P7
        return _finish("E7", (P7, S7, 0.0, W7), margins, notes=notes)

    if eq_id == "Q0":
        return _finish("Q0", (0.0, 0.0, 0.0, 0.0), {}, subsystem="competition_PS",
                       notes="extinction, competition face")

    if eq_id == "Q1":
        return _finish("Q1", (p.L, 0.0, 0.0, 0.0), {}, subsystem="competition_PS",
                       notes="first competitor alone, competition face")

    if eq_id == "Q2":
        return _finish("Q2", (0.0, p.K, 0.0, 0.0), {}, subsystem="competition_PS",
                       notes="second competitor alone, competition face")

    raise ValueError(f"unknown equilibrium id {eq_id!r}; expected one of {ALL_IDS}")


def catalog(params: ModelParameters) -> list[EquilibriumRecord]:
    """All eight full-space equilibria, degenerate ones kept with a note."""
    return _catalog(params, thresholds(params))


def _catalog(params: ModelParameters, t: ThresholdSet) -> list[EquilibriumRecord]:
    """``catalog`` with the thresholds of ``params`` given."""
    records = []
    for eq_id in EQUILIBRIUM_IDS:
        try:
            records.append(_equilibrium(params, eq_id, t))
        except DegenerateEquilibriumError as err:
            records.append(
                EquilibriumRecord(
                    id=eq_id,
                    coordinates=None,
                    feasible=False,
                    marginal=False,
                    margins={},
                    subsystem="full",
                    notes=f"degenerate: {err.expression} vanishes",
                )
            )
    return records


def equilibrium_residual(params: ModelParameters, record: EquilibriumRecord) -> float:
    """Max-norm of the vector field at the recorded coordinates."""
    if record.coordinates is None:
        raise DegenerateEquilibriumError(record.id, "no coordinates")
    return float(np.max(np.abs(rhs(params, record.coordinates))))


def records_to_jsonl(records: Iterable[EquilibriumRecord]) -> str:
    """Serialize records as JSON lines (one object per record)."""
    lines = []
    for rec in records:
        coords = None if rec.coordinates is None else [float(v) for v in rec.coordinates]
        lines.append(
            json.dumps(
                {
                    "id": rec.id,
                    "coords": coords,
                    "feasible": rec.feasible,
                    "marginal": rec.marginal,
                    "margins": {k: float(v) for k, v in rec.margins.items()},
                    "subsystem": rec.subsystem,
                    "notes": rec.notes,
                }
            )
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Vectorized interior root search
# ----------------------------------------------------------------------
#
# Used to probe for coexistence equilibria with both strains present. The
# parameter matrix has one row per problem, columns in PARAMETER_KEYS
# order, so thousands of Newton solves across different parameter draws
# run as single batched array operations.


def batched_newton(
    param_matrix: np.ndarray,
    starts: np.ndarray,
    iterations: int = 40,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton-iterate many root problems at once.

    Args:
        param_matrix: (n, 14) parameter rows in PARAMETER_KEYS column order.
        starts: (n, 4) initial guesses.
        iterations: iteration budget. A row whose iterate one iteration
            leaves bitwise unchanged stops there: its update depends only
            on its own iterate and parameter row, so the rest of the
            budget would not change it either, and the result is the same
            as running every row for the whole budget.
        tol: convergence threshold on the scaled residual max-norm.

    Returns:
        (roots, converged): the final iterates and a boolean mask of rows
        whose residual satisfies ``|rhs| <= tol * (1 + |x|)``. Rows that
        blow up or hit a singular Jacobian are frozen and reported
        unconverged rather than raising.
    """
    param_matrix = np.asarray(param_matrix, dtype=float)
    x = np.array(starts, dtype=float, copy=True)
    if param_matrix.shape[0] != x.shape[0]:
        raise ValueError("param_matrix and starts must have matching row counts")
    n = len(x)
    cols = tuple(param_matrix.T)
    # x holds the rows still iterating, with their parameter columns in
    # xcols. Once rows are set aside, `full` holds every row and `rows`
    # lists the ones x holds.
    full, rows, xcols = None, None, cols
    eye = np.eye(4)
    for _ in range(iterations):
        if not len(x):
            break
        residual = np.column_stack(_field(*x.T, *xcols))
        J = _field_jacobian(*x.T, *xcols)
        finite = np.isfinite(x).all(axis=1) & np.isfinite(residual).all(axis=1)
        det = np.where(finite, np.abs(np.linalg.det(np.where(finite[:, None, None], J, eye))), 0.0)
        ok = finite & (det > 1e-300)
        J[~ok] = eye
        residual[~ok] = 0.0
        step = np.linalg.solve(J, residual[..., None])[..., 0]
        new = x - step
        # Bits, not values: NaN rows and signed zeros count as fixed only
        # when their bits repeat.
        moving = (new.view(np.uint64) != x.view(np.uint64)).any(axis=1)
        x = new
        # Set fixed rows aside once at most half of all rows still move:
        # the compacted copies then never hold more than half the rows,
        # so no iteration holds more memory than the first.
        still = np.count_nonzero(moving)
        if 2 * still <= n and still < len(x):
            if full is None:
                full, rows = x, np.flatnonzero(moving)
            else:
                full[rows] = x
                rows = rows[moving]
            x = x[moving]
            xcols = tuple(c[moving] for c in xcols)
    if full is not None:
        full[rows] = x
        x = full
    finite_x = np.where(np.isfinite(x), x, 0.0)
    final = np.column_stack(_field(*finite_x.T, *cols))
    scale = 1.0 + np.max(np.abs(finite_x), axis=1)
    converged = (
        np.isfinite(x).all(axis=1)
        & (np.max(np.abs(final), axis=1) <= tol * scale)
    )
    return x, converged


def random_interior_starts(
    param_matrix: np.ndarray, per_row: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Tile parameter rows and draw interior starting points for each.

    Start boxes scale with the carrying capacities: P in (0, 2L], the
    other components in (0, 2K]. Returns (tiled_params, starts).
    """
    param_matrix = np.asarray(param_matrix, dtype=float)
    n = param_matrix.shape[0]
    tiled = np.repeat(param_matrix, per_row, axis=0)
    L = tiled[:, PARAMETER_KEYS.index("L")]
    K = tiled[:, PARAMETER_KEYS.index("K")]
    u = rng.uniform(1e-3, 1.0, size=(n * per_row, 4))
    caps = np.column_stack((2.0 * L, 2.0 * K, 2.0 * K, 2.0 * K))
    return tiled, u * caps
