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

The two strains are one mechanism with different rates: swapping V with W
and (lambda, psi, mu, e) with (beta, phi, nu, f) maps the model onto
itself. So each strain closed form is written once, for strain one, and
``_STRAINS`` holds one row per strain (its rates, the names its messages
use, its ids, its infected slot and its ``ThresholdSet`` fields) that the
formula reads. ``stability`` reads the same rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
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
    fields are the strain-two analogues: ``_strain_thresholds`` writes each
    strain's fields once, and ``_STRAINS`` says which fields are whose.

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


@dataclass
class _Strain:
    """One row of the strain table: a strain's rates, names, ids and thresholds."""

    ordinal: str  # "one" or "two", as notes and keys spell it
    names: tuple[str, str, str, str]  # its (lambda, psi, mu, e) as messages spell them
    endemic_id: str  # endemic without the first competitor
    mixed_id: str  # endemic alongside the first competitor
    slot: int  # index of its infected class in (P, S, V, W)
    fields: tuple[str, ...]  # its ThresholdSet fields, in _strain_thresholds order
    # ``rates(p)`` reads its rates from ModelParameters, ``results(t)`` its fields from a ThresholdSet.
    rates: attrgetter = field(init=False)
    results: attrgetter = field(init=False)

    def __post_init__(self) -> None:
        self.rates = attrgetter(*("lam" if name == "lambda" else name for name in self.names))
        self.results = attrgetter(*self.fields)


# Strain two is strain one with V <-> W and (lambda, psi, mu, e) <->
# (beta, phi, nu, f) swapped; every strain closed form is written once,
# over a row of this table.
_STRAINS = (
    _Strain("one", ("lambda", "psi", "mu", "e"), "E4", "E6", 2, ("A", "C", "Delta4", "E", "F", "M", "N", "G")),
    _Strain("two", ("beta", "phi", "nu", "f"), "E5", "E7", 3,
            ("B", "Dtilde", "Delta5", "Ehat", "Fhat", "Mhat", "Nhat", "Ghat")),
)
# Each endemic id with its strain and the other strain; SV_endemic is E4
# seen inside the strain-one face.
_ENDEMIC = {strain.endemic_id: (strain, other) for strain, other in (_STRAINS, _STRAINS[::-1])}
_ENDEMIC["SV_endemic"] = _ENDEMIC["E4"]
_MIXED = {strain.mixed_id: strain for strain in _STRAINS}


def _strain_thresholds(p: ModelParameters, lam: float, psi: float, mu: float, e: float) -> tuple:
    """One strain's (A, C, Delta, E, F, M, N, G), None where a denominator vanishes."""
    rs = p.r * p.s
    A = (psi + mu) / lam if lam != 0.0 else None
    C = mu**2 + p.K * lam * psi - psi**2
    Delta = (p.r * C) ** 2 - 4.0 * p.r * p.K * lam * mu**2 * (mu + psi) * (p.K * lam - mu - psi)
    E = (
        p.r * p.L * p.K * e * p.a
        - e * p.L * p.r * p.s
        - p.L * p.K * p.b * lam * p.s
        + p.b * p.L * p.K * p.a * psi
        + p.b * p.L * p.K * p.a * mu
        - rs * psi
        + p.r * p.K * lam * p.s
        - rs * mu
    )
    F = p.s * lam * e * p.L + p.s * lam * mu - psi * e * p.L * p.a
    M_den = p.L * p.K * (e * p.r + p.b * psi + p.b * mu)
    M = (
        p.s * (e * p.L * p.r + p.b * p.L * p.K * lam + p.r * psi - p.r * p.K * lam + p.r * mu) / M_den
        if M_den != 0.0 else None
    )
    N_den = e * p.L * psi
    N = p.s * lam * (e * p.L + mu) / N_den if N_den != 0.0 else None
    G_den = mu + psi
    G = lam * p.s / G_den if G_den != 0.0 else None
    return A, C, Delta, E, F, M, N, G


def thresholds(params: ModelParameters) -> ThresholdSet:
    """Evaluate every named threshold for one parameter set."""
    p = params
    A, C, Delta4, E, F, M, N, G = _strain_thresholds(p, *_STRAINS[0].rates(p))
    B, Dtilde, Delta5, Ehat, Fhat, Mhat, Nhat, Ghat = _strain_thresholds(p, *_STRAINS[1].rates(p))

    # Discriminant of the in-plane eigenvalue pair at disease-free
    # coexistence, written so it is defined even when that point is not.
    rs = p.r * p.s
    D3den = p.b * p.L * p.K * p.a - rs
    Delta3 = (rs * (p.r + p.s - p.b * p.L - p.a * p.K)) ** 2 + 4.0 * rs * (
        p.a * p.K - p.s
    ) * (p.b * p.L - p.r) * D3den

    guarded = {"A": A, "B": B, "M": M, "N": N, "G": G, "Mhat": Mhat, "Nhat": Nhat, "Ghat": Ghat}
    return ThresholdSet(
        A=A, B=B, C=C, Dtilde=Dtilde,
        Delta3=Delta3, Delta4=Delta4, Delta5=Delta5,
        E=E, F=F, M=M, N=N, G=G,
        Ehat=Ehat, Fhat=Fhat, Mhat=Mhat, Nhat=Nhat, Ghat=Ghat,
        undefined=tuple(name for name, value in guarded.items() if value is None),
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

    if eq_id in _ENDEMIC:
        strain = _ENDEMIC[eq_id][0]
        lam, psi, mu, _ = strain.rates(p)
        if lam == 0.0:
            raise DegenerateEquilibriumError(eq_id, strain.names[0])
        if mu == 0.0:
            raise DegenerateEquilibriumError(eq_id, strain.names[2])
        A = strain.results(t)[0]
        coords = [0.0, A, 0.0, 0.0]
        coords[strain.slot] = p.r * (mu + psi) * (p.K * lam - mu - psi) / (p.K * lam**2 * mu)
        margins = {f"strain_{strain.ordinal}_invades": p.K - A}
        subsystem = "one_strain_SV" if eq_id == "SV_endemic" else "full"
        return _finish(eq_id, coords, margins, subsystem=subsystem,
                       notes=f"strain {strain.ordinal} endemic, first competitor absent")

    if eq_id in _MIXED:
        strain = _MIXED[eq_id]
        lam, psi, mu, e = strain.rates(p)
        _, _, _, E, F, M, _, G = strain.results(t)
        den = lam * p.s + e * p.L * p.a
        if den <= _DEGENERATE_TOL:
            raise DegenerateEquilibriumError(eq_id, "{0}*s + {3}*L*a".format(*strain.names))
        if abs(F) <= _DEGENERATE_TOL * max(abs(p.s * lam * (e * p.L + mu)) + abs(psi * e * p.L * p.a), 1.0):
            raise DegenerateEquilibriumError(
                eq_id, "{4} = s*{0}*{3}*L + s*{0}*{2} - {1}*{3}*L*a".format(*strain.names, strain.fields[4])
            )
        P = p.L * (lam * p.s - p.a * (mu + psi)) / den
        S = p.s * (mu + psi + e * p.L) / den
        infected = p.s * (mu + psi + e * p.L) * E / (p.K * den * F)
        coords = [P, S, 0.0, 0.0]
        coords[strain.slot] = infected
        margins = {}
        notes = f"strain {strain.ordinal} endemic alongside the first competitor"
        if M is not None:
            margins["infected_branch_positive"] = p.a - M
        else:
            margins["infected_branch_positive"] = float(np.sign(E)) * abs(infected)
            notes += "; lower feasibility threshold undefined, using coordinate sign"
        if G is not None:
            margins["first_competitor_positive"] = G - p.a
        else:
            margins["first_competitor_positive"] = P
        return _finish(eq_id, coords, margins, notes=notes)

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


# Column pairs of the 2x2 minors in the Laplace expansion of a 4x4
# determinant; pair k of rows 0-1 multiplies pair 5 - k of rows 2-3.
_MINOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _check_columns(name: str, array: np.ndarray, width: int) -> None:
    if array.ndim != 2 or array.shape[1] != width:
        raise ValueError(f"{name} must have shape (n, {width}), got {array.shape}")


def _check_count(name: str, value: int, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")


def _certified_nonsingular(J: np.ndarray) -> np.ndarray:
    """Mask of the matrices in a (n, 4, 4) stack whose ``np.linalg.det`` surely exceeds 1e-300.

    ``d`` is the determinant by Laplace expansion over the 2x2 minors of
    rows 0-1 and rows 2-3. ``H`` is a Hadamard bound, the product of the
    row 2-norms, each raised to at least 1e-4 times the largest of them,
    so ``|det J| <= H``. A matrix is certified when ``d`` is finite,
    ``|d| > 1e-6 * H`` and ``|d| > 1e-290``. A partial product of ``H``
    can underflow only when every row norm is below about 1e-150, and
    then ``|d|`` is far below 1e-290.

    Why that suffices (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, ch. 9 and section 14.6): the rounding
    error of ``d`` is at most about 2e-14 * H. LAPACK's LU with partial
    pivoting is the exact LU of ``J + E`` with ``|E| <= gamma_4 |L||U|``,
    and with multipliers at most 1 and growth at most 8 every row of
    ``E`` is below 3e-14 times the largest row norm, so below 3e-10 times
    its floored norm, and ``det(J + E)`` is within 1.2e-9 * H of ``det J``.
    Both errors are a thousandth of the 1e-6 * H margin, and the 1e-290
    floor leaves ten orders of magnitude above 1e-300. The floor on the
    row norms is what makes this hold for rows of very different size:
    partial pivoting is not invariant under row scaling, and with one row
    2**80 times the others LAPACK's det can be exactly 0 for a matrix
    whose true determinant is a tenth of the product of its row norms.

    Matrices with non-finite entries, an exactly zero or underflowing
    determinant, or a row far smaller than another are not certified.
    """
    a = [[J[:, i, j] for j in range(4)] for i in range(4)]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        top = [a[0][j] * a[1][k] - a[0][k] * a[1][j] for j, k in _MINOR_PAIRS]
        bottom = [a[2][j] * a[3][k] - a[2][k] * a[3][j] for j, k in _MINOR_PAIRS]
        d = (
            top[0] * bottom[5] - top[1] * bottom[4] + top[2] * bottom[3]
            + top[3] * bottom[2] - top[4] * bottom[1] + top[5] * bottom[0]
        )
        norms = np.sqrt(np.einsum("nij,nij->ni", J, J))
        norms = np.maximum(norms, 1e-4 * norms.max(axis=1, keepdims=True))
        bound = norms[:, 0] * norms[:, 1] * norms[:, 2] * norms[:, 3]
        size = np.abs(d)
        return (size > 1e-6 * bound) & (size > 1e-290) & (size < np.inf)


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
        iterations: iteration budget, a non-negative int. A row whose
            iterate one iteration leaves bitwise unchanged stops there:
            its update depends only on its own iterate and parameter row,
            so the rest of the budget would not change it either, and the
            result is the same as running every row for the whole budget.
        tol: convergence threshold on the scaled residual max-norm,
            positive and finite.

    Returns:
        (roots, converged): the final iterates and a boolean mask of rows
        whose residual satisfies ``|rhs| <= tol * (1 + |x|)``. Rows that
        blow up or hit a singular Jacobian are frozen and reported
        unconverged rather than raising.

    Raises:
        ValueError: on a wrong shape of ``param_matrix`` or ``starts``,
            mismatched row counts, a bad ``iterations`` or a ``tol`` that
            is not positive and finite, before any work.

    Each row-iteration takes one LU factorization of its Jacobian, in
    ``np.linalg.solve``. A row is frozen (identity Jacobian, zero step)
    when its iterate or residual is not finite, or when LAPACK's
    ``|det J|`` is at most 1e-300. ``_certified_nonsingular`` proves the
    determinant test passes for nearly every row without factorizing it;
    only the finite rows it does not certify (exact zeros, underflowing
    determinants, non-finite Jacobian entries) go through
    ``np.linalg.det``. A certified row passes that test too, so every row
    gets the same Jacobian and step as in a loop that takes ``np.linalg.det``
    of every row, and the roots and the mask are byte-identical to it.
    """
    param_matrix = np.asarray(param_matrix, dtype=float)
    x = np.array(starts, dtype=float, copy=True)
    _check_columns("param_matrix", param_matrix, len(PARAMETER_KEYS))
    _check_columns("starts", x, 4)
    if param_matrix.shape[0] != x.shape[0]:
        raise ValueError("param_matrix and starts must have matching row counts")
    _check_count("iterations", iterations, 0)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
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
        ok = finite & _certified_nonsingular(J)
        rest = np.flatnonzero(finite & ~ok)
        if len(rest):
            ok[rest] = np.abs(np.linalg.det(J[rest])) > 1e-300
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
    other components in (0, 2K]. Returns (tiled_params, starts). Raises
    ValueError when ``param_matrix`` is not (n, 14) or ``per_row`` is not
    an int of at least 1.
    """
    param_matrix = np.asarray(param_matrix, dtype=float)
    _check_columns("param_matrix", param_matrix, len(PARAMETER_KEYS))
    _check_count("per_row", per_row, 1)
    n = param_matrix.shape[0]
    tiled = np.repeat(param_matrix, per_row, axis=0)
    L = tiled[:, PARAMETER_KEYS.index("L")]
    K = tiled[:, PARAMETER_KEYS.index("K")]
    u = rng.uniform(1e-3, 1.0, size=(n * per_row, 4))
    caps = np.column_stack((2.0 * L, 2.0 * K, 2.0 * K, 2.0 * K))
    return tiled, u * caps
