"""Closed-form equilibria of the model and their feasibility bookkeeping.

The full system has eight isolated equilibria: total extinction, each
competitor alone, disease-free coexistence, one endemic strain without the
first competitor (one per strain), and one endemic strain coexisting with
the first competitor (one per strain). The invariant two-species faces
contribute their own fixed points, and each of those is one of E0-E4
seen inside a face: ``_FACES`` maps each face id to its full-space id, the
variables its face keeps, its subsystem name and its notes, and a face id's
record is its full id's record under those names, with only the in-face
part of its spectrum and slacks.

``compute_equilibrium`` is the one dispatch over the ids, and ``catalog``
loops over it: one if-chain computes each point from the parameters
alone, or rejects it as degenerate, with its closed-form spectrum and the
named slacks that drive it. Each branch computes only the thresholds it
reads, through one helper per kind: a strain's endemic values, its mixed
values, and the in-plane discriminant. A point is degenerate when a
denominator vanishes or underflows to 0, or a coordinate is not finite.
``stability`` reads the spectra from the record; E6 and E7 have none, and
their records say so with a ``pair`` of None.

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
use, its ids and its infected slot) that the formula reads.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .model import ModelParameters, PARAMETER_KEYS, _FIELDS, _field, _field_jacobian, rhs

__all__ = [
    "DegenerateEquilibriumError",
    "EquilibriumRecord",
    "EQUILIBRIUM_IDS",
    "FACE_EQUILIBRIUM_IDS",
    "ALL_IDS",
    "compute_equilibrium",
    "catalog",
    "equilibrium_residual",
    "records_to_jsonl",
    "batched_newton",
    "random_interior_starts",
]

# Full-space equilibria, in conventional order.
EQUILIBRIUM_IDS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7")


class _Face(NamedTuple):
    """A fixed point of an invariant face: a full-space equilibrium seen inside it."""

    full_id: str
    variables: str  # the coordinates its face keeps, as letters of "PSVW"
    subsystem: str
    notes: str


# Q* live in the disease-free competition face (V = W = 0); SV_endemic is
# the endemic point of the strain-one face (P = W = 0).
_FACES = {
    "Q0": _Face("E0", "PS", "competition_PS", "extinction, competition face"),
    "Q1": _Face("E1", "PS", "competition_PS", "first competitor alone, competition face"),
    "Q2": _Face("E2", "PS", "competition_PS", "second competitor alone, competition face"),
    "Q3": _Face("E3", "PS", "competition_PS", "disease-free coexistence"),
    "SV_endemic": _Face("E4", "SV", "one_strain_SV", "strain one endemic, first competitor absent"),
}
FACE_EQUILIBRIUM_IDS = tuple(_FACES)

ALL_IDS = EQUILIBRIUM_IDS + FACE_EQUILIBRIUM_IDS

FEASIBILITY_TOL = 1e-12
MARGINAL_BAND = 1e-12

# Share of the size of its own terms below which a difference counts as
# structurally zero.
_DEGENERATE_TOL = 1e-14


class DegenerateEquilibriumError(ValueError):
    """A closed-form denominator vanished or a coordinate is not finite; the equilibrium is undefined."""

    def __init__(self, eq_id: str, expression: str):
        self.eq_id = eq_id
        self.expression = expression
        super().__init__(f"{eq_id} undefined: {expression} vanishes")


@dataclass
class _Strain:
    """One row of the strain table: a strain's rates, names, ids and infected slot."""

    ordinal: str  # "one" or "two", as notes and keys spell it
    names: tuple[str, str, str, str]  # its (lambda, psi, mu, e) as messages spell them
    endemic_id: str  # endemic without the first competitor
    mixed_id: str  # endemic alongside the first competitor
    slot: int  # index of its infected class in (P, S, V, W)
    factor: str  # its name for F, a factor of its mixed point's infected denominator
    rates: attrgetter = field(init=False)  # ``rates(p)`` reads its rates from ModelParameters

    def __post_init__(self) -> None:
        self.rates = attrgetter(*(_FIELDS[name] for name in self.names))


# Strain two is strain one with V <-> W and (lambda, psi, mu, e) <->
# (beta, phi, nu, f) swapped; every strain closed form is written once,
# over a row of this table.
_STRAINS = (
    _Strain("one", ("lambda", "psi", "mu", "e"), "E4", "E6", 2, "F"),
    _Strain("two", ("beta", "phi", "nu", "f"), "E5", "E7", 3, "Fhat"),
)
# Each endemic id with its strain and the other strain.
_ENDEMIC = {strain.endemic_id: (strain, other) for strain, other in (_STRAINS, _STRAINS[::-1])}
_MIXED = {strain.mixed_id: strain for strain in _STRAINS}


def _endemic_thresholds(p: ModelParameters, lam: float, psi: float, mu: float) -> tuple:
    """One strain's (A, C, Delta) for its endemic point, ``lam`` nonzero: the
    susceptible pool at which the strain just sustains itself, its damping
    factor, and the discriminant of its in-face pair (node or focus)."""
    A = (psi + mu) / lam
    C = mu**2 + p.K * lam * psi - psi**2
    Delta = (p.r * C) ** 2 - 4.0 * p.r * p.K * lam * mu**2 * (mu + psi) * (p.K * lam - mu - psi)
    return A, C, Delta


def _mixed_thresholds(p: ModelParameters, lam: float, psi: float, mu: float, e: float) -> tuple:
    """One strain's (E, F, M, G) for its mixed point: the numerator and a
    denominator factor of its infected coordinate, and the two ends of the
    window of competition pressure ``a`` in which the point is feasible, each
    None where its denominator vanishes."""
    rs = p.r * p.s
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
    G_den = mu + psi
    G = lam * p.s / G_den if G_den != 0.0 else None
    return E, F, M, G


def _in_plane_discriminant(p: ModelParameters) -> float:
    """Discriminant of the in-plane eigenvalue pair at disease-free
    coexistence, written so it is defined even when that point is not."""
    rs = p.r * p.s
    den = p.b * p.L * p.K * p.a - rs
    return (rs * (p.r + p.s - p.b * p.L - p.a * p.K)) ** 2 + 4.0 * rs * (p.a * p.K - p.s) * (p.b * p.L - p.r) * den


def _quadratic_pair(trace_times_den: float, disc: float, den: float) -> list[complex]:
    """The eigenvalue pair of a 2x2 block from its trace times ``den`` and its discriminant."""
    root = cmath.sqrt(complex(disc, 0.0))
    return [(trace_times_den + root) / (2.0 * den), (trace_times_den - root) / (2.0 * den)]


@dataclass(frozen=True)
class EquilibriumRecord:
    """One equilibrium with feasibility verdict and audit margins.

    ``coordinates`` is the embedding into the full (P, S, V, W) space, or
    ``None`` when a closed-form denominator vanished. ``margins`` maps each
    named feasibility condition to its slack (positive means satisfied);
    ``marginal`` flags a slack within 1e-12 of zero, the signature of a
    transcritical exchange. ``subsystem`` names the invariant face a
    face-equilibrium belongs to ("full" for the eight full-space points).

    The closed-form spectrum comes in two parts. ``pair`` holds the two
    eigenvalues inside the point's invariant face, and ``in_face`` the
    named slacks that drive them; ``transverse`` holds the eigenvalues
    across that face, and ``across`` their slacks. ``pair`` is None when
    there is no closed form (E6, E7, and a degenerate record). A face id
    keeps only the in-face part: its ``transverse`` and ``across`` are
    empty.
    """

    id: str
    coordinates: np.ndarray | None
    feasible: bool
    marginal: bool
    margins: dict[str, float]
    subsystem: str = "full"
    notes: str = ""
    pair: list[complex] | None = None
    transverse: list[complex] = field(default_factory=list)
    in_face: dict[str, float] = field(default_factory=dict)
    across: dict[str, float] = field(default_factory=dict)

    def coordinate_tuple(self) -> tuple[float, float, float, float]:
        if self.coordinates is None:
            # ``catalog`` notes a degenerate point as "degenerate: {expression} vanishes".
            expression = self.notes.removeprefix("degenerate: ").removesuffix(" vanishes")
            raise DegenerateEquilibriumError(self.id, expression)
        P, S, V, W = (float(v) for v in self.coordinates)
        return P, S, V, W


def _finish(
    eq_id: str, coords: Sequence[float], margins: dict[str, float], notes: str, **spectrum
) -> EquilibriumRecord:
    """A full id's record; ``spectrum`` holds its closed-form ``pair``,
    ``transverse``, ``in_face`` and ``across``."""
    arr = np.asarray(coords, dtype=float) + 0.0  # folds -0.0 into 0.0
    feasible = bool(np.all(arr >= -FEASIBILITY_TOL))
    marginal = any(abs(m) <= MARGINAL_BAND for m in margins.values())
    return EquilibriumRecord(
        id=eq_id,
        coordinates=arr,
        feasible=feasible,
        marginal=marginal,
        margins=margins,
        notes=notes,
        **spectrum,
    )


def _quotient(eq_id: str, numerator: float, denominator: float, expression: str) -> float:
    """``numerator / denominator``, degenerate with the denominator's text if it is 0 or the quotient not finite."""
    value = numerator / denominator if denominator != 0.0 else math.inf
    if not math.isfinite(value):
        raise DegenerateEquilibriumError(eq_id, expression)
    return value


def compute_equilibrium(params: ModelParameters, eq_id: str) -> EquilibriumRecord:
    """Evaluate one equilibrium in closed form, with its spectrum and slacks.

    Raises DegenerateEquilibriumError when a defining denominator vanishes
    (for example the disease-free coexistence point when b*L*K*a = r*s),
    underflows to 0, or gives a coordinate that is not finite, and
    ValueError for an unknown id.
    """
    p = params

    face = _FACES.get(eq_id)
    if face is not None:
        try:
            rec = compute_equilibrium(params, face.full_id)
        except DegenerateEquilibriumError as err:
            raise DegenerateEquilibriumError(eq_id, err.expression) from None
        return replace(rec, id=eq_id, subsystem=face.subsystem, notes=face.notes, transverse=[], across={})

    if eq_id == "E0":
        return _finish(
            "E0", (0.0, 0.0, 0.0, 0.0), {}, "total extinction",
            pair=[p.s, p.r],
            transverse=[-(p.psi + p.mu), -(p.phi + p.nu)],
            in_face={"first_can_grow": p.s, "second_can_grow": p.r},
        )

    if eq_id == "E1":
        return _finish(
            "E1", (p.L, 0.0, 0.0, 0.0), {}, "first competitor alone",
            pair=[-p.s, p.r - p.b * p.L],
            transverse=[-p.mu - p.psi - p.e * p.L, -p.nu - p.phi - p.f * p.L],
            in_face={"second_excluded": p.b * p.L - p.r},
        )

    if eq_id == "E2":
        return _finish(
            "E2", (0.0, p.K, 0.0, 0.0), {}, "second competitor alone, disease free",
            pair=[-p.r, p.s - p.a * p.K],
            transverse=[p.lam * p.K - p.psi - p.mu, p.beta * p.K - p.phi - p.nu],
            in_face={"first_excluded": p.a * p.K - p.s},
            across={
                "strain_one_subcritical": (p.psi + p.mu) - p.lam * p.K,
                "strain_two_subcritical": (p.phi + p.nu) - p.beta * p.K,
            },
        )

    if eq_id == "E3":
        den = p.b * p.L * p.K * p.a - p.r * p.s
        scale = p.b * p.L * p.K * p.a + p.r * p.s
        expression = "b*L*K*a - r*s"
        if abs(den) <= _DEGENERATE_TOL * scale:
            raise DegenerateEquilibriumError(eq_id, expression)
        # Folded as the record holds them, so the transverse rows read the same zeros.
        P3 = _quotient(eq_id, p.L * p.r * (p.a * p.K - p.s), den, expression) + 0.0
        S3 = _quotient(eq_id, p.K * p.s * (p.b * p.L - p.r), den, expression) + 0.0
        Delta3 = _in_plane_discriminant(p)
        margins = {
            "first_invades_second": p.a * p.K - p.s,
            "second_invades_first": p.b * p.L - p.r,
        }
        return _finish(
            eq_id, (P3, S3, 0.0, 0.0), margins, "disease-free coexistence",
            pair=_quadratic_pair(p.r * p.s * (p.r + p.s - p.b * p.L - p.a * p.K), Delta3, den),
            transverse=[p.lam * S3 - p.psi - p.mu - p.e * P3, p.beta * S3 - p.phi - p.nu - p.f * P3],
            in_face={
                "in_plane_damping": p.r * p.s - p.a * p.b * p.K * p.L,
                "in_plane_discriminant": Delta3,
            },
            across={
                "strain_one_subcritical": p.psi + p.mu + p.e * P3 - p.lam * S3,
                "strain_two_subcritical": p.phi + p.nu + p.f * P3 - p.beta * S3,
            },
        )

    if eq_id in _ENDEMIC:
        strain, other = _ENDEMIC[eq_id]
        lam, psi, mu, _ = strain.rates(p)
        if lam == 0.0:
            raise DegenerateEquilibriumError(eq_id, strain.names[0])
        if mu == 0.0:
            raise DegenerateEquilibriumError(eq_id, strain.names[2])
        if p.K * lam * mu == 0.0:  # the spectrum's denominator, underflowed
            raise DegenerateEquilibriumError(eq_id, "K*{0}*{2}".format(*strain.names))
        infected = _quotient(
            eq_id, p.r * (mu + psi) * (p.K * lam - mu - psi), p.K * lam**2 * mu, "K*{0}**2*{2}".format(*strain.names)
        )
        A, C, Delta = _endemic_thresholds(p, lam, psi, mu)
        if not math.isfinite(A):  # the quotient (psi + mu) / lambda overflowed
            raise DegenerateEquilibriumError(eq_id, strain.names[0])
        beta, phi, nu, _ = other.rates(p)
        coords = [0.0, A, 0.0, 0.0]
        coords[strain.slot] = infected
        margins = {f"strain_{strain.ordinal}_invades": p.K - A}
        return _finish(
            eq_id, coords, margins, f"strain {strain.ordinal} endemic, first competitor absent",
            pair=_quadratic_pair(-p.r * C, Delta, p.K * lam * mu),
            transverse=[p.s - p.a * A, beta * A - phi - nu],
            in_face={
                "endemic_damping": p.r * C,
                "endemic_discriminant": Delta,
            },
            across={
                "first_excluded": p.a * A - p.s,
                f"strain_{other.ordinal}_subcritical": phi + nu - beta * A,
            },
        )

    if eq_id in _MIXED:
        strain = _MIXED[eq_id]
        lam, psi, mu, e = strain.rates(p)
        E, F, M, G = _mixed_thresholds(p, lam, psi, mu, e)
        den = lam * p.s + e * p.L * p.a
        expression = "{0}*s + {3}*L*a".format(*strain.names)
        if den == 0.0:  # a sum of nonnegative products
            raise DegenerateEquilibriumError(eq_id, expression)
        if abs(F) <= _DEGENERATE_TOL * (abs(p.s * lam * (e * p.L + mu)) + abs(psi * e * p.L * p.a)):
            raise DegenerateEquilibriumError(
                eq_id, "{4} = s*{0}*{3}*L + s*{0}*{2} - {1}*{3}*L*a".format(*strain.names, strain.factor)
            )
        P = _quotient(eq_id, p.L * (lam * p.s - p.a * (mu + psi)), den, expression)
        S = _quotient(eq_id, p.s * (mu + psi + e * p.L), den, expression)
        infected = _quotient(
            eq_id, p.s * (mu + psi + e * p.L) * E, p.K * den * F, f"K*({expression})*{strain.factor}"
        )
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
        # No tidy closed-form spectrum: the numeric one decides.
        return _finish(eq_id, coords, margins, notes)

    raise ValueError(f"unknown equilibrium id {eq_id!r}; expected one of {ALL_IDS}")


def catalog(params: ModelParameters) -> list[EquilibriumRecord]:
    """All eight full-space equilibria, degenerate ones kept with a note."""
    records = []
    for eq_id in EQUILIBRIUM_IDS:
        try:
            records.append(compute_equilibrium(params, eq_id))
        except DegenerateEquilibriumError as err:
            records.append(EquilibriumRecord(eq_id, None, False, False, {}, notes=f"degenerate: {err.expression} vanishes"))
    return records


def equilibrium_residual(params: ModelParameters, record: EquilibriumRecord) -> float:
    """Max-norm of the vector field at the recorded coordinates."""
    return float(np.max(np.abs(rhs(params, record.coordinate_tuple()))))


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


# Rows per block of ``batched_newton``: a block's columns and temporaries
# stay within a few megabytes, so peak memory does not grow with the rows.
_BLOCK_ROWS = 8192

# The smallest scaled determinant a step is solved for. Scaled, every
# Jacobian entry is at most 1 in size, and the determinant is a sum of six
# products of four entries formed in at most six roundings, so its rounding
# error is below 6 * gamma_6 < 4.1e-15 (Higham, *Accuracy and Stability of
# Numerical Algorithms*, 2nd ed., 2002, ch. 3). Above 2**-40, about
# 9.1e-13, that is under 0.5% of the determinant: the matrix is surely
# nonsingular and the computed determinant has its sign.
_MIN_SCALED_DET = 2.0**-40


def _check_columns(name: str, array: np.ndarray, width: int) -> None:
    if array.ndim != 2 or array.shape[1] != width:
        raise ValueError(f"{name} must have shape (n, {width}), got {array.shape}")


def _check_count(name: str, value: int, least: int) -> None:
    """Reject a count that is not an int (a numpy integer counts, a bool does not) or is below ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def _newton_step(J: np.ndarray, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (4, n) solutions of ``J @ step = residual`` for an (n, 4, 4)
    ``_field_jacobian`` stack and (4, n) residuals, and the mask of rows
    whose residual is finite and whose scaled determinant is finite and
    above ``_MIN_SCALED_DET``.

    Each equation is first scaled by the power of two that puts its
    largest Jacobian entry in [1/2, 1). That is exact, so scaling an
    equation by any 2**k changes no bit of the result. The solve is
    Cramer's rule over the 12 entries outside the structural zeros J[0, 2],
    J[0, 3], J[2, 3] and J[3, 2], plus one step of refinement in working
    precision, which makes it backward stable like LAPACK's LU (Higham,
    ch. 12); the step of a row outside the mask is meaningless.
    """
    J = J.transpose(1, 2, 0)  # (4, 4, n): each entry a contiguous column
    _, exponent = np.frexp(np.abs(J).max(axis=1))
    J = np.ldexp(J, -exponent[:, None])
    r = np.ldexp(residual, -exponent)
    (a00, a01, _, _), (a10, a11, a12, a13), (a20, a21, a22, _), (a30, a31, _, a33) = J
    g, h2, h3 = a22 * a33, a12 * a33, a13 * a22
    # Equation 1 times g, with V and W replaced through equations 2 and 3.
    b0 = g * a10 - h2 * a20 - h3 * a30
    b1 = g * a11 - h2 * a21 - h3 * a31
    det = a00 * b1 - a01 * b0
    # 2x2 minors of the P and S columns over pairs of equations.
    c1, c2, c3 = a00 * a11 - a01 * a10, a00 * a21 - a01 * a20, a00 * a31 - a01 * a30
    m12, m13, m23 = a10 * a21 - a11 * a20, a10 * a31 - a11 * a30, a20 * a31 - a21 * a30

    def solve(r0, r1, r2, r3):
        rb = g * r1 - h2 * r2 - h3 * r3
        t = r0 * m23 - r2 * c3 + r3 * c2
        return np.array((
            r0 * b1 - a01 * rb,
            a00 * rb - r0 * b0,
            a13 * t + a33 * (r0 * m12 - r1 * c2 + r2 * c1),
            a22 * (r0 * m13 - r1 * c3 + r3 * c1) - a12 * t,
        )) / det

    step = solve(*r)
    p, q, v, w = step
    step += solve(
        r[0] - a00 * p - a01 * q,
        r[1] - a10 * p - a11 * q - a12 * v - a13 * w,
        r[2] - a20 * p - a21 * q - a22 * v,
        r[3] - a30 * p - a31 * q - a33 * w,
    )
    size = np.abs(det)
    return step, np.isfinite(residual).all(axis=0) & (size > _MIN_SCALED_DET) & (size < math.inf)


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
        iterations: iteration budget, a non-negative int.
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

    A row stops after the first iteration whose step is at rounding
    level, ``max|step| <= 4 * eps * (1 + max|x|)`` (the scale of the
    convergence test, met by any step that leaves the iterate bitwise
    unchanged), or when the budget runs out. It is frozen where it stands,
    and stops, when its iterate or residual is not finite or its scaled
    determinant is at most ``_MIN_SCALED_DET`` (see ``_newton_step``), a
    test that scaling an equation does not change. The steps are solved
    in closed form, without LAPACK. Rows run in blocks of ``_BLOCK_ROWS``,
    each keeping only its running rows; every operation is elementwise,
    so each row's result is the same bits as if it ran alone.
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
    rounding = 4.0 * np.finfo(float).eps
    with np.errstate(all="ignore"):
        for lo in range(0, len(x), _BLOCK_ROWS):
            # The running rows' indices, and their iterates and parameters by component.
            rows = np.arange(lo, min(lo + _BLOCK_ROWS, len(x)))
            xb, pb = x[rows].T.copy(), param_matrix[rows].T.copy()
            for _ in range(iterations):
                if not len(rows):
                    break
                step, ok = _newton_step(_field_jacobian(*xb, *pb), np.array(_field(*xb, *pb)))
                ok &= np.isfinite(xb).all(axis=0)
                new = np.where(ok, xb - step, xb)
                done = ~ok | (np.abs(step).max(axis=0) <= rounding * (1.0 + np.abs(xb).max(axis=0)))
                x[rows[done]] = new[:, done].T
                running = ~done
                rows, xb, pb = rows[running], np.compress(running, new, axis=1), np.compress(running, pb, axis=1)
            x[rows] = xb.T
    finite_x = np.where(np.isfinite(x), x, 0.0)
    final = np.column_stack(_field(*finite_x.T, *param_matrix.T))
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
