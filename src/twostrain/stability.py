"""Linear stability classification with analytic and numeric eigenvalues.

Every equilibrium gets a verdict combining: the spectrum of the Jacobian
(closed-form where available, numeric always), a coarse classification
(node/focus/saddle, stable/unstable, or marginal when an eigenvalue real
part sits inside a tolerance band around zero), the named inequality
slacks that drive the classification, and per-face classifications on
every invariant coordinate face containing the point. The face report
matters because several equilibria are saddles of the full system yet
attract every trajectory that starts inside one of their faces.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .equilibria import (
    EquilibriumRecord,
    DegenerateEquilibriumError,
    ThresholdSet,
    _ENDEMIC,
    _equilibrium,
    thresholds,
)
from .model import ModelParameters, jacobian

__all__ = [
    "EigenSolverError",
    "StabilityVerdict",
    "STABLE_NODE",
    "STABLE_FOCUS",
    "UNSTABLE_NODE",
    "UNSTABLE_FOCUS",
    "SADDLE",
    "MARGINAL",
    "MARGINALITY_BAND",
    "numeric_eigenvalues",
    "analytic_eigenvalues",
    "classify_eigenvalues",
    "classify",
    "verdicts_to_jsonl",
]

STABLE_NODE = "stable_node"
STABLE_FOCUS = "stable_focus"
UNSTABLE_NODE = "unstable_node"
UNSTABLE_FOCUS = "unstable_focus"
SADDLE = "saddle"
MARGINAL = "marginal"

# Real parts within this band of zero defeat a strict classification.
MARGINALITY_BAND = 1e-10

_LETTERS = "PSVW"

# Variables retained by each id when it lives on an invariant face.
_FACE_VARIABLES = {
    "Q0": "PS",
    "Q1": "PS",
    "Q2": "PS",
    "Q3": "PS",
    "SV_endemic": "SV",
}


class EigenSolverError(RuntimeError):
    """The numeric eigenvalue iteration failed to converge."""


@dataclass(frozen=True)
class StabilityVerdict:
    """Stability report for one equilibrium.

    ``eigenvalues`` are sorted by descending real part (ties by descending
    imaginary part); closed-form values are used when available, otherwise
    the numeric spectrum. ``condition_report`` maps named inequality
    slacks to signed values (positive means the named condition holds).
    ``face_classes`` maps retained-variable strings (for example "SV") to
    the classification of the equilibrium inside that invariant face.
    ``diagnostics`` carries cross-check numbers such as the max difference
    between analytic and numeric eigenvalues.
    """

    id: str
    coordinates: np.ndarray
    eigenvalues: np.ndarray
    classification: str
    method: str
    condition_report: dict[str, float]
    face_classes: dict[str, str]
    diagnostics: dict[str, float]

    @property
    def lead_real_part(self) -> float:
        return float(self.eigenvalues[0].real)


def _sorted(eigs: Iterable[complex]) -> np.ndarray:
    arr = np.asarray(sorted(eigs, key=lambda z: (-z.real, -z.imag)), dtype=complex)
    return arr


def numeric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by descending real part."""
    try:
        eigs = np.linalg.eigvals(np.asarray(matrix, dtype=float))
    except np.linalg.LinAlgError as err:
        raise EigenSolverError(str(err)) from err
    return _sorted(eigs)


def _quadratic_pair(trace_times_den: float, disc: float, den: float) -> list[complex]:
    root = cmath.sqrt(complex(disc, 0.0))
    return [(trace_times_den + root) / (2.0 * den), (trace_times_den - root) / (2.0 * den)]


def analytic_eigenvalues(params: ModelParameters, eq_id: str) -> np.ndarray:
    """Closed-form spectrum for the equilibria that admit one.

    Raises ValueError for ids without closed forms (E6, E7) and
    DegenerateEquilibriumError when the underlying point is undefined.
    """
    return _analytic_eigenvalues(params, eq_id, thresholds(params))


def _analytic_eigenvalues(params: ModelParameters, eq_id: str, t: ThresholdSet) -> np.ndarray:
    """``analytic_eigenvalues`` with the thresholds of ``params`` given."""
    p = params

    if eq_id == "E0":
        return _sorted([p.s, p.r, -(p.psi + p.mu), -(p.phi + p.nu)])

    if eq_id == "E1":
        return _sorted(
            [
                -p.s,
                p.r - p.b * p.L,
                -p.mu - p.psi - p.e * p.L,
                -p.nu - p.phi - p.f * p.L,
            ]
        )

    if eq_id == "E2":
        return _sorted(
            [
                -p.r,
                p.s - p.a * p.K,
                p.lam * p.K - p.psi - p.mu,
                p.beta * p.K - p.phi - p.nu,
            ]
        )

    if eq_id in ("E3", "Q3"):
        rec = _equilibrium(params, eq_id, t)
        P3, S3 = float(rec.coordinates[0]), float(rec.coordinates[1])
        den = p.b * p.L * p.K * p.a - p.r * p.s
        pair = _quadratic_pair(p.r * p.s * (p.r + p.s - p.b * p.L - p.a * p.K), t.Delta3, den)
        if eq_id == "Q3":
            return _sorted(pair)
        extra = [
            p.lam * S3 - p.psi - p.mu - p.e * P3,
            p.beta * S3 - p.phi - p.nu - p.f * P3,
        ]
        return _sorted(pair + extra)

    if eq_id in _ENDEMIC:
        strain, other = _ENDEMIC[eq_id]
        lam, _, mu, _ = strain.rates(p)
        if lam == 0.0 or mu == 0.0:
            raise DegenerateEquilibriumError(eq_id, f"{strain.names[0]}*{strain.names[2]}")
        A, C, Delta = strain.results(t)[:3]
        pair = _quadratic_pair(-p.r * C, Delta, p.K * lam * mu)
        if eq_id == "SV_endemic":
            return _sorted(pair)
        beta, phi, nu, _ = other.rates(p)
        extra = [p.s - p.a * A, beta * A - phi - nu]
        return _sorted(pair + extra)

    if eq_id == "Q0":
        return _sorted([p.s, p.r])

    if eq_id == "Q1":
        return _sorted([-p.s, p.r - p.b * p.L])

    if eq_id == "Q2":
        return _sorted([-p.r, p.s - p.a * p.K])

    raise ValueError(f"no closed-form spectrum for {eq_id!r}")


def _spectrum(params: ModelParameters, rec: EquilibriumRecord, t: ThresholdSet) -> np.ndarray:
    """A full-space point's spectrum as ``classify`` reports it: closed-form, else numeric."""
    try:
        return _analytic_eigenvalues(params, rec.id, t)
    except ValueError:
        return numeric_eigenvalues(jacobian(params, rec.coordinates))


def classify_eigenvalues(eigs: np.ndarray, band: float = MARGINALITY_BAND) -> str:
    """Map a spectrum to a coarse qualitative label."""
    # A handful of values: comparing Python floats beats numpy calls on
    # tiny arrays, and the comparisons (NaN included) are the same.
    eigs = np.asarray(eigs, dtype=complex).tolist()
    re = [z.real for z in eigs]
    if any(abs(x) <= band for x in re):
        return MARGINAL
    has_complex = any(abs(z.imag) > band for z in eigs)
    if all(x < 0.0 for x in re):
        return STABLE_FOCUS if has_complex else STABLE_NODE
    if all(x > 0.0 for x in re):
        return UNSTABLE_FOCUS if has_complex else UNSTABLE_NODE
    return SADDLE


def _invariant_faces(zero_letters: set[str]) -> list[str]:
    """Retained-variable strings of invariant faces through a point.

    A coordinate face is invariant iff the dropped set only removes P, V
    or W freely, and removes S only together with both infected classes
    (susceptibles receive inflow from recovery, so the S = 0 plane is not
    invariant while any infected class persists).
    """
    faces = []
    for size in range(1, len(zero_letters) + 1):
        for dropped in combinations(sorted(zero_letters), size):
            dset = set(dropped)
            if len(dset) == 4:
                continue
            if "S" in dset and not {"V", "W"} <= dset:
                continue
            retained = "".join(l for l in _LETTERS if l not in dset)
            faces.append(retained)
    return faces


def _condition_report(
    params: ModelParameters, eq_id: str, rec: EquilibriumRecord, t: ThresholdSet
) -> dict[str, float]:
    p = params
    if eq_id in ("E0", "Q0"):
        return {"first_can_grow": p.s, "second_can_grow": p.r}
    if eq_id in ("E1", "Q1"):
        return {"second_excluded": p.b * p.L - p.r}
    if eq_id in ("E2", "Q2"):
        report = {"first_excluded": p.a * p.K - p.s}
        if eq_id == "E2":
            report["strain_one_subcritical"] = (p.psi + p.mu) - p.lam * p.K
            report["strain_two_subcritical"] = (p.phi + p.nu) - p.beta * p.K
        return report
    if eq_id in ("E3", "Q3"):
        P3, S3 = float(rec.coordinates[0]), float(rec.coordinates[1])
        report = {
            "in_plane_damping": p.r * p.s - p.a * p.b * p.K * p.L,
            "in_plane_discriminant": t.Delta3,
        }
        if eq_id == "E3":
            report["strain_one_subcritical"] = p.psi + p.mu + p.e * P3 - p.lam * S3
            report["strain_two_subcritical"] = p.phi + p.nu + p.f * P3 - p.beta * S3
        return report
    if eq_id in _ENDEMIC:
        strain, other = _ENDEMIC[eq_id]
        lam, psi, mu, _ = strain.rates(p)
        A, C, Delta = strain.results(t)[:3]
        report = {
            # Two candidate forms of the endemic damping coefficient;
            # they differ by a power of the recovery rate in one term.
            # The eigenvalue formula arbitrates: the first drives it.
            "endemic_damping": p.r * C,
            "endemic_damping_variant": p.r * (mu**2 + p.K * lam * psi**2 - psi**2),
            "endemic_discriminant": Delta,
        }
        if eq_id != "SV_endemic" and A is not None:
            beta, phi, nu, _ = other.rates(p)
            report["first_excluded"] = p.a * A - p.s
            report[f"strain_{other.ordinal}_subcritical"] = phi + nu - beta * A
        return report
    # Mixed equilibria: no tidy closed-form chain; report the lead part.
    return {}


_FACE_INDEX = {letter: i for i, letter in enumerate(_LETTERS)}


def classify(params: ModelParameters, eq_id: str) -> StabilityVerdict:
    """Full stability verdict for one equilibrium.

    Real parts within ``MARGINALITY_BAND`` of zero classify as marginal.
    Closed-form spectra are cross-checked against the numeric solver; the
    reported eigenvalues are the closed-form ones when available. Raises
    DegenerateEquilibriumError when the point itself is undefined.
    """
    t = thresholds(params)
    rec = _equilibrium(params, eq_id, t)
    coords = rec.coordinates
    J_full = jacobian(params, coords)

    retained = _FACE_VARIABLES.get(eq_id)
    if retained is not None:
        idx = [_FACE_INDEX[l] for l in retained]
        J = J_full[np.ix_(idx, idx)]
    else:
        J = J_full

    numeric = numeric_eigenvalues(J)
    diagnostics: dict[str, float] = {}
    try:
        eigs = _analytic_eigenvalues(params, eq_id, t)
        method = "both"
        diagnostics["analytic_numeric_max_diff"] = float(
            np.max(np.abs(eigs - numeric))
        )
    except (ValueError, DegenerateEquilibriumError):
        eigs = numeric
        method = "numeric"

    classification = classify_eigenvalues(eigs)
    diagnostics["lead_real_part"] = float(eigs[0].real)

    face_classes: dict[str, str] = {}
    if retained is None:
        zero_letters = {l for i, l in enumerate(_LETTERS) if coords[i] == 0.0}
        for face in _invariant_faces(zero_letters):
            idx = [_FACE_INDEX[l] for l in face]
            sub = J_full[np.ix_(idx, idx)]
            face_classes[face] = classify_eigenvalues(numeric_eigenvalues(sub))

    return StabilityVerdict(
        id=eq_id,
        coordinates=coords,
        eigenvalues=eigs,
        classification=classification,
        method=method,
        condition_report=_condition_report(params, eq_id, rec, t),
        face_classes=face_classes,
        diagnostics=diagnostics,
    )


def verdicts_to_jsonl(verdicts: Iterable[StabilityVerdict]) -> str:
    """Serialize verdicts as JSON lines; eigenvalues as [re, im] pairs."""
    lines = []
    for v in verdicts:
        lines.append(
            json.dumps(
                {
                    "id": v.id,
                    "coords": [float(c) for c in v.coordinates],
                    "eigenvalues": [[float(z.real), float(z.imag)] for z in v.eigenvalues],
                    "class": v.classification,
                    "method": v.method,
                    "condition_report": {k: float(x) for k, x in v.condition_report.items()},
                    "face_classes": v.face_classes,
                    "diagnostics": {k: float(x) for k, x in v.diagnostics.items()},
                }
            )
        )
    return "\n".join(lines) + "\n"
