"""Linear stability classification with analytic and numeric eigenvalues.

Every equilibrium gets a verdict combining: the spectrum of the Jacobian
(closed-form where available, numeric always), a coarse classification
(node/focus/saddle, stable/unstable, or marginal when an eigenvalue real
part sits inside a tolerance band around zero), the named inequality
slacks that drive the classification, and per-face classifications on
every invariant coordinate face containing the point. The face report
matters because several equilibria are saddles of the full system yet
attract every trajectory that starts inside one of their faces.

The closed forms are written once, in ``equilibria.compute_equilibrium``,
the one dispatch: each record carries its in-face eigenvalue pair and
slacks, then its transverse eigenvalues and their slacks, so a degenerate
point has one text everywhere. E6 and E7 have none, and their records say
so with a pair of None, so ``_spectrum`` chooses the closed-form or the
numeric spectrum with one ``if``. A face id (``equilibria._FACES``) is one
of E0-E4 seen inside its face; its record keeps only its full id's in-face
part, and its verdict is taken on the Jacobian block of the variables its
face keeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .equilibria import EquilibriumRecord, _FACES, compute_equilibrium
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


def analytic_eigenvalues(params: ModelParameters, eq_id: str) -> np.ndarray:
    """Closed-form spectrum for the equilibria that admit one.

    Raises DegenerateEquilibriumError, with ``compute_equilibrium``'s text,
    when the underlying point is undefined (a degenerate E6 or E7 too), and
    ValueError for ids without closed forms (E6, E7).
    """
    rec = compute_equilibrium(params, eq_id)
    if rec.pair is None:
        raise ValueError(f"no closed-form spectrum for {eq_id!r}")
    return _spectrum(params, rec)


def _spectrum(params: ModelParameters, rec: EquilibriumRecord) -> np.ndarray:
    """A record's spectrum as ``classify`` reports it: closed-form, else numeric."""
    if rec.pair is None:
        return numeric_eigenvalues(jacobian(params, rec.coordinates))
    return _sorted(rec.pair + rec.transverse)


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


_FACE_INDEX = {letter: i for i, letter in enumerate(_LETTERS)}


def classify(params: ModelParameters, eq_id: str) -> StabilityVerdict:
    """Full stability verdict for one equilibrium.

    Real parts within ``MARGINALITY_BAND`` of zero classify as marginal.
    Closed-form spectra are cross-checked against the numeric solver; the
    reported eigenvalues are the closed-form ones when available. Raises
    DegenerateEquilibriumError when the point itself is undefined.
    """
    rec = compute_equilibrium(params, eq_id)
    coords = rec.coordinates
    J_full = jacobian(params, coords)

    face = _FACES.get(eq_id)
    if face is None:
        J = J_full
    else:
        idx = [_FACE_INDEX[l] for l in face.variables]
        J = J_full[np.ix_(idx, idx)]

    eigs = _spectrum(params, rec)
    diagnostics: dict[str, float] = {}
    if rec.pair is not None:  # the closed form, cross-checked
        diagnostics["analytic_numeric_max_diff"] = float(np.max(np.abs(eigs - numeric_eigenvalues(J))))

    classification = classify_eigenvalues(eigs)
    diagnostics["lead_real_part"] = float(eigs[0].real)

    face_classes: dict[str, str] = {}
    if face is None:
        zero_letters = {l for i, l in enumerate(_LETTERS) if coords[i] == 0.0}
        for kept in _invariant_faces(zero_letters):
            idx = [_FACE_INDEX[l] for l in kept]
            sub = J_full[np.ix_(idx, idx)]
            face_classes[kept] = classify_eigenvalues(numeric_eigenvalues(sub))

    return StabilityVerdict(
        id=eq_id,
        coordinates=coords,
        eigenvalues=eigs,
        classification=classification,
        method="numeric" if rec.pair is None else "both",
        condition_report=rec.in_face | rec.across,
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
