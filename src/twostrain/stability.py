"""Linear stability classification with analytic and numeric eigenvalues.

Every equilibrium gets a verdict combining: the spectrum of the Jacobian
(closed-form where available, numeric always), a coarse classification
(node/focus/saddle, stable/unstable, or marginal when an eigenvalue real
part sits inside a tolerance band around zero), the named inequality
slacks that drive the classification, and per-face classifications on
every invariant coordinate face containing the point. The face report
matters because several equilibria are saddles of the full system yet
attract every trajectory that starts inside one of their faces.

The closed forms sit in one if-chain over the full ids, ``_closed_form``,
which gives the spectrum and the condition report together: an in-face
eigenvalue pair and its slacks, then the transverse eigenvalues and their
slacks. Each reads the record its caller holds, so ``_equilibrium`` is
the one degenerate test and a degenerate point has one text everywhere.
E6 and E7 have none, and it says so with a pair of None, so the callers
choose between closed-form and numeric spectra with an ``if``. A face id
(``equilibria._FACES``) is one of E0-E4 seen inside its face and takes
its full id's in-face part; ``_view`` applies that once, for every
spectrum. A face id's verdict is taken on the Jacobian block of the
variables its face keeps.
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
    ThresholdSet,
    _ENDEMIC,
    _FACES,
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

    Raises DegenerateEquilibriumError, with ``compute_equilibrium``'s text,
    when the underlying point is undefined (a degenerate E6 or E7 too), and
    ValueError for ids without closed forms (E6, E7).
    """
    t = thresholds(params)
    pair, transverse = _view(params, _equilibrium(params, eq_id, t), t)[:2]
    if pair is None:
        raise ValueError(f"no closed-form spectrum for {eq_id!r}")
    return _sorted(pair + transverse)


def _view(params: ModelParameters, rec: EquilibriumRecord, t: ThresholdSet) -> tuple:
    """``_closed_form`` of a record: a face id keeps its full id's in-face pair and in-face slacks."""
    face = _FACES.get(rec.id)
    if face is None:
        return _closed_form(params, rec.id, rec.coordinates, t)
    pair, _, in_face, _ = _closed_form(params, face.full_id, rec.coordinates, t)
    return pair, [], in_face, {}


def _closed_form(params: ModelParameters, eq_id: str, x: np.ndarray, t: ThresholdSet) -> tuple:
    """A full id's closed forms: (in-face pair, transverse eigenvalues, in-face slacks, transverse slacks).

    ``x`` is a record's coordinates, which only E3's closed form reads.
    The pair is None for an id without a closed-form spectrum (E6, E7),
    and then both lists of slacks are empty too.
    """
    p = params

    if eq_id == "E0":
        return [p.s, p.r], [-(p.psi + p.mu), -(p.phi + p.nu)], {"first_can_grow": p.s, "second_can_grow": p.r}, {}

    if eq_id == "E1":
        transverse = [-p.mu - p.psi - p.e * p.L, -p.nu - p.phi - p.f * p.L]
        return [-p.s, p.r - p.b * p.L], transverse, {"second_excluded": p.b * p.L - p.r}, {}

    if eq_id == "E2":
        transverse = [p.lam * p.K - p.psi - p.mu, p.beta * p.K - p.phi - p.nu]
        return [-p.r, p.s - p.a * p.K], transverse, {"first_excluded": p.a * p.K - p.s}, {
            "strain_one_subcritical": (p.psi + p.mu) - p.lam * p.K,
            "strain_two_subcritical": (p.phi + p.nu) - p.beta * p.K,
        }

    if eq_id == "E3":
        P3, S3 = float(x[0]), float(x[1])
        den = p.b * p.L * p.K * p.a - p.r * p.s
        pair = _quadratic_pair(p.r * p.s * (p.r + p.s - p.b * p.L - p.a * p.K), t.Delta3, den)
        transverse = [p.lam * S3 - p.psi - p.mu - p.e * P3, p.beta * S3 - p.phi - p.nu - p.f * P3]
        return pair, transverse, {
            "in_plane_damping": p.r * p.s - p.a * p.b * p.K * p.L,
            "in_plane_discriminant": t.Delta3,
        }, {
            "strain_one_subcritical": p.psi + p.mu + p.e * P3 - p.lam * S3,
            "strain_two_subcritical": p.phi + p.nu + p.f * P3 - p.beta * S3,
        }

    if eq_id in _ENDEMIC:
        strain, other = _ENDEMIC[eq_id]
        lam, psi, mu, _ = strain.rates(p)
        A, C, Delta = strain.results(t)[:3]
        beta, phi, nu, _ = other.rates(p)
        pair = _quadratic_pair(-p.r * C, Delta, p.K * lam * mu)
        return pair, [p.s - p.a * A, beta * A - phi - nu], {
            # Two candidate forms of the endemic damping coefficient;
            # they differ by a power of the recovery rate in one term.
            # The eigenvalue formula arbitrates: the first drives it.
            "endemic_damping": p.r * C,
            "endemic_damping_variant": p.r * (mu**2 + p.K * lam * psi**2 - psi**2),
            "endemic_discriminant": Delta,
        }, {
            "first_excluded": p.a * A - p.s,
            f"strain_{other.ordinal}_subcritical": phi + nu - beta * A,
        }

    # Mixed equilibria: no tidy closed-form chain; the numeric spectrum decides.
    return None, [], {}, {}


def _spectrum(params: ModelParameters, rec: EquilibriumRecord, t: ThresholdSet) -> np.ndarray:
    """A record's spectrum as ``classify`` reports it: closed-form, else numeric."""
    pair, transverse = _view(params, rec, t)[:2]
    if pair is None:
        return numeric_eigenvalues(jacobian(params, rec.coordinates))
    return _sorted(pair + transverse)


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
    t = thresholds(params)
    rec = _equilibrium(params, eq_id, t)
    coords = rec.coordinates
    J_full = jacobian(params, coords)

    face = _FACES.get(eq_id)
    if face is None:
        J = J_full
    else:
        idx = [_FACE_INDEX[l] for l in face.variables]
        J = J_full[np.ix_(idx, idx)]

    numeric = numeric_eigenvalues(J)
    pair, transverse, in_face, across = _view(params, rec, t)
    diagnostics: dict[str, float] = {}
    if pair is None:
        eigs, method = numeric, "numeric"
    else:
        eigs, method = _sorted(pair + transverse), "both"
        diagnostics["analytic_numeric_max_diff"] = float(np.max(np.abs(eigs - numeric)))

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
        method=method,
        condition_report=in_face | across,
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
