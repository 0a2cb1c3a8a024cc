"""Parameter sweeps and precise location of transcritical crossings.

A sweep re-derives the equilibrium catalog on a uniform grid of one
parameter and classifies each point from its spectrum alone, giving a
long-format table for plotting branch diagrams. Transcritical points, where
two equilibria exchange both position and stability, are located by
bisecting the signed closed-form margin that controls the exchange; the
located point is then validated by checking that the two equilibria
actually coincide there and that each carries an eigenvalue crossing zero.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .equilibria import _check_count, catalog, compute_equilibrium
from .model import ModelParameters, PARAMETER_KEYS, _FIELDS
from .stability import _spectrum, classify_eigenvalues

__all__ = [
    "SweepRow",
    "SweepResult",
    "TranscriticalPoint",
    "UnsupportedPairError",
    "NoSignChangeError",
    "SUPPORTED_PAIRS",
    "sweep",
    "write_sweep_csv",
    "find_transcritical",
]


class UnsupportedPairError(ValueError):
    """The requested equilibrium pair has no implemented exchange margin."""


class NoSignChangeError(ValueError):
    """The exchange margin does not change sign over the search range."""


@dataclass(frozen=True)
class SweepRow:
    """One equilibrium at one parameter value."""

    param_value: float
    id: str
    coordinates: np.ndarray | None
    feasible: bool
    classification: str | None
    lead_real_part: float


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    values: np.ndarray
    rows: list[SweepRow]


def _check_window(params: ModelParameters, parameter: str, lo: float, hi: float) -> None:
    """Reject an unknown parameter, ``lo >= hi`` or an invalid end: validity
    is componentwise, so valid ends make the whole window valid."""
    if parameter not in PARAMETER_KEYS:
        raise ValueError(f"unknown parameter {parameter!r}; expected one of {PARAMETER_KEYS}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    params.replace(**{parameter: lo})
    params.replace(**{parameter: hi})


def sweep(
    params: ModelParameters,
    parameter: str,
    lo: float,
    hi: float,
    count: int,
) -> SweepResult:
    """Catalog and classify every equilibrium across a parameter grid.

    Each row's class and lead real part come from the spectrum that
    ``stability.classify`` reports, so they equal its verdict's bit for
    bit; the rest of that verdict is left to ``classify``. Degenerate
    points (vanishing closed-form denominators at isolated grid values)
    produce rows with missing coordinates rather than aborting the sweep.
    """
    _check_window(params, parameter, lo, hi)
    _check_count("count", count, 2)

    values = np.linspace(lo, hi, count)
    rows: list[SweepRow] = []
    for v in values:
        p = params.replace(**{parameter: float(v)})
        for rec in catalog(p):
            if rec.coordinates is None:
                rows.append(SweepRow(float(v), rec.id, None, False, None, math.nan))
                continue
            eigs = _spectrum(p, rec)
            cls, lead = classify_eigenvalues(eigs), float(eigs[0].real)
            rows.append(SweepRow(float(v), rec.id, rec.coordinates, rec.feasible, cls, lead))
    return SweepResult(parameter=parameter, values=values, rows=rows)


def write_sweep_csv(result: SweepResult, stream: IO[str]) -> None:
    """Long-format CSV: param_value,id,P,S,V,W,feasible,class,lead_re."""
    stream.write("param_value,id,P,S,V,W,feasible,class,lead_re\n")
    for row in result.rows:
        if row.coordinates is None:
            coords = ",,,"
            cls = ""
            lead = ""
        else:
            coords = ",".join(f"{c:.17g}" for c in row.coordinates)
            cls = row.classification or ""
            lead = f"{row.lead_real_part:.17g}"
        stream.write(
            f"{row.param_value:.17g},{row.id},{coords},{str(row.feasible).lower()},{cls},{lead}\n"
        )


# ----------------------------------------------------------------------
# Transcritical crossings
# ----------------------------------------------------------------------

# Signed margins that vanish exactly where the two equilibria exchange.
# Each is a smooth closed-form expression of the parameters, cheap to
# bisect without computing the equilibria themselves. They read only
# attributes, so they also take a plain view of the parameter fields.
_MARGINS: dict[tuple[str, str], Callable[[ModelParameters], float]] = {
    ("E2", "E4"): lambda p: p.lam * p.K - (p.psi + p.mu),
    ("E2", "E5"): lambda p: p.beta * p.K - (p.phi + p.nu),
    ("E4", "E6"): lambda p: p.lam * p.s - p.a * (p.mu + p.psi),
    ("E5", "E7"): lambda p: p.beta * p.s - p.a * (p.nu + p.phi),
    ("E1", "E3"): lambda p: p.b * p.L - p.r,
    ("E2", "E3"): lambda p: p.a * p.K - p.s,
}

SUPPORTED_PAIRS = tuple(sorted(_MARGINS))


@dataclass(frozen=True)
class TranscriticalPoint:
    """A located equilibrium exchange.

    ``crossing_index`` is the position (in each member's spectrum sorted
    by descending real part) of the eigenvalue that crosses zero.
    ``coincidence_gap`` is the max-norm distance between the two
    equilibria at the critical parameter value; ``crossing_real_part`` is
    the largest magnitude among the two members' near-zero eigenvalue
    real parts. Both are validation residuals, small by construction.
    """

    parameter: str
    critical_value: float
    pair: tuple[str, str]
    crossing_index: tuple[int, int]
    coincidence_gap: float
    crossing_real_part: float


def find_transcritical(
    params: ModelParameters,
    parameter: str,
    pair: tuple[str, str],
    lo: float,
    hi: float,
) -> TranscriticalPoint:
    """Bisect for the parameter value where two equilibria exchange.

    The search margin must change sign over [lo, hi] (an endpoint sitting
    exactly on the crossing counts). Bisection runs until the midpoint
    rounds onto a bracket end, so the bracket is two adjacent floats, and
    the end with the smaller |margin| is returned. The result is
    validated: at the critical value the two equilibria coincide within
    1e-8 and each has an eigenvalue with |real part| <= 1e-8.
    """
    _check_window(params, parameter, lo, hi)
    key = tuple(sorted(pair))
    margin_fn = _MARGINS.get(key)
    if margin_fn is None:
        raise UnsupportedPairError(
            f"no exchange margin for pair {pair}; supported: {SUPPORTED_PAIRS}"
        )
    # Valid ends make the whole window valid, so the bisection steps need
    # not rebuild ModelParameters.
    view = types.SimpleNamespace(**vars(params))
    field = _FIELDS[parameter]

    def margin(v: float) -> float:
        setattr(view, field, float(v))
        return margin_fn(view)

    g_lo = margin(lo)
    g_hi = margin(hi)
    band = 1e-13 * max(1.0, abs(g_lo), abs(g_hi))
    if abs(g_lo) <= band:
        critical = lo
    elif abs(g_hi) <= band:
        critical = hi
    elif (g_lo > 0.0) == (g_hi > 0.0):
        raise NoSignChangeError(
            f"margin for {key} has the same sign at both ends of "
            f"[{lo}, {hi}]: {g_lo:.6g} and {g_hi:.6g}"
        )
    else:
        a, b, ga, gb = lo, hi, g_lo, g_hi
        mid = 0.5 * (a + b)
        while a < mid < b:
            gm = margin(mid)
            if gm == 0.0:
                a = b = mid
                break
            if (gm > 0.0) == (ga > 0.0):
                a, ga = mid, gm
            else:
                b, gb = mid, gm
            mid = 0.5 * (a + b)
        critical = a if abs(ga) <= abs(gb) else b

    p_crit = params.replace(**{parameter: critical})
    records = [compute_equilibrium(p_crit, eq_id) for eq_id in key]
    gap = float(np.max(np.abs(records[0].coordinates - records[1].coordinates)))

    crossing_idx = []
    crossing_re = 0.0
    for rec in records:
        re = np.abs(_spectrum(p_crit, rec).real)
        idx = int(np.argmin(re))
        crossing_idx.append(idx)
        crossing_re = max(crossing_re, float(re[idx]))

    if gap > 1e-8 or crossing_re > 1e-8:
        raise RuntimeError(
            f"crossing located at {parameter}={critical!r} failed validation: "
            f"coincidence gap {gap:.3g}, crossing eigenvalue real part {crossing_re:.3g}"
        )

    return TranscriticalPoint(
        parameter=parameter,
        critical_value=float(critical),
        pair=key,
        crossing_index=(crossing_idx[0], crossing_idx[1]),
        coincidence_gap=gap,
        crossing_real_part=crossing_re,
    )
