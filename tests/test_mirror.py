"""The strain mirror: swapping the two strains maps the model onto itself.

Exchanging V with W and the strain-one rates (lam, psi, mu, e) with the
strain-two rates (beta, phi, nu, f) turns every closed form for one strain
into the same expression for the other. So each result for ``p`` must
equal, bit for bit, the mirrored result for ``mirror(p)``.
"""

import numpy as np
import pytest

from conftest import draw_parameter_matrix, params_from_row
from twostrain.bifurcation import find_transcritical
from twostrain.equilibria import catalog
from twostrain.stability import analytic_eigenvalues, classify

# Equilibrium ids of each strain, paired with their mirror.
_MIRROR_IDS = {"E0": "E0", "E1": "E1", "E2": "E2", "E3": "E3", "E4": "E5", "E5": "E4", "E6": "E7", "E7": "E6"}
# State order of the mirrored point: V and W exchanged.
_SWAP_VW = [0, 1, 3, 2]
# Points that carry a transverse row and a subcritical slack for each strain,
# strain one's first; the other points carry their own strain's alone.
_BOTH_STRAINS = ("E0", "E1", "E2", "E3")


def mirror(p):
    return p.replace(lam=p.beta, beta=p.lam, psi=p.phi, phi=p.psi, mu=p.nu, nu=p.mu, e=p.f, f=p.e)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def thresholds(rec, swap_strains: bool = False) -> str:
    """Every threshold a record carries (margins, in-face and across slacks,
    transverse rows); ``swap_strains`` puts them in the order its mirror's are in."""
    transverse, across = list(rec.transverse), list(rec.across.values())
    if swap_strains and rec.id in _BOTH_STRAINS:
        transverse, across = transverse[::-1], across[::-1]
    # repr, so that NaN slacks compare equal too.
    return repr([*rec.margins.values(), *rec.in_face.values(), *transverse, *across])


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as err:  # the two sides must fail alike
        return type(err)


@pytest.fixture(scope="module")
def mirrored_draws():
    rng = np.random.default_rng(29)
    return [(params_from_row(row), mirror(params_from_row(row))) for row in draw_parameter_matrix(rng, 300)]


def test_mirror_is_an_involution(mirrored_draws):
    for p, q in mirrored_draws:
        assert mirror(q) == p


def test_thresholds(mirrored_draws):
    for p, q in mirrored_draws:
        mirrored = {rec.id: rec for rec in catalog(q)}
        for rec in catalog(p):
            assert thresholds(rec, swap_strains=True) == thresholds(mirrored[_MIRROR_IDS[rec.id]]), (rec.id, p)


def test_catalog_records(mirrored_draws):
    for p, q in mirrored_draws:
        mirrored = {rec.id: rec for rec in catalog(q)}
        for rec in catalog(p):
            twin = mirrored[_MIRROR_IDS[rec.id]]
            assert _bits(rec.coordinates) == _bits(twin.coordinates[_SWAP_VW]), (rec.id, p)
            assert (rec.feasible, rec.marginal) == (twin.feasible, twin.marginal)
            assert _bits(list(rec.margins.values())) == _bits(list(twin.margins.values()))


def test_analytic_spectra(mirrored_draws):
    for p, q in mirrored_draws:
        for eq_id in ("E0", "E1", "E2", "E3", "E4", "E5"):
            mine = analytic_eigenvalues(p, eq_id)
            theirs = analytic_eigenvalues(q, _MIRROR_IDS[eq_id])
            assert mine.tobytes() == theirs.tobytes(), (eq_id, p)


def test_verdicts(mirrored_draws):
    for p, q in mirrored_draws:
        for eq_id in ("E4", "E5", "E6", "E7"):
            mine = _outcome(classify, p, eq_id)
            theirs = _outcome(classify, q, _MIRROR_IDS[eq_id])
            if isinstance(mine, type) or isinstance(theirs, type):
                assert mine is theirs, (eq_id, p)
                continue
            assert mine.classification == theirs.classification, (eq_id, p)
            assert _bits(list(mine.condition_report.values())) == _bits(
                list(theirs.condition_report.values())
            )


@pytest.mark.parametrize("parameter", ["K", "a"])
@pytest.mark.parametrize("pair, twin", [(("E2", "E4"), ("E2", "E5")), (("E4", "E6"), ("E5", "E7"))])
def test_transcritical_crossings(mirrored_draws, parameter, pair, twin):
    located = 0
    for p, q in mirrored_draws:
        mine = _outcome(find_transcritical, p, parameter, pair, 0.1, 2.0)
        theirs = _outcome(find_transcritical, q, parameter, twin, 0.1, 2.0)
        if isinstance(mine, type) or isinstance(theirs, type):
            assert mine is theirs, p
            continue
        located += 1
        assert repr(mine.critical_value) == repr(theirs.critical_value), p
        assert mine.crossing_index == theirs.crossing_index
        assert repr(mine.coincidence_gap) == repr(theirs.coincidence_gap)
        assert repr(mine.crossing_real_part) == repr(theirs.crossing_real_part)
    # Only one of the two parameters enters each pair's margin:
    # lam*K - (psi + mu) for (E2, E4) and lam*s - a*(mu + psi) for (E4, E6).
    varies = {("E2", "E4"): "K", ("E4", "E6"): "a"}[pair] == parameter
    assert (located > 0) == varies
