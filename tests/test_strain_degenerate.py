"""Strain closed forms where a rate vanishes: the exact text, and the mirror.

``test_mirror`` compares numbers on draws whose rates are all positive, so
neither the strain-specific text (notes, margin and condition-report keys,
degenerate-expression messages) nor the degenerate paths are compared
there. The first half of this file pins that text as literal strings; the
second half checks that zeroing a rate of one strain fails, or leaves a
point degenerate, exactly as zeroing its twin does for the other strain.
"""

import re

import numpy as np
import pytest

from conftest import draw_parameter_matrix, params_from_row
from test_mirror import _MIRROR_IDS, _SWAP_VW, mirror, thresholds
from twostrain.equilibria import DegenerateEquilibriumError, catalog, compute_equilibrium
from twostrain.stability import analytic_eigenvalues, classify


def _zeroed(params, *names):
    return params.replace(**{name: 0.0 for name in names})


@pytest.mark.parametrize(
    "zeros, eq_id, expression",
    [
        (("lam",), "E4", "lambda"),
        (("lam",), "SV_endemic", "lambda"),
        (("mu",), "E4", "mu"),
        (("beta",), "E5", "beta"),
        (("nu",), "E5", "nu"),
        (("lam", "e"), "E6", "lambda*s + e*L*a"),
        (("beta", "f"), "E7", "beta*s + f*L*a"),
        (("lam", "psi"), "E6", "F = s*lambda*e*L + s*lambda*mu - psi*e*L*a"),
        (("beta", "phi"), "E7", "Fhat = s*beta*f*L + s*beta*nu - phi*f*L*a"),
    ],
)
def test_degenerate_equilibrium_text(fig1_params, zeros, eq_id, expression):
    _assert_degenerate_text(_zeroed(fig1_params, *zeros), eq_id, expression)


@pytest.mark.parametrize(
    "rate, eq_id, expression",
    [
        ("lam", "E4", "K*lambda**2*mu"),
        ("lam", "SV_endemic", "K*lambda**2*mu"),
        ("beta", "E5", "K*beta**2*nu"),
    ],
)
def test_an_underflowing_infected_denominator_is_degenerate(fig1_params, rate, eq_id, expression):
    # 1e-170 is a valid rate, but K * rate**2 * mu underflows to 0, while
    # K * rate * mu (the spectrum's denominator) does not.
    _assert_degenerate_text(fig1_params.replace(**{rate: 1e-170}), eq_id, expression)


def test_an_underflowing_infected_denominator_mirrors(fig1_params):
    p = fig1_params.replace(lam=1e-170)
    q = mirror(p)
    assert q.beta == 1e-170
    mirrored = {rec.id: rec for rec in catalog(q)}
    for rec in catalog(p):
        twin = mirrored[_MIRROR_IDS[rec.id]]
        if rec.coordinates is None:
            assert twin.coordinates is None, rec.id
            assert twin.notes == rec.notes.replace("lambda", "beta").replace("mu", "nu"), rec.id
        else:
            assert rec.coordinates.tobytes() == twin.coordinates[_SWAP_VW].tobytes(), rec.id
    assert [rec.id for rec in catalog(p) if rec.coordinates is None] == ["E4"]


_MIXED_ONE, _MIXED_TWO = "K*(lambda*s + e*L*a)*F", "K*(beta*s + f*L*a)*Fhat"


@pytest.mark.parametrize(
    "change, eq_id, expression",
    [
        ({"K": 5e-324}, "E6", _MIXED_ONE),
        ({"K": 5e-324}, "E7", _MIXED_TWO),
        ({"mu": 1e-310}, "E4", "K*lambda**2*mu"),
        ({"mu": 1e-310}, "SV_endemic", "K*lambda**2*mu"),
        ({"nu": 1e-310}, "E5", "K*beta**2*nu"),
        ({"K": 1e-310}, "E4", "K*lambda**2*mu"),
        ({"K": 1e-310}, "E5", "K*beta**2*nu"),
        ({"K": 1e-310}, "E6", _MIXED_ONE),
        ({"K": 1e-310}, "E7", _MIXED_TWO),
    ],
)
def test_a_subnormal_denominator_is_degenerate(fig1_params, change, eq_id, expression):
    # At K = 5e-324 the infected denominator K*(lambda*s + e*L*a)*F
    # underflows to 0. At 1e-310 the denominators are subnormal but not 0,
    # and the infected coordinate overflows to an infinity.
    _assert_degenerate_text(fig1_params.replace(**change), eq_id, expression)


# Each strain's names in the degenerate texts, paired with the other strain's.
_TEXT_TWIN = {"lambda": "beta", "psi": "phi", "mu": "nu", "e": "f", "F": "Fhat"}
_TEXT_TWIN.update({two: one for one, two in _TEXT_TWIN.items()})


@pytest.mark.parametrize(
    "change, degenerate",
    [
        ({"K": 5e-324}, ["E4", "E5", "E6", "E7"]),
        ({"K": 1e-310}, ["E4", "E5", "E6", "E7"]),
        ({"mu": 1e-310}, ["E4"]),
    ],
)
def test_a_subnormal_denominator_mirrors(fig1_params, change, degenerate):
    p = fig1_params.replace(**change)
    mirrored = {rec.id: rec for rec in catalog(mirror(p))}
    for rec in catalog(p):
        twin = mirrored[_MIRROR_IDS[rec.id]]
        if rec.coordinates is None:
            assert twin.coordinates is None, rec.id
            assert twin.notes == re.sub(r"\w+", lambda m: _TEXT_TWIN.get(m[0], m[0]), rec.notes), rec.id
        else:
            # No record lies at infinity.
            assert np.isfinite(rec.coordinates).all(), rec.id
            assert rec.coordinates.tobytes() == twin.coordinates[_SWAP_VW].tobytes(), rec.id
    assert [rec.id for rec in catalog(p) if rec.coordinates is None] == degenerate


def _assert_degenerate_text(params, eq_id, expression):
    with pytest.raises(DegenerateEquilibriumError) as info:
        compute_equilibrium(params, eq_id)
    assert info.value.expression == expression
    assert str(info.value) == f"{eq_id} undefined: {expression} vanishes"
    if eq_id in ("E4", "E5", "E6", "E7"):
        note = {rec.id: rec.notes for rec in catalog(params)}[eq_id]
        assert note == f"degenerate: {expression} vanishes"
    # The spectra read the record, so they fail with its text, E6 and E7
    # (which have no closed form) included.
    for fn in (classify, analytic_eigenvalues):
        with pytest.raises(DegenerateEquilibriumError) as other:
            fn(params, eq_id)
        assert str(other.value) == str(info.value), fn.__name__


@pytest.mark.parametrize(
    "zeros, eq_id, expression",
    [
        (("lam",), "E4", "lambda"),
        (("mu",), "SV_endemic", "mu"),
        (("beta",), "E5", "beta"),
        (("nu",), "E5", "nu"),
    ],
)
def test_degenerate_spectrum_text(fig1_params, zeros, eq_id, expression):
    with pytest.raises(DegenerateEquilibriumError) as info:
        analytic_eigenvalues(_zeroed(fig1_params, *zeros), eq_id)
    assert str(info.value) == f"{eq_id} undefined: {expression} vanishes"


def test_notes_and_margin_keys(fig1_params):
    mixed = ["infected_branch_positive", "first_competitor_positive"]
    expected = {
        "E4": ("strain one endemic, first competitor absent", ["strain_one_invades"], "full"),
        "SV_endemic": ("strain one endemic, first competitor absent", ["strain_one_invades"], "one_strain_SV"),
        "E5": ("strain two endemic, first competitor absent", ["strain_two_invades"], "full"),
        "E6": ("strain one endemic alongside the first competitor", mixed, "full"),
        "E7": ("strain two endemic alongside the first competitor", mixed, "full"),
    }
    for eq_id, (notes, keys, subsystem) in expected.items():
        rec = compute_equilibrium(fig1_params, eq_id)
        assert (rec.notes, list(rec.margins), rec.subsystem) == (notes, keys, subsystem), eq_id


@pytest.mark.parametrize(
    "zeros, eq_id, ordinal", [(("b", "e"), "E6", "one"), (("b", "f"), "E7", "two")]
)
def test_note_without_the_lower_threshold(fig1_params, zeros, eq_id, ordinal):
    rec = compute_equilibrium(_zeroed(fig1_params, *zeros), eq_id)
    assert rec.notes == (
        f"strain {ordinal} endemic alongside the first competitor; "
        "lower feasibility threshold undefined, using coordinate sign"
    )
    assert list(rec.margins) == ["infected_branch_positive", "first_competitor_positive"]


def test_condition_report_keys(fig1_params):
    endemic = ["endemic_damping", "endemic_discriminant"]
    assert list(classify(fig1_params, "E4").condition_report) == endemic + ["first_excluded", "strain_two_subcritical"]
    assert list(classify(fig1_params, "E5").condition_report) == endemic + ["first_excluded", "strain_one_subcritical"]
    assert list(classify(fig1_params, "SV_endemic").condition_report) == endemic


# ----------------------------------------------------------------------
# The mirror where a strain rate is zero
# ----------------------------------------------------------------------

_ZERO_SETS = [("lam",), ("psi",), ("mu",), ("e",), ("beta",), ("phi",), ("nu",), ("f",), ("lam", "psi")]


def _failure(fn, *args):
    """The type of the exception ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except Exception as err:  # the two sides must fail alike
        return type(err)
    return None


@pytest.fixture(scope="module")
def zero_rate_draws():
    rng = np.random.default_rng(31)
    draws = [params_from_row(row) for row in draw_parameter_matrix(rng, 30)]
    return [(p, mirror(p)) for p in (_zeroed(base, *zeros) for base in draws for zeros in _ZERO_SETS)]


def test_zero_rate_catalog(zero_rate_draws):
    for p, q in zero_rate_draws:
        mirrored = {rec.id: rec for rec in catalog(q)}
        for rec in catalog(p):
            twin = mirrored[_MIRROR_IDS[rec.id]]
            assert (rec.coordinates is None) == (twin.coordinates is None), (rec.id, p)
            if rec.coordinates is not None:
                assert rec.coordinates.tobytes() == twin.coordinates[_SWAP_VW].tobytes(), (rec.id, p)


def test_zero_rate_thresholds(zero_rate_draws):
    for p, q in zero_rate_draws:
        mirrored = {rec.id: rec for rec in catalog(q)}
        for rec in catalog(p):
            assert thresholds(rec, swap_strains=True) == thresholds(mirrored[_MIRROR_IDS[rec.id]]), (rec.id, p)


def test_zero_rate_failures(zero_rate_draws):
    for p, q in zero_rate_draws:
        for eq_id, twin in _MIRROR_IDS.items():
            assert _failure(compute_equilibrium, p, eq_id) is _failure(compute_equilibrium, q, twin), (eq_id, p)
            assert _failure(classify, p, eq_id) is _failure(classify, q, twin), (eq_id, p)
            assert _failure(analytic_eigenvalues, p, eq_id) is _failure(analytic_eigenvalues, q, twin), (eq_id, p)
