"""Strain closed forms where a rate vanishes: the exact text, and the mirror.

``test_mirror`` compares numbers on draws whose rates are all positive, so
neither the strain-specific text (notes, margin and condition-report keys,
degenerate-expression messages) nor the degenerate paths are compared
there. The first half of this file pins that text as literal strings; the
second half checks that zeroing a rate of one strain fails, or leaves
undefined, exactly what zeroing its twin does for the other strain.
"""

import numpy as np
import pytest

from conftest import draw_parameter_matrix, params_from_row
from test_mirror import _MIRROR_IDS, _MIRROR_THRESHOLDS, _SWAP_VW, mirror
from twostrain.equilibria import DegenerateEquilibriumError, catalog, compute_equilibrium, thresholds
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
    params = _zeroed(fig1_params, *zeros)
    with pytest.raises(DegenerateEquilibriumError) as info:
        compute_equilibrium(params, eq_id)
    assert info.value.expression == expression
    assert str(info.value) == f"{eq_id} undefined: {expression} vanishes"
    if eq_id in ("E4", "E5", "E6", "E7"):
        note = {rec.id: rec.notes for rec in catalog(params)}[eq_id]
        assert note == f"degenerate: {expression} vanishes"


@pytest.mark.parametrize(
    "zeros, eq_id, expression",
    [
        (("lam",), "E4", "lambda*mu"),
        (("mu",), "SV_endemic", "lambda*mu"),
        (("beta",), "E5", "beta*nu"),
        (("nu",), "E5", "beta*nu"),
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
    endemic = ["endemic_damping", "endemic_damping_variant", "endemic_discriminant"]
    assert list(classify(fig1_params, "E4").condition_report) == endemic + ["first_excluded", "strain_two_subcritical"]
    assert list(classify(fig1_params, "E5").condition_report) == endemic + ["first_excluded", "strain_one_subcritical"]
    assert list(classify(fig1_params, "SV_endemic").condition_report) == endemic


def test_undefined_thresholds_keep_their_order(fig1_params):
    assert thresholds(_zeroed(fig1_params, "lam", "beta", "e", "f")).undefined == ("A", "B", "N", "Nhat")
    every_rate = ("lam", "psi", "mu", "e", "beta", "phi", "nu", "f")
    assert thresholds(_zeroed(fig1_params, *every_rate)).undefined == (
        "A", "B", "M", "N", "G", "Mhat", "Nhat", "Ghat"
    )


# ----------------------------------------------------------------------
# The mirror where a strain rate is zero
# ----------------------------------------------------------------------

_ZERO_SETS = [("lam",), ("psi",), ("mu",), ("e",), ("beta",), ("phi",), ("nu",), ("f",), ("lam", "psi")]
_THRESHOLD_TWIN = {one: two for pair in _MIRROR_THRESHOLDS for one, two in (pair, pair[::-1])}


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


def test_zero_rate_thresholds(zero_rate_draws):
    for p, q in zero_rate_draws:
        tp, tq = thresholds(p), thresholds(q)
        assert sorted(_THRESHOLD_TWIN[name] for name in tp.undefined) == sorted(tq.undefined), p
        for one, two in _MIRROR_THRESHOLDS:
            assert repr(getattr(tp, one)) == repr(getattr(tq, two)), (one, p)


def test_zero_rate_catalog(zero_rate_draws):
    for p, q in zero_rate_draws:
        mirrored = {rec.id: rec for rec in catalog(q)}
        for rec in catalog(p):
            twin = mirrored[_MIRROR_IDS[rec.id]]
            assert (rec.coordinates is None) == (twin.coordinates is None), (rec.id, p)
            if rec.coordinates is not None:
                assert rec.coordinates.tobytes() == twin.coordinates[_SWAP_VW].tobytes(), (rec.id, p)


def test_zero_rate_failures(zero_rate_draws):
    for p, q in zero_rate_draws:
        for eq_id, twin in _MIRROR_IDS.items():
            assert _failure(compute_equilibrium, p, eq_id) is _failure(compute_equilibrium, q, twin), (eq_id, p)
            assert _failure(classify, p, eq_id) is _failure(classify, q, twin), (eq_id, p)
            assert _failure(analytic_eigenvalues, p, eq_id) is _failure(analytic_eigenvalues, q, twin), (eq_id, p)
