"""Face equilibria are the full-space closed forms seen inside a face.

Each face id (``Q0``..``Q3``, ``SV_endemic``) is one of E0..E4 restricted
to an invariant face: same coordinates and margins, the in-face part of
its spectrum and of its condition report, and the same degenerate cases
under its own id. The digests pin the exact serialized output on three
presets, so a refactor of the closed forms cannot move a bit unnoticed.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from conftest import draw_parameter_matrix, params_from_row
from twostrain import figures
from twostrain.equilibria import (
    ALL_IDS,
    FACE_EQUILIBRIUM_IDS,
    DegenerateEquilibriumError,
    compute_equilibrium,
    records_to_jsonl,
)
from twostrain.stability import analytic_eigenvalues, classify, verdicts_to_jsonl

# Each face id with the full-space id it is a view of, written out here
# rather than read from the library.
_FULL_ID = {"Q0": "E0", "Q1": "E1", "Q2": "E2", "Q3": "E3", "SV_endemic": "E4"}

# sha256 of records_to_jsonl, verdicts_to_jsonl and the concatenated
# closed-form spectrum bytes over ALL_IDS (E6 and E7 have no closed form).
_DIGESTS = {
    "_BASE": (
        "bc13ab93f64df7cd3ce87a48a02f8e843f7efcfafb39a977b35a2281d2a0227d",
        "d910e9b9fb84c3e7ac0413f3a319c7861c1c939aee1c406205e4619d8b6ba61d",
        "edf2d428291718a5ac188165969aef5d2041ad8b838b9812e821f57d2823ff04",
    ),
    "_BASIN": (
        "88bce69dcb861fd68644c9e86e22ec0ac041999e6c9cf42157ea635c36430936",
        "7b7dbb6fdae79c06233d5b4a04c51bce030d746412c4c6c7ff606ebf9d195c28",
        "1e9b4dfcc25a6d6e2e0a1ea27f6209df9f1fe24a89a239ec1777bd618673d25c",
    ),
    "_SMALL": (
        "3e3cebb1af1422b5bc3ac8f1c21e59e714a0785ef767e9f9738d0de5515db3e1",
        "fdb64d146df8ee66ab239c6cda8fdcf5db7e17d67750501682c02a6e2e881e4f",
        "e4789b00e1424e79547bd23ba3c4026dde8e0f4b18464f6f7449e2ebbd383557",
    ),
}

_RATES = ("lam", "beta", "psi", "phi", "mu", "nu", "e", "f")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the DegenerateEquilibriumError it raised."""
    try:
        return fn(*args)
    except DegenerateEquilibriumError as err:
        return err


def _draws(n: int = 300):
    """Conftest draws; one in five with a strain rate zeroed, a few with b*L*K*a = r*s."""
    rng = np.random.default_rng(1919)
    for i, row in enumerate(draw_parameter_matrix(rng, n)):
        p = params_from_row(row)
        if i % 5 == 0:
            p = p.replace(**{str(rng.choice(_RATES)): 0.0})
        if i % 37 == 1:
            p = p.replace(b=p.r * p.s / (p.L * p.K * p.a))
        yield p


def test_face_ids_are_the_table_of_full_ids():
    assert FACE_EQUILIBRIUM_IDS == tuple(_FULL_ID)
    assert ALL_IDS[-len(FACE_EQUILIBRIUM_IDS):] == FACE_EQUILIBRIUM_IDS


@pytest.mark.parametrize("preset", sorted(_DIGESTS))
def test_outputs_are_pinned(preset):
    p = getattr(figures, preset)
    records = records_to_jsonl([compute_equilibrium(p, eq_id) for eq_id in ALL_IDS])
    verdicts = verdicts_to_jsonl([classify(p, eq_id) for eq_id in ALL_IDS])
    spectra = b"".join(analytic_eigenvalues(p, eq_id).tobytes() for eq_id in ALL_IDS if eq_id not in ("E6", "E7"))
    assert (_sha(records.encode()), _sha(verdicts.encode()), _sha(spectra)) == _DIGESTS[preset]


def test_faces_are_views_of_their_full_ids():
    degenerate = set()
    for p in _draws():
        for face_id, full_id in _FULL_ID.items():
            face, full = _outcome(compute_equilibrium, p, face_id), _outcome(compute_equilibrium, p, full_id)
            if isinstance(full, DegenerateEquilibriumError):
                assert isinstance(face, DegenerateEquilibriumError)
                assert (face.eq_id, face.expression) == (face_id, full.expression)
                assert str(face) == f"{face_id} undefined: {full.expression} vanishes"
                degenerate.add(face_id)
                continue
            assert face.coordinates.tobytes() == full.coordinates.tobytes()
            assert (face.feasible, face.marginal, face.margins) == (full.feasible, full.marginal, full.margins)
            assert face.subsystem != "full" and full.subsystem == "full"
            # The record keeps the in-face part only; repr, so that NaN entries compare equal.
            assert (face.transverse, face.across) == ([], {}) and len(full.transverse) == 2
            assert (repr(face.pair), repr(face.in_face)) == (repr(full.pair), repr(full.in_face))

            face_eigs = _outcome(analytic_eigenvalues, p, face_id)
            full_eigs = _outcome(analytic_eigenvalues, p, full_id)
            if isinstance(full_eigs, DegenerateEquilibriumError):
                assert isinstance(face_eigs, DegenerateEquilibriumError)
                assert (face_eigs.eq_id, face_eigs.expression) == (face_id, full_eigs.expression)
                continue
            in_face = Counter(face_eigs.tolist())
            assert len(face_eigs) == 2 and not in_face - Counter(full_eigs.tolist())

            face_report = classify(p, face_id).condition_report.items()
            assert face_report <= classify(p, full_id).condition_report.items()
    # Q0-Q2 have no denominator; Q3 and SV_endemic met degenerate draws.
    assert degenerate == {"Q3", "SV_endemic"}


def test_a_degenerate_face_error_names_the_face(fig1_params):
    with pytest.raises(DegenerateEquilibriumError, match=r"^SV_endemic undefined: lambda vanishes$"):
        compute_equilibrium(fig1_params.replace(lam=0.0), "SV_endemic")
    with pytest.raises(DegenerateEquilibriumError, match=r"^SV_endemic undefined: mu vanishes$"):
        analytic_eigenvalues(fig1_params.replace(mu=0.0), "SV_endemic")
