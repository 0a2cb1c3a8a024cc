"""Vector field, Jacobian, parameter validation and population bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import draw_parameter_matrix, params_from_row
from twostrain.model import (
    PARAMETER_KEYS,
    BoundednessCertificate,
    ModelParameters,
    StateVector,
    _field,
    _field_jacobian,
    boundedness_certificate,
    jacobian,
    rhs,
    scalar_field,
    total_population,
)

# The invariant two-species faces: the indices of the compartments each
# keeps; the other two are zero.
_FACE_INDICES = {
    "competition_PS": (0, 1),
    "one_strain_SV": (1, 2),
    "one_strain_SW": (1, 3),
}


def _embed(face: str, u: tuple[float, float]) -> np.ndarray:
    x = np.zeros(4)
    i, j = _FACE_INDICES[face]
    x[i], x[j] = u
    return x


def _random_rows(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameter rows and states, a quarter of the state components zero."""
    rng = np.random.default_rng(seed)
    matrix = draw_parameter_matrix(rng, n)
    states = rng.uniform(0.0, 5.0, size=(n, 4))
    states[rng.random((n, 4)) < 0.25] = 0.0
    return matrix, states


class TestRhs:
    def test_hand_computed_value(self, fig1_params):
        # P' = 0.4(1 - 1/1.5) - 0.3, S' = 0.35 - 0.7 - 0.7 - 0.2 + 0.2 + 0.7,
        # V' = 0.7 - 0.2 - 0.5 - 0.2, W' = 0.2 - 0.7 - 0.9 - 0.2
        out = rhs(fig1_params, (1.0, 1.0, 1.0, 1.0))
        expected = np.array([-1.0 / 6.0, -7.0 / 20.0, -1.0 / 5.0, -8.0 / 5.0])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_vanishes_at_endemic_rest_point(self, fig1_params):
        out = rhs(fig1_params, (0.0, 1.0, 0.7, 0.0))
        np.testing.assert_allclose(out, 0.0, rtol=0, atol=1e-15)

    def test_origin_is_a_rest_point(self, fig1_params):
        assert np.all(rhs(fig1_params, (0.0, 0.0, 0.0, 0.0)) == 0.0)

    def test_scalar_field_matches_array_form(self, fig1_params):
        rng = np.random.default_rng(3)
        field = scalar_field(fig1_params)
        for _ in range(20):
            x = rng.uniform(0.0, 4.0, size=4)
            np.testing.assert_array_equal(np.asarray(field(*x)), rhs(fig1_params, x))

    def test_batched_rows_match_rhs_bit_for_bit(self):
        # batched_newton evaluates the same formula on columns; a row that
        # differs from rhs would mean the two forms have drifted apart.
        matrix, states = _random_rows(17, 300)
        rows = np.column_stack(_field(*states.T, *matrix.T))
        for params_row, x, row in zip(matrix, states, rows):
            assert row.tobytes() == rhs(params_from_row(params_row), x).tobytes()

    def test_accepts_state_vector_input(self, fig1_params):
        sv = StateVector(0.0, 1.0, 0.7, 0.0)
        np.testing.assert_array_equal(rhs(fig1_params, sv), rhs(fig1_params, tuple(sv)))


class TestJacobian:
    def test_value_at_origin(self, fig1_params):
        p = fig1_params
        expected = np.zeros((4, 4))
        expected[0, 0] = p.s
        expected[1, 1] = p.r
        expected[1, 2] = p.psi
        expected[1, 3] = p.phi
        expected[2, 2] = -(p.psi + p.mu)
        expected[3, 3] = -(p.phi + p.nu)
        np.testing.assert_array_equal(jacobian(p, (0.0, 0.0, 0.0, 0.0)), expected)

    def test_structural_zeros(self):
        rng = np.random.default_rng(5)
        for row in draw_parameter_matrix(rng, 20):
            p = params_from_row(row)
            J = jacobian(p, rng.uniform(0.0, 5.0, size=4))
            # P does not react to the infected classes directly, and the
            # two strains never convert into each other.
            assert J[0, 2] == 0.0 and J[0, 3] == 0.0
            assert J[2, 3] == 0.0 and J[3, 2] == 0.0

    def test_batched_rows_match_jacobian_bit_for_bit(self):
        matrix, states = _random_rows(19, 300)
        blocks = _field_jacobian(*states.T, *matrix.T)
        assert blocks.shape == (300, 4, 4)
        for params_row, x, block in zip(matrix, states, blocks):
            assert block.tobytes() == jacobian(params_from_row(params_row), x).tobytes()

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for row in draw_parameter_matrix(rng, 100):
            p = params_from_row(row)
            x = rng.uniform(0.0, 5.0, size=4)
            J = jacobian(p, x)
            fd = np.zeros((4, 4))
            for j in range(4):
                step = np.zeros(4)
                step[j] = h
                fd[:, j] = (rhs(p, x + step) - rhs(p, x - step)) / (2.0 * h)
            assert np.all(np.abs(fd - J) <= 1e-6 * (1.0 + np.abs(J)))


class TestTotalPopulation:
    def test_examples(self):
        assert total_population((0.0, 0.0, 0.0, 0.0)) == 0.0
        assert total_population((0.0, 1.0, 0.7, 0.0)) == pytest.approx(1.7)
        assert total_population((1.7, 0.8, 0.1, 0.1)) == pytest.approx(2.7)


class TestParameterValidation:
    def test_negative_rate_rejected(self, fig1_params):
        with pytest.raises(ValueError, match="must be >= 0"):
            fig1_params.replace(a=-0.1)

    def test_zero_growth_rate_rejected(self, fig1_params):
        with pytest.raises(ValueError, match="must be > 0"):
            fig1_params.replace(s=0.0)

    def test_nonfinite_rejected(self, fig1_params):
        with pytest.raises(ValueError, match="finite"):
            fig1_params.replace(mu=math.inf)

    def test_lambda_key_round_trip(self, fig1_params):
        d = fig1_params.as_dict()
        assert tuple(d) == PARAMETER_KEYS
        assert d["lambda"] == fig1_params.lam
        assert ModelParameters.from_dict(d) == fig1_params
        assert fig1_params.replace(**{"lambda": 0.9}).lam == 0.9

    def test_from_dict_rejects_unknown_and_missing_keys(self, fig1_params):
        d = fig1_params.as_dict()
        with pytest.raises(ValueError, match="unknown parameter keys"):
            ModelParameters.from_dict({**d, "gamma": 1.0})
        d.pop("mu")
        with pytest.raises(ValueError, match="missing parameter keys"):
            ModelParameters.from_dict(d)


class TestScalarRule:
    """``ModelParameters`` and ``StateVector`` take the same scalars: an int
    or a float, numpy's included, stored as a float; never a bool or a str."""

    @pytest.mark.parametrize("value", [2, 0.75, np.int64(3), np.float32(0.5), np.float64(0.25)])
    def test_numpy_scalars_are_real_numbers(self, fig1_params, value):
        p = fig1_params.replace(K=value)
        sv = StateVector(value, 0.0, 0.0, 0.0)
        assert type(p.K) is float and p.K == float(value)
        assert type(sv.P) is float and sv.P == float(value)

    @pytest.mark.parametrize("value", ["1.5", True, False, np.bool_(True), None])
    def test_a_str_or_bool_is_refused(self, fig1_params, value):
        with pytest.raises(TypeError, match=r"^parameter 'K' must be a real number$"):
            fig1_params.replace(K=value)
        with pytest.raises(TypeError, match=r"^component P must be a real number$"):
            StateVector(value, 0.0, 0.0, 0.0)


class TestStateVector:
    def test_negative_component_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            StateVector(1.0, -0.5, 0.0, 0.0)

    def test_sequence_protocol(self):
        sv = StateVector(1.0, 2.0, 3.0, 4.0)
        assert len(sv) == 4
        assert list(sv) == [1.0, 2.0, 3.0, 4.0]
        assert sv[2] == 3.0
        np.testing.assert_array_equal(sv.as_array(), [1.0, 2.0, 3.0, 4.0])
        assert StateVector.from_array(sv.as_array()) == sv


class TestReducedSystems:
    """The invariant faces on which the model reduces to a planar system."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        face=st.sampled_from(tuple(_FACE_INDICES)),
        u=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
    )
    def test_faces_are_invariant(self, seed, face, u):
        # The field never pushes a face state off its face.
        rng = np.random.default_rng(seed)
        p = params_from_row(draw_parameter_matrix(rng, 1)[0])
        x = _embed(face, u)
        out = rhs(p, x)
        off_face = [k for k in range(4) if k not in _FACE_INDICES[face]]
        assert all(out[k] == 0.0 for k in off_face)


class TestBoundednessCertificate:
    def test_default_certificate_values(self, fig1_params):
        cert = boundedness_certificate(fig1_params, (0.0, 1.8, 0.1, 0.1))
        assert cert.epsilon == pytest.approx(0.25)
        assert cert.C == pytest.approx(2.875)
        assert cert.bound == pytest.approx(11.5)

    def test_large_start_dominates_the_bound(self, fig1_params):
        cert = boundedness_certificate(fig1_params, (5.0, 5.0, 5.0, 5.0))
        assert cert.bound == pytest.approx(20.0)

    def test_epsilon_must_stay_below_both_mortalities(self, fig1_params):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            boundedness_certificate(fig1_params, (0.0, 0.0, 0.0, 0.0), epsilon=0.6)
        cert = boundedness_certificate(fig1_params, (0.0, 0.0, 0.0, 0.0), epsilon=0.2)
        assert cert.C == pytest.approx(0.6 * 1.5 + 0.9 * 2.0)
        assert cert.bound == pytest.approx(cert.C / 0.2)

    def test_requires_positive_mortalities(self, fig1_params):
        with pytest.raises(ValueError, match="mu > 0 and nu > 0"):
            boundedness_certificate(fig1_params.replace(mu=0.0), (1.0, 1.0, 0.0, 0.0))

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError, match="bound must be at least"):
            BoundednessCertificate(epsilon=1.0, C=2.0, bound=1.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            BoundednessCertificate(epsilon=0.0, C=2.0, bound=3.0)
