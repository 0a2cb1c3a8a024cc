"""Core dynamics of a two-competitor system with two disease strains.

State is ``(P, S, V, W)``: a disease-free first competitor ``P``, and a
second competitor split into susceptibles ``S``, individuals infected by
strain one ``V``, and individuals infected by strain two ``W``. Both
competitors grow logistically; infection spreads by mass action within the
second population only; infected individuals recover back into ``S``, die
at strain-specific rates, and suffer extra predation-like pressure from
``P``. The two strains never co-infect, so they interact only through the
shared susceptible pool.

The vector field:

    dP/dt = s*(1 - P/L)*P - a*P*S
    dS/dt = r*(1 - S/K)*S - b*P*S - lam*V*S - beta*W*S + psi*V + phi*W
    dV/dt = lam*V*S - psi*V - mu*V - e*P*V
    dW/dt = beta*W*S - phi*W - nu*W - f*P*W

All parameters are nonnegative rates/capacities; the growth rates and
carrying capacities (``s``, ``r``, ``L``, ``K``) must be strictly positive.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import types
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "ModelParameters",
    "StateVector",
    "BoundednessCertificate",
    "PARAMETER_KEYS",
    "rhs",
    "jacobian",
    "total_population",
    "boundedness_certificate",
]

# Config-file key order; "lambda" is a Python keyword, stored as field `lam`.
PARAMETER_KEYS = (
    "s", "L", "a", "r", "K", "b", "lambda", "beta",
    "psi", "phi", "mu", "nu", "e", "f",
)
# Each config key's ModelParameters field, in PARAMETER_KEYS order.
_FIELDS = {key: "lam" if key == "lambda" else key for key in PARAMETER_KEYS}

_STRICTLY_POSITIVE = ("s", "r", "L", "K")
# The types a parameter or state component may have; bool, though an int, is refused.
_REAL_TYPES = (int, float, np.integer, np.floating)


def _nonnegative(value, label: str, name: str) -> float:
    """``value`` as a float if it is a finite real number >= 0; otherwise an
    error that ``label.format(name)`` names, formatted only then."""
    if not isinstance(value, _REAL_TYPES) or isinstance(value, bool):
        raise TypeError(f"{label.format(name)} must be a real number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{label.format(name)} must be finite")
    if value < 0.0:
        raise ValueError(f"{label.format(name)} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class ModelParameters:
    """Rate constants of the full four-compartment model.

    Attributes:
        s: intrinsic growth rate of the first competitor.
        L: carrying capacity of the first competitor.
        a: competition pressure of S on P.
        r: intrinsic growth rate of the susceptible pool.
        K: carrying capacity of the second competitor.
        b: competition pressure of P on S.
        lam: transmission rate of strain one (config key "lambda").
        beta: transmission rate of strain two.
        psi: recovery rate from strain one.
        phi: recovery rate from strain two.
        mu: disease-induced mortality of strain one.
        nu: disease-induced mortality of strain two.
        e: pressure of P on strain-one infected.
        f: pressure of P on strain-two infected.
    """

    s: float
    L: float
    a: float
    r: float
    K: float
    b: float
    lam: float
    beta: float
    psi: float
    phi: float
    mu: float
    nu: float
    e: float
    f: float

    def __post_init__(self) -> None:
        for name in _FIELDS.values():
            object.__setattr__(self, name, _nonnegative(getattr(self, name), "parameter {!r}", name))
        for name in _STRICTLY_POSITIVE:
            if getattr(self, name) == 0.0:
                raise ValueError(f"parameter {name!r} must be > 0")

    def replace(self, **changes: float) -> "ModelParameters":
        """Return a copy with the given fields substituted (revalidates)."""
        return dataclasses.replace(self, **{_FIELDS.get(k, k): v for k, v in changes.items()})

    def as_dict(self) -> dict[str, float]:
        """Map external key names (including "lambda") to values."""
        return {key: getattr(self, name) for key, name in _FIELDS.items()}

    @classmethod
    def from_dict(cls, values: dict[str, float]) -> "ModelParameters":
        """Build from external key names; unknown or missing keys raise."""
        extra = set(values) - set(PARAMETER_KEYS)
        if extra:
            raise ValueError(f"unknown parameter keys: {sorted(extra)}")
        missing = set(PARAMETER_KEYS) - set(values)
        if missing:
            raise ValueError(f"missing parameter keys: {sorted(missing)}")
        return cls(**{_FIELDS[k]: float(v) for k, v in values.items()})


@dataclass(frozen=True)
class StateVector:
    """A point in the nonnegative state space (P, S, V, W)."""

    P: float
    S: float
    V: float
    W: float

    def __post_init__(self) -> None:
        for name in ("P", "S", "V", "W"):
            object.__setattr__(self, name, _nonnegative(getattr(self, name), "component {}", name))

    def __iter__(self) -> Iterator[float]:
        return iter((self.P, self.S, self.V, self.W))

    def __len__(self) -> int:
        return 4

    def __getitem__(self, i: int) -> float:
        return (self.P, self.S, self.V, self.W)[i]

    def as_array(self) -> np.ndarray:
        return np.array((self.P, self.S, self.V, self.W), dtype=float)

    @classmethod
    def from_array(cls, x: Sequence[float]) -> "StateVector":
        P, S, V, W = (float(v) for v in x)
        return cls(P, S, V, W)


def _components(x: "StateVector | Sequence[float] | np.ndarray") -> tuple[float, float, float, float]:
    P, S, V, W = x
    return float(P), float(S), float(V), float(W)


# The parameter values of a ModelParameters in PARAMETER_KEYS order, which
# is the order of the trailing arguments of _field and _field_jacobian.
_parameter_values = operator.attrgetter(*_FIELDS.values())


def _field(P, S, V, W, s, L, a, r, K, b, lam, beta, psi, phi, mu, nu, e, f):
    """The vector field: the one place its formulas are written.

    Takes floats, or numpy columns of states and parameter rows that
    broadcast together, and returns the four derivatives in (P, S, V, W)
    order. The infection and recovery terms are computed once and shared
    by the susceptible and infected equations.
    """
    infect_v = lam * V * S
    infect_w = beta * W * S
    recover_v = psi * V
    recover_w = phi * W
    return (
        s * (1.0 - P / L) * P - a * P * S,
        r * (1.0 - S / K) * S - b * P * S - infect_v - infect_w + recover_v + recover_w,
        infect_v - recover_v - mu * V - e * P * V,
        infect_w - recover_w - nu * W - f * P * W,
    )


def _field_jacobian(P, S, V, W, s, L, a, r, K, b, lam, beta, psi, phi, mu, nu, e, f) -> np.ndarray:
    """Exact Jacobian of ``_field``, for floats (shape (4, 4)) or columns of
    length n (shape (n, 4, 4)).

    Rows follow the (P, S, V, W) equation order. The structural zeros
    (P does not couple directly to V or W, and the strains never couple
    directly to each other) are kept exact.
    """
    J = np.zeros((4, 4) + np.shape(P), dtype=float)
    J[0, 0] = s - 2.0 * s * P / L - a * S
    J[0, 1] = -a * P
    J[1, 0] = -b * S
    J[1, 1] = r * (1.0 - S / K) - r * S / K - lam * V - beta * W - b * P
    J[1, 2] = -lam * S + psi
    J[1, 3] = -beta * S + phi
    J[2, 0] = -e * V
    J[2, 1] = lam * V
    J[2, 2] = lam * S - psi - mu - e * P
    J[3, 0] = -f * W
    J[3, 1] = beta * W
    J[3, 3] = beta * S - phi - nu - f * P
    # Move the two matrix axes last: (4, 4, n) -> (n, 4, 4); a (4, 4) stays.
    return J.T.swapaxes(-1, -2)


def scalar_field(params: ModelParameters) -> Callable[[float, float, float, float], tuple[float, float, float, float]]:
    """Return a plain-float callback ``field(P, S, V, W)`` of the time derivatives.

    The callback is ``_field`` with the parameter values bound as argument
    defaults, which keeps per-call overhead inside integrator inner loops
    as low as a closure's.
    """
    return types.FunctionType(_field.__code__, _field.__globals__, "field", _parameter_values(params))


def rhs(params: ModelParameters, x: "StateVector | Sequence[float] | np.ndarray") -> np.ndarray:
    """Time derivative of the state at ``x``."""
    return np.array(_field(*_components(x), *_parameter_values(params)), dtype=float)


def jacobian(params: ModelParameters, x: "StateVector | Sequence[float] | np.ndarray") -> np.ndarray:
    """Exact 4x4 Jacobian of the vector field at ``x``."""
    return _field_jacobian(*_components(x), *_parameter_values(params))


def total_population(x: "StateVector | Sequence[float] | np.ndarray") -> float:
    """Sum of all four compartments."""
    P, S, V, W = _components(x)
    return P + S + V + W


@dataclass(frozen=True)
class BoundednessCertificate:
    """Witness of an explicit forward-in-time bound on the total population.

    For any ``epsilon`` with ``0 < epsilon < min(mu, nu)`` the total
    population ``N = P + S + V + W`` satisfies
    ``N(t) <= max(N(0), C / epsilon)`` with
    ``C = (s + epsilon) * L + (r + epsilon) * K``: for all ``t >= 0``
    once the healthy pools sit at or below their carrying capacities,
    and beyond a transient of order ``5 / epsilon`` from any start
    (capacity overshoot decays at least logistically, after which the
    differential inequality ``N' <= C - epsilon * N`` applies).
    """

    epsilon: float
    C: float
    bound: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon:
            raise ValueError("epsilon must be positive")
        if self.C <= 0.0:
            raise ValueError("C must be positive")
        if self.bound < self.C / self.epsilon:
            raise ValueError("bound must be at least C / epsilon")


def boundedness_certificate(
    params: ModelParameters,
    x0: "StateVector | Sequence[float] | np.ndarray",
    epsilon: float | None = None,
) -> BoundednessCertificate:
    """Construct the explicit population bound for a given start state.

    ``epsilon`` defaults to ``min(mu, nu) / 2`` and must satisfy
    ``0 < epsilon < min(mu, nu)``; both mortalities must therefore be
    positive for a certificate to exist.
    """
    cap = min(params.mu, params.nu)
    if cap <= 0.0:
        raise ValueError("certificate requires mu > 0 and nu > 0")
    if epsilon is None:
        epsilon = cap / 2.0
    if not 0.0 < epsilon < cap:
        raise ValueError(f"epsilon must lie in (0, {cap}), got {epsilon}")
    C = (params.s + epsilon) * params.L + (params.r + epsilon) * params.K
    bound = max(total_population(x0), C / epsilon)
    return BoundednessCertificate(epsilon=epsilon, C=C, bound=bound)
