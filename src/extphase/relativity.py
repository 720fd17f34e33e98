"""Lorentz boosts as extended canonical transformations.

A boost mixes t with the spatial coordinates, so it has no conventional
generating function; in the extended phase space it is induced by an
ordinary F2.  The same module builds the Lorentz-invariant form of the
charged-particle Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainEvaluationError, SuperluminalError
from .numkit import sqrt, value_of
from .phase import HamiltonianSystem
from .transform import GeneratingFunction, extended_identity

_BETA_FLOOR = 1e-15


@dataclass(frozen=True)
class Boost:
    """A pure boost with scaled velocity beta = v/c; gamma is derived."""

    beta: tuple
    c: float = 1.0
    gamma: float = field(init=False)

    def __post_init__(self):
        b = tuple(float(x) for x in self.beta)
        if len(b) != 3:
            raise ValueError("beta must be a 3-vector")
        # each check is written so that a NaN fails it
        if not 0 < self.c < math.inf:
            raise ValueError(f"c = {self.c} must be positive and finite")
        if not all(map(math.isfinite, b)):
            raise ValueError(f"beta = {b} must be finite")
        b2 = sum(x * x for x in b)
        if not b2 < 1.0:
            raise SuperluminalError(f"|beta| = {math.sqrt(b2):.6g} >= 1")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", 1.0 / math.sqrt(1.0 - b2))

    @property
    def beta2(self):
        return sum(x * x for x in self.beta)


@dataclass(frozen=True)
class EmField:
    """Electromagnetic potentials (A, phi) seen by a charge zeta of mass m.

    A is a callable (q, t) -> 3 components; phi a callable (q, t) -> scalar.
    """

    A: object
    phi: object
    zeta: float
    m: float

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")

    @staticmethod
    def free(m=1.0):
        return EmField(A=lambda q, t: (0.0, 0.0, 0.0),
                       phi=lambda q, t: 0.0, zeta=0.0, m=m)


def _spatial_block(b: Boost):
    """The 3x3 spatial block delta + (gamma - 1) beta beta^T / beta^2 of the
    boost, or None below _BETA_FLOOR, where the boost is the identity."""
    beta, g, b2 = b.beta, b.gamma, b.beta2
    if b2 < _BETA_FLOOR:
        return None
    return [[(1.0 if i == k else 0.0) + (g - 1.0) * beta[i] * beta[k] / b2
             for k in range(3)] for i in range(3)]


def lorentz_generating(b: Boost) -> GeneratingFunction:
    """The F2 that induces the boost map on (q, t, p, e), n = 3.

    For aligned beta this reduces to
    gamma [p_x'(x - beta c t) - (e'/c)(c t - beta x)].
    """
    beta, c, g = b.beta, b.c, b.gamma
    coef = _spatial_block(b)
    if coef is None:
        return extended_identity(3)

    def value(q, pp, t, ep, s):
        acc = g * (ep / c) * (sum(beta[i] * q[i] for i in range(3)) - c * t)
        for i in range(3):
            acc = acc + pp[i] * (sum(coef[i][k] * q[k] for k in range(3))
                                 - g * c * t * beta[i])
        return acc

    return GeneratingFunction(kind="F2", value=value, n=3)


def boost_matrix(b: Boost) -> np.ndarray:
    """The boost as a real linear map on (x, y, z, ct, px, py, pz, e/c).

    Block-diagonal: the same 4x4 hyperbolic rotation acts on (q, ct) and on
    (p, e/c); determinant 1.
    """
    g = b.gamma
    coef = _spatial_block(b)
    lam = np.eye(4)
    if coef is not None:
        lam[:3, :3] = coef
        lam[:3, 3] = lam[3, :3] = [-g * x for x in b.beta]
        lam[3, 3] = g
    M = np.zeros((8, 8))
    M[:4, :4] = lam
    M[4:, 4:] = lam
    return M


@dataclass(frozen=True)
class LorentzHamiltonians:
    """The two faces of the Lorentz-invariant charged-particle Hamiltonian.

    `extended` is the quadratic form on the extended space, callable as
    (q, P, t, e); `solved` is the square-root conventional Hamiltonian
    obtained by setting the extended form's value equal to e.
    """

    extended: object
    solved: HamiltonianSystem


def lorentz_invariant_hamiltonian(f: EmField, c=1.0) -> LorentzHamiltonians:
    """Build H_L for a charge in the potentials (A, phi).

    The extended form is (1/2m)[(P - zeta A)^2 - (e - zeta phi - m c^2)^2/c^2]
    + zeta phi + m c^2; the solved form is
    sqrt(c^2 (P - zeta A)^2 + m^2 c^4) + zeta phi, normalized so that
    H_L = m c^2 at P = 0 and zero field.  An m^2 c^4 that overflows a float
    raises DomainEvaluationError.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    zeta, m = f.zeta, f.m
    try:
        m2c4 = m * m * c ** 4
    except OverflowError:  # float ** raises where * gives inf
        raise DomainEvaluationError("m^2 c^4 overflows a float") from None

    def kinetic(q, P, t):
        A = f.A(q, t)
        return sum((Pi - zeta * Ai) ** 2 for Pi, Ai in zip(P, A))

    def extended(q, P, t, e):
        ph = f.phi(q, t)
        return (kinetic(q, P, t) - (e - zeta * ph - m * c * c) ** 2 / (c * c)) \
            / (2.0 * m) + zeta * ph + m * c * c

    def solved(q, P, t):
        rad = c * c * kinetic(q, P, t) + m2c4
        if value_of(rad) < 0:
            raise DomainEvaluationError("negative radicand in relativistic energy")
        return sqrt(rad) + zeta * f.phi(q, t)

    return LorentzHamiltonians(
        extended=extended,
        solved=HamiltonianSystem(n=3, H=solved,
                                 description="relativistic charged particle"))


def nonrelativistic_hamiltonian(f: EmField) -> HamiltonianSystem:
    """The conventional (P - zeta A)^2 / 2m + zeta phi, which is not boost-invariant."""
    zeta, m = f.zeta, f.m

    def H(q, P, t):
        A = f.A(q, t)
        return sum((Pi - zeta * Ai) ** 2 for Pi, Ai in zip(P, A)) / (2.0 * m) \
            + zeta * f.phi(q, t)

    return HamiltonianSystem(n=3, H=H, description="nonrelativistic charged particle")
