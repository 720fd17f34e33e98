"""Mapping time-dependent systems to autonomous ones.

Two workhorses: the damped time-dependent harmonic oscillator, whose
canonical image is an undamped constant-frequency oscillator (giving the
Leach invariant and the antisymmetric I tensor), and the general
time-dependent potential, whose auxiliary third-order system has a
unit-Wronskian transfer matrix mapping the triple (e, -q.p/2, q^2/4) back
to its initial values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (CoefficientSingularityError, DomainEvaluationError,
                     UnphysicalMapError)
from .numkit import exp, sqrt, time_derivatives, value_of
from .phase import ExtendedPoint, HamiltonianSystem, _h_grad, trajectory_labels

_Q2_FLOOR = 1e-12


@dataclass(frozen=True)
class OscillatorSpec:
    """H = e^{-F(t)} p^2/2 + e^{F(t)} omega^2(t) q^2/2 in n dimensions.

    F is the damping integral; f = dF/dt and its derivatives are produced
    by dual differentiation, so F is the single source of truth.
    """

    n: int
    omega2: object  # callable t -> omega^2(t)
    F: object       # callable t -> F(t)

    def coefficients(self, t):
        """(omega2, d(omega2)/dt, F, f, fdot, fddot) at time t."""
        w2, dw2 = time_derivatives(self.omega2, t, 1)
        return (w2, dw2, *time_derivatives(self.F, t, 3))

    def system(self):
        def H(q, p, t):
            Fv = self.F(t)
            w2 = self.omega2(t)
            return 0.5 * exp(-Fv) * sum(pi * pi for pi in p) \
                + 0.5 * exp(Fv) * w2 * sum(qi * qi for qi in q)
        return HamiltonianSystem(n=self.n, H=H,
                                 description="TD damped oscillator")


def omega0_squared(coefficients, xs):
    """The constant omega_0^2 determined by a xi solution:
    xi xidd / 2 - xid^2 / 4 + xi^2 (omega^2 - fdot/2 - f^2/4), from the
    tuple of `OscillatorSpec.coefficients` at xs's time."""
    w2, _, _, f, fd, _ = coefficients
    return 0.5 * xs.xi * xs.xiddot - 0.25 * xs.xidot ** 2 \
        + xs.xi ** 2 * (w2 - 0.5 * fd - 0.25 * f ** 2)


@dataclass(frozen=True)
class PotentialSpec:
    """H = p^2/2 + V(q, t); every derivative of V comes from dual seeding."""

    n: int
    V: object  # callable (q, t) -> scalar

    def derivatives(self, q, t):
        """(V, [dV/dq_1, ..., dV/dq_n, dV/dt]) at (q, t) from one seeding."""
        n = self.n
        return numkit.grad_raw(lambda v: self.V(v[:n], v[n]), list(q) + [t])

    def system(self):
        def H(q, p, t):
            return 0.5 * sum(pi * pi for pi in p) + self.V(q, t)
        return HamiltonianSystem(n=self.n, H=H,
                                 description="general TD potential")


@dataclass(frozen=True)
class XiState:
    """One point of the auxiliary system: (xi, xidot, xiddot)."""

    xi: float
    xidot: float
    xiddot: float


def _initial_energy(sys, q0, p0, t0):
    """H(q0, p0, t0), after checking that q0 and p0 have the system's n."""
    if len(q0) != sys.n or len(p0) != sys.n:
        raise ValueError("initial state dimension mismatch")
    return sys.H(tuple(q0), tuple(p0), t0)


def xi_oscillator_rhs(coefficients, xs: XiState) -> XiState:
    """Derivative triple of the linear third-order auxiliary equation,
    from the tuple of `OscillatorSpec.coefficients` at xs's time:

    xiddd = -xid (4 omega^2 - 2 fdot - f^2) - xi (2 d(omega^2)/dt - fddot - f fdot)
    """
    w2, dw2, _, f, fd, fdd = coefficients
    for v in (w2, dw2, f, fd, fdd):
        if not math.isfinite(value_of(v)):
            raise DomainEvaluationError("oscillator coefficients not finite")
    xddd = -xs.xidot * (4.0 * w2 - 2.0 * fd - f * f) \
        - xs.xi * (2.0 * dw2 - fdd - f * fd)
    return XiState(xi=xs.xidot, xidot=xs.xiddot, xiddot=xddd)


def leach_invariant(coefficients, state, xs: XiState):
    """e' = e^{-F} xi p^2/2 - (xid - xi f) q.p / 2
    + e^{F} (xidd - xid f - xi fdot + 2 xi omega^2) q^2 / 4,
    from the tuple of `OscillatorSpec.coefficients` at the state's time.

    Constant along trajectories when xs solves the auxiliary equation;
    reduces to the energy for constant omega, f = 0, xi = 1.
    """
    q, p, _, _ = state
    w2, _, Fv, f, fd, _ = coefficients
    q2 = sum(x * x for x in q)
    p2 = sum(x * x for x in p)
    qp = sum(a * b for a, b in zip(q, p))
    return 0.5 * exp(-Fv) * xs.xi * p2 \
        - 0.5 * (xs.xidot - xs.xi * f) * qp \
        + 0.25 * exp(Fv) * (xs.xiddot - xs.xidot * f - xs.xi * fd
                            + 2.0 * xs.xi * w2) * q2


def xi_positivity_residual(coefficients, state, xs: XiState):
    """Defect of 2 e' e^{-F} xi = omega0^2 q^2 + [xi e^{-F} p - (xid - xi f) q / 2]^2,
    from the tuple of `OscillatorSpec.coefficients` at the state's time.

    The right side is nonnegative, which is why xi stays positive."""
    q, p, _, _ = state
    _, _, Fv, f, _, _ = coefficients
    ep = leach_invariant(coefficients, state, xs)
    w02 = omega0_squared(coefficients, xs)
    q2 = sum(x * x for x in q)
    rhs = w02 * q2 + sum((xs.xi * exp(-Fv) * pi
                          - 0.5 * (xs.xidot - xs.xi * f) * qi) ** 2
                         for qi, pi in zip(q, p))
    return abs(value_of(2.0 * ep * exp(-Fv) * xs.xi - rhs))


def angular_invariants(q, p):
    """The antisymmetric matrix I[i][j] = p_i q_j - p_j q_i (empty for n < 2)."""
    n = len(q)
    if n < 2:
        return np.zeros((0, 0))
    I = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            I[i, j] = value_of(p[i] * q[j] - p[j] * q[i])
    return I


def oscillator_canonical_map(spec: OscillatorSpec, state, xs: XiState,
                             tprime=0.0) -> ExtendedPoint:
    """Image of (q, p, t, e) under the oscillator transformation.

    q' = sqrt(e^F/xi) q; p' = -(xid - xi f) sqrt(e^F/xi) q / 2 + sqrt(xi/e^F) p;
    e' = xi e - (xid - xi f) q.p / 2 + e^F (xidd - xid f - xi fdot) q^2 / 4.
    The transformed time t' = integral_0^t dtau/xi depends on the whole xi
    history, so it is supplied by the caller (from co-integration).
    """
    q, p, t, e = state
    if value_of(xs.xi) <= 0:
        raise UnphysicalMapError(f"xi = {value_of(xs.xi)!r} <= 0")
    _, _, Fv, f, fd, _ = spec.coefficients(t)
    a = sqrt(exp(Fv) / xs.xi)
    qp = sum(x * y for x, y in zip(q, p))
    q2 = sum(x * x for x in q)
    qs = tuple(a * qi for qi in q)
    ps = tuple(-0.5 * (xs.xidot - xs.xi * f) * a * qi + pi / a
               for qi, pi in zip(q, p))
    ep = xs.xi * e - 0.5 * (xs.xidot - xs.xi * f) * qp \
        + 0.25 * exp(Fv) * (xs.xiddot - xs.xidot * f - xs.xi * fd) * q2
    return ExtendedPoint(q=qs, p=ps, t=tprime, e=ep, s=0.0)


def oscillator_map_function(spec: OscillatorSpec, xi_fn):
    """The oscillator map as a smooth ExtendedPoint -> ExtendedPoint function.

    xi_fn must be a closed-form solution of the auxiliary equation; its
    derivatives and the time integral are produced numerically, so the
    returned map can be differentiated for symplecticity checks.
    """
    def mapped(pt):
        xs = XiState(*time_derivatives(xi_fn, pt.t, 2))
        tp = numkit.quad_fixed(lambda tau: 1.0 / xi_fn(tau), 0.0, pt.t)
        img = oscillator_canonical_map(spec, (pt.q, pt.p, pt.t, pt.e),
                                       xs, tprime=tp)
        return ExtendedPoint(q=img.q, p=img.p, t=img.t, e=img.e, s=pt.s)

    return mapped


def oscillator_coupled_run(spec: OscillatorSpec, q0, p0, xi0: XiState,
                           t_span, opts=None):
    """Co-integrate the oscillator with one auxiliary xi solution.

    State layout: (q.., p.., e, xi, xid, xidd, tprime) with
    dtprime/dt = 1/xi.  This closes the auxiliary equation jointly with the
    canonical equations, which is the only way its coefficients are defined.
    The H-gradient and the coefficients are kernels traced once from their
    Dual code (that code itself when it does not trace).
    """
    n = spec.n
    sys = spec.system()
    e0 = _initial_energy(sys, q0, p0, t_span[0])
    grad = numkit.trace(_h_grad(sys, n), 2 * n + 1)
    coefficients = numkit.trace(lambda x: spec.coefficients(x[0]), 1)

    def rhs(t, y):
        _, g = grad([*y[:2 * n], t])
        xs = XiState(xi=y[2 * n + 1], xidot=y[2 * n + 2], xiddot=y[2 * n + 3])
        dxs = xi_oscillator_rhs(coefficients((t,)), xs)
        xi = y[2 * n + 1]
        if xi <= 0:
            return [math.nan] * (2 * n + 5)
        return g[n:2 * n] + [-gi for gi in g[:n]] + [
            g[2 * n], value_of(dxs.xi), value_of(dxs.xidot),
            value_of(dxs.xiddot), 1.0 / xi]

    labels = trajectory_labels(n)[:2 * n] + ("e", "xi", "xid", "xidd", "tprime")
    y0 = list(q0) + list(p0) + [e0, xi0.xi, xi0.xidot, xi0.xiddot, 0.0]
    return numkit.integrate(rhs, y0, t_span[0], t_span[1], opts, labels=labels)


def xi_general_rhs(q, V, grad) -> np.ndarray:
    """Companion matrix A(t) of the auxiliary system for a general potential,
    from V and grad = (dV/dq_1, ..., dV/dq_n, dV/dt) at the point (q, t).

    g1 = (4/q^2) dV/dt, g2 = (4/q^2) [V + q.gradV/2]; last row
    (-g1, -g2, 0); the trace is zero regardless of V.
    """
    *dVdq, dVdt = grad
    q2 = sum(value_of(x) ** 2 for x in q)
    if q2 < _Q2_FLOOR:
        raise CoefficientSingularityError(
            f"q^2 = {q2:.3e} below floor {_Q2_FLOOR}; trajectory too close to origin")
    g1 = 4.0 / q2 * value_of(dVdt)
    g2 = 4.0 / q2 * value_of(V + 0.5 * sum(a * b for a, b in zip(q, dVdq)))
    return np.array([[0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [-g1, -g2, 0.0]])


def invariant_triple(q, p, e):
    """The vector (e, -q.p/2, q^2/4) that the transfer matrix maps linearly."""
    qp = sum(value_of(a) * value_of(b) for a, b in zip(q, p))
    q2 = sum(value_of(a) ** 2 for a in q)
    return np.array([value_of(e), -0.5 * qp, 0.25 * q2])


def transfer_matrix(spec: PotentialSpec, q0, p0, t_span, opts=None):
    """Co-integrate the canonical equations with the three fundamental
    xi solutions seeded by the identity.

    Returns (Trajectory, Xi), where Xi is the (N, 3, 3) view of the
    trajectory's Xi columns: in each sample's matrix the columns are the
    three solutions and the rows their 0th/1st/2nd derivatives.  State
    layout: (q.., p.., e, Xi row-major).  At every time,
    Xi^T (e, -q.p/2, q^2/4) equals the initial triple.  V's derivatives
    are a kernel traced once from `PotentialSpec.derivatives` (that method
    itself when V does not trace).
    """
    n = spec.n
    e0 = _initial_energy(spec.system(), q0, p0, t_span[0])
    derivatives = numkit.trace(lambda x: spec.derivatives(x[:n], x[n]), n + 1)

    def rhs(t, y):
        q = y[:n].tolist()
        V, grad = derivatives(q + [float(t)])
        dXi = xi_general_rhs(q, V, grad) @ y[2 * n + 1:].reshape(3, 3)
        return y[n:2 * n].tolist() + [-g for g in grad[:n]] + [grad[n]] \
            + dXi.ravel().tolist()

    labels = trajectory_labels(n)[:2 * n] + ("e",) \
        + tuple(f"xi{r+1}{c+1}" for r in range(3) for c in range(3))
    y0 = list(q0) + list(p0) + [e0] + [1.0, 0.0, 0.0,
                                       0.0, 1.0, 0.0,
                                       0.0, 0.0, 1.0]
    traj = numkit.integrate(rhs, y0, t_span[0], t_span[1], opts,
                            labels=labels)
    return traj, traj.states[:, 2 * n + 1:].reshape(-1, 3, 3)
