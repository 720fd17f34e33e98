"""Extended Lagrangian L1, its homogeneity, and the Legendre route to H1.

L1(q, t, dq/ds, dt/ds) = L(q, (dq/ds)/(dt/ds), t) * (dt/ds) is homogeneous
of first order in the velocities, so its "extended energy" vanishes
identically and the conjugate of t comes out as -H.  The extended
Euler-Lagrange equations are parameterization-independent restatements of
the conventional ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import DegenerateTimeError
from .numkit import value_of
from .phase import HamiltonianSystem


@dataclass(frozen=True)
class LagrangianSystem:
    """A conventional Lagrangian L(q, qdot, t) of dimension n."""

    n: int
    L: object  # callable (q, qdot, t) -> scalar

    def __call__(self, q, qdot, t):
        return self.L(q, qdot, t)


@dataclass(frozen=True)
class ExtendedVelocityPoint:
    """Extended configuration (q, t) with velocities (dq/ds, dt/ds)."""

    q1: tuple  # (q_1..q_n, t)
    v1: tuple  # (dq_1/ds..dq_n/ds, dt/ds)

    def __post_init__(self):
        if len(self.q1) != len(self.v1) or len(self.q1) < 2:
            raise ValueError("q1 and v1 must have equal length n+1 >= 2")
        object.__setattr__(self, "q1", tuple(self.q1))
        object.__setattr__(self, "v1", tuple(self.v1))

    @property
    def n(self):
        return len(self.q1) - 1


def extended_lagrangian(sys: LagrangianSystem, pt: ExtendedVelocityPoint):
    """L1 = L(q, (dq/ds)/(dt/ds), t) * dt/ds; requires dt/ds != 0."""
    n = sys.n
    dt_ds = pt.v1[n]
    if value_of(dt_ds) == 0:
        raise DegenerateTimeError("dt/ds = 0: velocity not convertible to qdot")
    qdot = tuple(v / dt_ds for v in pt.v1[:n])
    return sys.L(pt.q1[:n], qdot, pt.q1[n]) * dt_ds


def _l1_velocity_gradient(sys, pt):
    n = sys.n

    def f(v):
        return extended_lagrangian(
            sys, ExtendedVelocityPoint(q1=pt.q1, v1=tuple(v)))

    return numkit.grad_raw(f, list(pt.v1))


def homogeneity_residual(sys: LagrangianSystem, pt: ExtendedVelocityPoint, c):
    """(|L1(q1, c v1) - c L1(q1, v1)|, |L1 - sum_i dL1/dv_i v_i|).

    Both vanish identically for first-order homogeneous L1.
    """
    if value_of(c) == 0:
        raise ValueError("c must be nonzero")
    l1 = extended_lagrangian(sys, pt)
    scaled = extended_lagrangian(
        sys, ExtendedVelocityPoint(q1=pt.q1,
                                   v1=tuple(c * v for v in pt.v1)))
    scale_res = abs(value_of(scaled - c * l1))
    val, grad = _l1_velocity_gradient(sys, pt)
    euler_res = abs(value_of(val - sum(g * v for g, v in zip(grad, pt.v1))))
    return scale_res, euler_res


def legendre_to_h1(sys: LagrangianSystem, pt: ExtendedVelocityPoint):
    """Momenta and the extended-energy value at pt.

    Returns (p, p_np1, h1) with p_i = dL1/d(dq_i/ds), p_np1 = dL1/d(dt/ds)
    = -H(q, p, t), and h1 = sum p_i v_i - L1, which is identically zero by
    homogeneity and equals (H + p_np1) dt/ds.
    """
    n = sys.n
    val, grad = _l1_velocity_gradient(sys, pt)
    p = tuple(grad[:n])
    p_np1 = grad[n]
    h1 = sum(g * v for g, v in zip(grad, pt.v1)) - val
    return p, value_of(p_np1), value_of(h1)


def paired_hamiltonian(sys: LagrangianSystem, seed=None) -> HamiltonianSystem:
    """Numerical Legendre transform of L: H(q, p, t) = p.qdot - L at
    the qdot solving p = dL/dqdot (damped Newton, seeded by p)."""
    n = sys.n

    def H(q, p, t):
        def residual(v):
            _, g = numkit.grad_raw(lambda u: sys.L(q, tuple(u), t), list(v))
            return [gi - pi for gi, pi in zip(g, p)]

        v0 = list(seed) if seed is not None else [value_of(pi) for pi in p]
        qdot = numkit.newton_solve(residual, v0)
        return sum(a * b for a, b in zip(p, qdot)) - sys.L(q, tuple(qdot), t)

    return HamiltonianSystem(n=n, H=H, description="Legendre pair")


def _l1_full_gradient(sys, q1, v1):
    n = sys.n
    m = n + 1

    def f(z):
        return extended_lagrangian(
            sys, ExtendedVelocityPoint(q1=tuple(z[:m]), v1=tuple(z[m:])))

    _, g = numkit.grad_raw(f, list(q1) + list(v1))
    return g[:m], g[m:]


_EL_SAMPLES = 20  # interior points probed by euler_lagrange_residual
_EL_STEP = 1e-5  # its central-difference step, as a fraction of the span


def euler_lagrange_residual(sys: LagrangianSystem, traj):
    """Residuals of the extended and conventional Euler-Lagrange equations.

    traj is a Trajectory in s whose state columns are (q_1..q_n, t).  The
    velocities come from the dense output (cubic Hermite); the outer d/ds of
    the momenta is a central difference, the package's one finite
    difference.  Accuracy is interpolation-limited (~1e-6).
    Returns (max extended residual, max conventional residual) over
    interior sample points.
    """
    n = sys.n
    m = n + 1
    s0, s1 = float(traj.s[0]), float(traj.s[-1])
    span = s1 - s0
    pts = np.linspace(s0 + 0.05 * span, s1 - 0.05 * span, _EL_SAMPLES)
    step = _EL_STEP * abs(span)

    def momenta(s):
        q1 = tuple(traj.interpolate(s))
        v1 = tuple(traj.derivative(s))
        _, gv = _l1_full_gradient(sys, q1, v1)
        return np.array([value_of(x) for x in gv])

    ext_max = 0.0
    conv_max = 0.0
    for s in pts:
        q1 = tuple(traj.interpolate(s))
        v1 = tuple(traj.derivative(s))
        gq, _ = _l1_full_gradient(sys, q1, v1)
        dmds = (momenta(s + step) - momenta(s - step)) / (2.0 * step)
        ext = dmds - np.array([value_of(x) for x in gq])
        ext_max = max(ext_max, float(np.max(np.abs(ext))))
        # conventional bracket: the first n extended equations divided by dt/ds
        dt_ds = value_of(v1[n])
        if dt_ds != 0:
            conv_max = max(conv_max,
                           float(np.max(np.abs(ext[:n] / dt_ds))))
    return ext_max, conv_max
