"""Time-scaling regularization of 1-D Kepler motion and the KS transformation.

Both are finite canonical transformations of the extended phase space: the
time-scaling map only rescales (t, e), while the Kustaanheimo-Stiefel map is
a point transformation on a 4-dimensional configuration space whose image
lies in the physical q4 = 0 plane.  The time-scaled canonical equations in
t' are phase.extended_rhs with k = xi(t').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (CollisionChartError, DomainEvaluationError,
                     IntegrationStallError)
from .numkit import IntegratorOptions, Trajectory, value_of
from .phase import (ExtendedPoint, HamiltonianSystem, map_jacobian,
                    symplectic_matrix)
from .transform import GeneratingFunction


@dataclass(frozen=True)
class TimeScaleSpec:
    """A strictly positive scaling function xi(t) and the lower limit t0."""

    xi: object  # callable t -> scalar, > 0 on the working domain
    t0: float = 0.0


@dataclass(frozen=True)
class KeplerSpec:
    """1-D Kepler problem H = p^2/2 - K^2/x with initial state (x0, p0)."""

    K2: float
    x0: float
    p0: float

    def __post_init__(self):
        if self.K2 <= 0:
            raise ValueError("K2 must be positive")
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        if not math.isfinite(self.energy):
            raise ValueError("initial energy not finite")

    @property
    def energy(self):
        return 0.5 * self.p0 ** 2 - self.K2 / self.x0

    def system(self):
        def H(q, p, t):
            return 0.5 * p[0] ** 2 - self.K2 / q[0]
        return HamiltonianSystem(n=1, H=H, description="1-D Kepler")


@dataclass(frozen=True)
class KsPoint:
    """KS coordinates u = (q'_1..q'_4) and their conjugate momenta pu."""

    u: tuple
    pu: tuple

    def __post_init__(self):
        if len(self.u) != 4 or len(self.pu) != 4:
            raise ValueError("u and pu must be 4-vectors")
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "pu", tuple(self.pu))


def timescale_generating(spec: TimeScaleSpec, n=1) -> GeneratingFunction:
    """F2 = q.p' - e' * integral_{t0}^{t} dtau / xi(tau).

    Induces q' = q, p' = p, t' = the integral, e' = xi(t) e, and preserves H1.
    """

    def inv_xi(tau):
        x = spec.xi(tau)
        if value_of(x) <= 0 or not math.isfinite(value_of(x)):
            raise DomainEvaluationError(f"xi({value_of(tau)!r}) not positive")
        return 1.0 / x

    def value(q, pp, t, ep, s):
        return sum(a * b for a, b in zip(q, pp)) \
            - ep * numkit.quad_fixed(inv_xi, spec.t0, t)

    return GeneratingFunction(kind="F2", value=value, n=n)


def _with_energy(spec: KeplerSpec, base: Trajectory) -> Trajectory:
    """Extend (x, p) samples to columns (x, p, e), e recomputed pointwise."""
    xs, ps = base.states.T
    states = np.column_stack([xs, ps, 0.5 * ps ** 2 - spec.K2 / xs])
    dx, dp = base.derivs.T
    derivs = np.column_stack([dx, dp, ps * dp + spec.K2 / xs ** 2 * dx])
    return Trajectory(s=base.s, states=states, labels=("x", "p", "e"),
                      derivs=derivs)


def kepler_direct(spec: KeplerSpec, t_span, opts=None) -> Trajectory:
    """Integrate d^2x/dt^2 = -K^2/x^2 in physical time.

    The trajectory carries columns (x, p, e) with e recomputed pointwise.
    Bound orbits reach the collision x = 0 in finite time, where the
    integrator stalls by design: the IntegrationStallError then carries the
    samples up to the stall, with the same columns.
    """
    if opts is None:
        opts = IntegratorOptions()

    def rhs(t, y):
        x, p = y
        if value_of(x) <= 0:
            # signal a rejected step; the integrator shrinks and finally stalls
            return [math.nan, math.nan]
        return [p, -spec.K2 / x ** 2]

    try:
        base = numkit.integrate(rhs, [spec.x0, spec.p0], t_span[0], t_span[1],
                                opts, labels=("x", "p"))
    except IntegrationStallError as exc:
        exc.trajectory = _with_energy(spec, exc.trajectory)
        raise
    return _with_energy(spec, base)


def kepler_regularized(spec: KeplerSpec, tprime_span, opts=None) -> Trajectory:
    """Integrate Euler's regularized equation x'' = 2 e x + K^2 in t'.

    The physical time is co-integrated as dt/dt' = x.  Columns are
    (x, dxdt, t, e); the collision x = 0 is an ordinary point.  The initial
    x-slope is dx/dt'|0 = x0 p0 (from dx/dt' = xi p with xi = x).
    """
    if opts is None:
        opts = IntegratorOptions()
    e0 = spec.energy

    def rhs(tp, y):
        x, v, t = y
        return [v, 2.0 * e0 * x + spec.K2, x]

    v0 = spec.x0 * spec.p0
    base = numkit.integrate(rhs, [spec.x0, v0, 0.0], tprime_span[0],
                            tprime_span[1], opts, labels=("x", "dxdt", "t"))
    m = base.states.shape[0]
    states = np.column_stack([base.states, np.full(m, e0)])
    return Trajectory(s=base.s, states=states,
                      labels=("x", "dxdt", "t", "e"),
                      derivs=np.column_stack([base.derivs, np.zeros(m)]))


def _ks_q(u):
    return (u[0] ** 2 - u[1] ** 2 - u[2] ** 2 + u[3] ** 2,
            2.0 * u[0] * u[1] - 2.0 * u[2] * u[3],
            2.0 * u[0] * u[2] + 2.0 * u[1] * u[3],
            0.0 * u[0])


def _ks_L(u):
    """The 4x3 matrix with pu = L(u) p for physical p = (p1, p2, p3)."""
    u1, u2, u3, u4 = u
    return [[2 * u1, 2 * u2, 2 * u3],
            [-2 * u2, 2 * u1, 2 * u4],
            [-2 * u3, -2 * u4, 2 * u1],
            [2 * u4, -2 * u3, 2 * u2]]


def ks_bilinear(u, pu):
    """The constraint u4 pu1 - u3 pu2 + u2 pu3 - u1 pu4, zero on physical images."""
    return u[3] * pu[0] - u[2] * pu[1] + u[1] * pu[2] - u[0] * pu[3]


def ks_map(u, pu):
    """Map KS variables to physical ones: q (padded with q4 = 0) and p.

    p is recovered from the linear momentum rules, using L^T L = 4|u|^2 I;
    p4 has no physical meaning and is returned as 0.  Requires u != 0.
    """
    q = _ks_q(u)
    norm2 = sum(ui * ui for ui in u)
    if value_of(norm2) < 1e-24:
        raise CollisionChartError("KS momentum solve singular at u = 0")
    L = _ks_L(u)
    p = [sum(L[r][c] * pu[r] for r in range(4)) / (4.0 * norm2)
         for c in range(3)]
    return tuple(q), (p[0], p[1], p[2], 0.0 * p[0])


def ks_generating(spec: TimeScaleSpec = None) -> GeneratingFunction:
    """The F3 generating the KS point transformation (n = 4).

    Defaults to xi identically 1 (t = t').  Note the structural degeneracy:
    the physical image has q4 = 0 for every u, so the induced map is only
    canonical on the bilinear-constraint surface (see
    ks_symplectic_residual).
    """
    if spec is None:
        spec = TimeScaleSpec(xi=lambda t: 1.0, t0=0.0)

    def xi_pos(tau):
        x = spec.xi(tau)
        if value_of(x) <= 0 or not math.isfinite(value_of(x)):
            raise DomainEvaluationError(f"xi({value_of(tau)!r}) not positive")
        return x

    def value(up, p, tp, e, s):
        u1, u2, u3, u4 = up
        return (-u1 ** 2 + u2 ** 2 + u3 ** 2 - u4 ** 2) * p[0] \
            - 2.0 * (u1 * u2 - u3 * u4) * p[1] \
            - 2.0 * (u1 * u3 + u2 * u4) * p[2] \
            + 0.0 * p[3] \
            + e * numkit.quad_fixed(xi_pos, 0.0, tp)

    return GeneratingFunction(kind="F3", value=value, n=4)


def ks_extended_map(pt_ks, spec: TimeScaleSpec = None):
    """The full extended KS map (u, pu, t', e') -> (q, p, t, e).

    t = integral_0^{t'} xi and e = e'/xi(t'), matching the F3 rules; with
    xi identically 1 the (t, e) pair passes through unchanged.
    """
    if spec is None:
        spec = TimeScaleSpec(xi=lambda t: 1.0, t0=0.0)
    u, pu, tp, ep = list(pt_ks.q), list(pt_ks.p), pt_ks.t, pt_ks.e
    q, p = ks_map(u, pu)
    t = numkit.quad_fixed(spec.xi, 0.0, tp)
    e = ep / spec.xi(tp)
    return ExtendedPoint(q=q, p=p, t=t, e=e, s=pt_ks.s)


def ks_symplectic_residual(u, pu, tprime=0.0, spec: TimeScaleSpec = None):
    """Canonicity certificate for the extended KS map at one point.

    The map is rank-deficient in the full 10-dimensional extended space
    (q4 is identically 0), so the two-form comparison M^T J M - J is
    evaluated on pairs of tangent vectors of the bilinear-constraint
    surface, where the transformation is canonical.  Returns the max
    absolute pairing defect over an orthonormal tangent basis.
    """
    if spec is None:
        spec = TimeScaleSpec(xi=lambda t: 1.0, t0=0.0)
    eprime = 0.0
    pt = ExtendedPoint(q=u, p=pu, t=tprime, e=eprime)
    M = map_jacobian(lambda z: ks_extended_map(z, spec), pt)
    J = symplectic_matrix(4)
    R = M.T @ J @ M - J

    # gradient of the bilinear constraint in the (q.., t, p.., -e) ordering
    grad = np.zeros(10)
    dCdu = [-pu[3], pu[2], -pu[1], pu[0]]
    dCdpu = [u[3], -u[2], u[1], -u[0]]
    grad[0:4] = dCdu
    grad[5:9] = dCdpu
    nrm = np.linalg.norm(grad)
    if nrm < 1e-14:
        raise CollisionChartError("constraint gradient vanishes (u = pu = 0)")
    grad /= nrm
    basis = np.linalg.svd(np.outer(grad, grad))[0][:, 1:]  # orthogonal complement
    proj = basis.T @ R @ basis
    return float(np.max(np.abs(proj)))
