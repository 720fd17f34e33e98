"""Extended phase space T*Q1: lifting, canonical equations, brackets, symplecticity.

Coordinate convention used throughout for Jacobians and the symplectic
matrix: z = (q^1..q^n, t, p_1..p_n, -e).  The energy value e itself is
stored with a plus sign on :class:`ExtendedPoint`; the sign flip happens
only where the conjugate-momentum role matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import DomainEvaluationError
from .numkit import value_of


@dataclass(frozen=True)
class ExtendedPoint:
    """One point of T*Q1 plus the evolution parameter s.

    t is the canonical coordinate q^{n+1}; e is the energy value, with
    p_{n+1} = -e.  Points may lie off the H1 = 0 shell; that is monitored,
    not enforced.
    """

    q: tuple
    p: tuple
    t: float
    e: float
    s: float = 0.0

    def __post_init__(self):
        if len(self.q) != len(self.p) or len(self.q) < 1:
            raise ValueError("q and p must have equal positive dimension")
        object.__setattr__(self, "q", tuple(self.q))
        object.__setattr__(self, "p", tuple(self.p))

    @property
    def n(self):
        return len(self.q)

    def on_shell(self, sys):
        """|H(q, p, t) - e| <= 1e-10."""
        return abs(value_of(sys.H(self.q, self.p, self.t) - self.e)) <= 1e-10


@dataclass(frozen=True)
class HamiltonianSystem:
    """A differentiable scalar field H(q, p, t) of dimension n.

    H must be written with the generic arithmetic of :mod:`extphase.numkit`
    so it can be differentiated by dual seeding.
    """

    n: int
    H: object  # callable (q, p, t) -> scalar
    description: str = ""

    def __call__(self, q, p, t):
        return self.H(q, p, t)


@dataclass(frozen=True)
class Parameterization:
    """The caller-supplied scaling field k = dt/ds; k may vanish or go negative."""

    k: object  # callable (s, ExtendedPoint) -> scalar

    @staticmethod
    def constant(value=1.0):
        return Parameterization(k=lambda s, pt: value)


def lift(q, p, t, sys):
    """Map (q, p, t) to the extended point with e = H(q, p, t) and s = 0."""
    q, p = tuple(q), tuple(p)
    if len(q) != sys.n:
        raise ValueError(f"dimension mismatch: expected n={sys.n}")
    e = sys.H(q, p, t)
    if not math.isfinite(value_of(e)):
        raise DomainEvaluationError(f"H not finite at lift point (q={q}, p={p}, t={t})")
    return ExtendedPoint(q=q, p=p, t=t, e=e, s=0.0)


def extended_value(pt, k, sys):
    """H1 = k (H(q,p,t) - e); zero on-shell for any k."""
    h = sys.H(pt.q, pt.p, pt.t)
    if not math.isfinite(value_of(h)):
        raise DomainEvaluationError("H not finite at evaluation point")
    return k * (h - pt.e)


def _h_grad(sys, n):
    """x -> `grad_raw` of H at the flat point x = (q.., p.., t)."""
    def grad(x):
        return numkit.grad_raw(lambda v: sys.H(v[:n], v[n:2 * n], v[2 * n]), x)
    return grad


def extended_rhs(pt, k, sys, grad=None):
    """Right-hand side of the extended canonical equations at one point,
    in the trajectory's state order (dq.., dp.., dt, de).  grad, when
    given, takes the place of ``grad_raw`` of H at the flat (q.., p.., t)."""
    n = pt.n
    _, g = (grad or _h_grad(sys, n))([*pt.q, *pt.p, pt.t])
    for gi in g:
        if not math.isfinite(value_of(gi)):
            raise DomainEvaluationError("H derivative not finite")
    return [k * gi for gi in g[n:2 * n]] + [-k * gi for gi in g[:n]] \
        + [k, k * g[2 * n]]


def trajectory_labels(n):
    return tuple(f"q{i+1}" for i in range(n)) + tuple(f"p{i+1}" for i in range(n)) \
        + ("t", "e")


def state_to_point(state, n, s=0.0):
    return ExtendedPoint(q=tuple(state[:n]), p=tuple(state[n:2 * n]),
                         t=state[2 * n], e=state[2 * n + 1], s=s)


def point_to_state(pt):
    return list(pt.q) + list(pt.p) + [pt.t, pt.e]


def propagate(pt0, sys, par, s_span, opts=None):
    """Integrate the extended canonical equations over s_span = (s0, s1).

    The trajectory state is (q.., p.., t, e); extended_value is constant
    along it, and on-shell starts stay on-shell to integration tolerance.
    Each right-hand side reads its state once as Python floats, and the
    H-gradient runs on a kernel of `grad_raw`
    (`numkit._trace_on_first_call`).
    """
    n = pt0.n
    s0, s1 = s_span
    grad = numkit._trace_on_first_call(_h_grad(sys, n))

    def rhs(s, y):
        pt = state_to_point(y.tolist(), n, s=s)
        return extended_rhs(pt, par.k(s, pt), sys, grad)

    return numkit.integrate(rhs, point_to_state(pt0), s0, s1, opts,
                            labels=trajectory_labels(n))


def _field_gradients(fields, pt):
    """The gradients of the scalar fields over (q.., p.., t, e) at pt,
    from one seeding."""
    n = pt.n

    def flat(x):
        q, p, t, e = x[:n], x[n:2 * n], x[2 * n], x[2 * n + 1]
        return [f(q, p, t, e) for f in fields]

    return numkit.jacobian_raw(flat, [*pt.q, *pt.p, pt.t, pt.e])[1]


def _bracket(gF, gG, n):
    """{F, G}_e from the gradients of F and G over (q.., p.., t, e)."""
    acc = 0.0
    for i in range(n):
        acc = acc + gF[i] * gG[n + i] - gF[n + i] * gG[i]
    acc = acc - gF[2 * n] * gG[2 * n + 1] + gF[2 * n + 1] * gG[2 * n]
    return acc


def poisson_extended(F, G, pt):
    """Extended Poisson bracket {F, G}_e at one point.

    F, G are scalar fields taking (q, p, t, e) with generic arithmetic; both
    gradients come from one seeding.
    """
    gF, gG = _field_gradients([F, G], pt)
    return _bracket(gF, gG, pt.n)


def poisson_matrix(fields, pt):
    """The matrix of extended brackets {fields[a], fields[b]}_e at pt, as
    nested lists, from one seeding of all the fields; each entry is
    bit-identical to `poisson_extended` of the pair."""
    grads = _field_gradients(fields, pt)
    return [[_bracket(gF, gG, pt.n) for gG in grads] for gF in grads]


def symplectic_matrix(n):
    """The standard (2n+2)x(2n+2) J for the ordering (q.., t, p.., -e)."""
    m = n + 1
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


def _flat(pt):
    """pt's coordinates in the (q.., t, p.., -e) ordering."""
    return list(pt.q) + [pt.t] + list(pt.p) + [-pt.e]


def _flat_map(map_fn, n, s):
    """map_fn as a function of the flat (q.., t, p.., -e) of points of
    dimension n and parameter s, to the flat image."""
    def fvec(z):
        src = ExtendedPoint(q=tuple(z[:n]), p=tuple(z[n + 1:2 * n + 1]),
                            t=z[n], e=-z[2 * n + 1], s=s)
        return _flat(map_fn(src))
    return fvec


def map_jacobian(map_fn, pt):
    """Jacobian of a smooth extended-coordinate map in (q.., t, p.., -e) ordering.

    map_fn takes and returns an ExtendedPoint and must be generic over dual
    coordinates, including any implicit solves it performs internally.
    """
    _, rows = numkit.jacobian_raw(_flat_map(map_fn, pt.n, pt.s), _flat(pt))
    return np.array([[value_of(v) for v in row] for row in rows])


def symplectic_residual(map_fn, pt):
    """Max-norm of M^T J M - J for the map's Jacobian M at pt; zero iff canonical."""
    M = map_jacobian(map_fn, pt)
    J = symplectic_matrix(pt.n)
    return float(np.max(np.abs(M.T @ J @ M - J)))
