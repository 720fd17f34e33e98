"""Extended Lagrangian: homogeneity, Legendre transform, Euler-Lagrange."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extphase import lagrangian, numkit
from extphase.errors import DegenerateTimeError
from extphase.lagrangian import (ExtendedVelocityPoint, LagrangianSystem,
                                 euler_lagrange_residual, extended_lagrangian,
                                 homogeneity_residual, legendre_to_h1,
                                 paired_hamiltonian)
from extphase.numkit import Trajectory, value_of


def harmonic():
    return LagrangianSystem(
        n=1, L=lambda q, qdot, t: 0.5 * qdot[0] ** 2 - 0.5 * q[0] ** 2)


PT = ExtendedVelocityPoint(q1=(1.2, 0.3), v1=(0.8, 1.4))


def test_point_validation():
    with pytest.raises(ValueError):
        ExtendedVelocityPoint(q1=(1.0, 2.0), v1=(1.0,))
    with pytest.raises(ValueError):
        ExtendedVelocityPoint(q1=(1.0,), v1=(1.0,))
    assert PT.n == 1


def test_extended_lagrangian_value():
    # L1 = L(q, v/k) * k with k = dt/ds
    got = value_of(extended_lagrangian(harmonic(), PT))
    qdot = 0.8 / 1.4
    assert got == pytest.approx((0.5 * qdot ** 2 - 0.5 * 1.2 ** 2) * 1.4,
                                abs=1e-14)


def test_degenerate_time_rejected():
    with pytest.raises(DegenerateTimeError):
        extended_lagrangian(harmonic(),
                            ExtendedVelocityPoint(q1=(1.0, 0.0),
                                                  v1=(1.0, 0.0)))


def test_homogeneity_and_euler_identity():
    for c in (0.5, 2.0, -3.0):
        scale_res, euler_res = homogeneity_residual(harmonic(), PT, c)
        assert scale_res < 1e-12
        assert euler_res < 1e-12
    with pytest.raises(ValueError):
        homogeneity_residual(harmonic(), PT, 0.0)


def test_legendre_momenta_and_vanishing_h1():
    p, p_np1, h1 = legendre_to_h1(harmonic(), PT)
    qdot = 0.8 / 1.4
    assert value_of(p[0]) == pytest.approx(qdot, abs=1e-13)
    # the time conjugate is -H(q, p, t)
    H = 0.5 * qdot ** 2 + 0.5 * 1.2 ** 2
    assert p_np1 == pytest.approx(-H, abs=1e-13)
    assert abs(h1) < 1e-13


def test_paired_hamiltonian_matches_closed_form():
    sys = paired_hamiltonian(harmonic())
    got = value_of(sys.H((1.2,), (0.7,), 0.0))
    assert got == pytest.approx(0.5 * 0.7 ** 2 + 0.5 * 1.2 ** 2, abs=1e-12)


def quartic():
    """A non-quadratic L: p = dL/dqdot is cubic in qdot, so the Newton solve
    for qdot takes several iterations."""
    def L(q, qdot, t):
        return sum(0.5 * v * v + v ** 4 / 12.0 for v in qdot) \
            + 0.3 * t * q[0] * qdot[1] - 0.5 * q[1] ** 2
    return LagrangianSystem(n=2, L=L)


def _hexes(values):
    return [value_of(v).hex() for v in values]


def dual_path_h(sys, q, p, t):
    """paired_hamiltonian's H by seeded duals in every Newton iteration."""
    def residual(v):
        _, g = numkit.grad_raw(lambda u: sys.L(q, tuple(u), t), list(v))
        return [gi - pi for gi, pi in zip(g, p)]

    qdot = numkit.newton_solve(residual, list(p))
    return sum(a * b for a, b in zip(p, qdot)) - sys.L(q, tuple(qdot), t)


_unit = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
# |p| >= 0.6 keeps the start qdot = p off the root: their first
# components differ by the root's qdot^3 / 3
_momentum = st.floats(min_value=0.6, max_value=2.0) | st.floats(
    min_value=-2.0, max_value=-0.6)


@given(st.lists(_unit, min_size=3, max_size=3),
       st.lists(_momentum, min_size=2, max_size=2),
       st.lists(_unit, min_size=3, max_size=3),
       st.lists(_momentum, min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_paired_hamiltonian_kernels_match_dual_path(qt, p, qt2, p2):
    # the first float call solves on the residual's kernel, which it
    # traces, and the second traces H's kernel, the Newton solve included:
    # the Dual path's bits, and no seeding after the traces.  At another
    # draw, the Dual path's bits too, on H's kernel or, if that draw's
    # Newton path crosses a guard, on the residual's.  Both kernels are
    # freed with H
    sys = quartic()
    q, p, t = tuple(qt[:2]), tuple(p), qt[2]
    q2, p2, t2 = tuple(qt2[:2]), tuple(p2), qt2[2]
    calls, traced = [], []
    jacobian_raw, trace = numkit.jacobian_raw, numkit.trace

    def counted(fvec, x):
        calls.append(x)
        return jacobian_raw(fvec, x)

    def recorded(fn, x):
        kernel = trace(fn, x)
        traced.append(weakref.ref(kernel))
        return kernel

    numkit.jacobian_raw, numkit.trace = counted, recorded
    try:
        want = dual_path_h(sys, q, p, t)
        ref_calls = len(calls)
        paired = paired_hamiltonian(sys)
        first = paired.H(q, p, t)
        paired.H(q, p, t)
        del calls[:]
        got = paired.H(q, p, t)
        after_trace = len(calls)
        other = paired.H(q2, p2, t2)
    finally:
        numkit.jacobian_raw, numkit.trace = jacobian_raw, trace
    # two or more iterations, the converged check and two polishing steps
    assert ref_calls >= 5
    assert after_trace == 0
    assert value_of(first).hex() == value_of(got).hex() \
        == value_of(want).hex()
    assert value_of(other).hex() == value_of(dual_path_h(sys, q2, p2,
                                                         t2)).hex()
    assert [ref().__name__ for ref in traced] == ["kernel", "kernel"]
    del paired
    gc.collect()
    assert all(ref() is None for ref in traced)


def test_paired_hamiltonian_off_the_traced_path_seeds_nothing(monkeypatch):
    # H's kernel traced at q = 0, t = 0; at another (q, t) the quartic L's
    # Newton path crosses one of its guards, and the call runs the solve
    # itself on the residual's kernel: the Dual path's bits, with no seeding
    sys = quartic()
    solves, calls = [], []
    newton_solve, jacobian_raw = numkit.newton_solve, numkit.jacobian_raw

    def counted_solve(residual, x0, *jacobian):
        solves.append(numkit._floats(x0))
        return newton_solve(residual, x0, *jacobian)

    def counted_jacobian(fvec, x):
        calls.append(x)
        return jacobian_raw(fvec, x)

    monkeypatch.setattr(numkit, "newton_solve", counted_solve)
    monkeypatch.setattr(numkit, "jacobian_raw", counted_jacobian)
    H = paired_hamiltonian(sys).H
    for _ in range(2):
        H((0.0, 0.0), (0.6, 0.6), 0.0)
    assert solves == [True, False]
    for p in [(0.6, 0.6), (2.0, -2.0), (-0.7, 1.5)]:
        del solves[:], calls[:]
        got = H((0.3, -0.2), p, 0.5)
        assert (solves, calls) == ([True], [])
        assert value_of(got).hex() \
            == value_of(dual_path_h(sys, (0.3, -0.2), p, 0.5)).hex()


def test_paired_hamiltonian_keeps_dual_path_at_dual_points():
    # a seeded H (a derivative of H) goes through the Dual path's solve
    sys = quartic()
    H = paired_hamiltonian(sys).H
    q, p, t = (0.4, -0.2), (1.1, -0.7), 0.3
    H(q, p, t)
    got = numkit.grad_raw(lambda x: H(x[:2], x[2:4], x[4]), [*q, *p, t])
    want = numkit.grad_raw(lambda x: dual_path_h(sys, x[:2], x[2:4], x[4]),
                           [*q, *p, t])
    assert value_of(got[0]).hex() == value_of(want[0]).hex()
    assert _hexes(got[1]) == _hexes(want[1])


def exact_trajectory(time_map, dtime_map, s_end=3.0, m=6001):
    """Tabulate the exact orbit q = cos(t(s)) as a dense Trajectory in s."""
    s = np.linspace(0.0, s_end, m)
    t = np.array([time_map(x) for x in s])
    dt = np.array([dtime_map(x) for x in s])
    states = np.column_stack([np.cos(t), t])
    derivs = np.column_stack([-np.sin(t) * dt, dt])
    return Trajectory(s=s, states=states, labels=("q1", "t"), derivs=derivs)


def test_euler_lagrange_residual_reparameterization_invariance():
    sys = harmonic()
    for time_map, dtime_map in (
            (lambda s: s, lambda s: 1.0),
            (lambda s: s ** 3 / 9.0 + 0.1 * s, lambda s: s ** 2 / 3.0 + 0.1),
            (lambda s: math.sinh(s) / 3.0, lambda s: math.cosh(s) / 3.0)):
        tr = exact_trajectory(time_map, dtime_map)
        ext_max, conv_max = euler_lagrange_residual(sys, tr)
        assert ext_max < 1e-6
        assert conv_max < 1e-6


def test_euler_lagrange_flags_non_solution():
    sys = harmonic()
    s = np.linspace(0.0, 3.0, 2001)
    states = np.column_stack([s.copy(), s.copy()])  # q = s is not an orbit
    derivs = np.column_stack([np.ones_like(s), np.ones_like(s)])
    tr = Trajectory(s=s, states=states, labels=("q1", "t"), derivs=derivs)
    ext_max, _ = euler_lagrange_residual(sys, tr)
    assert ext_max > 0.1


# ---------------------------------------------------------------------------
# the L1 kernel: at float points L1 and its full gradient run on one kernel
# traced once per system from the Dual code, which dual points keep
# ---------------------------------------------------------------------------

_rate = st.floats(min_value=0.2, max_value=2.0) | st.floats(
    min_value=-2.0, max_value=-0.2)


def _bits(xs):
    # float.hex tells -0.0 from 0.0, which == does not
    return [float(value_of(x)).hex() for x in xs]


@given(st.lists(_unit, min_size=5, max_size=5), _rate,
       st.booleans())
@settings(max_examples=50, deadline=None)
def test_l1_kernel_matches_dual_path(z, dt_ds, numpy_scalars):
    # z = (q1, q2, t, dq1/ds, dq2/ds) and dt/ds; the kernel is traced at
    # another point, and the dense output hands it numpy scalars
    sys = quartic()
    sys._l1_kernel([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    z = [*z, dt_ds]
    if numpy_scalars:
        z = [np.float64(v) for v in z]
    val, grad = sys._l1_kernel(z)
    want_val, want_grad = lagrangian._l1_seeded(sys, z)
    assert _bits([val, *grad]) == _bits([want_val, *want_grad])
    # a dual point runs the same Dual code; dividing by a nested dual takes
    # a power where a float takes 1.0 / x, so values agree to rounding
    dual_val, dual_grad = lagrangian._l1_gradient(
        sys, [numkit.Dual(v, (1.0,)) for v in z])
    assert [value_of(x) for x in [dual_val, *dual_grad]] == pytest.approx(
        [val, *grad], rel=1e-14, abs=1e-14)


def test_l1_kernel_is_traced_once_and_seeds_nothing_after(monkeypatch):
    traced, seeded = [], []
    trace, grad_raw = numkit.trace, numkit.grad_raw

    def counted_trace(fn, x):
        traced.append(x)
        return trace(fn, x)

    def counted_grad_raw(f, x):
        seeded.append(x)
        return grad_raw(f, x)

    monkeypatch.setattr(numkit, "trace", counted_trace)
    monkeypatch.setattr(numkit, "grad_raw", counted_grad_raw)
    sys = harmonic()
    homogeneity_residual(sys, PT, 2.0)
    assert len(traced) == 1
    del seeded[:]
    # probes at other points, Python floats and the dense output's numpy
    # scalars alike, run on the kernel: no tracing and no seeding
    pt = ExtendedVelocityPoint(q1=(-0.4, 0.9), v1=(0.3, 0.7))
    homogeneity_residual(sys, pt, 0.5)
    legendre_to_h1(sys, pt)
    euler_lagrange_residual(
        sys, exact_trajectory(lambda s: s, lambda s: 1.0, m=201))
    assert len(traced) == 1
    assert seeded == []
    # a second system traces its own kernel
    homogeneity_residual(harmonic(), pt, 0.5)
    assert len(traced) == 2


def test_l1_kernel_raises_degenerate_time_before_and_after_trace():
    sys = harmonic()
    stalled = ExtendedVelocityPoint(q1=(1.0, 0.0), v1=(1.0, 0.0))
    # a first call at dt/ds = 0 raises and traces nothing; the next traces
    with pytest.raises(DegenerateTimeError):
        legendre_to_h1(sys, stalled)
    p, p_np1, h1 = legendre_to_h1(sys, PT)
    assert value_of(p[0]) == pytest.approx(0.8 / 1.4, abs=1e-13)
    # the traced kernel's guard hands dt/ds = 0 to the Dual code
    for probe in (lambda: legendre_to_h1(sys, stalled),
                  lambda: sys._l1_kernel([np.float64(v) for v in
                                          (1.0, 0.0, 1.0, 0.0)])):
        with pytest.raises(DegenerateTimeError):
            probe()


def test_l1_kernel_is_freed_with_its_system():
    # the kernel is guarded, so it holds its Dual code for the fallback, and
    # that code holds the system: a cycle that the garbage collector frees
    refs = []
    for _ in range(20):
        sys = harmonic()
        homogeneity_residual(sys, PT, 2.0)
        refs.append(weakref.ref(sys))
    del sys
    gc.collect()
    assert all(ref() is None for ref in refs)
