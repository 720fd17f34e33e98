"""Dual arithmetic, linear/Newton solvers, quadrature, trajectories, integrator."""

import gc
import math
import operator
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extphase import numkit
from extphase.errors import (DegeneracyError, DomainEvaluationError,
                             ImplicitSolveError, IntegrationStallError,
                             StepBudgetError)
from extphase.numkit import (Dual, IntegratorOptions, Trajectory, cos, exp,
                             grad_raw, integrate, jacobian_raw, log,
                             newton_solve, quad_fixed, sin, solve_linear, sqrt,
                             trace, value_of)
from extphase.tdsystems import time_derivatives

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def test_grad_eval_polynomial():
    val, g = grad_raw(lambda x: x[0] ** 2 + 3.0 * x[0] * x[1], [2.0, 5.0])
    assert val == pytest.approx(34.0, abs=1e-14)
    assert g[0] == pytest.approx(2 * 2.0 + 3 * 5.0, abs=1e-14)
    assert g[1] == pytest.approx(6.0, abs=1e-14)


def test_grad_eval_transcendental():
    val, g = grad_raw(lambda x: sin(x[0]) * exp(x[1]) + log(x[0]), [1.3, 0.4])
    assert val == pytest.approx(math.sin(1.3) * math.exp(0.4) + math.log(1.3),
                                abs=1e-14)
    assert g[0] == pytest.approx(math.cos(1.3) * math.exp(0.4) + 1 / 1.3,
                                 abs=1e-13)
    assert g[1] == pytest.approx(math.sin(1.3) * math.exp(0.4), abs=1e-13)


@given(finite, finite)
@settings(max_examples=50, deadline=None)
def test_product_rule(a, b):
    _, g = grad_raw(lambda x: x[0] * x[1], [a, b])
    assert value_of(g[0]) == pytest.approx(b, abs=1e-12)
    assert value_of(g[1]) == pytest.approx(a, abs=1e-12)


def test_quotient_and_power():
    _, g = grad_raw(lambda x: x[0] / x[1] + x[0] ** 3, [2.0, 4.0])
    assert g[0] == pytest.approx(1 / 4.0 + 3 * 4.0, abs=1e-13)
    assert g[1] == pytest.approx(-2.0 / 16.0, abs=1e-13)


def test_sqrt_chain():
    _, g = grad_raw(lambda x: sqrt(1.0 + x[0] ** 2), [3.0])
    assert g[0] == pytest.approx(3.0 / math.sqrt(10.0), abs=1e-14)


def test_nested_gradients_are_second_derivatives():
    # d/dx of (d/dx sin(x)) must give -sin(x), exercising nested seeding
    def outer(x):
        _, g = grad_raw(lambda y: sin(y[0]), [x[0]])
        return g[0]

    _, g2 = grad_raw(outer, [0.7])
    assert value_of(g2[0]) == pytest.approx(-math.sin(0.7), abs=1e-13)


def test_nested_gradients_mixed_variables():
    # f(a, b) = a * b^2; inner gradient in b, outer in a must not mix seeds
    def outer(a):
        _, g = grad_raw(lambda b: a[0] * b[0] ** 2, [3.0])
        return g[0]  # 2 a b at b = 3

    val, g = grad_raw(outer, [5.0])
    assert value_of(val) == pytest.approx(30.0, abs=1e-13)
    assert value_of(g[0]) == pytest.approx(6.0, abs=1e-13)


def test_outer_variable_constant_inside_inner_seed():
    # an inner gradient with respect to an outer dual treats it as constant
    x = Dual(2.0, (1.0,), tag=0)
    _, g = grad_raw(lambda y: y[0] * x, [4.0])
    assert value_of(g[0]) == pytest.approx(2.0, abs=1e-15)


def test_dual_eps_accepts_any_iterable():
    eps = (1.0, 2.0)
    assert Dual(0.5, eps).eps is eps
    assert Dual(0.5, [1.0, 2.0]).eps == eps
    assert Dual(0.5, (v for v in [1.0, 2.0])).eps == eps


def test_non_integer_power_of_negative_base_raises():
    with pytest.raises(DomainEvaluationError):
        grad_raw(lambda x: x[0] ** 0.5, [-2.0])
    with pytest.raises(DomainEvaluationError):
        Dual(-2.0, (1.0,)) ** -1.5
    # integer exponents, int or float, stay real at a negative base
    _, g = grad_raw(lambda x: x[0] ** 3 + x[0] ** 2.0, [-2.0])
    assert g[0] == 3 * 4.0 + 2 * -2.0


def test_sqrt_of_dual_at_zero_raises():
    with pytest.raises(DomainEvaluationError):
        grad_raw(lambda x: sqrt(x[0]), [0.0])
    # nested seeds: the inner generation's value is itself a dual at 0
    with pytest.raises(DomainEvaluationError):
        grad_raw(lambda a: grad_raw(lambda b: sqrt(a[0] * b[0]), [1.0])[1][0],
                 [0.0])
    assert sqrt(0.0) == 0.0


def test_abs_at_zero_has_slope_plus_one():
    for x0 in (0.0, -0.0):
        val, g = grad_raw(lambda x: abs(x[0]), [x0])
        assert (val, g) == (x0, [1.0])
    _, g = grad_raw(lambda x: abs(x[0]), [-1e-300])
    assert g == [-1.0]


def test_jacobian_raw_rows():
    _, rows = jacobian_raw(lambda x: [x[0] + x[1], x[0] * x[1]], [2.0, 3.0])
    M = np.array([[value_of(v) for v in row] for row in rows])
    assert np.allclose(M, [[1.0, 1.0], [3.0, 2.0]], atol=1e-14)


def test_solve_linear_exact():
    x = solve_linear([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
    assert value_of(x[0]) == pytest.approx(1.0, abs=1e-13)
    assert value_of(x[1]) == pytest.approx(3.0, abs=1e-13)


def test_solve_linear_singular_raises():
    with pytest.raises(DegeneracyError):
        solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(DegeneracyError):
        solve_linear([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])


def test_solve_linear_equilibrated_scales_rows_and_columns():
    # det = -a^2 with a = 1e-3 against an entry of 1e12: singular relative
    # to the largest entry, regular relative to its own rows and columns
    A, b = [[0.0, 1e-3], [1e-3, -1e12]], [1.0, 0.0]
    with pytest.raises(DegeneracyError):
        solve_linear(A, b)
    x = solve_linear(A, b, equilibrated=True)
    assert x == pytest.approx([1e18, 1e3], rel=1e-12)
    with pytest.raises(DegeneracyError):
        solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0], equilibrated=True)


def test_newton_solve_scalar_root():
    x = newton_solve(lambda v: [v[0] ** 2 - 2.0], [1.0])
    assert value_of(x[0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_newton_solve_branch_follows_seed():
    lo = newton_solve(lambda v: [v[0] ** 2 - 2.0], [-1.0])
    assert value_of(lo[0]) == pytest.approx(-math.sqrt(2.0), abs=1e-12)


def test_newton_solve_divergent_raises():
    with pytest.raises(ImplicitSolveError):
        newton_solve(lambda v: [v[0] ** 2 + 1.0], [0.5])


def test_newton_solve_double_root_raises():
    # (x - 2)^2 = 0: the residual falls below tolerance about 1e-6 short of
    # the root, and Newton then only halves the distance per step
    with pytest.raises(DegeneracyError):
        newton_solve(lambda v: [(v[0] - 2.0) ** 2], [1.0])


def test_newton_solve_dual_unknowns_give_implicit_derivative():
    # solve x^2 = a for x(a); dx/da = 1/(2x)
    def outer(a):
        x = newton_solve(lambda v: [v[0] ** 2 - a[0]], [2.0])
        return x[0]

    val, g = grad_raw(outer, [4.0])
    assert value_of(val) == pytest.approx(2.0, abs=1e-12)
    assert value_of(g[0]) == pytest.approx(0.25, abs=1e-10)


def test_newton_solve_evaluates_no_point_twice():
    # x / sqrt(1 + x^2) = 0 from 1.5: the full first step overshoots to
    # -3.375, so the line search backtracks once; the (r, J) of the
    # accepted trial serves the next iteration, so no point repeats
    points = []

    def f(v):
        return [v[0] / sqrt(1.0 + v[0] * v[0])]

    def residual(v):
        points.append(tuple(v))
        return f(v)

    def jacobian(v):
        points.append(tuple(v))
        return jacobian_raw(f, v)

    x = newton_solve(residual, [1.5], jacobian)
    assert x[0] == pytest.approx(0.0, abs=1e-12)
    # the full step and the half step the line search takes instead
    assert [p[0] for p in points[1:3]] == pytest.approx([-3.375, -0.9375])
    assert len(points) == len(set(points))


def _nan_second_component(v):
    # inf - inf: the second residual is NaN at every v[1] != 2, and so is
    # its Jacobian entry, while the first converges at once
    big = (v[1] - 2.0) * 1e300 * 1e300
    return [v[0] - 1.0, big - big]


@pytest.mark.parametrize("x0", [
    [1.0, 3.0],
    [Dual(1.0, (1.0, 0.0)), Dual(3.0, (0.0, 1.0))],
], ids=["float", "dual"])
def test_newton_solve_never_returns_a_nan_root(x0):
    # max() skips a NaN that is not first, so the residual norm read as
    # converged and the NaN polishing step was returned as the root
    with pytest.raises(ImplicitSolveError, match="NaN"):
        newton_solve(_nan_second_component, x0)


def test_newton_solve_nan_polishing_step_raises():
    # a converged float residual whose Jacobian is NaN: the polishing step
    # is NaN, not a root
    def jacobian(v):
        return [v[0] - 1.0], [[math.nan]]

    with pytest.raises(ImplicitSolveError, match="polishing step is NaN"):
        newton_solve(None, [1.0], jacobian)


def test_solve_linear_zero_pivot_beside_a_nan_is_singular():
    # a NaN entry makes the largest entry NaN, which no pivot test compares
    # below; an exactly zero pivot is singular still, not a division by zero
    with pytest.raises(DegeneracyError, match="singular"):
        solve_linear([[0.0, 0.0], [0.0, math.nan]], [1.0, 1.0])

    # the same Jacobian from a finite, unconverged Newton residual
    def residual(v):
        big = (v[1] - 2.0) * 1e300 * 1e300
        return [1.0 + 0.0 * v[0], big - big]

    with pytest.raises(DegeneracyError, match="singular"):
        newton_solve(residual, [0.0, 2.0])


def test_max_abs_is_one_kernel_line():
    # a NaN anywhere makes the norm NaN, and in a kernel the norm is one
    # line that calls _max_abs again, not a guard on which entry is largest
    assert numkit._max_abs() == 0.0
    assert numkit._max_abs(-0.0, 2.0, -3.0) == 3.0
    for values in ([1.0, math.nan], [math.nan, 1.0], [math.inf, math.nan]):
        assert math.isnan(numkit._max_abs(*values))

    def fn(x):
        return [numkit._max_abs(*x)]

    kernel = trace(fn, [3.0, -1.0, 2.0])
    assert "_fn" not in kernel.__globals__
    for x in ([1.0, -5.0, 2.0], [0.0, 0.0, -0.0], [1.0, math.nan, 2.0]):
        assert kernel(x)[0].hex() == fn(x)[0].hex()


def test_quad_fixed_exact_for_smooth_integrand():
    got = quad_fixed(lambda t: cos(t), 0.0, 1.5)
    assert value_of(got) == pytest.approx(math.sin(1.5), abs=1e-14)


def test_quad_fixed_dual_endpoint_derivative():
    # d/db int_0^b cos = cos(b)
    _, g = grad_raw(lambda v: quad_fixed(lambda t: cos(t), 0.0, v[0]), [0.8])
    assert value_of(g[0]) == pytest.approx(math.cos(0.8), abs=1e-12)


def test_import_leaves_quadrature_rule_unloaded():
    # quad_fixed loads its Gauss-Legendre rule on first use: importing
    # numpy.polynomial up front would add to every run's start-up time and
    # memory
    src = os.path.dirname(os.path.dirname(numkit.__file__))
    code = "import sys, extphase.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, cwd=src,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


def test_trajectory_requires_monotone_parameter():
    with pytest.raises(ValueError):
        Trajectory(s=np.array([0.0, 1.0, 0.5]),
                   states=np.zeros((3, 1)), labels=("x",))


def test_trajectory_accepts_decreasing_parameter():
    tr = Trajectory(s=np.array([1.0, 0.5, 0.0]),
                    states=np.arange(3.0).reshape(3, 1), labels=("x",))
    assert len(tr) == 3
    assert tr.column("x")[-1] == 2.0
    for dense in (tr.interpolate, tr.derivative):
        with pytest.raises(ValueError, match="without dense output"):
            dense(0.75)


def test_integrate_end_snap_is_relative_to_the_span():
    # on a span of 1e-15 the first accepted step must not be stamped s1:
    # y' = -1e16 y decays by e^-10 over it
    tr = integrate(lambda s, y: -1e16 * y, [1.0], 0.0, 1e-15,
                   IntegratorOptions(min_step=1e-30))
    assert len(tr) > 2
    assert tr.s[-1] == 1e-15
    assert tr.final_state[0] == pytest.approx(math.exp(-10.0), rel=1e-6)


def test_integrate_exponential():
    tr = integrate(lambda s, y: [y[0]], [1.0], 0.0, 2.0, labels=("x",))
    assert tr.final_state[0] == pytest.approx(math.exp(2.0), rel=1e-10)


def test_integrate_harmonic_and_dense_output():
    tr = integrate(lambda s, y: [y[1], -y[0]], [1.0, 0.0], 0.0, 5.0,
                   labels=("q", "p"))
    assert tr.final_state[0] == pytest.approx(math.cos(5.0), abs=1e-9)
    mid = tr.interpolate(2.5)
    assert mid[0] == pytest.approx(math.cos(2.5), abs=1e-8)
    dm = tr.derivative(2.5)
    assert dm[0] == pytest.approx(-math.sin(2.5), abs=1e-6)


def test_integrate_backwards():
    tr = integrate(lambda s, y: [y[0]], [1.0], 0.0, -1.0, labels=("x",))
    assert tr.final_state[0] == pytest.approx(math.exp(-1.0), rel=1e-10)
    # dense output on a decreasing s
    assert tr.interpolate(-0.5)[0] == pytest.approx(math.exp(-0.5), rel=1e-9)
    assert tr.derivative(-0.5)[0] == pytest.approx(math.exp(-0.5), rel=1e-7)


def test_dop853_tableau_conditions():
    # the stage matrix, the 8th-order weights and the 13 stage times
    A, b, c = _REF_A[:12], _REF_A[12], _REF_C
    # every stage time is its row sum; the FSAL stage runs at y8, s + h
    np.testing.assert_allclose(A.sum(axis=1), c[:12], rtol=0.0, atol=1e-14)
    assert c[12] == 1.0 and b.sum() == pytest.approx(1.0, abs=1e-14)
    # the stability polynomial of an 8th-order method: b A^(k-1) 1 = 1/k!,
    # and the quadrature conditions b c^(k-1) = 1/k
    v = np.ones(12)
    for k in range(1, 9):
        assert b @ v == pytest.approx(1.0 / math.factorial(k), abs=1e-14)
        assert b @ c[:12] ** (k - 1) == pytest.approx(1.0 / k, abs=1e-14)
        v = A @ v
    # each error estimate is a difference of two solutions: no constant part
    for e in (numkit._E5, numkit._E3):
        assert abs(e.sum()) < 1e-14


def _closed_form_runs():
    """(trajectory, solution, its derivative) at default options: y'' = -y
    over 50 time units, and y' = y cos s forward and backward over 20."""
    return [
        (integrate(lambda s, y: [y[1], -y[0]], [1.0, 0.0], 0.0, 50.0),
         lambda s: np.array([math.cos(s), -math.sin(s)]),
         lambda s: np.array([-math.sin(s), -math.cos(s)])),
    ] + [
        (integrate(lambda s, y: y * math.cos(s), [1.0], 0.0, s1),
         lambda s: np.array([math.exp(math.sin(s))]),
         lambda s: np.array([math.cos(s) * math.exp(math.sin(s))]))
        for s1 in (20.0, -20.0)]


def test_integrate_closed_forms_at_default_options():
    (osc, y, _), (fwd, z, _), (bwd, _, _) = _closed_form_runs()
    # max_step = 0.1 bounds the steps, not the tolerance: 500 steps
    assert len(osc) <= 502
    np.testing.assert_allclose(osc.final_state, y(50.0), rtol=0.0, atol=1e-11)
    for tr, s1 in ((fwd, 20.0), (bwd, -20.0)):
        assert tr.s[-1] == s1
        np.testing.assert_allclose(tr.final_state, z(s1), rtol=1e-12)


def test_dense_output_at_every_segment_midpoint():
    # degree 7 inside, and degree 5 on the two end segments, which have one
    # sample on their outer side; a cubic Hermite is off by about
    # h^4 / 384 = 2.6e-7 on the oscillator
    for (tr, y, dy), inner in zip(_closed_form_runs(), (2e-12, 1e-9, 1e-9)):
        mids = 0.5 * (tr.s[1:] + tr.s[:-1])
        err = np.array([[np.max(np.abs(tr.interpolate(s) - y(s))),
                         np.max(np.abs(tr.derivative(s) - dy(s)))]
                        for s in mids])
        assert np.all(err < [1e-8, 1e-7])
        assert np.all(err[1:-1] < inner)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_dense_output_reproduces_polynomials_of_its_degree(n):
    # with k samples in the window the interpolant has degree 2k - 1: a
    # 2-sample trajectory reproduces a cubic, a 3-sample one a quintic, and
    # the interior segments of a longer one a degree-7 polynomial; the
    # samples run backwards, with uneven gaps
    deg = {2: 3, 3: 5, 6: 7}[n]
    coef = np.array([0.3, -1.1, 0.7, 0.25, -0.4, 0.9, -0.15, 0.05])[:deg + 1]
    poly = np.polynomial.Polynomial(coef)
    s = 1.0 - np.cumsum([0.0, 0.4, 0.25, 0.5, 0.3, 0.45])[:n]
    tr = Trajectory(s=s, states=poly(s)[:, None], labels=("y",),
                    derivs=poly.deriv()(s)[:, None])
    interior = range(1, n - 2) if n > 3 else range(n - 1)
    for i in interior:
        for u in (0.0, 0.3, 0.5, 0.9):
            x = s[i] + u * (s[i + 1] - s[i])
            assert tr.interpolate(x)[0] == pytest.approx(poly(x), abs=1e-13)
            assert tr.derivative(x)[0] == pytest.approx(poly.deriv()(x),
                                                        abs=1e-12)


def test_integrate_stalls_on_nan_with_context():
    def rhs(s, y):
        # a step stops at its first non-finite stage, so no stage is ever
        # evaluated at a NaN state
        assert np.all(np.isfinite(y)), y
        if y[0] > 2.0:
            return [math.nan]
        return [y[0]]

    with pytest.raises(IntegrationStallError) as exc:
        integrate(rhs, [1.0], 0.0, 5.0, labels=("x",))
    assert exc.value.s_last == pytest.approx(math.log(2.0), abs=1e-6)
    assert exc.value.state_last[0] == pytest.approx(2.0, abs=1e-5)
    traj = exc.value.trajectory
    assert traj.s[-1] == exc.value.s_last
    assert np.array_equal(traj.states[-1], exc.value.state_last)


def test_integrate_step_floor_stops_collision_early():
    # free fall into x = 0 of H = p^2/2 - 1/x; the RHS is NaN past it
    calls = [0]

    def rhs(s, y):
        calls[0] += 1
        x, p = y
        return [math.nan, math.nan] if x <= 0 else [p, -1.0 / x ** 2]

    opts = IntegratorOptions()
    with pytest.raises(IntegrationStallError) as exc:
        integrate(rhs, [1.0, 0.0], 0.0, 3.0, opts, labels=("x", "p"))
    # min_step bounds every step, so accepted steps cannot shrink towards
    # zero length: that took about 167k calls
    assert calls[0] < 20000
    assert np.all(np.diff(exc.value.trajectory.s) >= opts.min_step)


def test_integrator_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(min_step=1.0, max_step=0.5)


def test_integrator_options_reject_nan_and_zero_min_step():
    for key in ("rel_tol", "abs_tol", "min_step", "max_step"):
        with pytest.raises(ValueError):
            IntegratorOptions(**{key: math.nan})
    for min_step in (0.0, -1e-12):
        with pytest.raises(ValueError):
            IntegratorOptions(min_step=min_step)


def test_integrate_step_budget(monkeypatch):
    # the harmonic run below takes at least 50 steps of max_step = 0.1
    monkeypatch.setattr(numkit, "MAX_STEPS", 20)
    with pytest.raises(StepBudgetError) as exc:
        integrate(lambda s, y: [y[1], -y[0]], [1.0, 0.0], 0.0, 5.0)
    # not a stall: cli._run_kepler_direct must not report it as a collision
    assert not isinstance(exc.value, IntegrationStallError)
    monkeypatch.setattr(numkit, "MAX_STEPS", 1000)
    tr = integrate(lambda s, y: [y[1], -y[0]], [1.0, 0.0], 0.0, 5.0)
    assert tr.s[-1] == 5.0


def test_integrate_complex_rhs_value_raises_domain_error():
    # a plain-float field past its real domain: (1 - s) ** 0.5 for s > 1
    with pytest.raises(DomainEvaluationError):
        integrate(lambda s, y: [(1.0 - float(s)) ** 0.5], [0.0], 0.0, 2.0)
    # any other TypeError from the RHS passes through as it is
    with pytest.raises(TypeError):
        integrate(lambda s, y: [object()], [0.0], 0.0, 1.0)


@pytest.mark.parametrize("rhs", [
    # math.exp overflows past s = 0.355, inside the first step
    lambda s, y: [1.0 + 0.0 * math.exp(2e3 * s)],
    # the first step's last stages run at s = 0.5
    lambda s, y: [1.0 / (s - 0.5)],
], ids=["overflow", "zero division"])
def test_integrate_refused_float_operation_raises_domain_error(rhs):
    with pytest.raises(DomainEvaluationError, match="not evaluable"):
        integrate(rhs, [1.0], 0.0, 1.0, IntegratorOptions(max_step=0.5))


def test_integrate_complex_numpy_value_raises_domain_error():
    # numpy casts a complex array into the float state or stage array with
    # only a ComplexWarning, which would drop the imaginary part
    with pytest.raises(DomainEvaluationError):
        integrate(lambda s, y: np.array([1j + 1.0]) * y, [1.0], 0.0, 1.0)
    with pytest.raises(DomainEvaluationError):
        integrate(lambda s, y: -y, np.array([1.0 + 0.5j]), 0.0, 1.0)


@pytest.mark.parametrize("y0, s0, s1", [
    ([], 0.0, 1.0), (np.empty(0), 1.0, 0.0), ([1.0], 0.0, math.inf),
    ([1.0], 0.0, -math.inf), ([1.0], math.nan, 1.0), ([1.0], 0.0, math.nan),
    ([1.0], -math.inf, math.inf)])
def test_integrate_rejects_bad_input_before_any_rhs_call(y0, s0, s1):
    # an empty y0 has no error norm, and an infinite span would run the
    # whole MAX_STEPS budget: both fail up front, with no warning
    calls = []

    def rhs(s, y):
        calls.append(s)
        return -y

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty initial state|not finite"):
            integrate(rhs, y0, s0, s1)
    assert calls == []


# the same plain right-hand sides for integrate and scipy's DOP853
def _euler_regularized_kepler(tp, y):
    # Euler's regularized equation x'' = 2 e x + K^2 in t', with dt/dt' = x;
    # K^2 = 1 and e = -1/2 from x0 = 2, p0 = 0
    x, v, t = y
    return [v, 2.0 * -0.5 * x + 1.0, x]


def _driven_oscillator(t, y):
    # parametric drive: q'' = -(1 + 0.3 cos 2t) q
    q, p = y
    return [p, -(1.0 + 0.3 * math.cos(2.0 * t)) * q]


def _free_fall(t, y):
    # H = p^2/2 - 1/x; from x0 = 1 at rest the collision is at t = pi / 2^1.5
    x, p = y
    return [p, -1.0 / x ** 2]


@pytest.mark.parametrize("rhs, y0, s1", [
    (_euler_regularized_kepler, [2.0, 0.0, 0.0], 5.0),
    (_driven_oscillator, [1.0, 0.5], 10.0),
    (_free_fall, [1.0, 0.0], 0.98 * math.pi / 2.0 ** 1.5),
], ids=["regularized-kepler", "driven-oscillator", "free-fall"])
def test_integrate_matches_scipy_dop853(rhs, y0, s1):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    want = solve_ivp(rhs, (0.0, s1), y0, method="DOP853", rtol=1e-13,
                     atol=1e-13).y[:, -1]
    got = integrate(rhs, y0, 0.0, s1).final_state
    # every final component is of order 0.1 or more, so relative is fair
    assert np.all(np.abs(want) > 0.1)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# reference kernel: the plain per-slot Dual, one generator expression per
# result; numkit.Dual must reproduce it bit for bit
# ---------------------------------------------------------------------------


class RefDual:
    __slots__ = ("val", "eps", "tag")

    def __init__(self, val, eps, tag=0):
        self.val = val
        self.eps = tuple(eps)
        self.tag = tag

    def __add__(self, other):
        if isinstance(other, RefDual):
            if other.tag == self.tag:
                return RefDual(self.val + other.val,
                               tuple(a + b for a, b in zip(self.eps, other.eps)),
                               self.tag)
            if other.tag > self.tag:
                return other.__add__(self)
        return RefDual(self.val + other, self.eps, self.tag)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefDual):
            if other.tag == self.tag:
                return RefDual(self.val - other.val,
                               tuple(a - b for a, b in zip(self.eps, other.eps)),
                               self.tag)
            if other.tag > self.tag:
                return (-other).__add__(self)
        return RefDual(self.val - other, self.eps, self.tag)

    def __rsub__(self, other):
        return RefDual(other - self.val, tuple(-a for a in self.eps), self.tag)

    def __mul__(self, other):
        if isinstance(other, RefDual):
            if other.tag == self.tag:
                return RefDual(self.val * other.val,
                               tuple(a * other.val + self.val * b
                                     for a, b in zip(self.eps, other.eps)),
                               self.tag)
            if other.tag > self.tag:
                return other.__mul__(self)
        return RefDual(self.val * other, tuple(a * other for a in self.eps),
                       self.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RefDual):
            if other.tag == self.tag:
                inv = 1.0 / other.val if not isinstance(other.val, RefDual) \
                    else other.val ** -1.0
                q = self.val * inv
                return RefDual(q, tuple((a - q * b) * inv
                                        for a, b in zip(self.eps, other.eps)),
                               self.tag)
            if other.tag > self.tag:
                return other.__rtruediv__(self)
            inv = other ** -1.0
            return RefDual(self.val * inv, tuple(a * inv for a in self.eps),
                           self.tag)
        inv = 1.0 / other
        return RefDual(self.val * inv, tuple(a * inv for a in self.eps),
                       self.tag)

    def __rtruediv__(self, other):
        q = other / self.val
        inv = q / self.val
        return RefDual(q, tuple(-inv * a for a in self.eps), self.tag)

    def __pow__(self, k):
        if k == 0:
            return RefDual(self.val * 0 + 1.0,
                           tuple(0.0 * a for a in self.eps), self.tag)
        w = self.val ** (k - 1)
        return RefDual(w * self.val, tuple((k * w) * a for a in self.eps),
                       self.tag)

    def __neg__(self):
        return RefDual(-self.val, tuple(-a for a in self.eps), self.tag)


def _ref_chain(x, f0, d0):
    return RefDual(f0, tuple(d0 * a for a in x.eps), x.tag)


def _ref_sqrt(x):
    if isinstance(x, RefDual):
        r = _ref_sqrt(x.val)
        return _ref_chain(x, r, 0.5 / r)
    if x < 0.0:
        raise DomainEvaluationError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _ref_exp(x):
    if isinstance(x, RefDual):
        r = _ref_exp(x.val)
        return _ref_chain(x, r, r)
    return math.exp(x)


def _ref_log(x):
    if isinstance(x, RefDual):
        return _ref_chain(x, _ref_log(x.val),
                          1.0 / x.val if not isinstance(x.val, RefDual)
                          else x.val ** -1.0)
    if x <= 0.0:
        raise DomainEvaluationError(f"log of non-positive value {x}")
    return math.log(x)


def _ref_sin(x):
    if isinstance(x, RefDual):
        return _ref_chain(x, _ref_sin(x.val), _ref_cos(x.val))
    return math.sin(x)


def _ref_cos(x):
    if isinstance(x, RefDual):
        return _ref_chain(x, _ref_cos(x.val), -_ref_sin(x.val))
    return math.cos(x)


_REF_TAG = [0]


def _ref_jacobian_raw(fvec, x):
    _REF_TAG[0] += 1
    tag, m = _REF_TAG[0], len(x)
    ys = fvec([RefDual(xi, tuple(1.0 if j == i else 0.0 for j in range(m)),
                       tag) for i, xi in enumerate(x)])
    vals, rows = [], []
    for y in ys:
        if isinstance(y, RefDual) and y.tag == tag:
            vals.append(y.val)
            rows.append(list(y.eps))
        else:
            vals.append(y)
            rows.append([0.0] * m)
    return vals, rows


REF = {"jacobian": _ref_jacobian_raw, "sqrt": _ref_sqrt, "exp": _ref_exp,
       "log": _ref_log, "sin": _ref_sin, "cos": _ref_cos}
KERNEL = {"jacobian": jacobian_raw, "sqrt": sqrt, "exp": exp, "log": log,
          "sin": sin, "cos": cos}
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv}


def _evaluate(tree, fns, env):
    op = tree[0]
    if op == "var":
        return env[tree[1]]
    if op == "const":
        return tree[1]
    if op == "pow":
        return _evaluate(tree[1], fns, env) ** tree[2]
    args = [_evaluate(t, fns, env) for t in tree[1:]]
    if op == "sum":
        return sum(args)  # starts from the int 0
    if op in _BINARY:
        return _BINARY[op](*args)
    if op == "neg":
        return -args[0]
    return fns[op](args[0])


def _nested_partials(fns, tree, x, y):
    """Value and gradient in y (inner seeds) of the tree, then their
    Jacobian in x (outer seeds), flattened to a list of floats."""
    jac = fns["jacobian"]

    def outer(xs):
        vals, rows = jac(lambda ys: [_evaluate(tree, fns, xs + ys)], y)
        return vals + rows[0]

    vals, rows = jac(outer, x)
    return vals + [d for row in rows for d in row]


def _tree_strategy(consts, unary, binary, powers):
    return st.recursive(
        st.tuples(st.just("var"), st.integers(0, 3))
        | st.tuples(st.just("const"), st.sampled_from(consts)),
        lambda sub: st.tuples(st.sampled_from(unary), sub)
        | st.tuples(st.sampled_from(binary), sub, sub)
        # a power of a plain float is Python's, not the kernel's: the base
        # holds a variable, so it is a Dual
        | st.tuples(st.just("pow"), sub.filter(lambda t: "var" in str(t)),
                    st.sampled_from(powers)),
        max_leaves=10)


_trees = _tree_strategy([-2.5, -1.0, 0.0, 0.5, 3.0],
                        ["neg", "sin", "cos", "exp", "log", "sqrt"],
                        sorted(_BINARY),
                        [-2, -1, 0, 1, 2, 3, 2.0, 0.5, -1.5])


@given(_trees, st.lists(finite, min_size=4, max_size=4))
@settings(max_examples=400, deadline=None)
def test_dual_kernel_matches_per_slot_reference(tree, point):
    x, y = point[:2], point[2:]
    try:
        want = _nested_partials(REF, tree, x, y)
    except (ArithmeticError, ValueError, TypeError, DomainEvaluationError):
        # the reference fails (a complex power fails at a later comparison);
        # the kernel must fail too, with a typed or arithmetic error
        with pytest.raises((ArithmeticError, ValueError,
                            DomainEvaluationError)):
            _nested_partials(KERNEL, tree, x, y)
        return
    if any(isinstance(v, complex) for v in want):
        with pytest.raises(DomainEvaluationError):
            _nested_partials(KERNEL, tree, x, y)
        return
    got = _nested_partials(KERNEL, tree, x, y)
    # bit for bit: float.hex tells -0.0 from 0.0 and lets NaN equal NaN
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


# ---------------------------------------------------------------------------
# traced kernels: numkit.trace records the Dual code once, at the values of
# one call; the compiled kernel must reproduce it bit for bit, run fn itself
# where a guard fails, or the trace must give up
# ---------------------------------------------------------------------------


# no log, sqrt or non-integer power: these trees always trace
_traceable_trees = _tree_strategy(
    [-2.5, -1.0, -0.0, 0, 0.0, 0.5, 3.0, math.inf],
    ["neg", "sin", "cos", "exp"],
    sorted(_BINARY) + ["sum"],
    [-2, -1, 0, 1, 2, 3, 2.0, -1.0])


def _flat(out):
    if isinstance(out, (tuple, list)):
        return [v for o in out for v in _flat(o)]
    return [out]


@given(_traceable_trees, st.lists(finite, min_size=4, max_size=4),
       st.none() | st.lists(finite, min_size=4, max_size=4),
       st.integers(0, 3), st.booleans())
# an unseeded numpy scalar times a Dual: numpy hands the Dual a Python float
@example(("mul", ("var", 1), ("var", 0)), [0.0, 1.0, 0.0, 0.0], None, 1,
         True)
# traced at 1, run at 0: an unguarded kernel raises the field's error there
@example(("div", ("const", 3.0), ("var", 0)), [0.0, 1.0, 1.0, 1.0],
         [1.0, 1.0, 1.0, 1.0], 0, False)
@settings(max_examples=300, deadline=None)
def test_traced_kernel_matches_grad_raw(tree, point, at, order, numpy_args):
    def field(x):
        def f(v):
            return _evaluate(tree, KERNEL, v)
        # the gradient in all four inputs, and nested seeds of the first
        return (grad_raw(f, x),
                time_derivatives(lambda t: f([t, *x[1:]]), x[0], order))

    # the kernel is traced at `at` (at the point itself if None) and run at
    # the point; all are Python floats or numpy scalars, whose overflow and
    # NaN warnings are silenced here
    def scalars(p):
        return list(np.array(p)) if numpy_args else p

    args = scalars(point)
    traced = args if at is None else scalars(at)
    with np.errstate(all="ignore"):
        try:
            field(traced)
        except Exception as exc:
            # traced where the field raises, the trace raises its error
            with pytest.raises(type(exc)):
                trace(field, traced)
            kernel = None
        else:
            kernel = trace(field, traced)
            assert kernel is not field
        try:
            want = field(args)
        except Exception as exc:
            # where the field raises, the kernel raises the same error type
            if kernel is not None:
                with pytest.raises(type(exc)):
                    kernel(args)
            return
        if kernel is None:
            kernel = trace(field, args)
        got = kernel(args)
    # bit for bit, and of the same type (the int 0 of sum() stays an int)
    assert [(type(v), float(v).hex()) for v in _flat(got)] \
        == [(type(v), float(v).hex()) for v in _flat(want)]


def _outcome(fn, x):
    """fn(x)'s types and bits, or its error's type and message."""
    try:
        return [(type(v), float(v).hex()) for v in _flat(fn(x))]
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("field, across", [
    (lambda v: v[0] * v[1] if v[0] < v[1] else v[1], [5.0, 3.0]),
    (lambda v: abs(v[0]) * v[1], [-2.0, 3.0]),
    (lambda v: value_of(v[0]) * v[1], [-2.0, 3.0]),
    (lambda v: v[1] / value_of(v[0]), [0.0, 3.0]),
    (lambda v: float(v[0].val) * v[1], None),
    (lambda v: v[0] * v[1] if v[0].val else v[1], None),
    (lambda v: sqrt(v[0]) * v[1], [-2.0, 3.0]),
    (lambda v: log(v[0]) * v[1], [-2.0, 3.0]),
    (lambda v: v[0] ** 1.5 * v[1], None),
    (lambda v: v[0] ** v[1], None),
], ids=["comparison", "abs", "value_of", "value_of divisor", "float",
        "bool", "sqrt", "log", "non-integer power", "dual power"])
def test_trace_aborts_on_value_dependent_steps(field, across):
    # float(), bool() and a power whose exponent is not a constant integer
    # end the trace; a comparison (in Dual.__abs__ too) and the domain
    # checks of sqrt and log are guards, and value_of of a leaf converts it
    # in the kernel as in fn (numpy scalars become Python floats, and a
    # division by that zero raises)
    def fn(x):
        return grad_raw(field, x)

    # Python floats, then numpy scalars
    for scalars in (list, lambda p: list(np.array(p))):
        x = scalars([2.0, 3.0])
        kernel = trace(fn, x)
        if across is None:
            assert kernel is fn
            # the Dual path runs as before
            val, g = fn(x)
            assert math.isfinite(value_of(val)) and len(g) == 2
            continue
        assert kernel is not fn
        with np.errstate(all="ignore"):
            assert _outcome(kernel, x) == _outcome(fn, x)
            # across the guard the call runs fn: its result, or its error
            y = scalars(across)
            assert _outcome(kernel, y) == _outcome(fn, y)


def test_traced_kernel_error_runs_fn():
    def fn(x):
        return grad_raw(lambda v: sqrt(v[0]) * v[1], x)

    kernel = trace(fn, [2.0, 3.0])
    assert kernel is not fn
    # sqrt's derivative at 0 divides by zero inside the kernel: the call
    # runs fn, which raises its typed error, not a bare ZeroDivisionError
    with pytest.raises(DomainEvaluationError, match="derivative of sqrt"):
        kernel([0.0, 3.0])
    # traced where fn raises, the trace raises fn's error
    with pytest.raises(DomainEvaluationError, match="derivative of sqrt"):
        trace(fn, [0.0, 3.0])


def test_trace_aborts_on_long_tapes_and_non_scalar_outputs(monkeypatch):
    def field(x):
        return grad_raw(lambda v: sum(a * a for a in v), x)

    x = [1.0, 2.0, 3.0]
    assert trace(field, x) is not field
    monkeypatch.setattr(numkit, "TRACE_MAX_OPS", 10)
    assert trace(field, x) is field
    monkeypatch.undo()
    # a Dual or a numpy array in the output has no straight-line form
    for fn in (lambda x: [Dual(x[0], (1.0,))], lambda x: np.array([1.0])):
        assert trace(fn, [1.0]) is fn
    # an error that fn raises at the traced values is raised by the trace
    with pytest.raises(ZeroDivisionError):
        trace(lambda x: x[0] * (1.0 / 0.0), [1.0])


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_long_kernels_compile_in_chunks(monkeypatch, chunk):
    # a tape of more than _TRACE_CHUNK lines compiles as a chain of
    # functions: the same bits, and a failing guard in any chunk runs fn
    def plain(x):
        return grad_raw(lambda v: sin(v[0]) * v[1] + v[0] * cos(v[1]), x)

    def guarded(x):
        return grad_raw(lambda v: sqrt(v[0]) * v[1] if v[1] < 2.0
                        else v[0] * v[1], x)

    monkeypatch.setattr(numkit, "_TRACE_CHUNK", chunk)
    for fn, points in ((plain, [[0.5, -1.5], [2.0, 0.25]]),
                       (guarded, [[0.5, 1.5], [3.0, 0.25], [0.5, 2.5],
                                  [-1.0, 0.5], [0.0, 0.5]])):
        kernel = trace(fn, points[0])
        assert any(name.startswith("_c") for name in kernel.__globals__)
        for x in points:
            assert _outcome(kernel, x) == _outcome(fn, x)


def test_traced_kernels_hold_fn_only_for_a_fallback():
    # once traced, a kernel without guards holds no reference to fn, so an
    # owner that keeps the kernel and that fn refers to is freed without the
    # cyclic collector; a guarded kernel holds fn for its fallback
    def make(guarded):
        def fn(x):
            return grad_raw(lambda v: v[0] * v[1] if not guarded
                            or v[0] < v[1] else v[1], x)
        return fn

    gc.disable()
    try:
        for guarded in (False, True):
            fn = make(guarded)
            call = numkit._trace_on_first_call(fn)
            assert _outcome(call, [2.0, 3.0]) == _outcome(fn, [2.0, 3.0])
            ref = weakref.ref(fn)
            del fn
            assert (ref() is not None) is guarded
            del call
            gc.collect()
            assert ref() is None
    finally:
        gc.enable()


def test_warm_trace_waits_for_a_call_that_returns():
    # with warm, fn runs itself until a call returns, and the next call
    # traces; a trace at a point where fn raises (over leaves, then fn's own
    # error on floats) goes back to running fn until a call returns.  Once
    # traced, an unguarded kernel holds no reference to fn
    runs = []

    def fn(x):
        runs.append(numkit._floats(x))
        if x[0] < 0.0:
            raise DegeneracyError("negative")
        return [x[0] * x[1]]

    call = numkit._trace_on_first_call(fn, warm=True)
    bad, good = [-1.0, 2.0], [2.0, 3.0]
    for x, want in [(bad, [True]), (bad, [True]), (good, [True]),
                    (bad, [False, True]), (bad, [True]), (good, [True]),
                    (good, [False]), (bad, [True]), (good, [])]:
        del runs[:]
        assert _outcome(call, x) == _outcome(lambda y: fn(list(y)), x)
        del runs[-1]  # the reference call
        assert runs == want

    def product(x):
        return grad_raw(lambda v: v[0] * v[1], x)

    gc.disable()
    try:
        call = numkit._trace_on_first_call(product, warm=True)
        for _ in range(2):
            call([2.0, 3.0])
        ref = weakref.ref(product)
        del product
        assert ref() is None
    finally:
        gc.enable()


def test_trace_leaves_no_leaf_for_the_cyclic_collector():
    # the tape and its leaves refer to each other; trace empties the tape on
    # each return (a kernel, an abort, fn's own error), so reference
    # counting frees the leaves
    def field(v):
        if v[0] < 0.0:
            raise ValueError("negative")
        return v[0] * v[1] if v[1] < 5.0 else v[1] ** 0.5

    gc.collect()
    gc.disable()
    try:
        for x in ([2.0, 3.0], [2.0, 7.0], [-1.0, 3.0]):
            try:
                trace(lambda v: grad_raw(field, v), x)
            except ValueError:
                pass
            assert not any(isinstance(o, numkit._Leaf)
                           for o in gc.get_objects())
    finally:
        gc.enable()


def test_guards_count_against_trace_max_ops(monkeypatch):
    def plain(x):
        return grad_raw(lambda v: v[0] * v[1], x)

    def guarded(x):
        # a comparison of the leaves themselves: a guard and no conversion
        return grad_raw(lambda v: v[0] * v[1] if v[0].val < v[1].val
                        else v[1], x)

    x = [2.0, 3.0]
    for limit in range(1, 100):
        monkeypatch.setattr(numkit, "TRACE_MAX_OPS", limit)
        if trace(plain, x) is not plain:
            break
    # the same operations and one guard: one line over the limit
    assert trace(guarded, x) is guarded
    monkeypatch.setattr(numkit, "TRACE_MAX_OPS", limit + 1)
    assert trace(guarded, x) is not guarded


# ---------------------------------------------------------------------------
# reference integrator: the stage loop as it was before the precomputed
# stage rows, the float stage time and the scalar finiteness checks, with
# the 13th evaluation only after acceptance; integrate must reproduce its
# samples bit for bit
# ---------------------------------------------------------------------------

# the stage matrix as one array: row i holds the i coefficients of stage
# i + 1 in its first i entries, and the last row the 8th-order weights
_REF_C = np.array(numkit._C)
_REF_A = np.zeros((13, 12))
for _i, _row in enumerate(numkit._ROWS):
    _REF_A[_i, :_i] = _row


def _reference_integrate(rhs, y0, s0, s1, opts):
    """(s, states, derivs, stalled) of the reference loop."""
    y = np.array(y0, dtype=float)
    direction = 1.0 if s1 > s0 else -1.0
    s = float(s0)
    K = np.empty((13, len(y)))
    K[0] = rhs(s, y)
    ss, ys, fs = [s], [y], [K[0].copy()]
    h = direction * min(opts.max_step, abs(s1 - s0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while (s1 - s) * direction > 0:
            h = direction * min(abs(h), abs(s1 - s))
            err = math.inf
            for i in range(1, 12):
                yi = y + h * (_REF_A[i, :i] @ K[:i])
                K[i] = rhs(s + _REF_C[i] * h, yi)
                if not np.all(np.isfinite(K[i])):
                    break
            else:
                yi = y + h * (_REF_A[12] @ K[:12])
                scale = opts.abs_tol \
                    + opts.rel_tol * np.maximum(np.abs(y), np.abs(yi))
                n5 = float(np.sum((numkit._E5 @ K[:12] / scale) ** 2))
                n3 = float(np.sum((numkit._E3 @ K[:12] / scale) ** 2))
                den = (n5 + 0.01 * n3) * len(y)
                err = abs(h) * n5 / math.sqrt(den) if 0 < den < math.inf \
                    else 0.0 if den == 0 else math.inf
            if err <= 1.0:
                K[12] = rhs(s + _REF_C[12] * h, yi)
                if not np.all(np.isfinite(K[12])):
                    err = math.inf
            if err <= 1.0:
                s = float(s1) if abs(s1 - (s + h)) < 1e-14 * abs(s1 - s0) \
                    else s + h
                y = yi
                K[0] = K[12]
                ss.append(s)
                ys.append(y)
                fs.append(K[0].copy())
            factor = 0.9 * err ** -0.125 if 0 < err < math.inf \
                else 5.0 if err == 0 else 0.2
            h = direction * min(abs(h) * min(5.0, max(0.2, factor)),
                                opts.max_step)
            if abs(h) < opts.min_step or s + h == s:
                break
    return (np.array(ss), np.array(ys), np.array(fs),
            (s1 - s) * direction > 0)


def _system_rhs(kind, A, b, wall):
    """A small system y' = f(s, y) of len(b) states: linear, nonlinear, or
    linear with a NaN-signalling wall at s = wall that the run stalls on."""
    def rhs(s, y):
        if kind == "nonlinear":
            return A @ np.sin(y) + b * math.cos(s) - 0.1 * y * y
        if kind == "stall" and (s - wall[0]) * wall[1] > 0:
            return np.full(len(y), math.nan)
        return A @ y + b
    return rhs


@st.composite
def _systems(draw):
    m = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    A = np.array(draw(st.lists(unit, min_size=m * m, max_size=m * m)))
    b = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
    y0 = draw(st.lists(unit, min_size=m, max_size=m))
    s0 = draw(unit)
    direction = draw(st.sampled_from([1.0, -1.0]))
    s1 = s0 + direction * draw(st.floats(0.05, 2.0))
    kind = draw(st.sampled_from(["linear", "nonlinear", "stall"]))
    wall = (s0 + (s1 - s0) * draw(st.floats(0.1, 0.9)), direction)
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    opts = IntegratorOptions(rel_tol=tol, abs_tol=tol,
                             max_step=draw(st.sampled_from([0.1, 0.5])))
    return _system_rhs(kind, A.reshape(m, m), b, wall), y0, s0, s1, opts


def _check_against_reference(rhs, y0, s0, s1, opts):
    """integrate and the reference loop call rhs at the same stage times with
    the same state bits, and give the same samples"""
    want_calls, got_calls = [], []

    def want_rhs(s, y):
        want_calls.append((s, y.tobytes()))
        return rhs(s, y)

    def got_rhs(s, y):
        # the RHS contract: a float stage time and a float64 state array
        assert type(s) is float
        assert type(y) is np.ndarray and y.dtype == np.float64
        got_calls.append((s, y.tobytes()))
        return rhs(s, y)

    want_s, want_states, want_derivs, stalled = _reference_integrate(
        want_rhs, y0, s0, s1, opts)
    if stalled:
        with pytest.raises(IntegrationStallError) as exc:
            integrate(got_rhs, y0, s0, s1, opts)
        traj = exc.value.trajectory
        assert exc.value.s_last == want_s[-1]
        assert np.array_equal(exc.value.state_last, want_states[-1])
    else:
        traj = integrate(got_rhs, y0, s0, s1, opts)
    # the same stage times and stage inputs in the same order, and the same
    # samples
    assert got_calls == [(float(s), y) for s, y in want_calls]
    assert np.array_equal(traj.s, want_s)
    assert np.array_equal(traj.states, want_states)
    assert np.array_equal(traj.derivs, want_derivs)


@given(_systems())
@settings(max_examples=60, deadline=None)
def test_integrate_matches_reference_loop(system):
    _check_against_reference(*system)


def test_integrate_matches_reference_loop_on_negative_zeros():
    # stage 2's sum over one stage is 0.0 under @ but -0.0 under dot, and
    # only the stage inputs show it: every sample is -0.0 either way
    _check_against_reference(lambda s, y: [-0.0], [-0.0], 0.0, 0.3,
                             IntegratorOptions())


def test_integrate_matches_reference_loop_on_an_overflowing_error():
    # finite stages whose error sums overflow at every h: every step is
    # rejected, down to the min_step stall
    _check_against_reference(lambda s, y: [1.5e308], [0.0], 0.0, 1.0,
                             IntegratorOptions())


def test_integrate_matches_reference_loop_on_a_non_finite_fsal_stage():
    # the first step passes its error test, but its 13th evaluation is NaN:
    # the step is rejected with the 0.2 shrink, as for a failed stage
    calls = []

    def rhs(s, y):
        if s == 0.0:  # the initial call of a run
            calls.clear()
        calls.append(s)
        return [math.nan] if len(calls) == 13 else [1.0]

    opts = IntegratorOptions(max_step=0.5)
    _check_against_reference(rhs, [0.0], 0.0, 1.0, opts)
    traj = integrate(rhs, [0.0], 0.0, 1.0, opts)
    assert calls[12] == 0.5
    assert traj.s[1] == 0.5 * 0.2


# signed zeros and infinities, NaNs with a payload and with the sign bit,
# subnormals, and values whose products overflow
_SPECIAL_VALUES = np.concatenate([
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.5e-308,
     -2.5e-308, 1e308, -1e308, 1.0, -0.75],
    np.array([0x7FF8000000000123, 0xFFF8000000000000],
             dtype=np.uint64).view(np.float64)])


@pytest.mark.parametrize("width", list(range(1, 65)) + [100, 205])
def test_stage_row_dot_matches_matmul_bits(width):
    # integrate forms the stage sums of rows of length >= 2 and the error
    # estimates with ndarray.dot in place of @; the two must agree bit for
    # bit, NaN payloads and signed zeros included, on this numpy and BLAS
    rng = np.random.default_rng(width)
    rows = [numkit._ROWS[i] for i in range(2, 13)] + [numkit._E5, numkit._E3]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(20):
            K = rng.standard_normal((13, width)) \
                * 10.0 ** rng.integers(-300, 300, (13, width))
            special = rng.random((13, width)) < 0.5
            K[special] = rng.choice(_SPECIAL_VALUES, special.sum())
            for row in rows:
                Kprev = K[:len(row)]
                assert row.dot(Kprev).tobytes() == (row @ Kprev).tobytes()
