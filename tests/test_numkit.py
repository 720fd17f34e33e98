"""Dual arithmetic, linear/Newton solvers, quadrature, trajectories, integrator."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extphase import numkit
from extphase.errors import (DegeneracyError, ImplicitSolveError,
                             IntegrationStallError)
from extphase.numkit import (Dual, IntegratorOptions, Trajectory, cos, exp,
                             grad_eval, grad_raw, integrate, jacobian_raw,
                             log, newton_solve, quad_fixed, sin, solve_linear,
                             sqrt, value_of)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def test_grad_eval_polynomial():
    val, g = grad_eval(lambda x: x[0] ** 2 + 3.0 * x[0] * x[1], [2.0, 5.0])
    assert val == pytest.approx(34.0, abs=1e-14)
    assert g[0] == pytest.approx(2 * 2.0 + 3 * 5.0, abs=1e-14)
    assert g[1] == pytest.approx(6.0, abs=1e-14)


def test_grad_eval_transcendental():
    val, g = grad_eval(lambda x: sin(x[0]) * exp(x[1]) + log(x[0]), [1.3, 0.4])
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
    _, g = grad_eval(lambda x: x[0] / x[1] + x[0] ** 3, [2.0, 4.0])
    assert g[0] == pytest.approx(1 / 4.0 + 3 * 4.0, abs=1e-13)
    assert g[1] == pytest.approx(-2.0 / 16.0, abs=1e-13)


def test_sqrt_chain():
    _, g = grad_eval(lambda x: sqrt(1.0 + x[0] ** 2), [3.0])
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


def test_newton_solve_scalar_root():
    x = newton_solve(lambda v: [v[0] ** 2 - 2.0], [1.0])
    assert value_of(x[0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_newton_solve_branch_follows_seed():
    lo = newton_solve(lambda v: [v[0] ** 2 - 2.0], [-1.0])
    assert value_of(lo[0]) == pytest.approx(-math.sqrt(2.0), abs=1e-12)


def test_newton_solve_divergent_raises():
    with pytest.raises(ImplicitSolveError):
        newton_solve(lambda v: [v[0] ** 2 + 1.0], [0.5], max_iter=20)


def test_newton_solve_dual_unknowns_give_implicit_derivative():
    # solve x^2 = a for x(a); dx/da = 1/(2x)
    def outer(a):
        x = newton_solve(lambda v: [v[0] ** 2 - a[0]], [2.0])
        return x[0]

    val, g = grad_raw(outer, [4.0])
    assert value_of(val) == pytest.approx(2.0, abs=1e-12)
    assert value_of(g[0]) == pytest.approx(0.25, abs=1e-10)


def test_quad_fixed_exact_for_smooth_integrand():
    got = quad_fixed(lambda t: cos(t), 0.0, 1.5)
    assert value_of(got) == pytest.approx(math.sin(1.5), abs=1e-14)


def test_quad_fixed_dual_endpoint_derivative():
    # d/db int_0^b cos = cos(b)
    _, g = grad_raw(lambda v: quad_fixed(lambda t: cos(t), 0.0, v[0]), [0.8])
    assert value_of(g[0]) == pytest.approx(math.cos(0.8), abs=1e-12)


def test_trajectory_requires_monotone_parameter():
    with pytest.raises(ValueError):
        Trajectory(s=np.array([0.0, 1.0, 0.5]),
                   states=np.zeros((3, 1)), labels=("x",))


def test_trajectory_accepts_decreasing_parameter():
    tr = Trajectory(s=np.array([1.0, 0.5, 0.0]),
                    states=np.arange(3.0).reshape(3, 1), labels=("x",))
    assert len(tr) == 3
    assert tr.column("x")[-1] == 2.0


def test_trajectory_csv_roundtrip_digits():
    tr = Trajectory(s=np.array([0.0, 1.0]),
                    states=np.array([[1.0 / 3.0], [2.0 / 3.0]]),
                    labels=("x",))
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "s,x"
    assert float(lines[1].split(",")[1]) == 1.0 / 3.0


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
