"""Dual arithmetic, linear/Newton solvers, quadrature, trajectories, integrator."""

import io
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extphase import numkit
from extphase.errors import (DegeneracyError, DomainEvaluationError,
                             ImplicitSolveError, IntegrationStallError,
                             StepBudgetError)
from extphase.numkit import (Dual, IntegratorOptions, Trajectory, cos, exp,
                             grad_raw, integrate, jacobian_raw, log,
                             newton_solve, quad_fixed, sin, solve_linear, sqrt,
                             value_of)

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


_trees = st.recursive(
    st.tuples(st.just("var"), st.integers(0, 3))
    | st.tuples(st.just("const"), st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0])),
    lambda sub: st.tuples(st.sampled_from(["neg", "sin", "cos", "exp", "log",
                                           "sqrt"]), sub)
    | st.tuples(st.sampled_from(sorted(_BINARY)), sub, sub)
    # a power of a plain float is Python's, not the kernel's: the base
    # holds a variable, so it is a Dual
    | st.tuples(st.just("pow"), sub.filter(lambda t: "var" in str(t)),
                st.sampled_from([-2, -1, 0, 1, 2, 3, 2.0, 0.5, -1.5])),
    max_leaves=10)


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
