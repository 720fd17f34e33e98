"""Generating functions: rule solving, kind conversion, restriction probes."""

import gc
import math
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extphase import numkit, transform
from extphase.celestial import TimeScaleSpec, timescale_generating
from extphase.errors import (DegeneracyError, ExtphaseError,
                             ImplicitSolveError)
from extphase.numkit import sin, value_of
from extphase.phase import (ExtendedPoint, HamiltonianSystem, map_jacobian,
                            symplectic_residual)
from extphase.relativity import Boost, lorentz_generating
from extphase.transform import (_LAYOUT, KINDS, GeneratingFunction,
                                _apply, _blocks, _extra, _pair, _point,
                                apply_generating, embed_conventional,
                                extended_identity, hessian_det,
                                legendre_convert, restriction_report,
                                transform_hamiltonian)

PT = ExtendedPoint(q=(1.3,), p=(-0.7,), t=0.4, e=0.9)


def shift_f2(n=1, a=0.5):
    """F2 inducing q' = q + a, p' = p, (t, e) untouched."""

    def value(q, pp, t, ep, s):
        return sum((qi + a) * pi for qi, pi in zip(q, pp)) - t * ep

    return GeneratingFunction(kind="F2", value=value, n=n)


def test_kind_validation():
    with pytest.raises(ValueError):
        GeneratingFunction(kind="F5", value=lambda *a: 0.0, n=1)


def test_identity_generating_function():
    F = extended_identity(1)
    img = apply_generating(F, PT)
    assert img.q == PT.q and img.p == PT.p
    assert img.t == pytest.approx(PT.t, abs=1e-14)
    assert img.e == pytest.approx(PT.e, abs=1e-14)
    assert symplectic_residual(lambda z: apply_generating(F, z), PT) < 1e-12


def test_shift_map_rules():
    F = shift_f2(a=0.5)
    img = apply_generating(F, PT)
    assert value_of(img.q[0]) == pytest.approx(1.8, abs=1e-12)
    assert value_of(img.p[0]) == pytest.approx(-0.7, abs=1e-12)
    assert value_of(img.t) == pytest.approx(0.4, abs=1e-12)
    assert value_of(img.e) == pytest.approx(0.9, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        apply_generating(extended_identity(2), PT)


def test_hessian_det_identity():
    assert hessian_det(extended_identity(1), PT) == pytest.approx(-1.0,
                                                                  abs=1e-12)


def test_degenerate_function_raises():
    # F2 independent of p' cannot be inverted for p'
    F = GeneratingFunction(kind="F2",
                           value=lambda q, pp, t, ep, s: q[0] ** 2 - t * ep,
                           n=1)
    with pytest.raises(DegeneracyError):
        apply_generating(F, PT)


def test_f1_harmonic_rotation():
    # F1 = q q'/sin(a) - (q^2 + q'^2)/(2 tan(a)) - t e' ... use the classic
    # time-frozen rotation embedded via independent (t, t') exchange
    a = 0.6

    def value(q, qp, t, tp, s):
        return q[0] * qp[0] / math.sin(a) \
            - (q[0] ** 2 + qp[0] ** 2) / (2.0 * math.tan(a)) \
            + 0.0 * (t - tp)

    F = GeneratingFunction(kind="F1", value=value, n=1)
    # F1 with no (t, t') coupling is degenerate in the time block, so probe
    # the mechanical block through the full map only if the hessian allows;
    # here we couple times minimally instead.
    def value2(q, qp, t, tp, s):
        return value(q, qp, t, tp, s) + (t - tp) ** 2 / 2.0

    F2c = GeneratingFunction(kind="F1", value=value2, n=1)
    img = apply_generating(F2c, PT)
    q0, p0 = PT.q[0], PT.p[0]
    assert value_of(img.q[0]) == pytest.approx(
        q0 * math.cos(a) + p0 * math.sin(a), abs=1e-10)
    assert value_of(img.p[0]) == pytest.approx(
        -q0 * math.sin(a) + p0 * math.cos(a), abs=1e-10)
    assert symplectic_residual(lambda z: apply_generating(F2c, z), PT) < 1e-10


def test_legendre_convert_f2_to_f3_same_map():
    def value(q, pp, t, ep, s):
        return q[0] * pp[0] + 0.5 * q[0] ** 2 - t * ep

    F = GeneratingFunction(kind="F2", value=value, n=1)
    G = legendre_convert(F, "F3")
    assert G.kind == "F3"
    img_f = apply_generating(F, PT)
    img_g = apply_generating(G, PT)
    assert value_of(img_g.q[0]) == pytest.approx(value_of(img_f.q[0]),
                                                 abs=1e-10)
    assert value_of(img_g.p[0]) == pytest.approx(value_of(img_f.p[0]),
                                                 abs=1e-10)
    assert value_of(img_g.t) == pytest.approx(value_of(img_f.t), abs=1e-10)
    assert value_of(img_g.e) == pytest.approx(value_of(img_f.e), abs=1e-10)


def test_legendre_convert_same_kind_is_identity():
    F = extended_identity(1)
    assert legendre_convert(F, "F2") is F
    with pytest.raises(ValueError):
        legendre_convert(F, "F9")


def test_legendre_convert_identity_to_f1_degenerate():
    # the identity map admits no F1: (q, q') are not independent
    G = legendre_convert(extended_identity(1), "F1")
    with pytest.raises(DegeneracyError):
        apply_generating(G, PT)


def test_embed_conventional_time_fixed_and_rule():
    sys = HamiltonianSystem(
        n=1, H=lambda q, p, t: 0.5 * p[0] ** 2 + 0.5 * t * q[0] ** 2)

    def f2(q, pp, t):
        return q[0] * pp[0] + 0.3 * t * q[0]

    F = embed_conventional(f2, 1)
    pt = ExtendedPoint(q=(1.3,), p=(-0.7,), t=0.4,
                       e=value_of(sys.H((1.3,), (-0.7,), 0.4)))
    img = apply_generating(F, pt)
    assert value_of(img.t) == pytest.approx(pt.t, abs=1e-12)
    hp = transform_hamiltonian(sys, F, pt)
    # conventional rule: H' = H + df2/dt evaluated at the original point
    expected = value_of(sys.H(pt.q, pt.p, pt.t)) + 0.3 * pt.q[0]
    assert hp == pytest.approx(expected, abs=1e-10)
    assert hp == pytest.approx(value_of(img.e), abs=1e-10)


def test_restriction_report_identity():
    rep = restriction_report(extended_identity(1), PT)
    assert rep.time_global and rep.spacetime_split and rep.subspace_liouville
    assert rep.preserves_H1
    assert rep.liouville_det == pytest.approx(1.0, abs=1e-12)


def test_restriction_report_s_dependence_flags():
    def value(q, pp, t, ep, s):
        return sum(a * b for a, b in zip(q, pp)) - t * ep + s * q[0]

    rep = restriction_report(GeneratingFunction(kind="F2", value=value, n=1),
                             PT)
    assert not rep.preserves_H1


def test_liouville_det_unity_for_nonlinear_map():
    def value(q, pp, t, ep, s):
        return q[0] * pp[0] + 0.2 * q[0] ** 3 - t * ep + 0.1 * t ** 2

    F = GeneratingFunction(kind="F2", value=value, n=1)
    M = map_jacobian(lambda z: apply_generating(F, z), PT)
    assert abs(abs(np.linalg.det(M)) - 1.0) < 1e-10
    assert symplectic_residual(lambda z: apply_generating(F, z), PT) < 1e-10


def swap_f4(n=2):
    """F4 = -p.p' + e e', inducing (q', p', t', e') = (-p, q, -e, t)."""

    def value(p, pp, e, ep, s):
        return -sum(a * b for a, b in zip(p, pp)) + e * ep

    return GeneratingFunction(kind="F4", value=value, n=n)


def test_f4_swap_rules():
    F = swap_f4()
    pt = ExtendedPoint(q=(1.3, -0.2), p=(-0.7, 0.5), t=0.4, e=0.9)
    img = apply_generating(F, pt)
    assert [value_of(v) for v in img.q] == pytest.approx([0.7, -0.5],
                                                         abs=1e-12)
    assert [value_of(v) for v in img.p] == pytest.approx([1.3, -0.2],
                                                         abs=1e-12)
    assert value_of(img.t) == pytest.approx(-0.9, abs=1e-12)
    assert value_of(img.e) == pytest.approx(0.4, abs=1e-12)
    assert hessian_det(F, pt) == pytest.approx(1.0, abs=1e-12)
    assert symplectic_residual(lambda z: apply_generating(F, z), pt) < 1e-12


def test_legendre_convert_f4_to_f1_same_map():
    # (q', t') = (-p, -e) are independent of (q, t), so the swap has an F1
    F = swap_f4(n=1)
    G = legendre_convert(F, "F1")
    img_f = apply_generating(F, PT)
    img_g = apply_generating(G, PT)
    for a, b in ((img_f.q[0], img_g.q[0]), (img_f.p[0], img_g.p[0]),
                 (img_f.t, img_g.t), (img_f.e, img_g.e)):
        assert value_of(b) == pytest.approx(value_of(a), abs=1e-10)


def test_transform_hamiltonian_solves_once(monkeypatch):
    # the boost t' = gamma (t - beta x): e' and dt'/dt = gamma come from one
    # solve with t seeded
    solves = []
    newton_solve = numkit.newton_solve

    def counted(residual, x0, *jacobian):
        solves.append(x0)
        return newton_solve(residual, x0, *jacobian)

    sys = HamiltonianSystem(
        n=3, H=lambda q, p, t: 0.5 * sum(x * x for x in p) + 0.1 * t * q[0])
    F = lorentz_generating(Boost(beta=(0.6, 0.0, 0.0)))
    pt = ExtendedPoint(q=(0.3, -0.2, 0.5), p=(0.4, 0.1, -0.6), t=0.7, e=1.1)
    want = (value_of(sys.H(pt.q, pt.p, pt.t)) - pt.e) / 1.25 \
        + value_of(apply_generating(F, pt).e)
    monkeypatch.setattr(numkit, "newton_solve", counted)
    assert transform_hamiltonian(sys, F, pt) == pytest.approx(want,
                                                               abs=1e-12)
    assert len(solves) == 1


def test_hessian_det_matches_sympy_for_every_kind():
    # the Jacobian of the rule residual against sympy's mixed Hessian
    # d^2 F / d(x, a) d(y, b), at the blocks _LAYOUT assigns from the point
    sympy = pytest.importorskip("sympy")

    def value(sin):
        def F(x, y, a, b, s):
            return sin(x[0] * y[1]) + x[1] * y[0] ** 2 + a * b \
                + 0.3 * a * sin(y[0] + b) + 0.5 * x[0] * b ** 2 \
                + x[1] * y[1] * a
        return F

    pt = ExtendedPoint(q=(0.7, -0.4), p=(0.3, 1.2), t=0.9, e=-0.6)
    xs, ys = sympy.symbols("x0 x1 a"), sympy.symbols("y0 y1 b")
    expr = value(sympy.sin)(xs[:2], ys[:2], xs[2], ys[2], 0)
    mixed = sympy.Matrix(3, 3, lambda i, j: sympy.diff(expr, xs[i], ys[j]))
    pairs = {"qt": pt.q + (pt.t,), "pe": pt.p + (pt.e,)}
    for kind in KINDS:
        unprimed, primed, first = _LAYOUT[kind]
        xa, yb = (pairs[unprimed], pairs[primed]) if first \
            else (pairs[primed], pairs[unprimed])
        want = float(mixed.det().subs(dict(zip(xs + ys, xa + yb))))
        F = GeneratingFunction(kind=kind, value=value(sin), n=2)
        assert hessian_det(F, pt) == pytest.approx(want, rel=1e-12), kind


# ---------------------------------------------------------------------------
# traced rule kernels: at a float point the rule residual and its Jacobian
# run on kernels traced once per F and kept as long as F; they must
# reproduce the Dual path bit for bit, and dual points and untraceable Fs
# must keep the Dual path
# ---------------------------------------------------------------------------


class _Unhashable:
    """A value callable that cannot be hashed, as a closure over mutable
    state may be; its F traces like any other."""

    __hash__ = None

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)


def _dual_path(F):
    """F behind a value that first reads s: that aborts every trace and
    leaves the arithmetic unchanged, so it is the reference for the
    kernels."""
    def value(x, y, a, b, s):
        value_of(s)
        return F.value(x, y, a, b, s)

    return GeneratingFunction(kind=F.kind, value=value, n=F.n)


def _hexes(values):
    # float.hex tells -0.0 from 0.0
    return [value_of(v).hex() for v in values]


def _image_hexes(img):
    return _hexes([*img.q, *img.p, img.t, img.e])


def _outcome(fn, *args):
    """The image's bits, or the error type and message."""
    try:
        return _image_hexes(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _add_terms(acc, variables, terms):
    """acc plus the terms c * prod(v ** k) over the variables."""
    for c, powers in terms:
        term = c
        for v, k in zip(variables, powers):
            if k:
                term = term * v ** k
        acc = acc + term
    return acc


def _polynomial(n, terms):
    """x.y + a b plus the terms c * prod(v ** k) over the variables
    (x.., y.., a, b, s): a well-conditioned map for small coefficients."""

    def value(x, y, a, b, s):
        return _add_terms(sum(xi * yi for xi, yi in zip(x, y)) + a * b,
                          [*x, *y, a, b, s], terms)

    return value


_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def _polynomial_cases(draw):
    n = draw(st.integers(1, 3))
    m = 2 * n + 3
    terms = draw(st.lists(
        st.tuples(st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
                  st.lists(st.integers(0, 2), min_size=m, max_size=m)),
        max_size=4))
    F = GeneratingFunction(kind=draw(st.sampled_from(KINDS)),
                           value=_polynomial(n, terms), n=n)
    vals = draw(st.lists(_unit, min_size=2 * n + 3, max_size=2 * n + 3))
    pt = ExtendedPoint(q=tuple(vals[:n]), p=tuple(vals[n:2 * n]),
                       t=vals[2 * n], e=vals[2 * n + 1] + 1.5,
                       s=vals[2 * n + 2])
    return F, pt


@given(_polynomial_cases())
@settings(max_examples=60, deadline=None)
def test_traced_rule_matches_dual_path(case):
    F, pt = case
    ref = _dual_path(F)
    residual, jacobian, u = transform._rule(F, pt)
    ref_residual, _, ref_u = transform._rule(ref, pt)
    assert u == ref_u
    # the plain residual, and (r, J) of one seeding, at the start and off it
    for v in (u, [ui + 0.25 for ui in u]):
        assert _hexes(residual(v)) == _hexes(ref_residual(v))
        r, rows = jacobian(v)
        ref_r, ref_rows = numkit.jacobian_raw(ref_residual, v)
        assert _hexes(r) == _hexes(ref_r)
        assert [_hexes(row) for row in rows] \
            == [_hexes(row) for row in ref_rows]
    assert hessian_det(F, pt).hex() == hessian_det(ref, pt).hex()
    assert _outcome(apply_generating, F, pt) \
        == _outcome(apply_generating, ref, pt)


BOOST_PT = ExtendedPoint(q=(0.3, -0.2, 0.5), p=(0.4, 0.1, -0.6), t=0.7,
                         e=1.1)
# apply_generating's image of BOOST_PT under the beta = (0.6, 0.2, 0) boost
# F2, as the Dual path gives it
BOOST_IMAGE = ['-0x1.72e930406e7acp-3', '-0x1.7104bb3df047cp-2',
               '0x1.0000000000000p-1', '-0x1.5ab1b37fba96bp-2',
               '-0x1.2b6566996b535p-3', '-0x1.3333333333333p-1',
               '0x1.722767d908ccbp-1', '0x1.159d8de2c6999p+0']


@pytest.fixture
def jacobian_calls(monkeypatch):
    calls = []
    jacobian_raw = numkit.jacobian_raw

    def counted(fvec, x):
        calls.append(x)
        return jacobian_raw(fvec, x)

    monkeypatch.setattr(numkit, "jacobian_raw", counted)
    return calls


def test_repeat_float_apply_runs_on_cached_kernels(jacobian_calls):
    F = lorentz_generating(Boost(beta=(0.6, 0.2, 0.0)))
    unhashable = GeneratingFunction(kind=F.kind, value=_Unhashable(F.value),
                                    n=F.n)
    for G in (F, unhashable):
        jacobian_calls.clear()
        # the first float apply traces G's kernels: one seeding, over leaves
        assert _image_hexes(apply_generating(G, BOOST_PT)) == BOOST_IMAGE
        assert len(jacobian_calls) == 1
        jacobian_calls.clear()
        assert _image_hexes(apply_generating(G, BOOST_PT)) == BOOST_IMAGE
        assert jacobian_calls == []


def test_dual_points_and_untraceable_fs_keep_dual_path(jacobian_calls):
    F = lorentz_generating(Boost(beta=(0.6, 0.2, 0.0)))
    apply_generating(F, BOOST_PT)
    jacobian_calls.clear()
    # the map Jacobian seeds the point: one seeding for the map, and the
    # inner solve at the dual point seeds its rule at each of its two
    # iterations and at its second polishing step (the first reuses the
    # converged iterate's); the float solve runs on F's kernels
    rep = restriction_report(F, BOOST_PT)
    assert len(jacobian_calls) == 4
    assert (rep.hessian_det.hex(), rep.liouville_det.hex()) \
        == ('-0x1.0000000000000p+0', '0x1.0000000000002p+0')
    assert (rep.time_global, rep.spacetime_split, rep.subspace_liouville,
            rep.preserves_H1) == (False, False, False, True)
    # a value that reads s and a quadrature in the value: no rule kernels,
    # and the Dual path's seedings in every Newton iteration, 4: the rule's
    # Jacobian at both iterations, at the second polishing step and in the
    # degeneracy check.  A converted F at a float point seeds none of its
    # values: its rule, the degeneracy check and the image's gradient read
    # its derivatives off float joint solves on the converted F's kernels,
    # so it seeds once, when the first of them traces the joint Jacobian
    # kernel over leaves
    timescale = timescale_generating(TimeScaleSpec(xi=lambda t: 1.0 + t))
    converted = legendre_convert(GeneratingFunction(
        kind="F2", value=lambda q, pp, t, ep, s: q[0] * pp[0]
        + 0.5 * q[0] ** 2 - t * ep, n=1), "F3")
    for G, pt, want, seedings in [
            (_dual_path(F), BOOST_PT, BOOST_IMAGE, 4),
            (timescale, ExtendedPoint(q=(1.4,), p=(-0.3,), t=1.0, e=0.7),
             ['0x1.6666666666666p+0', '-0x1.3333333333333p-2',
              '0x1.62e42fefa39eep-1', '0x1.6666666666667p+0'], 4),
            (converted, PT,
             ['0x1.4cccccccccccdp+0', '-0x1.0000000000000p+1',
              '0x1.999999999999ap-2', '0x1.ccccccccccccdp-1'], 1)]:
        jacobian_calls.clear()
        assert _image_hexes(apply_generating(G, pt)) == want
        assert len(jacobian_calls) == seedings


def test_rule_kernels_are_freed_with_f():
    # each F's binder holds its kernels and F itself: a cycle that the
    # garbage collector frees once F is dropped
    refs = []
    for i in range(100):
        F = shift_f2(a=0.01 * i)
        apply_generating(F, PT)
        refs.append(weakref.ref(F))
    del F
    gc.collect()
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# legendre_convert: one joint Newton solve per converted value, on floats,
# then one dual polish when an argument is dual; against the nested solve it
# replaced (Newton over the source point's missing pair, with a full
# `_apply` of F in every residual evaluation)
# ---------------------------------------------------------------------------


def _reference_legendre_convert(F, target_kind):
    """`legendre_convert` as it was before the joint solve."""
    if target_kind == F.kind:
        return F
    unprimed, primed, first = _LAYOUT[target_kind]

    def converted(x, y, a, b, s):
        xa, yb = list(x) + [a], list(y) + [b]
        known, want = (xa, yb) if first else (yb, xa)

        def source(u):
            return _point(unprimed, known, u, s)

        def residual(u):
            img = _apply(F, source(u))[0]
            return [g - w for g, w in zip(_pair(img, primed), want)]

        src = source(numkit.newton_solve(residual, want))
        img, src_args, _, _ = _apply(F, src)
        src_val = F.value(*src_args, s)
        return src_val - _extra(F.kind, src, img) \
            + _extra(target_kind, src, img)

    return GeneratingFunction(kind=target_kind, value=converted, n=F.n)


def _values_or_error(fn, *args):
    """The floats fn gives (a scalar, or an image's coordinates), or the
    type of the `ExtphaseError` it raises."""
    try:
        out = fn(*args)
    except ExtphaseError as exc:
        return type(exc)
    if isinstance(out, ExtendedPoint):
        return [value_of(v) for v in (*out.q, *out.p, out.t, out.e)]
    return [value_of(out)]


@st.composite
def _near_identity_cases(draw):
    """The extended identity F2 plus small polynomial terms, and a point."""
    n = draw(st.integers(1, 3))
    m = 2 * n + 3
    terms = draw(st.lists(
        st.tuples(st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
                  st.lists(st.integers(0, 2), min_size=m, max_size=m)),
        max_size=3))
    identity = extended_identity(n).value

    def value(q, pp, t, ep, s):
        return _add_terms(identity(q, pp, t, ep, s), [*q, *pp, t, ep, s],
                          terms)

    vals = draw(st.lists(_unit, min_size=2 * n + 3, max_size=2 * n + 3))
    pt = ExtendedPoint(q=tuple(vals[:n]), p=tuple(vals[n:2 * n]),
                       t=vals[2 * n], e=vals[2 * n + 1] + 1.5,
                       s=vals[2 * n + 2])
    return GeneratingFunction(kind="F2", value=value, n=n), pt


@given(_near_identity_cases())
@settings(max_examples=20, deadline=None)
def test_legendre_convert_matches_nested_reference(case):
    F, pt = case
    G, ref = legendre_convert(F, "F3"), _reference_legendre_convert(F, "F3")
    # F3 arguments (q', p, t', e, s), here at the point's own values
    cases = [(G.value, ref.value, (pt.q, pt.p, pt.t, pt.e, pt.s))]
    # applying the reference nests three Newton solves over seeded duals,
    # which takes seconds from n = 2 on
    if F.n == 1:
        cases.append((partial(apply_generating, G),
                      partial(apply_generating, ref), (pt,)))
    for fn, ref_fn, args in cases:
        got, want = _values_or_error(fn, *args), _values_or_error(ref_fn, *args)
        if isinstance(got, list) and isinstance(want, list):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        else:
            assert got == want


def _terms_gradient(variables, terms):
    """The gradient of the sum of the terms c * prod(v ** k) over the
    variables, in closed form."""
    grad = [0.0] * len(variables)
    for c, powers in terms:
        for i, k in enumerate(powers):
            if k:
                grad[i] += c * k * math.prod(
                    v ** (kj - (j == i))
                    for j, (v, kj) in enumerate(zip(variables, powers)))
    return grad


@st.composite
def _closed_form_cases(draw):
    """The extended identity F2 plus small polynomial terms in (p', e', s)
    only, and a point."""
    n = draw(st.integers(1, 3))
    terms = draw(st.lists(
        st.tuples(st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
                  st.lists(st.integers(0, 2), min_size=n + 2,
                           max_size=n + 2)),
        max_size=4))
    vals = draw(st.lists(_unit, min_size=2 * n + 3, max_size=2 * n + 3))
    pt = ExtendedPoint(q=tuple(vals[:n]), p=tuple(vals[n:2 * n]),
                       t=vals[2 * n], e=vals[2 * n + 1] + 1.5,
                       s=vals[2 * n + 2])
    return terms, pt


@given(_closed_form_cases())
@settings(max_examples=30, deadline=None)
def test_converted_apply_matches_closed_form(case):
    # F2 = q.p' - t e' + g(p', e', s) maps (q, p, t, e) to
    # (q + dg/dp', p, t - dg/de', e) at p' = p, e' = e: a reference for
    # applying its F3 that needs no Newton solve
    terms, pt = case
    n = pt.n
    identity = extended_identity(n).value

    def value(q, pp, t, ep, s):
        return _add_terms(identity(q, pp, t, ep, s), [*pp, ep, s], terms)

    G = legendre_convert(GeneratingFunction(kind="F2", value=value, n=n), "F3")
    dg = _terms_gradient([*pt.p, pt.e, pt.s], terms)
    want = [q + d for q, d in zip(pt.q, dg[:n])] + list(pt.p) \
        + [pt.t - dg[n], pt.e]
    img = apply_generating(G, pt)
    assert [value_of(v) for v in (*img.q, *img.p, img.t, img.e)] \
        == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("c, q, error", [
    (0.25, 0.0, DegeneracyError),
    (0.25, 1.0, DegeneracyError),
    (0.28125, 1.0, ImplicitSolveError),
])
def test_legendre_convert_at_a_fold_raises_like_reference(c, q, error):
    # F2 = q p' - t e' - c q p'^2: p = p' - c p'^2 has the double root
    # p' = 2 at p = 1 for c = 1/4, where q' = q (1 - p' / 2) no longer
    # depends on q, so no F3 exists there; for c > 1/4 it has no root at
    # all.  Both conversions raise the same error rather than return a value
    # off by the square root of Newton's tolerance, or one at q ~ 1e8
    def value(q, pp, t, ep, s):
        return q[0] * pp[0] - t * ep - c * q[0] * pp[0] ** 2

    F = GeneratingFunction(kind="F2", value=value, n=1)
    pt = ExtendedPoint(q=(q,), p=(1.0,), t=0.0, e=1.5, s=0.0)
    args = ((q,), pt.p, pt.t, pt.e, pt.s)
    for convert in (legendre_convert, _reference_legendre_convert):
        G = convert(F, "F3")
        assert _values_or_error(G.value, *args) is error
        assert _values_or_error(apply_generating, G, pt) is error


@pytest.mark.parametrize("kind", ["F3", "F4"])
def test_legendre_convert_shear_matches_source_and_reference(kind):
    # p' = p - q, e' = e - t: both (p, p') and (e, e') are independent, so
    # the shear has an F4, whose primed pair is the F2's own (the mismatch
    # is then the primed pair itself), as well as an F3
    def value(q, pp, t, ep, s):
        return q[0] * pp[0] + 0.5 * q[0] ** 2 - t * ep - 0.5 * t ** 2

    F = GeneratingFunction(kind="F2", value=value, n=1)
    want = _values_or_error(apply_generating, F, PT)
    for convert in (legendre_convert, _reference_legendre_convert):
        got = _values_or_error(apply_generating, convert(F, kind), PT)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_as_f1_stays_degenerate(n):
    pt = ExtendedPoint(q=(1.3,) * n, p=(-0.7,) * n, t=0.4, e=0.9)
    for convert in (legendre_convert, _reference_legendre_convert):
        with pytest.raises(DegeneracyError):
            apply_generating(convert(extended_identity(n), "F1"), pt)


def test_converted_apply_solves_once_per_value(monkeypatch):
    # one Newton solve of the converted F's rule, and one float joint solve
    # for each of the six times the apply reads the converted value's
    # derivatives off its root (four rule evaluations, the degeneracy check
    # and the image's gradient), with no dual polish: 1 + 6.  Seeding the
    # converted values made 13, the nested solve before that 50, and the F2
    # itself makes 1
    solves = []
    newton_solve = numkit.newton_solve

    def counted(residual, x0, *jacobian):
        solves.append(x0)
        return newton_solve(residual, x0, *jacobian)

    F = lorentz_generating(Boost(beta=(0.6, 0.2, 0.0)))
    G = legendre_convert(F, "F3")
    monkeypatch.setattr(numkit, "newton_solve", counted)
    img = apply_generating(G, BOOST_PT)
    assert len(solves) == 7
    assert [value_of(v) for v in (*img.q, *img.p, img.t, img.e)] \
        == pytest.approx([float.fromhex(h) for h in BOOST_IMAGE], abs=1e-12)


def test_aborted_rule_trace_skips_the_jacobian_trace(monkeypatch,
                                                    jacobian_calls):
    # a converted F's rule at a float point is never traced, neither its
    # value nor its Jacobian: it runs on the converted F's derivatives, read
    # off float joint solves.  Both applies make the same 7 solves, one for
    # the rule and one joint solve for each of the six reads of the
    # derivatives.  The first apply seeds once, when its first joint solve
    # traces the joint Jacobian kernel over leaves, and a repeat seeds
    # nothing
    solves = []
    newton_solve = numkit.newton_solve

    def counted(residual, x0, *jacobian):
        solves.append(x0)
        return newton_solve(residual, x0, *jacobian)

    G = legendre_convert(lorentz_generating(Boost(beta=(0.6, 0.2, 0.0))), "F3")
    monkeypatch.setattr(numkit, "newton_solve", counted)
    jacobian_calls.clear()
    apply_generating(G, BOOST_PT)
    assert (len(solves), len(jacobian_calls)) == (7, 1)
    solves.clear()
    jacobian_calls.clear()
    apply_generating(G, BOOST_PT)
    assert (len(solves), len(jacobian_calls)) == (7, 0)


def test_converted_restriction_report_matches_source():
    # the map Jacobian seeds the point, the converted apply seeds its rule
    # and every converted value seeds its own solve: the deepest nesting the
    # joint solve sees
    F = lorentz_generating(Boost(beta=(0.6, 0.2, 0.0)))
    rep = restriction_report(legendre_convert(F, "F3"), BOOST_PT)
    ref = restriction_report(F, BOOST_PT)
    assert (rep.time_global, rep.spacetime_split, rep.subspace_liouville,
            rep.preserves_H1) == (ref.time_global, ref.spacetime_split,
                                  ref.subspace_liouville, ref.preserves_H1)
    assert abs(rep.liouville_det - 1.0) <= 1e-12
    assert abs(abs(rep.hessian_det) - 1.0) <= 1e-12


def test_float_converted_values_run_on_kernels(monkeypatch, jacobian_calls):
    # a float converted value solves on the kernels of the converted F's
    # binder: the first call traces them (one Jacobian seeding, over
    # leaves), a repeat's solve seeds no Jacobian, and the values keep the
    # bits of the joint solve in duals; the kernels are freed with the
    # converted F
    traced = []
    trace = numkit.trace

    def recorded(fn, m):
        kernel = trace(fn, m)
        traced.append(weakref.ref(kernel))
        return kernel

    monkeypatch.setattr(numkit, "trace", recorded)
    G = legendre_convert(lorentz_generating(Boost(beta=(0.6, 0.2, 0.0))), "F3")
    cases = [(((0.3, -0.2, 0.5), (0.1, 0.4, -0.3), 0.25, 1.1, 0.0),
              '0x1.63877d8bb027bp-1'),
             (((0.1, 0.2, -0.3), (0.5, -0.1, 0.2), 0.7, 1.3, 0.0),
              '0x1.19671e2a8ec44p+0')]
    jacobian_calls.clear()
    assert G.value(*cases[0][0]).hex() == cases[0][1]
    assert len(jacobian_calls) == 1
    assert [ref().__name__ for ref in traced] == ["kernel", "kernel"]
    jacobian_calls.clear()
    for args, want in cases * 2:
        assert G.value(*args).hex() == want
    assert jacobian_calls == []
    del G
    gc.collect()
    assert all(ref() is None for ref in traced)


def test_converted_derivatives_through_depth_three():
    # F2 = q.p' - t e' + g(p', e', s) maps q' = q + dg/dp', t' = t - dg/de',
    # p = p', e = e', so its F3 is g(p, e, s) - q'.p + t' e in closed form.
    # Two polishing steps from the float root make the converted value's
    # Taylor orders 1-3 exact: its gradient, its Hessian (nested seedings)
    # and a third derivative along a line (three nested seedings)
    sympy = pytest.importorskip("sympy")

    def g(p, e, s):
        return 0.3 * p[0] ** 3 + 0.2 * p[0] ** 2 * p[1] * e \
            - 0.15 * e ** 3 + 0.25 * p[1] * e * s + 0.1 * p[0] * p[1] ** 2

    def value(q, pp, t, ep, s):
        return q[0] * pp[0] + q[1] * pp[1] - t * ep + g(pp, ep, s)

    G = legendre_convert(GeneratingFunction(kind="F2", value=value, n=2), "F3")
    sym = sympy.symbols("qp0 qp1 p0 p1 tp e s")
    closed = g(sym[2:4], sym[5], sym[6]) - sym[0] * sym[2] \
        - sym[1] * sym[3] + sym[4] * sym[5]
    x0 = [0.4, -0.3, 0.7, 0.5, 0.2, 1.3, 0.6]
    at = dict(zip(sym, x0))

    def converted(x):
        return G.value(x[0:2], x[2:4], x[4], x[5], x[6])

    def approx(want):
        return pytest.approx([float(w) for w in want], rel=1e-12, abs=1e-12)

    grad = [sympy.diff(closed, v) for v in sym]
    val, got = numkit.grad_raw(converted, x0)
    assert [value_of(v) for v in [val, *got]] \
        == approx([closed.subs(at)] + [d.subs(at) for d in grad])
    _, rows = numkit.jacobian_raw(
        lambda x: numkit.grad_raw(converted, x)[1], x0)
    assert [value_of(v) for row in rows for v in row] \
        == approx([sympy.diff(d, v).subs(at) for d in grad for v in sym])
    direction = [0.5, -1.0, 1.0, 0.8, -0.4, 0.6, 0.3]
    lam = sympy.Symbol("lam")
    line = closed.subs({v: v + c * lam for v, c in zip(sym, direction)},
                       simultaneous=True)
    got = numkit.time_derivatives(
        lambda h: converted([v + c * h for v, c in zip(x0, direction)]),
        0.0, 3)
    assert [value_of(v) for v in got] == approx(
        [sympy.diff(line, lam, k).subs(at).subs(lam, 0) for k in range(4)])


def shear_f2(n):
    """F2 = q.p' + |q|^2 / 2 - t e' - t^2 / 2, inducing p' = p - q,
    e' = e - t: it has an F3 and an F4 as well."""

    def value(q, pp, t, ep, s):
        return sum(a * b + 0.5 * a * a for a, b in zip(q, pp)) \
            - t * ep - 0.5 * t * t

    return GeneratingFunction(kind="F2", value=value, n=n)


@st.composite
def _conversion_cases(draw):
    """A converted F: a map that has an F of both kinds, plus small
    polynomial terms; and float arguments (unprimed pair, primed pair, s) of
    the target kind."""
    n = draw(st.integers(1, 3))
    target, source = draw(st.sampled_from([
        ("F3", extended_identity(n)), ("F4", shear_f2(n)),
        ("F1", swap_f4(n))]))
    m = 2 * n + 3
    terms = draw(st.lists(
        st.tuples(st.floats(min_value=-0.2, max_value=0.2, allow_nan=False),
                  st.lists(st.integers(0, 2), min_size=m, max_size=m)),
        max_size=3))

    def value(x, y, a, b, s):
        return _add_terms(source.value(x, y, a, b, s), [*x, *y, a, b, s],
                          terms)

    F = GeneratingFunction(kind=source.kind, value=value, n=n)
    return legendre_convert(F, target), draw(
        st.lists(_unit, min_size=m, max_size=m))


@given(_conversion_cases())
@settings(max_examples=20, deadline=None)
def test_converted_float_derivatives_match_seeded_values(case):
    # a converted F's float first derivatives are the momenta conjugate to
    # its pairs at the joint root (envelope theorem), and its mixed second
    # derivatives come from the joint Jacobian there (implicit-function
    # theorem): they match seeding the value, once for the gradient and
    # nested for the Hessian
    G, params = case
    m = G.n + 1
    first = _LAYOUT[G.kind][2]

    def value(z):
        return G.value(*_blocks(first, z[:m], z[m:2 * m]), z[2 * m])

    d_unprimed, d_primed, hessian = G._derivatives(params)
    _, grad = numkit.grad_raw(value, params)
    assert d_unprimed + d_primed == pytest.approx(
        [value_of(g) for g in grad[:2 * m]], rel=1e-14, abs=1e-14)
    _, rows = numkit.jacobian_raw(lambda z: numkit.grad_raw(value, z)[1],
                                  params)
    assert [h for row in hessian for h in row] == pytest.approx(
        [value_of(v) for row in rows[:m] for v in row[m:2 * m]],
        rel=1e-12, abs=1e-12)
