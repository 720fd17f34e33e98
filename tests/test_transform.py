"""Generating functions: rule solving, kind conversion, restriction probes."""

import json
import math

import numpy as np
import pytest

from extphase import numkit
from extphase.errors import DegeneracyError
from extphase.numkit import sin, value_of
from extphase.phase import (ExtendedPoint, HamiltonianSystem, map_jacobian,
                            symplectic_residual)
from extphase.relativity import Boost, lorentz_generating
from extphase.transform import (_LAYOUT, KINDS, GeneratingFunction,
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
    payload = json.loads(rep.to_json())
    assert set(payload) == {"hessian_det", "preserves_H1", "time_global",
                            "spacetime_split", "subspace_liouville"}


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

    def counted(residual, x0):
        solves.append(x0)
        return newton_solve(residual, x0)

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
