"""Extended points, canonical equations, Poisson brackets, symplecticity."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extphase
from extphase import cli, numkit
from extphase.errors import DomainEvaluationError
from extphase.numkit import value_of
from extphase.phase import (ExtendedPoint, HamiltonianSystem, Parameterization,
                            extended_rhs, extended_value, lift, map_jacobian,
                            point_to_state, poisson_extended, poisson_matrix,
                            propagate, state_to_point, symplectic_matrix,
                            symplectic_residual, trajectory_labels)

coord = st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)


def harmonic(n=1):
    def H(q, p, t):
        return 0.5 * sum(x * x for x in p) + 0.5 * sum(x * x for x in q)
    return HamiltonianSystem(n=n, H=H, description="harmonic")


def test_point_validation():
    with pytest.raises(ValueError):
        ExtendedPoint(q=(1.0,), p=(1.0, 2.0), t=0.0, e=0.0)
    with pytest.raises(ValueError):
        ExtendedPoint(q=(), p=(), t=0.0, e=0.0)


def test_lift_is_on_shell():
    sys = harmonic()
    pt = lift((1.0,), (0.5,), 0.3, sys)
    assert pt.e == pytest.approx(0.625, abs=1e-15)
    assert pt.on_shell(sys)
    assert pt.s == 0.0


def test_lift_rejects_nonfinite():
    sys = HamiltonianSystem(n=1, H=lambda q, p, t: math.inf if q[0] == 0
                            else 1.0 / q[0])
    with pytest.raises(DomainEvaluationError):
        lift((0.0,), (0.0,), 0.0, sys)


def test_lift_rejects_complex_energy():
    # a float base below 0 to a non-integer power gives a complex number
    sys = HamiltonianSystem(n=1, H=lambda q, p, t: q[0] ** 0.5)
    with pytest.raises(DomainEvaluationError):
        lift((-1.0,), (0.0,), 0.0, sys)


def test_extended_value_vanishes_on_shell():
    sys = harmonic()
    pt = lift((1.2,), (-0.4,), 0.0, sys)
    assert extended_value(pt, 1.0, sys) == pytest.approx(0.0, abs=1e-15)
    off = ExtendedPoint(q=pt.q, p=pt.p, t=pt.t, e=pt.e + 0.5)
    assert extended_value(off, 2.0, sys) == pytest.approx(-1.0, abs=1e-15)


def test_extended_rhs_matches_hand_derivatives():
    sys = harmonic()
    pt = ExtendedPoint(q=(2.0,), p=(3.0,), t=0.0, e=6.5)
    dq, dp, dt, de = extended_rhs(pt, 1.0, sys)
    assert value_of(dq) == pytest.approx(3.0, abs=1e-14)
    assert value_of(dp) == pytest.approx(-2.0, abs=1e-14)
    assert dt == 1.0
    assert value_of(de) == pytest.approx(0.0, abs=1e-14)


def test_state_point_roundtrip():
    pt = ExtendedPoint(q=(1.0, 2.0), p=(3.0, 4.0), t=5.0, e=6.0, s=7.0)
    back = state_to_point(point_to_state(pt), 2, s=7.0)
    assert back == pt
    assert trajectory_labels(2) == ("q1", "q2", "p1", "p2", "t", "e")


def test_propagate_harmonic_closed_form():
    sys = harmonic()
    pt0 = lift((1.0,), (0.0,), 0.0, sys)
    tr = propagate(pt0, sys, Parameterization.constant(1.0), (0.0, 4.0))
    assert tr.column("q1")[-1] == pytest.approx(math.cos(4.0), abs=1e-9)
    assert tr.column("p1")[-1] == pytest.approx(-math.sin(4.0), abs=1e-9)
    assert tr.column("t")[-1] == pytest.approx(4.0, abs=1e-12)
    # e is conserved for autonomous H
    assert np.max(np.abs(tr.column("e") - 0.5)) < 1e-10


def test_propagate_negative_k_runs_time_backwards():
    sys = harmonic()
    pt0 = lift((1.0,), (0.0,), 0.0, sys)
    tr = propagate(pt0, sys, Parameterization.constant(-1.0), (0.0, 2.0))
    assert tr.column("t")[-1] == pytest.approx(-2.0, abs=1e-12)
    assert tr.column("q1")[-1] == pytest.approx(math.cos(-2.0), abs=1e-9)


def test_propagate_traced_run_matches_dual_path():
    # the H-gradient of propagate is a kernel traced from grad_raw; a
    # comparison in H aborts the trace, so the second run takes the Dual path
    from extphase import numkit
    from extphase.numkit import cos, exp

    def H(q, p, t):
        return 0.5 * exp(-0.1 * t) * p[0] ** 2 + 0.5 * (1.0 + 0.2 * cos(t)) \
            * q[0] ** 2 + 0.25 * q[0] ** 4

    def H_untraced(q, p, t):
        return H(q, p, t) if t < math.inf else math.nan

    par = Parameterization(k=lambda s, pt: 1.0 + 0.5 * math.sin(s))
    runs = []
    for h in (H, H_untraced):
        sys = HamiltonianSystem(n=1, H=h)
        def grad(x):
            return numkit.grad_raw(lambda v: h(v[:1], v[1:2], v[2]), x)

        assert (numkit.trace(grad, 3) is grad) == (h is H_untraced)
        runs.append(propagate(lift((0.9,), (-0.3,), 0.2, sys), sys, par,
                              (0.0, 3.0)))
    assert runs[0].states.tobytes() == runs[1].states.tobytes()
    assert runs[0].derivs.tobytes() == runs[1].derivs.tobytes()


@given(coord, coord, coord, coord)
@settings(max_examples=30, deadline=None)
def test_fundamental_brackets(q0, p0, t0, e0):
    pt = ExtendedPoint(q=(q0,), p=(p0,), t=t0, e=e0)
    Q = lambda q, p, t, e: q[0]
    P = lambda q, p, t, e: p[0]
    T = lambda q, p, t, e: t
    mE = lambda q, p, t, e: -e
    assert value_of(poisson_extended(Q, P, pt)) == pytest.approx(1.0, abs=1e-12)
    assert value_of(poisson_extended(T, mE, pt)) == pytest.approx(1.0, abs=1e-12)
    assert value_of(poisson_extended(Q, T, pt)) == pytest.approx(0.0, abs=1e-12)
    assert value_of(poisson_extended(Q, mE, pt)) == pytest.approx(0.0, abs=1e-12)
    assert value_of(poisson_extended(P, T, pt)) == pytest.approx(0.0, abs=1e-12)


def test_bracket_antisymmetry_and_leibniz():
    pt = ExtendedPoint(q=(1.1, -0.3), p=(0.7, 2.0), t=0.4, e=1.9)
    F = lambda q, p, t, e: q[0] * p[1] + t * e
    G = lambda q, p, t, e: p[0] ** 2 + q[1] * t
    K = lambda q, p, t, e: e * q[0]
    fg = value_of(poisson_extended(F, G, pt))
    gf = value_of(poisson_extended(G, F, pt))
    assert fg == pytest.approx(-gf, abs=1e-12)
    # {F, G K} = {F, G} K + G {F, K}
    GK = lambda q, p, t, e: G(q, p, t, e) * K(q, p, t, e)
    lhs = value_of(poisson_extended(F, GK, pt))
    rhs = fg * value_of(K(pt.q, pt.p, pt.t, pt.e)) \
        + value_of(G(pt.q, pt.p, pt.t, pt.e)) \
        * value_of(poisson_extended(F, K, pt))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def _field(terms):
    """A scalar field of (q, p, t, e): the sum of c * prod(v ** k), each
    term times sin or cos of one variable or not."""

    def f(q, p, t, e):
        variables = [*q, *p, t, e]
        acc = 0.0
        for c, powers, wave, j in terms:
            term = c
            for v, k in zip(variables, powers):
                if k:
                    term = term * v ** k
            if wave is not None:
                term = term * wave(variables[j])
            acc = acc + term
        return acc

    return f


@st.composite
def _bracket_cases(draw):
    n = draw(st.integers(1, 3))
    m = 2 * n + 2
    term = st.tuples(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.lists(st.integers(0, 3), min_size=m, max_size=m),
        st.sampled_from([None, numkit.sin, numkit.cos]),
        st.integers(0, m - 1))
    fields = draw(st.lists(st.lists(term, max_size=3).map(_field),
                           min_size=1, max_size=4))
    x = draw(st.lists(coord, min_size=m, max_size=m))
    return n, fields, x, draw(st.booleans())


def _bits(x):
    """x's floats as hex, through nested lists and every dual layer."""
    if isinstance(x, list):
        return list(map(_bits, x))
    if isinstance(x, numkit.Dual):
        return _bits(x.val), tuple(map(_bits, x.eps))
    return float(x).hex()


@given(_bracket_cases())
@settings(max_examples=60, deadline=None)
def test_poisson_matrix_matches_pairwise_brackets(case):
    n, fields, x, seeded = case

    def both(z):
        pt = ExtendedPoint(q=tuple(z[:n]), p=tuple(z[n:2 * n]), t=z[2 * n],
                           e=z[2 * n + 1])
        got.append(poisson_matrix(fields, pt))
        want.append([[poisson_extended(F, G, pt) for G in fields]
                     for F in fields])
        return []

    got, want = [], []
    # a seeded point has Dual entries, as inside a map Jacobian
    if seeded:
        numkit.jacobian_raw(both, x)
    else:
        both(x)
    assert _bits(got[0]) == _bits(want[0])


def test_bracket_suite_seeds_once_per_point(monkeypatch):
    # one seeding of the 2n + 2 coordinates per probe point and dimension,
    # where pairwise brackets made 2 (2n + 2)^2
    calls = Counter()
    for name in ("grad_raw", "jacobian_raw"):
        def counted(*args, name=name, fn=getattr(numkit, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(numkit, name, counted)
    metrics, passed, _ = cli.RUNNERS["bracket-suite"]({"count": 5},
                                                      random.Random(3), None)
    assert passed and metrics["bracket_max_error"] <= 1e-12
    assert calls == {"jacobian_raw": 3 * 5}


def test_symplectic_matrix_structure():
    J = symplectic_matrix(2)
    assert J.shape == (6, 6)
    assert np.allclose(J @ J, -np.eye(6))
    assert np.allclose(J.T, -J)


def test_identity_map_is_symplectic():
    pt = ExtendedPoint(q=(1.0,), p=(2.0,), t=3.0, e=4.0)
    M = map_jacobian(lambda z: z, pt)
    assert np.allclose(M, np.eye(4), atol=1e-14)
    assert symplectic_residual(lambda z: z, pt) < 1e-14


def test_linear_shear_map_symplectic():
    def shear(z):
        return ExtendedPoint(q=(z.q[0] + 0.5 * z.p[0],), p=z.p,
                             t=z.t, e=z.e, s=z.s)

    pt = ExtendedPoint(q=(0.3,), p=(-1.2,), t=0.7, e=0.1)
    assert symplectic_residual(shear, pt) < 1e-13


def test_noncanonical_map_detected():
    def squash(z):
        return ExtendedPoint(q=(2.0 * z.q[0],), p=z.p, t=z.t, e=z.e, s=z.s)

    pt = ExtendedPoint(q=(0.3,), p=(-1.2,), t=0.7, e=0.1)
    assert symplectic_residual(squash, pt) > 0.5


def test_public_surface_is_fixed():
    assert sorted(extphase.__all__) == [
        "CoefficientSingularityError", "CollisionChartError",
        "DegeneracyError", "DegenerateTimeError", "DomainEvaluationError",
        "Dual", "ExtendedPoint", "ExtphaseError", "GeneratingFunction",
        "HamiltonianSystem", "ImplicitSolveError", "IntegrationStallError",
        "IntegratorOptions", "Parameterization", "SuperluminalError",
        "Trajectory", "TransformReport", "UnphysicalMapError",
        "apply_generating", "embed_conventional", "extended_value",
        "hessian_det", "integrate", "legendre_convert", "lift",
        "poisson_extended", "propagate", "restriction_report",
        "symplectic_residual", "transform_hamiltonian", "value_of",
    ]
    for name in extphase.__all__:
        assert getattr(extphase, name) is not None
