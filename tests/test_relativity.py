"""Lorentz boosts as extended canonical maps; the invariant Hamiltonian."""

import math
import random

import numpy as np
import pytest

from extphase.errors import SuperluminalError
from extphase.numkit import value_of
from extphase.phase import (ExtendedPoint, lift, map_jacobian,
                            symplectic_residual)
from extphase.relativity import (Boost, EmField, boost_matrix,
                                 lorentz_generating,
                                 lorentz_invariant_hamiltonian,
                                 nonrelativistic_hamiltonian)
from extphase.transform import apply_generating, restriction_report

B06 = Boost(beta=(0.6, 0.0, 0.0))


def test_gamma():
    assert B06.gamma == pytest.approx(1.25, abs=1e-14)
    assert Boost(beta=(0.0, 0.0, 0.0)).gamma == 1.0


def test_superluminal_rejected():
    with pytest.raises(SuperluminalError):
        Boost(beta=(1.0, 0.0, 0.0))
    with pytest.raises(SuperluminalError):
        Boost(beta=(0.8, 0.8, 0.0))
    # finite but with |beta|^2 overflowing
    with pytest.raises(SuperluminalError):
        Boost(beta=(1e200, 0.0, 0.0))


@pytest.mark.parametrize("beta, c", [
    ((math.nan, 0.0, 0.0), 1.0), ((0.0, -math.inf, 0.0), 1.0),
    ((0.6, 0.0, 0.0), math.nan), ((0.6, 0.0, 0.0), math.inf),
    ((0.6, 0.0, 0.0), 0.0), ((0.6, 0.0, 0.0), -1.0)])
def test_boost_rejects_non_finite_beta_and_c(beta, c):
    # not superluminal, and never a Boost with gamma = NaN
    with pytest.raises(ValueError):
        Boost(beta=beta, c=c)


def test_boost_of_unit_event():
    # event (x, t) = (1, 0) with p = 0, e = 1 under beta = 0.6:
    # x' = gamma x = 1.25, t' = -gamma beta x = -0.75,
    # p'_x = -gamma beta e = -0.75, e' = gamma e = 1.25
    F = lorentz_generating(B06)
    pt = ExtendedPoint(q=(1.0, 0.0, 0.0), p=(0.0, 0.0, 0.0), t=0.0, e=1.0)
    img = apply_generating(F, pt)
    assert value_of(img.q[0]) == pytest.approx(1.25, abs=1e-12)
    assert value_of(img.t) == pytest.approx(-0.75, abs=1e-12)
    assert value_of(img.p[0]) == pytest.approx(-0.75, abs=1e-12)
    assert value_of(img.e) == pytest.approx(1.25, abs=1e-12)
    assert value_of(img.q[1]) == pytest.approx(0.0, abs=1e-12)
    assert value_of(img.p[1]) == pytest.approx(0.0, abs=1e-12)


def test_boost_map_is_symplectic():
    F = lorentz_generating(B06)
    pt = ExtendedPoint(q=(0.4, -1.1, 0.2), p=(0.3, 0.7, -0.5), t=0.8, e=2.0)
    assert symplectic_residual(lambda z: apply_generating(F, z), pt) < 1e-12


def test_generating_reduces_to_identity_at_zero_beta():
    F = lorentz_generating(Boost(beta=(0.0, 0.0, 0.0)))
    pt = ExtendedPoint(q=(0.4, -1.1, 0.2), p=(0.3, 0.7, -0.5), t=0.8, e=2.0)
    img = apply_generating(F, pt)
    assert np.allclose([value_of(v) for v in img.q], pt.q, atol=1e-13)
    assert np.allclose([value_of(v) for v in img.p], pt.p, atol=1e-13)
    assert value_of(img.t) == pytest.approx(pt.t, abs=1e-13)
    assert value_of(img.e) == pytest.approx(pt.e, abs=1e-13)


def test_boost_matrix_matches_generated_map():
    # boost_matrix works on (x, y, z, ct, p, e/c); the generated map on
    # (q, t, p, -e); with c = 1 they agree up to the basis change
    # S = diag(1, 1, 1, c, 1, 1, 1, -1/c)
    F = lorentz_generating(B06)
    pt = ExtendedPoint(q=(0.4, -1.1, 0.2), p=(0.3, 0.7, -0.5), t=0.8, e=2.0)
    M = map_jacobian(lambda z: apply_generating(F, z), pt)
    S = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    assert np.allclose(boost_matrix(B06), S @ M @ np.linalg.inv(S), atol=1e-10)
    assert np.linalg.det(boost_matrix(B06)) == pytest.approx(1.0, abs=1e-12)


def test_general_direction_boost_symplectic():
    b = Boost(beta=(0.3, -0.4, 0.2))
    F = lorentz_generating(b)
    pt = ExtendedPoint(q=(0.4, -1.1, 0.2), p=(0.3, 0.7, -0.5), t=0.8, e=2.0)
    assert symplectic_residual(lambda z: apply_generating(F, z), pt) < 1e-11
    # permuted axis gives the permuted aligned result
    Fy = lorentz_generating(Boost(beta=(0.0, 0.6, 0.0)))
    pt_y = ExtendedPoint(q=(0.0, 1.0, 0.0), p=(0.0, 0.0, 0.0), t=0.0, e=1.0)
    img = apply_generating(Fy, pt_y)
    assert value_of(img.q[1]) == pytest.approx(1.25, abs=1e-12)
    assert value_of(img.p[1]) == pytest.approx(-0.75, abs=1e-12)


def test_velocity_addition_via_matrix_composition():
    b1, b2 = 0.6, 0.3
    combined = (b1 + b2) / (1.0 + b1 * b2)
    M = boost_matrix(Boost(beta=(b2, 0.0, 0.0))) \
        @ boost_matrix(Boost(beta=(b1, 0.0, 0.0)))
    assert np.allclose(M, boost_matrix(Boost(beta=(combined, 0.0, 0.0))),
                       atol=1e-12)


def test_boost_is_not_time_global():
    rep = restriction_report(lorentz_generating(B06),
                             ExtendedPoint(q=(0.4, -1.1, 0.2),
                                           p=(0.3, 0.7, -0.5), t=0.8, e=2.0))
    assert not rep.time_global
    assert rep.preserves_H1
    assert rep.liouville_det == pytest.approx(1.0, abs=1e-10)


def test_quadratic_forms_invariant_under_boost():
    M = boost_matrix(Boost(beta=(0.3, -0.4, 0.2)))
    eta = np.diag([1.0, 1.0, 1.0, -1.0])
    rng = random.Random(7)
    for _ in range(20):
        z = np.array([rng.uniform(-2, 2) for _ in range(8)])
        w = M @ z
        # x^2 - (ct)^2 and p^2 - (e/c)^2 both preserved
        assert abs(w[:4] @ eta @ w[:4] - z[:4] @ eta @ z[:4]) < 1e-12
        assert abs(w[4:] @ eta @ w[4:] - z[4:] @ eta @ z[4:]) < 1e-12


def test_solved_hamiltonian_satisfies_implicit_form():
    f = EmField(A=lambda q, t: (0.1 * q[1], -0.2 * q[0], 0.05),
                phi=lambda q, t: 0.3 * q[2], zeta=0.7, m=1.4)
    hl = lorentz_invariant_hamiltonian(f, c=2.0)
    rng = random.Random(3)
    for _ in range(100):
        q = tuple(rng.uniform(-2, 2) for _ in range(3))
        P = tuple(rng.uniform(-2, 2) for _ in range(3))
        t = rng.uniform(-1, 1)
        e = value_of(hl.solved.H(q, P, t))
        # substituting the solved energy back makes extended(q, P, t, e) = e
        assert abs(value_of(hl.extended(q, P, t, e)) - e) < 1e-10


def test_rest_energy_exact():
    hl = lorentz_invariant_hamiltonian(EmField.free(m=1.7), c=3.0)
    assert value_of(hl.solved.H((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0)) \
        == 1.7 * 9.0


def test_nonrelativistic_expansion():
    # H_L - mc^2 = P^2/2m - (P^2)^2/8 m^3 c^2 + O(P^6)
    m, c = 1.3, 10.0
    hl = lorentz_invariant_hamiltonian(EmField.free(m=m), c=c)
    hn = nonrelativistic_hamiltonian(EmField.free(m=m))
    for scale in (1e-1, 1e-2):
        P = (scale, 0.5 * scale, -0.3 * scale)
        p2 = sum(x * x for x in P)
        diff = value_of(hl.solved.H((0.0,) * 3, P, 0.0)) - m * c * c \
            - value_of(hn.H((0.0,) * 3, P, 0.0))
        assert diff == pytest.approx(-p2 ** 2 / (8 * m ** 3 * c * c),
                                     rel=1e-3, abs=1e-18)


def test_extended_form_invariant_on_shell():
    # the implicit relation H_L = e holds in the boosted frame as well: the
    # quadratic form keeps its shape with every variable primed
    hl = lorentz_invariant_hamiltonian(EmField.free(m=1.0), c=1.0)
    F = lorentz_generating(B06)
    pt = lift((0.4, -1.1, 0.2), (0.3, 0.7, -0.5), 0.8, hl.solved)
    img = apply_generating(F, pt)
    before = value_of(hl.extended(pt.q, pt.p, pt.t, pt.e))
    assert before == pytest.approx(pt.e, abs=1e-10)
    after = value_of(hl.extended(tuple(value_of(v) for v in img.q),
                                 tuple(value_of(v) for v in img.p),
                                 value_of(img.t), value_of(img.e)))
    assert after == pytest.approx(value_of(img.e), abs=1e-10)


def test_nonrelativistic_form_not_invariant():
    hn = nonrelativistic_hamiltonian(EmField.free(m=1.0))
    hl = lorentz_invariant_hamiltonian(EmField.free(m=1.0), c=1.0)
    F = lorentz_generating(B06)
    pt = lift((0.4, -1.1, 0.2), (0.3, 0.7, -0.5), 0.8, hl.solved)
    img = apply_generating(F, pt)
    before = value_of(hn.H(pt.q, pt.p, pt.t))
    after = value_of(hn.H(tuple(value_of(v) for v in img.q),
                          tuple(value_of(v) for v in img.p),
                          value_of(img.t)))
    assert abs(after - before) > 1e-3


def test_field_validation():
    with pytest.raises(ValueError):
        EmField(A=lambda q, t: (0.0,) * 3, phi=lambda q, t: 0.0,
                zeta=1.0, m=0.0)
    with pytest.raises(ValueError):
        lorentz_invariant_hamiltonian(EmField.free(), c=-1.0)
