"""Time scaling, 1-D Kepler regularization, Kustaanheimo-Stiefel map."""

import math
import random

import numpy as np
import pytest

from extphase.celestial import (KeplerSpec, KsPoint, TimeScaleSpec,
                                kepler_direct, kepler_regularized,
                                ks_bilinear, ks_extended_map, ks_generating,
                                ks_map, ks_symplectic_residual,
                                timescale_generating)
from extphase.errors import (CollisionChartError, DomainEvaluationError,
                             IntegrationStallError)
from extphase.numkit import IntegratorOptions, value_of
from extphase.phase import (ExtendedPoint, extended_rhs, lift,
                            symplectic_residual)
from extphase.transform import apply_generating, restriction_report

# the closed-form collision orbit: e = -1/2, K^2 = 1, x = 1 + cos t'
ORBIT = KeplerSpec(K2=1.0, x0=2.0, p0=0.0)


def test_kepler_spec_validation():
    with pytest.raises(ValueError):
        KeplerSpec(K2=-1.0, x0=1.0, p0=0.0)
    with pytest.raises(ValueError):
        KeplerSpec(K2=1.0, x0=0.0, p0=0.0)
    assert ORBIT.energy == pytest.approx(-0.5, abs=1e-15)


def test_timescale_map_rules():
    # xi = 1 + t: t' = log 2 at t = 1, e' = 2 e, (q, p) untouched
    F = timescale_generating(TimeScaleSpec(xi=lambda t: 1.0 + t))
    pt = ExtendedPoint(q=(1.4,), p=(-0.3,), t=1.0, e=0.7)
    img = apply_generating(F, pt)
    assert value_of(img.q[0]) == pytest.approx(1.4, abs=1e-13)
    assert value_of(img.p[0]) == pytest.approx(-0.3, abs=1e-13)
    assert value_of(img.t) == pytest.approx(math.log(2.0), abs=1e-13)
    assert value_of(img.e) == pytest.approx(1.4, abs=1e-13)


def test_timescale_restriction_flags():
    F = timescale_generating(TimeScaleSpec(xi=lambda t: 1.0 + t))
    pt = ExtendedPoint(q=(1.4,), p=(-0.3,), t=1.0, e=0.7)
    rep = restriction_report(F, pt, tol=1e-12)
    assert rep.time_global
    assert rep.spacetime_split
    assert rep.subspace_liouville
    assert symplectic_residual(lambda z: apply_generating(F, z), pt) < 1e-12


def test_timescale_rejects_nonpositive_xi():
    F = timescale_generating(TimeScaleSpec(xi=lambda t: t - 5.0))
    with pytest.raises(DomainEvaluationError):
        apply_generating(F, ExtendedPoint(q=(1.0,), p=(0.0,), t=1.0, e=0.5))


def test_direct_integration_stalls_at_collision():
    # the collision time of x = 1 + cos t' (with dt = x dt') is pi; the free
    # fall from rest at x0 = 1000 collides at t = pi/2 sqrt(x0^3 / 2 K2)
    # = 35124.07, where the float spacing of t is wider than min_step (a
    # larger max_step keeps it short)
    for spec, t_end, opts, t_hit, tol in (
            (ORBIT, 4.0, None, math.pi, 1e-3),
            (KeplerSpec(K2=1.0, x0=1000.0, p0=0.0), 4e4,
             IntegratorOptions(max_step=10.0),
             0.5 * math.pi * math.sqrt(1000.0 ** 3 / 2.0), 1e-6)):
        with pytest.raises(IntegrationStallError) as exc:
            kepler_direct(spec, (0.0, t_end), opts)
        assert exc.value.s_last == pytest.approx(t_hit, abs=tol)
        traj = exc.value.trajectory
        assert traj.labels == ("x", "p", "e")
        clear = traj.column("x") > 0.05
        assert np.max(np.abs(traj.column("e")[clear] - spec.energy)) < 1e-10


def test_direct_energy_column():
    tr = kepler_direct(ORBIT, (0.0, 1.0))
    assert np.max(np.abs(tr.column("e") + 0.5)) < 1e-10


def test_regularized_closed_form():
    tr = kepler_regularized(ORBIT, (0.0, 2.0 * math.pi))
    x_exact = 1.0 + np.cos(tr.s)
    assert np.max(np.abs(tr.column("x") - x_exact)) < 1e-8
    # collision x = 0 at t' = pi is an ordinary point
    assert abs(float(tr.interpolate(math.pi)[0])) < 1e-8
    # physical time co-integrates dt/dt' = x: t = t' + sin t'
    t_exact = tr.s + np.sin(tr.s)
    assert np.max(np.abs(tr.column("t") - t_exact)) < 1e-8


def test_regularized_energy_identity():
    tr = kepler_regularized(ORBIT, (0.0, 2.0 * math.pi))
    x, v = tr.column("x"), tr.column("dxdt")
    res = v ** 2 - (2.0 * ORBIT.energy * x ** 2 + 2.0 * ORBIT.K2 * x)
    assert np.max(np.abs(res)) < 1e-8


def test_transformed_rhs_keeps_xi_a_pure_time_function():
    # with xi(t') = const = 2 the fictitious flow is just twice the real one:
    # the extended flow with k = xi(t'), which reads t' alone
    pt = lift((2.0,), (0.5,), 0.0, ORBIT.system())
    dy = extended_rhs(pt, 2.0, ORBIT.system())
    assert value_of(dy[0]) == pytest.approx(2.0 * 0.5, abs=1e-13)
    assert value_of(dy[1]) == pytest.approx(-2.0 * (1.0 / 4.0), abs=1e-13)


def test_ks_radial_identity_and_momenta():
    rng = random.Random(11)
    for _ in range(100):
        u = tuple(rng.uniform(-2, 2) for _ in range(4))
        q, _ = ks_map(u, (0.0, 0.0, 0.0, 0.0))
        r = math.sqrt(sum(value_of(x) ** 2 for x in q))
        assert abs(r - sum(x * x for x in u)) < 1e-12
        assert value_of(q[3]) == 0.0


def test_ks_momentum_roundtrip():
    # seed physical p, push through L, and recover it
    from extphase.celestial import _ks_L
    rng = random.Random(4)
    for _ in range(20):
        u = tuple(rng.uniform(0.2, 2) for _ in range(4))
        p_phys = [rng.uniform(-1, 1) for _ in range(3)]
        L = _ks_L(u)
        pu = tuple(sum(L[r][c] * p_phys[c] for c in range(3)) for r in range(4))
        _, p_back = ks_map(u, pu)
        assert np.allclose([value_of(x) for x in p_back[:3]], p_phys,
                           atol=1e-12)
        # physical momenta make the bilinear constraint vanish
        assert abs(value_of(ks_bilinear(u, pu))) < 1e-12


def test_ks_map_singular_at_origin():
    with pytest.raises(CollisionChartError):
        ks_map((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))


def test_ks_generating_consistent_with_direct_map():
    from extphase.celestial import _ks_L
    u = (0.9, -0.4, 0.7, 0.2)
    p_phys = [0.3, -0.8, 0.5]
    L = _ks_L(u)
    pu = tuple(sum(L[r][c] * p_phys[c] for c in range(3)) for r in range(4))
    pt_ks = ExtendedPoint(q=u, p=pu, t=0.3, e=1.1)
    img = ks_extended_map(pt_ks)
    q_direct, p_direct = ks_map(u, pu)
    assert np.allclose([value_of(x) for x in img.q],
                       [value_of(x) for x in q_direct], atol=1e-13)
    assert np.allclose([value_of(x) for x in img.p],
                       [value_of(x) for x in p_direct], atol=1e-13)
    # xi = 1 default: (t, e) pass through
    assert value_of(img.t) == pytest.approx(0.3, abs=1e-13)
    assert value_of(img.e) == pytest.approx(1.1, abs=1e-13)
    F = ks_generating()
    assert F.kind == "F3" and F.n == 4


def test_ks_symplectic_on_constraint_surface():
    from extphase.celestial import _ks_L
    rng = random.Random(8)
    for _ in range(5):
        u = tuple(rng.uniform(0.3, 1.5) for _ in range(4))
        p_phys = [rng.uniform(-1, 1) for _ in range(3)]
        L = _ks_L(u)
        pu = tuple(sum(L[r][c] * p_phys[c] for c in range(3))
                   for r in range(4))
        assert ks_symplectic_residual(u, pu) < 1e-10


def test_ks_point_validation():
    with pytest.raises(ValueError):
        KsPoint(u=(1.0, 2.0), pu=(0.0, 0.0))


def test_regularized_flow_matches_direct_before_collision():
    # resample the direct run at t(t') and compare positions
    reg = kepler_regularized(ORBIT, (0.0, 0.45 * math.pi))
    t_end = float(reg.column("t")[-1])
    direct = kepler_direct(ORBIT, (0.0, t_end))
    for k in range(0, len(reg), 10):
        t = float(reg.column("t")[k])
        x_reg = float(reg.states[k, 0])
        x_dir = float(direct.interpolate(t)[0])
        assert abs(x_reg - x_dir) < 1e-6
