"""Time scaling, 1-D Kepler regularization, Kustaanheimo-Stiefel map."""

import gc
import math
import random
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extphase import numkit
from extphase.celestial import (KeplerSpec, TimeScaleSpec,
                                kepler_direct, kepler_regularized,
                                ks_bilinear, ks_extended_map, ks_generating,
                                ks_map, ks_symplectic_residual,
                                timescale_generating)
from extphase.errors import (CollisionChartError, DomainEvaluationError,
                             IntegrationStallError)
from extphase.numkit import IntegratorOptions, grad_raw, integrate, value_of
from extphase.phase import (ExtendedPoint, extended_rhs, lift, map_jacobian,
                            symplectic_matrix, symplectic_residual)
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


@pytest.mark.parametrize("t", [math.inf, math.nan, 1e308])
def test_timescale_rejects_nonfinite_time(t):
    # the quadrature up to t = inf or nan, or over a finite interval whose
    # doubled length overflows, has no finite panel count: a typed error,
    # not the bare OverflowError or ValueError of int()
    F = timescale_generating(TimeScaleSpec(xi=lambda t: 1.0 + t * t))
    pt = ExtendedPoint(q=(1.4,), p=(-0.3,), t=t, e=0.7)
    with pytest.raises(DomainEvaluationError):
        apply_generating(F, pt)
    with pytest.raises(DomainEvaluationError):
        numkit.quad_fixed(lambda x: 1.0, 0.0, t)
    with pytest.raises(DomainEvaluationError):
        timescale_generating(TimeScaleSpec(xi=lambda t: 1.0)).value(
            (1.0,), (1.0,), t, 1.0, 0.0)


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


def test_default_direct_run_evaluates_no_rejected_fsal_stage(monkeypatch):
    # the default kepler-direct run stalls at the collision; its rejected
    # steps skip the 13th DOP853 evaluation, which only an accepted step
    # needs: 4,273 RHS calls, against 4,393 when every step made it
    calls = []
    run = numkit.integrate

    def counted(rhs, *args, **kwargs):
        return run(lambda s, y: calls.append(s) or rhs(s, y), *args, **kwargs)

    monkeypatch.setattr(numkit, "integrate", counted)
    with pytest.raises(IntegrationStallError):
        kepler_direct(KeplerSpec(K2=1.0, x0=1.0, p0=0.0), (0.0, 3.0),
                      IntegratorOptions())
    assert len(calls) == 4273


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


@st.composite
def _kepler_runs(draw):
    """A valid KeplerSpec, a t' horizon of a few time scales of x'' = 2 e x
    + K^2, and integrator options.  Half the specs put 2 e0 x0 near the float64
    limit, so that 2 e0 x overflows at the start or within the run."""
    K2 = 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        # 0.5 p0^2 x0 = 10^u / 2, so 2 e0 x0 is about 10^u; a large x0
        # keeps the time scale 1/p0 of the run well above 1e-14
        lg_x0 = draw(st.floats(290.0, 305.0))
        p0 = 10.0 ** ((draw(st.floats(305.0, 309.0)) - lg_x0) / 2)
    else:
        lg_x0 = draw(st.floats(-3.0, 300.0))
        p0 = draw(st.floats(-3.0, 3.0))
    spec = KeplerSpec(K2=K2, x0=10.0 ** lg_x0, p0=p0)
    rate = max(1.0, math.sqrt(2.0 * abs(spec.energy)))
    tprime_end = draw(st.floats(0.01, 3.0)) / rate
    tol = draw(st.sampled_from([1e-12, 1e-8]))
    # a step floor on the horizon's scale, which is below the default floor
    # when 2 e0 x0 is near the limit
    return spec, tprime_end, IntegratorOptions(rel_tol=tol, abs_tol=tol,
                                               min_step=1e-13 * tprime_end)


def _outcome(run):
    """(error type and message or None, trajectory) of one integration."""
    try:
        return None, run()
    except IntegrationStallError as exc:
        return (type(exc), str(exc)), exc.trajectory
    except DomainEvaluationError as exc:
        return (type(exc), str(exc)), None


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(_kepler_runs())
@example((KeplerSpec(K2=1.0, x0=1e300, p0=1e4), 2e-4,
          IntegratorOptions(min_step=1e-17)))
@settings(max_examples=40, deadline=None)
def test_regularized_float_rhs_matches_numpy_scalar_rhs(run):
    # the regularized right-hand side reads its state as Python floats; its
    # * and + must give the trajectory of the same expressions on numpy
    # scalars bit for bit, inf where they overflow, and never warn or raise
    spec, tprime_end, opts = run
    e0 = spec.energy

    def numpy_rhs(tp, y):
        x, v, t = y
        return [v, 2.0 * e0 * x + spec.K2, x]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_error, got = _outcome(
            lambda: kepler_regularized(spec, (0.0, tprime_end), opts))
        want_error, want = _outcome(
            lambda: integrate(numpy_rhs, [spec.x0, spec.x0 * spec.p0, 0.0],
                              0.0, tprime_end, opts,
                              labels=("x", "dxdt", "t")))
    assert got_error == want_error
    if want is None:
        assert got is None
        return
    assert _same_bits(got.s, want.s)
    # a finished run carries the constant e column, a stalled one does not
    assert _same_bits(got.states[:, :3], want.states)
    assert _same_bits(got.derivs[:, :3], want.derivs)
    if got_error is None:
        assert np.all(got.states[:, 3] == e0) and np.all(got.derivs[:, 3] == 0)


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


def test_ks_map_and_generating_reject_the_same_xi():
    # xi(t') = t' - 5 is negative on [0, t'], so the map and its F3 both
    # refuse it
    from extphase.celestial import _ks_L
    spec = TimeScaleSpec(xi=lambda t: t - 5.0)
    u = (0.9, -0.4, 0.7, 0.2)
    L = _ks_L(u)
    pu = tuple(sum(L[r][c] * p for c, p in enumerate((0.3, -0.8, 0.5)))
               for r in range(4))
    pt_ks = ExtendedPoint(q=u, p=pu, t=0.3, e=1.1)
    with pytest.raises(DomainEvaluationError, match="not positive"):
        ks_extended_map(pt_ks, spec)
    with pytest.raises(DomainEvaluationError, match="not positive"):
        apply_generating(ks_generating(spec), pt_ks)


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


# the KS canonicity check's kernel: ks_symplectic_residual's map Jacobian
# and constraint gradient run on one kernel per TimeScaleSpec, traced at the
# first point; it must give the Dual path's bits, and where a guard fails
# the Dual path's own result or error


def _dual_path_residual(u, pu, tprime, spec):
    """ks_symplectic_residual from phase.map_jacobian over ks_extended_map
    and grad_raw of the constraint: the Dual path the kernel is traced
    from."""
    M = map_jacobian(lambda z: ks_extended_map(z, spec),
                     ExtendedPoint(q=u, p=pu, t=tprime, e=0.0))
    J = symplectic_matrix(4)
    R = M.T @ J @ M - J
    _, dC = grad_raw(lambda z: ks_bilinear(z[:4], z[4:]), [*u, *pu])
    grad = np.array([*dC[:4], 0.0, *dC[4:], 0.0])
    nrm = np.linalg.norm(grad)
    if nrm < 1e-14:
        raise CollisionChartError("constraint gradient vanishes (u = pu = 0)")
    grad /= nrm
    basis = np.linalg.svd(np.outer(grad, grad))[0][:, 1:]
    return float(np.max(np.abs(basis.T @ R @ basis)))


def _ks_outcome(residual, *args):
    """The residual's bits, or its error's type and message."""
    try:
        return residual(*args).hex()
    except Exception as exc:
        return type(exc).__name__, str(exc)


# kept across draws, so that later draws run on the kernel of the first
_SQUARE_XI = TimeScaleSpec(xi=lambda t: 1.0 + t * t)
_KS_UNIT = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_KS_POINT = (0.9, -0.4, 0.7, 0.2), (0.3, -0.8, 0.5, 0.1)


@given(st.lists(_KS_UNIT, min_size=4, max_size=4),
       st.lists(_KS_UNIT, min_size=4, max_size=4), _KS_UNIT,
       st.sampled_from(["unit", "square"]))
# |t'| = 0.5 is where the quadrature goes from 4 panels to 5
@example([0.9, -0.4, 0.7, 0.2], [0.3, -0.8, 0.5, 0.1], 0.5, "unit")
@example([0.9, -0.4, 0.7, 0.2], [0.3, -0.8, 0.5, 0.1], -0.5, "square")
@settings(max_examples=60, deadline=None)
def test_ks_kernel_matches_dual_path(u, pu, tprime, xi):
    # under xi = 1 the default spec, which the CLI's check uses
    args = (tuple(u), tuple(pu), tprime)
    if xi == "unit":
        got = _ks_outcome(ks_symplectic_residual, *args)
        want = _ks_outcome(_dual_path_residual, *args, TimeScaleSpec(
            xi=lambda t: 1.0))
    else:
        got = _ks_outcome(ks_symplectic_residual, *args, _SQUARE_XI)
        want = _ks_outcome(_dual_path_residual, *args, _SQUARE_XI)
    assert got == want


def test_ks_kernel_is_traced_once_per_spec(jacobian_calls):
    spec = TimeScaleSpec(xi=lambda t: 1.0 + t * t)
    for tprime in (0.0, 0.2, -0.4):
        ks_symplectic_residual(*_KS_POINT, tprime, spec)
    # one seeding, over leaves, when the first call traces the kernel
    assert len(jacobian_calls) == 1
    # 5 panels at |t'| >= 0.5: the panel-count guard fails, and the call
    # seeds the Dual path
    ks_symplectic_residual(*_KS_POINT, 0.7, spec)
    assert len(jacobian_calls) == 2
    # another spec traces its own kernel
    ks_symplectic_residual(*_KS_POINT, 0.0, TimeScaleSpec(xi=spec.xi))
    assert len(jacobian_calls) == 3


def test_ks_kernel_raises_at_u_zero_first_call_or_not(jacobian_calls):
    spec = TimeScaleSpec(xi=lambda t: 1.0)
    zero = (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(CollisionChartError, match="u = 0"):
        ks_symplectic_residual(*zero, 0.0, spec)
    # a first call that raises keeps no kernel: the next call traces it
    jacobian_calls.clear()
    want = _dual_path_residual(*_KS_POINT, 0.0, spec)
    jacobian_calls.clear()
    assert ks_symplectic_residual(*_KS_POINT, 0.0, spec).hex() == want.hex()
    assert len(jacobian_calls) == 1
    with pytest.raises(CollisionChartError, match="u = 0"):
        ks_symplectic_residual(*zero, 0.0, spec)


def test_ks_kernel_nonpositive_xi_raises_like_dual_path():
    # xi = t - 5 is negative on every quadrature interval from 0, so no
    # kernel is ever kept; xi = t + 0.2 traces at t' = 0.3 and fails its xi
    # guard at t' = -0.3, with the same panel count
    for xi, first, tprime in ((lambda t: t - 5.0, None, 0.3),
                              (lambda t: t + 0.2, 0.3, -0.3)):
        spec = TimeScaleSpec(xi=xi)
        if first is not None:
            ks_symplectic_residual(*_KS_POINT, first, spec)
        with pytest.raises(DomainEvaluationError) as want:
            _dual_path_residual(*_KS_POINT, tprime, spec)
        for _ in range(2):
            with pytest.raises(DomainEvaluationError,
                               match="not positive") as got:
                ks_symplectic_residual(*_KS_POINT, tprime, spec)
            assert str(got.value) == str(want.value)


def test_ks_kernel_is_freed_with_its_spec():
    # the kernel is guarded, so it holds its Dual code for the fallback, and
    # that code holds the spec: a cycle that the garbage collector frees
    refs = []
    for _ in range(20):
        spec = TimeScaleSpec(xi=lambda t: 1.0)
        ks_symplectic_residual(*_KS_POINT, 0.0, spec)
        refs.append(weakref.ref(spec))
    del spec
    gc.collect()
    assert all(ref() is None for ref in refs)


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
