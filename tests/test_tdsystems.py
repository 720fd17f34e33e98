"""Time-dependent oscillator and general potential: invariants, transfer matrix."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extphase.errors import (CoefficientSingularityError,
                             DomainEvaluationError, UnphysicalMapError)
from extphase.numkit import IntegratorOptions, value_of
from extphase.phase import (ExtendedPoint, Parameterization, lift, propagate,
                            symplectic_residual)
from extphase.tdsystems import (OscillatorSpec, PotentialSpec, XiState,
                                angular_invariants, invariant_triple,
                                leach_invariant, omega0_squared,
                                oscillator_canonical_map,
                                oscillator_coupled_run, oscillator_map_function,
                                time_derivatives, transfer_matrix,
                                xi_general_rhs, xi_oscillator_rhs,
                                xi_positivity_residual)

def modulated(n=2, eps=0.1, f=0.05):
    from extphase.numkit import sin
    return OscillatorSpec(n=n, omega2=lambda t: 1.0 + eps * sin(t),
                          F=lambda t: f * t)


def constant(n=1):
    return OscillatorSpec(n=n, omega2=lambda t: 1.0 + 0.0 * t,
                          F=lambda t: 0.0 * t)


def test_time_derivative():
    from extphase.numkit import sin
    d2 = time_derivatives(lambda t: sin(t), 0.6, 2)[2]
    assert value_of(d2) == pytest.approx(-math.sin(0.6), abs=1e-12)
    d0 = time_derivatives(lambda t: sin(t), 0.6, 0)[0]
    assert value_of(d0) == pytest.approx(math.sin(0.6), abs=1e-15)


def test_coefficients_by_dual_seeding():
    spec = modulated(eps=0.3, f=0.2)
    w2, dw2, Fv, f, fd, fdd = (value_of(x) for x in spec.coefficients(0.7))
    assert w2 == pytest.approx(1.0 + 0.3 * math.sin(0.7), abs=1e-13)
    assert dw2 == pytest.approx(0.3 * math.cos(0.7), abs=1e-12)
    assert Fv == pytest.approx(0.14, abs=1e-13)
    assert f == pytest.approx(0.2, abs=1e-12)
    assert fd == pytest.approx(0.0, abs=1e-11)
    assert fdd == pytest.approx(0.0, abs=1e-10)


def test_oscillator_propagate_constant_case():
    # canonical propagation is the extended flow with k = 1
    sys = constant().system()
    tr = propagate(lift((1.0,), (0.0,), 0.0, sys), sys,
                   Parameterization.constant(1.0), (0.0, 3.0))
    assert tr.column("q1")[-1] == pytest.approx(math.cos(3.0), abs=1e-9)
    assert np.max(np.abs(tr.column("e") - 0.5)) < 1e-10
    with pytest.raises(ValueError):
        lift((1.0, 2.0), (0.0,), 0.0, sys)


def test_constant_omega_xi_solutions():
    # for omega = 1, f = 0 the auxiliary equation is xiddd = -4 xid:
    # solutions span {1, sin 2t, cos 2t}
    spec = constant()
    xs = XiState(xi=1.0, xidot=0.0, xiddot=0.0)
    d = xi_oscillator_rhs(spec.coefficients(0.3), xs)
    assert (value_of(d.xi), value_of(d.xidot), value_of(d.xiddot)) \
        == (0.0, 0.0, 0.0)
    t = 0.3
    xs2 = XiState(xi=math.sin(2 * t), xidot=2 * math.cos(2 * t),
                  xiddot=-4 * math.sin(2 * t))
    d2 = xi_oscillator_rhs(spec.coefficients(t), xs2)
    assert value_of(d2.xiddot) == pytest.approx(-8 * math.cos(2 * t),
                                                abs=1e-12)


def test_leach_invariant_reduces_to_energy():
    spec = constant()
    xs = XiState(xi=1.0, xidot=0.0, xiddot=0.0)
    state = ((1.2,), (-0.4,), 0.0, 0.8)
    ep = value_of(leach_invariant(spec.coefficients(state[2]), state, xs))
    energy = 0.5 * 0.4 ** 2 + 0.5 * 1.2 ** 2
    # invariant uses the +2 xi omega^2 coefficient form: e' = 2E - ... for
    # xi = 1 this is exactly the conserved energy times 2? no: it equals
    # p^2/2 + (0 + 2)q^2/4 = p^2/2 + q^2/2
    assert ep == pytest.approx(energy, abs=1e-13)


def test_leach_invariant_drift_with_damping():
    spec = modulated()
    tr = oscillator_coupled_run(spec, (1.0, 0.0), (0.0, 1.0),
                                XiState(xi=1.0, xidot=0.0, xiddot=0.0),
                                (0.0, 10.0))
    vals = []
    for k in range(0, len(tr), 25):
        y = tr.states[k]
        t = float(tr.s[k])
        xs = XiState(xi=y[5], xidot=y[6], xiddot=y[7])
        state = ((y[0], y[1]), (y[2], y[3]), t, y[4])
        vals.append(value_of(leach_invariant(spec.coefficients(t), state,
                                             xs)))
    assert np.max(np.abs(np.array(vals) - vals[0])) < 1e-9


def test_positivity_identity():
    spec = modulated()
    xs = XiState(xi=1.3, xidot=0.2, xiddot=-0.4)
    state = ((0.7, -1.1), (0.5, 0.3), 1.2, 0.9)
    assert xi_positivity_residual(spec.coefficients(state[2]), state,
                                  xs) < 1e-10


def test_angular_invariants_antisymmetric():
    I = angular_invariants((1.0, 2.0), (3.0, 5.0))
    assert I.shape == (2, 2)
    assert I[0, 1] == pytest.approx(3.0 * 2.0 - 5.0 * 1.0, abs=1e-14)
    assert np.allclose(I, -I.T)
    assert angular_invariants((1.0,), (2.0,)).shape == (0, 0)


def test_canonical_map_constant_case_is_energy_preserving():
    # omega = 1, f = 0, xi = 1: the map is the identity on (q, p) and e' = e
    spec = constant()
    xs = XiState(xi=1.0, xidot=0.0, xiddot=0.0)
    img = oscillator_canonical_map(spec, ((1.2,), (-0.4,), 0.7, 0.8), xs,
                                   tprime=0.7)
    assert value_of(img.q[0]) == pytest.approx(1.2, abs=1e-12)
    assert value_of(img.p[0]) == pytest.approx(-0.4, abs=1e-12)
    assert value_of(img.e) == pytest.approx(0.8, abs=1e-12)


def test_canonical_map_rejects_nonpositive_xi():
    spec = constant()
    with pytest.raises(UnphysicalMapError):
        oscillator_canonical_map(spec, ((1.0,), (0.0,), 0.0, 0.5),
                                 XiState(xi=-1.0, xidot=0.0, xiddot=0.0))


def test_oscillator_map_is_symplectic():
    from extphase.numkit import sin
    spec = constant()
    mapped = oscillator_map_function(spec,
                                     lambda t: 1.0 + 0.3 * sin(2.0 * t))
    pt = ExtendedPoint(q=(0.9,), p=(-0.5,), t=0.4, e=0.53)
    assert symplectic_residual(mapped, pt) < 1e-12


def test_mapped_image_solves_autonomous_oscillator():
    # the image energy e' equals the constant-frequency Hamiltonian at the
    # image coordinates whenever the source is on-shell
    from extphase.numkit import sin
    spec = constant()
    xi_fn = lambda t: 1.0 + 0.3 * sin(2.0 * t)
    mapped = oscillator_map_function(spec, xi_fn)
    q0, p0, t0 = 0.9, -0.5, 0.4
    e0 = 0.5 * p0 ** 2 + 0.5 * q0 ** 2
    img = mapped(ExtendedPoint(q=(q0,), p=(p0,), t=t0, e=e0))
    xi, xid, xidd = time_derivatives(xi_fn, t0, 2)
    xs = XiState(xi=value_of(xi), xidot=value_of(xid),
                 xiddot=value_of(xidd))
    w02 = value_of(omega0_squared(spec.coefficients(t0), xs))
    got = 0.5 * value_of(img.p[0]) ** 2 \
        + 0.5 * w02 * value_of(img.q[0]) ** 2
    assert value_of(img.e) == pytest.approx(got, abs=1e-12)


def test_hoxi_solution_of_auxiliary_equation():
    # xi = e^F q^2 solves the auxiliary equation along any trajectory; after
    # substituting the canonical equations, its time derivatives become
    # algebraic in (q, p, t), so the check is an identity at arbitrary points
    spec = modulated(n=1)
    for q, p, t in ((1.0, 0.3, 1.0), (-0.7, 1.4, 2.5), (0.2, -0.9, 4.0)):
        w2, dw2, Fv, f, fd, fdd = (value_of(x) for x in
                                   spec.coefficients(t))
        eF, emF = math.exp(Fv), math.exp(-Fv)
        xi = eF * q * q
        xid = f * xi + 2.0 * q * p
        xidd = fd * xi + f * xid + 2.0 * (emF * p * p - eF * w2 * q * q)
        xiddd = fdd * xi + fd * xid + f * xidd \
            - 2.0 * f * emF * p * p - 8.0 * w2 * q * p \
            - 2.0 * f * eF * w2 * q * q - 2.0 * eF * dw2 * q * q
        want = value_of(xi_oscillator_rhs(
            spec.coefficients(t),
            XiState(xi=xi, xidot=xid, xiddot=xidd)).xiddot)
        assert xiddd == pytest.approx(want, abs=1e-8)


def test_potential_spec_from_potential():
    from extphase.numkit import sin
    spec = PotentialSpec(
        1, lambda q, t: 0.5 * (1.0 + 0.1 * sin(t)) * q[0] ** 2)
    g = spec.derivatives((1.3,), 0.8)[1]
    assert value_of(g[0]) == pytest.approx(
        (1.0 + 0.1 * math.sin(0.8)) * 1.3, abs=1e-13)


def test_companion_matrix_structure():
    from extphase.numkit import sin
    spec = PotentialSpec(
        1, lambda q, t: 0.5 * (1.0 + 0.1 * sin(t)) * q[0] ** 2)
    A = xi_general_rhs((1.5,), *spec.derivatives((1.5,), 0.4))
    assert np.trace(A) == 0.0
    assert np.allclose(A[0], [0.0, 1.0, 0.0])
    assert np.allclose(A[1], [0.0, 0.0, 1.0])
    # quadratic potential: g2 = 4 omega^2 regardless of q
    assert A[2, 1] == pytest.approx(-4.0 * (1.0 + 0.1 * math.sin(0.4)),
                                    abs=1e-12)
    with pytest.raises(CoefficientSingularityError):
        xi_general_rhs((1e-9,), *spec.derivatives((1e-9,), 0.4))


def test_transfer_matrix_unit_determinant_and_invariants():
    from extphase.numkit import sin
    spec = PotentialSpec(
        1, lambda q, t: 0.5 * (1.0 + 0.1 * sin(t)) * q[0] ** 2)
    traj, Xi = transfer_matrix(spec, (1.0,), (0.5,), (0.0, 8.0))
    assert Xi.shape == (len(traj), 3, 3)
    assert np.allclose(Xi[0], np.eye(3), atol=1e-14)
    triple0 = invariant_triple((1.0,), (0.5,),
                               float(traj.column("e")[0]))
    for k in range(0, len(traj), 40):
        m = Xi[k]
        assert abs(np.linalg.det(m) - 1.0) < 1e-9
        y = traj.states[k]
        triple = invariant_triple((y[0],), (y[1],), y[2])
        assert np.max(np.abs(m.T @ triple - triple0)) < 1e-9


def test_transfer_matrix_evaluates_potential_once_per_rhs(monkeypatch):
    from extphase import numkit
    from extphase.numkit import sin
    calls = {"V": 0, "rhs": 0}

    def V(q, t):
        calls["V"] += 1
        return 0.5 * (1.0 + 0.1 * sin(t)) * q[0] ** 2

    def V_untraced(q, t):
        # float() of a value aborts the trace before V runs
        return V(q, t) if math.isfinite(value_of(t)) else math.nan

    integrate = numkit.integrate

    def counting_integrate(rhs, *args, **kwargs):
        def counted(s, y):
            calls["rhs"] += 1
            return rhs(s, y)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(numkit, "integrate", counting_integrate)
    transfer_matrix(PotentialSpec(1, V), (1.0,), (0.5,), (0.0, 2.0))
    # traced: one evaluation for the initial energy e0, one for the trace
    assert calls["rhs"] > 0
    assert calls["V"] == 2
    calls.update(V=0, rhs=0)
    transfer_matrix(PotentialSpec(1, V_untraced), (1.0,), (0.5,), (0.0, 2.0))
    # Dual path: one evaluation per RHS call, plus one for e0
    assert calls["rhs"] > 0
    assert calls["V"] == calls["rhs"] + 1


def test_autonomous_potential_keeps_xi1_constant():
    spec = PotentialSpec(1, lambda q, t: 0.5 * q[0] ** 2 + 0.0 * t)
    traj, Xi = transfer_matrix(spec, (1.0,), (0.0,), (0.0, 5.0))
    # g1 = 0: the first fundamental solution stays (1, 0, 0)
    first = Xi[:, :, 0]
    assert np.max(np.abs(first - np.array([1.0, 0.0, 0.0]))) < 1e-10


def test_transfer_matrix_complex_initial_energy_raises():
    # (-1.0) ** 1.5 of plain floats is complex, so e0 is too
    spec = PotentialSpec(1, lambda q, t: q[0] ** 1.5)
    with pytest.raises(DomainEvaluationError):
        transfer_matrix(spec, [-1.0], [0.5], (0.0, 0.1))


def test_oscillator_coupled_run_checks_dimensions():
    xi0 = XiState(xi=1.0, xidot=0.0, xiddot=0.0)
    for q0, p0 in (((1.0, 0.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0,))):
        with pytest.raises(ValueError, match="initial state dimension"):
            oscillator_coupled_run(modulated(), q0, p0, xi0, (0.0, 1.0))


def _untraced(fn):
    """fn behind a float() of its last argument's value: a trace through it
    aborts and the run keeps the Dual path."""
    return lambda *args: fn(*args) if math.isfinite(value_of(args[-1])) \
        else math.nan


def _same_run(a, b):
    assert a.states.tobytes() == b.states.tobytes()
    assert a.derivs.tobytes() == b.derivs.tobytes()


def test_oscillator_traced_run_matches_dual_path():
    from extphase import numkit
    spec = modulated(n=2, eps=0.3, f=0.1)
    dual = OscillatorSpec(n=2, omega2=_untraced(spec.omega2), F=spec.F)
    traced, untraced = (lambda x: spec.coefficients(x[0]),
                        lambda x: dual.coefficients(x[0]))
    assert numkit.trace(traced, [0.0]) is not traced
    assert numkit.trace(untraced, [0.0]) is untraced
    xi0 = XiState(xi=1.0, xidot=0.0, xiddot=0.0)
    args = ((0.3, -0.8), (0.5, 0.2), xi0, (0.0, 3.0))
    _same_run(oscillator_coupled_run(spec, *args),
              oscillator_coupled_run(dual, *args))


def test_transfer_matrix_traced_run_matches_dual_path():
    from extphase import numkit
    from extphase.numkit import exp, sin

    def V(q, t):
        return 0.5 * (1.0 + 0.2 * sin(t)) * sum(x * x for x in q) \
            + 0.1 * exp(-t) * q[0] * q[1]

    spec, dual = PotentialSpec(2, V), PotentialSpec(2, _untraced(V))
    traced, untraced = (lambda x: spec.derivatives(x[:2], x[2]),
                        lambda x: dual.derivatives(x[:2], x[2]))
    assert numkit.trace(traced, [1.0, -0.4, 0.0]) is not traced
    assert numkit.trace(untraced, [1.0, -0.4, 0.0]) is untraced
    args = ((1.0, -0.4), (0.5, 0.3), (0.0, 3.0))
    _same_run(transfer_matrix(spec, *args)[0], transfer_matrix(dual, *args)[0])


# ---------------------------------------------------------------------------
# the coupled right-hand side: one traced kernel on Python floats, against
# the Dual path it is traced from
# ---------------------------------------------------------------------------


def _coupled_rhs(spec):
    """The right-hand side that `oscillator_coupled_run` integrates."""
    from extphase import numkit
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkit, "integrate",
                   lambda rhs, *args, **kwargs: captured.append(rhs))
        oscillator_coupled_run(spec, [0.5] * spec.n, [0.5] * spec.n,
                               XiState(xi=1.0, xidot=0.0, xiddot=0.0),
                               (0.0, 1.0))
    return captured[0]


def _reference_coupled_rhs(spec, t, y):
    """The coupled right-hand side from the Dual path: `grad_raw` of H,
    `spec.coefficients` and `xi_oscillator_rhs`."""
    from extphase import numkit
    n = spec.n
    H = spec.system().H
    _, g = numkit.grad_raw(lambda v: H(v[:n], v[n:2 * n], v[2 * n]),
                           [*y[:2 * n], t])
    dxs = xi_oscillator_rhs(spec.coefficients(t),
                            XiState(*y[2 * n + 1:2 * n + 4]))
    xi = y[2 * n + 1]
    if xi <= 0:
        return [math.nan] * (2 * n + 5)
    return g[n:2 * n] + [-gi for gi in g[:n]] + [
        g[2 * n], value_of(dxs.xi), value_of(dxs.xidot), value_of(dxs.xiddot),
        1.0 / xi]


def _hexes(values):
    return [float(v).hex() for v in values]


_coordinate = st.floats(-10.0, 10.0, allow_subnormal=False)


@given(st.integers(1, 3), st.floats(-0.9, 0.9), st.floats(-1.0, 1.0),
       st.data())
@settings(max_examples=60, deadline=None)
def test_coupled_rhs_matches_dual_path(n, eps, f, data):
    spec = modulated(n=n, eps=eps, f=f)
    rhs = _coupled_rhs(spec)
    # q.., p.., e, xi, xid, xidd, tprime; xi may be <= 0
    y = data.draw(st.lists(_coordinate, min_size=2 * n + 5,
                           max_size=2 * n + 5))
    t = data.draw(_coordinate)
    assert _hexes(rhs(t, np.array(y))) \
        == _hexes(_reference_coupled_rhs(spec, t, y))


def test_coupled_rhs_nan_at_nonpositive_xi_and_typed_coefficient_error():
    rhs = _coupled_rhs(modulated(n=2))
    for xi in (0.0, -0.0, -1e-300, -2.5):
        y = np.array([0.3, -0.2, 0.1, 0.4, 0.7, xi, 0.2, -0.1, 0.0])
        out = rhs(0.5, y)
        assert len(out) == 9 and all(math.isnan(v) for v in out)
    # one coefficient made infinite at a time: F is not checked, since only
    # its derivatives enter the auxiliary equation
    y = np.array([0.3, 0.1, 0.4, 1.0, 0.2, -0.1, 0.0])
    for k in range(6):
        class Pinned(OscillatorSpec):
            def coefficients(self, t, k=k):
                c = list(OscillatorSpec.coefficients(self, t))
                c[k] = c[k] + math.inf
                return tuple(c)

        bad = _coupled_rhs(Pinned(n=1, omega2=lambda t: 1.0 + 0.1 * t,
                                  F=lambda t: 0.1 * t))
        if k == 2:
            assert all(math.isfinite(v) for v in bad(0.5, y))
            continue
        with pytest.raises(DomainEvaluationError, match="coefficients"):
            bad(0.5, y)


def test_cli_oscillator_spec_traces(monkeypatch):
    from extphase import numkit
    from extphase.cli import _run_oscillator, validate
    traced = []
    trace = numkit.trace

    def recorded(fn, x):
        kernel = trace(fn, x)
        traced.append((len(x), kernel is not fn))
        return kernel

    monkeypatch.setattr(numkit, "trace", recorded)
    cfg, errors = validate({"scenario": "oscillator",
                            "params": {"t_end": 0.5}})
    assert not errors
    _run_oscillator(cfg.params, random.Random(0), cfg.tolerances)
    n = cfg.params["n"]
    assert traced == [(2 * n + 4, True)]
