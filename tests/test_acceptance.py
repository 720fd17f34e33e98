"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with `pytest -s` or in captured output).  Tolerances are stated
inline; nothing here is loosened for convenience.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from extphase import celestial, lagrangian, phase, relativity, tdsystems
from extphase.cli import ScenarioConfig, run, validate
from extphase.errors import IntegrationStallError
from extphase.numkit import Trajectory, sin, value_of
from extphase.phase import (ExtendedPoint, Parameterization, lift,
                            map_jacobian, poisson_extended, propagate,
                            symplectic_residual)
from extphase.tdsystems import OscillatorSpec, PotentialSpec, XiState
from extphase.transform import (GeneratingFunction, apply_generating,
                                embed_conventional, extended_identity,
                                restriction_report, transform_hamiltonian)


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def suite_systems():
    kepler = celestial.KeplerSpec(K2=1.0, x0=2.0, p0=0.0).system()
    osc = OscillatorSpec(n=2, omega2=lambda t: 1.0 + 0.1 * sin(t),
                         F=lambda t: 0.05 * t).system()
    rel = relativity.lorentz_invariant_hamiltonian(
        relativity.EmField.free(m=1.0)).solved
    pot = PotentialSpec(
        1, lambda q, t: 0.5 * (1.0 + 0.1 * sin(t)) * q[0] ** 2).system()
    return [kepler, osc, rel, pot]


def td_oscillator(n=1, f=0.0):
    return OscillatorSpec(n=n, omega2=lambda t: 1.0 + 0.1 * sin(t),
                          F=lambda t: f * t)


def test_01_fundamental_brackets():
    rng = random.Random(101)
    worst = 0.0
    for sys in suite_systems():
        n = sys.n
        for _ in range(100):
            pt = ExtendedPoint(
                q=tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
                p=tuple(rng.uniform(-2.0, 2.0) for _ in range(n)),
                t=rng.uniform(-1.0, 1.0), e=rng.uniform(-1.0, 1.0))
            fields = [lambda q, p, t, e, i=i: q[i] for i in range(n)] \
                + [lambda q, p, t, e: t] \
                + [lambda q, p, t, e, i=i: p[i] for i in range(n)] \
                + [lambda q, p, t, e: -e]
            m = n + 1
            for a in range(2 * m):
                for b in range(2 * m):
                    want = 1.0 if b == a + m else (-1.0 if a == b + m else 0.0)
                    got = value_of(poisson_extended(fields[a], fields[b], pt))
                    worst = max(worst, abs(got - want))
    report(1, "fundamental extended brackets", worst <= 1e-12,
           f"max defect {worst:.3e}")


def test_02_h1_constancy_and_reversal():
    spec = td_oscillator()
    sys = spec.system()
    pt0 = lift((1.0,), (0.5,), 0.0, sys)
    fwd = propagate(pt0, sys, Parameterization.constant(1.0), (0.0, 100.0))
    drift = max(abs(value_of(phase.extended_value(
        phase.state_to_point(fwd.states[k], 1), 1.0, sys)))
        for k in range(0, len(fwd), 50))
    pt_end = phase.state_to_point(fwd.final_state, 1)
    back = propagate(pt_end, sys, Parameterization.constant(-1.0),
                     (0.0, 100.0))
    rec = np.abs(np.array(back.final_state)
                 - np.array(phase.point_to_state(pt0)))
    ok = drift <= 1e-9 and float(np.max(rec)) <= 1e-8
    report(2, "H1 constancy and k = -1 reversal", ok,
           f"drift {drift:.3e}, reversal {float(np.max(rec)):.3e}")


def test_03_lorentz_boost():
    b = relativity.Boost(beta=(0.6, 0.0, 0.0))
    F = relativity.lorentz_generating(b)
    pt = ExtendedPoint(q=(0.4, -1.1, 0.2), p=(0.3, 0.7, -0.5), t=0.8, e=2.0)
    res = symplectic_residual(lambda z: apply_generating(F, z), pt)
    # H1 invariance: on-shell probes keep H_L = e in the boosted frame
    hl = relativity.lorentz_invariant_hamiltonian(relativity.EmField.free())
    rng = random.Random(33)
    h1_inv = 0.0
    for _ in range(10):
        src = lift(tuple(rng.uniform(-1, 1) for _ in range(3)),
                   tuple(rng.uniform(-1, 1) for _ in range(3)),
                   rng.uniform(-1, 1), hl.solved)
        img = apply_generating(F, src)
        h1_inv = max(h1_inv, abs(value_of(
            hl.extended(tuple(value_of(v) for v in img.q),
                        tuple(value_of(v) for v in img.p),
                        value_of(img.t), value_of(img.e)) - img.e)))
    b1, b2 = 0.6, 0.3
    comb = (b1 + b2) / (1.0 + b1 * b2)
    vel_err = float(np.max(np.abs(
        relativity.boost_matrix(relativity.Boost(beta=(b2, 0.0, 0.0)))
        @ relativity.boost_matrix(relativity.Boost(beta=(b1, 0.0, 0.0)))
        - relativity.boost_matrix(relativity.Boost(beta=(comb, 0.0, 0.0))))))
    rep = restriction_report(F, pt)
    ok = abs(b.gamma - 1.25) <= 1e-14 and res <= 1e-12 \
        and h1_inv <= 1e-10 and vel_err <= 1e-12 and not rep.time_global
    report(3, "Lorentz boost", ok,
           f"residual {res:.3e}, H1 inv {h1_inv:.3e}, addition {vel_err:.3e}")


def test_04_lorentz_invariant_hamiltonian():
    f = relativity.EmField(A=lambda q, t: (0.1 * q[1], -0.2 * q[0], 0.05),
                           phi=lambda q, t: 0.3 * q[2], zeta=0.7, m=1.4)
    hl = relativity.lorentz_invariant_hamiltonian(f, c=2.0)
    rng = random.Random(44)
    worst = 0.0
    for _ in range(100):
        q = tuple(rng.uniform(-2, 2) for _ in range(3))
        P = tuple(rng.uniform(-2, 2) for _ in range(3))
        t = rng.uniform(-1, 1)
        e = value_of(hl.solved.H(q, P, t))
        worst = max(worst, abs(value_of(hl.extended(q, P, t, e)) - e))
    free = relativity.lorentz_invariant_hamiltonian(
        relativity.EmField.free(m=1.7), c=3.0)
    rest_exact = value_of(free.solved.H((0.0,) * 3, (0.0,) * 3, 0.0)) \
        == 1.7 * 9.0
    # expansion: H_L - mc^2 - P^2/2m = -(P^2)^2 / 8 m^3 c^2 + O(P^6)
    m, c = 1.3, 10.0
    hl2 = relativity.lorentz_invariant_hamiltonian(
        relativity.EmField.free(m=m), c=c)
    hn = relativity.nonrelativistic_hamiltonian(relativity.EmField.free(m=m))
    exp_ok = True
    for scale in (1e-1, 1e-2):
        P = (scale, 0.5 * scale, -0.3 * scale)
        p2 = sum(x * x for x in P)
        diff = value_of(hl2.solved.H((0.0,) * 3, P, 0.0)) - m * c * c \
            - value_of(hn.H((0.0,) * 3, P, 0.0))
        exp_ok = exp_ok and abs(diff + p2 ** 2 / (8 * m ** 3 * c * c)) \
            <= 1e-3 * p2 ** 2 / (8 * m ** 3 * c * c) + 1e-18
    ok = worst <= 1e-10 and rest_exact and exp_ok
    report(4, "Lorentz-invariant Hamiltonian", ok,
           f"implicit defect {worst:.3e}")


def test_05_kepler_regularization():
    spec = celestial.KeplerSpec(K2=1.0, x0=2.0, p0=0.0)
    reg = celestial.kepler_regularized(spec, (0.0, 2.0 * math.pi))
    closed = float(np.max(np.abs(reg.column("x") - (1.0 + np.cos(reg.s)))))
    at_pi = abs(float(reg.interpolate(math.pi)[0]))
    stalled = False
    try:
        celestial.kepler_direct(spec, (0.0, 4.0))
    except IntegrationStallError:
        stalled = True
    ident = float(np.max(np.abs(
        reg.column("dxdt") ** 2
        - (2.0 * spec.energy * reg.column("x") ** 2
           + 2.0 * spec.K2 * reg.column("x")))))
    # resampled agreement while x > 0.01
    t_stop = None
    for k in range(len(reg)):
        if reg.column("x")[k] <= 0.01:
            break
        t_stop = float(reg.column("t")[k])
    direct = celestial.kepler_direct(spec, (0.0, 0.999 * t_stop))
    agree = 0.0
    for k in range(len(reg)):
        x, t = float(reg.states[k, 0]), float(reg.column("t")[k])
        if x <= 0.01 or t >= 0.999 * t_stop:
            break
        agree = max(agree, abs(x - float(direct.interpolate(t)[0])))
    ok = closed <= 1e-8 and at_pi <= 1e-8 and stalled \
        and ident <= 1e-8 and agree <= 1e-6
    report(5, "Kepler regularization", ok,
           f"closed-form {closed:.3e}, identity {ident:.3e}, "
           f"resample {agree:.3e}")


def test_06_ks_transformation():
    rng = random.Random(55)
    radial = 0.0
    for _ in range(100):
        u = tuple(rng.uniform(-2, 2) for _ in range(4))
        q, _ = celestial.ks_map(u, (0.0,) * 4)
        r = math.sqrt(sum(value_of(x) ** 2 for x in q))
        radial = max(radial, abs(r - sum(x * x for x in u)))
    from extphase.celestial import _ks_L
    res = 0.0
    for _ in range(5):
        u = tuple(rng.uniform(0.3, 1.5) for _ in range(4))
        p_phys = [rng.uniform(-1, 1) for _ in range(3)]
        L = _ks_L(u)
        pu = tuple(sum(L[r][c] * p_phys[c] for c in range(3))
                   for r in range(4))
        res = max(res, celestial.ks_symplectic_residual(u, pu))
    ok = radial <= 1e-12 and res <= 1e-10
    report(6, "KS transformation", ok,
           f"radial {radial:.3e}, symplectic {res:.3e}")


def test_07_oscillator_invariants():
    details = []
    ok = True
    for f in (0.05, 0.0):
        spec = td_oscillator(n=2, f=f)
        tr = tdsystems.oscillator_coupled_run(
            spec, (1.0, 0.0), (0.0, 1.0),
            XiState(xi=1.0, xidot=0.0, xiddot=0.0), (0.0, 50.0))
        leach, ang = [], []
        pos = 0.0
        for k in range(0, len(tr), 20):
            y, t = tr.states[k], float(tr.s[k])
            xs = XiState(xi=y[5], xidot=y[6], xiddot=y[7])
            state = ((y[0], y[1]), (y[2], y[3]), t, y[4])
            c = spec.coefficients(t)
            leach.append(value_of(tdsystems.leach_invariant(c, state, xs)))
            ang.append(tdsystems.angular_invariants(state[0], state[1])[0, 1])
            pos = max(pos, tdsystems.xi_positivity_residual(c, state, xs))
        ldrift = float(np.max(np.abs(np.array(leach) - leach[0])))
        adrift = float(np.max(np.abs(np.array(ang) - ang[0])))
        ok = ok and ldrift <= 1e-8 and adrift <= 1e-8 and pos <= 1e-10
        details.append(f"f={f}: leach {ldrift:.2e}, I {adrift:.2e}, "
                       f"positivity {pos:.2e}")
    # xi = e^F q^2 solves the auxiliary equation (canonical equations
    # substituted, so the check is algebraic at arbitrary points)
    spec1 = td_oscillator(n=1, f=0.05)
    hoxi = 0.0
    for q, p, t in ((1.0, 0.3, 1.0), (-0.7, 1.4, 2.5), (0.2, -0.9, 4.0)):
        w2, dw2, Fv, f1, fd, fdd = (value_of(x)
                                    for x in spec1.coefficients(t))
        eF, emF = math.exp(Fv), math.exp(-Fv)
        xi = eF * q * q
        xid = f1 * xi + 2.0 * q * p
        xidd = fd * xi + f1 * xid + 2.0 * (emF * p * p - eF * w2 * q * q)
        xiddd = fdd * xi + fd * xid + f1 * xidd \
            - 2.0 * f1 * emF * p * p - 8.0 * w2 * q * p \
            - 2.0 * f1 * eF * w2 * q * q - 2.0 * eF * dw2 * q * q
        want = value_of(tdsystems.xi_oscillator_rhs(
            spec1.coefficients(t),
            XiState(xi=xi, xidot=xid, xiddot=xidd)).xiddot)
        hoxi = max(hoxi, abs(xiddd - want))
    # constant-omega reduction: xi = 1 gives e' = e exactly
    cspec = OscillatorSpec(n=1, omega2=lambda t: 1.0 + 0.0 * t,
                           F=lambda t: 0.0 * t)
    ep = value_of(tdsystems.leach_invariant(
        cspec.coefficients(0.7), ((1.2,), (-0.4,), 0.7, 0.8),
        XiState(xi=1.0, xidot=0.0, xiddot=0.0)))
    const_err = abs(ep - (0.5 * 0.4 ** 2 + 0.5 * 1.2 ** 2))
    ok = ok and hoxi <= 1e-8 and const_err <= 1e-12
    report(7, "oscillator invariants", ok,
           "; ".join(details) + f"; hoxi {hoxi:.2e}, const-omega "
           f"{const_err:.2e}")


def test_08_general_potential():
    spec = PotentialSpec(
        1, lambda q, t: 0.5 * (1.0 + 0.1 * sin(t)) * q[0] ** 2)
    traj, Xi = tdsystems.transfer_matrix(spec, (1.0,), (0.5,), (0.0, 30.0))
    det_err = max(abs(np.linalg.det(m) - 1.0) for m in Xi)
    triple0 = tdsystems.invariant_triple((1.0,), (0.5,),
                                         float(traj.column("e")[0]))
    trip_err = 0.0
    for k in range(0, len(traj), 25):
        y = traj.states[k]
        trip = tdsystems.invariant_triple((y[0],), (y[1],), y[2])
        trip_err = max(trip_err, float(np.max(np.abs(
            Xi[k].T @ trip - triple0))))
    auto = PotentialSpec(1, lambda q, t: 0.5 * q[0] ** 2 + 0.0 * t)
    _, aXi = tdsystems.transfer_matrix(auto, (1.0,), (0.0,), (0.0, 10.0))
    xi1_err = max(float(np.max(np.abs(m[:, 0]
                                      - np.array([1.0, 0.0, 0.0]))))
                  for m in aXi)
    ok = det_err <= 1e-8 and trip_err <= 1e-8 and xi1_err <= 1e-10
    report(8, "general potential transfer matrix", ok,
           f"det {det_err:.3e}, triple {trip_err:.3e}, xi1 {xi1_err:.3e}")


def test_09_extended_lagrangian():
    sys = lagrangian.LagrangianSystem(
        n=1, L=lambda q, qdot, t: 0.5 * qdot[0] ** 2 - 0.5 * q[0] ** 2)
    rng = random.Random(66)
    hom = eul = leg = 0.0
    for _ in range(25):
        pt = lagrangian.ExtendedVelocityPoint(
            q1=(rng.uniform(-2, 2), rng.uniform(-1, 1)),
            v1=(rng.uniform(-2, 2), rng.uniform(0.3, 2.0)))
        a, b = lagrangian.homogeneity_residual(sys, pt, rng.uniform(0.5, 3.0))
        hom, eul = max(hom, a), max(eul, b)
        p, p_np1, h1 = lagrangian.legendre_to_h1(sys, pt)
        hsys = lagrangian.paired_hamiltonian(sys)
        ept = ExtendedPoint(q=(pt.q1[0],), p=(value_of(p[0]),),
                            t=pt.q1[1], e=-p_np1)
        k = pt.v1[1]
        leg = max(leg, abs(h1 - value_of(
            phase.extended_value(ept, k, hsys))))

    def exact_trajectory(time_map, dtime_map, s_end=3.0, m=6001):
        s = np.linspace(0.0, s_end, m)
        t = np.array([time_map(x) for x in s])
        dt = np.array([dtime_map(x) for x in s])
        return Trajectory(s=s, states=np.column_stack([np.cos(t), t]),
                          labels=("q1", "t"),
                          derivs=np.column_stack([-np.sin(t) * dt, dt]))

    el = 0.0
    for tm, dtm in ((lambda s: s, lambda s: 1.0),
                    (lambda s: s ** 3 / 9.0 + 0.1 * s,
                     lambda s: s ** 2 / 3.0 + 0.1),
                    (lambda s: math.sinh(s) / 3.0,
                     lambda s: math.cosh(s) / 3.0)):
        ext_max, _ = lagrangian.euler_lagrange_residual(
            sys, exact_trajectory(tm, dtm))
        el = max(el, ext_max)
    s = np.linspace(0.0, 3.0, 2001)
    bogus = Trajectory(s=s, states=np.column_stack([s, s]),
                       labels=("q1", "t"),
                       derivs=np.column_stack([np.ones_like(s),
                                               np.ones_like(s)]))
    bad, _ = lagrangian.euler_lagrange_residual(sys, bogus)
    ok = hom <= 1e-12 and eul <= 1e-12 and leg <= 1e-12 \
        and el <= 1e-6 and bad > 0.1
    report(9, "extended Lagrangian", ok,
           f"homogeneity {hom:.2e}, Euler {eul:.2e}, Legendre {leg:.2e}, "
           f"EL {el:.2e}, non-solution {bad:.2f}")


def test_10_transform_engine():
    pt1 = ExtendedPoint(q=(1.3,), p=(-0.7,), t=0.4, e=0.9)
    pt3 = ExtendedPoint(q=(0.4, -1.1, 0.2), p=(0.3, 0.7, -0.5), t=0.8, e=2.0)
    maps = [
        (extended_identity(1), pt1),
        (relativity.lorentz_generating(
            relativity.Boost(beta=(0.6, 0.0, 0.0))), pt3),
        (relativity.lorentz_generating(
            relativity.Boost(beta=(0.3, -0.4, 0.2))), pt3),
        (celestial.timescale_generating(
            celestial.TimeScaleSpec(xi=lambda t: 1.0 + t)),
         ExtendedPoint(q=(1.4,), p=(-0.3,), t=1.0, e=0.7)),
        (GeneratingFunction(
            kind="F2", n=1,
            value=lambda q, pp, t, ep, s: q[0] * pp[0] + 0.2 * q[0] ** 3
            - t * ep + 0.1 * t ** 2), pt1),
    ]
    det_err = 0.0
    for F, pt in maps:
        M = map_jacobian(lambda z: apply_generating(F, z), pt)
        det_err = max(det_err, abs(abs(float(np.linalg.det(M))) - 1.0))
    # conventional embedding rule H' = H + df2/dt on-shell
    sys = phase.HamiltonianSystem(
        n=1, H=lambda q, p, t: 0.5 * p[0] ** 2 + 0.5 * t * q[0] ** 2)
    F2 = embed_conventional(lambda q, pp, t: q[0] * pp[0] + 0.3 * t * q[0], 1)
    src = lift((1.3,), (-0.7,), 0.4, sys)
    emb_err = abs(transform_hamiltonian(sys, F2, src)
                  - (value_of(sys.H(src.q, src.p, src.t)) + 0.3 * src.q[0]))
    Ft = celestial.timescale_generating(
        celestial.TimeScaleSpec(xi=lambda t: 1.0 + t))
    ptt = ExtendedPoint(q=(1.4,), p=(-0.3,), t=1.0, e=0.7)
    rep = restriction_report(Ft, ptt, tol=1e-12)
    Mt = map_jacobian(lambda z: apply_generating(Ft, z), ptt)
    vol = abs(Mt[1, 1] * Mt[3, 3] - 1.0)  # (t, -e) subspace volume, n = 1
    flags = rep.time_global and rep.spacetime_split and rep.subspace_liouville
    ok = det_err <= 1e-10 and emb_err <= 1e-10 and flags and vol <= 1e-12
    report(10, "transform engine", ok,
           f"|detJ|-1 {det_err:.3e}, embed {emb_err:.3e}, volume {vol:.3e}")


def test_11_cli_suite(tmp_path):
    scenarios = ["bracket-suite", "lorentz", "kepler-direct",
                 "kepler-regularized", "ks", "oscillator", "potential",
                 "lagrangian-check"]
    t0 = time.monotonic()
    all_pass = True
    for s in scenarios:
        cfg, errors = validate({"scenario": s, "seed": 42})
        assert not errors
        for rep in ("a", "b"):
            cfg_run = ScenarioConfig(scenario=s, params=cfg.params,
                                     output_dir=str(tmp_path / rep / s),
                                     seed=42)
            all_pass = all_pass and run(cfg_run).passed
    elapsed = time.monotonic() - t0
    deterministic = True
    for s in scenarios:
        ra = (tmp_path / "a" / s / "report.json").read_text()
        rb = (tmp_path / "b" / s / "report.json").read_text()
        deterministic = deterministic and ra == rb
        assert json.loads(ra)["scenario"] == s
    bad, errors = validate({"scenario": "lorentz",
                            "params": {"beta_x": 2.0}})
    ok = all_pass and deterministic and elapsed < 300.0 and bad is None
    report(11, "CLI scenario suite", ok,
           f"wall-clock {elapsed:.1f}s, deterministic={deterministic}")
