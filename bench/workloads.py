"""The benchmark's three workloads: their inputs, operations and checks.

A workload is a fixed list of operations built once from the seed; one pass
runs every operation once.  An operation is one `cli.validate` + `cli.run`
of one config, or one library call.  Only the operation's call is timed;
its check runs afterwards and compares the output with `oracles`.

Each check returns ``(fault, problems)``: ``fault`` names an operation that
failed (the program reported a failure, or hit the known `collision_count`
fault), and ``problems`` lists disagreements with an oracle.  Checks that
need scipy append a closure to ``late``; those run after the timed passes so
that scipy never counts towards the workload's memory.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
from extphase import (celestial, cli, lagrangian, numkit, phase, relativity,
                      transform)

# Defaults of the CLI scenarios at the time the benchmark was defined,
# passed explicitly so the workload stays fixed if the defaults change.
KEPLER_DIRECT = {"K2": 1.0, "x0": 1.0, "p0": 0.0, "t_end": 3.0}
KEPLER_REGULARIZED = {"K2": 1.0, "x0": 2.0, "p0": 0.0,
                      "tprime_end": 2.0 * math.pi}
OSCILLATOR = {"n": 2, "eps": 0.1, "f": 0.05, "t_end": 50.0,
              "q0": [1.0, 0.0], "p0": [0.0, 1.0]}
POTENTIAL = {"n": 1, "eps": 0.1, "t_end": 30.0, "q0": [1.0], "p0": [0.5]}

REGULARIZED_BATCH = 6
BOOST_POINTS = 8
F3_POINTS = 3
BRACKET_POINTS = 8
KS_POINTS = 8
LEGENDRE_POINTS = 8


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, list], tuple]
    config: dict | None = None  # the CLI config, for the set-up measurement


def _close(got, want, tol):
    err = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    return err <= tol, err


def _read_csv(path, last_only=False):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if last_only:
            *_, line = fh
            return header, np.array([float(v) for v in line.split(",")])
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def _cli_op(name, scenario, params, seed, out_dir, check):
    config = {"scenario": scenario, "params": params, "seed": seed,
              "output_dir": out_dir}

    def call():
        cfg, errors = cli.validate(config)
        if errors:
            raise ValueError(f"{scenario}: config rejected: {errors}")
        return cli.run(cfg)

    def checked(report, late):
        if not report.passed:
            return f"{name}: program reported FAIL {report.metrics}", []
        return check(report, late)

    return Op(name, call, checked, config)


def _verdict_only(report, late):
    """For CLI scenarios whose only outputs are their own residuals: the
    check is the CLI's verdict; library operations check the same claims."""
    return None, []


# ---------------------------------------------------------------------------
# kepler-collision
# ---------------------------------------------------------------------------


def _check_direct(out_dir):
    p = KEPLER_DIRECT

    def check(report, late):
        problems = []
        want = oracles.freefall_time(p["K2"], p["x0"])
        stall = report.metrics["stall_time"]
        if not abs(stall - want) <= 1e-9:
            problems.append(f"kepler-direct: stall at {stall!r}, free fall "
                            f"reaches x = 0 at {want!r}")
        _, rows = _read_csv(os.path.join(out_dir, "kepler_direct.csv"))
        ok, err = _close(rows[:, 1],
                         oracles.radial_kepler_x(rows[:, 0], p["K2"], p["x0"]),
                         1e-9)
        if not ok:
            problems.append(f"kepler-direct: x(t) off Kepler's equation by {err:.3g}")
        return None, problems

    return check


def _check_regularized(name, p, out_dir, count_collisions):
    def check(report, late):
        problems = []
        _, rows = _read_csv(os.path.join(out_dir, "kepler_regularized.csv"))
        x, v, t = oracles.regularized_orbit(rows[:, 0], p["K2"], p["x0"], p["p0"])
        scale = max(1.0, float(np.max(np.abs(t))))
        for label, col, want in (("x", 1, x), ("dx/dt'", 2, v), ("t", 3, t)):
            ok, err = _close(rows[:, col], want, 1e-9 * scale)
            if not ok:
                problems.append(f"{name}: {label}(t') off closed form by {err:.3g}")
        fault = None
        if count_collisions:
            want = oracles.regularized_minima(p["tprime_end"], p["K2"],
                                              p["x0"], p["p0"])
            got = report.metrics["collision_count"]
            if got != want:
                fault = (f"{name}: collision_count = {got:g}, orbit touches "
                         f"x = 0 {want} time(s)")
        return fault, problems

    return check


def _random_bound_orbit(rng):
    """A bound orbit over exactly three fictitious periods.

    With omega in [0.75, 1.25] and the span fixed in periods, the step count
    hardly depends on the draw, so every seed gives about the same work.
    """
    omega = rng.uniform(0.75, 1.25)
    K2 = rng.uniform(0.5, 2.0)
    x0 = rng.uniform(0.3, 1.0) * 2.0 * K2 / omega ** 2  # e0 = -omega^2 / 2
    p0 = rng.choice((-1.0, 1.0)) * math.sqrt(2.0 * K2 / x0 - omega ** 2)
    return {"K2": K2, "x0": x0, "p0": p0,
            "tprime_end": 3.0 * 2.0 * math.pi / omega}


def kepler_collision(seed, out_dir):
    rng = random.Random(seed)
    ops = [_cli_op("kepler-direct", "kepler-direct", KEPLER_DIRECT, seed,
                   out_dir, _check_direct(out_dir)),
           # Fixed input: the one operation expected to fail today, on the
           # collision_count fault (sign changes of x miss the bounce).
           _cli_op("kepler-regularized", "kepler-regularized",
                   KEPLER_REGULARIZED, seed, out_dir,
                   _check_regularized("kepler-regularized", KEPLER_REGULARIZED,
                                      out_dir, count_collisions=True))]
    for i in range(REGULARIZED_BATCH):
        p = _random_bound_orbit(rng)
        name = f"kepler-regularized[{i}]"
        ops.append(_cli_op(name, "kepler-regularized", p, seed, out_dir,
                           _check_regularized(name, p, out_dir,
                                              count_collisions=False)))
    return ops


# ---------------------------------------------------------------------------
# td-propagation
# ---------------------------------------------------------------------------


def _check_final_state(name, out_dir, csv, make_rhs, params, columns):
    """Compare the CSV's last row with DOP853 on the oracle's equations.

    columns maps CSV column names to indices of the oracle state.
    """
    reference = {}

    def check(report, late):
        header, last = _read_csv(os.path.join(out_dir, csv), last_only=True)
        got = np.array([last[header.index(c)] for c in columns])

        def compare():
            if "y" not in reference:
                reference["y"] = oracles.scipy_final_state(make_rhs, params)
            want = reference["y"][list(columns.values())]
            ok, err = _close(got, want, 1e-9 * max(1.0, np.max(np.abs(want))))
            return [] if ok else [f"{name}: final state off DOP853 by {err:.3g}"]

        late.append(compare)
        return None, []

    return check


def _oscillator_columns(n):
    names = [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)] \
        + ["e", "xi", "xid", "xidd", "tprime"]
    return {c: i for i, c in enumerate(names)}


def _propagate():
    H = phase.HamiltonianSystem(
        n=1, H=lambda q, p, t: 0.5 * p[0] ** 2 + 0.5 * q[0] ** 2)
    k = phase.Parameterization(k=lambda s, pt: math.cos(s))
    pt0 = phase.lift((1.0,), (0.0,), 0.0, H)
    return phase.propagate(pt0, H, k, (0.0, 4.0 * math.pi))


def _check_propagate(traj, late):
    q, p, t, e = oracles.reversed_time_oscillator(traj.s)
    problems = []
    for label, want in (("q1", q), ("p1", p), ("t", t), ("e", e)):
        ok, err = _close(traj.column(label), want, 1e-9)
        if not ok:
            problems.append(f"propagate: {label}(s) off closed form by {err:.3g}")
    return None, problems


def td_propagation(seed, out_dir):
    return [
        _cli_op("oscillator", "oscillator", OSCILLATOR, seed, out_dir,
                _check_final_state("oscillator", out_dir, "oscillator.csv",
                                   oracles.oscillator_rhs, OSCILLATOR,
                                   _oscillator_columns(OSCILLATOR["n"]))),
        _cli_op("potential", "potential", POTENTIAL, seed, out_dir,
                _check_final_state("potential", out_dir, "potential.csv",
                                   oracles.potential_rhs, POTENTIAL,
                                   {"q1": 0, "p1": 1, "e": 2, "xi1": 3,
                                    "xi2": 4, "xi3": 5})),
        Op("propagate", _propagate, _check_propagate),
    ]


# ---------------------------------------------------------------------------
# canonical-maps
# ---------------------------------------------------------------------------


def _random_point(rng):
    return phase.ExtendedPoint(
        q=tuple(rng.uniform(-1.0, 1.0) for _ in range(3)),
        p=tuple(rng.uniform(-1.0, 1.0) for _ in range(3)),
        t=rng.uniform(-1.0, 1.0), e=rng.uniform(1.0, 2.0))


def _boost_op(name, F, beta, pt, source=None):
    """Apply F at pt; the image must match the closed-form boost and, for a
    converted F, the image under its source generating function."""
    def flat(img):
        return np.concatenate([img.q, img.p, [img.t, img.e]])

    qs, ps, ts, es = oracles.boost(beta, 1.0, pt.q, pt.p, pt.t, pt.e)
    want = np.concatenate([qs, ps, [ts, es]])
    # computed here, so no check runs inside a traced pass
    source_image = flat(transform.apply_generating(source, pt)) \
        if source is not None else None

    def check(img, late):
        got = flat(img)
        problems = []
        ok, err = _close(got, want, 1e-10)
        if not ok:
            problems.append(f"{name}: image off the closed-form boost by {err:.3g}")
        if source_image is not None:
            ok, err = _close(got, source_image, 1e-10)
            if not ok:
                problems.append(f"{name}: image off the source F2's by {err:.3g}")
        return None, problems

    return Op(name, lambda: transform.apply_generating(F, pt), check)


def _bracket_op(name, pt):
    """{F, G}_e by `phase.poisson_extended` against the written-out gradients."""
    def F(q, p, t, e):
        return q[0] ** 2 * p[1] + e * t + numkit.sin(p[0])

    def G(q, p, t, e):
        return p[0] * q[1] + p[1] * numkit.cos(q[0]) + e ** 2 * t

    want = oracles.bracket_fg(pt.q, pt.p, pt.t, pt.e)

    def check(got, late):
        ok, err = _close(numkit.value_of(got), want, 1e-12 * max(1.0, abs(want)))
        return None, [] if ok else [f"{name}: bracket off closed form by {err:.3g}"]

    return Op(name, lambda: phase.poisson_extended(F, G, pt), check)


def _ks_op(name, rng):
    """`celestial.ks_map` of KS momenta built from physical ones must give
    back the KS position and those momenta, with |q| = |u|^2."""
    u = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
    p3 = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    pu = tuple(float(x) for x in oracles.ks_lift(u, p3))
    want = np.concatenate([oracles.ks_position(u), p3, [0.0]])

    def check(out, late):
        q, p = out
        got = np.array([numkit.value_of(x) for x in (*q, *p)])
        problems = []
        ok, err = _close(got, want, 1e-12)
        if not ok:
            problems.append(f"{name}: image off the KS map by {err:.3g}")
        radial = abs(math.sqrt(float(got[:3] @ got[:3])) - sum(x * x for x in u))
        if not radial <= 1e-12:
            problems.append(f"{name}: |q| - |u|^2 = {radial:.3g}")
        return None, problems

    return Op(name, lambda: celestial.ks_map(u, pu), check)


def _legendre_op(name, rng):
    """`legendre_to_h1` and the homogeneity of L1 for L = qdot^2/2 - q^2/2."""
    sys = lagrangian.LagrangianSystem(
        n=1, L=lambda q, qd, t: 0.5 * qd[0] ** 2 - 0.5 * q[0] ** 2)
    q, t, v, tau = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5))
    c = rng.uniform(0.2, 3.0)
    pt = lagrangian.ExtendedVelocityPoint(q1=(q, t), v1=(v, tau))
    scaled = lagrangian.ExtendedVelocityPoint(q1=(q, t), v1=(c * v, c * tau))
    L1, p, p_t = oracles.oscillator_legendre(q, v, tau)

    def call():
        return (lagrangian.legendre_to_h1(sys, pt),
                lagrangian.extended_lagrangian(sys, scaled))

    def check(out, late):
        (got_p, got_pt, h1), got_scaled = out
        got = [numkit.value_of(got_p[0]), got_pt, h1, numkit.value_of(got_scaled)]
        ok, err = _close(got, [p, p_t, 0.0, c * L1], 1e-12)
        return None, [] if ok else [f"{name}: momenta, h1 or c L1 off closed "
                                    f"form by {err:.3g}"]

    return Op(name, call, check)


def canonical_maps(seed, out_dir):
    rng = random.Random(seed)
    ops = [
        _cli_op("bracket-suite", "bracket-suite", {"count": 200}, seed, out_dir,
                _verdict_only),
        _cli_op("lorentz", "lorentz", {"count": 400}, seed, out_dir,
                _verdict_only),
        _cli_op("ks", "ks", {"count": 5000, "count_symplectic": 200}, seed,
                out_dir, _verdict_only),
        _cli_op("lagrangian-check", "lagrangian-check", {"count": 1500}, seed,
                out_dir, _verdict_only),
    ]
    direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
    speed = rng.uniform(0.2, 0.8) / math.sqrt(sum(d * d for d in direction))
    beta = tuple(speed * d for d in direction)
    F2 = relativity.lorentz_generating(relativity.Boost(beta=beta))
    F3 = transform.legendre_convert(F2, "F3")
    points = [_random_point(rng) for _ in range(BOOST_POINTS)]
    ops += [_boost_op(f"boost-F2[{i}]", F2, beta, pt)
            for i, pt in enumerate(points)]
    ops += [_boost_op(f"boost-F3[{i}]", F3, beta, pt, source=F2)
            for i, pt in enumerate(points[:F3_POINTS])]
    ops += [_bracket_op(f"bracket[{i}]", phase.ExtendedPoint(
                q=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                p=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                t=rng.uniform(-1.0, 1.0), e=rng.uniform(-1.0, 1.0)))
            for i in range(BRACKET_POINTS)]
    ops += [_ks_op(f"ks-map[{i}]", rng) for i in range(KS_POINTS)]
    ops += [_legendre_op(f"legendre[{i}]", rng) for i in range(LEGENDRE_POINTS)]
    return ops


WORKLOADS = {
    "kepler-collision": kepler_collision,
    "td-propagation": td_propagation,
    "canonical-maps": canonical_maps,
}


def write_configs(ops, directory):
    """Write each CLI operation's config as JSON; returns the paths."""
    paths = []
    for i, op in enumerate(ops):
        if op.config is not None:
            path = os.path.join(directory, f"config-{i}.json")
            with open(path, "w") as fh:
                json.dump(op.config, fh)
            paths.append(path)
    return paths
