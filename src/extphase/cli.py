"""Scenario runner: configure, execute, and report the named experiments.

Usage:
    extphase run <config.json> [--out DIR] [--seed N]
    extphase validate <config.json>
    extphase list

Configs are flat JSON; outputs are CSV trajectories plus a report.json whose
metrics use the fixed names documented per scenario.  Identical config and
seed produce byte-identical outputs.  Exit codes: 0 pass, 1 numeric failure,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import celestial, lagrangian, phase, relativity, tdsystems, transform
from .errors import ExtphaseError, IntegrationStallError
from .numkit import MAX_STEPS, IntegratorOptions, Trajectory, sin, value_of

PROG = "extphase"

# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

_TOLERANCE_KEYS = ("rel_tol", "abs_tol", "max_step", "min_step")


def _number(x):
    """A finite number; json.loads also turns Infinity and NaN into floats."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


# Upper bounds that limit the work of a run: it takes at least
# horizon / max_step steps, and n and the probe counts multiply the work.
MAX_HORIZON, MAX_COUNT, MAX_DIMENSION = 1e4, 10 ** 5, 100


def _horizon(v):
    return _number(v) and 0 < v <= MAX_HORIZON


def _count(v, limit=MAX_COUNT):
    return isinstance(v, int) and not isinstance(v, bool) and 0 < v <= limit


def _number_list(n):
    def check(x):
        return (isinstance(x, list) and len(x) == n
                and all(_number(v) for v in x))
    return check


# per-scenario parameter schemas: name -> (default, validator, description)
SCHEMAS = {
    "lorentz": {
        "beta_x": (0.6, lambda v: _number(v), "x component of v/c"),
        "beta_y": (0.0, lambda v: _number(v), "y component of v/c"),
        "beta_z": (0.0, lambda v: _number(v), "z component of v/c"),
        "c": (1.0, lambda v: _number(v) and v > 0, "speed of light"),
        "count": (10, _count, "number of random probe points"),
    },
    "kepler-direct": {
        "K2": (1.0, lambda v: _number(v) and v > 0, "gravitational parameter"),
        "x0": (1.0, lambda v: _number(v) and v > 0, "initial separation"),
        "p0": (0.0, _number, "initial momentum"),
        "t_end": (3.0, _horizon, "physical-time horizon"),
    },
    "kepler-regularized": {
        "K2": (1.0, lambda v: _number(v) and v > 0, "gravitational parameter"),
        "x0": (2.0, lambda v: _number(v) and v > 0, "initial separation"),
        "p0": (0.0, _number, "initial momentum"),
        "tprime_end": (2.0 * math.pi, _horizon, "fictitious-time horizon"),
    },
    "ks": {
        "count": (100, _count, "random points for the radial identity"),
        "count_symplectic": (5, _count,
                             "random points for the canonicity check"),
    },
    "oscillator": {
        "n": (2, lambda v: _count(v, MAX_DIMENSION), "dimension"),
        "eps": (0.1, _number, "frequency modulation: omega^2 = 1 + eps sin t"),
        "f": (0.05, _number, "constant damping coefficient (F = f t)"),
        "t_end": (50.0, _horizon, "time horizon"),
        "q0": (None, None, "initial coordinates (list, length n)"),
        "p0": (None, None, "initial momenta (list, length n)"),
    },
    "potential": {
        "n": (1, lambda v: _count(v, MAX_DIMENSION), "dimension"),
        "eps": (0.1, _number, "potential modulation: V = (1+eps sin t) q^2/2"),
        "t_end": (30.0, _horizon, "time horizon"),
        "q0": (None, None, "initial coordinates (list, length n)"),
        "p0": (None, None, "initial momenta (list, length n)"),
    },
    "lagrangian-check": {
        "count": (25, _count, "random probe points"),
    },
    "bracket-suite": {
        "count": (100, _count, "random points per dimension n = 1, 2, 3"),
    },
}


@dataclass
class ScenarioConfig:
    scenario: str
    params: dict
    output_dir: str = "."
    tolerances: IntegratorOptions = field(default_factory=IntegratorOptions)
    seed: int = 0


@dataclass
class RunReport:
    scenario: str
    passed: bool
    metrics: dict
    artifacts: list

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "pass": self.passed,
            "metrics": self.metrics,
            "artifacts": self.artifacts,
        }


def validate(obj):
    """Validate a parsed config object; returns (ScenarioConfig or None, errors).

    All violations are collected, not just the first; unknown keys are
    rejected by name.
    """
    errors = []
    if not isinstance(obj, dict):
        return None, ["config must be a JSON object"]
    known_top = {"scenario", "params", "output_dir", "tolerances", "seed"}
    for key in obj:
        if key not in known_top:
            errors.append(f"unknown key {key!r}")
    scenario = obj.get("scenario")
    if scenario is None:
        errors.append("missing required key 'scenario'")
    elif scenario not in SCHEMAS:
        errors.append(f"unknown scenario {scenario!r}; choose from "
                      + ", ".join(sorted(SCHEMAS)))
    params = obj.get("params", {})
    if not isinstance(params, dict):
        errors.append("'params' must be an object")
        params = {}
    filled = {}
    if scenario in SCHEMAS:
        schema = SCHEMAS[scenario]
        for key in params:
            if key not in schema:
                errors.append(f"unknown key {key!r} for scenario {scenario!r}")
        for name, (default, check, _) in schema.items():
            if name in params:
                v = params[name]
                if check is not None and not check(v):
                    errors.append(f"invalid value for {name!r}: {v!r}")
                filled[name] = v
            else:
                filled[name] = default
        if scenario == "lorentz" and not errors:
            b2 = filled["beta_x"] ** 2 + filled["beta_y"] ** 2 \
                + filled["beta_z"] ** 2
            if b2 >= 1.0:
                errors.append("beta must satisfy |beta| < 1")
        for vec_key in ("q0", "p0"):
            if scenario in ("oscillator", "potential") and filled.get(vec_key) \
                    is not None:
                if not _number_list(filled["n"])(filled[vec_key]):
                    errors.append(
                        f"{vec_key!r} must be a list of {filled['n']} numbers")
    tol = obj.get("tolerances", {})
    opts = IntegratorOptions()
    if not isinstance(tol, dict):
        errors.append("'tolerances' must be an object")
    else:
        for key in tol:
            if key not in _TOLERANCE_KEYS:
                errors.append(f"unknown key {key!r} in 'tolerances'")
        kwargs = {k: tol[k] for k in _TOLERANCE_KEYS if k in tol}
        if all(_number(v) for v in kwargs.values()):
            try:
                opts = IntegratorOptions(**kwargs)
            except ValueError as exc:
                errors.append(f"invalid tolerances: {exc}")
        else:
            errors.append("tolerance overrides must be numbers")
    for key in ("t_end", "tprime_end"):
        v = filled.get(key)
        if _horizon(v) and v / opts.max_step > MAX_STEPS:
            errors.append(f"{key!r} / max_step = {v / opts.max_step:.3g} "
                          f"exceeds the step budget of {MAX_STEPS} steps")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append("'seed' must be an integer")
        seed = 0
    output_dir = obj.get("output_dir", ".")
    if not isinstance(output_dir, str):
        errors.append("'output_dir' must be a string")
        output_dir = "."
    if errors:
        return None, errors
    return ScenarioConfig(scenario=scenario, params=filled,
                          output_dir=output_dir, tolerances=opts,
                          seed=seed), []


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario runners: params, rng, opts -> (metrics, passed, tables)
#   tables: list of (filename, header, rows)
# ---------------------------------------------------------------------------


def _run_bracket_suite(params, rng, opts):
    # extended brackets of the coordinate functions do not depend on H, so
    # the suite probes each dimension once
    worst = 0.0
    for n in (1, 2, 3):
        J = phase.symplectic_matrix(n)
        m = 2 * n + 2
        coords = []
        for i in range(n):
            coords.append(lambda q, p, t, e, i=i: q[i])
        coords.append(lambda q, p, t, e: t)
        for i in range(n):
            coords.append(lambda q, p, t, e, i=i: p[i])
        coords.append(lambda q, p, t, e: -e)
        for _ in range(params["count"]):
            pt = phase.ExtendedPoint(
                q=tuple(rng.uniform(0.5, 1.5) for _ in range(n)),
                p=tuple(rng.uniform(-1.0, 1.0) for _ in range(n)),
                t=rng.uniform(-1.0, 1.0), e=rng.uniform(-1.0, 1.0))
            brackets = phase.poisson_matrix(coords, pt)
            for a in range(m):
                for b in range(m):
                    val = value_of(brackets[a][b])
                    worst = max(worst, abs(val - J[a, b]))
    metrics = {"bracket_max_error": worst}
    return metrics, worst <= 1e-12, []


def _run_lorentz(params, rng, opts):
    b = relativity.Boost(beta=(params["beta_x"], params["beta_y"],
                               params["beta_z"]), c=params["c"])
    F = relativity.lorentz_generating(b)
    HL = relativity.lorentz_invariant_hamiltonian(
        relativity.EmField.free(m=1.0), c=b.c).solved
    mapped = lambda pt: transform.apply_generating(F, pt)

    h1_max = 0.0
    probes = []
    for _ in range(params["count"]):
        q = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        p = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        t = rng.uniform(-1.0, 1.0)
        pt = phase.lift(q, p, t, HL)
        probes.append(pt)
        img = mapped(pt)
        ev0 = value_of(phase.extended_value(pt, 1.0, HL))
        ev1 = value_of(phase.extended_value(img, 1.0, HL))
        h1_max = max(h1_max, abs(ev1 - ev0))
    # the map is linear, so one Jacobian certifies it everywhere
    sym_max = phase.symplectic_residual(mapped, probes[0])

    b2 = relativity.Boost(beta=(0.3, 0.0, 0.0), c=b.c)
    bx = params["beta_x"]
    b12 = relativity.Boost(beta=((bx + 0.3) / (1.0 + 0.3 * bx), 0.0, 0.0),
                           c=b.c)
    vel_err = float(np.max(np.abs(
        relativity.boost_matrix(relativity.Boost(beta=(bx, 0.0, 0.0), c=b.c))
        @ relativity.boost_matrix(b2) - relativity.boost_matrix(b12))))

    report = transform.restriction_report(F, probes[0])
    metrics = {
        "gamma": b.gamma,
        "symplectic_residual_max": sym_max,
        "h1_invariance_max": h1_max,
        "velocity_addition_error": vel_err,
        "time_global": 1.0 if report.time_global else 0.0,
        "liouville_det_error": abs(report.liouville_det - 1.0),
    }
    beta_nonzero = b.beta2 > 0
    passed = (sym_max <= 1e-12 and h1_max <= 1e-10 and vel_err <= 1e-12
              and metrics["liouville_det_error"] <= 1e-10
              and (report.time_global is (not beta_nonzero)))
    return metrics, passed, []


def _run_kepler_direct(params, rng, opts):
    spec = celestial.KeplerSpec(K2=params["K2"], x0=params["x0"],
                                p0=params["p0"])
    stalled, stall_time = 0.0, math.nan
    try:
        traj = celestial.kepler_direct(spec, (0.0, params["t_end"]), opts)
    except IntegrationStallError as exc:
        stalled = 1.0
        stall_time = exc.s_last
        traj = exc.trajectory
    rows = np.column_stack((traj.s, traj.states))
    if stalled:
        # keep the clean part, short of the steps that shrink into the stall
        rows = rows[traj.s <= 0.98 * stall_time]
    mask = rows[:, 1] > 0.05
    drift = float(np.max(np.abs(rows[mask, 3] - spec.energy))) \
        if np.any(mask) else 0.0
    metrics = {"energy_drift_max": drift, "stalled": stalled,
               "stall_time": stall_time}
    return metrics, drift <= 1e-9, [
        ("kepler_direct.csv", ("t", "x", "p", "e"), rows)]


def _run_kepler_regularized(params, rng, opts):
    spec = celestial.KeplerSpec(K2=params["K2"], x0=params["x0"],
                                p0=params["p0"])
    traj = celestial.kepler_regularized(spec, (0.0, params["tprime_end"]),
                                        opts)
    x = traj.column("x")
    v = traj.column("dxdt")
    ident = np.abs(v ** 2 - 2.0 * spec.energy * x ** 2 - 2.0 * spec.K2 * x)
    # every minimum of x is a bounce at x = 0: v^2 = 2 x (e x + K^2) vanishes
    # only there and at the maximum
    collisions = int(np.sum((v[:-1] < 0) & (v[1:] >= 0)))
    rows = np.column_stack((traj.s, traj.states))
    metrics = {"energy_identity_max": float(np.max(ident)),
               "collision_count": float(collisions),
               "x_min": float(np.min(x))}
    return metrics, metrics["energy_identity_max"] <= 1e-8, [
        ("kepler_regularized.csv", ("t'", "x", "dxdt'", "t", "e"), rows)]


def _run_ks(params, rng, opts):
    radial_max = 0.0
    bilinear_max = 0.0
    for _ in range(params["count"]):
        u = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
        p3 = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        L = celestial._ks_L(u)
        pu = tuple(sum(L[r][c] * p3[c] for c in range(3)) for r in range(4))
        q, _ = celestial.ks_map(u, pu)
        r = math.sqrt(sum(value_of(x) ** 2 for x in q[:3]))
        u2 = sum(x * x for x in u)
        radial_max = max(radial_max, abs(r - u2))
        bilinear_max = max(bilinear_max,
                           abs(value_of(celestial.ks_bilinear(u, pu))))
    sym_max = 0.0
    for _ in range(params["count_symplectic"]):
        u = tuple(rng.uniform(0.3, 1.0) for _ in range(4))
        p3 = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        L = celestial._ks_L(u)
        pu = tuple(sum(L[r][c] * p3[c] for c in range(3)) for r in range(4))
        sym_max = max(sym_max, celestial.ks_symplectic_residual(u, pu))
    metrics = {"radial_identity_max": radial_max,
               "bilinear_constraint_max": bilinear_max,
               "symplectic_residual_max": sym_max}
    passed = (radial_max <= 1e-12 and bilinear_max <= 1e-12
              and sym_max <= 1e-10)
    return metrics, passed, []


def _run_oscillator(params, rng, opts):
    n = params["n"]
    eps = params["eps"]
    fc = params["f"]
    spec = tdsystems.OscillatorSpec(
        n=n, omega2=lambda t: 1.0 + eps * sin(t), F=lambda t: fc * t)
    q0 = params["q0"] if params["q0"] is not None \
        else [1.0 if i == 0 else 0.0 for i in range(n)]
    p0 = params["p0"] if params["p0"] is not None \
        else [0.0 if i == 0 else 1.0 for i in range(n)]
    xi0 = tdsystems.XiState(xi=1.0, xidot=0.0, xiddot=0.0)
    traj = tdsystems.oscillator_coupled_run(spec, q0, p0, xi0,
                                            (0.0, params["t_end"]), opts)
    leach0 = None
    drift = 0.0
    ang_drift = 0.0
    pos_max = 0.0
    I0 = tdsystems.angular_invariants(q0, p0)
    stride = max(1, len(traj.s) // 200)
    for k in range(0, len(traj.s), stride):
        t = float(traj.s[k])
        y = traj.states[k]
        q, p = tuple(y[:n]), tuple(y[n:2 * n])
        e = y[2 * n]
        xs = tdsystems.XiState(xi=y[2 * n + 1], xidot=y[2 * n + 2],
                               xiddot=y[2 * n + 3])
        c = spec.coefficients(t)
        lv = value_of(tdsystems.leach_invariant(c, (q, p, t, e), xs))
        if leach0 is None:
            leach0 = lv
        drift = max(drift, abs(lv - leach0))
        if n >= 2:
            ang_drift = max(ang_drift, float(np.max(np.abs(
                tdsystems.angular_invariants(q, p) - I0))))
        pos_max = max(pos_max, tdsystems.xi_positivity_residual(
            c, (q, p, t, e), xs))
    rows = np.column_stack((traj.s, traj.states))
    header = ("t",) + traj.labels
    metrics = {"max_invariant_drift": drift,
               "angular_invariant_drift_max": ang_drift,
               "positivity_residual_max": pos_max}
    passed = drift <= 1e-8 and ang_drift <= 1e-8 and pos_max <= 1e-10
    return metrics, passed, [("oscillator.csv", header, rows)]


def _run_potential(params, rng, opts):
    n = params["n"]
    eps = params["eps"]
    spec = tdsystems.PotentialSpec(
        n, lambda q, t: 0.5 * (1.0 + eps * sin(t))
        * sum(x * x for x in q))
    q0 = params["q0"] if params["q0"] is not None else [1.0] * n
    p0 = params["p0"] if params["p0"] is not None else [0.5] * n
    traj, Xi = tdsystems.transfer_matrix(spec, q0, p0,
                                         (0.0, params["t_end"]), opts)
    triple0 = tdsystems.invariant_triple(q0, p0, traj.states[0, 2 * n])
    triples = np.array([tdsystems.invariant_triple(y[:n], y[n:2 * n], y[2 * n])
                        for y in traj.states])
    dets = np.linalg.det(Xi)
    backs = (triples[:, None, :] @ Xi)[:, 0]  # row k: Xi_k^T triple_k
    det_err = float(np.max(np.abs(dets - 1.0)))
    inv_err = float(np.max(np.abs(backs - triple0)))
    # columns t, q, p, e, then the first Xi row, det and the mapped triple
    rows = np.column_stack((traj.s, traj.states[:, :2 * n + 4], dets, backs))
    header = ("t",) + traj.labels[:2 * n + 1] \
        + ("xi1", "xi2", "xi3", "detXi", "inv1", "inv2", "inv3")
    metrics = {"det_xi_error": det_err, "invariant_triple_error_max": inv_err}
    passed = det_err <= 1e-8 and inv_err <= 1e-8
    return metrics, passed, [("potential.csv", header, rows)]


def _sample_lagrangian_trajectory(time_map, dtime_map):
    """Exact oscillator orbit q = cos(t(s)) tabulated with exact derivatives
    at 6001 points of s in [0, 3]."""
    ss = np.linspace(0.0, 3.0, 6001)
    ts = np.array([time_map(s) for s in ss])
    dts = np.array([dtime_map(s) for s in ss])
    states = np.column_stack([np.cos(ts), ts])
    derivs = np.column_stack([-np.sin(ts) * dts, dts])
    return Trajectory(s=ss, states=states, labels=("q1", "t"), derivs=derivs)


def _run_lagrangian_check(params, rng, opts):
    sys = lagrangian.LagrangianSystem(
        n=1, L=lambda q, qd, t: 0.5 * qd[0] ** 2 - 0.5 * q[0] ** 2)
    hom_max = 0.0
    euler_max = 0.0
    legendre_max = 0.0
    paired = lagrangian.paired_hamiltonian(sys)
    for _ in range(params["count"]):
        pt = lagrangian.ExtendedVelocityPoint(
            q1=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            v1=(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5)))
        c = rng.uniform(0.2, 3.0)
        sr, er = lagrangian.homogeneity_residual(sys, pt, c)
        hom_max = max(hom_max, sr)
        euler_max = max(euler_max, er)
        # h1 = sum p v - L1 against H1 = k (H - e) at e = -p_{n+1}
        p, p_np1, h1 = lagrangian.legendre_to_h1(sys, pt)
        H1 = value_of(phase.extended_value(
            phase.ExtendedPoint(q=pt.q1[:1], p=p, t=pt.q1[1], e=-p_np1),
            pt.v1[1], paired))
        legendre_max = max(legendre_max, abs(h1 - H1))
    reparams = [
        (lambda s: s, lambda s: 1.0),
        (lambda s: s ** 3 / 9.0 + 0.1 * s, lambda s: s * s / 3.0 + 0.1),
        (lambda s: math.sinh(s) / 3.0, lambda s: math.cosh(s) / 3.0),
    ]
    el_max = 0.0
    for tm, dtm in reparams:
        traj = _sample_lagrangian_trajectory(tm, dtm)
        ext, _ = lagrangian.euler_lagrange_residual(sys, traj)
        el_max = max(el_max, ext)
    # deliberate non-solution: q(s) = s with t(s) = s
    ss = np.linspace(0.0, 3.0, 601)
    bad = Trajectory(s=ss, states=np.column_stack([ss, ss]),
                     labels=("q1", "t"),
                     derivs=np.column_stack([np.ones_like(ss),
                                             np.ones_like(ss)]))
    _, bad_res = lagrangian.euler_lagrange_residual(sys, bad)
    metrics = {"homogeneity_residual_max": hom_max,
               "euler_identity_residual_max": euler_max,
               "legendre_agreement_max": legendre_max,
               "el_residual_max": el_max,
               "nonsolution_residual_min": bad_res}
    passed = (hom_max <= 1e-12 and euler_max <= 1e-12
              and legendre_max <= 1e-12 and el_max <= 1e-6
              and bad_res > 0.1)
    return metrics, passed, []


RUNNERS = {
    "bracket-suite": _run_bracket_suite,
    "lorentz": _run_lorentz,
    "kepler-direct": _run_kepler_direct,
    "kepler-regularized": _run_kepler_regularized,
    "ks": _run_ks,
    "oscillator": _run_oscillator,
    "potential": _run_potential,
    "lagrangian-check": _run_lagrangian_check,
}


def run(config: ScenarioConfig) -> RunReport:
    """Execute a validated config; writes CSVs and report.json to output_dir."""
    rng = random.Random(config.seed)
    runner = RUNNERS[config.scenario]
    artifacts = []
    try:
        metrics, passed, tables = runner(config.params, rng,
                                         config.tolerances)
        error = None
    except ExtphaseError as exc:
        metrics, passed, tables = {"runner_failed": 1.0}, False, []
        error = f"{type(exc).__name__}: {exc}"
    for filename, header, rows in tables:
        path = os.path.join(config.output_dir, filename)
        _atomic_write(path, _csv_text(header, rows))
        artifacts.append(filename)
    report = RunReport(scenario=config.scenario, passed=passed,
                       metrics=metrics, artifacts=artifacts)
    payload = report.to_dict()
    if error is not None:
        payload["error"] = error
    report_path = os.path.join(config.output_dir, "report.json")
    _atomic_write(report_path,
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report.artifacts.append("report.json")
    return report


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        return None, [f"cannot read config: {exc}"]
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"JSON parse error at line {exc.lineno}, "
                      f"column {exc.colno}: {exc.msg}"]
    return obj, []


def _cmd_run(args):
    obj, errors = _load_config(args.config)
    if not errors:
        config, errors = validate(obj)
    if errors:
        for e in errors:
            print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2
    if args.out is not None:
        config.output_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    report = run(config)
    for name in sorted(report.metrics):
        print(f"{name} = {report.metrics[name]:.6g}")
    print(f"{report.scenario}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_validate(args):
    obj, errors = _load_config(args.config)
    if not errors:
        config, errors = validate(obj)
    if errors:
        for e in errors:
            print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"scenario": config.scenario, "params": config.params,
                      "seed": config.seed,
                      "output_dir": config.output_dir},
                     indent=2, sort_keys=True))
    return 0


def _cmd_list(args):
    for scenario in sorted(SCHEMAS):
        print(scenario)
        for name, (default, _, doc) in SCHEMAS[scenario].items():
            print(f"  {name}: {doc} (default {default!r})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog=PROG, description="extended-phase-space scenario runner")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    sub.add_parser("list", help="print scenario schemas")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "list":
        return _cmd_list(args)
    parser.print_help(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
