"""Spans and counts recorded from outside the program, and layer microbenchmarks.

`Tracer.install` replaces the public functions named in `TARGETS` by
wrappers in every loaded `extphase` module that binds them, and puts the
originals back on exit.  The wrapper around `numkit.integrate` also wraps the
right-hand-side callable it is given, so every RHS evaluation is a span.

Spans live in four flat arrays (name id, parent index, start, end) plus a
flag for a span nested inside another of the same name, so a traced pass of
several hundred thousand spans stays a few megabytes.  `write` saves them
when the run ends.  A span's self time is its duration minus the durations
of its direct children; the inclusive time of a layer (`.s`) counts only
spans not nested inside a span of the same name, so recursion (a Newton solve
inside a Newton solve) is not counted twice.
"""

import json
import os
import sys
import timeit
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from extphase import numkit, phase, relativity, transform
from extphase.errors import IntegrationStallError

# (owner, attribute, span name); owner is a module or a class
TARGETS = [
    ("extphase.numkit", "grad_raw", "numkit.grad_raw"),
    ("extphase.numkit", "jacobian_raw", "numkit.jacobian_raw"),
    ("extphase.numkit", "newton_solve", "numkit.newton_solve"),
    ("extphase.numkit", "quad_fixed", "numkit.quad_fixed"),
    ("extphase.phase", "extended_rhs", "phase.extended_rhs"),
    ("extphase.phase", "poisson_extended", "phase.poisson_extended"),
    ("extphase.phase", "map_jacobian", "phase.map_jacobian"),
    ("extphase.transform", "apply_generating", "transform.apply_generating"),
    ("extphase.transform", "restriction_report", "transform.restriction_report"),
    ("extphase.tdsystems:OscillatorSpec", "coefficients", "tdsystems.coefficients"),
    ("extphase.tdsystems", "xi_general_rhs", "tdsystems.xi_general_rhs"),
    ("extphase.tdsystems", "leach_invariant", "tdsystems.leach_invariant"),
    ("extphase.celestial", "kepler_direct", "celestial.kepler_direct"),
    ("extphase.celestial", "kepler_regularized", "celestial.kepler_regularized"),
    ("extphase.celestial", "ks_symplectic_residual", "celestial.ks_symplectic_residual"),
    ("extphase.lagrangian", "euler_lagrange_residual", "lagrangian.euler_lagrange_residual"),
    ("extphase.lagrangian", "legendre_to_h1", "lagrangian.legendre_to_h1"),
    ("extphase.cli", "validate", "cli.validate"),
]


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """fn inside a span whose parent is the innermost open span (-1 if none)."""
        nid = self._id(name)
        depth = [0]
        name_id, parent, nested = self.name_id, self.parent, self.nested
        start, end, stack = self.start, self.end, self.stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            nested.append(depth[0] > 0)
            end.append(0.0)
            stack.append(idx)
            depth[0] += 1
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                depth[0] -= 1
                stack.pop()

        return wrapper

    # -- special wrappers -----------------------------------------------------

    def _wrap_integrate(self, fn):
        span = self.wrap("numkit.integrate", fn)
        counts = self.counts

        def integrate(rhs, *args, **kwargs):
            try:
                traj = span(self.wrap("numkit.rhs", rhs), *args, **kwargs)
            except IntegrationStallError:
                counts["numkit.integrate.stalls"] += 1
                raise
            counts["numkit.integrate.samples"] += len(traj.s)
            return traj

        return integrate

    def _wrap_run(self, fn):
        spans = {}

        def run(config, *args, **kwargs):
            name = f"cli.run.{config.scenario}"
            if name not in spans:
                spans[name] = self.wrap(name, fn)
            return spans[name](config, *args, **kwargs)

        return run

    def _wrap_write(self, fn):
        span = self.wrap("cli.write", fn)
        counts = self.counts

        def write(path, *args, **kwargs):
            out = span(path, *args, **kwargs)
            counts["cli.write.bytes"] += os.path.getsize(path)
            return out

        return write

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every target; returns a callable that restores the originals."""
        targets = [(owner, attr, lambda fn, name=name: self.wrap(name, fn))
                   for owner, attr, name in TARGETS]
        targets += [("extphase.numkit", "integrate", self._wrap_integrate),
                    ("extphase.cli", "run", self._wrap_run),
                    # private, but the only place the CLI's writes pass through
                    ("extphase.cli", "_atomic_write", self._wrap_write)]
        undo = []
        modules = [m for name, m in sys.modules.items()
                   if name == "extphase" or name.startswith("extphase.")]
        for owner, attr, make in targets:
            module_name, _, cls = owner.partition(":")
            host = sys.modules[module_name]
            if cls:
                host = getattr(host, cls)
            orig = host.__dict__.get(attr)
            if orig is None:
                print(f"trace: {owner}.{attr} not found; its metrics read 0",
                      file=sys.stderr)
                continue
            wrapped = make(orig)
            hosts = [host] if cls else [m for m in modules
                                        if m.__dict__.get(attr) is orig]
            for h in hosts:
                setattr(h, attr, wrapped)
                undo.append((h, attr, orig))

        def restore():
            for h, a, orig in reversed(undo):
                setattr(h, a, orig)

        return restore

    # -- results --------------------------------------------------------------

    def aggregate(self):
        """Per span name: (calls, inclusive s of outermost spans, self s)."""
        n = len(self.start)
        start, end = np.array(self.start), np.array(self.end)
        ids, parent = np.array(self.name_id), np.array(self.parent)
        nested = np.array(self.nested).astype(bool)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids[~nested], weights=dur[~nested], minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        out = {name: (int(calls[i]), float(incl[i]), float(own[i]))
               for i, name in enumerate(self.names)}
        # direct children of each name, for ratios such as Jacobians per solve
        pairs = Counter(zip(ids[parent[has_parent]].tolist(),
                            ids[has_parent].tolist()))
        children = {(self.names[a], self.names[b]): c for (a, b), c in pairs.items()}
        return out, children

    def write(self, path, meta):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id), parent=np.array(self.parent),
                 nested=np.array(self.nested), start=np.array(self.start),
                 end=np.array(self.end),
                 meta=np.array(json.dumps(meta)))


SCENARIOS = ("bracket-suite", "kepler-direct", "kepler-regularized", "ks",
             "lagrangian-check", "lorentz", "oscillator", "potential")


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, keyed by metric name."""
    agg, children = tracer.aggregate()

    def get(name):
        return agg.get(name, (0, 0.0, 0.0))

    m = {}
    calls, _, own = get("numkit.integrate")
    samples = tracer.counts["numkit.integrate.samples"]
    m["numkit.integrate.calls"] = calls
    m["numkit.integrate.self_s"] = own
    m["numkit.integrate.samples"] = samples
    m["numkit.integrate.stalls"] = tracer.counts["numkit.integrate.stalls"]
    evals, rhs_s, _ = get("numkit.rhs")
    m["numkit.rhs.evals"] = evals
    m["numkit.rhs.s"] = rhs_s
    m["numkit.rhs.evals_per_sample"] = evals / samples if samples else 0.0
    for name in ("numkit.grad_raw", "numkit.jacobian_raw"):
        calls, _, own = get(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = own
    solves, solve_s, _ = get("numkit.newton_solve")
    m["numkit.newton_solve.calls"] = solves
    m["numkit.newton_solve.s"] = solve_s
    jac = children.get(("numkit.newton_solve", "numkit.jacobian_raw"), 0)
    m["numkit.newton_solve.jacobians_per_solve"] = jac / solves if solves else 0.0
    for name in ("numkit.quad_fixed", "phase.extended_rhs",
                 "phase.poisson_extended", "phase.map_jacobian",
                 "transform.apply_generating", "tdsystems.coefficients",
                 "tdsystems.xi_general_rhs", "tdsystems.leach_invariant"):
        calls, incl, _ = get(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = incl
    for name in ("transform.restriction_report", "celestial.kepler_direct",
                 "celestial.kepler_regularized",
                 "celestial.ks_symplectic_residual",
                 "lagrangian.euler_lagrange_residual", "cli.validate"):
        m[f"{name}.s"] = get(name)[1]
    m["lagrangian.legendre_to_h1.calls"] = get("lagrangian.legendre_to_h1")[0]
    for scenario in SCENARIOS:
        m[f"cli.run.{scenario}.s"] = get(f"cli.run.{scenario}")[1]
    m["cli.write.s"] = get("cli.write")[1]
    m["cli.write.bytes"] = tracer.counts["cli.write.bytes"]
    m["trace.spans"] = len(tracer.start)
    return m


# ---------------------------------------------------------------------------
# microbenchmarks: minimum over repeats of the mean time per call, in us
# ---------------------------------------------------------------------------


def _min_us(fn, number, repeat=7):
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def microbenchmarks():
    tag = 10 ** 9  # one seeding generation shared by both operands
    a = numkit.Dual(1.1, (1.0, 0.0, 0.0), tag)
    b = numkit.Dual(0.7, (0.0, 1.0, 0.0), tag)

    def H(q, p, t):
        return 0.5 * p[0] * p[0] + 0.5 * q[0] * q[0]

    def f3(x):  # H over (q, p, t): three seeds
        return H(x[:1], x[1:2], x[2])

    sys1 = phase.HamiltonianSystem(n=1, H=H)
    pt = phase.ExtendedPoint(q=(0.8,), p=(0.3,), t=0.2, e=0.365)

    def rhs(s, y):  # trivial numpy right-hand side
        return -y

    steps = 200
    opts = numkit.IntegratorOptions(rel_tol=1e-6, abs_tol=1e-6, max_step=0.05)
    taken = len(numkit.integrate(rhs, [1.0, 0.0], 0.0, 0.05 * steps, opts)) - 1

    def newton():
        return numkit.newton_solve(
            lambda u: [u[0] * u[0] + u[1] * u[1] - 2.0, u[0] - u[1]],
            [1.5, 0.5])

    F = relativity.lorentz_generating(relativity.Boost(beta=(0.6, 0.0, 0.0)))
    boost_pt = phase.ExtendedPoint(q=(0.3, -0.2, 0.5), p=(0.1, 0.4, -0.3),
                                   t=0.25, e=1.2)
    return {
        "numkit.dual_mul_us": _min_us(lambda: a * b, 20000),
        "numkit.grad_raw_us": _min_us(lambda: numkit.grad_raw(f3, [0.8, 0.3, 0.2]),
                                      5000),
        "phase.extended_rhs_us": _min_us(
            lambda: phase.extended_rhs(pt, 1.0, sys1), 3000),
        "numkit.dp5_step_us": _min_us(
            lambda: numkit.integrate(rhs, [1.0, 0.0], 0.0, 0.05 * steps, opts),
            5) / taken,
        "numkit.newton_solve_us": _min_us(newton, 500),
        "transform.apply_generating_us": _min_us(
            lambda: transform.apply_generating(F, boost_pt), 50),
    }

