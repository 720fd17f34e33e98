"""Run one workload of the extphase benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from ./src, never from an
installed copy.  The workload's operations are built from the seed.  With
--trace 0 the set-up interpreters run first; then whole passes over the
operations run until the next pass would end S seconds after the start
(at least MIN_PASSES passes).  Every operation's output is checked against
an independent oracle (see workloads.py and oracles.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median time of one pass (the program's calls only), scaled
               to the machine's speed: a `reference.Sampler` times a short
               reference slice every 40 ms, and each pass's time is
               multiplied by its slices' nominal time over their measured
               time (the slices' own time is not counted in the pass);
  setup_s      median of SETUP_REPEATS fresh interpreters that import
               extphase and validate the workload's configs, each scaled
               by a reference slice timed after it;
  peak_rss_mb  this process's peak resident memory, read before the checks
               that import scipy.
--trace 1 reports the per-layer metrics: untraced and traced passes
alternate, per-layer times are medians over the traced passes, counts must
repeat exactly across them, and the spans of the last traced pass are saved
to .bench_out/trace-<workload>.npz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Each metric is also printed above it as
"name = value unit".
"""

import os

# One thread per process: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402  (bench/ is on sys.path as the script's directory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_REPEATS = 31
SETUP_REF_STEPS = 400  # reference slice after each set-up launch

SETUP_CODE = """\
import json, sys
from extphase import cli
for path in sys.argv[1:]:
    with open(path) as fh:
        _, errors = cli.validate(json.load(fh))
    if errors:
        sys.exit(f"{path}: {errors}")
"""


def measure_setup(config_paths):
    """Median time for a fresh interpreter to import extphase and validate.

    One untimed launch first, so the byte-code cache is written.  A slice of
    `reference.run` is timed after each launch, and the launch's time is
    scaled by the slice's nominal time over its measured time.  (The
    `reference.Sampler` cannot be used here: its slices would run alongside
    the launched interpreter.)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, "-c", SETUP_CODE] + config_paths
    nominal = reference.STEP_S * SETUP_REF_STEPS
    scaled = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        t1 = perf_counter()
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed: {done.stderr.strip()}")
        reference.run(SETUP_REF_STEPS)
        scaled.append((t1 - t0) * nominal / (perf_counter() - t1))
    return statistics.median(scaled[1:])


class Pass:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        self.op_seconds = []
        self.ref_steps = 0  # reference slices taken during the pass
        self.ref_seconds = 0.0
        self.faults = []    # operations that failed
        self.problems = []  # outputs that disagree with an oracle


def pass_time(passes):
    """Median time of a pass."""
    return statistics.median(sum(p.op_seconds) for p in passes)


def scaled_pass_time(passes):
    """Median time of a pass at the reference speed of `reference.STEP_S`.

    Each pass's time is multiplied by the nominal time of the reference
    slices taken during it over their measured time, so host load that
    slows the operations and the slices alike cancels out.
    """
    return statistics.median(
        sum(p.op_seconds) * reference.STEP_S * p.ref_steps / p.ref_seconds
        for p in passes)


def run_pass(ops, late, sampler=None):
    """One pass over ops.  With a sampler running, the reference slices
    taken during an operation are subtracted from its time and counted in
    the pass's ref_steps and ref_seconds."""
    result = Pass()
    if sampler is not None:
        steps0, seconds0 = sampler.steps, sampler.seconds
    for op in ops:
        in_slices = sampler.seconds if sampler is not None else 0.0
        t0 = perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{op.name}: {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if sampler is not None:
            in_slices = sampler.seconds - in_slices
        result.op_seconds.append(t1 - t0 - in_slices)
        fault, problems = error, []
        if error is None:
            try:
                fault, problems = op.check(out, late)
            except Exception as exc:  # e.g. a report metric went missing
                problems = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        if fault:
            result.faults.append(fault)
        result.problems += problems
    if sampler is not None:
        result.ref_steps = sampler.steps - steps0
        result.ref_seconds = sampler.seconds - seconds0
    return result


def run_passes(seconds, step):
    """Call step() until the next call would end after `seconds`."""
    results = []
    t0 = perf_counter()
    last = 0.0
    while len(results) < MIN_PASSES or perf_counter() - t0 + last <= seconds:
        s0 = perf_counter()
        results.append(step())
        last = perf_counter() - s0
    return results


def untraced(ops, args, work):
    import workloads
    t0 = perf_counter()
    setup_s = measure_setup(workloads.write_configs(ops, str(work)))
    late = []
    with reference.Sampler() as sampler:
        passes = run_passes(args.seconds - (perf_counter() - t0),
                            lambda: run_pass(ops, late, sampler))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("operation seconds by pass:", json.dumps(
        [[round(t, 6) for t in p.op_seconds] for p in passes]), file=sys.stderr)
    print("reference steps and seconds by pass:", json.dumps(
        [[p.ref_steps, round(p.ref_seconds, 6)] for p in passes]),
        file=sys.stderr)
    print(f"unscaled median pass: {pass_time(passes):.6g} s", file=sys.stderr)
    metrics = {"wall_s": scaled_pass_time(passes),
               "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    return metrics, passes, late, []


def traced(ops, args, spec):
    from tracing import Tracer, layer_metrics, microbenchmarks

    micro = microbenchmarks()
    late = []
    plain, traced_passes, last = [], [], {}

    def pair():
        plain.append(run_pass(ops, late))
        tracer = Tracer()
        restore = tracer.install()
        try:
            traced_passes.append(run_pass(ops, late))
        finally:
            restore()
        last["tracer"] = tracer  # only the last traced pass's spans are kept
        return layer_metrics(tracer)

    per_pass = run_passes(args.seconds, pair)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics, problems = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units.get(name) in ("s", "us"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"count {name} differs between traced passes: "
                                f"{values}")
    metrics.update(micro)
    metrics["trace.overhead_s"] = pass_time(traced_passes) - pass_time(plain)
    last["tracer"].write(str(OUT / f"trace-{args.workload}.npz"),
                      {"workload": args.workload, "seed": args.seed})
    return metrics, plain + traced_passes, late, problems


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "extphase" / "__init__.py").is_file():
        print(f"run.py: no extphase package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, str(work))
        if args.trace:
            metrics, passes, late, problems = traced(ops, args, spec)
        else:
            metrics, passes, late, problems = untraced(ops, args, work)
        for check in late:
            problems += check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in passes:
        problems += p.problems
    for text in sorted({f for p in passes for f in p.faults}):
        print(f"failed: {text}", file=sys.stderr)
    for text in sorted(set(problems)):
        print(f"wrong: {text}", file=sys.stderr)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    out = {}
    for m in declared:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems,
                      "attempted": len(ops) * len(passes),
                      "failed": sum(len(p.faults) for p in passes),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
