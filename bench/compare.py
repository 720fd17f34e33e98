"""Run sets of benchmark runs and compare them metric by metric.

    python3 bench/compare.py [--runs 10] [--baseline DIR]

Without --baseline, one set of runs of this checkout is made and each
end-to-end metric's median, quartiles and spread (interquartile distance as
a share of the median) are printed.  With --baseline DIR (another checkout,
for example the parent commit unpacked by `git archive`; `.` compares this
checkout with itself), two sets are made, alternating which runs first for
each seed, and the second set's median is compared with the baseline's
against the bound in BENCHMARK.json.  Every workload of BENCHMARK.json is
run for its run_seconds; run i of a set uses seed i (1, 2, ...).  Runs go
one at a time; every result line is appended to .bench_out/compare.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    sets = {"this": ROOT}
    if args.baseline is not None:
        sets = {"base": Path(args.baseline).resolve(), "this": ROOT}
    log = ROOT / ".bench_out" / "compare.jsonl"
    log.parent.mkdir(exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]]
    results = {}  # (set, workload) -> list of result objects
    for workload in workloads:
        for i in range(args.runs):
            seed = i + 1
            order = list(sets) if i % 2 == 0 else list(sets)[::-1]
            for name in order:
                res = one_run(sets[name], workload, seed, spec["run_seconds"])
                results.setdefault((name, workload), []).append(res)
                with open(log, "a") as fh:
                    fh.write(json.dumps({"set": name, "checkout": str(sets[name]),
                                         "workload": workload, "seed": seed,
                                         **res}) + "\n")
                print(f"{name} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                    file=sys.stderr)

    worse = False
    for workload in workloads:
        print(f"\n{workload}")
        for name in sets:
            rs = results[(name, workload)]
            attempted = sum(r["attempted"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            print(f"  {name}: {len(rs)} runs, all correct: "
                  f"{all(r['correct'] for r in rs)}, failed {failed}/{attempted}"
                  f" = {failed / attempted:.6f}")
        for m in spec["end_to_end"]:
            line = f"  {m['name']:<12} {m['unit']:<3}"
            meds = {}
            for name in sets:
                values = [r["metrics"][m["name"]]["value"]
                          for r in results[(name, workload)]]
                med, q1, q3, spread = summary(values)
                meds[name] = med
                flag = "" if spread <= m["bound"] else " (spread over bound)"
                line += (f"  {name} median {med:.4g} [{q1:.4g}, {q3:.4g}]"
                         f" spread {spread:.3f}{flag}")
            if len(sets) == 2:
                change = meds["this"] / meds["base"] - 1.0
                if m["better"] == "higher":
                    change = -change
                verdict = "WORSE" if change > m["bound"] else "ok"
                worse |= verdict == "WORSE"
                line += f"  worse by {change:+.3f} (bound {m['bound']}) {verdict}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
