#!/usr/bin/env python3
"""Runs wfbench workloads repeatedly and prints the spread of every metric.

For each workload the benchmark runs once per seed (seeds start..start+runs-1),
and for every metric this prints the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them), min/max, and the
quartile spread as a share of the median -- the figure a metric's bound in
BENCHMARK.json is set against. It also prints the failed share of attempted
operations per run, which must be identical across runs.

Run from the repository root:

    python3 wfbench/repeat.py --runs 10 --seconds 10
    python3 wfbench/repeat.py --workloads lru-cycles --runs 5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["pq-paper", "session-cache", "lru-cycles"]
COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "wfbench/Cargo.toml", "--"]


def run_once(workload, seed, seconds, trace, scheme):
    cmd = COMMAND + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    if scheme != "wfrc":
        cmd += ["--scheme", scheme]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(workload, results, out):
    print(f"\n## {workload}: {len(results)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print(f"correct in every run: {correct}; failed/attempted shares seen: {shares}")
    print(f"{'metric':<34} {'unit':<12} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'min':>14} {'max':>14} {'spread':>8}")
    rows = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                      "min": min(vals), "max": max(vals), "spread": spread, "values": vals}
        print(f"{name:<34} {unit:<12} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}"
              f" {min(vals):>14.6g} {max(vals):>14.6g} {spread:>8.4f}")
    out[workload] = {"runs": len(results), "correct": correct,
                     "failed_shares": shares, "metrics": rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--scheme", choices=["wfrc", "lfrc"], default="wfrc")
    ap.add_argument("--json", help="also write the summary as JSON to this file")
    args = ap.parse_args()
    out = {}
    for w in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            results.append(run_once(w, args.seed_start + i, args.seconds,
                                    args.trace, args.scheme))
            print(".", end="", flush=True, file=sys.stderr)
        summarize(w, results, out)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)


if __name__ == "__main__":
    main()
