#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, untraced, with seeds
1..runs, and prints the median, quartiles and spread (Q3-Q1 as a share of
the median) of every end-to-end metric, next to its bound from
BENCHMARK.json. A spread over a third of its bound is marked "> bound/3",
one over the bound "> BOUND".

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workloads serve

Raw results are appended to .bench_out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "steady.jsonl"), "a")
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            seed = 1 + i
            r = run_once(workload, seed, args.seconds)
            r.update(workload=workload, seed=seed)
            log.write(json.dumps(r) + "\n")
            log.flush()
            results.append(r)
        shares = {r["failed"] / r["attempted"] for r in results}
        wall = statistics.median(r["wall_s"] for r in results)
        print(f"== {workload}: {args.runs} runs, seeds 1..{args.runs}, all correct: "
              f"{all(r['correct'] for r in results)}, failed shares {sorted(shares)}, "
              f"median wall {wall:.1f} s")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3" if spread <= bound else "  > BOUND"
            print(f"  {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} "
                  f"{unit}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
