"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py --runs 10 [--workloads routes,model] [--seed0 100] [--trace 0]

Runs bench/run.py --runs times per workload, one seed per run, the
workloads alternating, all with BENCHMARK.json's run_seconds. For every
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound. With --trace 1 it prints the
per-layer metrics instead, and whether each count repeated exactly.
The table is also written to .bench_out/spread-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(args.seed0 + i), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {args.seed0 + i}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(res)
            brief = " ".join(f"{k}={v['value']:.4g}" for k, v in list(res["metrics"].items())[:4])
            print(f"run {i} {w}: correct={res['correct']} {res['failed']}/{res['attempted']} failed {brief}",
                  flush=True)

    table = {}
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed shares {shares}")
        for m in declared:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            note = ""
            if "bound" in m:
                row["bound"] = m["bound"]
                note = f" bound {m['bound']}" + ("  WIDE" if spread > m["bound"] / 3 else "")
            elif len(set(vals)) == 1:
                note = " repeats exactly"
            print(f"  {m['name']:24s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:.4f}{note}")
            table.setdefault(w, {})[m["name"]] = row
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"spread-trace{args.trace}.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
