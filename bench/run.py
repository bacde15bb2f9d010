"""gradedpi benchmark: one workload, several fresh-process rounds, one JSON line.

    python3 bench/run.py --workload routes --seed 3 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. Each
round starts a fresh worker (PYTHONHASHSEED pinned) that imports gradedpi,
makes the round's inputs from the seed, and runs the job list one job at
a time. Rounds repeat until the run has measured about --seconds.

--trace 0 prints the end-to-end metrics:
  setup_s      fresh worker start, import and input preparation; for
               factor-cli a trivial gradedpi command in a fresh process
               (median of every sample of the run)
  wall_s       time to answer and check the whole job list (mean over rounds)
  hardest_s    time of the workload's hardest job (mean over rounds; see
               README.md for why the mean)
  peak_rss_mb  largest resident set of any process of the run
--trace 1 runs one untraced round, then traced rounds, and prints the
per-layer metrics (medians over the traced rounds) and the tracing
overhead. The last line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import tracing  # noqa: E402

PERF = time.perf_counter
RUN_LIMIT_S = 165.0  # every run ends well inside the 180 s allowed
SETUP_PROBES = 2  # extra set-up-only workers after each round
OUT_DIR = ".bench_out"


def reference_loop_ms(repeats=9):
    """Median time of a fixed pure-Python loop: a machine-speed diagnostic."""
    samples = []
    for _ in range(repeats):
        t0 = PERF()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append((PERF() - t0) * 1000)
    return statistics.median(samples)


class Fatal(Exception):
    pass


def run_worker(args, env, budget, *flags):
    """Start a worker, time it until READY, and return its result line."""
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--budget", f"{budget:.1f}",
        *flags,
    ]
    t0 = PERF()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], budget)
        first = proc.stdout.readline() if ready else ""
        t_ready = PERF()
        out, err = proc.communicate(timeout=max(1.0, budget - (t_ready - t0)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise Fatal(f"round did not finish within {budget:.0f} s")
    if first.strip() != "READY" or proc.returncode != 0:
        raise Fatal(f"worker exited with {proc.returncode} before finishing:\n{err.strip()}")
    if "--setup-only" in flags:
        return t_ready - t0
    result = json.loads(out.strip().splitlines()[-1])
    if result["setup_samples"] is None:
        result["setup_samples"] = [t_ready - t0]
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gradedpi", "__init__.py")):
        sys.stderr.write(f"bench: no gradedpi sources under {src}; run from the repository root\n")
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    t_begin = PERF()
    # compile bytecode once so that no round pays for it
    warm = subprocess.run(
        [sys.executable, "-c", "import gradedpi.cli, gradedpi.model"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if warm.returncode != 0:
        sys.stderr.write(f"bench: cannot import gradedpi:\n{warm.stderr}")
        return 1
    ref_before = reference_loop_ms()

    rounds = []
    t_run = PERF()
    try:
        while True:
            flags = ["--trace", "1" if args.trace and rounds else "0"]
            if args.workload == "model" and not rounds:
                flags.append("--crosscheck")
            rounds.append(run_worker(args, env, RUN_LIMIT_S - (PERF() - t_begin), *flags))
            if args.workload != "factor-cli" and not args.trace:
                rounds[-1]["setup_samples"] += [
                    run_worker(args, env, RUN_LIMIT_S - (PERF() - t_begin), "--setup-only")
                    for _ in range(SETUP_PROBES)
                ]
            # the untimed cross-check runs once and does not repeat
            elapsed = PERF() - t_run - rounds[0]["crosscheck_s"]
            per_round = elapsed / len(rounds)
            if PERF() - t_begin + per_round > RUN_LIMIT_S:
                break
            # another round while it ends nearer to --seconds than stopping
            # now would, so that a run measures --seconds on average
            if elapsed + per_round / 2 > args.seconds and not (args.trace and len(rounds) < 2):
                break
    except Fatal as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    ref_after = reference_loop_ms()

    wrong = [w for r in rounds for w in r["wrong"]]
    failures = [f for r in rounds for f in r["failures"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        wrong.append(f"answers differ between rounds of one run: {len(digests)} digests")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    timed = [r for r in rounds if r["layers"] is None]
    metrics = {}
    if args.trace:
        traced_rounds = [r for r in rounds if r["layers"] is not None]
        per_round = [tracing.layer_metrics(r["layers"]) for r in traced_rounds]
        overhead = statistics.median(r["wall_s"] for r in traced_rounds) - timed[0]["wall_s"]
        for name, unit in tracing.LAYER_METRICS:
            if name == "trace.overhead_s":
                value = overhead
            elif unit in ("count", "bits"):
                value = statistics.median_low(v[name] for v in per_round)
            else:
                value = statistics.median(v[name] for v in per_round)
            metrics[name] = {"value": value, "unit": unit}
    else:
        hardest = [r["hardest_s"] for r in timed if r["hardest_s"] is not None]
        metrics = {
            "setup_s": {"value": statistics.median(s for r in timed for s in r["setup_samples"]), "unit": "s"},
            "wall_s": {"value": statistics.fmean(r["wall_s"] for r in timed), "unit": "s"},
            "hardest_s": {"value": statistics.fmean(hardest) if hardest else 0.0, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    for w in wrong + failures:
        print(f"problem: {w}")
    print(
        f"rounds: {len(rounds)}  round wall_s: "
        + " ".join(f"{r['wall_s']:.3f}" + ("(traced)" if r["layers"] is not None else "") for r in rounds)
    )
    print(f"reference_loop_ms: before {ref_before:.2f} after {ref_after:.2f}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "reference_loop_ms": [ref_before, ref_after], "rounds": rounds, "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
