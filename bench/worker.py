"""One round of one workload in a fresh interpreter.

Prints READY once gradedpi is imported and the round's inputs are made,
then runs every job one at a time, checks each answer, and prints one
JSON line with the round's figures. run.py starts one worker per round.

    python3 bench/worker.py --workload routes --seed 1 --trace 0 [--crosscheck]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time

import jobs

PERF = time.perf_counter
SETUP_REPEATS = 3


class Context:
    """What a round's jobs share: tracing state, environment, time limit."""

    def __init__(self, traced, deadline):
        self.traced = traced
        self.deadline = deadline
        self.env = dict(os.environ)
        self.raws = []  # raw traces returned by traced CLI processes
        self.model_verdicts = []

    def timeout(self):
        return max(1.0, self.deadline - time.monotonic())


def cli_setup_samples(ctx):
    """Seconds for a trivial gradedpi command in a fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = PERF()
        code, _, _ = jobs.run_cli(jobs.SETUP_COMMAND, False, ctx.env, ctx.timeout())
        samples.append(PERF() - t0)
        if code != 0:
            raise RuntimeError(f"setup command exit code {code}")
    return samples


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--crosscheck", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="exit after READY")
    ap.add_argument("--budget", type=float, default=150.0)
    args = ap.parse_args()

    ctx = Context(bool(args.trace), time.monotonic() + args.budget)
    setup_samples = None
    tracer = None
    if args.workload == "factor-cli":
        setup_samples = cli_setup_samples(ctx)
    else:
        import gradedpi.cli  # noqa: F401  (import time belongs to set-up)
    round_jobs = jobs.BUILDERS[args.workload](args.seed, ctx)
    if ctx.traced and args.workload != "factor-cli":
        import tracing

        tracer = tracing.Tracer().install()
    print("READY", flush=True)
    if args.setup_only:
        return

    digest = hashlib.sha256()
    failures = []  # operations that raised or exited non-zero
    wrong = []  # checks that failed on answers that did come back
    times = {}
    hardest = []
    t_start = PERF()
    for job in round_jobs:
        t0 = PERF()
        try:
            answer, job_problems = job.fn()
        except Exception as exc:  # a failed operation, timeouts included
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            digest.update(f"{job.name}\0failed\0".encode())
            continue
        dt = PERF() - t0
        times[job.name] = dt
        if job.hardest:
            hardest.append(dt)
        wrong.extend(f"{job.name}: {p}" for p in job_problems)
        digest.update(f"{job.name}\0{answer}\0".encode())
    wall = PERF() - t_start

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.raw()
    elif ctx.traced:
        import tracing

        layers = tracing.merge(ctx.raws)

    t_check = PERF()
    if args.crosscheck and args.workload == "model":
        wrong.extend(jobs.model_crosscheck(ctx.model_verdicts))
    crosscheck_s = PERF() - t_check

    print(
        json.dumps(
            {
                "attempted": len(round_jobs),
                "failed": len(failures),
                "failures": failures,
                "wrong": wrong,
                "digest": digest.hexdigest(),
                "wall_s": wall,
                "hardest_s": sum(hardest) / len(hardest) if hardest else None,
                "job_s": times,
                "setup_samples": setup_samples,
                "layers": layers,
                "crosscheck_s": crosscheck_s,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
