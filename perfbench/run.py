"""pencillab benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Untraced (--trace 0): set up (import, germ parsing, input generation), then
run rounds of jobs back to back, one client, for --seconds and at least two
rounds. Prints the end-to-end metrics of BENCHMARK.json: set-up time (median
of three set-ups, two of them in fresh interpreters), median round time,
median job latency and peak memory. Only the program is timed: a job's time
is its call into the program, and a round's time is the sum of its jobs'.
The job count and the 90th percentile of job latency are printed as notes.

Traced (--trace 1): after one untraced warm-up round, runs a fixed set of
rounds with every layer boundary wrapped by perfbench.tracer, each traced
job between two untraced runs of the same job, and prints the per-layer
metrics of BENCHMARK.json, including the tracing overhead: per job, traced
time minus the median of its two untraced times, summed. The spans are
written to perfbench/out/.

Every job is checked at the acceptance tolerances. The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 2
SETUP_SAMPLES = 3
CLOSED_LOOP = "one client, jobs back to back"


def parse_args(argv):
    ap = argparse.ArgumentParser(description="pencillab benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("certify", "scan", "transport", "euler"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this interpreter and exit")
    return ap.parse_args(argv)


def timed_setup(workload: str, seed: int):
    """Import the package, parse germs, generate inputs; returns (plan, s)."""
    t0 = time.perf_counter()
    from perfbench import workloads

    plan = workloads.setup(workload, seed)
    return plan, time.perf_counter() - t0


def fresh_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


class Loop:
    """Runs rounds of jobs back to back and keeps their timings."""

    def __init__(self, plan, tracer=None):
        self.plan = plan
        self.tracer = tracer
        self.pause = (contextlib.nullcontext if tracer is None
                      else tracer.paused)
        self.job_s = []
        self.round_s = []
        self.failures = []

    def jobs(self, r: int):
        """The jobs of round r; building their inputs is not traced."""
        with self.pause():
            return self.plan.round(r)

    def run_job(self, job) -> float:
        """Run and check one job; returns the time of its program call."""
        from perfbench import workloads

        if self.tracer is not None:
            self.tracer.job = len(self.job_s)
        ok, why, seconds = workloads.run_job(job, self.pause)
        self.job_s.append(seconds)
        if not ok:
            self.failures.append(why)
        return seconds

    def run_round(self, r: int) -> float:
        """Run round r; returns the summed time of its jobs."""
        spent = sum(self.run_job(job) for job in self.jobs(r))
        self.round_s.append(spent)
        return spent

    def run_for(self, seconds: float) -> None:
        """At least MIN_ROUNDS rounds; after that, start a round only if a
        round of average length (checks included) still ends in time."""
        t0 = time.perf_counter()
        r = 0
        while r < MIN_ROUNDS or (time.perf_counter() - t0) * (r + 1) / r \
                <= seconds:
            self.run_round(r)
            r += 1


def environment(args) -> dict:
    import numpy
    import scipy
    from pencillab import _num

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "closed_loop": CLOSED_LOOP,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "worker_count": _num.worker_count(),
        "PENCILLAB_THREADS": os.environ.get("PENCILLAB_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def untraced(args, plan, setup_s: float):
    loop = Loop(plan)
    loop.run_for(args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [fresh_setup(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    ms = [1e3 * s for s in loop.job_s]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(loop.round_s),
        "job_ms.p50": statistics.median(ms),
        "peak_rss_mb": peak_mb,
    }
    notes = {"rounds": len(loop.round_s), "jobs": len(loop.job_s),
             "job_ms.p90": statistics.quantiles(ms, n=10,
                                                method="inclusive")[8],
             "setup_samples_s": setups}
    return loop, metrics, notes


def traced(args, plan):
    from perfbench import tracer as tracing
    from perfbench import workloads

    rounds = workloads.TRACE_ROUNDS[args.workload]
    plain = Loop(plan)
    plain.run_round(0)  # warm-up
    tr = tracing.Tracer()
    with tr.installed():
        loop = Loop(workloads.setup(args.workload, args.seed), tracer=tr)
    untraced_s = traced_s = 0.0
    for r in range(rounds):
        for plain_job, traced_job in zip(plain.jobs(r), loop.jobs(r)):
            before = plain.run_job(plain_job)
            with tr.installed():
                traced_s += loop.run_job(traced_job)
            untraced_s += statistics.median([before,
                                             plain.run_job(plain_job)])
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tr.write(os.path.join(out_dir,
                          f"spans-{args.workload}-{args.seed}.csv.gz"))
    metrics = tr.metrics()
    metrics.update({"trace.untraced_s": untraced_s,
                    "trace.traced_s": traced_s,
                    "trace.overhead_s": traced_s - untraced_s})
    loop.failures = plain.failures + loop.failures
    loop.job_s = plain.job_s + loop.job_s
    notes = {"rounds": rounds, "warmup_rounds": 1, "jobs": len(loop.job_s),
             "missing_spans": tr.missing}
    return loop, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pencillab",
                                       "__init__.py")):
        print("run.py: src/pencillab not found next to perfbench/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    plan, setup_s = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        loop, values, notes = traced(args, plan)
    else:
        loop, values, notes = untraced(args, plan, setup_s)
    for why in loop.failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{notes['jobs']} jobs in {notes['rounds']} rounds, "
          f"{len(loop.failures)} failed ({CLOSED_LOOP})")
    print("env " + json.dumps(environment(args)))
    print("notes " + json.dumps(notes))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not loop.failures,
                      "attempted": len(loop.job_s),
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
