"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/spread.py --runs 10 [--baseline FILE]

For every workload of BENCHMARK.json it runs run.py once per seed 1..runs
(untraced) and prints, per end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound. It exits 1 unless every spread, set-up time included, is
below a third of its bound. With --baseline it also makes two traced runs of
seed 1 per workload, checks that their work counters agree exactly, and
writes everything to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run_once(spec, workload: str, seed: int, trace: int):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--baseline", default=None,
                    help="also trace, and write the summary to this file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, 1 + args.runs))
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds,
              "workloads": {}}
    steady = True
    for w in names:
        results = []
        for seed in seeds:
            res, env = run_once(spec, w, seed, 0)
            results.append(res)
            print(f"{w} seed {seed}: attempted {res['attempted']} failed "
                  f"{res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}"
                      for k, v in res["metrics"].items()), flush=True)
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "end_to_end": {}}
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in results])
            entry["end_to_end"][m["name"]] = dict(s, unit=m["unit"],
                                                  bound=m["bound"])
            ok = s["spread"] < m["bound"] / 3
            steady &= ok
            print(f"  {w:9s} {m['name']:12s} median {s['median']:.6g} "
                  f"{m['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {m['bound']})"
                  f"{'' if ok else '  NOT below bound/3'}", flush=True)
        if args.baseline:
            first, env = run_once(spec, w, seeds[0], 1)
            second, _ = run_once(spec, w, seeds[0], 1)
            counts = [m["name"] for m in spec["per_layer"]
                      if m["unit"] in ("count", "ratio")]
            repeat = all(first["metrics"][k] == second["metrics"][k]
                         for k in counts)
            print(f"  {w}: traced work counters repeat: {repeat}", flush=True)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in first["metrics"].items()}
            entry["counters_repeat"] = repeat
            report["env"] = {k: v for k, v in env.items()
                             if k not in ("workload", "seed", "trace")}
        report["workloads"][w] = entry
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
