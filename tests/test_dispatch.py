"""The cover golden jobs under every SIMD dispatch level numpy offers on this
CPU.

numpy picks its elementwise loops (the germ kernel's complex multiply, log,
power) by the CPU's features, and NPY_DISABLE_CPU_FEATURES turns the top
dispatch targets off for one process, as an older CPU would run them.
Level k disables the k highest targets this CPU has. Each level runs the
dreg, strong-milnor, crit-scan and milnor-diag golden jobs in its own
interpreter; every report must agree with its stored golden under the
golden comparison, and the jobs whose minimum is flat (many rows tie with
it up to rounding) must print the same witness at every level.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import EXIT_CODES, GOLDEN, JOBS, mismatches, run_report

COVER_JOBS = sorted(job for job in JOBS if job.startswith(
    ("dreg_", "strong_milnor_", "crit_scan_", "milnor_diag_")))
FLAT_MINIMA = ("dreg_mixed", "strong_milnor_linear", "strong_milnor_mixed")
SRC = Path(__file__).resolve().parents[1] / "src"

# runs the jobs given as JSON argv lists, prints [[exit code, stdout], ...]
RUNNER = """
import contextlib, io, json, sys
from pencillab.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out.append([main(argv), buf.getvalue()])
print(json.dumps(out))
"""

# prints numpy's dispatch targets that this CPU has, lowest first
TARGETS = """
try:
    from numpy._core import _multiarray_umath as m
except ImportError:
    from numpy.core import _multiarray_umath as m
print(*[t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)])
"""


def dispatch_targets():
    """The targets, as a process that disables none of them sees them."""
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    done = subprocess.run([sys.executable, "-c", TARGETS], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def run_levels(levels):
    """{level: [[exit code, stdout], ...] of COVER_JOBS}, one interpreter
    per level, all started at once; a level is the space-separated list of
    targets it disables."""
    argv = json.dumps([JOBS[job] for job in COVER_JOBS])
    procs = {level: subprocess.Popen(
        [sys.executable, "-W", "error", "-c", RUNNER, argv],
        env=dict(os.environ, PYTHONPATH=str(SRC),
                 NPY_DISABLE_CPU_FEATURES=level),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for level in levels}
    out = {}
    for level, proc in procs.items():
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0 and stderr == "", (level, stderr)
        out[level] = json.loads(stdout)
    return out


def test_cover_goldens_hold_at_every_dispatch_level():
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy has no dispatch targets on this CPU")
    levels = [" ".join(targets[-k:]) for k in range(1, len(targets) + 1)]
    witnesses = {}
    for level, runs in run_levels(levels).items():
        for job, (code, report) in zip(COVER_JOBS, runs):
            assert code == EXIT_CODES.get(job, 0), (level, job)
            want = json.loads((GOLDEN / f"{job}.json").read_text())
            got = json.loads(report)
            assert mismatches(got, want) == [], (level, job)
            if job in FLAT_MINIMA:
                witnesses.setdefault(job, set()).add(
                    tuple(got["result"]["witness"]))
    for job in FLAT_MINIMA:
        # the default level too, in this process
        default = json.loads(run_report(job))["result"]["witness"]
        assert witnesses[job] == {tuple(default)}, job
