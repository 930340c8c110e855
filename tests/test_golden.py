"""Golden CLI reports: a fixed set of cheap jobs whose full JSON reports are
stored under tests/golden/ and must be reproduced by later code.

Integers, strings, booleans and nulls must match exactly. Floats must agree
to 1e-13 relative, or to 1e-13 absolute for values below 1 in magnitude. A
change that is meant to move the numbers rewrites the files with

    PYTHONPATH=src python tests/test_golden.py --write

and says why. A change that is meant to keep the bytes checks them against
a checkout of its parent with

    PYTHONPATH=src python tests/test_golden.py --compare PARENT_DIR

which runs every job in JOBS under this checkout's src/ and under
PARENT_DIR/src, prints "same" or "DIFF" per job (exit code, report bytes
and written files), and exits 1 on any difference. A DIFF job whose stdout
parses as JSON also prints the largest absolute float deviation between
the two reports and whether they agree under the golden comparison, so a
change that moves last bits can quote how far. The flow and
equivalence jobs run a second time with `--out <job>`, so their trace and
point files are compared byte for byte too. Polished `dreg` jobs are left out
of the stored goldens on purpose: the polish steps along finite-difference
gradients, which turn one-ulp changes into visible ones, so a golden made on
one CPU would not hold at 1e-13 on another. --compare runs a few of them
anyway (COMPARE_ONLY) and writes no golden file for them: both trees run on
the same machine, so that amplification cannot tell them apart, and any
difference comes from the code.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from pencillab.cli import COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-13

A2A3 = "z1^2 + z2^3"
MIXED = "z1^2*zbar2 + z2^2*zbar1"

JOBS = {
    "info": ["info", "--germ", A2A3],
    "dreg_235": ["dreg", "--germ", "z1^2 + z2^3 + z3^5", "--budget", "4000",
                 "--polish", "0"],
    "dreg_mixed": ["dreg", "--germ", MIXED, "--budget", "4000", "--polish",
                   "0", "--seed", "3"],
    "dreg_metric": ["dreg", "--germ", A2A3, "--budget", "4000", "--polish",
                    "0", "--metric",
                    "[[2,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,0.5]]"],
    "milnor_diag_e7": ["milnor-diag", "--germ", "z1^3 + z1*z2^3", "--budget",
                       "4000", "--direction", "1,0.5,0.25,-0.3"],
    "milnor_diag_a1": ["milnor-diag", "--germ", "z1^2 + z2^2", "--budget",
                       "4000", "--direction", "1,0,0,0"],
    # the ray (z1, z2) = t (1, i) / sqrt 2 lies on f = 0: every radial row
    # is an axis hit, so no row is checked and the job fails
    "milnor_diag_axis": ["milnor-diag", "--germ", "z1^2 + z2^2", "--budget",
                         "4000", "--direction", "1,0,0,1"],
    "strong_milnor_linear": ["strong-milnor", "--germ", "z1*zbar2",
                             "--budget", "4000"],
    "strong_milnor_mixed": ["strong-milnor", "--germ", MIXED, "--budget",
                            "4000", "--seed", "5"],
    "crit_scan_mixed": ["crit-scan", "--germ", MIXED, "--budget", "70000"],
    "crit_scan_235": ["crit-scan", "--germ", "z1^2 + z2^3 + z3^5",
                      "--budget", "20000"],
    "tube_check_a2a3": ["tube-check", "--germ", A2A3, "--eta", "1e-3",
                        "--budget", "400"],
    "tube_check_mixed": ["tube-check", "--germ", MIXED, "--budget", "400"],
    "flow_radial_a2a3": ["flow", "--kind", "radial", "--germ", A2A3,
                         "--seed", "2"],
    "flow_radial_linear": ["flow", "--kind", "radial", "--germ", "z1", "--n",
                           "2", "--start", "0.5,0,0,0"],
    "flow_tube_a2a3": ["flow", "--kind", "tube", "--germ", A2A3, "--seed",
                       "3"],
    "flow_monodromy_a2a3": ["flow", "--kind", "monodromy", "--germ", A2A3,
                            "--seed", "1"],
    "monodromy_a2a3": ["monodromy", "--germ", A2A3, "--count", "2", "--seed",
                       "1"],
    "equivalence_a2a3": ["equivalence", "--germ", A2A3, "--count", "3",
                         "--seed", "4"],
    "euler_a1": ["euler", "--germ", "z1^2 + z2^2", "--theta", "pi/2",
                 "--budget", "20000", "--stability", "5", "--batch", "100"],
    "euler_a2a3": ["euler", "--germ", A2A3, "--budget", "100000",
                   "--stability", "8", "--seed", "1"],
    "euler_a2a4": ["euler", "--germ", "z1^2 + z2^4", "--theta", "pi/2",
                   "--budget", "100000", "--seed", "2"],
    "mu_235": ["mu", "--exponents", "2,3,5"],
    "double_check_a2a3": ["double-check", "--germ", A2A3, "--budget",
                          "100000", "--stability", "8", "--seed", "1"],
}

# polished dreg jobs that only --compare runs, in both trees
COMPARE_ONLY = {
    "dreg_a2a3_polished": ["dreg", "--germ", A2A3, "--budget", "20000",
                           "--polish", "100"],
    "dreg_235_polished": ["dreg", "--germ", "z1^2 + z2^3 + z3^5", "--budget",
                          "20000", "--polish", "100"],
    "dreg_mixed_metric_polished": ["dreg", "--germ", MIXED, "--budget",
                                   "20000", "--polish", "100", "--metric",
                                   "[[2,0,0,0],[0,1,0,0],[0,0,1,0],"
                                   "[0,0,0,0.5]]"],
}

# commands without a golden job, with the reason
NO_GOLDEN = {
    "sample-link": "writes CSV/OBJ point clouds, whose contents test_cli "
                   "checks",
}

# the exit code each job records; the jobs not listed exit with 0
EXIT_CODES = {"milnor_diag_axis": 1}


def run_report(name: str) -> str:
    """The report text job name prints to stdout, after checking its exit
    code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(JOBS[name]))
    want = EXIT_CODES.get(name, 0)
    assert code == want, f"{name} exited with {code}, not {want}"
    return buf.getvalue()


def mismatches(got, want, path="$"):
    """Paths where got differs from want under the golden comparison."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {got!r} != {list(want)}"]
        return [m for k in want
                for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)
            and not (isinstance(got, int) and isinstance(want, int))):
        # canonical JSON writes an integral float without a fraction, so a
        # float field may parse as int on one side; compare as floats then
        if abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def float_deviation(got, want) -> float:
    """Largest |got - want| over the numbers at the same path of two
    reports; parts whose structure differs are left out, two NaNs agree."""
    if isinstance(want, dict) and isinstance(got, dict):
        return max((float_deviation(got[k], want[k]) for k in want
                    if k in got), default=0.0)
    if isinstance(want, list) and isinstance(got, list):
        return max(map(float_deviation, got, want), default=0.0)
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        if math.isnan(got) or math.isnan(want):
            return 0.0 if math.isnan(got) and math.isnan(want) else math.inf
        return abs(got - want) if got != want else 0.0
    return 0.0


def diff_summary(here: bytes, parent: bytes) -> str:
    """How far two differing stdout reports are apart, when both are
    JSON; empty otherwise."""
    try:
        got, want = json.loads(here), json.loads(parent)
    except ValueError:
        return ""
    agree = "yes" if mismatches(got, want) == [] else "no"
    return (f"  max float deviation {float_deviation(got, want):.3g},"
            f" within {FLOAT_TOL:g}: {agree}")


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = json.loads(run_report(name))
    assert mismatches(got, want) == []


def test_every_command_has_a_golden_job():
    golden = {argv[0] for argv in JOBS.values()}
    assert set(COMMANDS) - golden == set(NO_GOLDEN)


def test_scan_report_is_byte_identical_across_thread_counts(monkeypatch):
    # 70000 rows make several cover chunks
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PENCILLAB_THREADS", threads)
        outs.append(run_report("crit_scan_mixed"))
    assert outs[0] == outs[1]


def test_comparison_rules():
    assert mismatches({"a": 1.0, "b": [2, "x"]}, {"a": 1, "b": [2, "x"]}) == []
    assert mismatches(0.5 + 4e-14, 0.5) == []
    assert mismatches(3.0e6 * (1 + 5e-14), 3.0e6) == []
    assert mismatches(0.5 + 2e-13, 0.5) != []
    assert mismatches(3, 2) != []
    assert mismatches(True, 1) != []
    assert mismatches(None, 0.0) != []
    assert mismatches({"b": 1, "a": 2}, {"a": 2, "b": 1}) != []


def test_float_deviation():
    assert float_deviation({"a": [1.0, 2.5], "b": "x"},
                           {"a": [1.0, 2.0], "b": "y"}) == 0.5
    assert float_deviation({"a": 3}, {"a": 3.0, "b": 7.0}) == 0.0
    assert float_deviation([float("nan")], [float("nan")]) == 0.0
    assert float_deviation([float("nan")], [1.0]) == math.inf
    assert float_deviation(True, 0) == 0.0
    assert diff_summary(b'{"a": 0.5}', b'{"a": 0.50000000000005}') == (
        "  max float deviation 5e-14, within 1e-13: yes")
    assert diff_summary(b'[0.5, 2]', b'[0.5000001, 2]') == (
        "  max float deviation 1e-07, within 1e-13: no")
    assert diff_summary(b"not json", b"{}") == ""


# the commands whose --out files the comparison checks too
OUT_COMMANDS = ("flow", "equivalence")


def job_output(src: Path, argv):
    """(exit code, stdout bytes, {relative path: bytes} of every file
    written) of the CLI run with argv in a fresh interpreter on the package
    under src, in a new temporary working directory."""
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-m", "pencillab.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, cwd=cwd)
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(Path(cwd).rglob("*")) if p.is_file()}
    return done.returncode, done.stdout, files


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        GOLDEN.mkdir(exist_ok=True)
        for job in JOBS:
            (GOLDEN / f"{job}.json").write_text(run_report(job))
            print(f"wrote {GOLDEN / job}.json")
    elif len(args) == 2 and args[0] == "--compare":
        here = Path(__file__).resolve().parents[1] / "src"
        parent = Path(args[1]).resolve() / "src"
        if not (parent / "pencillab").is_dir():
            sys.exit(f"no package under {parent}")
        # the --out runs write relative paths, so both trees report the same
        runs = list(JOBS.items()) + [
            (f"{job} --out", [*argv, "--out", job])
            for job, argv in JOBS.items() if argv[0] in OUT_COMMANDS]
        runs += COMPARE_ONLY.items()
        diffs = 0
        for name, argv in runs:
            got, want = job_output(here, argv), job_output(parent, argv)
            same = got == want
            diffs += not same
            print(f"{'same' if same else 'DIFF'} {name}"
                  + ("" if same else diff_summary(got[1], want[1])),
                  flush=True)
        sys.exit(1 if diffs else 0)
    else:
        sys.exit("usage: python tests/test_golden.py --write | --compare DIR")
