"""Golden CLI reports: a fixed set of cheap jobs whose full JSON reports are
stored under tests/golden/ and must be reproduced by later code.

Integers, strings, booleans and nulls must match exactly. Floats must agree
to 1e-13 relative, or to 1e-13 absolute for values below 1 in magnitude. A
change that is meant to move the numbers rewrites the files with

    PYTHONPATH=src python tests/test_golden.py --write

and says why. BFGS-polished `dreg` jobs are left out on purpose: their
finite-difference gradients turn one-ulp changes into visible ones.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pencillab.cli import main

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
    # is an axis hit
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
}


def run_report(argv) -> str:
    """The report text a job prints to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"{argv} exited with {code}"
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


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = json.loads(run_report(JOBS[name]))
    assert mismatches(got, want) == []


def test_scan_report_is_byte_identical_across_thread_counts(monkeypatch):
    # 70000 rows make three pool chunks
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PENCILLAB_THREADS", threads)
        outs.append(run_report(JOBS["crit_scan_mixed"]))
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for job, argv in JOBS.items():
        (GOLDEN / f"{job}.json").write_text(run_report(argv))
        print(f"wrote {GOLDEN / job}.json")
