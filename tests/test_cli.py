"""Exit codes, config merging, deterministic reports, and cloud emission."""

import json
import os
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from pencillab import cli
from pencillab.cli import FIELDS, build_parser, load_job, main, resolve_germ
from pencillab.errors import (GermSyntaxError, PencilLabError,
                              StepCollapse)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(out: str) -> dict:
    return json.loads(out)


def test_info_command(capsys):
    code, out, _ = run(capsys, "info", "--germ", "z1^2+z2^3")
    assert code == 0
    rep = report_of(out)
    assert rep["schema"] == "3"
    assert rep["passed"] is True
    assert rep["result"]["n"] == 2 if "n" in rep["result"] else True
    assert rep["result"]["holomorphic"] is True
    assert rep["config"]["germ"] == "z1^2+z2^3"


def test_mu_command(capsys):
    code, out, _ = run(capsys, "mu", "--exponents", "2,3")
    assert code == 0
    rep = report_of(out)
    assert rep["result"]["closed_form"] == 2
    assert rep["result"]["staircase"] == 2
    assert rep["result"]["agree"] is True


def test_euler_command(capsys, tmp_path):
    path = tmp_path / "euler.json"
    code, out, _ = run(capsys, "euler", "--germ", "z1^2+z2^3",
                       "--budget", "100000", "--report", str(path))
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["result"]["chi"] == -2
    assert rep["result"]["inventory"]["termination"] == "stable"


def test_negative_budget_is_usage_error(capsys):
    code, _, err = run(capsys, "dreg", "--germ", "z1", "--budget", "-5")
    assert code == 2
    assert "budget" in err


RANGE_ERRORS = {
    "radius": "radius must be a positive real",
    "eta": "eta must be a positive real",
    "theta": "theta must be finite",
    "budget": "budget must be a positive integer",
    "polish": "polish must be non-negative",
    "count": "count must be a positive integer",
    "revolutions": "revolutions must be finite",
    "t0": "t0 must be finite",
    "t1": "t1 must be finite",
    "newton_tol": "newton_tol must be a positive real",
    "rtol": "rtol must be a positive real",
    "atol": "atol must be a positive real",
    "batch": "batch must be a positive integer",
    "stability": "stability must be a positive integer",
    "redraws": "redraws must be a positive integer",
}
BAD_VALUES = {"positive": ("0", "-1", "nan"), "non-negative": ("-1",),
              "finite": ("1e999", "-1e999")}


def test_every_ranged_field_has_a_pinned_message():
    assert {f[0] for f in FIELDS if f[3]} == set(RANGE_ERRORS)


@pytest.mark.parametrize("name,bound,value", [
    (f[0], f[3], v) for f in FIELDS if f[3] for v in BAD_VALUES[f[3]]
    if f[2] is not int or v != "nan"])
def test_out_of_range_field_is_usage_error(capsys, name, bound, value):
    code, out, err = run(capsys, "info", "--germ", "z1",
                         f"--{name.replace('_', '-')}={value}")
    assert code == 2
    assert out == ""
    assert err == f"error: field '{name}': {RANGE_ERRORS[name]}\n"


A2 = "z1^2+z2^2"
METRIC = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
# job files the usage table reads as {tmp}/<name>
JOB_FILES = {
    "bad.json": "{",
    "list.json": "[1]",
    "budget.json": '{"command": "info", "germ": "z1", "budget": "many"}',
    "radius.json": '{"command": "info", "germ": "z1", "radius": [1]}',
    "germ.json": '{"command": "info", "germ": {"n": 2}}',
    "theta.json": '{"command": "info", "germ": "z1", "theta": true}',
    "deep.json": "[" * 10000 + "]" * 10000,
}
DEEP_JSON = ("maximum recursion depth exceeded while decoding a JSON array "
             "from a unicode string")
NOT_FOUND = "[Errno 2] No such file or directory: '{tmp}/missing.json'"


# each job exits 2, prints no report and names its field:
# stderr is exactly "error: field '<field>': <message>"
@pytest.mark.parametrize("argv,field,message", [
    pytest.param(argv, field, message, id=name)
    for name, argv, field, message in [
        ("argv0-direction-nonzero", ("milnor-diag", "--germ", A2,
         "--direction", "0,0,0,0"), "direction", "direction must be nonzero"),
        ("argv1-direction-finite", ("milnor-diag", "--germ", A2,
         "--direction", "inf,0,0,0"), "direction", "direction must be finite"),
        ("argv2-direction-finite", ("milnor-diag", "--germ", A2,
         "--direction", "1,nan,0,0"), "direction", "direction must be finite"),
        ("argv3-pole-finite", ("sample-link", "--germ", A2, "--pole",
         "nan,0,0,1"), "pole", "pole must be finite"),
        ("argv4-pole-nonzero", ("sample-link", "--germ", A2, "--pole",
         "0,0,0,0"), "pole", "pole must be nonzero"),
        ("argv5-start-finite", ("flow", "--germ", A2,
         "--start=-inf,0.3,0,0.1"), "start", "start must be finite"),
        ("start-length", ("flow", "--germ", A2, "--start", "1,2"), "start",
         "expected 4 reals (real parts then imaginary), got 2"),
        ("start-in-tube-flow", ("flow", "--kind", "tube", "--germ",
         "z1^2+z2^3", "--start", "0.001,0,0,0"), "start",
         "start point has |f| at or below the tube level"),
        ("start-in-tube-equivalence", ("equivalence", "--germ", "z1^2+z2^3",
         "--start", "0.001,0,0,0"), "start",
         "start point has |f| at or below the tube level"),
        ("tube-check-eta-above-radius", ("tube-check", "--germ", "z1", "--n",
         "2", "--eta", "0.6"), "eta", "eta must satisfy 0 < eta < radius"),
        ("milnor-diag-mixed-germ", ("milnor-diag", "--germ",
         "z1^2*zbar2+z2^2*zbar1"), "germ", "the phase-colinearity "
         "diagnostic needs a holomorphic germ"),
        ("theta-division-by-zero", ("info", "--germ", "z1", "--theta",
         "1/0"), "theta", "division by zero in angle '1/0'"),
        ("theta-bool", ("info", "--germ", "z1", "--theta", "True"), "theta",
         "bad angle 'True'"),
        ("theta-bool-json", ("--config", "{tmp}/theta.json"), "theta",
         "bad angle True"),
        ("theta-deep", ("info", "--germ", "z1", "--theta",
         "+".join(["1"] * 5000)), "theta", "angle expression nested too "
         "deeply"),
        ("germ-deep", ("info", "--germ", "(" * 3000 + "z1" + ")" * 3000),
         "germ", "expression nested too deeply (at position 0)"),
        ("germ-json", ("info", "--germ", "{bad"), "germ", "bad germ JSON: "
         "Expecting property name enclosed in double quotes: line 1 column 2 "
         "(char 1)"),
        ("germ-json-object", ("--config", "{tmp}/germ.json"), "germ",
         "bad germ JSON: 'terms'"),
        ("germ-no-variables", ("info", "--germ", "1+i"), "germ",
         "no variables found in the expression"),
        ("n-below-one", ("info", "--germ", "z1", "--n", "0"), "n",
         "n must be at least 1"),
        ("germ-index-zero", ("info", "--germ", "z0"), "germ",
         "variable index out of range: z0 (at position 0)"),
        ("flow-span-overflow", ("flow", "--kind", "radial", "--germ", "z1",
         "--n", "2", "--start", "0.5,0,0,0", "--t0", "1e308",
         "--t1=-1e308"), "t1", "flow span t1 - t0 must be finite"),
        ("flow-span-revolutions", ("flow", "--germ", "z1", "--n", "2",
         "--start", "0.5,0,0,0", "--revolutions", "1e308"), "revolutions",
         "flow span t1 - t0 must be finite"),
        ("monodromy-span-revolutions", ("monodromy", "--germ", "z1^2+z2^3",
         "--count", "1", "--revolutions", "1e308"), "revolutions",
         "flow span t1 - t0 must be finite"),
        ("flow-span-lost", ("flow", "--germ", "z1^2+z2^3", "--start",
         "0.5,0,0,0.1", "--t0", "1e17"), "t0",
         "t0 + span rounds to t0 for the default span 6.283185307179586"),
        ("flow-span-lost-tube", ("flow", "--kind", "tube", "--germ", "z1",
         "--n", "2", "--start", "0.5,0,0,0", "--t0", "1e308"), "t0",
         "t0 + span rounds to t0 for the default span -6.907755278982137"),
        ("config-unreadable", ("--config", "{tmp}/missing.json"), "config",
         "cannot read {tmp}/missing.json: " + NOT_FOUND),
        ("config-invalid", ("--config", "{tmp}/bad.json"), "config",
         "invalid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        ("config-not-object", ("--config", "{tmp}/list.json"), "config",
         "job file must hold a JSON object"),
        ("config-deep", ("--config", "{tmp}/deep.json"), "config",
         "invalid JSON: " + DEEP_JSON),
        ("integer-cast", ("--config", "{tmp}/budget.json"), "budget",
         "expected an integer, got 'many'"),
        ("real-cast", ("--config", "{tmp}/radius.json"), "radius",
         "expected a real, got [1]"),
        ("unknown-command", ("bogus", "--germ", "z1"), "command",
         "unknown command 'bogus'; expected one of " + ", ".join(
             cli.COMMANDS)),
        ("euler-three-variables", ("euler", "--germ", "z1^2+z2^2+z3^2"),
         "germ", "link Euler counting is implemented for n = 2 only"),
        ("double-check-not-power-sum", ("double-check", "--germ",
         "z1^2+z2^3+z1*z2"), "germ", "germ is not a two-variable power sum"),
        ("mu-no-exponents", ("mu",), "exponents", "mu needs --exponents"),
        ("mu-exponent-below-two", ("mu", "--exponents", "1,3"), "exponents",
         "all exponents must be at least 2"),
        ("mu-staircase-bound", ("mu", "--exponents", "70000,70000"),
         "exponents", "staircase enumeration bound exceeds 2^31"),
        ("n-above-sobol-dimension", ("strong-milnor", "--germ", "z1", "--n",
         "12000", "--budget", "10"), "n",
         "n = 12000 needs Sobol dimension 24001 > 21201"),
        ("germ-above-sobol-dimension", ("dreg", "--germ", "z10601"), "germ",
         "n = 10601 needs Sobol dimension 21203 > 21201"),
        ("budget-above-sobol-count", ("dreg", "--germ", A2, "--budget",
         "5000000000", "--polish", "0"), "budget",
         "Sobol count 5000000000 > 2**30"),
        ("budget-above-sobol-count-scan", ("crit-scan", "--germ", A2,
         "--budget", "1073741825"), "budget", "Sobol count 1073741825 > 2**30"),
        # the sphere starts draw 8 * count first, the fiber starts 2 * count
        ("count-above-sobol-count-sphere", ("equivalence", "--germ", A2,
         "--count", "134217729"), "count", "Sobol count 1073741832 > 2**30"),
        ("count-above-sobol-count-fiber", ("monodromy", "--germ", A2,
         "--count", "536870913"), "count", "Sobol count 1073741826 > 2**30"),
        ("seed-negative", ("info", "--germ", "z1", "--seed=-1"), "seed",
         "seed must fit in 64 bits"),
        ("seed-too-large", ("info", "--germ", "z1", "--seed",
         str(2 ** 64)), "seed", "seed must fit in 64 bits"),
        ("metric-json", ("dreg", "--germ", A2, "--metric", "[[1,2"),
         "metric", "invalid JSON: Expecting ',' delimiter: line 1 column 6 "
         "(char 5)"),
        ("metric-deep", ("dreg", "--germ", A2, "--metric",
         "[" * 10000 + "]" * 10000), "metric", "invalid JSON: " + DEEP_JSON),
        ("germ-json-deep", ("info", "--germ", '{"n": ' + "[" * 10000),
         "germ", "bad germ JSON: " + DEEP_JSON),
        ("metric-shape", ("dreg", "--germ", A2, "--metric", "[[1,0],[0,1]]"),
         "metric", "expected a 4x4 matrix"),
        ("metric-symmetric", ("dreg", "--germ", A2, "--metric",
         METRIC.replace("[1,0,0,0]", "[1,1,0,0]")), "metric",
         "matrix must be symmetric"),
        ("metric-positive-definite", ("dreg", "--germ", A2, "--metric",
         METRIC.replace("[0,1,0,0]", "[0,-1,0,0]")), "metric",
         "matrix must be positive definite"),
    ]])
def test_bad_point_is_usage_error(capsys, tmp_path, argv, field, message):
    for name, text in JOB_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path))
                                   for a in argv))
    assert code == 2
    assert out == ""
    assert err == (f"error: field '{field}': "
                   f"{message.replace('{tmp}', str(tmp_path))}\n")


@pytest.mark.parametrize("argv,code,err", [
    pytest.param(("info", "--germ", "z1^3", "--radius", "1e200"), 0, "",
                 id="info-scale"),
    pytest.param(("equivalence", "--germ", "z1^1000+z2^2", "--radius", "3",
                  "--count", "2"), 3,
                 "error: numerical failure (ProjectionFailure): collected "
                 "0/2 sphere start points off the tube\n",
                 id="equivalence-scale"),
    pytest.param(("flow", "--germ", "z1^1000+z2^2", "--start", "3,0,0,0.1"),
                 3, "error: numerical failure (KernelOverflow): lone-point "
                    "germ kernel: complex exponentiation\n",
                 id="flow-lone-point")])
def test_overflow_ends_in_a_report_or_one_error_line(capsys, argv, code,
                                                     err):
    # a germ scale past the float range is an inf floor, and a lone-point
    # kernel power that overflows is a typed failure
    got, out, stderr = run(capsys, *argv)
    assert (got, stderr) == (code, err)
    if code == 0:
        result = report_of(out)["result"]
        assert [result[k] for k in ("scale_at_radius", "axis_floor",
                                    "f_floor")] == ["inf"] * 3


def test_overflowing_seeds_stop_alone_without_warnings(capsys, tmp_path,
                                                       monkeypatch):
    # seeds whose residual overflows stop in the Newton loop, one row each,
    # so stderr holds the partial-inventory line and the error line only
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        # as the command line prints them
        warnings.simplefilter("always")
        code, out, err = run(capsys, "double-check", "--germ",
                             "z1^1000^47+z2^2", "--budget", "2000")
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (3, "")
    assert err == ("partial inventory -> pencillab-double-check.partial\n"
                   "error: numerical failure (Unstable): no stability after "
                   "2000 seeds (9/20 quiet batches)\n")
    assert (tmp_path / "pencillab-double-check.partial").is_file()


def test_flow_with_t1_given_equal_to_t0_is_an_empty_span(capsys):
    code, out, err = run(capsys, "flow", "--germ", "z1^2+z2^3", "--start",
                         "0.5,0,0,0.1", "--t0", "1e17", "--t1", "1e17")
    assert code == 0 and err == ""
    result = report_of(out)["result"]
    assert result["termination"] == "empty-span"
    assert result["n_accepted"] == 0


def test_direction_with_an_overflowing_norm_is_scanned(capsys):
    code, out, err = run(capsys, "milnor-diag", "--germ", "z1^2 + z2^2",
                         "--budget", "400", "--direction",
                         "1.7e308,1.7e308,1.7e308,1.7e308")
    assert code == 0 and err == ""
    radial = report_of(out)["result"]["radial"]
    assert len(radial) == 12
    assert all(e["error"] is None and e["arg_lambda_prime"] == 0
               for e in radial)


@pytest.mark.parametrize("pole,unit", [
    ("1.7e308,1.7e308,1.7e308,1.7e308", [0.5, 0.5, 0.5, 0.5]),
    ("1e-320,0,0,1e-320", [0.5 ** 0.5, 0.0, 0.0, 0.5 ** 0.5]),
], ids=["overflowing", "underflowing"])
def test_pole_with_an_extreme_norm_is_projected_from(capsys, tmp_path, pole,
                                                      unit):
    # the pole is rescaled by a power of two before it is normalised, so
    # its norm neither overflows to a zero pole nor underflows to inf/NaN
    base = tmp_path / "link"
    code, out, err = run(capsys, "sample-link", "--germ", "z1^2+z2^3",
                         "--count", "40", "--pole", pole, "--out", str(base))
    assert code == 0 and err == ""
    files = report_of(out)["result"]["files"]
    assert files["pole_perturbed"] is False
    np.testing.assert_allclose(files["pole"], 0.5 * np.array(unit),
                               rtol=0.0, atol=1e-15)
    vertices = np.array([[float(v) for v in ln.split()[1:]] for ln in
                         (tmp_path / "link.obj").read_text().splitlines()
                         if ln.startswith("v ")])
    assert vertices.shape == (40, 3) and np.isfinite(vertices).all()


def _start_flag(point) -> str:
    return "--start=" + ",".join(repr(float(v)) for v in point)


def test_report_points_feed_back_as_start(capsys):
    # a flow endpoint and a dreg witness, passed to --start unchanged, are
    # the start the next job reports
    flow = ("flow", "--germ", "z1^2+z2^3", "--kind", "monodromy", "--t1",
            "0.5")
    code, out, _ = run(capsys, *flow, "--seed", "1")
    assert code == 0
    endpoint = report_of(out)["result"]["endpoint"]
    code, out, _ = run(capsys, "dreg", "--germ", "z1^2+z2^3", "--budget",
                       "2000", "--polish", "0")
    assert code == 0
    witness = report_of(out)["result"]["witness"]
    for point in (endpoint, witness):
        code, out, _ = run(capsys, *flow, _start_flag(point))
        assert code == 0
        assert report_of(out)["result"]["start"] == point


def test_unknown_config_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "info", "germ": "z1",
                               "bogus_key": 1}))
    code, _, err = run(capsys, "--config", str(cfg))
    assert code == 2
    assert "bogus_key" in err


def test_germ_syntax_error_exit(capsys):
    code, _, err = run(capsys, "info", "--germ", "z1 +")
    assert code == 2
    assert "germ" in err


def test_missing_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "command" in err


def test_eta_above_radius_rejected(capsys):
    code, _, err = run(capsys, "tube-check", "--germ", "z1", "--radius",
                       "0.5", "--eta", "0.5")
    assert code == 2
    assert "eta" in err


def test_flags_override_config_and_both_are_recorded(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "info", "germ": "z1",
                               "radius": 0.4}))
    code, out, _ = run(capsys, "--config", str(cfg), "--radius", "0.5")
    assert code == 0
    rep = report_of(out)
    assert rep["config"]["radius"] == 0.5
    assert rep["config_file"]["radius"] == 0.4
    assert rep["flag_overrides"]["radius"] == 0.5


def test_theta_accepts_pi_expressions(capsys):
    code, out, _ = run(capsys, "info", "--germ", "z1", "--theta", "pi/2")
    assert code == 0
    rep = report_of(out)
    assert abs(rep["config"]["theta"] - 1.5707963267948966) < 1e-15


def test_reports_are_byte_identical(capsys, tmp_path):
    # identical (config, seed) must reproduce identical bytes, so both runs
    # write to the same report path
    path = tmp_path / "r.json"
    blobs = []
    for _ in range(2):
        code, _, _ = run(capsys, "dreg", "--germ", "z1^2+z2^3",
                         "--budget", "2000", "--polish", "3",
                         "--report", str(path))
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_dreg_negative_control_exits_one(capsys):
    code, out, _ = run(capsys, "dreg", "--germ", "z1*zbar1 + i*z1^2*zbar1^2",
                       "--n", "1", "--budget", "500", "--polish", "0")
    assert code == 1
    rep = report_of(out)
    assert rep["passed"] is False
    assert rep["result"]["verdict"] is False


def test_sample_link_emits_csv_and_obj(capsys, tmp_path):
    base = tmp_path / "link"
    code, out, _ = run(capsys, "sample-link", "--germ", "z1^2+z2^3",
                       "--count", "40", "--out", str(base))
    assert code == 0
    rep = report_of(out)
    assert rep["result"]["count"] == 40
    csv_lines = (tmp_path / "link.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 41
    obj_lines = [ln for ln in
                 (tmp_path / "link.obj").read_text().strip().split("\n")
                 if ln.startswith("v ")]
    assert len(obj_lines) == 40
    assert rep["result"]["files"]["obj_vertices"] == 40


def test_sample_link_default_pole_perturbation_warns(capsys, tmp_path):
    # the default pole sits on the theta + pi/2 member of this germ, so the
    # auto-perturbation path must engage and leave a warning
    base = tmp_path / "link2"
    code, out, _ = run(capsys, "sample-link", "--germ", "z1^2+z2^3",
                       "--theta", "pi/2", "--count", "20",
                       "--out", str(base))
    assert code == 0
    rep = report_of(out)
    if rep["result"]["files"]["pole_perturbed"]:
        assert any("pole" in w for w in rep["warnings"])


def test_flow_command_writes_trace_rows(capsys, tmp_path):
    base = tmp_path / "trace"
    code, out, _ = run(capsys, "flow", "--germ", "z1", "--n", "2",
                       "--kind", "monodromy", "--start", "0.5,0,0,0",
                       "--out", str(base))
    assert code == 0
    rep = report_of(out)
    rows = rep["result"]["csv_rows"]
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert len(lines) == rows + 1
    assert rep["result"]["termination"] == "completed"
    assert rep["result"]["n_accepted"] == rows


def test_unstable_euler_exits_three_with_partial(capsys, tmp_path):
    os.chdir(tmp_path)
    code, _, err = run(capsys, "euler", "--germ", "z1^2+z2^3",
                       "--budget", "50", "--report", str(tmp_path / "r.json"))
    assert code == 3
    partial = tmp_path / "r.json.partial"
    assert partial.exists()
    payload = json.loads(partial.read_text())
    assert payload["error"] == "Unstable"
    assert "inventory" in payload


@pytest.mark.parametrize(
    "error", [c for c in PencilLabError.__subclasses__()
              if c is not GermSyntaxError], ids=lambda c: c.__name__)
def test_every_numerical_failure_exits_three(capsys, monkeypatch, error):
    def fail(cfg, germ, warnings):
        raise error("forced")

    monkeypatch.setitem(cli.DISPATCH, "info", fail)
    code, _, err = run(capsys, "info", "--germ", "z1")
    assert code == 3
    assert f"numerical failure ({error.__name__}): forced" in err


def test_monodromy_half_revolution_flips_every_record(capsys):
    for revolutions, flipped in (("0.5", True), ("1", None)):
        code, out, _ = run(capsys, "monodromy", "--germ", "z1^2+z2^3",
                           "--revolutions", revolutions, "--count", "3")
        assert code == 0
        records = report_of(out)["result"]["records"]
        assert len(records) == 3
        assert all(r["half_side_flipped"] is flipped for r in records)


def test_failing_monodromy_start_keeps_the_finished_ones(capsys, monkeypatch,
                                                        tmp_path):
    calls = []
    real = cli.monodromy_return

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise StepCollapse("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "monodromy_return", second_fails)
    report = tmp_path / "r.json"
    code, _, err = run(capsys, "monodromy", "--germ", "z1^2+z2^3",
                       "--count", "3", "--report", str(report))
    assert code == 3
    assert "numerical failure (StepCollapse): forced" in err
    assert not report.exists()
    payload = json.loads((tmp_path / "r.json.partial").read_text())
    assert payload["error"] == "StepCollapse"
    assert payload["inventory"]["failed_start"] == 1
    assert len(payload["inventory"]["records"]) == 1


def test_unwritable_report_exits_four(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "r.json"
    code, _, err = run(capsys, "info", "--germ", "z1",
                       "--report", str(target))
    assert code == 4
    assert "io" in err


def test_equivalence_command_small_run(capsys):
    code, out, _ = run(capsys, "equivalence", "--germ", "z1^2+z2^3",
                       "--count", "5")
    assert code == 0
    rep = report_of(out)
    assert rep["result"]["succeeded"] == 5
    assert rep["result"]["max_theta_drift"] < 1e-6


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_readme_command_lines_load():
    # every example of the README's command line block parses, validates
    # and resolves its germ; none of the jobs is run
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("pencillab ")]
    assert len(lines) >= 10
    for line in lines:
        cfg, _, _ = load_job(build_parser().parse_args(shlex.split(line)[1:]))
        if cfg["command"] != "mu":
            resolve_germ(cfg)
