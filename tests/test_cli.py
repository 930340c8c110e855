"""Exit codes, config merging, deterministic reports, and cloud emission."""

import json
import os
import shlex
from pathlib import Path

import pytest

from pencillab import cli
from pencillab.cli import FIELDS, build_parser, load_job, main, resolve_germ
from pencillab.errors import GermSyntaxError, PencilLabError


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
    assert rep["schema"] == "1"
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
