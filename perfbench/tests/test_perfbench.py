"""Tests of the benchmark itself: repeatable work counters, a tracer that
survives renamed functions and leaves the program untouched, failed checks
that are counted without ending the run, and a refusal to run without the
program."""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.optimize

from pencillab import germ, regularity
from perfbench import tracer, workloads
from perfbench.run import Loop

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
DETERMINISTIC = [m["name"] for m in SPEC["per_layer"]
                 if m["unit"] in ("count", "ratio")]

# a few cheap jobs of round 0 per workload, chosen to cover every layer
SAMPLE_JOBS = {
    "certify": ("certify.mixed", "certify.mixed_linear", "certify.linear"),
    "scan": None,
    "transport": ("transport.tube", "transport.monodromy", "transport.radial"),
    "euler": ("euler.q2",),
}


def traced_counters(workload: str, seed: int) -> dict:
    tr = tracer.Tracer()
    with tr.installed():
        plan = workloads.setup(workload, seed)
        kinds = SAMPLE_JOBS[workload]
        seen = set()
        with tr.paused():
            jobs = plan.round(0)
        for job in jobs:
            if kinds is not None and (job.kind not in kinds
                                      or job.kind in seen):
                continue
            seen.add(job.kind)
            ok, why, _ = workloads.run_job(job, tr.paused)
            assert ok, why
    metrics = tr.metrics()
    return {name: metrics[name] for name in DETERMINISTIC if name in metrics}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counters_repeat_for_the_same_seed(workload):
    first = traced_counters(workload, 5)
    assert first == traced_counters(workload, 5)
    assert first["trace.spans"] > 0
    assert first["trace.missing"] == 0


def test_every_per_layer_metric_is_produced():
    produced = set(tracer.Tracer().metrics()) | {
        "trace.untraced_s", "trace.traced_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


def test_uninstall_restores_the_program():
    original = germ.real_gradients
    tr = tracer.Tracer()
    tr.install()
    assert regularity.real_gradients is not original
    assert regularity.optimize is not scipy.optimize
    tr.uninstall()
    assert regularity.real_gradients is original
    assert germ.real_gradients is original
    assert regularity.optimize is scipy.optimize


def test_missing_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(tracer.SPANS, "flows.renamed",
                        ("flows", "no_such_function", None))
    monkeypatch.setitem(tracer.SPANS, "regularity.renamed_polish",
                        ("regularity", "no_such_module.minimize", None))
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["flows.renamed", "regularity.renamed_polish"]
    assert tr.metrics()["trace.missing"] == 2


def test_failed_check_is_counted_and_the_loop_goes_on():
    def boom():
        raise RuntimeError("program bug")

    def off_tolerance(_):
        workloads.check(False, "drift 1e-3")

    class Plan:
        def round(self, r):
            return [workloads.Job("bad", lambda: 1, off_tolerance),
                    workloads.Job("crash", boom, lambda _: None),
                    workloads.Job("good", lambda: 1, lambda _: None)]

    loop = Loop(Plan())
    loop.run_round(0)
    assert len(loop.job_s) == 3
    assert len(loop.failures) == 2
    assert loop.failures[0] == "bad: CheckFailed: drift 1e-3"
    assert "RuntimeError: program bug" in loop.failures[1]


def test_only_the_program_call_is_timed_and_traced():
    g = germ.parse_germ("z1^2 + z2^3", 2)

    def slow_check(_):
        germ.evaluate(g, np.zeros((4, 2), dtype=complex))
        time.sleep(0.2)

    class Plan:
        def round(self, r):
            germ.evaluate(g, np.zeros((3, 2), dtype=complex))
            return [workloads.Job("quick", lambda: germ.evaluate(
                g, np.zeros((2, 2), dtype=complex)), slow_check)]

    tr = tracer.Tracer()
    loop = Loop(Plan(), tracer=tr)
    with tr.installed():
        spent = loop.run_round(0)
    assert loop.failures == []
    assert spent == loop.job_s[0] < 0.1
    assert tr.metrics()["germ.batch.rows"] == 2


def test_reinstalling_does_not_repeat_missing(monkeypatch):
    monkeypatch.setitem(tracer.SPANS, "flows.renamed",
                        ("flows", "no_such_function", None))
    tr = tracer.Tracer()
    for _ in range(2):
        with tr.installed():
            pass
    assert tr.missing == ["flows.renamed"]


@pytest.mark.xfail(strict=True, reason="radial flow crosses the zero set "
                   "and still reports completed; once fixed, draw the "
                   "transport workload's radial starts from its seed")
def test_radial_transport_from_a_drawn_fiber_start():
    # fiber start 0 of program seed 638333744 at theta = 0, as a seeded
    # transport workload once drew it; theta drifts by pi on the way in
    g = germ.parse_germ("z1^2 + z2^3", 2)
    z0 = workloads.cli._fiber_starts(g, 0.0, workloads.RADIUS, 5,
                                     638333744, 1e-10)[0]
    tr = workloads.flows.integrate(
        g, workloads.flows.FlowSpec(workloads.flows.FlowKind.RADIAL), z0,
        (0.25, 0.01))
    workloads._verify_radial(tr)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
