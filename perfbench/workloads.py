"""The four benchmark workloads: inputs from the workload seed, jobs, checks.

A workload is a closed loop: one client runs its jobs back to back, each job
starting when the previous one has returned. Jobs are grouped in rounds; a
round is what one verification run of a user or of the acceptance gate asks
for (the certify searches at one radius, one of each scan, seventeen
trajectories, the Euler characteristics of the q-family at both angles).
Every job checks its result at the acceptance tolerances; a failed check or
a typed PencilLabError marks the job failed and the loop goes on.

The program only ever receives the generated inputs: germs, radii, program
seeds, angles, functionals and start points.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from pencillab import _num, cli, flows, germ, pencil, regularity, topology
from pencillab.errors import PencilLabError

WORKLOADS = ("certify", "scan", "transport", "euler")
RADIUS = 0.5
GERMS = {
    "brieskorn": ("z1^2 + z2^3", 2),
    "brieskorn3": ("z1^2 + z2^3 + z3^5", 3),
    "mixed": ("z1^2*zbar2 + z2^2*zbar1", 2),
    "mixed_linear": ("z1*zbar2", 2),
    "linear": ("z1", 2),
}
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")
# rounds run by the traced pass; fixed so that work counters repeat exactly
TRACE_ROUNDS = {"certify": 1, "scan": 8, "transport": 4, "euler": 3}
TRANSPORT_ROUNDS = 10
# certify program seeds 0..REFERENCE_SEEDS-1 have a recorded reference
REFERENCE_SEEDS = 16


class CheckFailed(Exception):
    """A job returned, but its result misses an acceptance tolerance."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    verify: Callable[[object], None]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


def load_references() -> Dict[str, Dict[int, float]]:
    """Certified minima of this benchmark's certify searches, per germ and
    program seed, as recorded by make_references.py."""
    with open(REFERENCES) as fh:
        raw = json.load(fh)
    return {name: {int(s): float(v) for s, v in per.items()}
            for name, per in raw["min_defect"].items()}


# ---------------------------------------------------------------------------
# certify: d_regularity_search with polish, the criterion 4/5 traffic
# ---------------------------------------------------------------------------

CERTIFY_BUDGET = 100000
CERTIFY_POLISH = 100


def certify_search(g, seed: int, holomorphic: bool):
    return regularity.d_regularity_search(
        g, RADIUS, budget=CERTIFY_BUDGET, seed=seed,
        polish_runs=CERTIFY_POLISH, collect_milnor=holomorphic)


def _certify_job(name: str, g, seed: int, ref: float) -> Job:
    holo = g.is_holomorphic

    def verify(rep):
        check(rep.verdict is True,
              f"{name} seed {seed}: verdict {rep.verdict}")
        check(rep.min_defect <= ref * (1.0 + 1e-6),
              f"{name} seed {seed}: min_defect {rep.min_defect!r} above "
              f"reference {ref!r}")
        if holo:
            check(rep.milnor["violations"] == 0 and rep.milnor["checked"] > 0,
                  f"{name} seed {seed}: Milnor tally {rep.milnor}")

    return Job("certify." + name, lambda: certify_search(g, seed, holo),
               verify)


def _linear_job(g, seed: int) -> Job:
    def verify(rep):
        check(abs(rep.min_defect - 1.0) < 1e-10,
              f"linear seed {seed}: min_defect {rep.min_defect!r} != 1")

    return Job("certify.linear", lambda: regularity.d_regularity_search(
        g, RADIUS, budget=20000, seed=seed, polish_runs=20), verify)


# Program seeds per round for each of the two mixed germs. Their searches
# take about 0.15 s against 4-10 s for the holomorphic ones, so they hold
# the job median, which varies widely with the program seed. A run has at
# least two rounds, so every run searches them with all reference seeds.
MIXED_SEEDS = REFERENCE_SEEDS // 2


class CertifyPlan:
    """Each round searches the two holomorphic acceptance germs and the
    linear control at r = 0.5 with one program seed from the reference
    table, and the two mixed germs with MIXED_SEEDS of them."""

    def __init__(self, seed: int, germs):
        self.germs = germs
        self.refs = load_references()
        self.seeds = [int(s) for s in
                      _rng(seed, 1).permutation(REFERENCE_SEEDS)]

    def _job(self, name: str, s: int) -> Job:
        return _certify_job(name, self.germs[name], s, self.refs[name][s])

    def round(self, r: int) -> List[Job]:
        s = self.seeds[r % REFERENCE_SEEDS]
        jobs = [self._job(name, s) for name in ("brieskorn", "brieskorn3")]
        for j in range(MIXED_SEEDS):
            ms = self.seeds[(MIXED_SEEDS * r + j) % REFERENCE_SEEDS]
            jobs += [self._job(name, ms) for name in ("mixed",
                                                      "mixed_linear")]
        jobs.append(_linear_job(self.germs["linear"], s))
        return jobs


# ---------------------------------------------------------------------------
# scan: cover-only batch jobs (milnor-diag, strong-milnor, crit-scan,
# tube-check, fiber sampling, spherefication identity)
# ---------------------------------------------------------------------------

SCAN_BUDGET = 100000


def _verdict_job(kind: str, call) -> Job:
    def verify(rep):
        check(rep.verdict is True, f"{kind}: verdict {rep.verdict}")

    return Job(kind, call, verify)


def _milnor_cover_job(name: str, g, seed: int) -> Job:
    def verify(rep):
        check(rep.verdict is True, f"cover {name}: verdict {rep.verdict}")
        check(rep.milnor["violations"] == 0,
              f"cover {name}: {rep.milnor['violations']} Milnor violations")

    return Job("scan.cover." + name, lambda: regularity.d_regularity_search(
        g, RADIUS, budget=SCAN_BUDGET, seed=seed, polish_runs=0,
        collect_milnor=True), verify)


def _fiber_job(g, theta: float, seed: int) -> Job:
    count = 20000
    scale = g.scale(RADIUS)

    def verify(fs):
        check(fs.count > 0, "sample_fiber returned no points")
        X = _num.to_real(fs.points)
        sphere = np.abs(np.sum(X * X, axis=-1) / RADIUS ** 2 - 1.0)
        member = np.abs(pencil.h_theta(g, theta, fs.points)) / scale
        check(float(np.max(sphere)) < 1e-10 and float(np.max(member)) < 1e-10,
              f"fiber points off the member sphere: {np.max(sphere):.3e}, "
              f"{np.max(member):.3e}")

    return Job("scan.sample_fiber", lambda: pencil.sample_fiber(
        g, theta, RADIUS, count, seed), verify)


def _spherefication_job(name: str, g, seed: int) -> Job:
    """The inputs (ball points off the axis and their norms) are made here,
    when the round is built, so that the job times only the program."""
    X = _num.sobol_ball(seed, (0xF00, 0), 100000, 2 * g.n, RADIUS)
    Z = _num.to_complex(X)
    keep = np.abs(germ.evaluate(g, Z)) > g.axis_floor(RADIUS)
    Z, r = Z[keep], np.linalg.norm(X[keep], axis=1)

    def verify(F):
        err = float(np.max(np.abs(np.abs(F) - r) / r))
        check(err < 1e-14, f"sphere identity {name}: {err:.3e}")

    return Job("scan.spherefication." + name,
               lambda: pencil.spherefication_batch(g, Z), verify)


class ScanPlan:
    def __init__(self, seed: int, germs):
        self.seed = seed
        self.germs = germs
        self.eta = 1e-3 * germs["brieskorn"].scale(RADIUS)

    def round(self, r: int) -> List[Job]:
        rng = _rng(self.seed, 2, r)
        G = self.germs
        s = [_program_seed(rng) for _ in range(9)]
        jobs = [_milnor_cover_job("brieskorn", G["brieskorn"], s[0]),
                _milnor_cover_job("brieskorn3", G["brieskorn3"], s[1])]
        for k, name in enumerate(("mixed", "mixed_linear")):
            g = G[name]
            jobs.append(_verdict_job(
                "scan.strong_milnor." + name,
                lambda g=g, sd=s[2 + k]: regularity.strong_milnor_check(
                    g, RADIUS, budget=SCAN_BUDGET, seed=sd)))
            jobs.append(_verdict_job(
                "scan.crit_scan." + name,
                lambda g=g, sd=s[4 + k]:
                    regularity.critical_value_isolation_scan(
                        g, RADIUS, budget=SCAN_BUDGET, seed=sd)))
        jobs.append(_verdict_job(
            "scan.tube_check", lambda: regularity.tube_sphere_transversality(
                G["brieskorn"], RADIUS, self.eta, seed=s[6])))
        theta = float(rng.uniform(0, 2 * math.pi))
        jobs.append(_fiber_job(G["brieskorn"], theta, s[7]))
        name = ("brieskorn", "brieskorn3", "mixed", "mixed_linear")[r % 4]
        jobs.append(_spherefication_job(name, G[name], s[8]))
        return jobs


# ---------------------------------------------------------------------------
# transport: tube equivalence, monodromy and radial trajectories
# (criteria 6, 7 and 8) on z1^2 + z2^3 at r = 0.5
# ---------------------------------------------------------------------------

def criterion8_starts(g) -> np.ndarray:
    """The 20 radial starts of acceptance criterion 8: five fiber points at
    each of four angles, program seeds 20..23.

    These are fixed, not drawn from the workload seed: about one fiber start
    in a hundred drawn at random sends the radial flow through the zero set
    while it still reports `completed` (see the xfail test in
    tests/test_perfbench.py), and a benchmark run must not fail.
    """
    return np.concatenate([
        cli._fiber_starts(g, theta, RADIUS, 5, 20 + k, 1e-10)
        for k, theta in enumerate((0.0, math.pi / 2, math.pi,
                                   1.5 * math.pi))])


class TransportPlan:
    """Start points are generated once (set-up); round r takes the r-th
    slice: 10 sphere starts, 5 fiber starts, 2 radial starts."""

    def __init__(self, seed: int, germs):
        g = self.g = germs["brieskorn"]
        rng = _rng(seed, 3)
        self.eta = 1e-3 * g.scale(RADIUS)
        n = TRANSPORT_ROUNDS
        self.sphere = cli._sphere_starts(g, RADIUS, self.eta, 10 * n,
                                         _program_seed(rng))
        self.fiber = cli._fiber_starts(g, float(rng.uniform(0, 2 * math.pi)),
                                       RADIUS, 5 * n, _program_seed(rng),
                                       1e-10)
        self.radial = criterion8_starts(g)

    def round(self, r: int) -> List[Job]:
        k = r % TRANSPORT_ROUNDS
        g, eta = self.g, self.eta
        jobs = []
        tube = flows.FlowSpec(flows.FlowKind.TUBE_EQUIVALENCE, max_step=0.25)
        for z in self.sphere[10 * k:10 * k + 10]:
            jobs.append(Job("transport.tube",
                            lambda z=z: flows.equivalence_transport(
                                g, RADIUS, eta, z[None, :], spec=tube)[0],
                            _verify_tube))
        for z in self.fiber[5 * k:5 * k + 5]:
            jobs.append(Job("transport.monodromy",
                            lambda z=z: flows.monodromy_return(g, z, 1.0),
                            _verify_monodromy))
        radial = flows.FlowSpec(flows.FlowKind.RADIAL)
        for z in self.radial[2 * k:2 * k + 2]:
            jobs.append(Job("transport.radial",
                            lambda z=z: flows.integrate(g, radial, z,
                                                        (0.25, 0.01)),
                            _verify_radial))
        return jobs


def _verify_tube(rec) -> None:
    check(rec.success, f"tube transport failed ({rec.error})")
    check(rec.theta_drift < 1e-6, f"tube theta drift {rec.theta_drift:.3e}")
    check(rec.max_norm <= RADIUS * (1.0 + 1e-9),
          f"tube transport left the ball: {rec.max_norm!r}")


def _verify_monodromy(ret) -> None:
    check(ret.winding == 1, f"monodromy winding {ret.winding}")
    check(ret.drift_norm < 1e-6 * RADIUS,
          f"monodromy norm drift {ret.drift_norm:.3e}")
    check(ret.drift_absf_rel < 1e-6,
          f"monodromy |f| drift {ret.drift_absf_rel:.3e}")


def _verify_radial(tr) -> None:
    check(tr.termination == "completed", f"radial: {tr.termination}")
    check(tr.drift["theta"] < 1e-8 and tr.drift["affine"] < 1e-8,
          f"radial drift {tr.drift}")


# ---------------------------------------------------------------------------
# euler: link Euler characteristics of z1^2 + z2^q (criterion 1)
# ---------------------------------------------------------------------------

EULER_BUDGET = 100000


class EulerPlan:
    """Round r counts q = 2..5 at both angles with one functional; every
    sixth round uses the default functional of a fresh program seed, the
    five rounds after it redraw the functional."""

    def __init__(self, seed: int, germs):
        self.seed = seed
        self.family = {q: germ.parse_germ(f"z1^2 + z2^{q}", 2)
                       for q in (2, 3, 4, 5)}

    def round(self, r: int) -> List[Job]:
        link_seed = _program_seed(_rng(self.seed, 4, r // 6))
        ell = None if r % 6 == 0 else _rng(self.seed, 5, r).normal(size=4)
        jobs = []
        for q, g in self.family.items():
            for theta in (0.0, math.pi / 2):
                def verify(out, q=q):
                    inv, chi = out
                    check(chi == 4 - 2 * q, f"chi {chi} != {4 - 2 * q}")
                    check(inv.termination == "stable", inv.termination)
                    check(inv.seeds_used <= EULER_BUDGET,
                          f"{inv.seeds_used} seeds used")

                jobs.append(Job(
                    f"euler.q{q}",
                    lambda g=g, theta=theta: topology.link_surface_euler(
                        g, theta, RADIUS, budget=EULER_BUDGET,
                        seed=link_seed, ell_seed=ell),
                    verify))
        return jobs


PLANS = {"certify": CertifyPlan, "scan": ScanPlan,
         "transport": TransportPlan, "euler": EulerPlan}


def setup(workload: str, seed: int):
    """Parse the germs and generate the workload's inputs."""
    germs = {name: germ.parse_germ(text, n)
             for name, (text, n) in GERMS.items()}
    return PLANS[workload](seed, germs)


def run_job(job: Job, pause=contextlib.nullcontext) -> Tuple[bool, str,
                                                             float]:
    """Run one job, then check it; returns (ok, reason, seconds).

    Only job.run() is timed; the check runs after the clock stops, inside
    pause() (the tracer's, in the traced run, so that the check's own calls
    into the program are not recorded). A typed numerical failure or a
    missed tolerance fails the job. Any other exception fails it too, with
    its traceback, so that one broken job does not end the run.
    """
    t0 = time.perf_counter()
    try:
        try:
            out = job.run()
        finally:
            seconds = time.perf_counter() - t0
        with pause():
            job.verify(out)
    except (CheckFailed, PencilLabError) as exc:
        return False, f"{job.kind}: {type(exc).__name__}: {exc}", seconds
    except Exception:
        return False, f"{job.kind}: {traceback.format_exc()}", seconds
    return True, "", seconds
