"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints one [acceptance] line so a plain run shows a pass/fail
line per criterion; pytest -v adds the same granularity by test name.
"""

import functools
import math
import time

import numpy as np

from pencillab._num import canonical_json, sobol_ball, stream, to_complex
from pencillab.cli import _fiber_starts, _sphere_starts
from pencillab.flows import (FlowKind, FlowSpec, equivalence_transport,
                             integrate, monodromy_return)
from pencillab.germ import evaluate, parse_germ
from pencillab.pencil import blowup_residual, sample_fiber, spherefication_batch
from pencillab.regularity import (critical_value_isolation_scan,
                                  d_regularity_search, radial_lambda_scan,
                                  strong_milnor_check)
from pencillab.topology import (closed_form_mu, double_fiber_consistency,
                                link_surface_euler, staircase_mu)

BRIESKORN = parse_germ("z1^2 + z2^3", 2)

SEARCH_GERMS = [
    ("z1^2 + z2^3", 2, True),
    ("z1^2 + z2^3 + z3^5", 3, True),
    ("z1^2*zbar2 + z2^2*zbar1", 2, False),
    ("z1*zbar2", 2, False),
]
SEARCH_RADII = (0.1, 0.3, 0.5)


def ok(n, label=""):
    print(f"[acceptance] criterion {n}: PASS {label}".rstrip())


@functools.lru_cache(maxsize=None)
def search_report(text, n, radius, holomorphic):
    g = parse_germ(text, n)
    return d_regularity_search(g, radius, budget=100000, seed=0,
                               polish_runs=100,
                               collect_milnor=bool(holomorphic))


def test_criterion_01_genus_law():
    for q in (2, 3, 4, 5):
        g = parse_germ(f"z1^2 + z2^{q}", 2)
        for theta in (0.0, math.pi / 2):
            t0 = time.time()
            inv, chi = link_surface_euler(g, theta, 0.5, budget=100000,
                                          seed=0)
            elapsed = time.time() - t0
            assert chi == 4 - 2 * q, (q, theta, chi)
            assert inv.termination == "stable"
            assert inv.seeds_used <= 100000
            assert elapsed < 300.0
            # five independent re-draws of the counting functional
            rng = stream(123, 0xABC)
            for _ in range(5):
                ell = rng.normal(size=4)
                _, chi_r = link_surface_euler(g, theta, 0.5, budget=100000,
                                              seed=0, ell_seed=ell)
                assert chi_r == 4 - 2 * q
    ok(1, "(chi = 4 - 2q, q in 2..5, both angles, 5 re-draws)")


def test_criterion_02_double_of_fiber():
    cases = ["z1^2 + z2^2", "z1^2 + z2^3", "z1^2 + z2^4", "z1^2 + z2^5",
             "z1^3 + z2^4", "z1^3 + z2^5"]
    for text in cases:
        g = parse_germ(text, 2)
        rep = double_fiber_consistency(g, 0.0, 0.5, budget=100000, seed=0)
        mu = staircase_mu(rep.exponents).mu
        assert rep.passed
        assert rep.mu == mu
        assert rep.chi == 2 * (1 - mu)
    ok(2, "(chi = 2(1 - mu) on six power sums)")


def test_criterion_03_mu_oracle_equivalence():
    rng = stream(2026, 0xACC3)
    done = 0
    while done < 50:
        k = int(rng.integers(1, 5))
        exps = tuple(int(e) for e in rng.integers(2, 12, size=k))
        prod = 1
        for a in exps:
            prod *= a - 1
        if prod > 10 ** 6:
            continue
        assert closed_form_mu(exps).mu == staircase_mu(exps).mu
        done += 1
    ok(3, "(50 random tuples, exact)")


def test_criterion_04_d_regularity():
    for text, n, holo in SEARCH_GERMS:
        for radius in SEARCH_RADII:
            rep = search_report(text, n, radius, holo)
            assert rep.verdict is True, (text, radius, rep.min_defect)
            assert rep.min_defect > rep.pass_threshold
    # determinism per seed: a fresh identical search reproduces the bytes
    g = parse_germ("z1^2 + z2^3", 2)
    again = d_regularity_search(g, 0.5, budget=100000, seed=0,
                                polish_runs=100, collect_milnor=True)
    assert canonical_json(again) == canonical_json(
        search_report("z1^2 + z2^3", 2, 0.5, True))
    lin = d_regularity_search(parse_germ("z1", 2), 0.5, budget=20000, seed=0,
                              polish_runs=20)
    assert abs(lin.min_defect - 1.0) < 1e-10
    ok(4, "(4 germs x 3 radii, deterministic, linear germ exact)")


# min_defect of each criterion-4 search as polished by scipy's BFGS, one
# start at a time (budget 1e5, seed 0, 100 polish runs); the batched polish
# must reach each of them or go below
BFGS_MINIMA = {
    ("z1^2 + z2^3", 0.1): 0.9909871211019342,
    ("z1^2 + z2^3", 0.3): 0.9834177080274509,
    ("z1^2 + z2^3", 0.5): 0.9808107831125359,
    ("z1^2 + z2^3 + z3^5", 0.1): 0.9909872463117777,
    ("z1^2 + z2^3 + z3^5", 0.3): 0.97518370035353,
    ("z1^2 + z2^3 + z3^5", 0.5): 0.9324719160239012,
    ("z1^2*zbar2 + z2^2*zbar1", 0.1): 1.0,
    ("z1^2*zbar2 + z2^2*zbar1", 0.3): 1.0,
    ("z1^2*zbar2 + z2^2*zbar1", 0.5): 1.0,
    ("z1*zbar2", 0.1): 1.0,
    ("z1*zbar2", 0.3): 1.0,
    ("z1*zbar2", 0.5): 1.0,
}


def test_criterion_04_polish_reaches_the_bfgs_minima():
    for text, n, holo in SEARCH_GERMS:
        for radius in SEARCH_RADII:
            rep = search_report(text, n, radius, holo)
            bound = BFGS_MINIMA[text, radius] * (1.0 + 1e-6)
            assert rep.min_defect <= bound, (text, radius, rep.min_defect)
    ok(4, "(polished minima at or below the scalar BFGS ones)")


def test_criterion_05_milnor_quarter_pi():
    for text, n, holo in SEARCH_GERMS:
        if not holo:
            continue
        for radius in SEARCH_RADII:
            rep = search_report(text, n, radius, holo)
            assert rep.milnor is not None
            assert rep.milnor["violations"] == 0
            assert rep.milnor["checked"] > 0
    g = parse_germ("z1^2 + z2^2", 2)
    radii = [0.5 * 2.0 ** (-k) for k in range(10)]
    # real directions: stacked, the imaginary parts are zero
    for d in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 3.0]):
        for e in radial_lambda_scan(g, np.array(d + [0.0, 0.0]), radii):
            assert e.error is None
            assert abs(e.arg_lambda_prime) < 1e-9
    ok(5, "(zero violations, radial arg = 0 within 1e-9)")


def test_criterion_06_monodromy():
    g1 = parse_germ("z1", 2)
    ret = monodromy_return(g1, np.array([1.0 + 0.0j, 0.5 + 0.0j]),
                           revolutions=1.0)
    assert np.max(np.abs(np.asarray(ret.endpoint)
                         - np.array([1.0, 0.5]))) < 1e-7
    assert ret.winding == 1
    half = monodromy_return(g1, np.array([0.8 + 0.0j, 0.3 + 0.0j]),
                            revolutions=0.5)
    assert half.half_side_flipped is True
    assert np.max(np.abs(np.asarray(half.endpoint)
                         - np.array([-0.8, 0.3]))) < 1e-7

    starts = _fiber_starts(BRIESKORN, 0.0, 0.5, 50, 11, 1e-10)
    for z0 in starts:
        r = monodromy_return(BRIESKORN, z0, revolutions=1.0)
        assert r.drift_norm < 1e-6 * 0.5
        assert r.drift_absf_rel < 1e-6
        assert r.winding == 1
    ok(6, "(linear closed forms, 50 Brieskorn starts)")


def test_criterion_07_fibration_equivalence():
    eta = 1e-3 * BRIESKORN.scale(0.5)
    starts = _sphere_starts(BRIESKORN, 0.5, eta, 100, 0)
    spec = FlowSpec(FlowKind.TUBE_EQUIVALENCE, max_step=0.25)
    recs = equivalence_transport(BRIESKORN, 0.5, eta, starts, spec=spec)
    assert len(recs) == 100
    assert all(r.success for r in recs)
    assert max(r.theta_drift for r in recs) < 1e-6
    assert max(r.max_norm for r in recs) <= 0.5 * (1.0 + 1e-9)
    ok(7, "(100/100 reach the tube, theta drift < 1e-6)")


def test_criterion_08_conical_structure():
    spec = FlowSpec(FlowKind.RADIAL)
    total = 0
    for k, theta in enumerate([0.0, math.pi / 2, math.pi,
                               3 * math.pi / 2]):
        starts = _fiber_starts(BRIESKORN, theta, 0.5, 5, 20 + k, 1e-10)
        for z0 in starts:
            tr = integrate(BRIESKORN, spec, z0, (0.25, 0.01))
            assert tr.termination == "completed"
            assert tr.drift["theta"] < 1e-8
            assert tr.drift["affine"] < 1e-8
            total += 1
    assert total == 20
    ok(8, "(20 starts, 4 angles, drift < 1e-8)")


def _endpoint_displacements(germ, kind, x0, span, max_step):
    ends = []
    for k in range(4):
        spec = FlowSpec(kind, rtol=1e-5, atol=1e-7,
                        max_step=max_step).scaled(0.5 ** k)
        tr = integrate(germ, spec, x0, span)
        ends.append(np.concatenate([tr.points[-1].real,
                                    tr.points[-1].imag]))
    return [float(np.linalg.norm(ends[i + 1] - ends[i])) for i in range(3)]


def test_criterion_09_step_halving():
    fs = sample_fiber(BRIESKORN, 0.0, 0.5, count=3, seed=3)
    z0 = fs.points[0]
    f0 = abs(complex(evaluate(BRIESKORN, z0)))
    eta = 1e-3 * BRIESKORN.scale(0.5)
    t_tube = math.log(eta / f0)
    runs = [
        (FlowKind.MONODROMY, (0.0, 2 * math.pi), 7.0),
        (FlowKind.RADIAL, (0.25, 0.01), 0.5),
        (FlowKind.TUBE_EQUIVALENCE, (0.0, t_tube), abs(t_tube)),
    ]
    for kind, span, cap in runs:
        d = _endpoint_displacements(BRIESKORN, kind, z0, span, cap)
        assert d[0] > d[1] > d[2] > 0.0, (kind, d)
    ok(9, "(displacement monotone over 3 halvings, all kinds)")


def test_criterion_10_spherefication_identity():
    texts = [(t, n) for t, n, _ in SEARCH_GERMS] + [("z1", 2)]
    for text, n in texts:
        g = parse_germ(text, n)
        X = sobol_ball(9, (0xF00, 0), 10000, 2 * n, 0.5)
        Z = to_complex(X)
        f = evaluate(g, Z)
        r = np.linalg.norm(X, axis=1)
        keep = np.abs(f) > g.axis_floor(0.5)
        Z, f, r = Z[keep], f[keep], r[keep]
        F = spherefication_batch(g, Z)
        assert np.max(np.abs(np.abs(F) - r) / r) < 1e-14
        # blow-up incidence of (x, Psi(x)) with Psi the normalized value
        t = np.stack([f.real, f.imag], axis=-1)
        t = t / np.linalg.norm(t, axis=-1, keepdims=True)
        resid = np.abs(f.real * t[:, 1] - f.imag * t[:, 0])
        assert np.max(resid / np.abs(f)) < 1e-13
        for i in range(0, len(Z), max(1, len(Z) // 100)):
            assert abs(blowup_residual(g, Z[i], t[i])) < 1e-13 * abs(f[i])
    ok(10, "(identity within 1e-14, incidence within 1e-13)")


def test_criterion_11_strong_milnor_real_case():
    for text in ("z1*zbar2", "z1^2*zbar2 + z2^2*zbar1"):
        g = parse_germ(text, 2)
        sm = strong_milnor_check(g, 0.5, budget=10000, seed=0)
        assert sm.verdict is True
        assert sm.min_value > 0.0
        cs = critical_value_isolation_scan(g, 0.5, budget=10000, seed=0)
        assert cs.verdict is True
        assert cs.min_value > 0.0
    ok(11, "(positive minima for both mixed germs)")
