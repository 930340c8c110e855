"""Milnor numbers, Morse counting on links, and the doubling check."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencillab import topology
from pencillab.cli import main as cli_main
from pencillab._num import (canonical_json, gauss_newton, sobol_unit_sphere,
                            stream)
from pencillab.errors import DegenerateAfterRetries, Unstable
from pencillab.germ import parse_germ, real_hessians
from pencillab.pencil import member_gradient, sphere_member_system
from pencillab.topology import (_lagrange_newton, brieskorn_exponents,
                                closed_form_mu, double_fiber_consistency,
                                link_surface_euler, staircase_mu)


@pytest.mark.parametrize("exps,mu", [
    ((2, 2), 1),
    ((2, 3), 2),
    ((3, 3), 4),
    ((2, 3, 5), 8),
    ((4,), 3),
])
def test_closed_form_mu_examples(exps, mu):
    r = closed_form_mu(exps)
    assert r.mu == mu
    assert r.method == "closed-form"
    assert r.exponents == tuple(exps)


def test_mu_rejects_small_exponents():
    with pytest.raises(ValueError):
        closed_form_mu((2, 1))
    with pytest.raises(ValueError):
        staircase_mu((1,))


@given(st.lists(st.integers(2, 12), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_staircase_equals_closed_form(exps):
    prod = 1
    for a in exps:
        prod *= a - 1
    if prod > 10 ** 6:
        return
    assert staircase_mu(exps).mu == closed_form_mu(exps).mu


def test_brieskorn_exponent_extraction():
    assert brieskorn_exponents(parse_germ("z1^2 + z2^3", 2)) == (2, 3)
    with pytest.raises(ValueError):
        brieskorn_exponents(parse_germ("z1^2 + z1*z2", 2))
    with pytest.raises(ValueError):
        brieskorn_exponents(parse_germ("z1^2 + zbar2^3", 2))


def test_link_euler_torus_case():
    # a1 = a2 = 2: the link surface is a torus
    g = parse_germ("z1^2 + z2^2", 2)
    inv, chi = link_surface_euler(g, 0.0, 0.5, budget=100000, seed=0)
    assert chi == 0
    assert inv.termination == "stable"


def test_link_euler_trefoil_double():
    g = parse_germ("z1^2 + z2^3", 2)
    inv, chi = link_surface_euler(g, 0.0, 0.5, budget=100000, seed=0)
    assert chi == -2
    assert chi % 2 == 0
    assert np.all(np.isin(inv.signs, (-1, 1)))
    assert np.all(inv.residuals < 1e-10)
    assert len(inv.values) == len(inv.points)
    assert inv.chi == chi


def test_link_euler_deterministic():
    g = parse_germ("z1^2 + z2^3", 2)
    a, _ = link_surface_euler(g, 0.0, 0.5, budget=100000, seed=4)
    b, _ = link_surface_euler(g, 0.0, 0.5, budget=100000, seed=4)
    assert canonical_json(a) == canonical_json(b)


def test_link_euler_stable_under_ell_redraw():
    g = parse_germ("z1^2 + z2^3", 2)
    rng = stream(123, 0xABC)
    for _ in range(3):
        ell = rng.normal(size=4)
        inv, chi = link_surface_euler(g, 0.0, 0.5, budget=100000, seed=0,
                                      ell_seed=ell)
        assert chi == -2


def test_link_euler_unstable_on_tiny_budget():
    g = parse_germ("z1^2 + z2^3", 2)
    with pytest.raises(Unstable) as exc:
        link_surface_euler(g, 0.0, 0.5, budget=50, seed=0)
    assert exc.value.inventory is not None
    assert exc.value.inventory.seeds_used <= 50
    with pytest.raises(ValueError, match="budget"):
        link_surface_euler(g, 0.0, 0.5, budget=0, seed=0)


@pytest.mark.parametrize("name", ["batch", "stability_batches",
                                  "ell_redraws"])
def test_link_euler_rejects_a_count_below_one(name):
    # with 0 of any of these the run would look at nothing: a
    # ZeroDivisionError, chi = 0 and "stable" after 0 batches, or a failed
    # draw with no draw made
    g = parse_germ("z1^2 + z2^3", 2)
    with pytest.raises(ValueError, match=f"^{name} must be positive$"):
        link_surface_euler(g, 0.0, 0.5, seed=0, **{name: 0})
    with pytest.raises(ValueError, match=f"^{name} must be positive$"):
        double_fiber_consistency(g, 0.0, 0.5, seed=0, **{name: 0})


def _hide_first_point(monkeypatch):
    """Wraps _morse_data so that the first point it returns reads a NaN
    residual wherever it is found again: that critical point is never
    stored, so the inventory holds an odd number of points. Flipping a
    sign instead would keep chi even, the parity of the point count."""
    morse_data = topology._morse_data
    hidden = []

    def wrapped(system, scale, X, L):
        X, L, res, det = morse_data(system, scale, X, L)
        if not hidden:
            hidden.append(X[0].copy())
        near = np.linalg.norm(X - hidden[0], axis=-1) <= 1e-6
        return X, L, np.where(near, np.nan, res), det

    monkeypatch.setattr(topology, "_morse_data", wrapped)


def test_odd_chi_raises_unstable_with_the_inventory(monkeypatch):
    _hide_first_point(monkeypatch)
    g = parse_germ("z1^2 + z2^3", 2)
    with pytest.raises(Unstable, match="odd Euler characteristic") as exc:
        link_surface_euler(g, 0.0, 0.5, seed=0)
    inv = exc.value.inventory
    assert inv.termination == "odd-chi"
    assert inv.chi % 2 == 1 and inv.chi == int(inv.signs.sum())
    assert len(inv.points) % 2 == 1
    assert inv.stability == 20
    assert inv.seeds_used == inv.batches * 200


def test_odd_chi_euler_exits_three_with_partial(capsys, monkeypatch,
                                                tmp_path):
    _hide_first_point(monkeypatch)
    report = tmp_path / "r.json"
    code = cli_main(["euler", "--germ", "z1^2+z2^3", "--report",
                     str(report)])
    assert code == 3
    assert "odd Euler characteristic" in capsys.readouterr().err
    assert not report.exists()
    payload = json.loads((tmp_path / "r.json.partial").read_text())
    assert payload["error"] == "Unstable"
    inv = payload["inventory"]
    assert inv["termination"] == "odd-chi"
    assert inv["chi"] % 2 == 1
    assert inv["seeds_used"] == inv["batches"] * 200


def _no_row_converges(stage):
    """A stand-in for one solver stage of link_surface_euler that returns
    its starting rows with none of them converged."""
    if stage == "projection":
        return "gauss_newton", lambda system, x0, *a, **k: (
            np.array(x0, dtype=float), np.zeros(len(x0), dtype=bool))
    return "_lagrange_newton", lambda germ, theta, radius, ell, X0, *a: (
        X0, np.zeros((len(X0), 2)), np.zeros(len(X0), dtype=bool))


@pytest.mark.parametrize("stage", ["projection", "lagrange-newton"])
def test_stalled_batches_do_not_close_the_stability_window(monkeypatch,
                                                           stage):
    # a batch in which no row converges has looked at nothing; counted as
    # quiet, 20 of them would end the run "stable" with chi = 0
    monkeypatch.setattr(topology, *_no_row_converges(stage))
    g = parse_germ("z1^2 + z2^3", 2)
    with pytest.raises(Unstable) as exc:
        link_surface_euler(g, 0.0, 0.5, budget=6000, seed=0)
    inv = exc.value.inventory
    assert inv.termination == "budget-exhausted"
    assert (inv.batches, inv.stability, len(inv.points)) == (30, 0, 0)


@pytest.mark.parametrize("theta", [0.0, np.pi / 2, 1.0])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_stacked_window_solves_match_per_batch_solves(q, theta):
    # link_surface_euler solves a window's batches in one stacked call of
    # each solver; that must give the bits of one call per batch
    g = parse_germ(f"z1^2 + z2^{q}", 2)
    radius, scale_h = 0.5, g.scale(0.5)
    system = sphere_member_system(g, theta, radius)
    scale = np.array([radius ** 2, scale_h])
    ell = stream(0, 0xE11, 0).normal(size=4)
    ell /= np.linalg.norm(ell)
    # the first 20 seed batches of link_surface_euler's first draw
    seeds = np.split(radius * sobol_unit_sphere(0, (0x5EED, 0, 0), 4000, 4),
                     20)

    def project(x0):
        return gauss_newton(system, x0, scale, tol=1e-12,
                            step_cap=0.5 * radius)

    def polish(X0):
        return _lagrange_newton(g, theta, radius, ell, X0, 1e-10, scale_h)

    apart = [project(x0) for x0 in seeds]
    X, ok = project(np.concatenate(seeds))
    np.testing.assert_array_equal(X, np.concatenate([a[0] for a in apart]))
    np.testing.assert_array_equal(ok, np.concatenate([a[1] for a in apart]))
    apart = [polish(Xp[okp]) for Xp, okp in apart]
    stacked = polish(X[ok])
    for got, parts in zip(stacked, zip(*apart)):
        np.testing.assert_array_equal(got, np.concatenate(parts))


def test_euler_window_takes_one_solver_call_per_chunk(monkeypatch):
    # both solver stages run on gauss_newton; the length of the scale tells
    # them apart: 2 for the projection, 6 for the Lagrange system
    calls = {2: 0, 6: 0}
    solve = topology.gauss_newton

    def counted(system, x0, scale, *args, **kwargs):
        calls[len(scale)] += 1
        return solve(system, x0, scale, *args, **kwargs)

    monkeypatch.setattr(topology, "gauss_newton", counted)
    g = parse_germ("z1^2 + z2^3", 2)
    inv, chi = link_surface_euler(g, 0.0, 0.5, seed=0)
    assert chi == -2
    assert (inv.batches, inv.seeds_used) == (21, 4200)
    # the sequential loop made 21 calls of each, one per batch
    assert 1 <= calls[2] <= 3 and 1 <= calls[6] <= 3


@pytest.mark.parametrize("theta", [0.0, np.pi / 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_euler_draws_its_seeds_once_per_chunk(monkeypatch, q, theta):
    # a criterion-1 job: each stacked chunk draws its seeds in one Sobol
    # call, batch 0's seeds are those of a one-batch draw, and a Sobol
    # balance warning fails the job
    drawn = []
    draw = topology.sobol_unit_sphere

    def recorded(seed, key, count, dim):
        drawn.append((key, draw(seed, key, count, dim)))
        return drawn[-1][1]

    monkeypatch.setattr(topology, "sobol_unit_sphere", recorded)
    g = parse_germ(f"z1^2 + z2^{q}", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv, chi = link_surface_euler(g, theta, 0.5, budget=100000, seed=0)
    assert chi == 4 - 2 * q
    # the sequential loop made one call per batch: 21 or 22
    assert 1 <= len(drawn) <= 3
    assert sum(len(u) for _, u in drawn) == inv.seeds_used
    assert drawn[0][0] == (0x5EED, 0, 0)
    assert (drawn[0][1][:200].tobytes()
            == sobol_unit_sphere(0, (0x5EED, 0, 0), 200, 4).tobytes())


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_stored_points_do_not_depend_on_the_newton_path(theta):
    # two seeds reach the same critical points of one functional along
    # different Newton paths; the final step fixes each to its root
    g = parse_germ("z1^2 + z2^3", 2)
    ell = np.array([0.3, -0.5, 0.6, 0.55])
    a, b = (link_surface_euler(g, theta, 0.5, seed=s, ell_seed=ell)[0]
            for s in (0, 5))
    order_a, order_b = (np.lexsort(i.points.T[::-1]) for i in (a, b))
    assert len(order_a) == len(order_b) > 0
    for field in ("points", "multipliers", "values"):
        np.testing.assert_allclose(getattr(a, field)[order_a],
                                   getattr(b, field)[order_b],
                                   rtol=0, atol=1e-14)
    np.testing.assert_array_equal(a.signs[order_a], b.signs[order_b])
    assert max(a.residuals.max(), b.residuals.max()) <= 1e-14


def test_degenerate_point_on_every_draw_raises(monkeypatch):
    # a degenerate point ends its draw in the middle of a stacked chunk
    monkeypatch.setattr(topology, "DEGENERACY_TOL", np.inf)
    g = parse_germ("z1^2 + z2^3", 2)
    with pytest.raises(DegenerateAfterRetries, match="all 2 functional"):
        link_surface_euler(g, 0.0, 0.5, seed=0, ell_redraws=2)


def test_lagrange_newton_singular_row_fails_alone():
    g = parse_germ("z1^2 + z2^3", 2)
    radius, scale_h = 0.5, g.scale(0.5)
    ell = np.array([0.3, -0.5, 0.6, 0.55])
    X0, ok0 = gauss_newton(sphere_member_system(g, 0.0, radius),
                           radius * sobol_unit_sphere(3, (1,), 16, 4),
                           np.array([radius ** 2, scale_h]))
    X0 = X0[ok0]
    alone = _lagrange_newton(g, 0.0, radius, ell, X0, 1e-10, scale_h)
    # the origin is critical for f, so every entry of its Jacobian vanishes
    X, L, ok = _lagrange_newton(g, 0.0, radius, ell,
                                np.insert(X0, 1, 0.0, axis=0), 1e-10, scale_h)
    rest = np.arange(len(X)) != 1
    assert not ok[1] and np.any(alone[2])
    np.testing.assert_array_equal(ok[rest], alone[2])
    np.testing.assert_allclose(X[rest], alone[0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(L[rest], alone[1], rtol=0, atol=1e-12)


def test_lagrange_newton_row_outside_the_ball_fails_alone():
    g = parse_germ("z1^2 + z2^3", 2)
    radius, scale_h = 0.5, g.scale(0.5)
    ell = np.array([0.3, -0.5, 0.6, 0.55])
    X0, ok0 = gauss_newton(sphere_member_system(g, 0.0, radius),
                           radius * sobol_unit_sphere(3, (1,), 16, 4),
                           np.array([radius ** 2, scale_h]))
    X0 = X0[ok0]
    alone = _lagrange_newton(g, 0.0, radius, ell, X0, 1e-10, scale_h)
    far = 5.0 * radius * np.array([0.5, 0.5, 0.5, 0.5])
    X, L, ok = _lagrange_newton(g, 0.0, radius, ell,
                                np.insert(X0, 2, far, axis=0), 1e-10, scale_h)
    rest = np.arange(len(X)) != 2
    assert not ok[2] and np.any(alone[2])
    np.testing.assert_array_equal(X[2], far)
    for got, want in zip((X, L, ok), alone):
        np.testing.assert_array_equal(got[rest], want)


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_morse_data_of_a_batch_matches_the_pointwise_formula(theta):
    # the reference is the one-point classification the Morse loop used to
    # run: residual from member_gradient, tangent basis from a one-row QR.
    # The residual is the same arithmetic; the basis is not (the batched
    # norm and products round differently), so the determinant agrees to
    # a few ulps times its conditioning, and always in sign
    g = parse_germ("z1^2 + z2^3", 2)
    radius, scale_h = 0.5, g.scale(0.5)
    r2 = radius ** 2
    ell = np.array([0.3, -0.5, 0.6, 0.55])
    X0, ok0 = gauss_newton(sphere_member_system(g, theta, radius),
                           radius * sobol_unit_sphere(3, (1,), 64, 4),
                           np.array([r2, scale_h]))
    X, L, ok = _lagrange_newton(g, theta, radius, ell, X0[ok0], 1e-10,
                                scale_h)
    X, L = X[ok], L[ok]
    assert len(X) > 4
    X, L, res, det = topology._morse_data(
        *topology._stationarity_system(g, theta, radius, ell, scale_h), X, L)
    for x, lam, r, d in zip(X, L, res, det):
        h, gh, _ = member_gradient(g, theta, x[None, :])
        top = ell - 2.0 * lam[0] * x - lam[1] * gh[0]
        assert r == max(np.max(np.abs(top)), abs(np.sum(x * x) - r2) / r2,
                        abs(h[0]) / scale_h)
        Ha, Hb = real_hessians(g, x)
        Hl = (-2.0 * lam[0] * np.eye(4)
              - lam[1] * (np.cos(theta) * Hb - np.sin(theta) * Ha))
        frame = np.stack([x / np.linalg.norm(x), gh[0]], axis=1)
        B = np.linalg.qr(np.concatenate([frame, np.eye(4)], axis=1))[0]
        want = np.linalg.det(B[:, 2:4].T @ Hl @ B[:, 2:4])
        assert np.sign(d) == np.sign(want)
        np.testing.assert_allclose(d, want, rtol=1e-12)


def test_double_fiber_consistency_family():
    for text, exps, mu in [("z1^2 + z2^3", (2, 3), 2),
                           ("z1^2 + z2^2", (2, 2), 1)]:
        g = parse_germ(text, 2)
        rep = double_fiber_consistency(g, 0.0, 0.5, budget=100000, seed=0)
        assert rep.passed
        assert rep.exponents == exps
        assert rep.mu == mu
        assert rep.chi == rep.expected_chi == 2 * (1 - mu)
        assert rep.genus == mu


def test_double_fiber_genus_statement():
    g = parse_germ("z1^2 + z2^3", 2)
    rep = double_fiber_consistency(g, 0.0, 0.5, budget=100000, seed=0)
    assert rep.genus == (2 - rep.chi) // 2
    assert "connected" in rep.note
