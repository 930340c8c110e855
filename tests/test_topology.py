"""Milnor numbers, Morse counting on links, and the doubling check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencillab._num import (canonical_json, gauss_newton, sobol_unit_sphere,
                            stream)
from pencillab.errors import Unstable
from pencillab.germ import parse_germ
from pencillab.pencil import sphere_member_system
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
    assert canonical_json(a.to_json_dict()) == canonical_json(b.to_json_dict())


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
