"""Pencil membership, spherefication, blow-up incidence, and sampling."""

import math

import numpy as np
import pytest

from pencillab._num import gauss_newton
from pencillab.germ import evaluate, parse_germ
from pencillab.pencil import (blowup_residual, h_theta, pointcloud_rows,
                              sample_fiber, side_indicator,
                              spherefication_batch, stereographic_project)


def test_h_theta_linear_values():
    g = parse_germ("z1", 1)
    z = np.array([3.0 + 4.0j])
    assert abs(h_theta(g, 0.0, z) - 4.0) < 1e-12
    assert abs(h_theta(g, math.pi / 2, z) - (-3.0)) < 1e-12
    # the member through the point itself
    assert abs(h_theta(g, math.atan2(4.0, 3.0), z)) < 1e-12


def test_side_indicator_positive_on_own_ray():
    g = parse_germ("z1^2 + z2^3", 2)
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = complex(evaluate(g, z))
        th = math.atan2(f.imag, f.real)
        assert side_indicator(g, th, z) > 0.0
        assert abs(h_theta(g, th, z)) < 1e-12


def test_spherefication_identity_for_linear_one_variable():
    g = parse_germ("z1", 1)
    z = np.array([[0.6 + 0.8j]])
    assert abs(spherefication_batch(g, z)[0] - (0.6 + 0.8j)) < 1e-15


def test_spherefication_modulus_equals_radius():
    g = parse_germ("z1^2*zbar2 + z2^3", 2)
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    F = spherefication_batch(g, Z)
    r = np.linalg.norm(Z, axis=1)
    assert np.max(np.abs(np.abs(F) - r) / r) < 1e-14


def test_spherefication_batch_matches_pointwise():
    g = parse_germ("z1^2 + z2^3", 2)
    rng = np.random.default_rng(8)
    Z = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    F = spherefication_batch(g, Z)
    for i in range(6):
        assert abs(F[i] - spherefication_batch(g, Z[i:i + 1])[0]) < 1e-14


def test_blowup_residual_vanishes_on_incidence():
    g = parse_germ("z1^2 + z2^3", 2)
    rng = np.random.default_rng(10)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = complex(evaluate(g, z))
        t = np.array([f.real, f.imag])
        t = t / np.linalg.norm(t)
        assert abs(blowup_residual(g, z, t)) < 1e-13 * abs(f)


def test_blowup_residual_requires_normalized_pair():
    g = parse_germ("z1", 1)
    with pytest.raises(ValueError):
        blowup_residual(g, np.array([1.0 + 0.0j]), [1.0, 1.0])


def test_sample_fiber_contract():
    g = parse_germ("z1^2 + z2^3", 2)
    fs = sample_fiber(g, 0.3, 0.5, count=12, seed=1)
    assert fs.count > 0
    assert fs.converged == 12
    assert fs.count + fs.wrong_side == fs.converged
    assert np.max(np.abs(np.linalg.norm(fs.points, axis=1) - 0.5)) < 1e-10
    assert np.max(np.abs(h_theta(g, 0.3, fs.points))) < 1e-10
    assert np.min(side_indicator(g, 0.3, fs.points)) > 0.0


def test_sample_fiber_empty_half_returns_no_points():
    # real-valued germ: the positive side of the theta = pi member is empty
    g = parse_germ("z1*zbar1 + z2*zbar2", 2)
    fs = sample_fiber(g, math.pi, 0.5, count=8, seed=0)
    assert fs.count == 0
    assert fs.wrong_side == fs.converged == 8


def test_sample_fiber_deterministic():
    g = parse_germ("z1^2 + z2^3", 2)
    a = sample_fiber(g, 0.0, 0.5, count=10, seed=5)
    b = sample_fiber(g, 0.0, 0.5, count=10, seed=5)
    np.testing.assert_array_equal(a.points, b.points)


def _tagged_system(X):
    # column 0 moves to the target kept in column 1; target 0 tags a row
    # whose Jacobian vanishes, so its Gram system is singular
    target = X[:, 1]
    singular = target == 0.0
    R = np.where(singular, 1.0, X[:, 0] - target)[:, None]
    J = np.zeros((len(X), 1, 2))
    J[~singular, 0, 0] = 1.0
    return R, J


@pytest.mark.parametrize("targets", [(1.0, 0.0, 5.0), (0.0, 1.0, 5.0)])
def test_gauss_newton_singular_row_fails_alone(targets):
    x0 = np.stack([np.zeros(3), targets], axis=1)
    X, ok = gauss_newton(_tagged_system, x0, np.array([1.0]))
    np.testing.assert_array_equal(ok, np.array(targets) != 0.0)
    np.testing.assert_array_equal(X, np.stack([targets, targets], axis=1))


def test_pointcloud_rows_layout():
    g = parse_germ("z1^2 + z2^3", 2)
    fs = sample_fiber(g, 0.3, 0.5, count=12, seed=1)
    rows = pointcloud_rows(g, fs.points)
    assert rows.shape == (fs.count, 2 * 2 + 3)
    assert np.max(np.abs(rows[:, 5] - 0.5)) < 1e-10            # norm column
    assert np.all((rows[:, 4] >= 0) & (rows[:, 4] < 2 * math.pi))


def test_stereographic_project_center_of_chart():
    # the antipode of the pole maps to the origin of the chart
    pole = np.array([0.0, 0.0, 0.0, 0.5])
    pts = np.array([[0.0, 0.0, 0.0, -0.5]])
    y = stereographic_project(pts, pole, 0.5)
    assert y.shape == (1, 3)
    assert np.max(np.abs(y)) < 1e-14
