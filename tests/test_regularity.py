"""Transversality defects, certification searches, and submersion margins."""

import math

import numpy as np
import pytest

from pencillab import germ as germ_module
from pencillab._num import (canonical_json, sobol_unit_sphere, to_complex,
                            to_real)
from pencillab.errors import AxisProximity, DegenerateGradient
from pencillab.germ import differential_sample, evaluate, parse_germ
from pencillab.pencil import classify, phase
from pencillab.regularity import (_polish, critical_value_isolation_scan,
                                  d_regularity_search, defect_from_directions,
                                  lambda_diagnostic, phase_margin_from_fields,
                                  radial_lambda_scan, strong_milnor_check,
                                  transversality_defect,
                                  tube_sphere_transversality)


def test_defect_is_one_for_linear_germ():
    # members of the pencil of f = z1 are flat half-planes through the
    # origin, orthogonal to every sphere
    g = parse_germ("z1", 2)
    rng = np.random.default_rng(0)
    for _ in range(6):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(transversality_defect(g, z) - 1.0) < 1e-14


def test_defect_zero_for_radially_tangent_stub():
    # both Re f and Im f are radial functions, so the phase gradient is
    # radial and the member is tangent to the sphere; the defect is zero up
    # to rounding, far below the 1e-9 pass threshold
    g = parse_germ("z1*zbar1 + i*z1^2*zbar1^2", 1)
    assert transversality_defect(g, np.array([0.5 + 0.1j])) < 1e-15


def test_defect_degenerate_gradient_stub():
    g = parse_germ("z1*zbar1 + z2*zbar2", 2)
    with pytest.raises(DegenerateGradient):
        transversality_defect(g, np.array([0.3 + 0.1j, 0.2 - 0.4j]))


def test_defect_matches_angle_oracle():
    # defect = |sin(angle between grad_theta and the sphere normal)|
    g = parse_germ("z1^2 + z2^3", 2)
    rng = np.random.default_rng(1)
    for _ in range(6):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        ds = differential_sample(g, z)
        gt = ds.grad_theta / np.linalg.norm(ds.grad_theta)
        nx = ds.point / np.linalg.norm(ds.point)
        cosang = float(np.clip(gt @ nx, -1.0, 1.0))
        want = abs(math.cos(math.acos(cosang) - math.pi / 2))
        got = transversality_defect(g, z)
        assert abs(got - want) < 1e-12
        assert abs(defect_from_directions(ds.grad_theta, ds.point) - got) < 1e-14


@pytest.mark.parametrize("angle", [1e-9, 1e-10])
def test_defect_resolves_angles_at_the_pass_threshold(angle):
    # the default pass threshold is 1e-9, so a defect of that size must be
    # told apart from a tangency
    normal = np.array([1.0, 0.0, 0.0, 0.0])
    grad = np.array([math.cos(angle), math.sin(angle), 0.0, 0.0])
    assert defect_from_directions(grad, normal) == pytest.approx(
        math.sin(angle), rel=1e-6)


@pytest.mark.parametrize("scan", ["dreg", "crit-scan"])
def test_cover_scans_run_the_germ_kernel_once_per_chunk(monkeypatch, scan):
    # 40000 rows make two 32768-row chunks; each chunk needs f and the
    # first derivatives from one kernel call
    monkeypatch.setenv("PENCILLAB_THREADS", "1")
    calls = []
    kernel = germ_module._derivatives

    def counted(g, z, orders):
        calls.append(orders)
        return kernel(g, z, orders)

    monkeypatch.setattr(germ_module, "_derivatives", counted)
    if scan == "dreg":
        d_regularity_search(parse_germ("z1^2 + z2^3", 2), 0.5, budget=40000,
                            polish_runs=0, collect_milnor=True)
    else:
        critical_value_isolation_scan(
            parse_germ("z1^2*zbar2 + z2^2*zbar1", 2), 0.5, budget=40000)
    assert calls == [(0, 1), (0, 1)]


def test_dreg_search_linear_is_exactly_one():
    g = parse_germ("z1", 2)
    rep = d_regularity_search(g, 0.5, budget=2000, seed=0, polish_runs=5)
    assert rep.verdict is True
    assert abs(rep.min_defect - 1.0) < 1e-10
    assert rep.usable > 0


def test_dreg_search_flags_tangency_stub():
    g = parse_germ("z1*zbar1 + i*z1^2*zbar1^2", 1)
    rep = d_regularity_search(g, 0.5, budget=1000, seed=0, polish_runs=0)
    assert rep.verdict is False
    assert rep.min_defect < rep.pass_threshold


def test_dreg_search_deterministic_bytes():
    g = parse_germ("z1^2 + z2^3", 2)
    a = d_regularity_search(g, 0.5, budget=3000, seed=7, polish_runs=3)
    b = d_regularity_search(g, 0.5, budget=3000, seed=7, polish_runs=3)
    assert canonical_json(a.to_json_dict()) == canonical_json(b.to_json_dict())


def test_dreg_histogram_accounts_for_usable():
    g = parse_germ("z1^2 + z2^3", 2)
    rep = d_regularity_search(g, 0.5, budget=2000, seed=3, polish_runs=0)
    assert sum(rep.histogram) == rep.usable


def test_dreg_custom_metric_changes_normal():
    g = parse_germ("z1^2 + z2^3", 2)
    Q = np.diag([1.0, 2.0, 1.0, 2.0])
    rep = d_regularity_search(g, 0.5, Q=Q, budget=1500, seed=2, polish_runs=0)
    assert rep.to_json_dict()["metric"] == "custom"
    assert 0.0 < rep.min_defect <= 1.0


def _polish_starts(count=100):
    g = parse_germ("z1^2 + z2^3", 2)
    Y = to_real(0.5 * to_complex(sobol_unit_sphere(0, (7,), count, 4)))
    return g, Y


@pytest.mark.parametrize("Q", [None, np.array([[2.0, 0.3, 0.0, 0.1],
                                               [0.3, 1.0, 0.2, 0.0],
                                               [0.0, 0.2, 1.5, 0.0],
                                               [0.1, 0.0, 0.0, 1.0]])])
def test_polish_start_alone_matches_its_row_in_a_batch(Q):
    g, Y = _polish_starts()
    values, X = _polish(g, Y, 0.5, Q, g.f_floor(0.5))
    for k in (0, 37, 99):
        v1, X1 = _polish(g, Y[k:k + 1], 0.5, Q, g.f_floor(0.5))
        assert v1[0] == values[k]
        assert np.array_equal(X1[0], X[k])


def test_polish_bad_starts_fail_only_their_own_rows():
    g, Y = _polish_starts()
    values, X = _polish(g, Y, 0.5, None, g.f_floor(0.5))
    # a start on f = 0 (z1^2 = -z2^3 with z2 = -t real) and a NaN start
    t = np.roots([1.0, 1.0, 0.0, -0.25])
    t = float(t[np.isreal(t)].real[0])
    axis = np.array([t ** 1.5, -t, 0.0, 0.0])
    assert abs(evaluate(g, to_complex(axis))) < g.f_floor(0.5)
    mixed = np.vstack([Y[:40], axis, np.full(4, np.nan), Y[40:]])
    v2, X2 = _polish(g, mixed, 0.5, None, g.f_floor(0.5))
    rest = np.r_[0:40, 42:102]
    assert np.array_equal(v2[rest], values)
    assert np.array_equal(X2[rest], X)
    # off the domain reads 1, the largest defect: no improvement
    assert v2[40] == 1.0 and v2[41] == 1.0
    assert not np.isfinite(X2[41]).any()


def test_polished_search_under_a_custom_metric():
    g = parse_germ("z1^2 + z2^3", 2)
    Q = np.diag([1.0, 2.0, 1.0, 2.0])
    cover = d_regularity_search(g, 0.5, Q=Q, budget=2000, seed=2,
                                polish_runs=0)
    rep = d_regularity_search(g, 0.5, Q=Q, budget=2000, seed=2,
                              polish_runs=10)
    assert rep.polish_runs == 10
    x = to_real(np.array(rep.witness))
    assert abs(x @ Q @ x - 0.25) <= 1e-12 * 0.25
    assert abs(evaluate(g, np.array(rep.witness))) > g.f_floor(0.5)
    assert rep.min_defect <= cover.min_defect


def test_lambda_diagnostic_closed_form():
    # f = z1^2: lambda' = f * conj(2 z1 * z1) = 2 |z1|^4, argument 0
    g = parse_germ("z1^2", 1)
    d = lambda_diagnostic(g, np.array([1.0 + 0.0j]))
    assert abs(d.lambda_prime - 2.0) < 1e-14
    assert abs(d.arg_lambda_prime) < 1e-14
    assert d.colinearity < 1e-14
    assert d.condition_ok
    d2 = lambda_diagnostic(g, np.array([0.5 * np.exp(0.7j)]))
    assert abs(d2.lambda_prime - 2.0 * 0.5 ** 4) < 1e-14


def test_radial_lambda_scan_real_directions():
    g = parse_germ("z1^2 + z2^2", 2)
    radii = [0.5 * 2.0 ** (-k) for k in range(8)]
    for d in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        entries = radial_lambda_scan(g, np.array(d, dtype=complex), radii)
        for e in entries:
            assert e.error is None
            assert abs(e.arg_lambda_prime) < 1e-9


def test_radial_scan_matches_the_pointwise_diagnostic():
    g = parse_germ("z1^3 + z1*z2^3", 2)
    d = np.array([1.0 + 0.25j, 0.5 - 0.3j])
    radii = [0.5 * 2.0 ** (-k) for k in range(12)]
    for e, t in zip(radial_lambda_scan(g, d, radii), radii):
        ref = lambda_diagnostic(g, t * (d / np.linalg.norm(d)))
        assert e.error is None
        assert (e.colinearity, e.arg_lambda_prime, e.condition_ok) == (
            ref.colinearity, ref.arg_lambda_prime, ref.condition_ok)


@pytest.mark.parametrize("factor", [0.999, 1.001])
@pytest.mark.parametrize("unit", [1.0, 1j, np.exp(2.0j)],
                         ids=["real", "imaginary", "complex"])
def test_every_axis_test_decides_alike(factor, unit):
    # f = z1 on C^2 has scale(r) = r, so z = (a, 0.5) is an axis point
    # exactly when |a| <= 1e-12 |z|; that floor is 5e-13 to within 1e-24
    # relative, so a 0.1% step puts z clearly on one side
    g = parse_germ("z1", 2)
    z = np.array([factor * 5e-13 * unit, 0.5 + 0.0j])
    axis = factor < 1.0
    assert (abs(z[0]) <= 1e-12 * np.linalg.norm(z)) == axis
    assert bool(g.on_axis(z, evaluate(g, z))) == axis
    assert classify(g, z).is_axis == axis

    def raises_axis(fn, *args):
        try:
            fn(g, *args)
        except AxisProximity:
            return True
        return False

    for fn in (phase, differential_sample, transversality_defect,
               lambda_diagnostic):
        assert raises_axis(fn, z) == axis, fn.__name__
    [entry] = radial_lambda_scan(g, z, [np.linalg.norm(z)])
    assert (entry.error == AxisProximity.__name__) == axis


def test_phase_margin_closed_form_rows():
    # orthogonal rows: second singular value is the smaller row norm
    x = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 2.0, 0.0, 0.0])
    m = phase_margin_from_fields(x[None, :], v[None, :])
    assert abs(m[0] - 1.0) < 1e-14


def test_strong_milnor_twisted_pair_is_one():
    # f = z1 * conj(z2): the phase gradient is sphere-tangent with
    # r * |grad_theta| >= 2, so the margin saturates at 1 exactly
    g = parse_germ("z1*zbar2", 2)
    rep = strong_milnor_check(g, 1.0, budget=2000, seed=0)
    assert rep.verdict is True
    assert abs(rep.min_value - 1.0) < 1e-12


def test_strong_milnor_linear_positive():
    g = parse_germ("z1", 2)
    rep = strong_milnor_check(g, 0.5, budget=2000, seed=0)
    assert rep.verdict is True
    assert rep.min_value > 0.5


def test_strong_milnor_constant_phase_margin_zero():
    # phase of f = |z1|^2 is constant, so the restricted map is singular
    g = parse_germ("z1*zbar1", 1)
    rep = strong_milnor_check(g, 1.0, budget=500, seed=0)
    assert rep.verdict is False
    assert rep.min_value == 0.0


def test_tube_sphere_transversality_linear():
    g = parse_germ("z1", 2)
    rep = tube_sphere_transversality(g, 0.5, 0.05, budget=2000, seed=0)
    assert rep.verdict is True
    assert rep.min_value > 0.0


def test_tube_sphere_requires_eta_below_radius():
    g = parse_germ("z1", 2)
    with pytest.raises(ValueError):
        tube_sphere_transversality(g, 0.5, 0.5)
    with pytest.raises(ValueError):
        tube_sphere_transversality(g, 0.5, 0.0)


def test_critical_value_isolation_positive_minima():
    g = parse_germ("z1^2 + z2^3", 2)
    rep = critical_value_isolation_scan(g, 0.5, budget=2000, seed=0)
    assert rep.verdict is True
    assert rep.min_value > 0.0
    g2 = parse_germ("z1*zbar2", 2)
    rep2 = critical_value_isolation_scan(g2, 0.5, budget=2000, seed=0)
    assert rep2.verdict is True
    assert rep2.min_value > 0.0


def test_milnor_tally_no_violations_for_brieskorn():
    g = parse_germ("z1^2 + z2^3", 2)
    rep = d_regularity_search(g, 0.5, budget=3000, seed=0, polish_runs=0,
                              collect_milnor=True)
    assert rep.milnor is not None
    assert rep.milnor["violations"] == 0
    assert rep.milnor["checked"] > 0
