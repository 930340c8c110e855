"""Field synthesis contracts, corrections, and monitored transport."""

import math

import numpy as np
import pytest

from pencillab.errors import (AxisProximity, BallExit, CompletenessViolation,
                              GramSingular, PositivityViolation)
from pencillab.flows import (FlowKind, FlowSpec, equivalence_transport,
                             integrate, monodromy_return, synthesize_field)
from pencillab.germ import differential_sample, evaluate, parse_germ
from pencillab.pencil import sample_fiber

BRIESKORN = parse_germ("z1^2 + z2^3", 2)


def test_monodromy_field_linear_closed_form():
    # f = z1: the field is (i z1, 0), a rigid rotation of the first plane
    g = parse_germ("z1", 2)
    z = np.array([0.3 + 0.4j, 0.1 - 0.2j])
    w, dg = synthesize_field(g, FlowSpec(FlowKind.MONODROMY), z)
    np.testing.assert_allclose(w, [-0.4, 0.0, 0.3, 0.0], atol=1e-14)
    assert not dg.fallback and not dg.corrected


def test_monodromy_fallback_on_colinear_locus():
    # f = z1 with z2 = 0: the point is radial in the only active plane, so
    # the tube row is dropped and the drift vanishes identically
    g = parse_germ("z1", 2)
    w, dg = synthesize_field(g, FlowSpec(FlowKind.MONODROMY),
                             np.array([0.5 + 0.0j, 0.0 + 0.0j]))
    assert dg.fallback
    assert abs(dg.drift) < 1e-14
    np.testing.assert_allclose(w, [0.0, 0.0, 0.5, 0.0], atol=1e-14)


@pytest.mark.parametrize("kind", [FlowKind.MONODROMY, FlowKind.RADIAL,
                                  FlowKind.TUBE_EQUIVALENCE])
def test_field_constraint_residuals(kind):
    spec = FlowSpec(kind)
    rng = np.random.default_rng(17)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = 0.5 * z / np.linalg.norm(z)
        ds = differential_sample(BRIESKORN, z)
        w, dg = synthesize_field(BRIESKORN, spec, z)
        wn = float(np.linalg.norm(w))
        if kind is FlowKind.MONODROMY:
            assert abs(w @ ds.point) < 1e-12 * wn * np.linalg.norm(ds.point)
            assert abs(w @ ds.grad_theta - 1.0) < 1e-10
            if not dg.fallback:
                assert abs(w @ ds.grad_log_rho) \
                    < 1e-12 * wn * np.linalg.norm(ds.grad_log_rho)
        elif kind is FlowKind.RADIAL:
            assert abs(w @ ds.grad_theta) \
                < 1e-12 * wn * np.linalg.norm(ds.grad_theta)
            assert abs(w @ (2.0 * ds.point) - 1.0) < 1e-10
        else:
            assert abs(w @ ds.grad_theta) \
                < 1e-12 * wn * np.linalg.norm(ds.grad_theta)
            assert abs(w @ ds.grad_log_rho - 1.0) < 1e-10
            assert w @ ds.point > 0.0


ADVERSE = np.array([1j * math.sqrt(0.012), 0.01 ** (1.0 / 3.0)])


def test_tube_positivity_correction_engages():
    # adverse phases make the bare minimum-norm velocity point inward; the
    # null-space restore keeps both equality constraints exact
    ds = differential_sample(BRIESKORN, ADVERSE)
    w, dg = synthesize_field(BRIESKORN, FlowSpec(FlowKind.TUBE_EQUIVALENCE),
                             ADVERSE)
    assert dg.corrected
    assert w @ ds.point > 0.0
    assert abs(w @ ds.grad_theta) < 1e-12
    assert abs(w @ ds.grad_log_rho - 1.0) < 1e-12


def test_tube_positivity_violation_without_null_space():
    # one complex variable leaves no room to restore positivity where
    # log|f| decreases radially
    g = parse_germ("z1 - 2*z1^2", 1)
    with pytest.raises(PositivityViolation):
        synthesize_field(g, FlowSpec(FlowKind.TUBE_EQUIVALENCE),
                         np.array([0.4 + 0.0j]))


def test_radial_corridor_clamp_engages():
    ds = differential_sample(BRIESKORN, ADVERSE)
    bare_spec = FlowSpec(FlowKind.RADIAL)
    w, dg = synthesize_field(BRIESKORN, bare_spec, ADVERSE)
    assert dg.corrected
    r2 = float(ds.point @ ds.point)
    lo = 2.0 / (2.0 * bare_spec.corridor_factor * r2)
    hi = bare_spec.corridor_factor * 3.0 / (2.0 * r2)
    slope = float(w @ ds.grad_log_rho)
    assert lo - 1e-9 <= slope <= hi + 1e-9
    assert abs(w @ ds.grad_theta) < 1e-12
    assert abs(w @ (2.0 * ds.point) - 1.0) < 1e-12


def test_radial_corridor_inactive_on_nominal_points():
    fs = sample_fiber(BRIESKORN, 0.0, 0.5, count=6, seed=2)
    for z in fs.points:
        _, dg = synthesize_field(BRIESKORN, FlowSpec(FlowKind.RADIAL), z)
        assert not dg.corrected


def test_gram_singular_on_radially_tangent_stub():
    g = parse_germ("z1*zbar1 + i*z1^2*zbar1^2", 1)
    z = np.array([0.5 + 0.1j])
    for kind in (FlowKind.TUBE_EQUIVALENCE, FlowKind.RADIAL,
                 FlowKind.MONODROMY):
        with pytest.raises(GramSingular):
            synthesize_field(g, FlowSpec(kind), z)


def test_completeness_violation_on_forced_fallback(monkeypatch):
    # twisted mixed germ point whose two-row solution drifts |f| too fast;
    # cond_max is set between the two Gram conditions to force the fallback
    monkeypatch.setattr(FlowSpec, "cond_max", 2.0)
    g = parse_germ("z1^2*zbar2 + z2^2*zbar1", 2)
    z = np.array([-0.08311743 - 0.43594811j, -0.14965865 - 0.1750515j])
    with pytest.raises(CompletenessViolation):
        synthesize_field(g, FlowSpec(FlowKind.MONODROMY), z)


def test_integrate_zero_span():
    tr = integrate(BRIESKORN, FlowSpec(FlowKind.MONODROMY),
                   np.array([0.4 + 0.1j, 0.2 + 0.0j]), (1.0, 1.0))
    assert tr.termination == "empty-span"
    assert tr.n_accepted == 0 and len(tr.t) == 1


def test_integrate_raises_on_axis_start():
    g = parse_germ("z1", 2)
    with pytest.raises(AxisProximity):
        integrate(g, FlowSpec(FlowKind.MONODROMY),
                  np.array([0.0 + 0.0j, 0.5 + 0.0j]), (0.0, 1.0))


def test_tube_flow_leaves_the_ball_at_the_ball_factor():
    # f = z1 on C^1: the tube field is v = x, so |x(t)| = 0.5 e^t, and the
    # working ball has radius ball_factor * 0.5 = 4
    g = parse_germ("z1", 1)
    spec = FlowSpec(FlowKind.TUBE_EQUIVALENCE)
    tr = integrate(g, spec, np.array([0.5 + 0.0j]), (0.0, 2.0))
    assert tr.termination == "completed"
    assert abs(tr.norms[-1] - 0.5 * math.exp(2.0)) < 1e-9
    with pytest.raises(BallExit, match=r"\|x\| = 4\.0"):
        integrate(g, spec, np.array([0.5 + 0.0j]), (0.0, 3.0))


def test_monodromy_return_identity_for_linear():
    g = parse_germ("z1", 2)
    ret = monodromy_return(g, np.array([1.0 + 0.0j, 0.5 + 0.0j]),
                           revolutions=1.0)
    end = np.asarray(ret.endpoint)
    assert np.max(np.abs(end - np.array([1.0, 0.5]))) < 1e-7
    assert ret.winding == 1
    assert ret.half_side_flipped is None


def test_monodromy_half_revolution_flips_half():
    g = parse_germ("z1", 2)
    ret = monodromy_return(g, np.array([0.8 + 0.0j, 0.3 + 0.0j]),
                           revolutions=0.5)
    end = np.asarray(ret.endpoint)
    assert np.max(np.abs(end - np.array([-0.8, 0.3]))) < 1e-7
    assert ret.half_side_flipped is True


def test_monodromy_drift_monitors():
    fs = sample_fiber(BRIESKORN, 0.0, 0.5, count=5, seed=8)
    for z in fs.points:
        ret = monodromy_return(BRIESKORN, z, revolutions=1.0)
        assert ret.drift_norm < 1e-6 * 0.5
        assert ret.drift_absf_rel < 1e-6
        assert ret.winding == 1


def test_equivalence_transport_linear_closed_form():
    # f = z1: the tube field scales the first coordinate only, so the
    # endpoint is (z1 * eta/|z1|, z2) and theta is untouched
    g = parse_germ("z1", 2)
    eta = 1e-3
    starts = np.array([[0.4 + 0.3j, 0.0 + 0.0j]])
    recs = equivalence_transport(g, 0.5, eta, starts)
    assert len(recs) == 1 and recs[0].success
    z1 = starts[0, 0]
    want = z1 * eta / abs(z1)
    assert abs(recs[0].end[0] - want) < 1e-8
    assert abs(recs[0].end[1] - starts[0, 1]) < 1e-9
    assert abs(recs[0].end_abs_f - eta) < 1e-9 * eta
    assert recs[0].theta_drift < 1e-9


def test_equivalence_transport_rejects_points_inside_tube():
    g = parse_germ("z1", 2)
    with pytest.raises(ValueError):
        equivalence_transport(g, 0.5, 0.5,
                              np.array([[0.1 + 0.0j, 0.4 + 0.0j]]))


def test_flow_trace_csv_row_contract(tmp_path):
    tr = integrate(BRIESKORN, FlowSpec(FlowKind.MONODROMY),
                   np.array([0.4 + 0.1j, 0.2 + 0.0j]), (0.0, 1.0))
    p = tmp_path / "trace.csv"
    tr.to_csv(str(p))
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 1 + tr.n_accepted


def test_flow_spec_scaled():
    spec = FlowSpec(FlowKind.RADIAL, rtol=1e-8, atol=1e-10, max_step=0.1)
    half = spec.scaled(0.5)
    assert half.rtol == 5e-9 and half.atol == 5e-11
    assert half.max_step == 0.1 and half.kind is FlowKind.RADIAL


def test_step_halving_displacement_decreases():
    fs = sample_fiber(BRIESKORN, 0.0, 0.5, count=3, seed=3)
    z0 = fs.points[0]
    ends = []
    for k in range(4):
        spec = FlowSpec(FlowKind.MONODROMY, rtol=1e-5, atol=1e-7,
                        max_step=7.0).scaled(0.5 ** k)
        tr = integrate(BRIESKORN, spec, z0, (0.0, 2 * math.pi))
        ends.append(np.concatenate([tr.points[-1].real, tr.points[-1].imag]))
    d = [float(np.linalg.norm(ends[i + 1] - ends[i])) for i in range(3)]
    assert d[0] > d[1] > d[2] > 0.0


def test_radial_transport_tracks_affine_radius():
    fs = sample_fiber(BRIESKORN, 0.0, 0.5, count=3, seed=21)
    tr = integrate(BRIESKORN, FlowSpec(FlowKind.RADIAL), fs.points[0],
                   (0.25, 0.01))
    assert tr.termination == "completed"
    assert abs(tr.norms[-1] ** 2 - 0.01) < 1e-8
    assert tr.drift["theta"] < 1e-8
    assert tr.drift["affine"] < 1e-8
