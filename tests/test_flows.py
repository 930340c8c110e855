"""Field synthesis contracts, corrections, and monitored transport."""

import itertools
import math

import numpy as np
import pytest

from pencillab import flows
from pencillab import germ as germ_module
from pencillab._num import canonical_json, to_real
from pencillab.cli import _fiber_starts, _sphere_starts
from pencillab.errors import (AxisApproach, AxisProximity, BallExit,
                              CompletenessViolation, GramSingular,
                              PositivityViolation, StepCollapse)
from pencillab.flows import (FlowKind, FlowSpec, _solve_min_norm,
                             equivalence_transport, integrate,
                             monodromy_return, synthesize_field)
from pencillab.germ import differential_sample, evaluate, parse_germ
from pencillab.pencil import member_gradient, sample_fiber

BRIESKORN = parse_germ("z1^2 + z2^3", 2)
MIXED = parse_germ("z1^2*zbar2 + z2^2*zbar1", 2)


def _floor(g, x):
    """The axis floor at the radius of the stacked real point x."""
    return g.axis_floor(float(np.linalg.norm(x)))


def test_monodromy_field_linear_closed_form():
    # f = z1: the field is (i z1, 0), a rigid rotation of the first plane
    g = parse_germ("z1", 2)
    x = np.array([0.3, 0.1, 0.4, -0.2])
    w, _, dg = synthesize_field(g, FlowSpec(FlowKind.MONODROMY), x,
                                _floor(g, x))
    np.testing.assert_allclose(w, [-0.4, 0.0, 0.3, 0.0], atol=1e-14)
    assert not dg.fallback and not dg.corrected


def test_monodromy_fallback_on_colinear_locus():
    # f = z1 with z2 = 0: the point is radial in the only active plane, so
    # the tube row is dropped and the drift vanishes identically
    g = parse_germ("z1", 2)
    x = np.array([0.5, 0.0, 0.0, 0.0])
    w, _, dg = synthesize_field(g, FlowSpec(FlowKind.MONODROMY), x,
                                _floor(g, x))
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
        x = to_real(0.5 * z / np.linalg.norm(z))
        floor = _floor(BRIESKORN, x)
        _, gl, gt = differential_sample(BRIESKORN, x, floor)
        w, _, dg = synthesize_field(BRIESKORN, spec, x, floor)
        wn = float(np.linalg.norm(w))
        if kind is FlowKind.MONODROMY:
            assert abs(w @ x) < 1e-12 * wn * np.linalg.norm(x)
            assert abs(w @ gt - 1.0) < 1e-10
            if not dg.fallback:
                assert abs(w @ gl) < 1e-12 * wn * np.linalg.norm(gl)
        elif kind is FlowKind.RADIAL:
            assert abs(w @ gt) < 1e-12 * wn * np.linalg.norm(gt)
            assert abs(w @ (2.0 * x) - 1.0) < 1e-10
        else:
            assert abs(w @ gt) < 1e-12 * wn * np.linalg.norm(gt)
            assert abs(w @ gl - 1.0) < 1e-10
            assert w @ x > 0.0


ADVERSE = np.array([0.0, 0.01 ** (1.0 / 3.0), math.sqrt(0.012), 0.0])
ADVERSE_FLOOR = _floor(BRIESKORN, ADVERSE)


def test_tube_positivity_correction_engages():
    # adverse phases make the bare minimum-norm velocity point inward; the
    # null-space restore keeps both equality constraints exact
    _, gl, gt = differential_sample(BRIESKORN, ADVERSE, ADVERSE_FLOOR)
    w, _, dg = synthesize_field(BRIESKORN,
                                FlowSpec(FlowKind.TUBE_EQUIVALENCE), ADVERSE,
                                ADVERSE_FLOOR)
    assert dg.corrected
    assert w @ ADVERSE > 0.0
    assert abs(w @ gt) < 1e-12
    assert abs(w @ gl - 1.0) < 1e-12


def test_tube_positivity_violation_without_null_space():
    # one complex variable leaves no room to restore positivity where
    # log|f| decreases radially
    g = parse_germ("z1 - 2*z1^2", 1)
    x = np.array([0.4, 0.0])
    with pytest.raises(PositivityViolation):
        synthesize_field(g, FlowSpec(FlowKind.TUBE_EQUIVALENCE), x,
                         _floor(g, x))


def test_radial_corridor_clamp_engages():
    _, gl, gt = differential_sample(BRIESKORN, ADVERSE, ADVERSE_FLOOR)
    bare_spec = FlowSpec(FlowKind.RADIAL)
    w, _, dg = synthesize_field(BRIESKORN, bare_spec, ADVERSE, ADVERSE_FLOOR)
    assert dg.corrected
    r2 = float(ADVERSE @ ADVERSE)
    lo = 2.0 / (2.0 * bare_spec.corridor_factor * r2)
    hi = bare_spec.corridor_factor * 3.0 / (2.0 * r2)
    slope = float(w @ gl)
    assert lo - 1e-9 <= slope <= hi + 1e-9
    assert abs(w @ gt) < 1e-12
    assert abs(w @ (2.0 * ADVERSE) - 1.0) < 1e-12


def test_radial_corridor_keeps_the_bare_field_without_clamp_direction(
        monkeypatch):
    # cond_max is set between the 2-row (1.0) and 3-row (1.21) Gram
    # conditions, so the clamp direction is refused; unlike the tube
    # restore, the radial field then comes back uncorrected
    monkeypatch.setattr(FlowSpec, "cond_max", 1.1)
    _, gl, gt = differential_sample(BRIESKORN, ADVERSE, ADVERSE_FLOOR)
    bare, cond = _solve_min_norm([gt, 2.0 * ADVERSE], [0.0, 1.0], 1.1)
    with pytest.raises(GramSingular):
        _solve_min_norm([gt, 2.0 * ADVERSE, gl], [0.0, 0.0, 1.0], 1.1)
    spec = FlowSpec(FlowKind.RADIAL)
    r2 = float(ADVERSE @ ADVERSE)
    lo = 2.0 / (2.0 * spec.corridor_factor * r2)
    hi = spec.corridor_factor * 3.0 / (2.0 * r2)
    assert not lo <= float(np.dot(bare, gl)) <= hi
    w, _, dg = synthesize_field(BRIESKORN, spec, ADVERSE, ADVERSE_FLOOR)
    assert not dg.corrected and not dg.fallback
    assert dg.cond == cond
    assert w.tolist() == bare


def test_radial_corridor_inactive_on_nominal_points():
    fs = sample_fiber(BRIESKORN, 0.0, 0.5, count=6, seed=2)
    for x in to_real(fs.points):
        _, _, dg = synthesize_field(BRIESKORN, FlowSpec(FlowKind.RADIAL), x,
                                    _floor(BRIESKORN, x))
        assert not dg.corrected


def test_gram_singular_on_radially_tangent_stub():
    g = parse_germ("z1*zbar1 + i*z1^2*zbar1^2", 1)
    x = np.array([0.5, 0.1])
    for kind in (FlowKind.TUBE_EQUIVALENCE, FlowKind.RADIAL,
                 FlowKind.MONODROMY):
        with pytest.raises(GramSingular):
            synthesize_field(g, FlowSpec(kind), x, _floor(g, x))


def _svd_lu_reference(rows, d, cond_max):
    """Minimum-norm solve through the normalized Gram with an SVD condition
    number and an LU solve; (w, cond), or None where it refuses."""
    C = np.stack(rows)
    nrm = np.linalg.norm(C, axis=1)
    if np.any(nrm == 0.0) or not np.all(np.isfinite(nrm)):
        return None
    Cn = C / nrm[:, None]
    G = Cn @ Cn.T
    cond = float(np.linalg.cond(G))
    if not np.isfinite(cond) or cond > cond_max:
        return None
    return Cn.T @ np.linalg.solve(G, np.asarray(d) / nrm), cond


def _random_system(rng, k):
    """k rows in R^m, m in {2, 4, 6}, scaled from 1e-6 to 1e6: independent,
    one row near a combination of the others, or all rows near-parallel
    (for three rows that gives G two small eigenvalues)."""
    m = int(rng.choice([2, 4, 6]))
    R = rng.normal(size=(k, m))
    eps = 10.0 ** rng.uniform(-8.5, 0.0)
    shape = rng.integers(3)
    if shape == 1:
        R[-1] = rng.normal(size=k - 1) @ R[:-1] + eps * R[-1]
    elif shape == 2:
        R[1:] = R[0] * rng.choice([-1.0, 1.0], size=(k - 1, 1)) \
            + eps * 10.0 ** rng.uniform(0.0, 2.0, size=(k - 1, 1)) * R[1:]
    R *= 10.0 ** rng.uniform(-6.0, 6.0, size=(k, 1))
    d = rng.normal(size=k) if rng.random() < 0.5 else np.eye(k)[-1]
    return list(R), d


def _field_points(g, rng, count):
    """count stacked real points at radii 0.05-0.8: a quarter on the axis
    z2 = 0 where f does not vanish there, a quarter next to the zero set,
    the rest anywhere; these hit the monodromy fallback, the radial clamp
    and the tube restore."""
    Z = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    q = count // 4
    near = 1.0 + 1e-2 * (rng.normal(size=q) + 1j * rng.normal(size=q))
    if g == BRIESKORN:
        Z[:q, 1] = 0.0
        Z[q:2 * q, 0] = np.sqrt(-Z[q:2 * q, 1] ** 3) * near
    else:  # z1 = -z2 is on the zero set of z1^2*zbar2 + z2^2*zbar1
        Z[q:2 * q, 0] = -Z[q:2 * q, 1] * near
    Z *= rng.uniform(0.05, 0.8, (count, 1)) / np.linalg.norm(Z, axis=1,
                                                             keepdims=True)
    return to_real(Z)


def _lstsq_field(g, spec, x, dg):
    """The field of synthesize_field from minimum-norm lstsq solves of the
    same rows, on the branch its diagnostics report; (w, cond)."""
    _, gl, gt = differential_sample(g, x, _floor(g, x))

    def solve(rows, d):
        nrm = np.linalg.norm(rows, axis=1)
        w = np.linalg.lstsq(np.array(rows) / nrm[:, None],
                            np.array(d) / nrm, rcond=None)[0]
        return w, _svd_lu_reference(rows, d, math.inf)[1]

    if spec.kind is FlowKind.MONODROMY:
        return solve([x, gt] + ([] if dg.fallback else [gl]), [0.0, 1.0, 0.0]
                     [:2 if dg.fallback else 3])
    if spec.kind is FlowKind.RADIAL:
        w, cond = solve([gt, 2.0 * x], [0.0, 1.0])
        if dg.corrected:
            lo_deg, hi_deg = g.degree_span
            r2, kappa = x @ x, spec.corridor_factor
            slope = w @ gl
            target = min(max(slope, lo_deg / (2.0 * kappa * r2)),
                         kappa * hi_deg / (2.0 * r2))
            u, cond3 = solve([gt, 2.0 * x, gl], [0.0, 0.0, 1.0])
            w, cond = w + (target - slope) * u, max(cond, cond3)
        return w, cond
    w, cond = solve([gt, gl], [0.0, 1.0])
    if dg.corrected:
        floor = spec.pos_margin * np.linalg.norm(w) * np.linalg.norm(x)
        u, cond3 = solve([gt, gl, x], [0.0, 0.0, 1.0])
        w, cond = w + (floor - w @ x) * u, max(cond, cond3)
    return w, cond


@pytest.mark.parametrize("g", [BRIESKORN, MIXED], ids=["a2a3", "mixed"])
def test_float_field_matches_lstsq_minimum_norm_solves(g):
    # the float solve against lstsq at the tolerance of the SVD/LU
    # reference, 1e-13 * cond, on each kind's branches
    hits = {}
    for kind in FlowKind:
        spec = FlowSpec(kind)
        for x in _field_points(g, np.random.default_rng(23), 2000):
            w, _, dg = synthesize_field(g, spec, x, _floor(g, x))
            w_ref, cond_ref = _lstsq_field(g, spec, x, dg)
            assert type(w) is np.ndarray and w.shape == x.shape
            assert abs(dg.cond - cond_ref) <= 1e-13 * cond_ref * cond_ref
            assert np.linalg.norm(w - w_ref) \
                <= 1e-13 * cond_ref * np.linalg.norm(w_ref)
            hits[kind] = hits.get(kind, 0) + (dg.fallback or dg.corrected)
    # the tube restore on both germs, the clamp and the fallback on a2a3
    assert hits[FlowKind.TUBE_EQUIVALENCE] > 0
    if g == BRIESKORN:
        assert hits[FlowKind.MONODROMY] > 0 and hits[FlowKind.RADIAL] > 0


@pytest.mark.parametrize("g", [BRIESKORN, MIXED], ids=["a2a3", "mixed"])
def test_field_of_a_list_stays_on_python_numbers(g):
    # the integrator's form of a field call: a list in, a list and a
    # complex out, with the values of the array call
    for kind in FlowKind:
        spec = FlowSpec(kind)
        for x in _field_points(g, np.random.default_rng(29), 500):
            floor = _floor(g, x)
            w, f, dg = synthesize_field(g, spec, x.tolist(), floor)
            wa, fa, dga = synthesize_field(g, spec, x, floor)
            assert type(w) is list and type(f) is complex
            assert all(type(v) is float for v in w)
            assert np.linalg.norm(np.array(w) - wa) \
                <= 1e-15 * np.linalg.norm(wa)
            assert abs(f - complex(fa)) <= 1e-15 * abs(fa)
            assert dg == dga


def _project_two_steps(g, theta0, x):
    """Two Newton steps onto the member, on a batch of one row."""
    X = x[None, :]
    for _ in range(2):
        h, grad, _ = member_gradient(g, theta0, X)
        X = X - (h / np.sum(grad * grad, axis=-1))[:, None] * grad
    return X[0]


@pytest.mark.parametrize("g", [BRIESKORN, MIXED], ids=["a2a3", "mixed"])
def test_member_projection_of_a_list_lands_on_the_member(g):
    # fiber points moved off their member by up to 1e-6 r, further than
    # an accepted step drifts at the default tolerances
    radius, theta0 = 0.5, 0.7
    rng = np.random.default_rng(31)
    X = to_real(sample_fiber(g, theta0, radius, 200, seed=5).points)
    X += 1e-6 * radius * rng.uniform(-1.0, 1.0, X.shape)
    for x in X:
        y = flows._project_member(g, theta0, x.tolist())
        assert type(y) is list and all(type(v) is float for v in y)
        h, _, _ = member_gradient(g, theta0, np.array(y))
        assert abs(h) <= 1e-14 * g.scale(radius)
        assert np.linalg.norm(np.array(y) - _project_two_steps(g, theta0, x)) \
            <= 1e-14 * np.linalg.norm(x)


def test_min_norm_solver_matches_svd_lu_reference():
    cond_max = FlowSpec.cond_max
    rng = np.random.default_rng(9)
    conds, refused = [], 0
    for i in range(10000):
        rows, d = _random_system(rng, 2 + i % 2)
        ref = _svd_lu_reference(rows, d, cond_max)
        if ref is None:
            with pytest.raises(GramSingular):
                _solve_min_norm(rows, d, cond_max)
            refused += 1
            continue
        w_ref, cond_ref = ref
        w, cond = _solve_min_norm(rows, d, cond_max)
        tol = 1e-13 * cond_ref
        assert abs(cond - cond_ref) <= tol * cond_ref
        assert np.linalg.norm(w - w_ref) <= tol * np.linalg.norm(w_ref)
        conds.append(cond_ref)
    # the draw covers the whole accepted range and the refusals
    assert min(conds) < 1.01 and max(conds) > 1e7 and refused > 1000


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bad", [0.0, math.inf, -math.inf, math.nan])
def test_min_norm_solver_refuses_zero_and_non_finite_rows(k, bad):
    rng = np.random.default_rng(4)
    bad_row = np.array([1.0, bad, 0.0, 2.0]) if bad else np.zeros(4)
    for j in range(k):
        rows = list(rng.normal(size=(k, 4)))
        rows[j] = bad_row
        with pytest.raises(GramSingular, match="vanished or overflowed"):
            _solve_min_norm(rows, np.eye(k)[-1], FlowSpec.cond_max)


def _pair_cosine(cond):
    """The row cosine g at which (1 + g) / (1 - g) = cond."""
    return (cond - 1.0) / (cond + 1.0)


@pytest.mark.parametrize("k", [2, 3])
def test_min_norm_solver_cond_max_boundary(k):
    # rows e1, g e1 + s e2 (and g (e1 + e2)/sqrt 2 + s e3 for three rows):
    # both normalized Grams have eigenvalues 1 - g, (1,) 1 + g
    cond_max = FlowSpec.cond_max
    for factor, solves in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        g = _pair_cosine(factor * cond_max)
        s = math.sqrt((1.0 - g) * (1.0 + g))
        if k == 2:
            rows = [np.array([1.0, 0.0, 0.0]), np.array([g, s, 0.0])]
        else:
            rows = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                    np.array([g / math.sqrt(2.0), g / math.sqrt(2.0), s])]
        d = np.eye(k)[-1]
        if solves:
            w, cond = _solve_min_norm(rows, d, cond_max)
            assert cond <= cond_max
            assert cond == pytest.approx(factor * cond_max, rel=1e-7)
            np.testing.assert_allclose([r @ w for r in rows], d, atol=1e-7)
        else:
            with pytest.raises(GramSingular, match="exceeds"):
                _solve_min_norm(rows, d, cond_max)


def test_monodromy_cond_max_boundary_takes_the_fallback():
    # f = z1 at (1/2, delta): grad log|f| is along Re z1 and grad theta
    # along Im z1, so the three-row Gram has the pair cosine
    # g = 1 / sqrt(1 + 4 delta^2) of the point and grad log|f|
    g1 = parse_germ("z1", 2)
    spec = FlowSpec(FlowKind.MONODROMY)
    for factor, fallback in ((1.0 - 1e-6, False), (1.0 + 1e-6, True)):
        g = _pair_cosine(factor * spec.cond_max)
        delta = 0.5 * math.sqrt((1.0 - g) * (1.0 + g)) / g
        x = np.array([0.5, delta, 0.0, 0.0])
        w, _, dg = synthesize_field(g1, spec, x, _floor(g1, x))
        assert dg.fallback is fallback
        if fallback:
            # the two remaining rows are orthogonal: w = grad theta / |.|^2
            assert dg.cond == 1.0
            np.testing.assert_allclose(w, [0.0, 0.0, 0.5, 0.0], atol=1e-15)
        else:
            assert dg.cond <= spec.cond_max
            assert dg.cond == pytest.approx(factor * spec.cond_max, rel=1e-7)


def test_completeness_violation_on_forced_fallback(monkeypatch):
    # twisted mixed germ point whose two-row solution drifts |f| too fast;
    # cond_max is set between the two Gram conditions to force the fallback
    monkeypatch.setattr(FlowSpec, "cond_max", 2.0)
    g = parse_germ("z1^2*zbar2 + z2^2*zbar1", 2)
    x = np.array([-0.08311743, -0.14965865, -0.43594811, -0.1750515])
    with pytest.raises(CompletenessViolation):
        synthesize_field(g, FlowSpec(FlowKind.MONODROMY), x, _floor(g, x))


def test_integrate_zero_span():
    tr = integrate(BRIESKORN, FlowSpec(FlowKind.MONODROMY),
                   np.array([0.4 + 0.1j, 0.2 + 0.0j]), (1.0, 1.0))
    assert tr.termination == "empty-span"
    assert tr.n_accepted == 0 and len(tr.t) == 1


def test_integrate_rejects_a_non_finite_span():
    for t1 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            integrate(BRIESKORN, FlowSpec(FlowKind.MONODROMY),
                      np.array([0.4 + 0.1j, 0.2 + 0.0j]), (0.0, t1))


def test_step_budget_ends_a_flow(monkeypatch):
    z0 = np.array([0.4 + 0.1j, 0.2 + 0.0j])
    spec = FlowSpec(FlowKind.MONODROMY)
    tr = integrate(BRIESKORN, spec, z0, (0.0, 2.0 * math.pi))
    assert tr.termination == "completed" and tr.n_accepted > 40
    # 5 per unit of span allow 31.4 attempts over 2 pi
    monkeypatch.setattr(flows, "MAX_STEPS", 5)
    with pytest.raises(StepCollapse, match="^32 attempted steps"):
        integrate(BRIESKORN, spec, z0, (0.0, 2.0 * math.pi))


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
    # |f| = 0.1 and |f| = eta = 0.5: the CLI's tube-start condition
    g = parse_germ("z1", 2)
    for start in ([0.1 + 0.0j, 0.4 + 0.0j], [0.5 + 0.0j, 0.0j]):
        with pytest.raises(ValueError, match="at or below the tube level"):
            equivalence_transport(g, 0.5, 0.5, np.array([start]))


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


def _fiber_flow(kind):
    """A fiber start at r = 0.5 and the end time of its default CLI flow:
    one revolution, r^2 down by 0.75 r0^2, or |f| down to the tube level."""
    z0 = _fiber_starts(BRIESKORN, 0.0, 0.5, 1, 0, 1e-10)[0]
    eta = 1e-3 * BRIESKORN.scale(0.5)
    t1 = {FlowKind.MONODROMY: 2.0 * math.pi,
          FlowKind.RADIAL: -0.75 * 0.5 ** 2,
          FlowKind.TUBE_EQUIVALENCE: math.log(
              eta / abs(complex(evaluate(BRIESKORN, z0))))}[kind]
    return z0, t1


@pytest.mark.parametrize("kind", list(FlowKind))
def test_drift_entries_follow_their_definitions(kind):
    # the definitions as a per-point loop in Python floats; the keys a
    # kind does not monitor stay 0
    z0, t1 = _fiber_flow(kind)
    tr = integrate(BRIESKORN, FlowSpec(kind), z0, (0.0, t1))
    assert tr.termination == "completed" and tr.n_accepted > 10
    want = {"norm": 0.0, "absf_rel": 0.0, "theta": 0.0, "affine": 0.0}
    t0, r0, a0, th0 = (float(v[0]) for v in
                       (tr.t, tr.norms, tr.abs_f, tr.theta))
    for t, r, a, th in zip(*(v.tolist() for v in
                             (tr.t, tr.norms, tr.abs_f, tr.theta))):
        if kind is FlowKind.MONODROMY:
            dev = {"norm": r - r0, "absf_rel": abs(a - a0) / a0,
                   "affine": (th - th0) - (t - t0)}
        elif kind is FlowKind.RADIAL:
            dev = {"theta": th - th0, "affine": r * r - (r0 * r0 + (t - t0))}
        else:
            dev = {"theta": th - th0,
                   "affine": math.log(a / a0) - (t - t0)}
        for key, v in dev.items():
            want[key] = max(want[key], abs(v))
    assert list(tr.drift) == list(want)
    assert tr.drift == want
    assert tr.drift["affine"] > 0.0


@pytest.mark.parametrize("kind,k", [(FlowKind.MONODROMY, 1),
                                    (FlowKind.RADIAL, 3),
                                    (FlowKind.TUBE_EQUIVALENCE, 3)])
def test_one_germ_pass_per_accepted_step(monkeypatch, kind, k):
    # two passes at the start (f and the first slope), six stages per
    # attempted step, and per accepted step the slope refresh, which also
    # gives f; the member projection of radial and tube adds two more
    z0, t1 = _fiber_flow(kind)
    kernel, calls = germ_module._derivatives, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(germ_module, "_derivatives", counted)
    tr = integrate(BRIESKORN, FlowSpec(kind), z0, (0.0, t1))
    assert tr.termination == "completed" and tr.n_accepted > 10
    assert len(calls) == (2 + 6 * (tr.n_accepted + tr.n_rejected)
                          + k * tr.n_accepted)


def _injected(monkeypatch, fail):
    """Patch flows.synthesize_field to raise fail(call index, x) where that
    is an exception, and to synthesize the field elsewhere."""
    calls = itertools.count()

    def patched(germ, spec, x, axis_floor):
        exc = fail(next(calls), x)
        if exc is not None:
            raise exc
        return synthesize_field(germ, spec, x, axis_floor)

    monkeypatch.setattr(flows, "synthesize_field", patched)


LINEAR = parse_germ("z1", 2)
LINEAR_START = np.array([0.5 + 0.0j, 0.2 + 0.1j])
# loose enough that no step of the clean run is rejected
LOOSE = FlowSpec(FlowKind.MONODROMY, rtol=1e-6, atol=1e-8)


def test_stage_failure_rejects_the_step_and_the_run_completes(monkeypatch):
    # call 0 is the start slope and calls 1-6 the stages of the first step
    clean = integrate(LINEAR, LOOSE, LINEAR_START, (0.0, 1.0))
    assert clean.n_rejected == 0
    _injected(monkeypatch, lambda k, x: GramSingular("injected")
              if k == 2 else None)
    tr = integrate(LINEAR, LOOSE, LINEAR_START, (0.0, 1.0))
    assert tr.termination == "completed"
    assert tr.n_rejected == 1
    np.testing.assert_allclose(tr.points[-1], clean.points[-1], atol=1e-9)


def test_persistent_stage_failure_collapses_the_step(monkeypatch):
    _injected(monkeypatch, lambda k, x: GramSingular("injected")
              if k > 0 else None)
    with pytest.raises(StepCollapse, match="below floor"):
        integrate(LINEAR, LOOSE, LINEAR_START, (0.0, 1.0))


def test_axis_hit_on_the_slope_refresh_is_an_axis_approach(monkeypatch):
    # call 7 refreshes the slope at the first accepted point
    _injected(monkeypatch, lambda k, x: AxisProximity("injected")
              if k == 7 else None)
    with pytest.raises(AxisApproach, match="injected"):
        integrate(LINEAR, LOOSE, LINEAR_START, (0.0, 1.0))


def test_failed_transport_fails_only_its_own_record(monkeypatch):
    eta = 1e-3 * BRIESKORN.scale(0.5)
    starts = _sphere_starts(BRIESKORN, 0.5, eta, 3, 4)
    solo = [equivalence_transport(BRIESKORN, 0.5, eta, z[None, :])[0]
            for z in starts[[0, 2]]]
    middle = to_real(starts[1])
    _injected(monkeypatch, lambda k, x: GramSingular("injected")
              if np.array_equal(x, middle) else None)
    recs = equivalence_transport(BRIESKORN, 0.5, eta, starts)
    assert [r.success for r in recs] == [True, False, True]
    assert recs[1].error == "GramSingular" and recs[1].steps == 0
    assert canonical_json(recs[1].start) == canonical_json(starts[1])
    assert [canonical_json(r) for r in recs[::2]] == [
        canonical_json(r) for r in solo]
