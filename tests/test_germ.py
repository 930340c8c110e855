"""Parser, exact derivatives, and differential bundles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencillab.errors import AxisProximity, GermSyntaxError
from pencillab.germ import (MixedGerm, _derivatives, differential_sample,
                            evaluate, format_germ, jacobian_rank_margin,
                            jacobian_rank_margin_batch, parse_germ,
                            real_gradients, real_hessians,
                            value_and_gradient, wirtinger_hessian)
from pencillab._num import to_real


def test_parse_basic_terms():
    g = parse_germ("z1^2 + z2^3", 2)
    assert g.n == 2
    assert g.terms == (((1 + 0j), (2, 0), (0, 0)), ((1 + 0j), (0, 3), (0, 0)))


def test_parse_collects_like_terms():
    assert parse_germ("z1 + z1", 2).terms == parse_germ("2*z1", 2).terms


def test_parse_expands_powers_of_sums():
    g = parse_germ("(z1 + z2)^2", 2)
    assert g.terms == parse_germ("z1^2 + 2*z1*z2 + z2^2", 2).terms


def test_parse_conjugate_spellings_agree():
    assert parse_germ("zbar1*z2", 2).terms == parse_germ("conj(z1)*z2", 2).terms


def test_parse_complex_coefficient():
    g = parse_germ("2*z1*zbar2 - 0.5*i*z2^2", 2)
    assert ((-0.5j), (0, 2), (0, 0)) in g.terms
    assert ((2 + 0j), (1, 0), (0, 1)) in g.terms


@pytest.mark.parametrize("text,pos", [
    ("z1 +", 4),
    ("z3", 0),
    ("z1^", 3),
    ("w1", 0),
    ("z1**2", 3),
    ("(z1", 3),
    ("z0", 0),
])
def test_parse_errors_carry_positions(text, pos):
    with pytest.raises(GermSyntaxError) as exc:
        parse_germ(text, 2)
    assert exc.value.position == pos


def test_format_round_trip():
    for text in ["z1^2 + z2^3", "-z1 + i*z2", "z1*zbar2 + zbar1^2",
                 "(z1 + z2)*(z1 - z2)", "0.25*z1^3*zbar1"]:
        g = parse_germ(text, 2)
        assert parse_germ(format_germ(g), 2).terms == g.terms


@st.composite
def random_germs(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    terms = {}
    for _ in range(k):
        p = tuple(draw(st.integers(0, 3)) for _ in range(n))
        q = tuple(draw(st.integers(0, 2)) for _ in range(n))
        if sum(p) + sum(q) == 0:
            continue
        c = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        if c == 0:
            continue
        terms[(p, q)] = terms.get((p, q), 0) + c
    terms = {k_: v for k_, v in terms.items() if v != 0}
    if not terms:
        terms = {((1,) + (0,) * (n - 1), (0,) * n): 1 + 0j}
    entries = sorted(((c, p, q) for (p, q), c in terms.items()),
                     key=lambda t: (t[1], t[2]))
    return MixedGerm(n, tuple(entries))


@given(random_germs())
@settings(max_examples=40, deadline=None)
def test_print_parse_round_trip(g):
    assert set(parse_germ(format_germ(g), g.n).terms) == set(g.terms)


def test_evaluate_linear_and_batch():
    g = parse_germ("z1", 2)
    z = np.array([[0.3 + 0.4j, 1.0j], [1.0 + 0.0j, 0.0j]])
    np.testing.assert_allclose(evaluate(g, z), z[:, 0])


def test_evaluate_frozen_point():
    g = parse_germ("z1^2 + z2^3", 2)
    z = np.array([0.3 + 0.4j, -0.2 + 0.1j])
    want = (0.3 + 0.4j) ** 2 + (-0.2 + 0.1j) ** 3
    assert abs(complex(evaluate(g, z)) - want) < 1e-15


def _fd_wirtinger(g, z, h=1e-6):
    # central differences in Re and Im of each coordinate
    n = g.n
    dz = np.zeros(n, dtype=complex)
    dzb = np.zeros(n, dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        fu = (complex(evaluate(g, z + h * e)) - complex(evaluate(g, z - h * e))) / (2 * h)
        fv = (complex(evaluate(g, z + 1j * h * e)) - complex(evaluate(g, z - 1j * h * e))) / (2 * h)
        dz[j] = 0.5 * (fu - 1j * fv)
        dzb[j] = 0.5 * (fu + 1j * fv)
    return dz, dzb


@pytest.mark.parametrize("text,n", [
    ("z1^2 + z2^3", 2),
    ("z1^2*zbar2 + z2^2*zbar1", 2),
    ("z1*zbar2 + i*z2^2", 2),
])
def test_wirtinger_gradient_matches_finite_differences(text, n):
    g = parse_germ(text, n)
    rng = np.random.default_rng(5)
    for _ in range(4):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        _, dz, dzb = value_and_gradient(g, z)
        fdz, fdzb = _fd_wirtinger(g, z)
        np.testing.assert_allclose(dz, fdz, atol=5e-8)
        np.testing.assert_allclose(dzb, fdzb, atol=5e-8)


# off-diagonal entries need n >= 2, the mixed A/B/C blocks conjugates
HESSIAN_GERMS = [
    ("z1^2*zbar2 + z2^3 + z1*zbar1", 2),
    ("z1^2 + z2^3 + z3^5", 3),
    ("z1^2*zbar2 + z2^2*zbar1", 2),
    ("z1*zbar2", 2),
    ("z1^3 + z1*z2^3", 2),
]


@pytest.mark.parametrize("text,n", HESSIAN_GERMS)
def test_wirtinger_hessian_matches_finite_differences(text, n):
    g = parse_germ(text, n)
    rng = np.random.default_rng(9)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    A, B, C = wirtinger_hessian(g, z)
    h = 1e-5
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        dzp, dzbp = _fd_wirtinger(g, z + h * e, h=1e-5)
        dzm, dzbm = _fd_wirtinger(g, z - h * e, h=1e-5)
        dzi, dzbi = _fd_wirtinger(g, z + 1j * h * e, h=1e-5)
        dzmi, dzbmi = _fd_wirtinger(g, z - 1j * h * e, h=1e-5)
        ddz_u = (dzp - dzm) / (2 * h)
        ddz_v = (dzi - dzmi) / (2 * h)
        ddzb_u = (dzbp - dzbm) / (2 * h)
        ddzb_v = (dzbi - dzbmi) / (2 * h)
        # d/dz_j of dz and dzb rows
        np.testing.assert_allclose(0.5 * (ddz_u - 1j * ddz_v), A[j], atol=2e-5)
        np.testing.assert_allclose(0.5 * (ddzb_u - 1j * ddzb_v), B[j], atol=2e-5)
        np.testing.assert_allclose(0.5 * (ddzb_u + 1j * ddzb_v), C[j], atol=2e-5)


# the kernel's lone-point branch (no batch axis) against the array path
LONE_GERMS = [
    ("z1^2 + z2^3", 2),
    ("z1^2*zbar2 + z2^2*zbar1", 2),
    ("(1+2i)*z1^2*zbar1 + 0.3*z2^5 - 1.7i*z1*z2", 2),
    ("z1^2 + z2^3 + z3^5", 3),
    # derivative slots that keep no power factor
    ("z1*z2 + 3*z1 - 2i*zbar2", 2),
]
ORDER_SETS = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def _points(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))


@pytest.mark.parametrize("orders", ORDER_SETS)
@pytest.mark.parametrize("text,n", LONE_GERMS)
def test_lone_point_matches_a_batch_of_one(text, n, orders):
    g = parse_germ(text, n)
    # every slot of the germ with |c| at |z| sums the magnitudes of the
    # terms that add into that slot
    size = MixedGerm(n, tuple((abs(c) + 0j, p, q) for c, p, q in g.terms))
    for z in _points(n, 20, 21):
        lone = _derivatives(g, z, orders)
        batch = _derivatives(g, z[None, :], orders)
        bound = _derivatives(size, np.abs(z), orders)
        assert len(lone) == len(batch) == len(orders) + sum(orders)
        for a, b, m in zip(lone, batch, bound):
            assert type(a) is np.ndarray and a.dtype == complex
            assert a.shape == b.shape[1:] == (n,) * a.ndim
            assert np.all(np.abs(a - b[0]) <= 4 * np.finfo(float).eps * m.real)


@pytest.mark.parametrize("text,n", LONE_GERMS)
def test_lone_point_wrappers_share_one_kernel_pass(text, n):
    g = parse_germ(text, n)
    for z in _points(n, 5, 22):
        f = evaluate(g, z)
        f1, dz1, dzb1 = value_and_gradient(g, z)
        f2, dz2, dzb2, *_ = wirtinger_hessian(g, z, gradient=True)
        assert f.tobytes() == f1.tobytes() == f2.tobytes()
        assert dz1.tobytes() == dz2.tobytes()
        assert dzb1.tobytes() == dzb2.tobytes()


@pytest.mark.parametrize("text,n", LONE_GERMS)
def test_batch_of_one_is_its_row_in_a_batch(text, n):
    g = parse_germ(text, n)
    Z = _points(n, 6, 23)
    for orders in ORDER_SETS:
        rows = _derivatives(g, Z, orders)
        for k in (0, 4):
            one = _derivatives(g, Z[k:k + 1], orders)
            assert [a[0].tobytes() for a in one] == [
                b[k].tobytes() for b in rows]
        # a multi-axis batch, as the polish's difference stencil sends
        grid = _derivatives(g, Z.reshape(2, 3, n), orders)
        assert [a.reshape(b.shape).tobytes() for a, b in zip(grid, rows)] == [
            b.tobytes() for b in rows]


def test_real_gradients_match_finite_differences():
    g = parse_germ("z1^2*zbar2 + z2^3", 2)
    rng = np.random.default_rng(3)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    y = to_real(z)
    f, ga, gb = real_gradients(g, y[None, :])
    h = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        zp = (y + e)[:2] + 1j * (y + e)[2:]
        zm = (y - e)[:2] + 1j * (y - e)[2:]
        fp = complex(evaluate(g, zp))
        fm = complex(evaluate(g, zm))
        assert abs(ga[0][k] - (fp.real - fm.real) / (2 * h)) < 5e-8
        assert abs(gb[0][k] - (fp.imag - fm.imag) / (2 * h)) < 5e-8


@pytest.mark.parametrize("text,n", [("z1^3 + z1*zbar2^2", 2)]
                         + HESSIAN_GERMS[1:])
def test_real_hessians_match_gradient_differences(text, n):
    g = parse_germ(text, n)
    rng = np.random.default_rng(11)
    y = to_real(rng.normal(size=n) + 1j * rng.normal(size=n))
    Ha, Hb = real_hessians(g, y[None, :])
    h = 1e-6
    for k in range(2 * n):
        e = np.zeros(2 * n)
        e[k] = h
        _, gap, gbp = real_gradients(g, (y + e)[None, :])
        _, gam, gbm = real_gradients(g, (y - e)[None, :])
        np.testing.assert_allclose(Ha[0][:, k], (gap[0] - gam[0]) / (2 * h),
                                   atol=5e-7)
        np.testing.assert_allclose(Hb[0][:, k], (gbp[0] - gbm[0]) / (2 * h),
                                   atol=5e-7)


def test_differential_sample_linear_closed_forms():
    # f = z1 in one variable: log|f| has radial gradient x / r^2 and the
    # phase gradient is its quarter turn
    g = parse_germ("z1", 1)
    f, grad_log_rho, grad_theta = differential_sample(
        g, np.array([0.6, 0.8]), g.axis_floor(1.0))
    r2 = 1.0
    np.testing.assert_allclose(grad_log_rho, np.array([0.6, 0.8]) / r2,
                               atol=1e-15)
    np.testing.assert_allclose(grad_theta, np.array([-0.8, 0.6]) / r2,
                               atol=1e-15)
    assert abs(abs(f) - 1.0) < 1e-15
    theta = math.atan2(f.imag, f.real) % (2.0 * math.pi)
    assert abs(theta - math.atan2(0.8, 0.6)) < 1e-15


def test_differential_sample_raises_on_axis():
    g = parse_germ("z1", 2)
    with pytest.raises(AxisProximity):
        differential_sample(g, np.array([0.0, 0.5, 0.0, 0.0]),
                            g.axis_floor(0.5))


def test_phase_gradient_is_rotated_log_gradient_for_holomorphic():
    # conjugate harmonic pair: grad theta = J grad log|f|
    g = parse_germ("z1^2 + z2^3", 2)
    rng = np.random.default_rng(7)
    for _ in range(6):
        x = to_real(rng.normal(size=2) + 1j * rng.normal(size=2))
        _, grad_log_rho, grad_theta = differential_sample(
            g, x, g.axis_floor(float(np.linalg.norm(x))))
        # multiplication by i in the stacked layout: [a ; b] -> [-b ; a]
        a, b = np.split(grad_log_rho, 2)
        np.testing.assert_allclose(grad_theta, np.concatenate([-b, a]),
                                   atol=1e-12)


def test_jacobian_rank_margin_linear_is_one():
    g = parse_germ("z1", 2)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = to_real(rng.normal(size=2) + 1j * rng.normal(size=2))
        assert abs(jacobian_rank_margin(g, x) - 1.0) < 1e-14


def test_jacobian_rank_margin_frozen_value():
    # independent SVD oracle on the explicit 2 x 4 Jacobian gives sqrt(13)
    g = parse_germ("z1^2 + z2^3", 2)
    x = np.array([1.0, 1.0, 0.0, 0.0])     # z = (1, 1)
    _, ga, gb = real_gradients(g, x[None, :])
    s = np.linalg.svd(np.stack([ga[0], gb[0]]), compute_uv=False)
    assert abs(s[1] - math.sqrt(13)) < 1e-12
    assert abs(jacobian_rank_margin(g, x) - math.sqrt(13)) < 1e-12


def test_jacobian_rank_margin_batch_matches_pointwise():
    g = parse_germ("z1^2*zbar2 + z2^2*zbar1", 2)
    rng = np.random.default_rng(13)
    X = to_real(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
    batch = jacobian_rank_margin_batch(g, X)
    for i in range(8):
        assert abs(batch[i] - jacobian_rank_margin(g, X[i])) < 1e-10


def test_json_round_trip():
    g = parse_germ("z1^2*zbar2 - 0.5*i*z2^3", 2)
    assert MixedGerm.from_json_dict(g.to_json_dict()).terms == g.terms


def test_scale_and_floors():
    g = parse_germ("z1^2 + z2^3", 2)
    assert abs(g.scale(0.5) - 0.25) < 1e-15
    assert 0.0 < g.axis_floor(0.5) < g.f_floor(0.5)
