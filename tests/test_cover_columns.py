"""The coordinate-major cover kernels against the row-major kernels they
replaced, byte for byte; the cover's histogram counts against np.histogram;
and the column core of SobolDraw against its row views."""

import math

import numpy as np
import pytest

from pencillab import _num
from pencillab._num import SobolDraw, norm_rows, sum_columns, to_complex
from pencillab.germ import (GRAD_FLOOR, column_gradients, gram_margin,
                            parse_germ, real_gradients)
from pencillab.regularity import (ANGLE_MARGIN, COLINEARITY_TOL, HIST_BINS,
                                  _bin_counts, _colinearity, _defects,
                                  _metric_mapper, _metric_normal)

# the metric of tests/test_regularity.py
METRIC_Q = np.array([[2.0, 0.3, 0.0, 0.1],
                     [0.3, 1.0, 0.2, 0.0],
                     [0.0, 0.2, 1.5, 0.0],
                     [0.1, 0.0, 0.0, 1.0]])
# the five benchmark germs and a germ whose colinearity tally flags rows
GERMS = [("z1^2 + z2^3", 2), ("z1^2 + z2^3 + z3^5", 3),
         ("z1^2*zbar2 + z2^2*zbar1", 2), ("z1*zbar2", 2), ("z1", 2),
         ("z1^3 + z1*z2^3", 2)]


def _row_defects(g, X, floor, Q=None):
    """The row-major defect kernel the column one replaced, kept as its
    reference: (defect, axis, degenerate, f, grad_a) at the rows X, its
    dots and metric normal np.sum's sums of products over each row."""
    def dot(u, v):
        return np.sum(u * v, axis=-1)

    f, ga, gb = real_gradients(g, X)
    a, b = f.real, f.imag
    rho = np.sqrt(a * a + b * b)
    gts = a[..., None] * gb - b[..., None] * ga
    grad_theta = gts / (f.real ** 2 + f.imag ** 2)[..., None]
    axis = rho <= floor
    usable = ~axis & (norm_rows(grad_theta) * norm_rows(X) >= GRAD_FLOOR)
    normal = X if Q is None else np.sum(Q * X[..., None, :], axis=-1)
    gu, nu = grad_theta[usable], normal[usable]
    perp = gu - (dot(gu, nu) / dot(nu, nu))[..., None] * nu
    defect = np.full(rho.shape, np.inf)
    defect[usable] = np.minimum(np.sqrt(dot(perp, perp) / dot(gu, gu)), 1.0)
    return defect, axis, ~axis & ~usable, f, ga


def _row_colinearity(f, grad_a, X):
    """The row-major phase-colinearity kernel, kept as the reference."""
    grad, zbar = to_complex(grad_a), to_complex(X)
    np.conjugate(zbar, out=zbar)
    norms = norm_rows(np.abs(grad)) * norm_rows(np.abs(zbar))
    inner = np.sum(grad * zbar, axis=-1)
    lam = f * inner
    colin = np.where(norms > 0, 1.0 - np.abs(inner) / norms, 1.0)
    arg = np.angle(lam)
    violated = (colin < COLINEARITY_TOL) & (
        np.abs(arg) >= math.pi / 4.0 - ANGLE_MARGIN)
    return colin, lam, arg, violated


def _row_gram_margin(u, v, uu=None):
    """The row-major Gram margin, kept as the reference."""
    uu = np.sum(u * u, axis=-1) if uu is None else uu
    vv, uv = np.sum(v * v, axis=-1), np.sum(u * v, axis=-1)
    disc = np.sqrt(np.maximum((uu - vv) ** 2 + 4.0 * uv ** 2, 0.0))
    return np.sqrt(np.maximum(0.5 * (uu + vv - disc), 0.0))


def _special_rows(dim):
    """Axis, tiny, huge and non-finite rows."""
    rows = np.zeros((8, dim))
    rows[1, 0] = 1e-200
    rows[2, :] = 1e-170
    rows[3, :] = 1e200
    rows[4, 0], rows[5, -1], rows[6, 1] = np.nan, np.inf, -np.inf
    rows[7, :2] = [-0.0, 0.3]
    return rows


def _bytes(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _same_kernels(g, X, floor, Q=None):
    """Every column kernel at X.T against its row reference at X."""
    Xc = np.ascontiguousarray(X.T)
    with np.errstate(all="ignore"):
        d, axis, deg, f, ga = _defects(g, Xc, floor, Q)
        rd, raxis, rdeg, rf, rga = _row_defects(g, X, floor, Q)
        assert _bytes(d, axis, deg, f, ga.T) == _bytes(rd, raxis, rdeg, rf,
                                                        rga)
        assert _bytes(*_colinearity(f, ga, Xc)) == _bytes(
            *_row_colinearity(rf, rga, X))
        _, cga, cgb = column_gradients(g, Xc)
        _, rga, rgb = real_gradients(g, X)
        assert _bytes(cga.T, cgb.T) == _bytes(rga, rgb)
        assert _bytes(gram_margin(cga, cgb)) == _bytes(
            _row_gram_margin(rga, rgb))
        unit, rows = Xc / _num.norm_columns(Xc), X / norm_rows(X)[:, None]
        assert _bytes(gram_margin(unit, cga, uu=1.0)) == _bytes(
            _row_gram_margin(rows, rga, uu=1.0))
    return int(np.count_nonzero(axis)), int(np.count_nonzero(deg))


@pytest.mark.parametrize("text,n", GERMS)
def test_column_kernels_are_the_row_kernels_bit_for_bit(text, n):
    g = parse_germ(text, n)
    dim, floor = 2 * n, g.f_floor(0.5)
    draw = SobolDraw(3, (0xD4E6, 0), 3 * 8192, dim)
    X = np.vstack([0.5 * draw.rows(4096, 3 * 8192), _special_rows(dim)])
    axis, _ = _same_kernels(g, X, floor)
    assert axis >= 3
    # a 1-row tail chunk and a row alone
    for k in (0, 17, len(X) - 1):
        _same_kernels(g, X[k:k + 1], floor)


def test_degenerate_rows_are_the_row_kernels_bit_for_bit():
    # f is real, so every usable-looking row is degenerate
    g = parse_germ("z1*zbar1 + z2*zbar2", 2)
    X = np.vstack([0.5 * SobolDraw(0, (1,), 500, 4).rows(0, 500),
                   _special_rows(4)])
    _, degenerate = _same_kernels(g, X, g.f_floor(0.5))
    assert degenerate >= 500


@pytest.mark.parametrize("text,n", [("z1^2 + z2^3", 2),
                                    ("z1^2*zbar2 + z2^2*zbar1", 2)])
def test_metric_cover_is_the_row_cover_bit_for_bit(text, n):
    g = parse_germ(text, n)
    lift, Q = _metric_mapper(METRIC_Q, 0.5)
    Lt = np.linalg.inv(np.linalg.cholesky(METRIC_Q)).T
    U = SobolDraw(1, (0xD4E6, 0), 9000, 4).rows(0, 9000)
    X = 0.5 * np.sum(Lt * U[:, None, :], axis=-1)
    assert lift(np.ascontiguousarray(U.T)).T.tobytes() == X.tobytes()
    _same_kernels(g, np.vstack([X, _special_rows(4)]), g.f_floor(0.5), Q)
    # a 1-row tail chunk is lifted alone
    assert lift(U[-1:].T).T.tobytes() == X[-1:].tobytes()
    _same_kernels(g, X[-1:], g.f_floor(0.5), Q)


def test_column_sums_take_the_order_of_numpy_row_sums():
    rng = np.random.default_rng(0x5C01)
    for m in [*range(1, 21), 130]:
        A = rng.normal(size=(400, m)) * 10.0 ** rng.integers(-8, 8, (400, m))
        A[:3] = -0.0
        At = np.ascontiguousarray(A.T)
        assert sum_columns(At).tobytes() == np.sum(A, axis=-1).tobytes()
        Q = rng.normal(size=(m, m))
        assert _metric_normal(Q, At).T.tobytes() == np.sum(
            Q * A[:, None, :], axis=-1).tobytes()


@pytest.mark.parametrize("radius", [None, 0.7])
@pytest.mark.parametrize("dim", [4, 6])
def test_sobol_columns_are_the_rows_transposed(monkeypatch, radius, dim):
    monkeypatch.setattr(_num, "CHUNK_ROWS", 1024)
    draw = SobolDraw(5, (0xD4E6, 0), 5000, dim, radius)
    for a, b in ((0, 5000), (1000, 1030), (1023, 1025), (700, 3100),
                 (4999, 5000)):
        cols = draw.columns(a, b)
        assert cols.shape == (dim, b - a) and cols.flags.c_contiguous
        assert cols.T.tobytes() == draw.rows(a, b).tobytes()
        assert cols.T.tobytes() == draw.at(np.arange(a, b)).tobytes()


def test_bin_counts_are_numpy_histogram_counts():
    edges = np.arange(HIST_BINS + 1) / HIST_BINS
    values = np.concatenate([
        [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, -1e-300, 1.5],
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        np.random.default_rng(7).random(5000)])
    for chunk in (values, values[:1], values[:0], values[8:40]):
        want, _ = np.histogram(chunk[np.isfinite(chunk)], bins=HIST_BINS,
                               range=(0.0, 1.0))
        got = _bin_counts(chunk)
        assert got.shape == (HIST_BINS,)
        assert got.tolist() == want.tolist()
