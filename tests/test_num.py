"""The quasi-random samplers, the batched Newton driver gauss_newton and
the report serializer canonical_json."""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest
from scipy.stats import norm, qmc

from pencillab import _num
from pencillab._num import (SobolDraw, _newton_step, canonical_json,
                            gauss_newton, sobol_ball, sobol_unit_sphere,
                            solve_rows, stream)


def _norm_ppf_directions(seed, key, count, dim, extra=0):
    """The samplers' formula spelled out with scipy.stats.norm.ppf: the
    clipped scrambled Sobol cube with dim + extra columns, and its first
    dim columns through norm.ppf, each row divided by its norm."""
    if count <= 0:
        return np.empty((0, dim)), np.empty((0, dim + extra))
    eng = qmc.Sobol(d=dim + extra, scramble=True, seed=stream(seed, *key))
    m = max(1, int(math.ceil(math.log2(count))))
    cube = np.clip(eng.random_base2(m)[:count], np.finfo(float).tiny,
                   1.0 - 1e-16)
    g = norm.ppf(cube[:, :dim])
    nrm = np.sqrt(np.sum(g ** 2, axis=-1))
    nrm[nrm == 0.0] = 1.0
    return g / nrm[..., None], cube


@pytest.mark.parametrize("count", [0, 1, 3, 200, 4095, 4096, 4097, 20000,
                                   100000, 131073])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 13])
def test_samplers_match_the_norm_ppf_formula_bit_for_bit(count, dim):
    # scipy's qmc.Sobol and norm.ppf are the reference for the package's
    # own Sobol generator and its ndtri map; the ball draws dim + 1 <= 14
    for seed in (0, 1, 7):
        key = (0xD4E6, seed)
        ref, _ = _norm_ppf_directions(seed, key, count, dim)
        got = sobol_unit_sphere(seed, key, count, dim)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

        g, cube = _norm_ppf_directions(seed, key, count, dim, extra=1)
        ref = g * (0.7 * cube[:, dim] ** (1.0 / dim))[..., None]
        got = sobol_ball(seed, key, count, dim, 0.7)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("count", [1, 40, 8193, 70000])
@pytest.mark.parametrize("dim", [4, 5, 6])
def test_draw_by_chunk_and_by_index_is_the_one_shot_draw(monkeypatch, count,
                                                         dim):
    key = (0xD4E6, 0)
    whole = {None: sobol_unit_sphere(5, key, count, dim),
             0.7: sobol_ball(5, key, count, dim, 0.7)}
    rng = np.random.default_rng(count * 10 + dim)
    index = np.r_[0, count - 1, rng.integers(0, count, 50)]
    for chunk in (1024, 8192, 2 ** 20):
        monkeypatch.setattr(_num, "CHUNK_ROWS", chunk)
        for radius, ref in whole.items():
            draw = SobolDraw(5, key, count, dim, radius)
            rows = np.concatenate([draw.rows(a, min(a + chunk, count))
                                   for a in range(0, count, chunk)])
            assert rows.tobytes() == ref.tobytes()
            assert draw.at(index).tobytes() == ref[index].tobytes()
            # a range across block edges
            a, b = count // 3, count - count // 5
            assert draw.rows(a, b).tobytes() == ref[a:b].tobytes()


def test_samplers_refuse_what_scipy_refuses():
    # at most 21201 dimensions (Joe and Kuo's table) and 2^30 points (the
    # 30 bits of the generator), as qmc.Sobol(d, bits=30) allows
    with pytest.raises(ValueError):
        qmc.Sobol(d=21202, scramble=True, seed=stream(0, 1))
    with pytest.raises(ValueError):
        sobol_unit_sphere(0, (1,), 10, 21202)
    with pytest.raises(ValueError):
        sobol_ball(0, (1,), 10, 21201, 0.5)
    with pytest.raises(ValueError):
        sobol_unit_sphere(0, (1,), 2 ** 30 + 1, 4)


def _cubic_system(A, b):
    """R(x) = A x^3 - b, cubes taken entry by entry, with its square
    Jacobian A diag(3 x^2); singular at x = 0."""
    def system(X):
        R = (X ** 3) @ A.T - b
        J = A * (3.0 * X ** 2)[:, None, :]
        return R, J
    return system


def test_square_linear_systems_converge_in_one_step():
    rng = stream(0, 0x7E57)
    A = rng.normal(size=(50, 3, 3)) + 4.0 * np.eye(3)
    b = rng.normal(size=(50, 3))
    calls = []

    def system(X):
        calls.append(len(X))
        return np.einsum("nij,nj->ni", A, X) - b, A

    X, ok = gauss_newton(system, np.zeros((50, 3)), np.ones(3))
    # one step, then one evaluation that verifies it
    assert calls == [50, 50]
    assert ok.all()
    np.testing.assert_array_equal(X, solve_rows(A, b))


def test_singular_and_non_finite_rows_stop_alone():
    rng = stream(1, 0x7E57)
    A = rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
    b = A @ rng.uniform(0.5, 2.0, size=3)
    x0 = rng.uniform(0.5, 1.5, size=(20, 3))
    system = _cubic_system(A, b)
    alone = gauss_newton(system, x0, np.ones(3))
    assert alone[1].all()
    # row 3 starts where J = 0, row 7 where the residual is NaN
    x02 = np.insert(x0, [3, 6], [np.zeros(3), [np.nan, 1.0, 1.0]], axis=0)
    X, ok = gauss_newton(system, x02, np.ones(3))
    bad = np.isin(np.arange(22), (3, 7))
    assert not ok[bad].any()
    np.testing.assert_array_equal(X[bad], x02[bad])
    np.testing.assert_array_equal(X[~bad], alone[0])
    np.testing.assert_array_equal(ok[~bad], alone[1])


@pytest.mark.parametrize("d", [4, 6])
def test_two_row_step_matches_the_lstsq_minimum_norm_step(d):
    # rows of scales 1e-3..1e3 whose second row leans on the first by a
    # random amount, so the Gram conditions spread over [1, ~1e9]. The
    # reference is lstsq on the rows scaled to unit length, which have the
    # same minimum-norm solution; cond is that of the normalised Gram, as
    # in flows._solve_min_norm
    rng = stream(2, 0x2D, d)
    n = 10000
    r0 = rng.normal(size=(n, d))
    lean = 10.0 ** rng.uniform(-3.0, 0.0, size=n)
    r1 = r0 * rng.normal(size=(n, 1)) + lean[:, None] * rng.normal(size=(n, d))
    J = np.stack([r0, r1], axis=1) * 10.0 ** rng.uniform(-3, 3, size=(n, 2, 1))
    R = rng.normal(size=(n, 2))
    got = _newton_step(J, R)
    for Ji, Ri, gi in zip(J, R, got):
        nrm = np.linalg.norm(Ji, axis=1)
        ref = np.linalg.lstsq(Ji / nrm[:, None], Ri / nrm, rcond=None)[0]
        g = abs(Ji[0] @ Ji[1]) / nrm[0] / nrm[1]
        err = np.linalg.norm(gi - ref) / np.linalg.norm(ref)
        assert err <= 1e-12 * (1.0 + g) / (1.0 - g)


def _tagged_wide_system(X):
    """Two rows in four unknowns: the unit sphere in x0..x2 and x0 = x1.
    Column 3 tags a row and never moves: 1 zeroes the first Jacobian row,
    2 makes the rows parallel with an exact unit Gram entry, 3 makes the
    residual NaN."""
    tag = X[:, 3]
    R = np.stack([np.sum(X[:, :3] ** 2, axis=-1) - 1.0, X[:, 0] - X[:, 1]],
                 axis=-1)
    J = np.zeros((len(X), 2, 4))
    J[:, 0, :3] = 2.0 * X[:, :3]
    J[:, 1, :2] = (1.0, -1.0)
    J[tag == 1, 0] = 0.0
    J[tag == 2] = [[3.0, 4.0, 0.0, 0.0], [6.0, 8.0, 0.0, 0.0]]
    R[tag == 3, 0] = np.nan
    return R, J


def test_wide_singular_and_non_finite_rows_stop_alone():
    rng = stream(3, 0x7E57)
    x0 = np.concatenate([rng.uniform(0.3, 1.0, size=(20, 3)),
                         np.zeros((20, 1))], axis=1)
    alone = gauss_newton(_tagged_wide_system, x0, np.ones(2))
    assert alone[1].all()
    bad = np.array([2, 9, 15])
    x02 = np.insert(x0, bad - np.arange(3), x0[:3], axis=0)
    x02[bad, 3] = (1.0, 2.0, 3.0)
    X, ok = gauss_newton(_tagged_wide_system, x02, np.ones(2))
    rest = ~np.isin(np.arange(23), bad)
    assert not ok[bad].any()
    np.testing.assert_array_equal(X[bad], x02[bad])
    np.testing.assert_array_equal(X[rest], alone[0])
    np.testing.assert_array_equal(ok[rest], alone[1])


@pytest.mark.parametrize("d", [2, 4])
def test_square_step_is_the_stacked_solve(d):
    # a germ in one variable has square 2 x 2 sphere systems; square
    # steps keep the plain stacked LAPACK solve
    rng = stream(4, 0x5C, d)
    J = rng.normal(size=(500, d, d))
    R = rng.normal(size=(500, d))
    assert (_newton_step(J, R).tobytes()
            == np.linalg.solve(J, R[..., None])[..., 0].tobytes())


@dataclass(frozen=True)
class _Result:
    point: Tuple[complex, ...]
    count: int
    value: float
    note: Optional[str] = None


def test_canonical_json_writes_results_field_by_field():
    # dataclass fields in declaration order, dicts in insertion order,
    # numpy values as plain ones, complex points in the stacked layout
    rep = {"b": _Result(tuple(np.array([0.5 + 1j, complex(0, -2)])), np.int64(3),
                        np.float64(0.1)),
           "a": [np.array([[1.0, 2.0]]), np.bool_(True), math.inf],
           "z": np.array([[1 + 2j], [3 + 4j]])}
    assert canonical_json(rep) == (
        '{"b":{"point":[0.5,0,1,-2],"count":3,'
        '"value":0.10000000000000001,"note":null},'
        '"a":[[[1,2]],true,"inf"],"z":[[1,2],[3,4]]}')


@pytest.mark.parametrize("value", [1j, np.complex128(1j), object()],
                         ids=["complex", "numpy-complex", "object"])
def test_canonical_json_refuses_what_has_no_report_form(value):
    with pytest.raises(TypeError):
        canonical_json({"x": value})
