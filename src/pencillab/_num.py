"""Shared numerical plumbing: real/complex layout, deterministic sampling,
the batched Newton driver, worker pool sizing, canonical JSON."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy
from scipy.special import ndtri


# ---------------------------------------------------------------------------
# real <-> complex layout
#
# A complex n-vector z is stored as the real 2n-vector [Re z ; Im z].
# Real dot products of stacked vectors equal Re<u, v> of the Hermitian
# inner product <u, v> = sum u_j * conj(v_j).
# ---------------------------------------------------------------------------

def to_real(z: np.ndarray) -> np.ndarray:
    """Stack a complex (..., n) array into a real (..., 2n) array."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def to_complex(v: np.ndarray) -> np.ndarray:
    """Inverse of to_real, filled in one complex array."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1] // 2
    z = np.empty(v.shape[:-1] + (n,), dtype=complex)
    z.real, z.imag = v[..., :n], v[..., n:]
    return z


def norm_rows(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(v) ** 2, axis=-1))


def prescaled(v) -> np.ndarray:
    """v times the power of two that puts its largest |entry| in [1, 2): an
    exact scaling after which |v| neither overflows nor underflows."""
    v = np.asarray(v, dtype=float)
    return np.ldexp(v, 1 - np.frexp(np.max(np.abs(v)))[1])


# ---------------------------------------------------------------------------
# deterministic sampling
#
# All randomness flows from one 64-bit job seed through counter-based
# streams: SeedSequence(seed, spawn_key=key) -> Philox. Quasi-random sphere
# covers use scrambled Sobol points pushed through the Gaussian inverse CDF
# ndtri and normalized. The Sobol generator is the package's own: Joe and
# Kuo's direction numbers ("Constructing Sobol sequences with better
# two-dimensional projections", SIAM J. Sci. Comput. 30, 2008), read from
# the table scipy ships with scipy.stats, scrambled by a linear matrix
# scramble and a digital shift drawn from the stream (seed, *key, 0). Its
# points are bit for bit those of scipy.stats.qmc.Sobol(dim, scramble=True,
# seed=stream(seed, *key)).random_base2(m)[:count], without importing
# scipy.stats.
# ---------------------------------------------------------------------------

def stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


SOBOL_BITS = 30
SOBOL_MAXDIM = 21201


@lru_cache(maxsize=None)
def _joe_kuo() -> Tuple[np.ndarray, np.ndarray]:
    """The primitive polynomials and initial direction numbers of Joe and
    Kuo's table for 21201 dimensions, loaded once per process.

    The initial numbers fit in 18 bits and are kept as uint32, so the
    3 MB int64 array that np.load decompresses is freed at once. On glibc
    that free also lifts the dynamic mmap threshold to 3 MB, which keeps
    the MB-sized temporaries of the Newton systems on the heap instead of
    mapping and faulting them in afresh on every call.
    """
    path = os.path.join(os.path.dirname(scipy.__file__), "stats",
                        "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"].astype(np.uint32)
    poly.setflags(write=False)
    vinit.setflags(write=False)
    return poly, vinit


@lru_cache(maxsize=None)
def _direction_numbers(dim: int) -> np.ndarray:
    """(dim, SOBOL_BITS) unscrambled direction numbers, column j shifted to
    bit SOBOL_BITS - 1 - j. Past its m initial numbers, a dimension whose
    primitive polynomial p has degree m follows Bratley and Fox's
    recurrence (ACM TOMS 14, 1988): v_j = v_{j-m} xor the sum over k < m of
    2^(k+1) v_{j-k-1} where bit m-1-k of p is set. All dimensions step
    through j together."""
    poly, vinit = _joe_kuo()
    poly = poly[:dim]
    deg = np.frexp(poly)[1] - 1
    v = np.zeros((dim, SOBOL_BITS), dtype=np.int64)
    v[:, :vinit.shape[1]] = vinit[:dim]
    v[0] = 1
    for j in range(1, SOBOL_BITS):
        rows = np.flatnonzero((deg > 0) & (deg <= j))
        m, p = deg[rows], poly[rows]
        new = v[rows, j - m]
        for k in range(int(m.max(initial=0))):
            # rows with k >= m read a wrapped column, masked out by tap
            tap = (k < m) & ((p >> np.maximum(m - 1 - k, 0)) & 1 == 1)
            new ^= np.where(tap, v[rows, j - k - 1] << (k + 1), 0)
        v[rows, j] = new
    v <<= SOBOL_BITS - 1 - np.arange(SOBOL_BITS)
    v = v.astype(np.uint32)
    v.setflags(write=False)
    return v


def _sobol_unit_cube(seed: int, key: Tuple[int, ...], count: int, dim: int) -> np.ndarray:
    """count scrambled Sobol points in [0, 1)^dim, clipped away from 0 so
    ndtri stays finite.

    The stream (seed, *key, 0), the first child SeedSequence.spawn gives
    stream(seed, *key), draws the digital shift as (dim, 30) bits
    weighted by 2^j, then (dim, 30, 30) bits for the lower-triangular
    scramble matrices L with unit diagonal, whose row p (its bits read with
    column 0 as the highest) gives bit 29 - p of each scrambled direction
    number as a parity over GF(2). Point k is the shift xor the scrambled
    direction numbers at the bits of gray(k) = k xor (k >> 1); since
    gray(2^j + i) = 2^j + gray(2^j - 1 - i), the points double block by
    block as a reflection xor column j. Points are scaled by 2^-30.
    """
    if dim > SOBOL_MAXDIM:
        raise ValueError(f"Sobol dimension {dim} > {SOBOL_MAXDIM}")
    if count > 2 ** SOBOL_BITS:
        raise ValueError(f"Sobol count {count} > 2**{SOBOL_BITS}")
    if count <= 0:
        return np.empty((0, dim))
    rng = stream(seed, *key, 0)
    weights = np.uint32(1) << np.arange(SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(0, 2, (dim, SOBOL_BITS), np.uint32) @ weights
    L = np.tril(rng.integers(0, 2, (dim, SOBOL_BITS, SOBOL_BITS), np.uint32))
    L[:, np.arange(SOBOL_BITS), np.arange(SOBOL_BITS)] = 1
    high = SOBOL_BITS - 1 - np.arange(SOBOL_BITS, dtype=np.uint32)
    vbits = (_direction_numbers(dim)[:, :, None] >> high) & 1
    sv = (((vbits @ L.swapaxes(-1, -2)) & 1) << high).sum(
        axis=-1, dtype=np.uint32)
    # one row of points per dimension, so each xor runs over a contiguous
    # stretch of points
    pts = np.empty((dim, count), dtype=np.uint32)
    pts[:, 0] = shift
    n, j = 1, 0
    while n < count:
        step = min(n, count - n)
        np.bitwise_xor(pts[:, n - step:n][:, ::-1], sv[:, j, None],
                       out=pts[:, n:n + step])
        n, j = n + step, j + 1
    cube = np.multiply(pts.T, 2.0 ** -SOBOL_BITS, order="C")
    # guard against ndtri blowing up at the cube boundary
    return np.clip(cube, np.finfo(float).tiny, 1.0 - 1e-16, out=cube)


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """Each row of g divided by its norm in place (a zero row stays zero)."""
    nrm = norm_rows(g)
    nrm[nrm == 0.0] = 1.0
    g /= nrm[..., None]
    return g


def sobol_unit_sphere(seed: int, key: Tuple[int, ...], count: int, dim: int) -> np.ndarray:
    """Quasi-random unit vectors in R^dim, deterministic in (seed, key):
    the package's scrambled Sobol points (Joe and Kuo's direction numbers
    from scipy's table, see _sobol_unit_cube) mapped through ndtri and
    normalized."""
    cube = _sobol_unit_cube(seed, key, count, dim)
    # ndtri writes over the cube: one count x dim float array fewer per
    # cover, and glibc often maps arrays of that size afresh and faults
    # them in page by page
    return _unit_rows(ndtri(cube, out=cube))


def sobol_ball(seed: int, key: Tuple[int, ...], count: int, dim: int, radius: float) -> np.ndarray:
    """Quasi-random points in the ball of the given radius: the first dim
    columns of a (dim + 1)-dimensional scrambled Sobol draw (Joe and Kuo's
    direction numbers, see _sobol_unit_cube) give the direction, the last
    one the radius as radius * u^(1/dim)."""
    cube = _sobol_unit_cube(seed, key, count, dim + 1)
    g = _unit_rows(ndtri(cube[:, :dim]))
    g *= (radius * cube[:, dim] ** (1.0 / dim))[..., None]
    return g


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------

CHUNK_ROWS = 32768

def worker_count() -> int:
    cap = os.environ.get("PENCILLAB_THREADS", "")
    try:
        cap_n = int(cap)
    except ValueError:
        cap_n = 0
    hw = os.cpu_count() or 1
    if cap_n > 0:
        return max(1, min(cap_n, hw))
    return max(1, min(4, hw))


def map_chunks(fn: Callable[[np.ndarray], object], rows: np.ndarray
               ) -> List[object]:
    """Apply fn to CHUNK_ROWS-row chunks of a 2d array, in index order.

    Results come back in chunk order regardless of worker count, so any
    min/concat reduction over them is deterministic.
    """
    pieces = [rows[i:i + CHUNK_ROWS]
              for i in range(0, len(rows), CHUNK_ROWS)]
    if not pieces:
        return []
    nw = worker_count()
    if nw <= 1 or len(pieces) <= 1:
        return [fn(p) for p in pieces]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        return list(pool.map(fn, pieces))


# ---------------------------------------------------------------------------
# batched linear solves and the Newton driver gauss_newton
# ---------------------------------------------------------------------------

def solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A[i] y[i] = b[i] for a stack of square systems.

    One stacked solve when every system is regular; otherwise each row is
    solved alone and the rows whose matrix is singular come back NaN, so
    they fail without touching the rest of the batch.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        y = np.full(b.shape, np.nan)
        for i in range(len(A)):
            try:
                y[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return y


GN_ITER = 60


def _newton_step(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """J^{-1} R for a square J, else the minimum-norm J^T (J J^T)^{-1} R.

    Two rows are solved in closed form by the written-out LDL^T of their
    normalised Gram g = <r0, r1> / (|r0| |r1|), pivots 1 and 1 - g^2, as in
    flows._solve_min_norm; a zero row, |g| = 1 or a value that is not
    finite gives the row a NaN step.
    """
    m, d = J.shape[-2:]
    if m == d:
        return solve_rows(J, R)
    if m != 2:
        return np.einsum("nmd,nm->nd", J,
                         solve_rows(J @ J.swapaxes(-1, -2), R))
    r0, r1 = J[:, 0], J[:, 1]
    n0, n1 = norm_rows(r0), norm_rows(r1)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.sum(r0 * r1, axis=-1) / n0 / n1
        p1 = (1.0 - np.abs(g)) * (1.0 + np.abs(g))
        b0 = R[:, 0] / n0
        # a NaN g fails the comparison too
        y1 = np.where(p1 > 0.0, (R[:, 1] / n1 - g * b0) / p1, np.nan)
        return ((b0 - g * y1) / n0)[:, None] * r0 + (y1 / n1)[:, None] * r1


def gauss_newton(system: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
                 x0: np.ndarray,
                 scale: np.ndarray,
                 tol: float = 1e-12,
                 step_cap: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Batched Newton on R(X) = 0: the package's one Newton loop.

    system(X) returns (R, J), R of shape (N, m) and J of shape (N, m, d).
    A square J takes the Newton step J^{-1} R, solved directly to keep J's
    condition number unsquared (the two-row systems on the sphere are
    square for a germ in one variable); a wide one the minimum-norm step
    J^T (J J^T)^{-1} R, in closed form for two rows (_newton_step). Steps
    repeat until max_i |R_i| / scale_i < tol, at most GN_ITER times. A row
    stops where it is when its residual is not finite (before the solve)
    or its step is singular or not finite; the other rows go on. Returns
    (X, ok) where ok marks rows that converged.
    """
    X = np.array(x0, dtype=float, copy=True)
    ok = np.zeros(len(X), dtype=bool)
    scale = np.asarray(scale, dtype=float)
    # the moving rows Xa = X[idx]; the max runs column by column, in one
    # pass over the rows each
    idx, Xa = np.arange(len(X)), X
    for _ in range(GN_ITER):
        if idx.size == 0:
            break
        R, J = system(Xa)
        res = np.abs(R[:, 0]) / scale[0]
        for j in range(1, R.shape[1]):
            np.maximum(res, np.abs(R[:, j]) / scale[j], out=res)
        ok[idx[res < tol]] = True
        move = np.isfinite(res) & (res >= tol)
        dx = np.full(Xa.shape, np.nan)
        dx[move] = _newton_step(J[move], R[move])
        if step_cap is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                dx *= np.minimum(1.0, step_cap / norm_rows(dx))[:, None]
        move &= np.isfinite(dx).all(axis=-1)
        if not move.all():
            stop, keep = np.flatnonzero(~move), np.flatnonzero(move)
            X[idx[stop]] = Xa[stop]
            Xa, idx, dx = Xa[keep], idx[keep], dx[keep]
        Xa -= dx
    X[idx] = Xa
    return X, ok


# ---------------------------------------------------------------------------
# canonical JSON: fixed float formatting (17 significant digits), insertion
# order preserved, no timestamps. Identical inputs give identical bytes.
# ---------------------------------------------------------------------------

def fmt17(x: float) -> str:
    if not math.isfinite(x):
        # JSON has no literals for these; a quoted token keeps the report
        # parseable and byte-stable
        return json.dumps(repr(float(x)))
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """A report as canonical JSON text.

    Dicts are written in insertion order and dataclasses field by field in
    declaration order, so a result object is its own report. numpy arrays
    and scalars become plain values. A sequence of complex numbers is a
    point: it prints as 2n reals in the stacked layout (real parts first,
    then imaginary), the layout --start, --direction and --pole take; a
    complex array prints each point along its last axis that way. A bare
    complex scalar has no report form and raises TypeError.
    """
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + canonical_json(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)) and obj and all(
            isinstance(v, (complex, np.complexfloating)) for v in obj):
        obj = np.asarray(obj)
    if isinstance(obj, np.ndarray):
        obj = (to_real(obj) if np.iscomplexobj(obj) else obj).tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"not serializable: {type(obj)!r}")
