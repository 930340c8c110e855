"""Shared numerical plumbing: real/complex layout, deterministic sampling
(scrambled Sobol draws made chunk by chunk), the draw-ahead chunk
pipeline, the batched Newton driver, canonical JSON.

Points come as rows (..., 2n) or, in the cover kernels, coordinate-major as
columns (2n, ...), one contiguous array per coordinate. Sums over the
coordinates of columns, dots included as sums of products, are written out
(sum_columns) in the order np.sum takes over a row, so a point has the same
bits in either layout."""

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

from .errors import UsageError


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


def complex_columns(v: np.ndarray) -> np.ndarray:
    """to_complex of coordinate-major points v (2n, ...)."""
    z = np.empty((len(v) // 2,) + v.shape[1:], dtype=complex)
    z.real, z.imag = np.split(v, 2)
    return z


def norm_rows(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(v) ** 2, axis=-1))


def sum_columns(p) -> np.ndarray:
    """The sum over the first axis in np.sum's order over a row: in order
    from 0.0 below 8 entries, numpy's pairwise sum of a row copy above."""
    if len(p) >= 8:
        return np.sum(np.moveaxis(p, 0, -1).copy(), axis=-1)
    s = p[0] + 0.0
    for q in p[1:]:
        s += q
    return s


def norm_columns(v: np.ndarray) -> np.ndarray:
    return np.sqrt(sum_columns(v * v))


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
# scipy.stats. A SobolDraw makes them by row range or by row index: rows
# [a, a + CHUNK_ROWS) at a multiple a of the power of two CHUNK_ROWS are
# one shared Gray-code block xor the point of gray(a), since then
# gray(a + i) = gray(a) xor gray(i). So a cover never holds more than a
# chunk of points, and its rows have the same bits however it is chunked.
# ---------------------------------------------------------------------------

def stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


SOBOL_BITS = 30
SOBOL_MAXDIM = 21201


class SobolCountError(UsageError):
    """A Sobol draw asked for more than 2**SOBOL_BITS points."""


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


def _sobol_scramble(seed: int, key: Tuple[int, ...], d: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """The digital shift (d,) and the scrambled direction numbers sv (d, 30)
    of a draw in d dimensions.

    The stream (seed, *key, 0), the first child SeedSequence.spawn gives
    stream(seed, *key), draws the shift as (d, 30) bits weighted by 2^j,
    then (d, 30, 30) bits for the lower-triangular scramble matrices L with
    unit diagonal, whose row p (its bits read with column 0 as the highest)
    gives bit 29 - p of each scrambled direction number as a parity over
    GF(2). The parities come from float matrix products of 0/1 entries,
    exact since each sum has at most 30 terms, taken mod 2.
    """
    rng = stream(seed, *key, 0)
    weights = np.uint32(1) << np.arange(SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(0, 2, (d, SOBOL_BITS), np.uint32) @ weights
    L = np.tril(rng.integers(0, 2, (d, SOBOL_BITS, SOBOL_BITS), np.uint32))
    L[:, np.arange(SOBOL_BITS), np.arange(SOBOL_BITS)] = 1
    high = SOBOL_BITS - 1 - np.arange(SOBOL_BITS, dtype=np.uint32)
    vbits = (_direction_numbers(d)[:, :, None] >> high) & 1
    parity = (vbits.astype(float) @ L.swapaxes(-1, -2).astype(float)
              ).astype(np.uint32) & 1
    return shift, (parity << high).sum(axis=-1, dtype=np.uint32)


def _gray_block(sv: np.ndarray, m: int) -> np.ndarray:
    """(d, m): the first m points in Gray-code order without the shift, one
    row per dimension so that each xor runs over a contiguous stretch of
    points. Since gray(2^j + i) = 2^j + gray(2^j - 1 - i), the points
    double block by block as a reflection xor column j of sv."""
    block = np.zeros((sv.shape[0], m), dtype=np.uint32)
    n, j = 1, 0
    while n < m:
        step = min(n, m - n)
        np.bitwise_xor(block[:, n - step:n][:, ::-1], sv[:, j, None],
                       out=block[:, n:n + step])
        n, j = n + step, j + 1
    return block


class SobolDraw:
    """count points of one scrambled Sobol draw, made on demand by row range
    or by row index: unit vectors in R^dim, or, given a radius, points in
    the ball of that radius in R^dim.

    The draw has d = dim dimensions for the sphere and dim + 1 for the
    ball. Point k is the shift xor the scrambled direction numbers sv_j
    (_sobol_scramble) at the bits j of gray(k) = k xor (k >> 1), scaled by
    2^-30 and clipped away from 0 so ndtri stays finite.

    Rows come block by block. With P = CHUNK_ROWS, a power of two, and a
    start a that is a multiple of P, gray(a + i) = gray(a) xor gray(i) for
    i < P; so the rows [a, a + P) are one unshifted block of the first P
    points (_gray_block, made once per draw) xor the point of gray(a), in
    exact integer work. A range is cut at the multiples of P. Rows at an
    index set take the xor over the bits of each gray(k) directly. Either
    way a row has the same bits as in the whole draw, which is
    sobol_unit_sphere or sobol_ball.

    The sphere maps the cube through ndtri and normalizes each point. The
    ball maps its first dim coordinates so for the direction and takes the
    radius as radius * u^(1/dim) from the last coordinate u. columns is the
    one core, coordinate-major; rows and at are transposed copies of it.
    """

    def __init__(self, seed: int, key: Tuple[int, ...], count: int, dim: int,
                 radius: Optional[float] = None):
        d = dim if radius is None else dim + 1
        if d > SOBOL_MAXDIM:
            raise UsageError("dim", f"Sobol dimension {d} > {SOBOL_MAXDIM}")
        if count > 2 ** SOBOL_BITS:
            raise SobolCountError("count",
                                  f"Sobol count {count} > 2**{SOBOL_BITS}")
        self.count, self.dim, self.radius = max(0, count), dim, radius
        self._shift, self._sv = _sobol_scramble(seed, key, d)
        self._period = CHUNK_ROWS
        self._block = _gray_block(self._sv, min(self.count, CHUNK_ROWS))

    def _at_bits(self, k: np.ndarray) -> np.ndarray:
        """(d, len(k)) integer points at the indices k."""
        gray = k ^ (k >> 1)
        bits = ((gray[:, None] >> np.arange(SOBOL_BITS)) & 1).astype(np.uint32)
        return (np.bitwise_xor.reduce(self._sv[:, None, :] * bits, axis=-1)
                ^ self._shift[:, None])

    def _map(self, pts: np.ndarray) -> np.ndarray:
        """(dim, N) points from the (d, N) integer points pts."""
        cube = np.multiply(pts, 2.0 ** -SOBOL_BITS)
        # guard against ndtri blowing up at the cube boundary
        np.clip(cube, np.finfo(float).tiny, 1.0 - 1e-16, out=cube)
        if self.radius is None:
            # ndtri writes over the cube: one float array fewer per draw
            return _unit_columns(ndtri(cube, out=cube))
        g = _unit_columns(ndtri(cube[:self.dim]))
        g *= self.radius * cube[self.dim] ** (1.0 / self.dim)
        return g

    def columns(self, start: int, stop: int) -> np.ndarray:
        """The points start, ..., stop - 1 as a (dim, stop - start) array,
        one row per coordinate."""
        P = self._period
        pts = np.empty((self._block.shape[0], max(0, stop - start)),
                       dtype=np.uint32)
        a = start
        while a < stop:
            a0 = a - a % P
            b = min(a0 + P, stop)
            np.bitwise_xor(self._block[:, a - a0:b - a0],
                           self._at_bits(np.array([a0])),
                           out=pts[:, a - start:b - start])
            a = b
        return self._map(pts)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The points start, ..., stop - 1 as a (stop - start, dim) array."""
        return self.columns(start, stop).T.copy()

    def at(self, index) -> np.ndarray:
        """The points at the given indices as a (len(index), dim) array."""
        return self._map(self._at_bits(np.asarray(index, dtype=np.int64))
                         ).T.copy()


def _unit_columns(g: np.ndarray) -> np.ndarray:
    """Each point of g (dim, N) divided by its norm in place (0 stays 0)."""
    nrm = norm_columns(g)
    nrm[nrm == 0.0] = 1.0
    g /= nrm
    return g


def sobol_unit_sphere(seed: int, key: Tuple[int, ...], count: int, dim: int) -> np.ndarray:
    """Quasi-random unit vectors in R^dim, deterministic in (seed, key): the
    whole of a SobolDraw, scrambled Sobol points (Joe and Kuo's direction
    numbers from scipy's table) mapped through ndtri and normalized."""
    draw = SobolDraw(seed, key, count, dim)
    return draw.rows(0, draw.count)


def sobol_ball(seed: int, key: Tuple[int, ...], count: int, dim: int, radius: float) -> np.ndarray:
    """Quasi-random points in the ball of the given radius: the whole of a
    SobolDraw whose first dim columns give the direction and whose last one
    the radius as radius * u^(1/dim)."""
    draw = SobolDraw(seed, key, count, dim, radius)
    return draw.rows(0, draw.count)


# ---------------------------------------------------------------------------
# the draw-ahead pipeline
# ---------------------------------------------------------------------------

# rows per cover chunk: one chunk's points and kernel temporaries are what
# the scorer holds at a time. A power of two, so that chunk starts are
# aligned with the blocks of a SobolDraw.
CHUNK_ROWS = 8192
assert CHUNK_ROWS & (CHUNK_ROWS - 1) == 0, "CHUNK_ROWS must be a power of two"

def worker_count() -> int:
    """Threads a cover runs on: 2, the caller and its draw-ahead helper, or
    1 under PENCILLAB_THREADS=1 or on one core."""
    try:
        cap = int(os.environ.get("PENCILLAB_THREADS", ""))
    except ValueError:
        cap = 0
    return 1 if cap == 1 or (os.cpu_count() or 1) < 2 else 2


def map_chunks(score: Callable[[np.ndarray], object], count: int,
               draw: Callable[[int, int], np.ndarray]) -> List[object]:
    """score(draw(start, stop)) over the CHUNK_ROWS-row ranges of
    range(count), in range order.

    Unless worker_count() is 1, one helper thread draws the next range
    while the caller scores this one, never more than one range ahead: the
    draw is mostly the GIL-free ndtri, the score is not. So at most two
    ranges of points and one set of scoring temporaries exist at a time.
    """
    ranges = [(a, min(a + CHUNK_ROWS, count)) for a in range(0, count,
                                                            CHUNK_ROWS)]
    if worker_count() <= 1 or len(ranges) <= 1:
        return [score(draw(a, b)) for a, b in ranges]
    out = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(draw, *ranges[0])
        for a, b in ranges[1:]:
            points = ahead.result()
            ahead = helper.submit(draw, a, b)
            out.append(score(points))
        out.append(score(ahead.result()))
    return out


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
# Jacobian entries per block of gauss_newton: 1,024 rows of a 6x6 system.
# Block-sized temporaries stay on the heap instead of being mapped and
# faulted in afresh on every call.
GN_BLOCK_ENTRIES = 36 * 1024


def _newton_step(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """J^{-1} R for a square J, else the minimum-norm J^T (J J^T)^{-1} R.

    A wide J has two rows, solved in closed form by the written-out LDL^T of
    their normalised Gram g = <r0, r1> / (|r0| |r1|), pivots 1 and 1 - g^2,
    as in flows._solve_min_norm; a zero row, |g| = 1 or a value that is not
    finite gives the row a NaN step.
    """
    m, d = J.shape[-2:]
    if m == d:
        return solve_rows(J, R)
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

    system(X) returns (R, J), R of shape (N, m) and J of shape (N, m, d);
    the system is square (m = d) or has two rows (m = 2). A square J takes
    the Newton step J^{-1} R, solved directly to keep J's condition number
    unsquared (the two-row systems on the sphere are square for a germ in
    one variable); a two-row one the minimum-norm step J^T (J J^T)^{-1} R,
    in closed form (_newton_step). Steps repeat until max_i |R_i| / scale_i
    < tol, at most GN_ITER times. Each step evaluates the system and solves
    on blocks of at most GN_BLOCK_ENTRIES / d^2 rows; no arithmetic mixes
    rows, so a row has the same bits in any block. A row stops where it is
    when its residual is not finite (before the solve) or its step is
    singular or not finite; the other rows go on. Returns (X, ok) where ok
    marks rows that converged.
    """
    X = np.array(x0, dtype=float, copy=True)
    ok = np.zeros(len(X), dtype=bool)
    scale = np.asarray(scale, dtype=float)
    # the moving rows Xa = X[idx]; the max runs column by column, in one
    # pass over the rows each
    idx, Xa = np.arange(len(X)), X
    block = max(1, GN_BLOCK_ENTRIES // X.shape[-1] ** 2)
    for _ in range(GN_ITER):
        if idx.size == 0:
            break
        move = np.zeros(len(idx), dtype=bool)
        dx = np.full(Xa.shape, np.nan)
        for a in range(0, len(idx), block):
            rows = slice(a, a + block)
            # a row whose residual overflows stops below, alone
            with np.errstate(over="ignore", invalid="ignore"):
                R, J = system(Xa[rows])
            res = np.abs(R[:, 0]) / scale[0]
            for j in range(1, R.shape[1]):
                np.maximum(res, np.abs(R[:, j]) / scale[j], out=res)
            ok[idx[rows][res < tol]] = True
            mv = move[rows]
            mv[...] = np.isfinite(res) & (res >= tol)
            dx[rows][mv] = _newton_step(J[mv], R[mv])
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
