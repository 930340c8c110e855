"""Shared numerical plumbing: real/complex layout, deterministic sampling,
the batched Newton driver, worker pool sizing, canonical JSON."""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.stats import qmc


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
    """Inverse of to_real."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1] // 2
    return v[..., :n] + 1j * v[..., n:]


def norm_rows(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(v) ** 2, axis=-1))


def report_point(z) -> list:
    """A complex point as reports print it: (Re z1, Im z1, Re z2, Im z2, ...),
    one (Re, Im) pair per coordinate. Point options (--start, --direction,
    --pole), euler points and files.pole use the stacked to_real order
    instead."""
    return [c for w in np.atleast_1d(z) for c in (w.real, w.imag)]


# ---------------------------------------------------------------------------
# deterministic sampling
#
# All randomness flows from one 64-bit job seed through counter-based
# streams: SeedSequence(seed, spawn_key=key) -> Philox. Quasi-random sphere
# covers use scrambled Sobol points pushed through the Gaussian inverse CDF
# and normalized; the scramble is seeded from the same stream family.
# ---------------------------------------------------------------------------

def stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _sobol_unit_cube(seed: int, key: Tuple[int, ...], count: int, dim: int) -> np.ndarray:
    if count <= 0:
        return np.empty((0, dim))
    eng = qmc.Sobol(d=dim, scramble=True, seed=stream(seed, *key))
    m = max(1, int(math.ceil(math.log2(count))))
    pts = eng.random_base2(m)[:count]
    # guard against ppf blowing up at the cube boundary
    tiny = np.finfo(float).tiny
    return np.clip(pts, tiny, 1.0 - 1e-16)


def sobol_unit_sphere(seed: int, key: Tuple[int, ...], count: int, dim: int) -> np.ndarray:
    """Quasi-random unit vectors in R^dim, deterministic in (seed, key)."""
    from scipy.stats import norm

    g = norm.ppf(_sobol_unit_cube(seed, key, count, dim))
    nrm = norm_rows(g)
    nrm[nrm == 0.0] = 1.0
    return g / nrm[..., None]


def sobol_ball(seed: int, key: Tuple[int, ...], count: int, dim: int, radius: float) -> np.ndarray:
    """Quasi-random points in the ball of the given radius."""
    from scipy.stats import norm

    cube = _sobol_unit_cube(seed, key, count, dim + 1)
    g = norm.ppf(cube[:, :dim])
    nrm = norm_rows(g)
    nrm[nrm == 0.0] = 1.0
    r = radius * cube[:, dim] ** (1.0 / dim)
    return g / nrm[..., None] * r[..., None]


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
    """J^{-1} R for a square J, else J^T (J J^T)^{-1} R. The row-selected
    copies of J passed in die with the call, before the next evaluation."""
    if J.shape[-2] == J.shape[-1]:
        return solve_rows(J, R)
    return np.einsum("nmd,nm->nd", J, solve_rows(J @ J.swapaxes(-1, -2), R))


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
    J^T (J J^T)^{-1} R. Steps repeat until max_i |R_i| / scale_i < tol, at
    most GN_ITER times. A row stops where it is when its residual is not
    finite (before the solve) or its step is singular or not finite; the
    other rows go on. Returns (X, ok) where ok marks rows that converged.
    """
    X = np.array(x0, dtype=float, copy=True)
    N = X.shape[0]
    ok = np.zeros(N, dtype=bool)
    alive = np.ones(N, dtype=bool)
    scale = np.asarray(scale, dtype=float)
    for _ in range(GN_ITER):
        idx = np.flatnonzero(alive & ~ok)
        if idx.size == 0:
            break
        R, J = system(X[idx])
        res = np.max(np.abs(R) / scale, axis=-1)
        ok[idx[res < tol]] = True
        alive[idx[~np.isfinite(res)]] = False
        sel = np.isfinite(res) & (res >= tol)
        move = idx[sel]
        if move.size == 0:
            continue
        dx = _newton_step(J[sel], R[sel])
        if step_cap is not None:
            nrm = norm_rows(dx)
            big = nrm > step_cap
            if np.any(big):
                dx[big] *= (step_cap / nrm[big])[..., None]
        bad = ~np.isfinite(dx).all(axis=-1)
        X[move] -= np.where(bad[..., None], 0.0, dx)
        alive[move[bad]] = False
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
    s = format(float(x), ".17g")
    return s


def jsonable(obj):
    """Convert numpy containers/scalars to plain Python."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def canonical_json(obj) -> str:
    """Serialize with deterministic float formatting."""
    obj = jsonable(obj)

    def emit(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return fmt17(o)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, list):
            return "[" + ",".join(emit(v) for v in o) + "]"
        if isinstance(o, dict):
            return "{" + ",".join(json.dumps(str(k)) + ":" + emit(v)
                                  for k, v in o.items()) + "}"
        raise TypeError(f"not serializable: {type(o)!r}")

    return emit(obj)
