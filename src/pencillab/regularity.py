"""Transversality measurements on metric spheres and submersion scans.

The central quantity is the transversality defect at a ray point x: the
sine of the angle between the phase gradient (the normal of the pencil
member through x) and the metric-sphere normal Qx. Zero means tangency,
one means the member meets the sphere orthogonally. A search certifies a
positive minimum of the defect over a sphere as numerical evidence, never
proof, of transversality of every member to that sphere.

Also here: the phase-colinearity diagnostic whose argument stays inside
(-pi/4, pi/4) near the origin for holomorphic germs, the submersion margin
of the radius-times-phase map (restricted-phase fibration evidence), the
tube boundary transversality residual, and the critical-value isolation
scan of the (Re f, Im f) Jacobian.

The sphere and ball covers are streamed: _cover hands each worker of
_num.map_chunks a row range, and the worker draws those rows of the
cover's _num.SobolDraw, scores them and keeps only the per-row values and
its histogram counts. The witness and the polish starts are redrawn by
index. So no cover array larger than a chunk exists, and since a drawn row
has the same bits however the draw is cut (the chunk size is a power of
two, see _num), the reports depend neither on the chunk size nor on the
worker count.

The kernels are coordinate-major: points, gradients and normals are
(2n, ...) arrays and a lone (2n,) point is a column. Norms and sums take
np.sum's order (_num.sum_columns), dots and the metric normal as sums of
products, so a point has the same bits alone, in any cover and in the
row-major layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._num import (SobolDraw, complex_columns, gauss_newton,
                   map_chunks, norm_columns, norm_rows, prescaled,
                   sobol_unit_sphere, sum_columns)
from .errors import AxisProximity, UsageError
from .germ import (GRAD_FLOOR, MixedGerm, column_gradients, gram_margin,
                   real_gradients)


def __getattr__(name: str):
    """regularity.optimize is scipy.optimize, imported on first access.

    Nothing here calls it; perfbench's tracer wraps
    regularity.optimize.minimize, so only traced runs load scipy.optimize.
    """
    if name == "optimize":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DEFAULT_NEWTON_TOL = 1e-10
HIST_BINS = 32
assert HIST_BINS & (HIST_BINS - 1) == 0, "HIST_BINS must be a power of two"
# phase-colinearity condition (_colinearity) and the Gauss-Newton
# tolerance of the tube-boundary projection
COLINEARITY_TOL = 0.01
ANGLE_MARGIN = 0.05
TUBE_NEWTON_TOL = 1e-12


def default_pass_threshold(newton_tol: float) -> float:
    """Ten times the Newton tolerance: the floor under 'positive minimum'."""
    return 10.0 * newton_tol


# ---------------------------------------------------------------------------
# defect
# ---------------------------------------------------------------------------

def defect_from_directions(grad_theta: np.ndarray, normal: np.ndarray
                           ) -> np.ndarray:
    """sin of the angle between grad_theta and the line through normal.

    Depends only on the two directions, given coordinate-major (2n, ...).
    Taken as the length of grad_theta's part orthogonal to the normal over
    the length of grad_theta, which resolves angles down to rounding
    (sqrt(1 - cos^2) reads every angle below about 1e-8 as 0).
    """
    g = np.asarray(grad_theta, dtype=float)
    nrm = np.asarray(normal, dtype=float)
    perp = g - (sum_columns(g * nrm) / sum_columns(nrm * nrm)) * nrm
    return np.minimum(np.sqrt(sum_columns(perp * perp) / sum_columns(g * g)),
                      1.0)


# ---------------------------------------------------------------------------
# batched field assembly shared by the scans
# ---------------------------------------------------------------------------

def _phase_fields(germ: MixedGerm, X: np.ndarray):
    """(f, grad_a, rho, grad_theta_scaled) at the points X from one
    germ-kernel call, where grad_theta_scaled = rho^2 * grad_theta =
    a*grad_b - b*grad_a (well-defined on the axis too)."""
    f, ga, gb = column_gradients(germ, X)
    a, b = f.real, f.imag
    return f, ga, np.sqrt(a * a + b * b), a * gb - b * ga


def _defects(germ: MixedGerm, X: np.ndarray, floor: float,
             Q: Optional[np.ndarray] = None):
    """The batch defect kernel: (defect, axis, degenerate, f, grad_a) at the
    points X.

    The defect is measured between grad_theta = (a*grad_b - b*grad_a)/rho^2
    and the metric normal Q x. Axis points (rho <= floor) and degenerate
    ones (|grad_theta| |x| < GRAD_FLOOR) read inf. f and grad_a come back
    for callers that need more of the same derivatives.
    """
    f, ga, rho, gts = _phase_fields(germ, X)
    axis = rho <= floor
    with np.errstate(all="ignore"):
        grad_theta = gts / (f.real ** 2 + f.imag ** 2)
        usable = ~axis & (norm_columns(grad_theta) * norm_columns(X)
                          >= GRAD_FLOOR)
        defect = np.where(usable, defect_from_directions(
            grad_theta, _metric_normal(Q, X)), np.inf)
    return defect, axis, ~axis & ~usable, f, ga


def _metric_normal(Q: Optional[np.ndarray], X: np.ndarray) -> np.ndarray:
    """Q x at the columns of X (x itself for the identity), each entry a sum
    of products over the coordinates; not a BLAS product, whose rounding
    depends on the number of points."""
    if Q is None:
        return X
    return sum_columns(np.expand_dims(Q.T, tuple(range(2, X.ndim + 1)))
                       * X[:, None])


def _bin_counts(values: np.ndarray) -> np.ndarray:
    """np.histogram(values, HIST_BINS, (0, 1))[0]: for a power of two
    HIST_BINS the edges and v * HIST_BINS are exact, so v in [0, 1] falls in
    bin floor(v * HIST_BINS), 1 in the last one."""
    v = values[(values >= 0.0) & (values <= 1.0)]
    return np.bincount(np.minimum((v * HIST_BINS).astype(np.intp),
                                  HIST_BINS - 1), minlength=HIST_BINS)


def _cover(fn, count: int):
    """fn(start, stop) over the row ranges of a count-row cover, each of its
    outputs concatenated over the ranges. fn draws and scores its own rows,
    so no more than a chunk of cover points exists at a time."""
    parts = map_chunks(fn, count) or [fn(0, 0)]
    return [np.concatenate(column) for column in zip(*parts)]


@dataclass(frozen=True)
class TransversalityReport:
    radius: float
    metric: str
    budget: int
    seed: int
    min_defect: float
    witness: Tuple[float, ...]      # stacked real point
    usable: int
    axis_excluded: int
    degenerate_excluded: int
    polish_runs: int
    pass_threshold: float
    histogram: Tuple[int, ...]
    verdict: object               # True / False / "inconclusive"
    milnor: Optional[dict] = None  # phase-colinearity condition tally

    @property
    def samples(self) -> int:
        # perfbench's tracer reads the cover size under this name
        # (_dreg_counts)
        return self.budget


def _metric_mapper(Q: Optional[np.ndarray], radius: float):
    """Map Euclidean unit directions onto the metric sphere {x^T Q x = r^2}."""
    if Q is None:
        return lambda U: radius * U, None
    Q = np.asarray(Q, dtype=float)
    Lt = np.linalg.inv(np.linalg.cholesky(Q)).T
    return lambda U: radius * _metric_normal(Lt, U), Q


POLISH_ITER = 60
POLISH_GTOL = 1e-12
POLISH_BACKTRACKS = 12
# the Armijo steps after the full one: 1/2, 1/4, ..., 2^(1 - POLISH_BACKTRACKS)
_LADDER = 0.5 ** np.arange(1, POLISH_BACKTRACKS)
_EPS = np.finfo(float).eps
# central-difference step relative to |y|; below the usual eps^(1/3)
# because the defect can grow like |z_j|^3 away from its minimum (z2 = 0 on
# z1^2+z2^3+z3^5), where a wider stencil straddles the minimum
_FD_STEP = 1e-6


def _bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inverse-Hessian BFGS update per row; rows with s.y <= 0 keep H."""
    sy = np.sum(s * y, axis=-1)
    with np.errstate(divide="ignore"):
        rho = np.where(sy > 0.0, 1.0 / sy, 0.0)
    Hy = np.sum(H * y[:, None, :], axis=-1)
    c = rho * rho * np.sum(y * Hy, axis=-1) + rho
    return (H - rho[:, None, None] * (s[:, :, None] * Hy[:, None, :]
                                      + Hy[:, :, None] * s[:, None, :])
            + c[:, None, None] * (s[:, :, None] * s[:, None, :]))


def _polish(germ: MixedGerm, Y0: np.ndarray, radius: float,
            Q: Optional[np.ndarray], f_floor: float):
    """Batched BFGS on the defect from every row of Y0, over the sphere
    parametrisation y -> r y / sqrt(y^T Q y).

    Each row keeps its own inverse Hessian. An iteration makes at most
    three defect-kernel calls: the full step for every live row, then the
    halvings 1/2 ... 2^(1 - POLISH_BACKTRACKS) of the rows it failed, all at
    once, each row taking its first that passes Armijo's test, then the
    central-difference gradients at the accepted points. Points off the
    domain (axis, degenerate or not finite) read 1, the largest defect. A
    row stops after POLISH_ITER iterations, when its gradient's max norm
    falls to POLISH_GTOL, when none of its POLISH_BACKTRACKS steps lowers
    the value by more than rounding, or when its gradient is not finite.
    No arithmetic mixes rows, so a start gives the same bits alone or
    inside any batch.
    Returns (values, points on the sphere).
    """
    def sphere(Y):
        # r y / sqrt(y^T Q y) at the columns of Y: NaN where y^T Q y is 0
        Y = np.moveaxis(Y, -1, 0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return radius * Y / np.sqrt(sum_columns(Y * _metric_normal(Q, Y)))

    def objective(Y):
        d = _defects(germ, sphere(Y), f_floor, Q)[0]
        return np.where(np.isfinite(d), d, 1.0)

    def gradient(Y):
        E = (_FD_STEP * norm_rows(Y))[:, None, None] * np.eye(Y.shape[1])
        up, down = Y[:, None, :] + E, Y[:, None, :] - E
        F = objective(np.stack([up, down], axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            return (F[:, 0] - F[:, 1]) / np.diagonal(up - down, 0, 1, 2)

    def running(g):
        return np.isfinite(g).all(axis=-1) & (np.max(np.abs(g), axis=-1)
                                              > POLISH_GTOL)

    Y = np.array(Y0, dtype=float)
    f, g = objective(Y), gradient(Y)
    # the defect is homogeneous of degree 0 in y, so |y|^2 I scales the
    # first step with the row
    H = norm_rows(Y)[:, None, None] ** 2 * np.eye(Y.shape[1])
    live = running(g)
    for _ in range(POLISH_ITER):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        p = -np.sum(H[idx] * g[idx, None, :], axis=-1)
        slope = 1e-4 * np.sum(g[idx] * p, axis=-1)
        Yn = Y[idx] + p
        fn = objective(Yn)
        found = fn <= f[idx] + np.minimum(slope, -4.0 * _EPS * f[idx])
        miss = np.flatnonzero(~found)
        if miss.size:
            # every halving of the rows that missed, in one call; a row
            # takes its first (largest) passing step
            fm = f[idx[miss], None]
            trial = Y[idx[miss], None] + _LADDER[:, None] * p[miss, None]
            ft = objective(trial)
            ok = ft <= fm + np.minimum(_LADDER * slope[miss, None],
                                       -4.0 * _EPS * fm)
            k = np.argmax(ok, axis=1)
            rows = np.arange(miss.size)
            Yn[miss], fn[miss] = trial[rows, k], ft[rows, k]
            found[miss] = ok[rows, k]
        live[idx[~found]] = False
        acc = idx[found]
        if acc.size == 0:
            continue
        gn = gradient(Yn[found])
        H[acc] = _bfgs_update(H[acc], Yn[found] - Y[acc], gn - g[acc])
        Y[acc], f[acc], g[acc] = Yn[found], fn[found], gn
        live[acc] = running(gn)
    return f, sphere(Y).T


def _smallest_first(values: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(values, kind="stable")[:k] without sorting all of values:
    partition for the k-th smallest value, then stably sort only the entries
    not above it (NaN included, as the full sort puts NaN last)."""
    k = min(k, values.size)
    kth = np.partition(values, k - 1)[k - 1]
    cand = np.flatnonzero(~(values > kth))
    return cand[np.argsort(values[cand], kind="stable")[:k]]


def _minimum(values: np.ndarray) -> Tuple[float, int]:
    """(the minimum of values, its witness row): the lowest row index among
    the rows within 8 eps relative of the minimum, so that rows which tie
    with it up to rounding cannot move the witness. A NaN minimum keeps
    np.argmin's row."""
    k = int(np.argmin(values))
    low = float(values[k])
    ties = np.flatnonzero(values <= low + 8.0 * _EPS * abs(low))
    return low, int(ties[0]) if ties.size else k


def d_regularity_search(germ: MixedGerm, radius: float,
                        Q: Optional[np.ndarray] = None,
                        budget: int = 10000, seed: int = 0,
                        polish_runs: int = 20,
                        newton_tol: float = DEFAULT_NEWTON_TOL,
                        collect_milnor: Optional[bool] = None
                        ) -> TransversalityReport:
    """Certified-minimum search for the defect over one metric sphere.

    Quasi-random cover of the sphere, axis tube excluded by the f floor,
    followed by local polishing: the polish_runs worst usable samples go
    through one batched BFGS run (_polish), and a polished point replaces
    the witness when its defect is below the cover minimum and |f| there is
    above the f floor. Deterministic in (seed, config), and each start's
    polish is independent of the others. For holomorphic germs the scan
    also tallies the phase-colinearity condition: a sample violates it when
    the gradient direction is colinear with the point (colinearity <
    COLINEARITY_TOL) yet |arg| of the diagnostic is at or above
    pi/4 - ANGLE_MARGIN; collect_milnor=True on a mixed germ is rejected.
    """
    if radius <= 0:
        raise UsageError("radius", "radius must be positive")
    pass_threshold = default_pass_threshold(newton_tol)
    if collect_milnor is None:
        collect_milnor = germ.is_holomorphic
    elif collect_milnor and not germ.is_holomorphic:
        raise UsageError("germ", "the phase-colinearity diagnostic needs a "
                                 "holomorphic germ")
    f_floor = germ.f_floor(radius)
    lift, Qm = _metric_mapper(Q, radius)
    draw = SobolDraw(seed, (0xD4E6, 0), budget, 2 * germ.n)

    def cover_rows(start: int, stop: int):
        Xc = lift(draw.columns(start, stop))
        defect, axis, degenerate, f, ga = _defects(germ, Xc, f_floor, Qm)
        # unusable rows read inf and fall outside every bin
        counts = _bin_counts(defect)
        if not collect_milnor:
            return defect, axis, degenerate, counts
        colin, _, arg, violated = _colinearity(f, ga, Xc)
        return defect, axis, degenerate, counts, colin, np.abs(arg), violated

    defects, axis, degenerate, counts, *tally = _cover(cover_rows, budget)
    usable_mask = ~axis & ~degenerate
    usable = int(np.count_nonzero(usable_mask))
    milnor = None
    if collect_milnor:
        colin, argl, violated = tally
        flagged = usable_mask & (colin < COLINEARITY_TOL)
        milnor = {
            "checked": usable,
            "flagged_colinear": int(np.count_nonzero(flagged)),
            "violations": int(np.count_nonzero(usable_mask & violated)),
            "max_arg_at_colinear": float(np.max(argl[flagged], initial=0.0)),
            "colinearity_tol": COLINEARITY_TOL,
            "angle_margin": ANGLE_MARGIN,
        }

    common = dict(radius=radius, metric="identity" if Q is None else "custom",
                  budget=budget, usable=usable,
                  axis_excluded=int(np.count_nonzero(axis)),
                  degenerate_excluded=int(np.count_nonzero(degenerate)),
                  pass_threshold=pass_threshold,
                  histogram=tuple(counts.reshape(-1, HIST_BINS).sum(axis=0)
                                  .tolist()), seed=seed,
                  milnor=milnor)
    if usable == 0:
        return TransversalityReport(min_defect=float("inf"), witness=(),
                                    polish_runs=0, verdict="inconclusive",
                                    **common)

    # the witness and the polish starts, redrawn by index
    runs = max(0, polish_runs)
    order = _smallest_first(defects, max(1, runs))[:runs]
    min_defect, best = _minimum(defects)
    Xo = lift(draw.at(np.concatenate([[best], order])).T).T
    witness = Xo[0]

    # local polishing from the worst (smallest-defect) usable samples
    starts = Xo[1:][np.isfinite(defects[order])]
    if len(starts):
        values, Xp = _polish(germ, starts, radius, Qm, f_floor)
        f = real_gradients(germ, Xp)[0]
        better = (values < min_defect) & (np.abs(f) > f_floor)
        if np.any(better):
            k = int(np.argmin(np.where(better, values, np.inf)))
            min_defect, witness = float(values[k]), Xp[k]

    return TransversalityReport(
        min_defect=min_defect, witness=tuple(witness),
        polish_runs=len(starts),
        verdict=bool(min_defect > pass_threshold),
        **common)


# ---------------------------------------------------------------------------
# phase-colinearity diagnostic
# ---------------------------------------------------------------------------

def _colinearity(f, grad_a, X):
    """Batched phase-colinearity test at the points X of a holomorphic germ,
    from f and the real gradient of Re f, which in complex form is the
    Hermitian gradient conj(d_z f).

    Returns (colinearity, lambda_prime, arg lambda_prime, violated).
    Colinearity is 1 - |<grad f, x>| / (||grad f|| ||x||) under the
    Hermitian product: 0 means the gradient is complex-colinear with the
    point, and it is 1 where the gradient or the point vanishes.
    lambda_prime = <grad f(x), conj(f(x)) * x>; near the origin of a
    holomorphic germ, |arg lambda_prime| < pi/4 whenever the colinearity is
    small. A row violates the condition when colinearity < COLINEARITY_TOL
    and |arg lambda_prime| >= pi/4 - ANGLE_MARGIN.
    """
    # named operands: numpy would otherwise reuse a temporary operand of a
    # large product and swap the factors, which moves the last bits
    grad, zbar = complex_columns(grad_a), complex_columns(X)
    np.conjugate(zbar, out=zbar)
    norms = norm_columns(np.abs(grad)) * norm_columns(np.abs(zbar))
    inner = sum_columns(grad * zbar)
    lam = f * inner
    with np.errstate(invalid="ignore", divide="ignore"):
        colin = np.where(norms > 0, 1.0 - np.abs(inner) / norms, 1.0)
    arg = np.angle(lam)
    violated = (colin < COLINEARITY_TOL) & (
        np.abs(arg) >= math.pi / 4.0 - ANGLE_MARGIN)
    return colin, lam, arg, violated


@dataclass(frozen=True)
class RadialScanEntry:
    radius: float
    colinearity: Optional[float]
    arg_lambda_prime: Optional[float]
    error: Optional[str] = None
    condition_ok: Optional[bool] = None   # None on axis hits


def radial_lambda_scan(germ: MixedGerm, direction, radii: Sequence[float]
                       ) -> List[RadialScanEntry]:
    """Diagnostics along t * direction / |direction| for decreasing t, the
    direction a stacked real (2n,) vector; per-radius axis hits are
    recorded, not raised."""
    d = prescaled(direction)
    t = np.asarray(radii, dtype=float)
    X = t[:, None] * (d / norm_rows(d))
    f, ga, _ = real_gradients(germ, X)
    colin, _, arg, violated = _colinearity(f, ga.T, X.T)
    return [RadialScanEntry(r, None, None, AxisProximity.__name__)
            if abs(fr) <= germ.axis_floor(r)
            else RadialScanEntry(r, float(c), float(a), condition_ok=not v)
            for r, fr, c, a, v in zip(t.tolist(), f, colin, arg, violated)]


# ---------------------------------------------------------------------------
# submersion margins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    kind: str
    radius: float
    budget: int
    seed: int
    usable: int
    excluded: int
    min_value: float
    witness: Tuple[float, ...]      # stacked real point
    threshold: float
    verdict: object
    extra: Dict[str, object] = field(default_factory=dict)


def _scan_report(kind: str, radius: float, budget: int, seed: int,
                 usable: int, conclusive: bool, values, row_at,
                 threshold: float, extra: Optional[dict] = None) -> ScanReport:
    """The minimum of values with its witness row_at(k), the stacked real
    point of row k, or an inconclusive report when too few rows were
    usable."""
    common = dict(kind=kind, radius=radius, budget=budget, seed=seed,
                  usable=usable, excluded=budget - usable,
                  threshold=threshold, extra=extra or {})
    if not conclusive:
        return ScanReport(min_value=float("inf"), witness=(),
                          verdict="inconclusive", **common)
    low, best = _minimum(values)
    return ScanReport(min_value=low, witness=tuple(row_at(best)),
                      verdict=bool(low > threshold), **common)


def strong_milnor_check(germ: MixedGerm, radius: float, budget: int = 10000,
                        seed: int = 0,
                        newton_tol: float = DEFAULT_NEWTON_TOL) -> ScanReport:
    """Minimum submersion margin of the sphere-restricted phase map.

    Samples the sphere off the axis tube; at least 10 percent of the budget
    must be usable, otherwise the verdict is inconclusive.
    """
    if radius <= 0:
        raise UsageError("radius", "radius must be positive")
    f_floor = germ.f_floor(radius)
    threshold = default_pass_threshold(newton_tol)
    draw = SobolDraw(seed, (0x5713, 0), budget, 2 * germ.n)

    def cover_rows(start: int, stop: int):
        Xc = radius * draw.columns(start, stop)
        _, _, rho, gts = _phase_fields(germ, Xc)
        r = norm_columns(Xc)
        # the second singular value of the differential of the
        # radius-times-phase map, rows x/|x| and r*grad_theta in the frame
        # (phase, i*phase) of the target plane: positive at every sphere
        # point means the sphere-restricted phase map is a submersion onto
        # the circle
        with np.errstate(invalid="ignore", divide="ignore"):
            margins = gram_margin(Xc / r, gts * (r / rho ** 2), uu=1.0)
        usable = rho > f_floor
        return np.where(usable, margins, np.inf), usable

    margins, usable_mask = _cover(cover_rows, budget)
    usable = int(np.count_nonzero(usable_mask))
    return _scan_report("phase-submersion", radius, budget, seed, usable,
                        usable >= max(1, budget // 10), margins,
                        lambda k: radius * draw.at([k])[0], threshold)


def tube_sphere_transversality(germ: MixedGerm, radius: float, eta: float,
                               budget: int = 2000, seed: int = 0
                               ) -> ScanReport:
    """Transversality of the |f| = eta level set to the radius sphere.

    Samples the intersection by Newton projection; at each point measures
    the distance of the radial unit vector from the span of the two value
    gradients. A positive minimum is the tube boundary condition.
    """
    if radius <= 0:
        raise UsageError("radius", "radius must be positive")
    if not 0.0 < eta < radius:
        raise UsageError("eta", "eta must satisfy 0 < eta < radius")
    dim = 2 * germ.n
    seeds = radius * sobol_unit_sphere(seed, (0x70BE, 0), budget, dim)
    eta2 = eta * eta

    def system(X):
        f, ga, gb = real_gradients(germ, X)
        a, b = f.real, f.imag
        r2 = np.sum(X * X, axis=-1)
        R = np.stack([r2 - radius * radius, a * a + b * b - eta2], axis=-1)
        J = np.stack([2.0 * X, 2.0 * (a[..., None] * ga + b[..., None] * gb)],
                     axis=-2)
        return R, J

    scale = np.array([radius * radius, eta2])
    X, ok = gauss_newton(system, seeds, scale, tol=TUBE_NEWTON_TOL,
                         step_cap=0.5 * radius)
    converged = int(np.count_nonzero(ok))
    threshold = default_pass_threshold(TUBE_NEWTON_TOL)
    if converged < max(1, budget // 10):
        return _scan_report("tube-boundary", radius, budget, seed, converged,
                            False, None, None, threshold, {"eta": eta})
    Xok = X[ok]
    _, ga, gb = real_gradients(germ, Xok)
    xu = Xok / norm_rows(Xok)[..., None]
    # distance of the radial direction from span(grad_a, grad_b)
    span = np.stack([ga, gb], axis=-1)          # (N, 2n, 2)
    Qs, _ = np.linalg.qr(span)
    proj = np.einsum("nik,nk->ni", Qs, np.einsum("nik,ni->nk", Qs, xu))
    resid = norm_rows(xu - proj)
    return _scan_report("tube-boundary", radius, budget, seed, converged,
                        True, resid, lambda k: Xok[k], threshold,
                        {"eta": eta})


def critical_value_isolation_scan(germ: MixedGerm, radius: float,
                                  budget: int = 10000, seed: int = 0,
                                  newton_tol: float = DEFAULT_NEWTON_TOL
                                  ) -> ScanReport:
    """Minimum Jacobian rank margin over ball samples off the axis tube.

    A positive minimum on {|f| > germ.f_floor(radius)} is evidence that 0 is
    the only critical value in the sampled range.
    """
    if radius <= 0:
        raise UsageError("radius", "radius must be positive")
    f_floor = germ.f_floor(radius)
    draw = SobolDraw(seed, (0xC517, 0), budget, 2 * germ.n, radius)
    # dimensional gradient scale: |f| over length at the working radius
    grad_scale = max(germ.scale(radius) / radius, 1e-300)
    threshold = default_pass_threshold(newton_tol) * grad_scale

    def cover_rows(start: int, stop: int):
        f, ga, gb = column_gradients(germ, draw.columns(start, stop))
        usable = np.abs(f) > f_floor
        return np.where(usable, gram_margin(ga, gb), np.inf), usable

    margins, usable_mask = _cover(cover_rows, budget)
    usable = int(np.count_nonzero(usable_mask))
    return _scan_report("critical-value-isolation", radius, budget, seed,
                        usable, usable > 0, margins,
                        lambda k: draw.at([k])[0], threshold,
                        {"excluded_fraction": 1.0 - usable / budget
                         if budget else 0.0,
                         "f_floor": f_floor})
