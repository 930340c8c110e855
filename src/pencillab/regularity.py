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
cover's _num.SobolDraw, scores them and keeps only the per-row values. The
witness and the polish starts are redrawn by index. So no cover array
larger than a chunk exists, and since a drawn row has the same bits
however the draw is cut (the chunk size is a power of two, see _num), the
reports depend neither on the chunk size nor on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._num import (SobolDraw, gauss_newton, map_chunks, norm_rows,
                   prescaled, sobol_unit_sphere, to_complex)
from .errors import AxisProximity
from .germ import GRAD_FLOOR, MixedGerm, gram_margin, real_gradients


def __getattr__(name: str):
    """regularity.optimize is scipy.optimize, imported on first access.

    Nothing here calls it; perfbench's tracer wraps
    regularity.optimize.minimize, so only traced runs load scipy.optimize.
    """
    if name == "optimize":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


TWO_PI = 2.0 * math.pi
DEFAULT_NEWTON_TOL = 1e-10
HIST_BINS = 32
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

    Depends only on the two directions; batched over leading axes. Taken as
    the length of grad_theta's part orthogonal to the normal over the
    length of grad_theta, which resolves angles down to rounding
    (sqrt(1 - cos^2) reads every angle below about 1e-8 as 0).
    """
    g = np.asarray(grad_theta, dtype=float)
    nrm = np.asarray(normal, dtype=float)
    perp = g - (_dot_rows(g, nrm) / _dot_rows(nrm, nrm))[..., None] * nrm
    return np.minimum(np.sqrt(_dot_rows(perp, perp) / _dot_rows(g, g)), 1.0)


def _dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis."""
    return np.einsum("...i,...i->...", u, v)


# ---------------------------------------------------------------------------
# batched field assembly shared by the scans
# ---------------------------------------------------------------------------

def _phase_fields(germ: MixedGerm, X: np.ndarray):
    """(f, grad_a, rho, grad_theta_scaled) at X from one germ-kernel call,
    where grad_theta_scaled = rho^2 * grad_theta = a*grad_b - b*grad_a
    (well-defined on the axis too)."""
    f, ga, gb = real_gradients(germ, X)
    a, b = f.real, f.imag
    return f, ga, np.sqrt(a * a + b * b), a[..., None] * gb - b[..., None] * ga


def _defects(germ: MixedGerm, X: np.ndarray, floor: float,
             Q: Optional[np.ndarray] = None):
    """The batch defect kernel: (defect, axis, degenerate, f, grad_a) at the
    stacked real points X, batched over leading axes.

    The defect is measured between grad_theta = (a*grad_b - b*grad_a)/rho^2
    and the metric normal Q x. Axis rows (rho <= floor) and degenerate rows
    (|grad_theta| |x| < GRAD_FLOOR) read inf. f and grad_a come back for
    callers that need more of the same derivatives.
    """
    f, ga, rho, gts = _phase_fields(germ, X)
    with np.errstate(invalid="ignore", divide="ignore"):
        grad_theta = gts / (f.real ** 2 + f.imag ** 2)[..., None]
    axis = rho <= floor
    usable = ~axis & (norm_rows(grad_theta) * norm_rows(X) >= GRAD_FLOOR)
    normal = _metric_normal(Q, X)
    defect = np.full(rho.shape, np.inf)
    defect[usable] = defect_from_directions(grad_theta[usable], normal[usable])
    return defect, axis, ~axis & ~usable, f, ga


def _metric_normal(Q: Optional[np.ndarray], X: np.ndarray) -> np.ndarray:
    """Q x row by row (x itself for the identity). Not a BLAS product, whose
    rounding depends on the number of rows."""
    return X if Q is None else np.einsum("ij,...j->...i",
                                         np.asarray(Q, dtype=float), X)


def _cover(fn, count: int):
    """fn(start, stop) over the row ranges of a count-row cover, each of its
    per-row outputs concatenated over the ranges. fn draws and scores its
    own rows, so no more than a chunk of cover points exists at a time."""
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
    Linv = np.linalg.inv(np.linalg.cholesky(Q))

    def lift(U):
        # BLAS takes a one-row product down its matrix-vector path, which
        # rounds differently from the rows of a larger product; so a lone
        # row (a witness, a 1-row tail chunk) goes in twice
        if len(U) == 1:
            return radius * (np.vstack([U, U]) @ Linv)[:1]
        return radius * (U @ Linv)
    return lift, Q


POLISH_ITER = 60
POLISH_GTOL = 1e-12
POLISH_BACKTRACKS = 12
_EPS = np.finfo(float).eps
# central-difference step relative to |y|; below the usual eps^(1/3)
# because the defect can grow like |z_j|^3 away from its minimum (z2 = 0 on
# z1^2+z2^3+z3^5), where a wider stencil straddles the minimum
_FD_STEP = 1e-6


def _on_sphere(Y: np.ndarray, radius: float, Q: Optional[np.ndarray]
               ) -> np.ndarray:
    """r y / sqrt(y^T Q y) row by row: NaN where y^T Q y is 0."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        nq = np.sqrt(np.sum(Y * _metric_normal(Q, Y), axis=-1))
        return radius * Y / nq[..., None]


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

    Each row keeps its own inverse Hessian. Gradients are central
    differences from one defect-kernel call per iteration; steps come from
    Armijo backtracking. Points off the domain (axis, degenerate or not
    finite) read 1, the largest defect. A row stops after POLISH_ITER
    iterations, when its gradient's max norm falls to POLISH_GTOL, when
    POLISH_BACKTRACKS halvings find no step that lowers the value by more
    than rounding, or when its gradient is not finite. No arithmetic mixes
    rows, so a start gives the same bits alone or inside any batch.
    Returns (values, points on the sphere).
    """
    def objective(Y):
        d = _defects(germ, _on_sphere(Y, radius, Q), f_floor, Q)[0]
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
        alpha = np.ones(idx.size)
        Yn, fn = Y[idx], f[idx]
        found = np.zeros(idx.size, dtype=bool)
        todo = np.arange(idx.size)
        for _ in range(POLISH_BACKTRACKS):
            trial = Yn[todo] + alpha[todo, None] * p[todo]
            ft = objective(trial)
            ok = ft <= fn[todo] + np.minimum(alpha[todo] * slope[todo],
                                             -4.0 * _EPS * fn[todo])
            hit = todo[ok]
            Yn[hit], fn[hit], found[hit] = trial[ok], ft[ok], True
            todo = todo[~ok]
            if todo.size == 0:
                break
            alpha[todo] *= 0.5
        live[idx[~found]] = False
        acc = idx[found]
        if acc.size == 0:
            continue
        gn = gradient(Yn[found])
        H[acc] = _bfgs_update(H[acc], Yn[found] - Y[acc], gn - g[acc])
        Y[acc], f[acc], g[acc] = Yn[found], fn[found], gn
        live[acc] = running(gn)
    return f, _on_sphere(Y, radius, Q)


def _smallest_first(values: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(values, kind="stable")[:k] without sorting all of values:
    partition for the k-th smallest value, then stably sort only the entries
    not above it (NaN included, as the full sort puts NaN last)."""
    k = min(k, values.size)
    kth = np.partition(values, k - 1)[k - 1]
    cand = np.flatnonzero(~(values > kth))
    return cand[np.argsort(values[cand], kind="stable")[:k]]


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
    pi/4 - ANGLE_MARGIN.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pass_threshold = default_pass_threshold(newton_tol)
    if collect_milnor is None:
        collect_milnor = germ.is_holomorphic
    f_floor = germ.f_floor(radius)
    lift, Qm = _metric_mapper(Q, radius)
    draw = SobolDraw(seed, (0xD4E6, 0), budget, 2 * germ.n)

    def cover_rows(start: int, stop: int):
        Xc = lift(draw.rows(start, stop))
        defect, axis, degenerate, f, ga = _defects(germ, Xc, f_floor, Qm)
        if not collect_milnor:
            return defect, axis, degenerate
        colin, _, arg, violated = _colinearity(f, ga, Xc)
        return defect, axis, degenerate, colin, np.abs(arg), violated

    defects, axis, degenerate, *tally = _cover(cover_rows, budget)
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

    hist, _ = np.histogram(defects[usable_mask], bins=HIST_BINS,
                           range=(0.0, 1.0))
    common = dict(radius=radius, metric="identity" if Q is None else "custom",
                  budget=budget, usable=usable,
                  axis_excluded=int(np.count_nonzero(axis)),
                  degenerate_excluded=int(np.count_nonzero(degenerate)),
                  pass_threshold=pass_threshold,
                  histogram=tuple(int(h) for h in hist), seed=seed,
                  milnor=milnor)
    if usable == 0:
        return TransversalityReport(min_defect=float("inf"), witness=(),
                                    polish_runs=0, verdict="inconclusive",
                                    **common)

    # the witness and the polish starts, redrawn by index
    order = _smallest_first(defects, max(1, polish_runs))
    Xo = lift(draw.at(order))
    min_defect, witness = float(defects[order[0]]), Xo[0]

    # local polishing from the worst (smallest-defect) usable samples
    runs = max(0, polish_runs)
    starts = Xo[:runs][np.isfinite(defects[order[:runs]])]
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
    """Batched phase-colinearity test at stacked real points X of a
    holomorphic germ, from f and the real gradient of Re f, which in complex
    form is the Hermitian gradient conj(d_z f).

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
    grad, zbar = to_complex(grad_a), to_complex(X)
    np.conjugate(zbar, out=zbar)
    norms = norm_rows(np.abs(grad)) * norm_rows(np.abs(zbar))
    inner = np.sum(grad * zbar, axis=-1)
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
    n = d.size // 2
    # rounded as the complex quotient d / |d| is (|Re d|^2 + |Im d|^2, then
    # a reciprocal), so the scan reads the same bits as on complex points
    unit = d * (1.0 / np.sqrt(d[:n] @ d[:n] + d[n:] @ d[n:]))
    t = np.asarray(radii, dtype=float)
    X = t[:, None] * unit
    f, ga, _ = real_gradients(germ, X)
    colin, _, arg, violated = _colinearity(f, ga, X)
    hits = germ.on_axis(X, f)
    return [RadialScanEntry(float(r), None, None, AxisProximity.__name__)
            if hit else RadialScanEntry(float(r), float(c), float(a),
                                        condition_ok=not v)
            for r, hit, c, a, v in zip(t, hits, colin, arg, violated)]


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
    best = int(np.argmin(values))
    return ScanReport(min_value=float(values[best]),
                      witness=tuple(row_at(best)),
                      verdict=bool(values[best] > threshold), **common)


def strong_milnor_check(germ: MixedGerm, radius: float, budget: int = 10000,
                        seed: int = 0,
                        newton_tol: float = DEFAULT_NEWTON_TOL) -> ScanReport:
    """Minimum submersion margin of the sphere-restricted phase map.

    Samples the sphere off the axis tube; at least 10 percent of the budget
    must be usable, otherwise the verdict is inconclusive.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    f_floor = germ.f_floor(radius)
    threshold = default_pass_threshold(newton_tol)
    draw = SobolDraw(seed, (0x5713, 0), budget, 2 * germ.n)

    def cover_rows(start: int, stop: int):
        Xc = radius * draw.rows(start, stop)
        _, _, rho, gts = _phase_fields(germ, Xc)
        r = norm_rows(Xc)[..., None]
        # the second singular value of the differential of the
        # radius-times-phase map, rows x/|x| and r*grad_theta in the frame
        # (phase, i*phase) of the target plane: positive at every sphere
        # point means the sphere-restricted phase map is a submersion onto
        # the circle
        with np.errstate(invalid="ignore", divide="ignore"):
            margins = gram_margin(Xc / r, gts * (r / rho[..., None] ** 2),
                                  uu=1.0)
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
        raise ValueError("radius must be positive")
    if not 0.0 < eta < radius:
        raise ValueError("eta must satisfy 0 < eta < radius")
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
        raise ValueError("radius must be positive")
    f_floor = germ.f_floor(radius)
    draw = SobolDraw(seed, (0xC517, 0), budget, 2 * germ.n, radius)
    # dimensional gradient scale: |f| over length at the working radius
    grad_scale = max(germ.scale(radius) / radius, 1e-300)
    threshold = default_pass_threshold(newton_tol) * grad_scale

    def cover_rows(start: int, stop: int):
        f, ga, gb = real_gradients(germ, draw.rows(start, stop))
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
