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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from ._num import (gauss_newton, map_chunks, norm_rows, sobol_ball,
                   sobol_unit_sphere, to_complex, to_real)
from .errors import AxisProximity, DegenerateGradient
from .germ import (MixedGerm, differential_sample, evaluate,
                   jacobian_rank_margin_batch, real_gradients,
                   value_and_gradient)

TWO_PI = 2.0 * math.pi
DEFAULT_NEWTON_TOL = 1e-10
HIST_BINS = 32


def default_pass_threshold(newton_tol: float = DEFAULT_NEWTON_TOL) -> float:
    """Ten times the Newton tolerance: the floor under 'positive minimum'."""
    return 10.0 * newton_tol


# ---------------------------------------------------------------------------
# defect
# ---------------------------------------------------------------------------

def defect_from_directions(grad_theta: np.ndarray, normal: np.ndarray
                           ) -> np.ndarray:
    """sin of the angle between grad_theta and the line through normal.

    Depends only on the two directions; batched over leading axes.
    """
    g = np.asarray(grad_theta, dtype=float)
    nrm = np.asarray(normal, dtype=float)
    gn = norm_rows(g)
    nn = norm_rows(nrm)
    cosang = np.sum(g * nrm, axis=-1) / (gn * nn)
    cosang = np.clip(cosang, -1.0, 1.0)
    return np.sqrt(np.maximum(1.0 - cosang * cosang, 0.0))


def transversality_defect(germ: MixedGerm, x, Q: Optional[np.ndarray] = None,
                          axis_floor: Optional[float] = None,
                          grad_floor: float = 1e-12) -> float:
    """Defect at one ray point; Q is the metric form (identity default).

    Raises AxisProximity off the domain and DegenerateGradient when the
    phase gradient underflows (a near-critical point, reported distinctly
    from tangency).
    """
    z = np.asarray(x, dtype=complex)
    ds = differential_sample(germ, z, axis_floor=axis_floor)
    xr = ds.point
    if float(np.linalg.norm(ds.grad_theta)) * float(np.linalg.norm(xr)) < grad_floor:
        raise DegenerateGradient("phase gradient vanished at the sample point")
    normal = xr if Q is None else np.asarray(Q, dtype=float) @ xr
    return float(defect_from_directions(ds.grad_theta, normal))


# ---------------------------------------------------------------------------
# batched field assembly shared by the scans
# ---------------------------------------------------------------------------

def _phase_fields(germ: MixedGerm, Z: np.ndarray):
    """(rho, grad_a, grad_b, grad_theta_scaled) where grad_theta_scaled =
    rho^2 * grad_theta = a*grad_b - b*grad_a (well-defined on the axis too)."""
    f, ga, gb = real_gradients(germ, Z)
    a, b = f.real, f.imag
    rho = np.sqrt(a * a + b * b)
    gts = a[..., None] * gb - b[..., None] * ga
    return rho, ga, gb, gts


@dataclass(frozen=True)
class TransversalityReport:
    radius: float
    metric: str
    min_defect: float
    witness: Tuple[complex, ...]
    samples: int
    usable: int
    axis_excluded: int
    degenerate_excluded: int
    polish_runs: int
    pass_threshold: float
    verdict: object               # True / False / "inconclusive"
    histogram: Tuple[int, ...]
    seed: int
    milnor: Optional[dict] = None  # phase-colinearity condition tally

    def to_json_dict(self) -> dict:
        d = {
            "radius": self.radius,
            "metric": self.metric,
            "budget": self.samples,
            "seed": self.seed,
            "min_defect": self.min_defect,
            "witness": [c for z in self.witness for c in (z.real, z.imag)],
            "usable": self.usable,
            "axis_excluded": self.axis_excluded,
            "degenerate_excluded": self.degenerate_excluded,
            "polish_runs": self.polish_runs,
            "pass_threshold": self.pass_threshold,
            "histogram": list(self.histogram),
            "verdict": self.verdict,
        }
        if self.milnor is not None:
            d["milnor"] = dict(self.milnor)
        return d


def _metric_mapper(Q: Optional[np.ndarray], dim: int, radius: float):
    """Map Euclidean unit directions onto the metric sphere {x^T Q x = r^2}."""
    if Q is None:
        return lambda U: radius * U, None
    Q = np.asarray(Q, dtype=float)
    L = np.linalg.cholesky(Q)
    Linv_t = np.linalg.inv(L).T
    return (lambda U: radius * (U @ Linv_t.T)), Q


def d_regularity_search(germ: MixedGerm, radius: float,
                        Q: Optional[np.ndarray] = None,
                        budget: int = 10000, seed: int = 0,
                        polish_runs: int = 20,
                        newton_tol: float = DEFAULT_NEWTON_TOL,
                        pass_threshold: Optional[float] = None,
                        colinearity_tol: float = 0.01,
                        angle_margin: float = 0.05,
                        collect_milnor: Optional[bool] = None,
                        grad_floor: float = 1e-12) -> TransversalityReport:
    """Certified-minimum search for the defect over one metric sphere.

    Quasi-random cover of the sphere, axis tube excluded by the f floor,
    followed by local polishing from the worst samples. Deterministic in
    (seed, config). For holomorphic germs the scan also tallies the
    phase-colinearity condition: a sample violates it when the gradient
    direction is colinear with the point (colinearity < colinearity_tol)
    yet |arg| of the diagnostic is at or above pi/4 - angle_margin.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if pass_threshold is None:
        pass_threshold = default_pass_threshold(newton_tol)
    if collect_milnor is None:
        collect_milnor = germ.is_holomorphic
    dim = 2 * germ.n
    f_floor = germ.f_floor(radius)
    lift, Qm = _metric_mapper(Q, dim, radius)
    U = sobol_unit_sphere(seed, (0xD4E6, 0), budget, dim)
    X = lift(U)
    Z = to_complex(X)

    def chunk_stats(Zc: np.ndarray) -> dict:
        rho, ga, gb, gts = _phase_fields(germ, Zc)
        Xc = to_real(Zc)
        r = norm_rows(Xc)
        gts_norm = norm_rows(gts)
        usable = (rho > f_floor) & (gts_norm * r > grad_floor * rho * rho)
        axis_cut = int(np.count_nonzero(rho <= f_floor))
        degen_cut = int(np.count_nonzero(~usable)) - axis_cut
        normal = Xc if Qm is None else Xc @ Qm.T
        defect = np.full(rho.shape, np.inf)
        defect[usable] = defect_from_directions(gts[usable], normal[usable])
        st = {
            "defect": defect, "usable_mask": usable,
            "axis_cut": axis_cut, "degen_cut": degen_cut,
        }
        if collect_milnor:
            _, colin, _, arg, violated = colinearity_condition(
                germ, Zc, colinearity_tol, angle_margin)
            flagged = usable & (colin < colinearity_tol)
            argl = np.abs(arg)
            st["milnor_checked"] = int(np.count_nonzero(usable))
            st["milnor_flagged"] = int(np.count_nonzero(flagged))
            st["milnor_violations"] = int(np.count_nonzero(usable & violated))
            st["milnor_max_arg_flagged"] = float(
                np.max(argl[flagged])) if np.any(flagged) else 0.0
        return st

    stats = map_chunks(chunk_stats, Z)
    defects = np.concatenate([s["defect"] for s in stats]) if stats else np.empty(0)
    usable_mask = (np.concatenate([s["usable_mask"] for s in stats])
                   if stats else np.empty(0, dtype=bool))
    axis_excluded = sum(s["axis_cut"] for s in stats)
    degenerate_excluded = sum(s["degen_cut"] for s in stats)
    usable = int(np.count_nonzero(usable_mask))

    milnor = None
    if collect_milnor:
        milnor = {
            "checked": sum(s["milnor_checked"] for s in stats),
            "flagged_colinear": sum(s["milnor_flagged"] for s in stats),
            "violations": sum(s["milnor_violations"] for s in stats),
            "max_arg_at_colinear": max(
                (s["milnor_max_arg_flagged"] for s in stats), default=0.0),
            "colinearity_tol": colinearity_tol,
            "angle_margin": angle_margin,
        }

    if usable == 0:
        return TransversalityReport(
            radius=radius, metric="identity" if Q is None else "custom",
            min_defect=float("inf"), witness=(), samples=budget, usable=0,
            axis_excluded=axis_excluded,
            degenerate_excluded=degenerate_excluded, polish_runs=0,
            pass_threshold=pass_threshold, verdict="inconclusive",
            histogram=(0,) * HIST_BINS, seed=seed, milnor=milnor)

    order = np.argsort(defects, kind="stable")
    best_idx = int(order[0])
    min_defect = float(defects[best_idx])
    witness = Z[best_idx]

    # local polishing from the worst (smallest-defect) usable samples
    def on_sphere(y: np.ndarray) -> Optional[np.ndarray]:
        nq = (math.sqrt(float(y @ (Qm @ y))) if Qm is not None
              else float(np.linalg.norm(y)))
        return radius * y / nq if nq > 0.0 and np.isfinite(nq) else None

    def objective(y: np.ndarray) -> float:
        xp = on_sphere(y)
        if xp is None:
            return 1.0
        zp = to_complex(xp)
        rho, ga, gb, gts = _phase_fields(germ, zp[None, :])
        if rho[0] <= f_floor or norm_rows(gts)[0] == 0.0:
            return 1.0
        normal = xp if Qm is None else Qm @ xp
        return float(defect_from_directions(gts[0], normal))

    polished = 0
    for idx in order[:max(0, polish_runs)]:
        if not np.isfinite(defects[idx]):
            continue
        y0 = to_real(Z[int(idx)])
        res = optimize.minimize(objective, y0, method="BFGS",
                                options={"maxiter": 60, "gtol": 1e-12})
        polished += 1
        val = float(res.fun)
        xp = on_sphere(np.asarray(res.x, dtype=float))
        if val < min_defect and xp is not None:
            zp = to_complex(xp)
            if abs(complex(evaluate(germ, zp))) > f_floor:
                min_defect = val
                witness = zp

    hist, _ = np.histogram(defects[usable_mask], bins=HIST_BINS,
                           range=(0.0, 1.0))
    return TransversalityReport(
        radius=radius, metric="identity" if Q is None else "custom",
        min_defect=min_defect, witness=tuple(np.atleast_1d(witness)),
        samples=budget, usable=usable, axis_excluded=axis_excluded,
        degenerate_excluded=degenerate_excluded, polish_runs=polished,
        pass_threshold=pass_threshold,
        verdict=bool(min_defect > pass_threshold),
        histogram=tuple(int(h) for h in hist), seed=seed, milnor=milnor)


# ---------------------------------------------------------------------------
# phase-colinearity diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaDiagnostic:
    """Gradient/point colinearity and the argument of the alignment number.

    colinearity is 1 - |<grad f, x>| / (||grad f|| ||x||) under the
    Hermitian product: 0 means the Hermitian gradient is complex-colinear
    with the point. lambda_prime = <grad f(x), conj(f(x)) * x>; near the
    origin of a holomorphic germ, |arg lambda_prime| < pi/4 whenever the
    colinearity is small.
    """

    colinearity: float
    lambda_prime: complex
    arg_lambda_prime: float
    condition_ok: bool
    colinearity_tol: float
    angle_margin: float


def colinearity_condition(germ: MixedGerm, Z, colinearity_tol: float = 0.01,
                          angle_margin: float = 0.05):
    """Batched phase-colinearity test at points Z of a holomorphic germ.

    Returns (f, colinearity, lambda_prime, arg lambda_prime, violated); a row
    violates the condition when colinearity < colinearity_tol and
    |arg lambda_prime| >= pi/4 - angle_margin. Colinearity is 1 where the
    gradient or the point vanishes.
    """
    f, dz, _ = value_and_gradient(germ, Z)
    grad = np.conj(dz)
    norms = norm_rows(np.abs(grad)) * norm_rows(np.abs(Z))
    inner = np.sum(grad * np.conj(Z), axis=-1)
    lam = f * np.conj(np.sum(dz * Z, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        colin = np.where(norms > 0, 1.0 - np.abs(inner) / norms, 1.0)
    arg = np.angle(lam)
    violated = (colin < colinearity_tol) & (
        np.abs(arg) >= math.pi / 4.0 - angle_margin)
    return f, colin, lam, arg, violated


def lambda_diagnostic(germ: MixedGerm, x,
                      colinearity_tol: float = 0.01,
                      angle_margin: float = 0.05,
                      axis_floor: Optional[float] = None) -> LambdaDiagnostic:
    """Diagnostic at one ray point of a holomorphic germ."""
    z = np.asarray(x, dtype=complex)
    if axis_floor is None:
        axis_floor = germ.axis_floor(float(np.linalg.norm(z)))
    f, colin, lam, arg, violated = colinearity_condition(
        germ, z[None, :], colinearity_tol, angle_margin)
    if abs(complex(f[0])) <= axis_floor:
        raise AxisProximity("diagnostic undefined on the axis")
    return LambdaDiagnostic(colinearity=float(colin[0]),
                            lambda_prime=complex(lam[0]),
                            arg_lambda_prime=float(arg[0]),
                            condition_ok=not violated[0],
                            colinearity_tol=colinearity_tol,
                            angle_margin=angle_margin)


@dataclass(frozen=True)
class RadialScanEntry:
    radius: float
    colinearity: Optional[float]
    arg_lambda_prime: Optional[float]
    error: Optional[str] = None
    condition_ok: Optional[bool] = None   # None on axis hits


def radial_lambda_scan(germ: MixedGerm, direction, radii: Sequence[float],
                       colinearity_tol: float = 0.01
                       ) -> List[RadialScanEntry]:
    """Diagnostics along t * direction for decreasing t; per-radius axis
    hits are recorded, not raised."""
    d = np.asarray(direction, dtype=complex)
    d = d / np.linalg.norm(d)
    out: List[RadialScanEntry] = []
    for t in radii:
        z = float(t) * d
        try:
            diag = lambda_diagnostic(germ, z, colinearity_tol=colinearity_tol)
        except AxisProximity:
            out.append(RadialScanEntry(radius=float(t), colinearity=None,
                                       arg_lambda_prime=None,
                                       error=AxisProximity.__name__))
            continue
        out.append(RadialScanEntry(radius=float(t),
                                   colinearity=diag.colinearity,
                                   arg_lambda_prime=diag.arg_lambda_prime,
                                   condition_ok=diag.condition_ok))
    return out


# ---------------------------------------------------------------------------
# submersion margins
# ---------------------------------------------------------------------------

def phase_margin_from_fields(x_unit: np.ndarray, r_grad_theta: np.ndarray
                             ) -> np.ndarray:
    """Second singular value of the two-row matrix [x_unit ; r*grad_theta].

    This is the differential of the radius-times-phase map written in the
    orthonormal frame (phase, i*phase) of the target plane; a positive
    second singular value at every sphere point means the sphere-restricted
    phase map is a submersion onto the circle.
    """
    g = np.asarray(r_grad_theta, dtype=float)
    u = np.asarray(x_unit, dtype=float)
    c = np.sum(u * g, axis=-1)
    gg = np.sum(g * g, axis=-1)
    tr = 1.0 + gg
    disc = np.sqrt(np.maximum((1.0 - gg) ** 2 + 4.0 * c * c, 0.0))
    lam_min = np.maximum(0.5 * (tr - disc), 0.0)
    return np.sqrt(lam_min)


@dataclass(frozen=True)
class ScanReport:
    kind: str
    radius: float
    budget: int
    seed: int
    usable: int
    excluded: int
    min_value: float
    witness: Tuple[complex, ...]
    threshold: float
    verdict: object
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "radius": self.radius,
            "budget": self.budget,
            "seed": self.seed,
            "usable": self.usable,
            "excluded": self.excluded,
            "min_value": self.min_value,
            "witness": [c for z in self.witness for c in (z.real, z.imag)],
            "threshold": self.threshold,
            "verdict": self.verdict,
        }
        d.update({k: v for k, v in sorted(self.extra.items())})
        return d


def _scan_report(kind: str, radius: float, budget: int, seed: int,
                 usable: int, conclusive: bool, values, Z, threshold: float,
                 extra: Optional[dict] = None) -> ScanReport:
    """The minimum of values over the rows of Z with its witness, or an
    inconclusive report when too few rows were usable."""
    common = dict(kind=kind, radius=radius, budget=budget, seed=seed,
                  usable=usable, excluded=budget - usable,
                  threshold=threshold, extra=extra or {})
    if not conclusive:
        return ScanReport(min_value=float("inf"), witness=(),
                          verdict="inconclusive", **common)
    best = int(np.argmin(values))
    return ScanReport(min_value=float(values[best]),
                      witness=tuple(np.atleast_1d(Z[best])),
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
    dim = 2 * germ.n
    f_floor = germ.f_floor(radius)
    threshold = default_pass_threshold(newton_tol)
    U = sobol_unit_sphere(seed, (0x5713, 0), budget, dim)
    X = radius * U
    Z = to_complex(X)

    def chunk_min(Zc: np.ndarray):
        rho, _, _, gts = _phase_fields(germ, Zc)
        usable = rho > f_floor
        Xc = to_real(Zc)
        r = norm_rows(Xc)
        margins = np.full(rho.shape, np.inf)
        if np.any(usable):
            xu = Xc[usable] / r[usable][..., None]
            g = gts[usable] * (r[usable] / rho[usable] ** 2)[..., None]
            margins[usable] = phase_margin_from_fields(xu, g)
        return margins, usable

    parts = map_chunks(chunk_min, Z)
    margins = np.concatenate([p[0] for p in parts])
    usable = int(np.count_nonzero(np.concatenate([p[1] for p in parts])))
    return _scan_report("phase-submersion", radius, budget, seed, usable,
                        usable >= max(1, budget // 10), margins, Z, threshold)


def tube_sphere_transversality(germ: MixedGerm, radius: float, eta: float,
                               budget: int = 2000, seed: int = 0,
                               newton_tol: float = 1e-12) -> ScanReport:
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
        Zc = to_complex(X)
        f, ga, gb = real_gradients(germ, Zc)
        a, b = f.real, f.imag
        r2 = np.sum(X * X, axis=-1)
        R = np.stack([r2 - radius * radius, a * a + b * b - eta2], axis=-1)
        J = np.stack([2.0 * X, 2.0 * (a[..., None] * ga + b[..., None] * gb)],
                     axis=-2)
        return R, J

    scale = np.array([radius * radius, eta2])
    X, ok = gauss_newton(system, seeds, scale, tol=newton_tol,
                         step_cap=0.5 * radius)
    converged = int(np.count_nonzero(ok))
    threshold = default_pass_threshold(max(newton_tol, 1e-12))
    if converged < max(1, budget // 10):
        return _scan_report("tube-boundary", radius, budget, seed, converged,
                            False, None, None, threshold, {"eta": eta})
    Xok = X[ok]
    Zok = to_complex(Xok)
    _, ga, gb = real_gradients(germ, Zok)
    xu = Xok / norm_rows(Xok)[..., None]
    # distance of the radial direction from span(grad_a, grad_b)
    span = np.stack([ga, gb], axis=-1)          # (N, 2n, 2)
    Qs, _ = np.linalg.qr(span)
    proj = np.einsum("nik,nk->ni", Qs, np.einsum("nik,ni->nk", Qs, xu))
    resid = norm_rows(xu - proj)
    return _scan_report("tube-boundary", radius, budget, seed, converged,
                        True, resid, Zok, threshold, {"eta": eta})


def critical_value_isolation_scan(germ: MixedGerm, radius: float,
                                  budget: int = 10000, seed: int = 0,
                                  f_floor: Optional[float] = None,
                                  newton_tol: float = DEFAULT_NEWTON_TOL
                                  ) -> ScanReport:
    """Minimum Jacobian rank margin over ball samples off the axis tube.

    A positive minimum on {|f| > f_floor} is evidence that 0 is the only
    critical value in the sampled range.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    dim = 2 * germ.n
    if f_floor is None:
        f_floor = germ.f_floor(radius)
    X = sobol_ball(seed, (0xC517, 0), budget, dim, radius)
    Z = to_complex(X)
    # dimensional gradient scale: |f| over length at the working radius
    grad_scale = max(germ.scale(radius) / radius, 1e-300)
    threshold = default_pass_threshold(newton_tol) * grad_scale

    def chunk_vals(Zc: np.ndarray):
        f = evaluate(germ, Zc)
        usable = np.abs(f) > f_floor
        m = np.full(f.shape, np.inf)
        if np.any(usable):
            m[usable] = jacobian_rank_margin_batch(germ, Zc[usable])
        return m, usable

    parts = map_chunks(chunk_vals, Z)
    margins = np.concatenate([p[0] for p in parts])
    usable = int(np.count_nonzero(np.concatenate([p[1] for p in parts])))
    return _scan_report("critical-value-isolation", radius, budget, seed,
                        usable, usable > 0, margins, Z, threshold,
                        {"f_floor": f_floor,
                         "excluded_fraction": 1.0 - usable / budget})
