"""Constraint-synthesized vector fields and monitored transport.

Each field kind is the minimum-norm solution of a small linear system on
the velocity, built from the point, the phase gradient, and the gradient
of log|f| (rows of a Gram system):

    monodromy:  <w, x> = 0, <w, grad_theta> = 1, <w, grad_log|f|> = 0
    radial:     <v, grad_theta> = 0, <v, 2x> = 1
    tube:       <v, grad_theta> = 0, <v, grad_log|f|> = 1, <v, x> > 0

Rows are normalized before solving, which leaves the solution unchanged
but makes the Gram condition number measure genuine near-dependence of
the constraints instead of their scale mismatch.

The monodromy Gram system degenerates where the point and the Hermitian
gradient of log f become complex-colinear; there the tube row is dropped
(fallback) and the drift <w, grad_log|f|> is monitored against the
completeness bound |drift| < 1.

Two kinds use the null space of their constraint system when the bare
minimum-norm solution misbehaves, both with a `corrected` diagnostic:

  * tube: when the outward radial component <v, x> drops to or below a
    small positive floor, the sphere-tangent tube-tangent outward
    direction is added to restore it (the two equality constraints are
    untouched); only when that direction does not exist is the positivity
    failure raised.
  * radial: the log|f| rate along the flow is clamped to a corridor
    around the conical scaling rate, which keeps inward orbits from
    collapsing onto the zero set in finite time; orbits already inside
    the corridor get the untouched minimum-norm field.

Transport uses an embedded Dormand-Prince 4(5) pair with per-accepted-step
projection back onto the exact invariant set of the kind (the start sphere
for monodromy, the start member surface for the other two) and invariant
monitors recorded along the trace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from ._num import to_complex, to_real
from .errors import (AxisApproach, AxisProximity, BallExit,
                     CompletenessViolation, DegenerateGradient, GramSingular,
                     PencilLabError, PositivityViolation, StepCollapse)
from .germ import GRAD_FLOOR, MixedGerm, differential_sample, evaluate
from .pencil import member_gradient, side_indicator

TWO_PI = 2.0 * math.pi


class FlowKind(enum.Enum):
    MONODROMY = "monodromy"
    RADIAL = "radial"
    TUBE_EQUIVALENCE = "tube"


@dataclass(frozen=True)
class FlowSpec:
    kind: FlowKind
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = 0.05
    # fixed for every flow, not fields: ceiling on the normalized Gram
    # condition; BallExit at ball_factor * start radius; tube: floor on
    # <v, x> / (|v| |x|); radial: clamp width around the conical rate
    cond_max: ClassVar[float] = 1e8
    ball_factor: ClassVar[float] = 8.0
    pos_margin: ClassVar[float] = 1e-2
    corridor_factor: ClassVar[float] = 4.0

    def scaled(self, factor: float) -> "FlowSpec":
        """Same spec with both tolerances multiplied by factor."""
        return replace(self, rtol=self.rtol * factor,
                       atol=self.atol * factor)


@dataclass
class FieldDiagnostics:
    cond: float
    fallback: bool
    drift: float  # <w, grad_log|f|> on fallback segments, else 0
    corrected: bool = False


def _solve_min_norm(rows: List[np.ndarray], d, cond_max: float
                    ) -> Tuple[np.ndarray, float]:
    """Minimum-norm w with <w, rows[i]> = d[i], via the normalized Gram.

    Normalizing the rows rescales the Lagrange multipliers only, so the
    solution is exact while the reported condition number reflects row
    dependence rather than row scale.
    """
    C = np.stack(rows)
    nrm = np.linalg.norm(C, axis=1)
    if np.any(nrm == 0.0) or not np.all(np.isfinite(nrm)):
        raise GramSingular("constraint row vanished or overflowed")
    Cn = C / nrm[:, None]
    G = Cn @ Cn.T
    cond = float(np.linalg.cond(G))
    if not np.isfinite(cond) or cond > cond_max:
        raise GramSingular(
            f"constraint Gram condition {cond:.3e} exceeds {cond_max:.1e}")
    w = Cn.T @ np.linalg.solve(G, np.asarray(d, dtype=float) / nrm)
    return w, cond


def _degree_span(germ: MixedGerm) -> Tuple[int, int]:
    degs = [sum(p) + sum(q) for _, p, q in germ.terms]
    return min(degs), max(degs)


def synthesize_field(germ: MixedGerm, spec: FlowSpec, x,
                     axis_floor: Optional[float] = None
                     ) -> Tuple[np.ndarray, FieldDiagnostics]:
    """Minimum-norm velocity satisfying the kind's constraint system at x.

    Returns the velocity in the stacked real layout together with the Gram
    condition number, fallback state, and whether a null-space correction
    was applied (tube positivity restore or radial corridor clamp).
    """
    z = np.asarray(x, dtype=complex)
    ds = differential_sample(germ, z, axis_floor=axis_floor)
    xr = ds.point
    gt = ds.grad_theta
    gl = ds.grad_log_rho
    if float(np.linalg.norm(gt)) * float(np.linalg.norm(xr)) < GRAD_FLOOR:
        raise DegenerateGradient("phase gradient vanished at the flow point")

    fallback = False
    corrected = False

    if spec.kind is FlowKind.MONODROMY:
        try:
            w, cond = _solve_min_norm([xr, gt, gl], [0.0, 1.0, 0.0],
                                      spec.cond_max)
        except GramSingular:
            # drop the tube row, keep the sphere and unit-rate rows
            try:
                w, cond = _solve_min_norm([xr, gt], [0.0, 1.0], spec.cond_max)
            except GramSingular as exc:
                raise GramSingular(f"fallback {exc}") from None
            fallback = True
    elif spec.kind is FlowKind.RADIAL:
        w, cond = _solve_min_norm([gt, 2.0 * xr], [0.0, 1.0], spec.cond_max)
        # Keep the log|f| rate along the flow inside a corridor around the
        # conical scaling rate deg / (2 r^2); an unclamped inward orbit can
        # otherwise collapse onto the zero set before reaching its target
        # sphere.  Inside the corridor the untouched solution is returned.
        if xr.size > 2:
            r2 = float(xr @ xr)
            lo_deg, hi_deg = _degree_span(germ)
            kappa = spec.corridor_factor
            lo = lo_deg / (2.0 * kappa * r2)
            hi = kappa * hi_deg / (2.0 * r2)
            slope = float(w @ gl)
            target = min(max(slope, lo), hi)
            if target != slope:
                try:
                    u, cond3 = _solve_min_norm([gt, 2.0 * xr, gl],
                                               [0.0, 0.0, 1.0], spec.cond_max)
                except GramSingular:
                    u = None  # no clamp direction: keep the bare field
                if u is not None:
                    w = w + (target - slope) * u
                    cond = max(cond, cond3)
                    corrected = True
    else:
        w, cond = _solve_min_norm([gt, gl], [0.0, 1.0], spec.cond_max)
        # Restore outward positivity inside the null space of the two
        # equality constraints when the minimum-norm velocity points along
        # or into the sphere.
        radial = float(w @ xr)
        floor = spec.pos_margin * float(np.linalg.norm(w)) \
            * float(np.linalg.norm(xr))
        if radial <= floor:
            try:
                u, cond3 = _solve_min_norm([gt, gl, xr], [0.0, 0.0, 1.0],
                                           spec.cond_max)
            except GramSingular:
                raise PositivityViolation(
                    "tube-equivalence velocity lost its outward radial "
                    "component and no tangent restore direction exists"
                ) from None
            w = w + (floor - radial) * u
            cond = max(cond, cond3)
            corrected = True

    drift = 0.0
    if fallback:
        drift = float(w @ gl)
        if abs(drift) >= 1.0:
            raise CompletenessViolation(
                f"fallback drift |{drift:.6f}| >= 1")
    return w, FieldDiagnostics(cond=cond, fallback=fallback, drift=drift,
                               corrected=corrected)


# ---------------------------------------------------------------------------
# embedded Dormand-Prince 4(5)
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])


@dataclass
class FlowTrace:
    kind: str
    t: np.ndarray
    points: np.ndarray            # complex (N, n)
    norms: np.ndarray
    abs_f: np.ndarray
    theta: np.ndarray             # unwrapped
    n_accepted: int
    n_rejected: int
    fallback_steps: int
    corrected_steps: int
    max_cond: float
    drift: Dict[str, float]
    termination: str

    def to_csv(self, path: str) -> None:
        """One row per accepted step, so the row count equals n_accepted;
        the starting state is left out."""
        n2 = self.points.shape[1]
        header = ",".join(
            ["t"] + [f"x{j}" for j in range(2 * n2)] + ["norm", "absf", "theta"])
        X = to_real(self.points)
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for i in range(1, len(self.t)):
                row = ([self.t[i]] + list(X[i]) +
                       [self.norms[i], self.abs_f[i], self.theta[i]])
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _project_sphere(x: np.ndarray, r0: float) -> np.ndarray:
    return x * (r0 / float(np.linalg.norm(x)))


def _project_member(germ: MixedGerm, theta0: float, x: np.ndarray
                    ) -> np.ndarray:
    """Two Newton steps onto {Im(exp(-i*theta0) f) = 0} along its gradient."""
    for _ in range(2):
        h, gh, _ = member_gradient(germ, theta0, x[None, :])
        grad = gh[0]
        denom = float(grad @ grad)
        if denom == 0.0:
            return x
        x = x - (float(h[0]) / denom) * grad
    return x


def integrate(germ: MixedGerm, spec: FlowSpec, x0, t_span: Tuple[float, float]
              ) -> FlowTrace:
    """Adaptive transport of x0 across t_span under the kind's field.

    Every accepted step is projected back onto the kind's exact invariant
    set and the invariant drifts are recorded. The axis floor is the one at
    the start radius throughout. Raises StepCollapse, AxisApproach, or
    BallExit as typed failures.
    """
    z0 = np.asarray(x0, dtype=complex)
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = to_real(z0)
    r0 = float(np.linalg.norm(y))
    f0 = complex(evaluate(germ, z0))
    axis_floor = germ.axis_floor(r0)
    if abs(f0) <= axis_floor:
        raise AxisProximity("flow start lies on the axis")
    rho0 = abs(f0)
    theta0 = math.atan2(f0.imag, f0.real)
    ball = spec.ball_factor * max(r0, 1e-300)

    diag_counters = {"fallback": 0, "corrected": 0, "max_cond": 0.0}

    def rhs(yv: np.ndarray) -> np.ndarray:
        try:
            w, dg = synthesize_field(germ, spec, to_complex(yv),
                                     axis_floor=axis_floor)
        except AxisProximity as exc:
            raise AxisApproach(str(exc)) from exc
        if dg.fallback:
            diag_counters["fallback"] += 1
        if dg.corrected:
            diag_counters["corrected"] += 1
        diag_counters["max_cond"] = max(diag_counters["max_cond"], dg.cond)
        return w

    # trace accumulators
    ts = [t0]
    pts = [z0.copy()]
    norms = [r0]
    absf = [rho0]
    thetas = [theta0]
    drift = {"norm": 0.0, "absf_rel": 0.0, "theta": 0.0, "affine": 0.0}

    n_acc = 0
    n_rej = 0

    def trace(termination: str) -> FlowTrace:
        return FlowTrace(kind=spec.kind.value, t=np.array(ts),
                         points=np.array(pts), norms=np.array(norms),
                         abs_f=np.array(absf), theta=np.array(thetas),
                         n_accepted=n_acc, n_rejected=n_rej,
                         fallback_steps=diag_counters["fallback"],
                         corrected_steps=diag_counters["corrected"],
                         max_cond=diag_counters["max_cond"],
                         drift=dict(drift), termination=termination)

    span = t1 - t0
    if span == 0.0:
        return trace("empty-span")
    direction = 1.0 if span > 0 else -1.0
    h = direction * min(spec.max_step, abs(span) / 10.0)
    h_floor = max(abs(span), 1.0) * 1e-14
    t = t0
    k1 = rhs(y)
    f_prev = f0
    theta_unwrapped = theta0
    max_reject_run = 60

    while (t1 - t) * direction > 0.0:
        if abs(h) < h_floor:
            raise StepCollapse(f"step size {abs(h):.3e} below floor at t={t:.6g}")
        if (t + h - t1) * direction > 0.0:
            h = t1 - t
        # stages
        K = [k1]
        failed = False
        for s in range(1, 7):
            ys = y + h * (_DP_A[s][:len(K)] @ np.stack(K[:len(_DP_A[s])]))
            try:
                K.append(rhs(ys))
            except (AxisApproach, DegenerateGradient, GramSingular):
                failed = True
                break
        if failed:
            h *= 0.25
            n_rej += 1
            if n_rej > max_reject_run * 50:
                raise StepCollapse("too many rejected steps")
            continue
        Km = np.stack(K)
        y5 = y + h * (_DP_B5 @ Km)
        err_vec = h * (_DP_E @ Km)
        tol = spec.atol + spec.rtol * max(float(np.linalg.norm(y)),
                                          float(np.linalg.norm(y5)))
        err = float(np.linalg.norm(err_vec)) / tol if tol > 0 else np.inf
        if not np.isfinite(err) or err > 1.0:
            h *= max(0.2, 0.9 * (max(err, 1e-10)) ** -0.2)
            n_rej += 1
            continue
        # accept
        t_new = t + h
        if spec.kind is FlowKind.MONODROMY:
            y_new = _project_sphere(y5, r0)
        else:
            y_new = _project_member(germ, theta0, y5)
        z_new = to_complex(y_new)
        f_new = complex(evaluate(germ, z_new))
        if abs(f_new) <= axis_floor:
            raise AxisApproach("|f| fell to the axis floor during transport")
        r_new = float(np.linalg.norm(y_new))
        if r_new > ball:
            raise BallExit(f"|x| = {r_new:.3e} left the working ball")
        dtheta = math.atan2((f_new * f_prev.conjugate()).imag,
                            (f_new * f_prev.conjugate()).real)
        theta_unwrapped += dtheta
        # invariant monitors
        if spec.kind is FlowKind.MONODROMY:
            drift["norm"] = max(drift["norm"], abs(r_new - r0))
            drift["absf_rel"] = max(drift["absf_rel"],
                                    abs(abs(f_new) - rho0) / rho0)
            drift["affine"] = max(drift["affine"],
                                  abs((theta_unwrapped - theta0) - (t_new - t0)))
        elif spec.kind is FlowKind.RADIAL:
            drift["theta"] = max(drift["theta"], abs(theta_unwrapped - theta0))
            drift["affine"] = max(drift["affine"],
                                  abs(r_new * r_new - (r0 * r0 + (t_new - t0))))
        else:
            drift["theta"] = max(drift["theta"], abs(theta_unwrapped - theta0))
            drift["affine"] = max(
                drift["affine"],
                abs(math.log(abs(f_new) / rho0) - (t_new - t0)))
        ts.append(t_new)
        pts.append(z_new)
        norms.append(r_new)
        absf.append(abs(f_new))
        thetas.append(theta_unwrapped)
        n_acc += 1
        f_prev = f_new
        # next step
        t = t_new
        y = y_new
        k1 = rhs(y)   # projection moved the state, so refresh the slope
        h_next = h * min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        h = direction * min(abs(h_next), spec.max_step)

    return trace("completed")


# ---------------------------------------------------------------------------
# transport wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyReturn:
    endpoint: Tuple[complex, ...]
    winding: int
    theta_advance: float
    drift_norm: float
    drift_absf_rel: float
    half_side_flipped: Optional[bool]
    trace: FlowTrace


def monodromy_return(germ: MixedGerm, x0, revolutions: float = 1.0,
                     spec: Optional[FlowSpec] = None) -> MonodromyReturn:
    """Transport x0 by the monodromy field through the given angle advance.

    The winding counter comes from the unwrapped phase; for half-integer
    revolutions the sign of the side indicator at the endpoint tells which
    member half the point landed in.
    """
    if spec is None:
        spec = FlowSpec(kind=FlowKind.MONODROMY)
    if spec.kind is not FlowKind.MONODROMY:
        raise ValueError("monodromy_return needs a monodromy FlowSpec")
    z0 = np.asarray(x0, dtype=complex)
    f_start = complex(evaluate(germ, z0))
    theta0 = math.atan2(f_start.imag, f_start.real)
    trace = integrate(germ, spec, z0, (0.0, TWO_PI * float(revolutions)))
    end = trace.points[-1]
    advance = float(trace.theta[-1] - trace.theta[0])
    winding = int(round(advance / TWO_PI))
    half_flip: Optional[bool] = None
    if abs((revolutions % 1.0) - 0.5) < 1e-12:
        half_flip = bool(side_indicator(germ, theta0, end) < 0.0)
    return MonodromyReturn(endpoint=tuple(end), winding=winding,
                           theta_advance=advance,
                           drift_norm=trace.drift["norm"],
                           drift_absf_rel=trace.drift["absf_rel"],
                           half_side_flipped=half_flip, trace=trace)


@dataclass(frozen=True)
class TransportRecord:
    start: Tuple[complex, ...]
    end: Tuple[complex, ...]
    success: bool
    theta_drift: float
    max_norm: float
    end_abs_f: float
    steps: int
    error: Optional[str] = None


def equivalence_transport(germ: MixedGerm, radius: float, eta: float,
                          starts, spec: Optional[FlowSpec] = None
                          ) -> List[TransportRecord]:
    """Carry sphere points backward along the tube-equivalence field until
    |f| = eta; records angle drift and the norm excursion check.

    Starts must satisfy |f| >= eta; any |x| above the start radius during
    transport marks the record failed (never silently accepted).
    """
    if spec is None:
        spec = FlowSpec(kind=FlowKind.TUBE_EQUIVALENCE, max_step=0.25)
    if spec.kind is not FlowKind.TUBE_EQUIVALENCE:
        raise ValueError("equivalence_transport needs a tube FlowSpec")
    if not 0.0 < eta:
        raise ValueError("eta must be positive")
    Z = np.asarray(starts, dtype=complex)
    if Z.ndim == 1:
        Z = Z[None, :]
    out: List[TransportRecord] = []
    norm_cap = radius * (1.0 + 1e-9)
    for z0 in Z:
        f0 = complex(evaluate(germ, z0))
        if abs(f0) < eta:
            raise ValueError("start point has |f| below the target tube level")
        t_end = math.log(eta / abs(f0))
        try:
            trace = integrate(germ, spec, z0, (0.0, t_end))
        except PencilLabError as exc:  # typed numerical failure per record
            out.append(TransportRecord(
                start=tuple(np.atleast_1d(z0)), end=tuple(np.atleast_1d(z0)),
                success=False, theta_drift=float("nan"),
                max_norm=float("nan"), end_abs_f=float("nan"), steps=0,
                error=type(exc).__name__))
            continue
        max_norm = float(np.max(trace.norms))
        end = trace.points[-1]
        ok = (max_norm <= norm_cap
              and abs(trace.abs_f[-1] - eta) <= 1e-6 * eta + 1e-300)
        out.append(TransportRecord(
            start=tuple(np.atleast_1d(z0)), end=tuple(np.atleast_1d(end)),
            success=bool(ok), theta_drift=float(trace.drift["theta"]),
            max_norm=max_norm, end_abs_f=float(trace.abs_f[-1]),
            steps=trace.n_accepted))
    return out
