"""Constraint-synthesized vector fields and monitored transport.

Each field kind is the minimum-norm solution of a small linear system on
the velocity w: two equality rows with right-hand side (0, 1), built from
the point x, the phase gradient and the gradient of log|f|, and a third row
that the kind holds at 0 or bounds (after the bar):

    monodromy:  <w, x> = 0, <w, grad_theta> = 1 | <w, grad_log|f|> = 0
    radial:     <w, grad_theta> = 0, <w, 2x> = 1 | <w, grad_log|f|> corridor
    tube:       <w, grad_theta> = 0, <w, grad_log|f|> = 1 | <w, x> > 0

Rows are normalized before solving, which leaves the solution unchanged
but makes the Gram condition number measure genuine near-dependence of
the constraints instead of their scale mismatch. The systems have two or
three rows, so they are solved in closed form from the dot products of
the rows: the normalized Gram has unit diagonal, its condition number is
(1 + |g|) / (1 - |g|) for two rows and lambda_max / lambda_min for three,
and the solve runs through its written-out LDL^T factors. A field pass at
one point stays on Python floats from the germ pass (differential_sample)
to the velocity, with every dot product a plain sum of products; only a
caller that passes an array gets arrays back.

The monodromy Gram system degenerates where the point and the Hermitian
gradient of log f become complex-colinear; there the tube row is dropped
(fallback) and the drift <w, grad_log|f|> is monitored against the
completeness bound |drift| < 1.

Radial and tube solve the two equality rows alone and restore the bound
in their null space: where the rate <w, third> leaves it, they add
(target - rate) u, with u the minimum-norm solution of
[rows; third] u = (0, 0, 1), and report `corrected`. The tube floor is
pos_margin |w| |x|; the radial corridor, corridor_factor either side of
the conical rate deg / (2 r^2), keeps inward orbits from collapsing onto
the zero set in finite time. Where u does not exist, radial keeps the bare
field and tube raises PositivityViolation.

Transport uses an embedded Dormand-Prince 4(5) pair with per-accepted-step
projection back onto the exact invariant set of the kind (the start sphere
for monodromy, the start member surface for the other two). The state is
the stacked real vector (_num.to_real) as a list of Python floats: the
stages, their tableau sums, the error norm, the sphere rescale and the
member projection all run on floats, and NumPy appears only at the edges,
in the start's to_real and in the FlowTrace arrays built where the run
ends. Each accepted point is recorded with f from the germ pass of the
slope refresh there, and the invariant drifts are measured from that record
once.
Every flow ends: past MAX_STEPS attempted steps per unit of span it raises
StepCollapse.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from operator import mul
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


def _dot(u, v) -> float:
    """<u, v> of two float sequences: the builtin sum of the products."""
    return sum(map(mul, u, v))


def _solve_min_norm(rows, d, cond_max: float) -> Tuple[List[float], float]:
    """Minimum-norm w with <w, rows[i]> = d[i], for two or three rows.

    The solution is w = sum_i (y_i / |r_i|) r_i, where G y = d_i / |r_i|
    and G is the normalized Gram g_ij = <r_i, r_j> / (|r_i| |r_j|), which
    has unit diagonal. Normalizing rescales the multipliers only, so the
    solution is exact while the condition number reflects row dependence
    rather than row scale. Every entry comes from dot products of the rows.

    Rows and d are float sequences (lists or 1-D arrays), and w comes back
    as a list of floats. The condition number is that of G:
    (1 + |g_12|) / (1 - |g_12|) for two rows, lambda_max / lambda_min from
    `np.linalg.eigvalsh` for three. That one call stays on numpy: the
    trigonometric closed form of a 3 x 3 spectrum loses lambda_min near a
    double root (cond off by 8e-5 relative at cond 1.45e7), and LAPACK's
    dsyevd through scipy.linalg, bit for bit the same and faster, would
    import scipy.linalg, 5-6 MB more resident memory. G is solved by
    its LDL^T factors written out, pivots 1, 1 - g_12^2 and the Schur
    complement; for two rows that is the explicit 2 x 2 inverse. The
    factors are backward stable, so w keeps a relative error of a few
    eps * cond even when two eigenvalues of G are small; an adjugate solve
    loses its determinant to cancellation there.
    """
    nrm = []
    for r in rows:
        m = _dot(r, r)
        if not 0.0 < m < math.inf:  # NaN fails the comparison too
            raise GramSingular("constraint row vanished or overflowed")
        nrm.append(math.sqrt(m))
    r0, r1 = rows[0], rows[1]
    n0, n1 = nrm[0], nrm[1]
    b0, b1 = d[0] / n0, d[1] / n1
    # dividing by one norm at a time keeps |g| <= 1 from overflowing
    g01 = _dot(r0, r1) / n0 / n1
    a01 = abs(g01)
    if len(rows) == 2:
        cond = (1.0 + a01) / (1.0 - a01) if a01 < 1.0 else math.inf
    else:
        r2, n2 = rows[2], nrm[2]
        g02 = _dot(r0, r2) / n0 / n2
        g12 = _dot(r1, r2) / n1 / n2
        lam = np.linalg.eigvalsh(np.array(
            [[1.0, g01, g02], [g01, 1.0, g12], [g02, g12, 1.0]]))
        cond = float(lam[2] / lam[0]) if lam[0] > 0.0 else math.inf
    if not cond <= cond_max:
        raise GramSingular(
            f"constraint Gram condition {cond:.3e} exceeds {cond_max:.1e}")
    p1 = (1.0 - a01) * (1.0 + a01)
    z1 = b1 - g01 * b0
    if len(rows) == 2:
        y1 = z1 / p1
        y0 = b0 - g01 * y1
        a0, a1 = y0 / n0, y1 / n1
        return [a0 * u + a1 * v for u, v in zip(r0, r1)], cond
    l21 = (g12 - g01 * g02) / p1
    p2 = 1.0 - g02 * g02 - l21 * l21 * p1
    y2 = (d[2] / n2 - g02 * b0 - l21 * z1) / p2
    y1 = z1 / p1 - l21 * y2
    y0 = b0 - g01 * y1 - g02 * y2
    a0, a1, a2 = y0 / n0, y1 / n1, y2 / n2
    return [a0 * u + a1 * v + a2 * w for u, v, w in zip(r0, r1, r2)], cond


def synthesize_field(germ: MixedGerm, spec: FlowSpec, x, axis_floor: float
                     ) -> Tuple[np.ndarray, complex, FieldDiagnostics]:
    """Minimum-norm velocity satisfying the kind's constraint system at x.

    Monodromy solves its three rows and drops the third on GramSingular
    (fallback). Radial and tube solve the two equality rows and, where the
    rate along the third leaves the kind's bound, add the restore direction
    u of [rows; third] u = (0, 0, 1) (corrected); without u radial keeps the
    bare field and tube raises PositivityViolation. x and the velocity are
    stacked real vectors (2n,). Returns the velocity, f at x from the same
    germ pass, and the diagnostics. AxisProximity where |f| <= axis_floor.
    As for differential_sample, a list x stays in Python numbers: the
    velocity comes back as a list of floats and f as a complex; an array x
    gets arrays.
    """
    lone = isinstance(x, list)
    if not lone:
        x = x.tolist()
    f, gl, gt = differential_sample(germ, x, axis_floor)
    r2 = _dot(x, x)
    x_norm = math.sqrt(r2)
    if math.sqrt(_dot(gt, gt)) * x_norm < GRAD_FLOOR:
        raise DegenerateGradient("phase gradient vanished at the flow point")

    fallback = False
    corrected = False

    if spec.kind is FlowKind.MONODROMY:
        try:
            w, cond = _solve_min_norm([x, gt, gl], [0.0, 1.0, 0.0],
                                      spec.cond_max)
        except GramSingular:
            # drop the tube row, keep the sphere and unit-rate rows
            try:
                w, cond = _solve_min_norm([x, gt], [0.0, 1.0], spec.cond_max)
            except GramSingular as exc:
                raise GramSingular(f"fallback {exc}") from None
            fallback = True
    else:
        # two equality rows with right-hand side (0, 1) and a bounded third
        radial = spec.kind is FlowKind.RADIAL
        rows = [gt, [2.0 * v for v in x] if radial else gl]
        third = gl if radial else x
        w, cond = _solve_min_norm(rows, [0.0, 1.0], spec.cond_max)
        rate = _dot(w, third)
        if not radial:
            # outward: <w, x> above a floor relative to |w| |x|
            target = spec.pos_margin * math.sqrt(_dot(w, w)) * x_norm
            restore = rate <= target
        else:
            # the log|f| rate in a corridor around deg / (2 r^2), so that an
            # inward orbit cannot collapse onto the zero set before reaching
            # its target sphere; n = 1 leaves no room for the third row
            lo_deg, hi_deg = germ.degree_span
            kappa = spec.corridor_factor
            target = min(max(rate, lo_deg / (2.0 * kappa * r2)),
                         kappa * hi_deg / (2.0 * r2))
            restore = len(x) > 2 and target != rate
        if restore:
            # u keeps both equality rows and moves the rate by one
            try:
                u, cond3 = _solve_min_norm(rows + [third], [0.0, 0.0, 1.0],
                                           spec.cond_max)
            except GramSingular:
                # no u: radial keeps the bare field, tube fails
                if not radial:
                    raise PositivityViolation(
                        "tube-equivalence velocity lost its outward radial "
                        "component and no tangent restore direction exists"
                    ) from None
            else:
                step = target - rate
                w = [p + step * q for p, q in zip(w, u)]
                cond = max(cond, cond3)
                corrected = True

    drift = 0.0
    if fallback:
        drift = _dot(w, gl)
        if abs(drift) >= 1.0:
            raise CompletenessViolation(
                f"fallback drift |{drift:.6f}| >= 1")
    dg = FieldDiagnostics(cond=cond, fallback=fallback, drift=drift,
                          corrected=corrected)
    return (w, f, dg) if lone else (np.array(w), np.array(f), dg)


# ---------------------------------------------------------------------------
# embedded Dormand-Prince 4(5)
# ---------------------------------------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# The pair is first-same-as-last: the fifth-order solution's weights are
# _DP_A[6], so the last stage point is that solution.
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)
# Attempted steps, accepted and rejected, allowed per unit of |t1 - t0| (a
# span below 1 counts as 1); a flow that has not ended by then raises
# StepCollapse.
MAX_STEPS = 2000


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
        rows = np.column_stack([self.t, to_real(self.points), self.norms,
                                self.abs_f, self.theta])
        np.savetxt(path, rows[1:], fmt="%.17g", delimiter=",", header=header,
                   comments="")


def _project_member(germ: MixedGerm, theta0: float, x: List[float]
                    ) -> List[float]:
    """Two Newton steps onto {Im(exp(-i*theta0) f) = 0} along its gradient,
    on a point given and returned as a list of floats."""
    for _ in range(2):
        h, grad, _ = member_gradient(germ, theta0, x)
        denom = _dot(grad, grad)
        if denom == 0.0:
            return x
        c = h / denom
        x = [p - c * q for p, q in zip(x, grad)]
    return x


def _drift(kind: FlowKind, t: np.ndarray, r: np.ndarray, absf: np.ndarray,
           theta: np.ndarray) -> Dict[str, float]:
    """Largest departure of each invariant the kind monitors over the
    record; a key the kind does not monitor reads 0. monodromy: |x| (norm),
    |f| relative to |f0| (absf_rel), phase advance - (t - t0) (affine);
    radial: phase (theta), |x|^2 - (r0^2 + t - t0) (affine); tube: phase,
    log(|f| / |f0|) - (t - t0). Exact IEEE array operations (|a| / c equals
    |a / c| for c > 0), and math.log per point."""
    dt, dtheta = t - t[0], theta - theta[0]
    if kind is FlowKind.MONODROMY:
        dev = {"norm": r - r[0], "absf_rel": (absf - absf[0]) / absf[0],
               "affine": dtheta - dt}
    elif kind is FlowKind.RADIAL:
        dev = {"theta": dtheta, "affine": r * r - (r[0] * r[0] + dt)}
    else:
        dev = {"theta": dtheta, "affine": np.array(
            [math.log(a / absf[0]) for a in absf]) - dt}
    return {k: float(np.max(np.abs(dev[k]))) if k in dev else 0.0
            for k in ("norm", "absf_rel", "theta", "affine")}


def integrate(germ: MixedGerm, spec: FlowSpec, x0, t_span: Tuple[float, float]
              ) -> FlowTrace:
    """Adaptive transport of x0 across t_span under the kind's field.

    The state is the stacked real vector of x0, a list of floats, throughout.
    Each accepted step is projected back onto the kind's invariant set, and
    the slope refresh there gives f; the point goes into one record (t,
    state, |x|, f, unwrapped phase), from which _drift measures the drifts
    where the run ends. The axis floor is the one at the start radius.
    Raises StepCollapse (step below its floor, or MAX_STEPS * max(1, |t1 -
    t0|) attempts without reaching t1), AxisApproach or BallExit.
    """
    z0 = np.asarray(x0, dtype=complex)
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    if not math.isfinite(span):
        raise ValueError("flow span must be finite")
    y = to_real(z0).tolist()
    r0 = math.sqrt(_dot(y, y))
    f0 = complex(evaluate(germ, z0))
    axis_floor = germ.axis_floor(r0)
    if abs(f0) <= axis_floor:
        raise AxisProximity("flow start lies on the axis")
    theta0 = cmath.phase(f0)
    ball = spec.ball_factor * max(r0, 1e-300)
    budget = MAX_STEPS * max(1.0, abs(span))
    K: List[List[float]] = [[]] * 7   # Dormand-Prince stages, K[0] the slope
    diags: List[FieldDiagnostics] = []

    def rhs(s: int, yv: List[float]) -> complex:
        """Write the field at yv into stage s; return f at yv."""
        try:
            K[s], f, dg = synthesize_field(germ, spec, yv, axis_floor)
        except AxisProximity as exc:
            raise AxisApproach(str(exc)) from exc
        diags.append(dg)
        return f

    record = [(t0, y, r0, f0, theta0)]
    n_rej = 0
    direction = 1.0 if span > 0 else -1.0
    h = direction * min(spec.max_step, abs(span) / 10.0)
    h_floor = max(abs(span), 1.0) * 1e-14
    t = t0
    if span:  # an empty span synthesizes no field
        rhs(0, y)
    while (t1 - t) * direction > 0.0:
        attempts = len(record) - 1 + n_rej
        if attempts >= budget:
            raise StepCollapse(f"{attempts} attempted steps, t1 not reached "
                               f"at t={t:.6g}")
        if abs(h) < h_floor:
            raise StepCollapse(f"step size {abs(h):.3e} below floor at t={t:.6g}")
        if (t + h - t1) * direction > 0.0:
            h = t1 - t
        try:
            # stage s at y + h * sum_j A[s][j] K[j], summed in tableau order
            for s in range(1, 7):
                y5 = [v + h * sum(map(mul, _DP_A[s], ks))
                      for v, ks in zip(y, zip(*K[:s]))]
                rhs(s, y5)
        except (AxisApproach, DegenerateGradient, GramSingular):
            h *= 0.25
            n_rej += 1
            continue
        err_vec = [h * sum(map(mul, _DP_E, ks)) for ks in zip(*K)]
        r5 = math.sqrt(_dot(y5, y5))
        tol = spec.atol + spec.rtol * max(record[-1][2], r5)
        err = math.sqrt(_dot(err_vec, err_vec)) / tol if tol > 0 else math.inf
        if not err <= 1.0:  # NaN too
            h *= max(0.2, 0.9 * (max(err, 1e-10)) ** -0.2)
            n_rej += 1
            continue
        t += h
        if spec.kind is FlowKind.MONODROMY:
            c = r0 / r5
            y = [v * c for v in y5]
        else:
            y = _project_member(germ, theta0, y5)
        # projection moved the state, so refresh the slope; that pass also
        # raises AxisApproach where |f| fell to the axis floor
        f = rhs(0, y)
        r = math.sqrt(_dot(y, y))
        if r > ball:
            raise BallExit(f"|x| = {r:.3e} left the working ball")
        f_prev, theta = record[-1][3:]
        theta += cmath.phase(f * f_prev.conjugate())
        record.append((t, y, r, f, theta))
        h_next = h * min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        h = direction * min(abs(h_next), spec.max_step)

    ts, ys, rs, fs, thetas = zip(*record)
    ts, rs, thetas = np.array(ts), np.array(rs), np.array(thetas)
    abs_f = np.array([abs(f) for f in fs])   # complex abs, not numpy's
    return FlowTrace(kind=spec.kind.value, t=ts, points=to_complex(ys),
                     norms=rs, abs_f=abs_f, theta=thetas,
                     n_accepted=len(record) - 1, n_rejected=n_rej,
                     fallback_steps=sum(d.fallback for d in diags),
                     corrected_steps=sum(d.corrected for d in diags),
                     max_cond=max([0.0] + [d.cond for d in diags]),
                     drift=_drift(spec.kind, ts, rs, abs_f, thetas),
                     termination="completed" if span else "empty-span")


# ---------------------------------------------------------------------------
# transport wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyReturn:
    start: Tuple[complex, ...]
    endpoint: Tuple[complex, ...]
    winding: int
    theta_advance: float
    drift_norm: float
    drift_absf_rel: float
    half_side_flipped: Optional[bool]


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
    trace = integrate(germ, spec, x0, (0.0, TWO_PI * float(revolutions)))
    end = trace.points[-1]
    advance = float(trace.theta[-1] - trace.theta[0])
    winding = int(round(advance / TWO_PI))
    half_flip: Optional[bool] = None
    if abs((revolutions % 1.0) - 0.5) < 1e-12:
        half_flip = bool(side_indicator(germ, trace.theta[0], end) < 0.0)
    return MonodromyReturn(start=tuple(np.asarray(x0, dtype=complex)),
                           endpoint=tuple(end), winding=winding,
                           theta_advance=advance,
                           drift_norm=trace.drift["norm"],
                           drift_absf_rel=trace.drift["absf_rel"],
                           half_side_flipped=half_flip)


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

    Starts must satisfy |f| > eta; any |x| above the start radius during
    transport marks the record failed (never silently accepted).
    """
    if spec is None:
        spec = FlowSpec(kind=FlowKind.TUBE_EQUIVALENCE, max_step=0.25)
    if spec.kind is not FlowKind.TUBE_EQUIVALENCE:
        raise ValueError("equivalence_transport needs a tube FlowSpec")
    if not 0.0 < eta:
        raise ValueError("eta must be positive")
    Z = np.atleast_2d(np.asarray(starts, dtype=complex))
    out: List[TransportRecord] = []
    norm_cap = radius * (1.0 + 1e-9)
    for z0 in Z:
        f0 = complex(evaluate(germ, z0))
        if abs(f0) <= eta:
            raise ValueError("start point has |f| at or below the tube level")
        t_end = math.log(eta / abs(f0))
        try:
            trace = integrate(germ, spec, z0, (0.0, t_end))
        except PencilLabError as exc:  # typed numerical failure per record
            out.append(TransportRecord(
                start=tuple(z0), end=tuple(z0), success=False,
                theta_drift=float("nan"), max_norm=float("nan"),
                end_abs_f=float("nan"), steps=0, error=type(exc).__name__))
            continue
        max_norm = float(np.max(trace.norms))
        end = trace.points[-1]
        ok = (max_norm <= norm_cap
              and abs(trace.abs_f[-1] - eta) <= 1e-6 * eta + 1e-300)
        out.append(TransportRecord(
            start=tuple(z0), end=tuple(end),
            success=bool(ok), theta_drift=float(trace.drift["theta"]),
            max_norm=max_norm, end_abs_f=float(trace.abs_f[-1]),
            steps=trace.n_accepted))
    return out
