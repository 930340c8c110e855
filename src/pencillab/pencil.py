"""The angle-indexed family of real hypersurfaces cut out by a germ.

For a germ f and an angle theta, the member function h_theta(x) =
Im(exp(-i*theta) * f(x)) vanishes exactly where f(x) lies on the real line
at angle theta. Its zero set splits into the positive half (f on the open
ray at theta), the negative half (ray at theta + pi), and the common axis
V = {f = 0}. This module evaluates the member function, the side indicator
and the radius-preserving phase rescaling, measures the incidence residual
of the angular blow-up, and samples fibers and links.

Sign convention: h_0 = Im f and h_{pi/2} = -Re f; only zero sets and the
sign of the side indicator Re(exp(-i*theta) f) carry meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._num import gauss_newton, sobol_unit_sphere, to_complex, to_real
from .errors import ProjectionFailure
from .germ import MixedGerm, evaluate, real_gradients

TWO_PI = 2.0 * math.pi
MAX_FAIL_FRACTION = 0.5     # sample_fiber: largest share of failed seeds


# ---------------------------------------------------------------------------
# member function, side and spherefication
# ---------------------------------------------------------------------------

def _member(theta: float, re, im):
    """cos(theta) im - sin(theta) re: Im(exp(-i*theta) * f) for re = Re f
    and im = Im f, and its gradient for their gradients."""
    return math.cos(theta) * im - math.sin(theta) * re


def h_theta(germ: MixedGerm, theta: float, x) -> np.ndarray:
    """Member function Im(exp(-i*theta) * f(x)); batched over points."""
    f = evaluate(germ, x)
    return _member(float(theta), f.real, f.imag)


def side_indicator(germ: MixedGerm, theta: float, x) -> np.ndarray:
    """Re(exp(-i*theta) * f(x)): positive on the theta half, negative on
    the theta + pi half of the member's zero set."""
    f = evaluate(germ, x)
    return np.real(np.exp(-1j * float(theta)) * f)


def spherefication_batch(germ: MixedGerm, Z) -> np.ndarray:
    """Vectorized spherefication over ray points (caller excludes axis)."""
    Z = np.asarray(Z, dtype=complex)
    f = evaluate(germ, Z)
    r = np.sqrt(np.sum(np.abs(Z) ** 2, axis=-1))
    return r * f / np.abs(f)


def blowup_residual(germ: MixedGerm, x, t: Sequence[float]) -> float:
    """Incidence residual Re(f(x)) * t2 - Im(f(x)) * t1 for normalized t."""
    t1, t2 = float(t[0]), float(t[1])
    if abs(t1 * t1 + t2 * t2 - 1.0) > 1e-9:
        raise ValueError("projective pair must be normalized to the unit circle")
    f = complex(evaluate(germ, np.asarray(x, dtype=complex)))
    return f.real * t2 - f.imag * t1


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberSample:
    """Points projected onto one open fiber half {h_theta = 0, side > 0} on
    the sphere of the requested radius."""

    points: np.ndarray          # complex (k, n)
    theta: float
    radius: float
    attempted: int
    converged: int
    wrong_side: int

    @property
    def count(self) -> int:
        return len(self.points)


def member_gradient(germ: MixedGerm, theta: float, X: np.ndarray):
    """(h_theta, its real gradient, f) at stacked-real points X; batched.

    h_theta = cos(theta) Im f - sin(theta) Re f, so its gradient is the same
    combination of the real gradients of Im f and Re f.
    """
    f, ga, gb = real_gradients(germ, X)
    return _member(theta, f.real, f.imag), _member(theta, ga, gb), f


def sphere_member_system(germ: MixedGerm, theta: float, radius: float):
    """Gauss-Newton system of {|x|^2 = radius^2, h_theta = 0}."""

    def system(X):
        h, gh, _ = member_gradient(germ, theta, X)
        R = np.stack([np.sum(X * X, axis=-1) - radius * radius, h], axis=-1)
        J = np.stack([2.0 * X, gh], axis=-2)
        return R, J

    return system


def sample_fiber(germ: MixedGerm, theta: float, radius: float, count: int,
                 seed: int, newton_tol: float = 1e-12) -> FiberSample:
    """Sample the positive-side fiber half at the given angle and radius.

    Quasi-random sphere seeds are projected onto the two-constraint set by
    Gauss-Newton; non-convergent seeds and wrong-side landings are dropped
    and counted. Raises ProjectionFailure when the non-convergence rate
    alone exceeds MAX_FAIL_FRACTION.
    """
    theta = float(theta) % TWO_PI
    if count <= 0:
        return FiberSample(points=np.empty((0, germ.n), dtype=complex),
                           theta=theta, radius=radius, attempted=0,
                           converged=0, wrong_side=0)
    dim = 2 * germ.n
    seeds = radius * sobol_unit_sphere(seed, (0x0F1B, 0), count, dim)
    scale = np.array([radius * radius, max(germ.scale(radius), 1e-300)])
    X, ok = gauss_newton(sphere_member_system(germ, theta, radius), seeds,
                         scale, tol=newton_tol, step_cap=0.5 * radius)
    converged = int(np.count_nonzero(ok))
    if converged < count * (1.0 - MAX_FAIL_FRACTION):
        raise ProjectionFailure(
            f"{count - converged}/{count} fiber projections failed "
            f"(theta={theta:.6f}, radius={radius})")
    Z = to_complex(X[ok])
    side = side_indicator(germ, theta, Z)
    floor = germ.axis_floor(radius)
    keep = side > floor
    pts = Z[keep]
    return FiberSample(points=pts, theta=theta, radius=radius,
                       attempted=count, converged=converged,
                       wrong_side=int(np.count_nonzero(~keep)))


# ---------------------------------------------------------------------------
# point-cloud output
# ---------------------------------------------------------------------------

def pointcloud_rows(germ: MixedGerm, points: np.ndarray) -> np.ndarray:
    """Rows of (2n coordinates, theta, ||x||, |f|) for CSV export."""
    Z = np.asarray(points, dtype=complex)
    X = to_real(Z)
    f = evaluate(germ, Z)
    theta = np.mod(np.arctan2(f.imag, f.real), TWO_PI)
    r = np.sqrt(np.sum(X * X, axis=-1))
    return np.concatenate([X, theta[:, None], r[:, None],
                           np.abs(f)[:, None]], axis=-1)


def stereographic_project(points: np.ndarray, pole: np.ndarray,
                          radius: float) -> np.ndarray:
    """Project points of the radius-r sphere in R^4 to R^3 from a pole.

    The pole must be a point of the same sphere; points at the pole map to
    infinity, so callers perturb the pole first when needed.
    """
    X = np.asarray(points, dtype=float)
    p = np.asarray(pole, dtype=float)
    p = p / np.linalg.norm(p) * radius
    # orthonormal basis of the pole's orthogonal complement
    M = np.concatenate([p[:, None] / radius, np.eye(X.shape[-1])], axis=1)
    Qm, _ = np.linalg.qr(M)
    B = Qm[:, 1:4]
    denom = 1.0 - (X @ p) / (radius * radius)
    return (X @ B) / denom[:, None]
