"""Euler characteristics of member links by signed Morse counting, and two
independent Milnor-number computations for two-variable power-sum germs.

For a plane-curve germ (n = 2) and an angle theta, the link is the surface
K = {h_theta = 0} on the sphere of radius epsilon in R^4. A generic linear
functional restricted to K has finitely many critical points; the sum of
the signs of the projected-Hessian determinants equals the Euler
characteristic of K. Completeness of the enumeration is stochastic and
controlled by a stability window: the run stops only after a fixed number
of consecutive seed batches finds no new critical point.

The window cannot close before as many more batches as it still lacks, so
those batches are drawn, projected and polished as one stacked chunk; both
stages are systems for _num.gauss_newton, the package's one Newton loop.
The chunk is then classified batch by batch in its original order, each
batch's candidates in one call. The solvers are row-independent, so the
chunk gives the same points, counters and stop as a batch-by-batch loop;
only a degenerate critical point, which ends the draw, discards the rest
of its chunk unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._num import (gauss_newton, sobol_unit_sphere, solve_rows, stream,
                   to_complex)
from .errors import DegenerateAfterRetries, Unstable
from .germ import MixedGerm, hessian_blocks
from .pencil import member_gradient, sphere_member_system

TWO_PI = 2.0 * math.pi
DEGENERACY_TOL = 1e-9   # on |det| of a critical point's projected Hessian


# ---------------------------------------------------------------------------
# Milnor numbers for power-sum (Brieskorn) exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MilnorNumberResult:
    mu: int
    method: str                  # "closed-form" | "staircase"
    exponents: Tuple[int, ...]


def closed_form_mu(exponents: Sequence[int]) -> MilnorNumberResult:
    """Product formula: mu = prod(a_i - 1)."""
    exps = tuple(int(a) for a in exponents)
    if any(a < 2 for a in exps):
        raise ValueError("exponents must all be at least 2")
    mu = 1
    for a in exps:
        mu *= a - 1
    return MilnorNumberResult(mu=mu, method="closed-form", exponents=exps)


def staircase_mu(exponents: Sequence[int]) -> MilnorNumberResult:
    """Independent count: lattice points of the box prod [0, a_i - 2].

    These index the monomial basis of the quotient by the ideal
    (z1^(a1-1), ..., zn^(an-1)); counted by explicit enumeration, no
    product formula involved.
    """
    exps = tuple(int(a) for a in exponents)
    if any(a < 2 for a in exps):
        raise ValueError("exponents must all be at least 2")
    bound = 1
    for a in exps:
        bound *= a - 1
        if bound > 2 ** 31:
            raise ValueError("staircase enumeration bound exceeds 2^31")
    count = 0
    for _ in iter_product(*(range(a - 1) for a in exps)):
        count += 1
    return MilnorNumberResult(mu=count, method="staircase", exponents=exps)


# ---------------------------------------------------------------------------
# signed Morse counting on the link surface
# ---------------------------------------------------------------------------

@dataclass
class MorseInventory:
    points: np.ndarray            # real (K, 4)
    values: np.ndarray            # (K,) functional values at the points
    multipliers: np.ndarray       # (K, 2)
    signs: np.ndarray             # (K,) of +1/-1
    residuals: np.ndarray         # (K,) verified system residuals
    ell: np.ndarray               # (4,) the linear functional used
    chi: int
    theta: float
    radius: float
    seeds_used: int
    batches: int
    stability: int
    ell_draws: int
    termination: str

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "radius": self.radius,
            "ell": list(self.ell),
            "points": [list(p) for p in self.points],
            "values": list(self.values),
            "multipliers": [list(m) for m in self.multipliers],
            "signs": [int(s) for s in self.signs],
            "residuals": list(self.residuals),
            "chi": self.chi,
            "seeds_used": self.seeds_used,
            "batches": self.batches,
            "stability": self.stability,
            "ell_draws": self.ell_draws,
            "termination": self.termination,
        }


def _member_hessian(germ: MixedGerm, theta: float, X: np.ndarray):
    """Real Hessian ct * H_b - st * H_a of h_theta, block by block.

    Each entry is ct * Im - st * Re of its complex block; the off-diagonal
    blocks are i*w, with Im(i*w) = Re w and Re(i*w) = -Im w exactly.
    """
    ct, st = math.cos(theta), math.sin(theta)
    uu, w, vv = hessian_blocks(germ, to_complex(X))
    n = germ.n
    H = np.empty(X.shape[:-1] + (2 * n, 2 * n))
    H[..., :n, :n] = ct * uu.imag - st * uu.real
    H[..., :n, n:] = ct * w.real + st * w.imag
    H[..., n:, :n] = np.swapaxes(H[..., :n, n:], -1, -2)
    H[..., n:, n:] = ct * vv.imag - st * vv.real
    return H


def _stationarity_system(germ: MixedGerm, theta: float, radius: float,
                         ell: np.ndarray, scale_h: float):
    """(system, scale) for gauss_newton: ell's critical points on the link,
    in Y = (x, l1, l2),

        ell - 2*l1*x - l2*grad h = 0,  |x|^2 - r^2 = 0,  h = 0.

    J[:4, :4] is the Lagrangian Hessian and J[5, :4] is grad h. Rows outside
    the ball |x| <= 4r read NaN, and the germ is not evaluated on them.
    """
    r2 = radius * radius

    def system(Y):
        X, L = Y[:, :4], Y[:, 4:]
        inside = np.linalg.norm(X, axis=-1) <= 4.0 * radius
        h, gh, H = (np.full((len(Y),) + s, np.nan)
                    for s in ((), (4,), (4, 4)))
        h[inside], gh[inside], _ = member_gradient(germ, theta, X[inside])
        H[inside] = _member_hessian(germ, theta, X[inside])
        F = np.concatenate([
            ell[None, :] - 2.0 * L[:, 0:1] * X - L[:, 1:2] * gh,
            (np.sum(X * X, axis=-1) - r2)[:, None],
            h[:, None],
        ], axis=-1)
        J = np.zeros((len(Y), 6, 6))
        J[:, :4, :4] = (-2.0 * L[:, 0, None, None] * np.eye(4)
                        - L[:, 1, None, None] * H)
        J[:, :4, 4] = -2.0 * X
        J[:, :4, 5] = -gh
        J[:, 4, :4] = 2.0 * X
        J[:, 5, :4] = gh
        return F, J

    return system, np.array([1.0, 1.0, 1.0, 1.0, r2, scale_h])


def _lagrange_newton(germ: MixedGerm, theta: float, radius: float,
                     ell: np.ndarray, X0: np.ndarray, newton_tol: float,
                     scale_h: float):
    """gauss_newton on the stationarity system from link points X0; returns
    (X, L, ok). The multipliers start at the least-squares solution of the
    stationarity rows: one stacked QR; a rank-deficient row gets NaN."""
    _, gh, _ = member_gradient(germ, theta, X0)
    Qf, R = np.linalg.qr(np.stack([2.0 * X0, gh], axis=-1))
    L0 = solve_rows(R, np.einsum("nij,i->nj", Qf, ell))
    system, scale = _stationarity_system(germ, theta, radius, ell, scale_h)
    Y, ok = gauss_newton(system, np.concatenate([X0, L0], axis=-1), scale,
                         tol=newton_tol)
    return Y[:, :4], Y[:, 4:], ok


def _morse_data(system, scale, X: np.ndarray, L: np.ndarray):
    """Verified residual and projected-Hessian determinant of each critical
    point. The tangent plane is orthogonal to the frame (x / |x|, grad h):
    columns 2:4 of Q, from one stacked QR of the frame and the identity.
    """
    F, J = system(np.concatenate([X, L], axis=-1))
    frame = np.stack([X / np.linalg.norm(X, axis=-1, keepdims=True),
                      J[:, 5, :4]], axis=-1)
    eye = np.broadcast_to(np.eye(4), (len(X), 4, 4))
    B = np.linalg.qr(np.concatenate([frame, eye], axis=-1))[0][..., 2:4]
    return (np.max(np.abs(F) / scale, axis=-1),
            np.linalg.det(np.swapaxes(B, -1, -2) @ J[:, :4, :4] @ B))


def link_surface_euler(germ: MixedGerm, theta: float, radius: float,
                       budget: int = 100000, seed: int = 0,
                       batch: int = 200, stability_batches: int = 20,
                       ell_redraws: int = 10,
                       newton_tol: float = 1e-10,
                       ell_seed: Optional[np.ndarray] = None
                       ) -> Tuple[MorseInventory, int]:
    """Signed critical-point enumeration of a random linear functional on
    the link surface; returns the inventory and chi = sum of signs.

    n = 2 only. A batch is quiet when some of its rows converge and none
    is new (within 1e-6 * radius of a stored point). Batches are solved in
    stacked chunks of the window's remaining length (capped by the
    budget), which changes neither the stop rule nor seeds_used and
    batches: both count only the batches classified. A degenerate point
    discards the rest of its chunk along with the draw. Raises Unstable
    when the budget runs out before the stability window closes (the
    partial inventory rides on the error), and DegenerateAfterRetries when
    every functional redraw met a degenerate critical point.
    """
    if germ.n != 2:
        raise ValueError("link Euler counting is implemented for n = 2 only")
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = float(theta) % TWO_PI
    dedup_tol = 1e-6 * radius
    scale_h = max(germ.scale(radius), 1e-300)
    r2 = radius * radius

    last_error: Optional[str] = None
    for draw in range(ell_redraws):
        if ell_seed is not None and draw == 0:
            ell = np.asarray(ell_seed, dtype=float)
            ell = ell / np.linalg.norm(ell)
        else:
            g = stream(seed, 0xE11, draw).normal(size=4)
            ell = g / np.linalg.norm(g)

        system, scale = _stationarity_system(germ, theta, radius, ell,
                                             scale_h)
        points: List[np.ndarray] = []
        values: List[float] = []
        mults: List[np.ndarray] = []
        signs: List[int] = []
        resids: List[float] = []
        stable_run = 0
        seeds_used = 0
        batches = 0
        degenerate = False

        max_batches = max(1, budget // batch)
        b = 0
        while b < max_batches and stable_run < stability_batches:
            # the window cannot close before k more batches, so they are
            # drawn, projected and polished together, then classified in
            # order; the stacked solvers are row-independent
            k = min(stability_batches - stable_run, max_batches - b)
            seeds0 = radius * np.concatenate([
                sobol_unit_sphere(seed, (0x5EED, draw, b + j), batch, 4)
                for j in range(k)])
            b += k
            # project onto the link before polishing the full system
            Xp, okp = gauss_newton(
                sphere_member_system(germ, theta, radius), seeds0,
                np.array([r2, scale_h]), tol=1e-12, step_cap=0.5 * radius)
            Xc, Lc, okc = _lagrange_newton(germ, theta, radius, ell, Xp[okp],
                                           newton_tol, scale_h)
            owner = np.repeat(np.arange(k), batch)[okp]
            for j in range(k):
                seeds_used += batch
                batches += 1
                mine = okc & (owner == j)
                # a stalled batch, with no projected or no polished row,
                # is not a quiet one
                if not np.any(mine):
                    continue
                cand = Xc[mine]
                candL = Lc[mine]
                # deterministic insertion order: lexicographic within the
                # batch; candidates near a point stored before the batch
                # drop out in one distance array
                order = np.lexsort(cand.T[::-1])
                if points:
                    dists = np.linalg.norm(
                        np.stack(points)[None, :, :] - cand[order, None, :],
                        axis=-1)
                    order = order[np.min(dists, axis=-1) > dedup_tol]
                first_new = len(points)
                X, L = cand[order], candL[order]
                if len(X):
                    res, det = _morse_data(system, scale, X, L)
                for i, x in enumerate(X):
                    if len(points) > first_new:
                        dists = np.linalg.norm(
                            np.stack(points[first_new:]) - x, axis=-1)
                        if float(np.min(dists)) <= dedup_tol:
                            continue
                    if res[i] >= newton_tol:
                        continue
                    if abs(det[i]) < DEGENERACY_TOL:
                        degenerate = True
                        break
                    points.append(x.copy())
                    values.append(float(ell @ x))
                    mults.append(L[i].copy())
                    signs.append(1 if det[i] > 0 else -1)
                    resids.append(float(res[i]))
                if degenerate:
                    break
                stable_run = stable_run + 1 if len(points) == first_new else 0
            if degenerate:
                break

        if degenerate:
            last_error = "degenerate critical point"
            continue
        chi = int(sum(signs))
        termination = ("budget-exhausted" if stable_run < stability_batches
                       else "odd-chi" if chi % 2 != 0 else "stable")
        inv = _inventory(points, values, mults, signs, resids, ell, theta,
                         radius, seeds_used, batches, stable_run, draw + 1,
                         termination)
        if termination == "budget-exhausted":
            raise Unstable(
                f"no stability after {seeds_used} seeds "
                f"({stable_run}/{stability_batches} quiet batches)",
                inventory=inv)
        if termination == "odd-chi":
            raise Unstable(
                f"odd Euler characteristic {chi}: inventory incomplete",
                inventory=inv)
        return inv, chi

    raise DegenerateAfterRetries(
        f"all {ell_redraws} functional draws failed "
        f"(last: {last_error or 'unknown'})")


def _inventory(points, values, mults, signs, resids, ell, theta, radius,
               seeds_used, batches, stability, draws,
               termination) -> MorseInventory:
    K = len(points)
    return MorseInventory(
        points=np.stack(points) if K else np.empty((0, 4)),
        values=np.array(values, dtype=float),
        multipliers=np.stack(mults) if K else np.empty((0, 2)),
        signs=np.array(signs, dtype=int),
        residuals=np.array(resids, dtype=float),
        ell=np.asarray(ell, dtype=float),
        chi=int(sum(signs)),
        theta=theta, radius=radius, seeds_used=seeds_used, batches=batches,
        stability=stability, ell_draws=draws, termination=termination)


# ---------------------------------------------------------------------------
# consistency of the two computations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleFiberReport:
    exponents: Tuple[int, int]
    theta: float
    radius: float
    chi: int
    mu: int
    expected_chi: int
    passed: bool
    genus: int
    note: str

    def to_json_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "theta": self.theta,
            "radius": self.radius,
            "chi": self.chi,
            "mu": self.mu,
            "expected_chi": self.expected_chi,
            "passed": self.passed,
            "genus": self.genus,
            "note": self.note,
        }


def brieskorn_exponents(germ: MixedGerm) -> Tuple[int, int]:
    """Extract (a1, a2) from a two-term power-sum germ z1^a1 + z2^a2."""
    if germ.n != 2 or len(germ.terms) != 2 or not germ.is_holomorphic:
        raise ValueError("germ is not a two-variable power sum")
    exps = [0, 0]
    for c, p, q in germ.terms:
        nz = [j for j, e in enumerate(p) if e > 0]
        if c != 1 or len(nz) != 1:
            raise ValueError("germ is not a two-variable power sum")
        exps[nz[0]] = p[nz[0]]
    if min(exps) < 2:
        raise ValueError("power-sum exponents must be at least 2")
    return int(exps[0]), int(exps[1])


def double_fiber_consistency(germ: MixedGerm, theta: float, radius: float,
                             budget: int = 100000, seed: int = 0,
                             **euler_kwargs) -> DoubleFiberReport:
    """Check chi(link of the member) = 2 * (1 - mu) for a power-sum germ.

    chi comes from the Morse enumeration, mu from the two independent
    Milnor-number computations (which must agree); the genus is derived
    from chi for the connected link surface.
    """
    a = brieskorn_exponents(germ)
    mu_closed = closed_form_mu(a).mu
    mu_stair = staircase_mu(a).mu
    if mu_closed != mu_stair:
        raise AssertionError(
            f"Milnor number mismatch: {mu_closed} != {mu_stair}")
    _, chi = link_surface_euler(germ, theta, radius, budget=budget,
                                seed=seed, **euler_kwargs)
    expected = 2 * (1 - mu_closed)
    genus = (2 - chi) // 2
    return DoubleFiberReport(
        exponents=a, theta=float(theta), radius=radius, chi=chi,
        mu=mu_closed, expected_chi=expected, passed=bool(chi == expected),
        genus=genus,
        note="genus assumes the link surface is connected; it is, being two "
             "copies of a connected fiber surface glued along their shared "
             "boundary curves")
