"""Euler characteristics of member links by signed Morse counting, and two
independent Milnor-number computations for two-variable power-sum germs.

For a plane-curve germ (n = 2) and an angle theta, the link is the surface
K = {h_theta = 0} on the sphere of radius epsilon in R^4. A generic linear
functional restricted to K has finitely many critical points; the sum of
the signs of the projected-Hessian determinants equals the Euler
characteristic of K. Completeness of the enumeration is stochastic and
controlled by a stability window: the run stops only after a fixed number
of consecutive seed batches finds no new critical point.

The window cannot close before as many more batches as it still lacks,
plus one while no point is stored (the first batch with converged rows
then stores one). Those batches are drawn in one Sobol call, projected and
polished as one stacked chunk; both stages are systems for
_num.gauss_newton, the package's one Newton loop. The chunk is then
classified batch by batch in its original order by _classify_batch, the
one place where a point is judged new, degenerate or accepted. The solvers
are row-independent, so the chunk gives the points, counters and stop of a
batch-by-batch loop over the same seeds (those of later batches are slices
of the chunk's draw, not one-batch draws). Classification stops where the
window closes or a degenerate critical point ends the draw, and the rest
of the chunk is discarded. One counter, the batches classified, keys the
draws: seeds_used = batches * batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._num import (gauss_newton, sobol_unit_sphere, solve_rows, stream,
                   to_complex)
from .errors import DegenerateAfterRetries, Unstable, UsageError
from .germ import MixedGerm, stacked_gradients, wirtinger_hessian
from .pencil import TWO_PI, _member, member_gradient, sphere_member_system

DEGENERACY_TOL = 1e-9   # on |det| of a critical point's projected Hessian


# ---------------------------------------------------------------------------
# Milnor numbers for power-sum (Brieskorn) exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MilnorNumberResult:
    mu: int
    exponents: Tuple[int, ...]


def closed_form_mu(exponents: Sequence[int]) -> MilnorNumberResult:
    """Product formula: mu = prod(a_i - 1)."""
    exps = tuple(int(a) for a in exponents)
    if any(a < 2 for a in exps):
        raise UsageError("exponents", "all exponents must be at least 2")
    mu = 1
    for a in exps:
        mu *= a - 1
    return MilnorNumberResult(mu=mu, exponents=exps)


def staircase_mu(exponents: Sequence[int]) -> MilnorNumberResult:
    """Independent count: lattice points of the box prod [0, a_i - 2].

    These index the monomial basis of the quotient by the ideal
    (z1^(a1-1), ..., zn^(an-1)); counted by explicit enumeration, no
    product formula involved.
    """
    exps = tuple(int(a) for a in exponents)
    if any(a < 2 for a in exps):
        raise UsageError("exponents", "all exponents must be at least 2")
    bound = 1
    for a in exps:
        bound *= a - 1
        if bound > 2 ** 31:
            raise UsageError("exponents",
                             "staircase enumeration bound exceeds 2^31")
    count = 0
    for _ in iter_product(*(range(a - 1) for a in exps)):
        count += 1
    return MilnorNumberResult(mu=count, exponents=exps)


# ---------------------------------------------------------------------------
# signed Morse counting on the link surface
# ---------------------------------------------------------------------------

@dataclass
class MorseInventory:
    theta: float
    radius: float
    ell: np.ndarray               # (4,) the linear functional used
    points: np.ndarray            # real (K, 4)
    values: np.ndarray            # (K,) functional values at the points
    multipliers: np.ndarray       # (K, 2)
    signs: np.ndarray             # (K,) of +1/-1
    residuals: np.ndarray         # (K,) verified system residuals
    chi: int
    seeds_used: int
    batches: int
    stability: int
    ell_draws: int
    termination: str


def _stationarity_system(germ: MixedGerm, theta: float, radius: float,
                         ell: np.ndarray, scale_h: float):
    """(system, scale) for gauss_newton: ell's critical points on the link,
    in Y = (x, l1, l2),

        ell - 2*l1*x - l2*grad h = 0,  |x|^2 - r^2 = 0,  h = 0.

    J[:4, :4] is the Lagrangian Hessian (that of h is Im(exp(-i*theta) H)
    for the complex real Hessian H of f, as in germ.real_hessians) and
    J[5, :4] is grad h, from one kernel pass, formed entry-major so that
    each operation is one pass over the rows. Rows outside the ball
    |x| <= 4r read NaN, and the germ is not evaluated on them.
    """
    r2 = radius * radius
    rot = complex(math.cos(theta), -math.sin(theta))

    def assemble(X, L, s2):
        f, dz, dzb, *abc = wirtinger_hessian(germ, to_complex(X),
                                             gradient=True)
        gh = _member(theta, *stacked_gradients(dz, dzb)).T
        A, B, C = (np.ascontiguousarray(m.transpose(1, 2, 0)) * rot
                   for m in abc)
        AC, S = A + C, B.imag + B.imag.swapaxes(0, 1)
        F = np.concatenate([ell[:, None] - 2.0 * L[:, 0] * X.T - L[:, 1] * gh,
                            [s2 - r2, _member(theta, f.real, f.imag)]])
        J = np.empty((6, 6, len(X)))
        np.add(AC.imag, S, out=J[:2, :2])
        np.subtract(S, AC.imag, out=J[2:4, 2:4])
        np.add((A - C).real, B.real.swapaxes(0, 1) - B.real, out=J[:2, 2:4])
        J[2:4, :2] = J[:2, 2:4].swapaxes(0, 1)
        J[:4, :4] *= -L[:, 1]
        J[range(4), range(4)] -= 2.0 * L[:, 0]
        J[4:, :4] = 2.0 * X.T, gh
        J[:4, 4:] = -J[4:, :4].swapaxes(0, 1)
        J[4:, 4:] = 0.0
        return F.T, np.ascontiguousarray(J.transpose(2, 0, 1))

    def system(Y):
        X, L = Y[:, :4], Y[:, 4:]
        s2 = np.sum(X * X, axis=-1)
        inside = np.sqrt(s2) <= 4.0 * radius
        if inside.all():
            return assemble(X, L, s2)
        F, J = np.full((len(Y), 6), np.nan), np.full((len(Y), 6, 6), np.nan)
        F[inside], J[inside] = assemble(X[inside], L[inside], s2[inside])
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
    """(X, L, residual, det) of converged critical points after one more
    Newton step, which fixes each to its root whatever path reached it (a
    row whose step is not finite keeps its point). The tangent plane is
    orthogonal to the frame (x / |x|, grad h): columns 2:4 of Q, from one
    stacked QR of the frame and the identity.
    """
    Y = np.concatenate([X, L], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        dY = solve_rows(*system(Y)[::-1])
        Y -= np.where(np.isfinite(dY).all(axis=-1, keepdims=True), dY, 0.0)
        F, J = system(Y)
    X, L = Y[:, :4], Y[:, 4:]
    frame = np.stack([X / np.linalg.norm(X, axis=-1, keepdims=True),
                      J[:, 5, :4]], axis=-1)
    eye = np.broadcast_to(np.eye(4), (len(X), 4, 4))
    B = np.linalg.qr(np.concatenate([frame, eye], axis=-1))[0][..., 2:4]
    return (X, L, np.max(np.abs(F) / scale, axis=-1),
            np.linalg.det(np.swapaxes(B, -1, -2) @ J[:, :4, :4] @ B))


def _classify_batch(system, scale, X: np.ndarray, L: np.ndarray,
                    stored: np.ndarray, dedup_tol: float, newton_tol: float):
    """One batch's new critical points: (X, L, residual, det) rows in
    lexicographic order, or None when one of them is degenerate.

    Candidates within dedup_tol of a stored point drop out at their
    pre-step positions, in one distance array; the rest take _morse_data's
    final step, after which each is compared with the rows kept earlier in
    the batch. A row whose residual misses newton_tol is skipped. This is
    the one place where a point is accepted; its sign is that of det.
    """
    order = np.lexsort(X.T[::-1])
    if len(stored):
        dists = np.linalg.norm(stored - X[order, None, :], axis=-1)
        order = order[np.min(dists, axis=-1) > dedup_tol]
    if not len(order):
        return X[order], L[order], np.empty(0), np.empty(0)
    X, L, res, det = _morse_data(system, scale, X[order], L[order])
    keep: List[int] = []
    for i, x in enumerate(X):
        if keep and np.min(np.linalg.norm(X[keep] - x, axis=-1)) <= dedup_tol:
            continue
        if not res[i] < newton_tol:
            continue
        if abs(det[i]) < DEGENERACY_TOL:
            return None
        keep.append(i)
    return X[keep], L[keep], res[keep], det[keep]


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
    is new (within 1e-6 * radius of a stored point); _classify_batch
    decides which rows are new. Batches are solved in stacked chunks of the
    window's remaining length, one batch longer while no point is stored,
    capped by the budget. One counter, batches, counts the batches
    classified; seeds_used is always batches * batch. A chunk draws its
    seeds in one call keyed by its first batch (the batches classified
    before it), so only batch 0 has the seeds of a one-batch draw. Where
    the window closes or a degenerate point ends the draw, the rest of the
    chunk is discarded unclassified. Raises Unstable when the budget runs
    out before the stability window closes, or chi is odd (the inventory
    rides on the error), and DegenerateAfterRetries when every functional
    redraw met a degenerate critical point.
    """
    if germ.n != 2:
        raise UsageError("germ", "link Euler counting is implemented for "
                                 "n = 2 only")
    if radius <= 0:
        raise UsageError("radius", "radius must be positive")
    for name, value in (("budget", budget), ("batch", batch),
                        ("stability_batches", stability_batches),
                        ("ell_redraws", ell_redraws)):
        if value < 1:
            raise UsageError(name, f"{name} must be positive")
    theta = float(theta) % TWO_PI
    batch = min(batch, budget)   # a larger batch would overdraw the budget
    max_batches = budget // batch
    dedup_tol = 1e-6 * radius
    scale_h = max(germ.scale(radius), 1e-300)
    project = sphere_member_system(germ, theta, radius)
    project_scale = np.array([radius * radius, scale_h])

    def one_draw(draw: int, ell: np.ndarray) -> Optional[MorseInventory]:
        """The inventory of one functional, or None if it meets a
        degenerate critical point; raises Unstable as above."""
        system, scale = _stationarity_system(germ, theta, radius, ell,
                                             scale_h)
        found = (np.empty((0, 4)), np.empty((0, 2)), np.empty(0), np.empty(0))
        batches = stable_run = 0
        while batches < max_batches and stable_run < stability_batches:
            # the window cannot close before k more batches, so they are
            # drawn, projected onto the link and polished together, then
            # classified in order; the stacked solvers are row-independent.
            # With nothing stored, the first batch with converged rows
            # stores a point and is not quiet, so one more is needed.
            k = min(stability_batches - stable_run + (not len(found[0])),
                    max_batches - batches)
            seeds0 = radius * sobol_unit_sphere(
                seed, (0x5EED, draw, batches), k * batch, 4)
            Xp, okp = gauss_newton(project, seeds0, project_scale, tol=1e-12,
                                   step_cap=0.5 * radius)
            Xc, Lc, okc = _lagrange_newton(germ, theta, radius, ell, Xp[okp],
                                           newton_tol, scale_h)
            owner = np.repeat(np.arange(k), batch)[okp]
            for j in range(k):
                if stable_run == stability_batches:
                    break  # a batch was quiet with nothing stored
                batches += 1
                mine = okc & (owner == j)
                # a stalled batch, with no projected or no polished row,
                # is not a quiet one
                if not np.any(mine):
                    continue
                new = _classify_batch(system, scale, Xc[mine], Lc[mine],
                                      found[0], dedup_tol, newton_tol)
                if new is None:
                    return None
                found = tuple(map(np.concatenate, zip(found, new)))
                stable_run = 0 if len(new[0]) else stable_run + 1
        X, L, res, det = found
        signs = np.where(det > 0, 1, -1)
        chi = int(signs.sum())
        termination = ("budget-exhausted" if stable_run < stability_batches
                       else "odd-chi" if chi % 2 != 0 else "stable")
        inv = MorseInventory(
            theta=theta, radius=radius, ell=ell, points=X,
            values=np.array([float(ell @ x) for x in X]), multipliers=L,
            signs=signs, residuals=res, chi=chi, seeds_used=batches * batch,
            batches=batches, stability=stable_run, ell_draws=draw + 1,
            termination=termination)
        if termination == "stable":
            return inv
        raise Unstable(
            f"no stability after {inv.seeds_used} seeds "
            f"({stable_run}/{stability_batches} quiet batches)"
            if termination == "budget-exhausted" else
            f"odd Euler characteristic {chi}: inventory incomplete",
            inventory=inv)

    for draw in range(ell_redraws):
        ell = (np.asarray(ell_seed, dtype=float)
               if ell_seed is not None and draw == 0
               else stream(seed, 0xE11, draw).normal(size=4))
        inv = one_draw(draw, ell / np.linalg.norm(ell))
        if inv is not None:
            return inv, inv.chi
    raise DegenerateAfterRetries(
        f"all {ell_redraws} functional draws failed "
        "(last: degenerate critical point)")


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


def brieskorn_exponents(germ: MixedGerm) -> Tuple[int, int]:
    """Extract (a1, a2) from a two-term power-sum germ z1^a1 + z2^a2."""
    if germ.n != 2 or len(germ.terms) != 2 or not germ.is_holomorphic:
        raise UsageError("germ", "germ is not a two-variable power sum")
    exps = [0, 0]
    for c, p, q in germ.terms:
        nz = [j for j, e in enumerate(p) if e > 0]
        if c != 1 or len(nz) != 1:
            raise UsageError("germ", "germ is not a two-variable power sum")
        exps[nz[0]] = p[nz[0]]
    if min(exps) < 2:
        raise UsageError("germ", "power-sum exponents must be at least 2")
    return int(exps[0]), int(exps[1])


def double_fiber_consistency(germ: MixedGerm, theta: float, radius: float,
                             budget: int = 100000, seed: int = 0,
                             **euler_kwargs) -> DoubleFiberReport:
    """Check chi(link of the member) = 2 * (1 - mu) for a power-sum germ.

    chi comes from the Morse enumeration and mu from the closed form; the
    genus is derived from chi for the connected link surface.
    """
    a = brieskorn_exponents(germ)
    mu_closed = closed_form_mu(a).mu
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
