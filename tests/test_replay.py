"""Replay of the cover goldens at 50 digits.

Every dreg, strong-milnor and crit-scan golden report prints a minimum, the
witness row that attains it and a verdict. This replay re-derives what
those printed numbers fix, with its own mpmath evaluator written from
germ.terms; it shares no arithmetic with the generated kernels:

- the witness lies on its metric sphere (dreg, strong-milnor) or in its
  ball (crit-scan);
- |f| at the witness is above the f floor, 1e-6 max |c| r^deg;
- the value at the witness (the defect or the rank margin) lies within
  [min - K eps s, min (1 + 8 eps) + K eps s], since the witness is the
  lowest row within 8 eps relative of the minimum;
- the verdict is min > threshold.

s is the summed term size of the double computation the program makes: a
running error bound (Higham, "Accuracy and Stability of Numerical
Algorithms", 2002, ch. 3) that adds the magnitude of every rounded result,
each term, product, partial sum, quotient and root, with the program's
operations in the program's order, to first order. A real operation rounds
by at most eps/2 of its result and a complex product by at most sqrt(5)/2
eps of |a| |b| (Brent, Percival and Zimmermann, Math. Comp. 76, 2007), so
K = 2 covers every charged rounding. K is that bound, not fitted to the
gaps observed.
"""

import json
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf, mpc

from pencillab.germ import parse_germ

GOLDEN = Path(__file__).parent / "golden"
JOBS = sorted(p.stem for p in GOLDEN.glob("*.json")
              if p.stem.startswith(("dreg_", "strong_milnor_", "crit_scan_")))
K = 2
EPS = mpf(2) ** -52
F_FLOOR = mpf("1e-6")
mpmath.mp.dps = 50


class R:
    """A 50-digit value v with s, the running bound of the rounding error a
    double computation of it carries, in units of eps. Printed inputs are
    exact (s = 0)."""

    def __init__(self, v, s=0):
        self.v, self.s = v, mpf(s)

    def __add__(self, o):
        o = lift(o)
        v = self.v + o.v
        return R(v, self.s + o.s + abs(v))

    def __sub__(self, o):
        return self + R(-lift(o).v, lift(o).s)

    def __mul__(self, o):
        o = lift(o)
        a, b = abs(self.v), abs(o.v)
        return R(self.v * o.v, a * o.s + b * self.s + a * b)

    def __truediv__(self, o):
        o = lift(o)
        v = self.v / o.v
        return R(v, (self.s + abs(v) * o.s) / abs(o.v) + abs(v))

    def sqrt(self):
        v = mpmath.sqrt(self.v)
        return R(v, self.s / (2 * v) + v if v else mpmath.inf)

    @property
    def real(self):
        return R(mpmath.re(self.v), self.s)

    @property
    def imag(self):
        return R(mpmath.im(self.v), self.s)

    def conj(self):
        return R(mpmath.conj(self.v), self.s)


def lift(x):
    return x if isinstance(x, R) else R(x)


def total(items):
    """A sum in the order of the items, from the first."""
    items = list(items)
    out = items[0]
    for x in items[1:]:
        out = out + x
    return out


def power(z, k):
    """z^k as k - 1 products: no fewer roundings than binary powering."""
    out = z
    for _ in range(k - 1):
        out = out * z
    return out


def mp_gradients(germ, x):
    """(f, grad_a, grad_b) at the stacked real point x: f and the real
    gradients of Re f and Im f, from the exact Wirtinger derivatives of
    each term c z^p conj(z)^q, added in term order."""
    n = germ.n
    z = [R(mpc(x[j].v, x[n + j].v)) for j in range(n)]
    f, dz, dzb = R(mpc(0)), [R(mpc(0))] * n, [R(mpc(0))] * n

    def product(c, p, q, fac=1):
        out = R(mpc(c)) * fac
        for j in range(n):
            if p[j]:
                out = out * power(z[j], p[j])
            if q[j]:
                out = out * power(z[j].conj(), q[j])
        return out

    for c, p, q in germ.terms:
        f = f + product(c, p, q)
        for j in range(n):
            for e, slot in ((p, dz), (q, dzb)):
                if e[j]:
                    d = list(e)
                    d[j] -= 1
                    term = (product(c, d, q, e[j]) if e is p
                            else product(c, p, d, e[j]))
                    slot[j] = slot[j] + term
    s = [a + b for a, b in zip(dz, dzb)]
    d = [(a - b) * R(mpc(0, 1)) for a, b in zip(dz, dzb)]
    return (f, [w.real for w in s + d], [w.imag for w in s + d])


def dot(u, v):
    return total(a * b for a, b in zip(u, v))


def gram_margin(u, v, uu=None):
    """The second singular value of [u ; v], in the program's formula."""
    uu = dot(u, u) if uu is None else uu
    vv, uv = dot(v, v), dot(u, v)
    diff = uu - vv
    disc = (diff * diff + R(4) * (uv * uv)).sqrt()
    return (R(mpf("0.5")) * ((uu + vv) - disc)).sqrt()


def defect(germ, x, Q):
    f, ga, gb = mp_gradients(germ, x)
    a, b = f.real, f.imag
    rho2 = a * a + b * b
    g = [(a * q - b * p) / rho2 for p, q in zip(ga, gb)]
    nrm = x if Q is None else [dot(map(R, row), x) for row in Q]
    c = dot(g, nrm) / dot(nrm, nrm)
    perp = [p - c * m for p, m in zip(g, nrm)]
    return (dot(perp, perp) / dot(g, g)).sqrt()


def phase_margin(germ, x):
    f, ga, gb = mp_gradients(germ, x)
    a, b = f.real, f.imag
    r = dot(x, x).sqrt()
    rho = (a * a + b * b).sqrt()
    scale = r / (rho * rho)
    u = [xi / r for xi in x]
    v = [(a * q - b * p) * scale for p, q in zip(ga, gb)]
    return gram_margin(u, v, uu=R(1))


def rank_margin(germ, x):
    _, ga, gb = mp_gradients(germ, x)
    return gram_margin(ga, gb)


def radial_gap(x, radius, Q):
    """(|U| - 1, its bound) for U = L^T x / r, L the Cholesky factor of Q:
    how far x lies from its metric sphere, against the summed term size of
    the program's lift r L^-T (u / |u|) of a unit direction u (u = U), the
    entries of the double factor L^-T taken as one rounding off."""
    dim = len(x)
    L = mpmath.eye(dim) if Q is None else mpmath.cholesky(mpmath.matrix(Q))
    U = [sum(L[i, j] * x[i] for i in range(dim)) / radius
         for j in range(dim)]
    norm = dot([R(u) for u in U], [R(u) for u in U]).sqrt()
    unit = [R(u) / norm for u in U]
    if Q is not None:
        Lt = (L ** -1).T
        unit = [total(R(Lt[i, j], abs(Lt[i, j])) * unit[j]
                      for j in range(dim)) for i in range(dim)]
    lifted = [R(mpf(radius)) * u for u in unit]
    # to first order, coordinate errors d_i move |U|^2 by 2 (Qx).d / r^2
    Qx = x if Q is None else [sum(mpf(q) * xj for q, xj in zip(row, x))
                              for row in Q]
    gap = mpmath.sqrt(sum(u * u for u in U)) - 1
    bound = K * EPS * sum(abs(q) * w.s for q, w in zip(Qx, lifted)) \
        / mpf(radius) ** 2
    return gap, bound


def replay(report):
    """The replay's failures for one golden report, empty when it holds."""
    cfg, res = report["config"], report["result"]
    germ = parse_germ(cfg["germ"], cfg["n"])
    radius = cfg["radius"]
    x = [R(mpf(v)) for v in res["witness"]]
    if report["command"] == "dreg":
        low, threshold = res["min_defect"], res["pass_threshold"]
        value = defect(germ, x, cfg["metric"])
    else:
        low, threshold = res["min_value"], res["threshold"]
        value = (phase_margin if report["command"] == "strong-milnor"
                 else rank_margin)(germ, x)
    failures = []
    gap, bound = radial_gap([w.v for w in x], radius, cfg["metric"])
    if report["command"] == "crit-scan":
        if gap > bound:
            failures.append(f"witness outside its ball by {gap}")
    elif abs(gap) > bound:
        failures.append(f"witness off its sphere by {gap} > {bound}")
    f = mp_gradients(germ, x)[0].v
    floor = F_FLOOR * max(abs(c) * mpf(radius) ** (sum(p) + sum(q))
                          for c, p, q in germ.terms)
    if not abs(f) > floor:
        failures.append(f"|f| = {abs(f)} at or below the floor {floor}")
    slack = K * EPS * value.s
    lo, hi = mpf(low) - slack, mpf(low) * (1 + 8 * EPS) + slack
    if not lo <= value.v <= hi:
        failures.append(f"value {value.v} outside [{lo}, {hi}]")
    if res["verdict"] is not (low > threshold):
        failures.append(f"verdict {res['verdict']} from {low} > {threshold}")
    return failures


@pytest.mark.parametrize("job", JOBS)
def test_golden_witness_replays(job):
    report = json.loads((GOLDEN / f"{job}.json").read_text())
    assert replay(report) == []


@pytest.mark.parametrize("job", ["dreg_235", "crit_scan_235"])
def test_replay_rejects_a_moved_witness(job):
    text = (GOLDEN / f"{job}.json").read_text()
    for k in range(len(json.loads(text)["result"]["witness"])):
        report = json.loads(text)
        report["result"]["witness"][k] += 1e-10
        assert replay(report) != [], k


def test_replay_rejects_a_flipped_verdict():
    report = json.loads((GOLDEN / "strong_milnor_mixed.json").read_text())
    report["result"]["verdict"] = not report["result"]["verdict"]
    assert replay(report) != []
