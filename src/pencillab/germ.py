"""Sparse polynomial map-germs in variables z1..zN and their conjugates.

A germ is a finite sum of terms c * z^p * zbar^q with complex coefficient c
and non-negative integer exponent rows p, q. Holomorphic germs are the ones
with q = 0 throughout. Differentiation is exact and term-by-term; the only
floating-point content is coefficient arithmetic.

Gradient convention: grad f := conj(d_z f), so that for holomorphic f and a
path p(t) the chain rule reads df/dt = <dp/dt, grad f> under the Hermitian
product <u, v> = sum u_j * conj(v_j). The stacked-real picture (_num.to_real)
turns Re<.,.> into the plain dot product, so grad f realizes as the real
gradient of Re f and i*grad f as the real gradient of Im f.

Kernel contract: every value and derivative comes from one private kernel,
_derivatives(germ, z, orders). It loops over the terms once and returns the
requested orders: f (0), the first Wirtinger derivatives (1), the second
ones (2). Each power z_j^k and conj(z_j)^k is computed at most once per call
and shared between terms and slots. A term adds only into the slots where
its derivative is nonzero. Each slot is a product formed out of place from
its coefficient, in a fixed factor order that does not depend on which other
orders were requested, so f from evaluate and f from value_and_gradient
agree bit for bit. The same loop runs on Python complex scalars for a lone
point z (n,) and on arrays for a batch (..., n). Arrays are multiplied
elementwise, so a row has the same bits in a batch of any shape, one row
included. Scalar products round without the fused multiply-add numpy may use,
so a lone point and the same point in a batch can differ in the last bits.
evaluate, value_and_gradient, wirtinger_gradient, wirtinger_hessian,
real_gradients, real_hessians and the rank margins are thin wrappers
around it.

Point layout: the complex kernels (evaluate, value_and_gradient and the
wirtinger_* ones) take complex points z (..., n). The real ones (real_*,
differential_sample, the rank margins) take the stacked real points x
(..., 2n) the package computes with, and make the kernel's complex copy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Tuple

import numpy as np

from ._num import norm_rows, to_complex
from .errors import AxisProximity, GermSyntaxError

Exponents = Tuple[int, ...]
TermKey = Tuple[Exponents, Exponents]

_MAX_EXPONENT = 2 ** 63 - 1

# |f| <= AXIS_FLOOR * scale(|z|) is on the axis V = f^-1(0), the scans skip
# |f| <= F_FLOOR * scale; |grad theta| |x| < GRAD_FLOOR is degenerate
AXIS_FLOOR = 1e-12
F_FLOOR = 1e-6
GRAD_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedGerm:
    """Canonical sparse polynomial germ, immutable after construction."""

    n: int
    terms: Tuple[Tuple[complex, Exponents, Exponents], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n_vars must be a positive integer")
        seen = set()
        for c, p, q in self.terms:
            if len(p) != self.n or len(q) != self.n:
                raise ValueError("exponent rows must have length n_vars")
            if any(e < 0 or e > _MAX_EXPONENT for e in p + q):
                raise ValueError("exponents must be non-negative 63-bit integers")
            if c == 0:
                raise ValueError("zero coefficients must be pruned")
            if all(e == 0 for e in p + q):
                raise ValueError("constant term nonzero: germ must vanish at 0")
            key = (p, q)
            if key in seen:
                raise ValueError("duplicate term key")
            seen.add(key)

    @property
    def is_holomorphic(self) -> bool:
        return all(all(e == 0 for e in q) for _, _, q in self.terms)

    @property
    def degree(self) -> int:
        """Maximum total degree over terms (0 for the zero germ)."""
        return max((sum(p) + sum(q) for _, p, q in self.terms), default=0)

    @cached_property
    def degree_span(self) -> Tuple[int, int]:
        """(minimum, maximum) total degree over terms."""
        degs = [sum(p) + sum(q) for _, p, q in self.terms]
        return min(degs), max(degs)

    def scale(self, radius: float) -> float:
        """max |c| * radius^deg over terms: the size of f on the sphere."""
        r = float(radius)
        return max((abs(c) * r ** (sum(p) + sum(q)) for c, p, q in self.terms),
                   default=0.0)

    def axis_floor(self, radius: float) -> float:
        return AXIS_FLOOR * self.scale(radius)

    def f_floor(self, radius: float) -> float:
        return F_FLOOR * self.scale(radius)

    def on_axis(self, x, f) -> np.ndarray:
        """True where |f| <= axis_floor(|x|), row by row over the stacked
        real points x (..., 2n) and their values f (...)."""
        r = norm_rows(x)
        scale = np.max([abs(c) * r ** (sum(p) + sum(q))
                        for c, p, q in self.terms], axis=0, initial=0.0)
        return np.abs(f) <= AXIS_FLOOR * scale

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"re": c.real, "im": c.imag, "p": list(p), "q": list(q)}
                      for c, p, q in self.terms],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "MixedGerm":
        terms = {}
        for t in d["terms"]:
            key = (tuple(int(e) for e in t["p"]), tuple(int(e) for e in t["q"]))
            terms[key] = terms.get(key, 0j) + complex(t["re"], t["im"])
        return _germ_from_dict(int(d["n"]), terms)

    def __str__(self) -> str:
        return format_germ(self)


def _term_sort_key(item):
    (p, q), _ = item
    return (sum(p) + sum(q), p, q)


def _germ_from_dict(n: int, terms: Dict[TermKey, complex]) -> MixedGerm:
    pruned = {k: c for k, c in terms.items() if c != 0}
    const_key = ((0,) * n, (0,) * n)
    if const_key in pruned:
        raise ValueError("constant term nonzero: germ must vanish at 0")
    ordered = tuple((c, p, q) for (p, q), c in sorted(pruned.items(),
                                                      key=_term_sort_key))
    return MixedGerm(n=n, terms=ordered)


# ---------------------------------------------------------------------------
# parser
#
# grammar:  expr   := ['+'|'-'] term (('+'|'-') term)*
#           term   := factor ('*' factor)*
#           factor := atom ('^' INTEGER)*
#           atom   := NUMBER | NUMBER 'i' | 'i' | 'z'k | 'zbar'k
#                   | 'conj' '(' expr ')' | '(' expr ')'
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)(?P<imag>i\b)?"
    r"|(?P<var>z(?:bar)?\d+)"
    r"|(?P<conj>conj\b)"
    r"|(?P<unit>i\b)"
    r"|(?P<op>[-+*^()])"
)


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise GermSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is None or not m.group("ws"):
            if m.group("num") is not None:
                kind = "imag" if m.group("imag") else "num"
                out.append((kind, m.group("num"), pos))
            elif m.group("var"):
                out.append(("var", m.group("var"), pos))
            elif m.group("conj"):
                out.append(("conj", "conj", pos))
            elif m.group("unit"):
                out.append(("imag", "1", pos))
            else:
                out.append(("op", m.group("op"), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive-descent parser producing an exponent-dict polynomial."""

    def __init__(self, tokens, n: int):
        self.toks = tokens
        self.i = 0
        self.n = n

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise GermSyntaxError(f"expected {op!r}", pos)
        self.take()

    def parse(self) -> Dict[TermKey, complex]:
        poly = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise GermSyntaxError("trailing input", pos)
        return poly

    def expr(self) -> Dict[TermKey, complex]:
        kind, val, _ = self.peek()
        sign = 1.0
        if kind == "op" and val in "+-":
            self.take()
            sign = -1.0 if val == "-" else 1.0
        poly = _poly_scale(self.term(), sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                poly = _poly_add(poly, _poly_scale(rhs, -1.0 if val == "-" else 1.0))
            else:
                return poly

    def term(self) -> Dict[TermKey, complex]:
        poly = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                poly = _poly_mul(poly, self.factor(), self.n)
            else:
                return poly

    def factor(self) -> Dict[TermKey, complex]:
        poly = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.take()
                ekind, eval_, epos = self.peek()
                neg = False
                if ekind == "op" and eval_ in "+-":
                    self.take()
                    neg = eval_ == "-"
                    ekind, eval_, epos = self.peek()
                if ekind != "num":
                    raise GermSyntaxError("exponent must be an integer literal", epos)
                if any(ch in eval_ for ch in ".eE"):
                    raise GermSyntaxError("non-integer exponent", epos)
                self.take()
                k = int(eval_)
                if neg:
                    raise GermSyntaxError("negative exponent", epos)
                if k > 1000:
                    raise GermSyntaxError("exponent too large", epos)
                poly = _poly_pow(poly, k, self.n)
            else:
                return poly

    def atom(self) -> Dict[TermKey, complex]:
        kind, val, pos = self.take()
        zero = (0,) * self.n
        if kind == "num":
            return {(zero, zero): complex(float(val), 0.0)}
        if kind == "imag":
            return {(zero, zero): complex(0.0, float(val))}
        if kind == "var":
            conj = val.startswith("zbar")
            idx = int(val[4:] if conj else val[1:])
            if idx < 1 or idx > self.n:
                raise GermSyntaxError(f"variable index out of range: {val}", pos)
            p = [0] * self.n
            q = [0] * self.n
            (q if conj else p)[idx - 1] = 1
            return {(tuple(p), tuple(q)): 1.0 + 0j}
        if kind == "conj":
            self.expect_op("(")
            inner = self.expr()
            self.expect_op(")")
            return _poly_conj(inner)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val in "+-":
            return _poly_scale(self.atom(), -1.0 if val == "-" else 1.0)
        raise GermSyntaxError("expected a number, variable, or parenthesis", pos)


def _poly_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0j) + c
    return out


def _poly_scale(a, s):
    return {k: c * s for k, c in a.items()}


def _poly_mul(a, b, n):
    out: Dict[TermKey, complex] = {}
    for (pa, qa), ca in a.items():
        for (pb, qb), cb in b.items():
            key = (tuple(x + y for x, y in zip(pa, pb)),
                   tuple(x + y for x, y in zip(qa, qb)))
            out[key] = out.get(key, 0j) + ca * cb
    return out


def _poly_pow(a, k, n):
    zero = (0,) * n
    out = {(zero, zero): 1.0 + 0j}
    for _ in range(k):
        out = _poly_mul(out, a, n)
    return out


def _poly_conj(a):
    return {(q, p): c.conjugate() for (p, q), c in a.items()}


def parse_germ(text: str, n_vars: int) -> MixedGerm:
    """Parse an expression in z1..zN, conj(zk)/zbark, i, + - * ^ and parens.

    The parsed germ must vanish at the origin; a nonzero constant term is
    rejected. Terms are merged and zero coefficients pruned.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be a positive integer")
    try:
        poly = _Parser(_tokenize(text), n_vars).parse()
    except RecursionError:
        # reported at the start: where the parser gave up depends on the
        # depth of the caller's stack
        raise GermSyntaxError("expression nested too deeply", 0) from None
    return _germ_from_dict(n_vars, poly)


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_coef(c: complex) -> str:
    if c.imag == 0.0:
        return _fmt_float(c.real)
    if c.real == 0.0:
        return f"{_fmt_float(c.imag)}*i"
    op = "+" if c.imag > 0 or np.isnan(c.imag) else "-"
    return f"({_fmt_float(c.real)}{op}{_fmt_float(abs(c.imag))}*i)"


def format_germ(germ: MixedGerm) -> str:
    """Deterministic textual form; parse_germ(format_germ(g)) == g."""
    if not germ.terms:
        return "0"
    parts = []
    for c, p, q in germ.terms:
        factors = []
        for j, e in enumerate(p):
            if e == 1:
                factors.append(f"z{j + 1}")
            elif e > 1:
                factors.append(f"z{j + 1}^{e}")
        for j, e in enumerate(q):
            if e == 1:
                factors.append(f"conj(z{j + 1})")
            elif e > 1:
                factors.append(f"conj(z{j + 1})^{e}")
        if c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append("*".join([_fmt_coef(c)] + factors))
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


# ---------------------------------------------------------------------------
# evaluation and exact differentiation (batched; z has shape (..., n))
# ---------------------------------------------------------------------------

def _as_points(z, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        z = z.reshape(1)
    if z.shape[-1] != n:
        raise ValueError(f"point must have {n} complex coordinates")
    return z


@lru_cache(maxsize=4096)
def _term_plan(P: Exponents, Q: Exponents):
    """Slots of the term z^P * conj(z)^Q and the powers each one multiplies.

    A power is (bar, j, k): z_j^k for bar 0, conj(z_j)^k for bar 1. Returns
    the powers of the value, the first-derivative slots (bar, j, factor,
    powers) and the second-derivative slots (block, j, k, factor, powers),
    block 0/1/2 for A/B/C; of the symmetric A and C only k >= j is listed.
    """
    n, E = len(P), (P, Q)

    def powers(drop, lead=None):
        # powers in variable order; a first derivative puts its variable
        # first, led by the differentiated power even when that is z^0.
        # This order keeps the recorded golden reports bit for bit.
        e = [list(P), list(Q)]
        for bar, j in drop:
            e[bar][j] -= 1
        keys = [(bar, j) for j in range(n) for bar in (0, 1)]
        if lead is not None:
            keys = [lead, (1 - lead[0], lead[1])] + [
                key for key in keys if key[1] != lead[1]]
        return tuple((bar, j, e[bar][j]) for bar, j in keys
                     if e[bar][j] or (bar, j) == lead)

    first = tuple((bar, j, E[bar][j], powers([(bar, j)], (bar, j)))
                  for j in range(n) for bar in (0, 1) if E[bar][j])
    second = []
    for j in range(n):
        for k in range(n):
            for block, (b, c) in enumerate(((0, 0), (0, 1), (1, 1))):
                fac = E[b][j] * (E[c][k] - (b == c and j == k))
                if fac and (block == 1 or k >= j):
                    second.append((block, j, k, fac, powers([(b, j), (c, k)])))
    return powers(()), first, tuple(second)


def _derivatives(germ: MixedGerm, z, orders):
    """The germ kernel: f and its exact Wirtinger derivatives at z.

    orders is a subset of (0, 1, 2), in increasing order; the requested
    slots come back in that order: f for 0, (d_z, d_zbar) for 1 and
    (A, B, C) for 2.
    """
    z = _as_points(z, germ.n)
    n, base = germ.n, z.shape[:-1]
    # A lone point (no batch axis) runs on Python complex scalars, which
    # cost a fraction of numpy's 0-d arrays; a batch runs on arrays, the
    # point axis first, so that z[j] is a coordinate either way.
    z = z.transpose(-1, *range(z.ndim - 1)) if base else z.tolist()
    at = (Ellipsis,) if base else ()
    conj = []
    table = {}

    def product(coef, powers):
        out = coef
        for w in powers:
            if w not in table:
                bar, j, k = w
                if bar and not conj:
                    conj.extend(v.conjugate() for v in z)
                zj = (conj if bar else z)[j]
                # z^1 = z and z^0 = 1 exactly; numpy's complex power is slow
                table[w] = zj ** k if k > 1 else (zj if k else 1.0)
            out = out * table[w]
        return out

    slots = {order: [np.zeros(base + (n,) * order, dtype=complex)
                     for _ in range((1, 2, 3)[order])] for order in orders}
    for c, P, Q in germ.terms:
        value, first, second = _term_plan(P, Q)
        if 0 in slots:
            slots[0][0][at] += product(c, value)
        for bar, j, fac, powers in first if 1 in slots else ():
            slots[1][bar][at + (j,)] += product(c * fac, powers)
        for block, j, k, fac, powers in second if 2 in slots else ():
            term = product(c, powers) * fac
            slots[2][block][at + (j, k)] += term
            if block != 1 and k != j:
                slots[2][block][at + (k, j)] += term
    return tuple(s for order in orders for s in slots[order])


def evaluate(germ: MixedGerm, z) -> np.ndarray:
    """Evaluate sum c * z^p * conj(z)^q at one point or a batch."""
    return _derivatives(germ, z, (0,))[0]


def value_and_gradient(germ: MixedGerm, z):
    """Return (f, d_z, d_zbar), each exact and batched.

    d_z[j] = df/dz_j, d_zbar[j] = df/dzbar_j; no finite differences.
    """
    return _derivatives(germ, z, (0, 1))


def wirtinger_gradient(germ: MixedGerm, z):
    """Exact first Wirtinger derivatives (d_z, d_zbar) at z."""
    return _derivatives(germ, z, (1,))


def wirtinger_hessian(germ: MixedGerm, z, gradient: bool = False):
    """Exact second Wirtinger derivatives (A, B, C).

    A[j,k] = d2f/dz_j dz_k, B[j,k] = d2f/dz_j dzbar_k,
    C[j,k] = d2f/dzbar_j dzbar_k; batched over leading axes of z. With
    gradient, f, d_z and d_zbar of the same kernel pass come first.
    """
    return _derivatives(germ, z, (0, 1, 2) if gradient else (2,))


def real_hessians(germ: MixedGerm, x):
    """Real 2n x 2n Hessians (H_a, H_b) of a = Re f and b = Im f at stacked
    real points x (..., 2n).

    In the stacked [Re ; Im] layout the complex-valued real Hessian is
    H = [[uu, i*w], [(i*w)^T, vv]] with complex n x n blocks formed from
    the second Wirtinger derivatives, so H_a = Re H and H_b = Im H exactly.
    """
    A, B, C = wirtinger_hessian(germ, to_complex(x))
    Bt = np.swapaxes(B, -1, -2)
    uu, vv = A + B + Bt + C, -A + B + Bt - C
    uv = 1j * (A + Bt - B - C)
    vu = np.swapaxes(uv, -1, -2)
    top = np.concatenate([uu, uv], axis=-1)
    bot = np.concatenate([vu, vv], axis=-1)
    H = np.concatenate([top, bot], axis=-2)
    return H.real, H.imag


def stacked_gradients(dz, dzb):
    """Real gradients (grad_a, grad_b) of a = Re f and b = Im f in the
    stacked layout, from the first Wirtinger derivatives."""
    gf = np.concatenate([dz + dzb, 1j * (dz - dzb)], axis=-1)
    return gf.real, gf.imag


def real_gradients(germ: MixedGerm, x):
    """(f, grad_a, grad_b) at stacked real points x (..., 2n), the gradients
    in the same layout."""
    f, dz, dzb = _derivatives(germ, to_complex(x), (0, 1))
    return (f,) + stacked_gradients(dz, dzb)


def differential_sample(germ: MixedGerm, x, axis_floor: float):
    """(f, grad_log_rho, grad_theta) at one stacked real point x (2n,).

    grad_log_rho is the real gradient of log|f| and grad_theta the real
    gradient of the (local) phase angle of f, both in the stacked [Re ; Im]
    layout; AxisProximity if |f| is at or below axis_floor, where neither is
    defined.
    """
    f, ga, gb = real_gradients(germ, x)
    a, b = float(f.real), float(f.imag)
    rho2 = a * a + b * b
    rho = math.sqrt(rho2)
    if rho <= axis_floor:
        raise AxisProximity(f"|f| = {rho:.3e} at or below the axis floor")
    pairs = list(zip(ga.tolist(), gb.tolist()))
    return (f, np.array([(a * u + b * v) / rho2 for u, v in pairs]),
            np.array([(a * v - b * u) / rho2 for u, v in pairs]))


def jacobian_rank_margin(germ: MixedGerm, x) -> float:
    """Second singular value of the real 2 x 2n Jacobian of (Re f, Im f) at
    one stacked real point x (2n,): positive at a submersion point of the
    pair map, 0 at a critical point."""
    return float(jacobian_rank_margin_batch(germ, np.atleast_1d(x)))


def jacobian_rank_margin_batch(germ: MixedGerm, X) -> np.ndarray:
    """Vectorized second singular value of the (Re f, Im f) Jacobian at
    stacked real points X (..., 2n)."""
    _, ga, gb = real_gradients(germ, X)
    return gram_margin(ga, gb)


def gram_margin(u, v, uu=None) -> np.ndarray:
    """Second singular value of the two-row matrices [u ; v], batched over
    leading axes: the square root of the smaller eigenvalue of the 2 x 2
    Gram matrix. uu, when given, stands in for |u|^2 (1 for unit rows)."""
    uu = np.sum(u * u, axis=-1) if uu is None else uu
    vv, uv = np.sum(v * v, axis=-1), np.sum(u * v, axis=-1)
    disc = np.sqrt(np.maximum((uu - vv) ** 2 + 4.0 * uv ** 2, 0.0))
    return np.sqrt(np.maximum(0.5 * (uu + vv - disc), 0.0))
