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

Kernel contract: every value and derivative comes from _derivatives(germ,
z, orders): f (0), the first Wirtinger derivatives (1), the second ones (2).
It runs one generated function per germ and orders: straight-line code from
_term_plan, each power z_j^k and conj(z_j)^k computed once. Each slot entry
sums, from zero in term order, products formed from the coefficient in a
factor order that does not depend on the other orders requested, so f from
evaluate and from value_and_gradient agree bit for bit. The same function
runs on Python complex numbers for a lone point z (n,) and elementwise on
arrays for a batch (..., n), so a row has the same bits in a batch of any
shape. Python products round without the fused multiply-add numpy may use,
so a lone point and a batch row can differ in the last bits.

Point layout: the complex kernels (evaluate, value_and_gradient and the
wirtinger_* ones) take complex points z (..., n). The real ones (real_*,
the rank margins) take the stacked real points x (..., 2n) the package
computes with, and make the kernel's complex copy. A lone point is a list
of floats in and Python numbers out: differential_sample takes only that
form, and real_gradients takes it too (f complex, gradients float lists).
column_gradients takes coordinate-major points (2n, ...), the layout of the
cover kernels, and fills the kernel's slots as contiguous (n, ...) arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Tuple

import numpy as np

from ._num import complex_columns, sum_columns, to_complex
from .errors import (AxisProximity, GermSyntaxError, KernelOverflow,
                     UsageError)

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
            raise UsageError("n", "n_vars must be a positive integer")
        seen = set()
        for c, p, q in self.terms:
            if len(p) != self.n or len(q) != self.n:
                raise UsageError("terms",
                                 "exponent rows must have length n_vars")
            if any(e < 0 or e > _MAX_EXPONENT for e in p + q):
                raise UsageError("terms", "exponents must be non-negative "
                                          "63-bit integers")
            if c == 0:
                raise UsageError("terms", "zero coefficients must be pruned")
            if all(e == 0 for e in p + q):
                raise UsageError("terms", "constant term nonzero: germ must "
                                          "vanish at 0")
            key = (p, q)
            if key in seen:
                raise UsageError("terms", "duplicate term key")
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

    def scale(self, radius: float):
        """max |c| * radius^deg over terms, the size of f on the sphere of a
        float radius: a numpy float, its power rounded as Python rounds it;
        inf past overflow."""
        r = np.float64(float(radius))
        with np.errstate(over="ignore"):
            return np.max([abs(c) * r ** (sum(p) + sum(q))
                           for c, p, q in self.terms], initial=0.0)

    def axis_floor(self, radius: float):
        return AXIS_FLOOR * self.scale(radius)

    def f_floor(self, radius: float):
        return F_FLOOR * self.scale(radius)

    @staticmethod
    def from_json_dict(d: dict) -> "MixedGerm":
        terms = {}
        for t in d["terms"]:
            key = (tuple(int(e) for e in t["p"]), tuple(int(e) for e in t["q"]))
            terms[key] = terms.get(key, 0j) + complex(t["re"], t["im"])
        return _germ_from_dict(int(d["n"]), terms)


def _term_sort_key(item):
    (p, q), _ = item
    return (sum(p) + sum(q), p, q)


def _germ_from_dict(n: int, terms: Dict[TermKey, complex]) -> MixedGerm:
    pruned = {k: c for k, c in terms.items() if c != 0}
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
        if not m.group("ws"):
            if m.group("num") is not None:
                kind = "imag" if m.group("imag") else "num"
                out.append((kind, m.group("num"), pos))
            elif m.group("unit"):
                out.append(("imag", "1", pos))
            else:  # var, conj or op, with its own text
                out.append((m.lastgroup, m.group(m.lastgroup), pos))
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
                poly = _poly_mul(poly, self.factor())
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


def _poly_mul(a, b):
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
        out = _poly_mul(out, a)
    return out


def _poly_conj(a):
    return {(q, p): c.conjugate() for (p, q), c in a.items()}


def parse_germ(text: str, n_vars: int) -> MixedGerm:
    """Parse an expression in z1..zN, conj(zk)/zbark, i, + - * ^ and parens.

    The parsed germ must vanish at the origin; a nonzero constant term is
    rejected. Terms are merged and zero coefficients pruned.
    """
    if n_vars < 1:
        raise UsageError("n_vars", "n_vars must be a positive integer")
    try:
        poly = _Parser(_tokenize(text), n_vars).parse()
    except RecursionError:
        # reported at the start: where the parser gave up depends on the
        # depth of the caller's stack
        raise GermSyntaxError("expression nested too deeply", 0) from None
    return _germ_from_dict(n_vars, poly)


def _fmt_coef(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return f"{c.imag!r}*i"
    op = "+" if c.imag > 0 or np.isnan(c.imag) else "-"
    return f"({c.real!r}{op}{abs(c.imag)!r}*i)"


def format_germ(germ: MixedGerm) -> str:
    """Deterministic textual form; parse_germ(format_germ(g)) == g."""
    if not germ.terms:
        return "0"
    parts = []
    for c, p, q in germ.terms:
        factors = [var.format(j + 1) + (f"^{e}" if e > 1 else "")
                   for row, var in ((p, "z{}"), (q, "conj(z{})"))
                   for j, e in enumerate(row) if e]
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


@lru_cache(maxsize=256)
def _kernel(n: int, terms, orders):
    """kernel(z, terms, slots=None) adds each term's products at z[j] into
    the slot entries slots[s][i], row-major, and returns the slots: arrays
    with the entry axis first, or by default lists of complex from 0j. The
    source holds names and number literals only; the coefficients are
    unpacked from terms at each call, so equal germs share the function and
    each uses its own coefficient bits, -0.0 and NaN included."""
    powers, lines = {}, []

    def product(head, plan):
        names = [head]
        for bar, j, k in plan:
            name = "zw"[bar] + str(j)
            if bar and k:
                powers.setdefault(name, f"z{j}.conjugate()")
            if k > 1:
                powers[f"{name}_{k}"] = f"{name} ** {k}"
            names.append(f"{name}_{k}" if k > 1 else name if k else "1.0")
        return " * ".join(names)

    for i, (_, P, Q) in enumerate(terms):
        value, first, second = _term_plan(P, Q)
        if 0 in orders:
            lines.append(f"s0[0] += {product(f'c{i}', value)}")
        for bar, j, fac, plan in first if 1 in orders else ():
            lines.append(f"s{1 + bar}[{j}] += {product(f'c{i} * {fac}', plan)}")
        for block, j, k, fac, plan in second if 2 in orders else ():
            lines.append(f"h = {product(f'c{i}', plan)} * {fac}")
            lines += [f"s{3 + block}[{a * n + b}] += h"
                      for a, b in {(j, k), (k, j) if block != 1 else (j, k)}]
    slots = [s for order in orders for s in ((0,), (1, 2), (3, 4, 5))[order]]
    names = "".join(f"s{s}, " for s in slots)
    source = "\n    ".join(
        ["def kernel(z, terms, slots=None):",
         "(%s) = terms" % "".join(f"(c{i}, _, _), " for i in range(len(terms))),
         "(%s) = z" % "".join(f"z{j}, " for j in range(n)),
         f"({names}) = slots or (%s)" % "".join(
             f"[0j] * {n ** (0, 1, 1, 2, 2, 2)[s]}, " for s in slots)]
        + [f"{name} = {expr}" for name, expr in powers.items()] + lines
        + [f"return ({names})"])
    exec(compile(source, "<germ kernel>", "exec"), namespace := {})
    namespace["kernel"].source = source
    return namespace["kernel"]


def _derivatives(germ: MixedGerm, z, orders):
    """The germ kernel: f and its exact Wirtinger derivatives at z.

    orders is a subset of (0, 1, 2), in increasing order; the requested
    slots come back in that order: f for 0, (d_z, d_zbar) for 1 and
    (A, B, C) for 2. A list z is a lone point in Python complex numbers,
    and its slots come back as lists of Python numbers, row-major; where a
    power overflows there, KernelOverflow (a batch row gets inf or NaN).
    """
    kernel = _kernel(germ.n, germ.terms, orders)
    try:
        if isinstance(z, list):
            return kernel(z, germ.terms)
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if z.shape[-1] != germ.n:
            raise UsageError("z",
                             f"point must have {germ.n} complex coordinates")
        base, ks = z.shape[:-1], [k for k in orders for _ in range(k + 1)]
        if base:
            # point and entry axes first: z[j] and slots[s][i] span all rows
            axes = (len(base), *range(len(base)))
            slots = [np.zeros(base + (germ.n ** k,), dtype=complex)
                     for k in ks]
            kernel(z.transpose(axes), germ.terms,
                   [s.transpose(axes) for s in slots])
        else:
            slots = kernel(z.tolist(), germ.terms)
    except OverflowError as exc:  # Python's complex power, at a lone point
        raise KernelOverflow(f"lone-point germ kernel: {exc}") from None
    return tuple(np.asarray(s).reshape(base + (germ.n,) * k)
                 for s, k in zip(slots, ks))


def evaluate(germ: MixedGerm, z) -> np.ndarray:
    """Evaluate sum c * z^p * conj(z)^q at one point or a batch."""
    return _derivatives(germ, np.asarray(z), (0,))[0]


def value_and_gradient(germ: MixedGerm, z):
    """Return (f, d_z, d_zbar), each exact and batched.

    d_z[j] = df/dz_j, d_zbar[j] = df/dzbar_j; no finite differences.
    """
    return _derivatives(germ, np.asarray(z), (0, 1))


def wirtinger_gradient(germ: MixedGerm, z):
    """Exact first Wirtinger derivatives (d_z, d_zbar) at z."""
    return _derivatives(germ, np.asarray(z), (1,))


def wirtinger_hessian(germ: MixedGerm, z, gradient: bool = False):
    """Exact second Wirtinger derivatives (A, B, C).

    A[j,k] = d2f/dz_j dz_k, B[j,k] = d2f/dz_j dzbar_k,
    C[j,k] = d2f/dzbar_j dzbar_k; batched over leading axes of z. With
    gradient, f, d_z and d_zbar of the same kernel pass come first.
    """
    return _derivatives(germ, np.asarray(z), (0, 1, 2) if gradient else (2,))


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
    H = np.block([[uu, uv], [np.swapaxes(uv, -1, -2), vv]])
    return H.real, H.imag


def stacked_gradients(dz, dzb):
    """Real gradients (grad_a, grad_b) of a = Re f and b = Im f in the
    stacked layout, from the first Wirtinger derivatives."""
    gf = np.concatenate([dz + dzb, 1j * (dz - dzb)], axis=-1)
    return gf.real, gf.imag


def real_gradients(germ: MixedGerm, x):
    """(f, grad_a, grad_b) at stacked real points x (..., 2n), the gradients
    in the same layout. A list x is one point in Python floats, and stays in
    them: f complex, the gradients lists of floats."""
    if isinstance(x, list):
        return _float_gradients(germ, x)
    f, dz, dzb = _derivatives(germ, to_complex(x), (0, 1))
    return (f,) + stacked_gradients(dz, dzb)


def column_gradients(germ: MixedGerm, X: np.ndarray):
    """real_gradients at coordinate-major points X (2n, ...): the kernel
    fills (n, ...) slots and stacked_gradients' operations run along the
    first axis, so grad_a and grad_b are (2n, ...) with the bits of rows."""
    n = germ.n
    slots = [np.zeros((k,) + X.shape[1:], dtype=complex) for k in (1, n, n)]
    (f,), dz, dzb = _kernel(n, germ.terms, (0, 1))(complex_columns(X),
                                                    germ.terms, slots)
    s, d = dz + dzb, 1j * (dz - dzb)
    return f, np.concatenate([s.real, d.real]), np.concatenate([s.imag,
                                                                d.imag])


def _float_gradients(germ: MixedGerm, x: list):
    """real_gradients at one stacked real point x, a list of floats, on
    Python numbers: the operations of stacked_gradients on the kernel's
    lone-point slots, so f and the gradients have the bits of the array
    call at x."""
    n = germ.n
    (f,), dz, dzb = _derivatives(germ, list(map(complex, x[:n], x[n:])),
                                 (0, 1))
    g = [p + q for p, q in zip(dz, dzb)] + [1j * (p - q)
                                            for p, q in zip(dz, dzb)]
    return f, [w.real for w in g], [w.imag for w in g]


def differential_sample(germ: MixedGerm, x: list, axis_floor: float):
    """(f, grad_log_rho, grad_theta) at one stacked real point x (2n,).

    grad_log_rho is the real gradient of log|f| and grad_theta the real
    gradient of the (local) phase angle of f, both in the stacked [Re ; Im]
    layout; AxisProximity if |f| is at or below axis_floor, where neither is
    defined. x is a list of floats, and the float pass of real_gradients
    keeps it on Python numbers: f complex, the gradients float lists.
    """
    f, ga, gb = _float_gradients(germ, x)
    a, b = f.real, f.imag
    rho2 = a * a + b * b
    rho = math.sqrt(rho2)
    if rho <= axis_floor:
        raise AxisProximity(f"|f| = {rho:.3e} at or below the axis floor")
    lr = [(a * p + b * q) / rho2 for p, q in zip(ga, gb)]
    th = [(a * q - b * p) / rho2 for p, q in zip(ga, gb)]
    return f, lr, th


def jacobian_rank_margin(germ: MixedGerm, x) -> float:
    """Second singular value of the real 2 x 2n Jacobian of (Re f, Im f) at
    one stacked real point x (2n,): positive at a submersion point of the
    pair map, 0 at a critical point."""
    return float(jacobian_rank_margin_batch(germ, np.atleast_1d(x)))


def jacobian_rank_margin_batch(germ: MixedGerm, X) -> np.ndarray:
    """Vectorized second singular value of the (Re f, Im f) Jacobian at
    stacked real points X (..., 2n)."""
    _, ga, gb = real_gradients(germ, X)
    return gram_margin(np.moveaxis(ga, -1, 0), np.moveaxis(gb, -1, 0))


def gram_margin(u, v, uu=None) -> np.ndarray:
    """Second singular value of the two-row matrices [u ; v], u and v
    coordinate-major (2n, ...): the square root of the smaller eigenvalue of
    the 2 x 2 Gram matrix. uu, when given, stands in for |u|^2."""
    uu = sum_columns(u * u) if uu is None else uu
    vv, uv = sum_columns(v * v), sum_columns(u * v)
    disc = np.sqrt(np.maximum((uu - vv) ** 2 + 4.0 * uv ** 2, 0.0))
    return np.sqrt(np.maximum(0.5 * (uu + vv - disc), 0.0))
