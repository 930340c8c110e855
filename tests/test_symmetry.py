"""The flow fields and the member function, checked by the symmetries of
the canonical pencil (metamorphic testing: Chen, Cheung and Yiu,
"Metamorphic testing: a new approach for generating next test cases",
HKUST-CS98-01, 1998).

The pencil and its fields are built from f alone, so they move with f:

- unitary coordinates: for U in U(n) and g = f o U, every row of a field
  system at y = U^-1 w (the point, grad theta, grad log|f|) is U^-1 times
  the row of f at w, and so is the minimum-norm velocity: U v_g(y) =
  v_f(w). The member function of g at y is that of f at w, and its
  gradient maps the same way;
- phase: e^{i alpha} f has the phase of f shifted by alpha and the same
  |f|, so its fields are those of f, and its member at theta is the member
  of f at theta - alpha.

g is expanded term by term with the parser's polynomial helpers, so neither
side of a law shares a germ, a kernel or a term order with the other. The
germ scale is not U-invariant (max |c| r^deg over the expanded terms), so
both germs get the axis floor of f. A field agrees to 1e-13 relative per
unit of its worst Gram condition, the forward error of its solve: the
monodromy field of z1^2 + z2^2 - z2^3 is off by 6.1e-13 at condition 9.4e3.
"""

import cmath
import math

import numpy as np
import pytest

from pencillab._num import to_complex, to_real
from pencillab.flows import FlowKind, FlowSpec, _worst_cond, synthesize_field
from pencillab.germ import (_germ_from_dict, _poly_add, _poly_conj,
                            _poly_mul, _poly_pow, _poly_scale, parse_germ)
from pencillab.pencil import member_gradient

GERMS = {"a2a3": parse_germ("z1^2 + z2^3", 2),
         "a1-cubic": parse_germ("z1^2 + z2^2 - z2^3", 2),
         "mixed": parse_germ("z1^2*zbar2 + z2^2*zbar1", 2)}
UNITARIES = {"rotation": np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex),
             "complex": np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)}
RADIUS = 0.4
ALPHA, THETA = 0.7, 1.3
TOL = 1e-13


def _points(count=300, seed=17):
    """count complex points (count, 2) on the sphere of radius RADIUS."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return RADIUS * Z / np.linalg.norm(Z, axis=1, keepdims=True)


def _polynomial(f):
    return {(p, q): c for c, p, q in f.terms}


def _compose(f, U):
    """g = f o U: z_j becomes sum_k U[j, k] y_k and conj(z_j) its
    conjugate, expanded term by term."""
    n, zero = f.n, (0,) * f.n
    lin = [{(tuple(int(i == k) for i in range(n)), zero): complex(U[j, k])
            for k in range(n)} for j in range(n)]
    g = {}
    for (p, q), c in _polynomial(f).items():
        term = {(zero, zero): c}
        for j in range(n):
            term = _poly_mul(term, _poly_pow(lin[j], p[j], n))
            term = _poly_mul(term, _poly_pow(_poly_conj(lin[j]), q[j], n))
        g = _poly_add(g, term)
    return _germ_from_dict(n, g)


def _rotate(f, alpha):
    """e^{i alpha} f."""
    return _germ_from_dict(f.n, _poly_scale(_polynomial(f),
                                            cmath.exp(1j * alpha)))


def _field(germ, kind, z, floor):
    """The velocity of the kind at the complex point z, as a complex
    vector, its branch (fallback, corrected) and its worst Gram
    condition."""
    w, _, dg = synthesize_field(germ, FlowSpec(kind), to_real(z).tolist(),
                                floor)
    return (to_complex(np.array(w)), (dg.fallback, dg.corrected),
            _worst_cond(dg.grams))


@pytest.mark.parametrize("u", sorted(UNITARIES))
@pytest.mark.parametrize("name", sorted(GERMS))
def test_fields_are_unitary_equivariant(name, u):
    f, U = GERMS[name], UNITARIES[u]
    g, floor = _compose(f, U), f.axis_floor(RADIUS)
    assert g.terms != f.terms
    for kind in FlowKind:
        for w in _points():
            vf, branch_f, cond = _field(f, kind, w, floor)
            vg, branch_g, _ = _field(g, kind, U.conj().T @ w, floor)
            assert branch_g == branch_f
            assert np.linalg.norm(U @ vg - vf) \
                <= TOL * cond * np.linalg.norm(vf)


@pytest.mark.parametrize("name", sorted(GERMS))
def test_fields_do_not_see_the_phase_of_f(name):
    f = GERMS[name]
    g, floor = _rotate(f, ALPHA), f.axis_floor(RADIUS)
    for kind in FlowKind:
        for w in _points(seed=19):
            vf, branch_f, cond = _field(f, kind, w, floor)
            vg, branch_g, _ = _field(g, kind, w, floor)
            assert branch_g == branch_f
            assert np.linalg.norm(vg - vf) <= TOL * cond * np.linalg.norm(vf)


@pytest.mark.parametrize("name", sorted(GERMS))
def test_member_moves_with_f(name):
    # h_theta(e^{i alpha} f) = h_{theta - alpha}(f), and under g = f o U
    # h_theta(g)(U^-1 w) = h_theta(f)(w) with the gradient mapped by U
    f, W = GERMS[name], _points(seed=23)
    h, grad, fw = member_gradient(f, THETA, to_real(W))
    scale = np.abs(fw)
    gscale = np.linalg.norm(grad, axis=1, keepdims=True)
    hr, gradr, _ = member_gradient(_rotate(f, ALPHA), THETA + ALPHA,
                                   to_real(W))
    assert np.all(np.abs(hr - h) <= TOL * scale)
    assert np.all(np.abs(gradr - grad) <= TOL * gscale)
    for U in UNITARIES.values():
        hu, gradu, _ = member_gradient(_compose(f, U), THETA,
                                       to_real(W @ U.conj()))
        assert np.all(np.abs(hu - h) <= TOL * scale)
        mapped = to_real(to_complex(gradu) @ U.T)
        assert np.all(np.abs(mapped - grad) <= TOL * gscale)
