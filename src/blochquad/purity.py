"""Sphere-preservation certificates, the certified sphere deviation, and a sampled reference.

A quadratic Bloch map sends every pure state to a pure state exactly when
its coefficient vectors satisfy a finite list of norm and orthogonality
equations.  check_sphere_conditions evaluates the full list for maps with
linear terms, check_haar_conditions the reduced list for maps without
them.  The equation list is checked verbatim, one residual per displayed
equation; no attempt is made to minimize the system.  sphere_deviation
brackets max over unit f of | |V(f)|^2 - 1 | from the map's coefficients
alone.  monte_carlo_sphere samples the sphere instead; no command calls
it, and the tests use it as an independent cross-check of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import sampling
from .errors import NotHaarFormError
from .pauli import checked_tol, vector_norm
from .positivity import ICOSAHEDRON
from .qmap import QuadraticMapCoeffs, evaluate, is_haar_form

TOL_CERT = 1e-9
# Sphere-deviation thresholds: rounding noise vs genuine sphere violation
# are separated by six orders of magnitude.
MC_PASS_DEVIATION = 1e-9
MC_VIOLATION_DEVIATION = 1e-3


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a residual-based certificate."""

    verdict: bool
    residuals: tuple  # ordered (condition-id, magnitude) pairs
    worst_condition: str

    @property
    def max_residual(self) -> float:
        return max(r for _, r in self.residuals)

    def residual(self, condition: str) -> float:
        for name, r in self.residuals:
            if name == condition:
                return r
        raise KeyError(condition)


def _report(pairs, tol: float) -> CertificateReport:
    tol = checked_tol(tol)
    worst = max(pairs, key=lambda item: item[1])[0]
    verdict = all(r <= tol for _, r in pairs)
    return CertificateReport(verdict=verdict, residuals=tuple(pairs), worst_condition=worst)


# Row (and column) of each coefficient vector in QuadraticMapCoeffs.gram.
_a, _b, _c, _A, _B, _G, _d, _e, _g = range(9)


def _cross_norm_pairs(v: QuadraticMapCoeffs, p: list) -> list:
    """Group (ii), |A| = |a-b|, |Gamma| = |a-c|, |B| = |b-c|, from the Gram entries p.

    The three differences are the only products the Gram matrix does not hold.
    """
    ab, ac, bc = v.a - v.b, v.a - v.c, v.b - v.c
    return [
        ("ii.1", abs(math.sqrt(p[_A][_A]) - vector_norm(ab))),
        ("ii.2", abs(math.sqrt(p[_G][_G]) - vector_norm(ac))),
        ("ii.3", abs(math.sqrt(p[_B][_B]) - vector_norm(bc))),
    ]


def check_sphere_conditions(v: QuadraticMapCoeffs, tol: float = TOL_CERT) -> CertificateReport:
    """Full sphere-preservation certificate for a general quadratic map.

    Condition groups:
      (i)   |a|^2+|d|^2 = |b|^2+|e|^2 = |c|^2+|g|^2 = 1
      (ii)  |A| = |a-b|, |Gamma| = |a-c|, |B| = |b-c|
      (iii) <a,d> = <b,e> = <c,g> = 0
      (iv)  <a,Gamma> = <c,Gamma>, <b,B> = <c,B>, <a,A> = <b,A>
      (v)   nine mixed linear/quadratic orthogonality sums
      (vi)  four three-term sums

    Every inner product <x,y> is the Gram entry v.gram[x, y], read as a
    Python float, and every norm |x| its square root.
    """
    p = v.gram.tolist()
    a, b, c, A, B, G, d, e, g = p
    n = math.sqrt
    pairs = [
        ("i.1", abs(n(a[_a]) ** 2 + n(d[_d]) ** 2 - 1.0)),
        ("i.2", abs(n(b[_b]) ** 2 + n(e[_e]) ** 2 - 1.0)),
        ("i.3", abs(n(c[_c]) ** 2 + n(g[_g]) ** 2 - 1.0)),
        *_cross_norm_pairs(v, p),
        ("iii.1", abs(a[_d])),
        ("iii.2", abs(b[_e])),
        ("iii.3", abs(c[_g])),
        ("iv.1", abs(a[_G] - c[_G])),
        ("iv.2", abs(b[_B] - c[_B])),
        ("iv.3", abs(a[_A] - b[_A])),
        ("v.1", abs(c[_G] + d[_g])),
        ("v.2", abs(c[_B] + e[_g])),
        ("v.3", abs(c[_d] + G[_g])),
        ("v.4", abs(c[_e] + B[_g])),
        ("v.5", abs(b[_d] + A[_e])),
        ("v.6", abs(b[_A] + d[_e])),
        ("v.7", abs(b[_g] + B[_e])),
        ("v.8", abs(a[_e] + A[_d])),
        ("v.9", abs(a[_g] + G[_d])),
        ("vi.1", abs(a[_B] - c[_B] + A[_G])),
        ("vi.2", abs(b[_G] - c[_G] + A[_B])),
        ("vi.3", abs(A[_g] + B[_d] + G[_e])),
        ("vi.4", abs(c[_A] + d[_e] + B[_G])),
    ]
    return _report(pairs, tol)


def check_haar_conditions(v: QuadraticMapCoeffs, tol: float = TOL_CERT) -> CertificateReport:
    """Reduced certificate for maps without linear terms.

    Groups: (i) unit norms of a, b, c; (ii) cross-term norms as above;
    (iii) three two-term sums; (iv) six plain orthogonalities.  Inner
    products and norms come from v.gram as in check_sphere_conditions.
    """
    if not is_haar_form(v):
        raise NotHaarFormError("map carries linear terms; use check_sphere_conditions")
    p = v.gram.tolist()
    a, b, c, A, B, G = p[:6]
    pairs = [
        ("i.1", abs(math.sqrt(a[_a]) - 1.0)),
        ("i.2", abs(math.sqrt(b[_b]) - 1.0)),
        ("i.3", abs(math.sqrt(c[_c]) - 1.0)),
        *_cross_norm_pairs(v, p),
        ("iii.1", abs(a[_B] + A[_G])),
        ("iii.2", abs(b[_G] + A[_B])),
        ("iii.3", abs(c[_A] + B[_G])),
        ("iv.1", abs(a[_A])),
        ("iv.2", abs(a[_G])),
        ("iv.3", abs(b[_A])),
        ("iv.4", abs(b[_B])),
        ("iv.5", abs(c[_G])),
        ("iv.6", abs(c[_B])),
    ]
    return _report(pairs, tol)


def check_linear_isometry(B: np.ndarray, tol: float = TOL_CERT) -> CertificateReport:
    """Certificate that 2B is an isometry of R^3: residual |(2B)^T (2B) - I|."""
    B = np.asarray(B, dtype=float)
    residual = float(np.abs(4.0 * B.T @ B - np.eye(3)).max())
    return _report([("isometry", residual)], tol)


# Exponents (of f1, f2, f3) of the nine features of qmap.evaluate, in row order,
# and of the 25 monomials of degree 4 and 3 in the forms E and O.
_EXPONENTS = np.array([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
_MONOMIALS = np.array([e for e in product(range(5), repeat=3) if sum(e) in (3, 4)])


def _deviation_forms() -> tuple:
    """(P, K): the coefficients of E + O on _MONOMIALS are P @ G.ravel() - K.

    G is the Gram matrix of the coefficient rows, so |V(f)|^2 is
    sum_ij G_ij x_i x_j over the nine features x of qmap.evaluate.  On the
    unit sphere a product of two linear features is multiplied by |f|^2 and
    the constant 1 by |f|^4 (K), so every term has degree 4 or 3.
    """
    slot = {tuple(e): k for k, e in enumerate(_MONOMIALS.tolist())}
    squares = 2 * np.eye(3, dtype=int)
    P = np.zeros((len(_MONOMIALS), 81))
    for i, j in product(range(9), repeat=2):
        e = _EXPONENTS[i] + _EXPONENTS[j]
        for term in e + squares if e.sum() == 2 else [e]:
            P[slot[tuple(term.tolist())], 9 * i + j] += 1.0
    K = np.zeros(len(_MONOMIALS))
    for r, s in product(range(3), repeat=2):
        K[slot[tuple((squares[r] + squares[s]).tolist())]] += 1.0
    return P, K


_FORMS, _FOURTH_POWERS = _deviation_forms()


def sphere_deviation(v: QuadraticMapCoeffs) -> tuple:
    """Certified [lower, upper] around max over unit f of | |V(f)|^2 - 1 |.

    With Q the quadratic and L the linear part of V, on the unit sphere
    |V(f)|^2 - 1 = E(f) + O(f) for the quartic form
    E = |Q f|^2 + |L f|^2 |f|^2 - |f|^4 (15 coefficients) and the cubic form
    O = 2 <Q f, L f> (10).  No monomial exceeds 1 on the unit sphere, so
    upper is the sum of the 25 absolute coefficients, plus allowance.  Its
    sum part is 0 exactly for sphere-preserving maps: E + O and
    E - O (E + O at -f) vanish on the sphere, so by homogeneity everywhere.
    lower is the largest deviation at the 12 positivity.ICOSAHEDRON
    vertices, minus allowance: a value the map attains.  As
    | |V| - 1 | <= | |V|^2 - 1 |, upper also bounds | |V(f)| - 1 |.

    allowance = 16 eps * scale^2, scale = 1 + S, S = sum |coefficient_rows()|;
    |V(f)| <= S for |f| <= 1, and sum |G| <= S^2 for the Gram matrix G of
    the rows.  To first order in u = eps/2, upper carries 9u S^2 from G
    (three products per entry; linear-linear entries feed three coefficients,
    the others one), 15u S^2 from summing at most six G terms per
    coefficient, u (3 S^2 + 9) from subtracting K and u (3 S^2 + 9) from
    fsum: 15 eps S^2 + 9 eps.  lower carries, per component of V at a vertex
    (one coordinate is zero, so five features are nonzero), 6u from the
    rounded vertex, u from the feature products and 5u from their sum, times
    that component's row sum: 24u S^2 in |V|^2, plus 3u S^2 from squaring and
    summing and u (S^2 + 1) from subtracting 1: 14 eps S^2 + eps/2.  Both
    stay below 16 eps (1 + S)^2.

    Raises ValueError on a non-finite intermediate.  Admitted coefficients
    never produce one: with every entry of the map at 2e150, upper is about
    1.2e303.
    """
    coefficients = _FORMS @ v.gram.ravel() - _FOURTH_POWERS
    at_vertices = np.abs((evaluate(v, ICOSAHEDRON) ** 2).sum(axis=1) - 1.0)
    if not (np.isfinite(coefficients).all() and np.isfinite(at_vertices).all()):
        raise ValueError("sphere deviation overflows double precision; purity cannot be bounded")
    scale = 1.0 + float(np.abs(v.coefficient_rows()).sum())
    allowance = 16.0 * float(np.finfo(float).eps) * scale * scale
    return max(0.0, float(at_vertices.max()) - allowance), math.fsum(np.abs(coefficients)) + allowance


def monte_carlo_sphere(v: QuadraticMapCoeffs, samples: int, seed: int) -> tuple:
    """Worst sphere-norm deviation of V over seeded uniform sphere samples.

    Returns (max over samples of | |V(f)| - 1 |, argmax point).  A sampled
    reference for the tests: sphere_deviation bounds the same maximum.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    points = sampling.sphere_points(sampling.generator(seed), samples)
    deviations = np.abs(np.linalg.norm(evaluate(v, points), axis=1) - 1.0)
    worst = int(np.argmax(deviations))
    return float(deviations[worst]), points[worst]
