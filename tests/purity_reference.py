"""The paper's sphere-preservation equations, the tests' reference for blochquad.purity.

A quadratic Bloch map sends every pure state to a pure state exactly when
its coefficient vectors satisfy a finite list of norm and orthogonality
equations: 25 for a map with linear terms, 15 for one without.  Each list
is given verbatim, one (name, lhs - rhs) pair per displayed equation, with
x @ y for every inner product.  The package decides q-purity on the 25
coefficients of |V(f)|^2 - 1 instead; the tests require the two to vanish
together in exact arithmetic.

The rows are the nine coefficient vectors a, b, c, A, B, Gamma, d, e, g in
the order of QuadraticMapCoeffs.coefficient_rows: float arrays, or object
arrays of fractions.Fraction for exact values.  A norm |x| is root(x @ x);
the float certificates take math.sqrt, and the exact tests compare squared
norms (root the identity), which agree exactly when the norms do.
"""

import math

from algebra_reference import NotHaarFormError
from blochquad.qmap import is_haar_form


def sphere_conditions(rows, root=math.sqrt) -> list:
    """(name, value) of the 25 equations for a general quadratic map.

    Condition groups:
      (i)   |a|^2+|d|^2 = |b|^2+|e|^2 = |c|^2+|g|^2 = 1
      (ii)  |A| = |a-b|, |Gamma| = |a-c|, |B| = |b-c|
      (iii) <a,d> = <b,e> = <c,g> = 0
      (iv)  <a,Gamma> = <c,Gamma>, <b,B> = <c,B>, <a,A> = <b,A>
      (v)   nine mixed linear/quadratic orthogonality sums
      (vi)  four three-term sums
    """
    a, b, c, A, B, G, d, e, g = rows

    def n(x):
        return root(x @ x)

    return [
        ("i.1", a @ a + d @ d - 1),
        ("i.2", b @ b + e @ e - 1),
        ("i.3", c @ c + g @ g - 1),
        ("ii.1", n(A) - n(a - b)),
        ("ii.2", n(G) - n(a - c)),
        ("ii.3", n(B) - n(b - c)),
        ("iii.1", a @ d),
        ("iii.2", b @ e),
        ("iii.3", c @ g),
        ("iv.1", a @ G - c @ G),
        ("iv.2", b @ B - c @ B),
        ("iv.3", a @ A - b @ A),
        ("v.1", c @ G + d @ g),
        ("v.2", c @ B + e @ g),
        ("v.3", c @ d + G @ g),
        ("v.4", c @ e + B @ g),
        ("v.5", b @ d + A @ e),
        ("v.6", b @ A + d @ e),
        ("v.7", b @ g + B @ e),
        ("v.8", a @ e + A @ d),
        ("v.9", a @ g + G @ d),
        ("vi.1", a @ B - c @ B + A @ G),
        ("vi.2", b @ G - c @ G + A @ B),
        ("vi.3", A @ g + B @ d + G @ e),
        ("vi.4", c @ A + d @ e + B @ G),
    ]


def haar_conditions(rows, root=math.sqrt) -> list:
    """(name, value) of the 15 equations for a map without linear terms (d = e = g = 0).

    Groups: (i) unit norms of a, b, c; (ii) cross-term norms as above;
    (iii) three two-term sums; (iv) six plain orthogonalities.
    """
    a, b, c, A, B, G = rows[:6]

    def n(x):
        return root(x @ x)

    return [
        ("i.1", n(a) - 1),
        ("i.2", n(b) - 1),
        ("i.3", n(c) - 1),
        ("ii.1", n(A) - n(a - b)),
        ("ii.2", n(G) - n(a - c)),
        ("ii.3", n(B) - n(b - c)),
        ("iii.1", a @ B + A @ G),
        ("iii.2", b @ G + A @ B),
        ("iii.3", c @ A + B @ G),
        ("iv.1", a @ A),
        ("iv.2", a @ G),
        ("iv.3", b @ A),
        ("iv.4", b @ B),
        ("iv.5", c @ G),
        ("iv.6", c @ B),
    ]


def sphere_residuals_reference(v) -> dict:
    """The 25 equations as residuals |lhs - rhs|, keyed by condition name in the order above."""
    return {name: abs(float(r)) for name, r in sphere_conditions(v.coefficient_rows())}


def haar_residuals_reference(v) -> dict:
    """The 15 equations as residuals, keyed by condition name; NotHaarFormError for a map with linear terms."""
    if not is_haar_form(v):
        raise NotHaarFormError("map carries linear terms; use sphere_residuals_reference")
    return {name: abs(float(r)) for name, r in haar_conditions(v.coefficient_rows())}
