"""The sphere certificates as they were before they read the Gram matrix, kept as references.

Each inner product is its own x @ y on a pair of coefficient vectors and
each norm sqrt(x @ x).  The tests require blochquad.purity's certificates,
which read both from QuadraticMapCoeffs.gram, to give the same verdict, the
same worst condition and every residual with the same bits.
"""

import math

import numpy as np

from blochquad.errors import NotHaarFormError
from blochquad.purity import TOL_CERT, _report
from blochquad.qmap import is_haar_form


def _norm(x: np.ndarray) -> float:
    return math.sqrt(x @ x)


def check_sphere_conditions_reference(v, tol: float = TOL_CERT):
    a, b, c = v.a, v.b, v.c
    A, B, G = v.A, v.B, v.Gamma
    d, e, g = v.d, v.e, v.g
    n = _norm
    pairs = [
        ("i.1", abs(n(a) ** 2 + n(d) ** 2 - 1.0)),
        ("i.2", abs(n(b) ** 2 + n(e) ** 2 - 1.0)),
        ("i.3", abs(n(c) ** 2 + n(g) ** 2 - 1.0)),
        ("ii.1", abs(n(A) - n(a - b))),
        ("ii.2", abs(n(G) - n(a - c))),
        ("ii.3", abs(n(B) - n(b - c))),
        ("iii.1", abs(a @ d)),
        ("iii.2", abs(b @ e)),
        ("iii.3", abs(c @ g)),
        ("iv.1", abs(a @ G - c @ G)),
        ("iv.2", abs(b @ B - c @ B)),
        ("iv.3", abs(a @ A - b @ A)),
        ("v.1", abs(c @ G + d @ g)),
        ("v.2", abs(c @ B + e @ g)),
        ("v.3", abs(c @ d + G @ g)),
        ("v.4", abs(c @ e + B @ g)),
        ("v.5", abs(b @ d + A @ e)),
        ("v.6", abs(b @ A + d @ e)),
        ("v.7", abs(b @ g + B @ e)),
        ("v.8", abs(a @ e + A @ d)),
        ("v.9", abs(a @ g + G @ d)),
        ("vi.1", abs(a @ B - c @ B + A @ G)),
        ("vi.2", abs(b @ G - c @ G + A @ B)),
        ("vi.3", abs(A @ g + B @ d + G @ e)),
        ("vi.4", abs(c @ A + d @ e + B @ G)),
    ]
    return _report(pairs, tol)


def check_haar_conditions_reference(v, tol: float = TOL_CERT):
    if not is_haar_form(v):
        raise NotHaarFormError("map carries linear terms; use check_sphere_conditions")
    a, b, c = v.a, v.b, v.c
    A, B, G = v.A, v.B, v.Gamma
    n = _norm
    pairs = [
        ("i.1", abs(n(a) - 1.0)),
        ("i.2", abs(n(b) - 1.0)),
        ("i.3", abs(n(c) - 1.0)),
        ("ii.1", abs(n(A) - n(a - b))),
        ("ii.2", abs(n(G) - n(a - c))),
        ("ii.3", abs(n(B) - n(b - c))),
        ("iii.1", abs(a @ B + A @ G)),
        ("iii.2", abs(b @ G + A @ B)),
        ("iii.3", abs(c @ A + B @ G)),
        ("iv.1", abs(a @ A)),
        ("iv.2", abs(a @ G)),
        ("iv.3", abs(b @ A)),
        ("iv.4", abs(b @ B)),
        ("iv.5", abs(c @ G)),
        ("iv.6", abs(c @ B)),
    ]
    return _report(pairs, tol)
