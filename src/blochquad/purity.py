"""Sphere-preservation certificates and the Monte-Carlo sphere oracle.

A quadratic Bloch map sends every pure state to a pure state exactly when
its coefficient vectors satisfy a finite list of norm and orthogonality
equations.  check_sphere_conditions evaluates the full list for maps with
linear terms, check_haar_conditions the reduced list for maps without
them, and monte_carlo_sphere arbitrates independently by sampling the
sphere.  The equation list is checked verbatim, one residual per displayed
equation; no attempt is made to minimize the system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import NotHaarFormError
from .qmap import QuadraticMapCoeffs, evaluate, is_haar_form

TOL_CERT = 1e-9
# Monte-Carlo thresholds: rounding noise vs genuine sphere violation are
# separated by six orders of magnitude.
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
    worst = max(pairs, key=lambda item: item[1])[0]
    verdict = all(r <= tol for _, r in pairs)
    return CertificateReport(verdict=verdict, residuals=tuple(pairs), worst_condition=worst)


def check_sphere_conditions(v: QuadraticMapCoeffs, tol: float = TOL_CERT) -> CertificateReport:
    """Full sphere-preservation certificate for a general quadratic map.

    Condition groups:
      (i)   |a|^2+|d|^2 = |b|^2+|e|^2 = |c|^2+|g|^2 = 1
      (ii)  |A| = |a-b|, |Gamma| = |a-c|, |B| = |b-c|
      (iii) <a,d> = <b,e> = <c,g> = 0
      (iv)  <a,Gamma> = <c,Gamma>, <b,B> = <c,B>, <a,A> = <b,A>
      (v)   nine mixed linear/quadratic orthogonality sums
      (vi)  four three-term sums
    """
    a, b, c = v.a, v.b, v.c
    A, B, G = v.A, v.B, v.Gamma
    d, e, g = v.d, v.e, v.g
    n = np.linalg.norm
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


def check_haar_conditions(v: QuadraticMapCoeffs, tol: float = TOL_CERT) -> CertificateReport:
    """Reduced certificate for maps without linear terms.

    Groups: (i) unit norms of a, b, c; (ii) cross-term norms as above;
    (iii) three two-term sums; (iv) six plain orthogonalities.
    """
    if not is_haar_form(v):
        raise NotHaarFormError("map carries linear terms; use check_sphere_conditions")
    a, b, c = v.a, v.b, v.c
    A, B, G = v.A, v.B, v.Gamma
    n = np.linalg.norm
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


def check_linear_isometry(B: np.ndarray, tol: float = TOL_CERT) -> CertificateReport:
    """Certificate that 2B is an isometry of R^3: residual |(2B)^T (2B) - I|."""
    B = np.asarray(B, dtype=float)
    residual = float(np.abs(4.0 * B.T @ B - np.eye(3)).max())
    return _report([("isometry", residual)], tol)


def monte_carlo_sphere(v: QuadraticMapCoeffs, samples: int, seed: int) -> tuple:
    """Worst sphere-norm deviation of V over seeded uniform sphere samples.

    Returns (max over samples of | |V(f)| - 1 |, argmax point).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    points = sampling.sphere_points(sampling.generator(seed), samples)
    deviations = np.abs(np.linalg.norm(evaluate(v, points), axis=1) - 1.0)
    worst = int(np.argmax(deviations))
    return float(deviations[worst]), points[worst]
