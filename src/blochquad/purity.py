"""q-purity: the certified sphere deviation and the verdict read from it, and a sampled reference.

A quadratic Bloch map V is q-pure when it sends pure states to pure states,
|V(f)|^2 = 1 on the unit sphere.  There |V(f)|^2 - 1 = E(f) + O(f) for a
quartic form E and a cubic form O, whose 25 coefficients are linear in the
Gram matrix of the map's coefficient vectors.  sphere_deviation brackets
max over unit f of | |V(f)|^2 - 1 | between a value the map attains and the
Bombieri norms of E and O, which bound both forms on the sphere and do not
change when the frame rotates.  check_q_purity reads its verdict from that
interval: pure, impure, or None (marginal) where the interval straddles the
tolerance, pauli.TOL_ALG unless the caller gives one.  The paper's 25
displayed norm and orthogonality equations vanish exactly when the 25
coefficients do; tests/purity_reference.py holds them as the tests'
reference.  check_linear_isometry certifies a linear map 2B as an isometry
of R^3 to within TOL_ALG.  Both certificates return (verdict, number): the
interval, or the isometry residual.  monte_carlo_sphere samples the sphere
instead; no command calls it, and the tests use it as an independent
cross-check.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from . import sampling
from .pauli import TOL_ALG, checked_tol
from .positivity import ICOSAHEDRON
from .qmap import QuadraticMapCoeffs, _features, evaluate

_EPS = float(np.finfo(float).eps)


def check_linear_isometry(B: np.ndarray) -> tuple:
    """(verdict, residual): whether 2B is an isometry of R^3 to within TOL_ALG, and residual = max |(2B)^T (2B) - I|."""
    B = np.asarray(B, dtype=float)
    residual = float(np.abs(4.0 * B.T @ B - np.eye(3)).max())
    return residual <= TOL_ALG, residual


# Exponents (of f1, f2, f3) of the nine features of qmap.evaluate, in row order,
# and of the 25 monomials of the forms E and O: the 15 of degree 4, then the 10 of degree 3.
_EXPONENTS = np.array([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
_MONOMIALS = np.array(sorted((e for e in product(range(5), repeat=3) if sum(e) in (3, 4)), key=sum, reverse=True))
_QUARTIC = 15
# sqrt(a! / k!) for the monomial of exponents a and degree k: the Bombieri
# norm of a form with coefficients c is |sqrt(a! / k!) c|.
_ROOT_WEIGHTS = np.sqrt([math.prod(map(math.factorial, e)) / math.factorial(sum(e)) for e in _MONOMIALS.tolist()])


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
# The nine features of the positivity.ICOSAHEDRON vertices, as qmap.evaluate forms them for a batch.
_VERTEX_FEATURES = _features(ICOSAHEDRON)
_VERTEX_FEATURES.setflags(write=False)


def sphere_deviation(v: QuadraticMapCoeffs) -> tuple:
    """Certified [lower, upper] around max over unit f of | |V(f)|^2 - 1 |.

    With Q the quadratic and L the linear part of V, on the unit sphere
    |V(f)|^2 - 1 = E(f) + O(f) for the quartic form
    E = |Q f|^2 + |L f|^2 |f|^2 - |f|^4 (15 coefficients) and the cubic form
    O = 2 <Q f, L f> (10).  upper is ||E||_B + ||O||_B, plus allowance, for
    the Bombieri norm ||p||_B^2 = sum over monomials of (a! / k!) c_a^2 of a
    form of degree k.  It bounds |p| on the unit sphere (Cauchy-Schwarz
    against the kernel (u.x)^k, whose norm is 1 there), and no rotation of
    the frame changes it (Beauzamy, Bombieri, Enflo and Montgomery, J. Number
    Theory 36, 1990).  Its norm part is 0 exactly for sphere-preserving maps:
    E + O and E - O (E + O at -f) vanish on the sphere, so by homogeneity
    everywhere.  lower is the largest deviation at the 12
    positivity.ICOSAHEDRON vertices, minus allowance: a value the map
    attains.  As | |V| - 1 | <= | |V|^2 - 1 |, upper also bounds | |V(f)| - 1 |.

    allowance = 16 eps * scale^2, scale = 1 + S, S = sum |coefficient_rows()|;
    |V(f)| <= S for |f| <= 1, and the products |x_i y_i| of two rows sum to at
    most S^2.  To first order in u = eps/2, a coefficient is off by 3u per
    Gram entry (three products), 5u from summing at most six of them and u
    from subtracting |f|^4, times the products it sums, and u times its part
    of |f|^4.  Every weight a! / k! is at most 1, so the Bombieri norm of these
    errors is at most their sum weighted by sqrt(a! / k!).  A Gram entry of two
    linear rows feeds three monomials of root weights at most
    1 + 2 / sqrt(6) < 1.82, the others one, and |f|^4 has weighted sum
    3 + sqrt(6): 16.4u S^2 + 5.5u.  The norms, at most 1.82 S^2 + sqrt(5), are
    off by 6u (the weighted products, math.hypot within 1 ulp, their sum),
    and the final sum by u: 29.2u S^2 + 21.1u in all, below 16 eps (1 + S)^2.
    lower carries, per component of V at a vertex (one coordinate is zero,
    so five features are nonzero), 6u from the rounded vertex, u from the
    feature products and 5u from their sum, times that component's row sum:
    24u S^2 in |V|^2, plus 3u S^2 from squaring and summing and u (S^2 + 1)
    from subtracting 1: 14 eps S^2 + eps/2, also below it.

    Raises ValueError on a non-finite intermediate.  Admitted coefficients
    never produce one: math.hypot scales its arguments, and with every entry
    of the map at 2e150, upper is about 1.8e302.
    """
    weighted = (_ROOT_WEIGHTS * (_FORMS @ v.gram.ravel() - _FOURTH_POWERS)).tolist()
    at_vertices = np.abs(((_VERTEX_FEATURES @ v.coefficient_rows()) ** 2).sum(axis=1) - 1.0)
    scale = 1.0 + float(np.abs(v.coefficient_rows()).sum())
    allowance = 16.0 * _EPS * scale * scale
    upper = math.hypot(*weighted[:_QUARTIC]) + math.hypot(*weighted[_QUARTIC:]) + allowance
    if not (math.isfinite(upper) and np.isfinite(at_vertices).all()):  # hypot is inf or nan on a non-finite coefficient
        raise ValueError("sphere deviation overflows double precision; purity cannot be bounded")
    return max(0.0, float(at_vertices.max()) - allowance), upper


def check_q_purity(v: QuadraticMapCoeffs, tol: float = TOL_ALG) -> tuple:
    """(verdict, interval): whether V keeps the unit sphere to within tol, and sphere_deviation(v).

    verdict is True when the upper end is at most tol, False when the lower
    end exceeds it (a vertex attains a larger deviation, so impurity is
    proved), and None (marginal) when the interval straddles tol.
    """
    tol = checked_tol(tol)
    lower, upper = interval = sphere_deviation(v)
    if upper <= tol:
        return True, interval
    return (False if lower > tol else None), interval


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
