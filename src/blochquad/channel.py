"""Coefficient representation of unital maps Delta: M_2(C) -> M_2(C) (x) M_2(C).

A trace-preserving operator with real coefficient blocks acts as

    Delta(w0*1 + w.sigma) = w0 * 1(x)1
        + sum_j (B1 w)_j * 1(x)sigma_j
        + sum_j (B2 w)_j * sigma_j(x)1
        + sum_{m,l} (sum_i T[m,l,i] w_i) * sigma_m(x)sigma_l.

The bilinear pairing against w is complex-bilinear (the standard C^3
scalar product conjugates its second argument, which cancels against the
conjugate of w in the defining expansion), so Delta is linear on all of
M_2(C), unital and *-preserving by construction.

Blocks are admitted by qmap.admit, as one read-only copy whose views they
are, with entries up to qmap.COEFFICIENT_LIMIT (1e150) in magnitude, so
the largest number any check forms from them, the coassociativity
residual (at most 2.7e302), stays below the double maximum of 1.8e308.  A
refusal names its block.

Trace preservation (b = 0), symmetry (B1 = B2, T[m, l, i] = T[l, m, i])
and the Haar trace (b = B1 = B2 = 0) are read off the blocks: the Frobenius
norm of the residual blocks must be at most tol times that of all 48
entries.  A change of frame maps each block by an orthogonal Kronecker
product (b -> R b, B -> R B R', T -> (R (x) R (x) R) T), so the verdict
depends on neither the frame nor the scale.  Coassociativity compares the
Frobenius norm of its three 8x8 residuals, computed from the 192 Pauli
weights of the two sides, with an absolute tol; inside the rounding band
of tol it is decided exactly, on the entries scaled to integers (_scaled).
It does not depend on the frame, but it does on the scale.

bloch_images, the images the positivity proof solves, and coassociativity
are built on one (4, 16) coefficient table, row m the weights of
Delta(sigma_m), Delta(sigma_0) = 1(x)1.  An operator keeps its 48 admitted
entries as one read-only array; rows 1 to 3 of its table are one take of
them by a fixed permutation, and its basis images one product of those
rows with the sixteen tensor-basis matrices.  The table, basis images, the
entries' norm and the induced map are built on first use and kept with the
operator, read-only, so every check of one operator shares them.  The
tests' references, in tests/algebra_reference.py and tests/test_channel.py,
hold the matrix of Delta(x), its closed form for symmetric operators, the
pair functional (phi (x) psi)(Delta(x)), the tensor swap and partial
traces that define symmetry and the Haar trace on the images, and the two
8x8 lifts that define coassociativity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pauli import TOL_ALG, BASIS, checked_tol, kron
from .qmap import COEFFICIENT_LIMIT, QuadraticMapCoeffs, admit

# All sixteen tensor-basis matrices kron(e_m, e_l), m outermost; row 4 m + l
# of _TENSOR_ROWS is kron(e_m, e_l) flattened, so c.reshape(3, 16) @ _TENSOR_ROWS
# is the three basis images flattened.
TENSOR_BASIS = np.array([[kron(em, el) for el in BASIS] for em in BASIS])
_TENSOR_ROWS = TENSOR_BASIS.reshape(16, 16)
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


# Field name, entries of the admitted copy of all 48 entries, and shape of each block.
_BLOCK_VIEWS = (("b", slice(0, 3), (3,)), ("B1", slice(3, 12), (3, 3)), ("B2", slice(12, 21), (3, 3)), ("T", slice(21, 48), (3, 3, 3)))
_BLOCKS = tuple((name, shape) for name, _, shape in _BLOCK_VIEWS)


def _coefficient_order() -> np.ndarray:
    """Entry numbers of the admitted copy placed as c[i, m, l], flattened: rows 1 to 3 of the coefficient table."""
    block = {name: np.arange(48)[entries].reshape(shape) for name, entries, shape in _BLOCK_VIEWS}
    order = np.empty((3, 4, 4), dtype=np.intp)
    order[:, 0, 0] = block["b"]
    order[:, 0, 1:] = block["B1"].T
    order[:, 1:, 0] = block["B2"].T
    order[:, 1:, 1:] = block["T"].transpose(2, 0, 1)
    return order.ravel()


_COEFFICIENT_ORDER = _coefficient_order()


def _lift_tables() -> tuple:
    """Index tables of the coassociativity weights; see _weight_differences.

    Returns the entry numbers of the coefficient table C placed as the rows
    of the (24, 4) factor (row 4 i + r is C[1 + i, :, r], row 12 + 4 i + p
    is C[1 + i, p, :]), and the entries of the (24, 16) product holding
    L[i, p, q, r] and R[i, p, q, r], each flattened in (i, p, q, r) order.
    """
    slots = np.arange(16, 64).reshape(3, 4, 4)
    rows = np.concatenate([slots.transpose(0, 2, 1).reshape(12, 4), slots.reshape(12, 4)])
    i, p, q, r = np.indices((3, 4, 4, 4))
    return rows.ravel(), ((4 * i + r) * 16 + 4 * p + q).ravel(), ((12 + 4 * i + p) * 16 + 4 * q + r).ravel()


_LIFT_ROWS, _LEFT_WEIGHTS, _RIGHT_WEIGHTS = _lift_tables()
# The weights of Delta(sigma_0) = 1(x)1 in row 0, above the rows of c.
_UNIT_IMAGE = np.zeros((4, 16))
_UNIT_IMAGE[0, 0] = 1.0
_UNIT_IMAGE.setflags(write=False)
_SQRT8 = math.sqrt(8.0)
# k of the coassociativity filter's rounding bound k eps (1 + N)^2; see check_coassociativity.
_COASSOCIATIVITY_ROUNDING = 32.0
_EPS = float(np.finfo(float).eps)

# Rows of T.reshape(9, 3) (row 3 m + l is T[m, l]) that make the induced
# map's rows: a, b, c are T[i, i]; A, B, Gamma are T[0, 1] + T[1, 0],
# T[1, 2] + T[2, 1] and T[0, 2] + T[2, 0].
_SQUARE_ROWS = np.array([0, 4, 8])
_CROSS_ROWS = np.array([1, 5, 2])
_SWAPPED_ROWS = np.array([3, 7, 6])


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
class DeltaCoefficients:
    """Real coefficient blocks of Delta in the Pauli tensor basis.

    b[i]       -- weight of 1(x)1 in Delta(sigma_i); zero for the
                  trace-preserving operators this package is built around
    B1[j, i]   -- weight of 1(x)sigma_j in Delta(sigma_i)
    B2[j, i]   -- weight of sigma_j(x)1 in Delta(sigma_i)
    T[m, l, i] -- weight of sigma_m(x)sigma_l in Delta(sigma_i)
    """

    b: np.ndarray = None
    B1: np.ndarray = None
    B2: np.ndarray = None
    T: np.ndarray = None

    def __init__(self, b=None, B1=None, B2=None, T=None):
        self._take_entries(admit(_BLOCKS, (b, B1, B2, T), COEFFICIENT_LIMIT))

    def _take_entries(self, flat: np.ndarray) -> None:
        fields = vars(self)  # written directly, as the instance is frozen
        fields["_entries"] = flat
        for name, entries, shape in _BLOCK_VIEWS:  # each block a view of the one read-only copy
            fields[name] = flat[entries].reshape(shape)

    @classmethod
    def _from_admitted(cls, flat: np.ndarray) -> "DeltaCoefficients":
        """The operator whose 48 entries, b, B1, B2 and T in that order, are flat, as qmap.admit returned them.

        For entries already admitted up to COEFFICIENT_LIMIT in one piece
        (cli.parse_config admits a config's entries as one flat array); the
        blocks are views of flat, as with the public constructor.
        """
        d = object.__new__(cls)
        d._take_entries(flat)
        return d

    @functools.cached_property
    def _stacked_coefficients(self) -> np.ndarray:
        # (4, 16): row m the weights of Delta(sigma_m), Delta(sigma_0) = 1(x)1
        stacked = _UNIT_IMAGE.copy()
        self._entries.take(_COEFFICIENT_ORDER, out=stacked[1:].reshape(48))
        stacked.setflags(write=False)
        return stacked

    @functools.cached_property
    def _norm(self) -> float:
        # math.hypot scales internally: no overflow at the admission bound
        return math.hypot(*self._entries.tolist())

    @functools.cached_property
    def _basis_images(self) -> np.ndarray:
        images = (self._stacked_coefficients[1:] @ _TENSOR_ROWS).reshape(3, 4, 4)
        images.setflags(write=False)
        return images

    @functools.cached_property
    def _induced_qmap(self) -> QuadraticMapCoeffs:
        # Each entry is one entry of an admitted block or the sum of two, so
        # at most _MAP_LIMIT: the rows need no second admission.
        t = self.T.reshape(9, 3)
        rows = np.empty((9, 3))
        t.take(_SQUARE_ROWS, axis=0, out=rows[0:3])
        np.add(t.take(_CROSS_ROWS, axis=0), t.take(_SWAPPED_ROWS, axis=0), out=rows[3:6])
        np.add(self.B1, self.B2, out=rows[6:9])  # d, e, g
        rows.setflags(write=False)
        return QuadraticMapCoeffs._from_admitted_rows(rows)


def basis_images(d: DeltaCoefficients) -> np.ndarray:
    """The three 4x4 matrices Delta(sigma_i), stacked along the first axis.

    With Delta(1) = 1(x)1 they determine Delta on all of M_2(C).  Built on
    the first call for d; every later call returns the same read-only array.
    """
    return d._basis_images


def bloch_images(d: DeltaCoefficients, W) -> np.ndarray:
    """Stack of matrices Delta(1 + w.sigma) for the rows w of W.

    These are the images of the positive boundary elements on which
    positivity.check_positivity decides.
    """
    W = np.asarray(W, dtype=float)  # np.dot: the product tensordot forms, without its reshaping
    return _EYE4 + np.dot(W, basis_images(d).reshape(3, 16)).reshape(-1, 4, 4)


def _within(d: DeltaCoefficients, tol: float, residual: list) -> bool:
    """Whether the Frobenius norm of the residual entries is at most tol times that of d's 48 entries.

    math.hypot scales internally, so neither norm overflows at the admission
    bound or underflows to a false pass; as a product, not a quotient, the
    zero operator passes instead of reading 0/0.
    """
    return math.hypot(*residual) <= checked_tol(tol) * d._norm


def is_trace_preserving(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """True iff the constant block vanishes, relative to all entries."""
    return _within(d, tol, d.b.tolist())


def is_symmetric(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Invariance under the tensor swap: B1 = B2 and T[m, l, i] = T[l, m, i], relative to all entries."""
    return _within(d, tol, (d.B1 - d.B2).ravel().tolist() + (d.T - d.T.transpose(1, 0, 2)).ravel().tolist())


def has_haar_trace(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Whether the normalized trace is invariant on both legs: b = B1 = B2 = 0, relative to all entries.

    The normalized partial traces of Delta(sigma_i) are b_i 1 + sum_m B2[m, i] sigma_m
    and b_i 1 + sum_l B1[l, i] sigma_l.
    """
    return _within(d, tol, d._entries[:21].tolist())  # b, B1 and B2


def _weight_differences(stacked: np.ndarray) -> np.ndarray:
    """The 192 differences L - R of the lift weights of the operator whose (4, 16) coefficient table is stacked.

    With C[m, p, q] = stacked[m, 4 p + q] the weight of sigma_p (x) sigma_q
    in Delta(sigma_m) and C[0] = 1(x)1, (Delta (x) id) Delta(sigma_i) gives
    sigma_p (x) sigma_q (x) sigma_r the weight L[i, p, q, r] = sum_m C[i, m, r] C[m, p, q],
    and (id (x) Delta) Delta(sigma_i) the weight R[i, p, q, r] = sum_l C[i, p, l] C[l, q, r].
    Both sides are one (24, 4) @ (4, 16) product, read out by _LEFT_WEIGHTS
    and _RIGHT_WEIGHTS.  On a float table the differences are rounded; on
    an object table of Python ints (see _scaled) they are exact.
    """
    weights = stacked.take(_LIFT_ROWS).reshape(24, 4) @ stacked
    return weights.take(_LEFT_WEIGHTS) - weights.take(_RIGHT_WEIGHTS)


def _coassociativity_residual(d: DeltaCoefficients) -> float:
    """(sum_i |(Delta (x) id) Delta(sigma_i) - (id (x) Delta) Delta(sigma_i)|_F^2)^(1/2).

    The 64 products sigma_p (x) sigma_q (x) sigma_r are orthogonal, each of
    Frobenius norm sqrt(8), so the residual is sqrt(8) times the 2-norm of
    the 192 _weight_differences; math.hypot takes that without overflow at
    the admission bound.  A rotation of the frame acts on the differences
    of each image by an orthogonal map and mixes the three images
    orthogonally, so the residual does not depend on the frame.
    """
    return _SQRT8 * math.hypot(*_weight_differences(d._stacked_coefficients).tolist())


def _scaled(x: np.ndarray) -> np.ndarray:
    """2^1074 times each entry of the finite float array x, exactly, as Python ints in an object array of x's shape.

    Every double is an integer multiple of 2^-1074: x = n / 2^k with
    k <= 1074, and m = 2^k has k + 1 bits.
    """
    scaled = [n << (1075 - m.bit_length()) for n, m in map(float.as_integer_ratio, x.ravel().tolist())]
    return np.array(scaled, dtype=object).reshape(x.shape)


def _exact_coassociativity_within(stacked: np.ndarray, tol: float) -> bool:
    """Whether the exact residual of the operator whose (4, 16) coefficient table is stacked is at most tol.

    On _scaled(stacked) the _weight_differences are 2^2148 times the exact
    ones.  Their sum of squares is compared with 2^4296 tol^2 / 8 in ints,
    so no root is taken.  About 0.06 ms: check_coassociativity calls it
    only inside its rounding band.
    """
    total = sum(x * x for x in _weight_differences(_scaled(stacked)).tolist())
    n, m = float(tol).as_integer_ratio()
    return 8 * total * m * m <= (n * n) << 4296


def check_coassociativity(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Whether (Delta (x) id) Delta = (id (x) Delta) Delta on the basis, to within tol.

    Both sides of each Delta(sigma_i) are 8x8 matrices: the image expanded
    in the tensor-Pauli basis, with one leg lifted through Delta again.
    Their residual, _coassociativity_residual, is the Frobenius norm of the
    three differences, compared with an absolute tol.

    The float residual r is within bound = 32 eps (1 + N)^2 of the exact
    one, for N = d._norm, the 2-norm of all 48 entries, which is that of c.
    With u = eps / 2, to first order, in units of u N (1 + N) in the 2-norm
    of the differences: each weight is a sum of four products, off by at
    most 4.01u times the sum of their magnitudes, and those sums form the
    product |A| |C| of the (24, 4) and (4, 16) factors' magnitudes, whose
    left and right halves have Frobenius norm at most N sqrt(1 + N^2) each
    (8.02).  The differences, of 2-norm at most 2 N (1 + N), round by u each
    (2), math.hypot errs by under 1 ulp (4), and sqrt(8) and the product
    by 2u (4): 18.02u sqrt(8) N (1 + N) < 25.5 eps (1 + N)^2.  N itself
    (1 ulp) and bound round by a few u relative, and the comparisons
    r + bound and r - bound with tol by u (r + tol), inside the remaining
    6.5 eps (1 + N)^2 wherever tol is at most 13 (1 + N)^2.  Above that,
    tol exceeds every residual, exact or float, which is at most
    2 sqrt(8) N (1 + N) (1 + 25.5 eps), and the float verdict is True, as it
    should be.

    So r + bound <= tol proves the verdict True and r - bound > tol proves it
    False (Shewchuk's floating-point filter, Discrete Comput. Geom. 18,
    1997).  Between them _exact_coassociativity_within decides.  Admitted
    entries keep every intermediate finite: with all 48 at 1e150, r is at
    most 2 sqrt(8) N (1 + N) = 2.7e302 and bound 3.4e287.
    """
    tol = checked_tol(tol)
    r = _coassociativity_residual(d)
    bound = _COASSOCIATIVITY_ROUNDING * _EPS * (1.0 + d._norm) ** 2
    if r + bound <= tol:
        return True
    if r - bound > tol:
        return False
    return _exact_coassociativity_within(d._stacked_coefficients, tol)


def induced_qmap(d: DeltaCoefficients) -> QuadraticMapCoeffs:
    """Coefficients of the Bloch-ball map f -> Delta*(phi_f (x) phi_f).

    Quadratic vectors are read off the tensor block; the linear part is the
    (B1 + B2)-action, which reduces to twice the common block for
    symmetric operators.  Built on the first call for d; every later call
    returns the same map.
    """
    return d._induced_qmap
