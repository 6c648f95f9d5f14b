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
the largest product any check forms from them, an 8x8 coassociativity
entry (about 2.6e302), stays below the double maximum of 1.8e308.  A
refusal names its block.

Trace preservation (b = 0), symmetry (B1 = B2, T[m, l, i] = T[l, m, i])
and the Haar trace (b = B1 = B2 = 0) are read off the blocks: the Frobenius
norm of the residual blocks must be at most tol times that of all 48
entries.  A change of frame maps each block by an orthogonal Kronecker
product (b -> R b, B -> R B R', T -> (R (x) R (x) R) T), so the verdict
depends on neither the frame nor the scale.  Coassociativity compares its
residual with an absolute tol.

bloch_images, the images the positivity proof solves, and coassociativity
are built on the three basis images Delta(sigma_i).  An operator keeps its
48 admitted entries as one read-only array; its coefficients c[i, m, l]
are one take of them by a fixed permutation, and its basis images one
product of c with the sixteen tensor-basis matrices.  Coefficients, basis
images and the induced map are built on first use and kept with the
operator, read-only, so every check of one operator shares them.  The
tests' references, in tests/algebra_reference.py, hold the matrix of
Delta(x), its closed form for symmetric operators, the pair functional
(phi (x) psi)(Delta(x)), and the tensor swap and partial traces that
define symmetry and the Haar trace on the images.
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
# sum_l kron(X_l, e_l) = X @ _LIFT_RIGHT and sum_m kron(e_m, Y_m) = Y @ _LIFT_LEFT
# for four 4x4 matrices X_l (Y_m) flattened to one row of 64; the products
# come out as flattened 8x8 matrices.
_LIFT_RIGHT = np.einsum("ap,bq,lcd->labpcqd", np.eye(4), np.eye(4), np.array(BASIS)).reshape(64, 64)
_LIFT_LEFT = np.einsum("mab,cp,dq->mcdapbq", np.array(BASIS), np.eye(4), np.eye(4)).reshape(64, 64)


# Field name, entries of the admitted copy of all 48 entries, and shape of each block.
_BLOCK_VIEWS = (("b", slice(0, 3), (3,)), ("B1", slice(3, 12), (3, 3)), ("B2", slice(12, 21), (3, 3)), ("T", slice(21, 48), (3, 3, 3)))
_BLOCKS = tuple((name, shape) for name, _, shape in _BLOCK_VIEWS)


def _coefficient_order() -> np.ndarray:
    """Entry numbers of the admitted copy placed as c[i, m, l], flattened (see _basis_coefficients)."""
    block = {name: np.arange(48)[entries].reshape(shape) for name, entries, shape in _BLOCK_VIEWS}
    order = np.empty((3, 4, 4), dtype=np.intp)
    order[:, 0, 0] = block["b"]
    order[:, 0, 1:] = block["B1"].T
    order[:, 1:, 0] = block["B2"].T
    order[:, 1:, 1:] = block["T"].transpose(2, 0, 1)
    return order.ravel()


_COEFFICIENT_ORDER = _coefficient_order()

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

    @classmethod
    def trace_preserving(cls, B1=None, B2=None, T=None) -> "DeltaCoefficients":
        """Constructor that pins the constant block to zero."""
        return cls(b=None, B1=B1, B2=B2, T=T)

    @functools.cached_property
    def _coefficients(self) -> np.ndarray:
        c = self._entries.take(_COEFFICIENT_ORDER).reshape(3, 4, 4)
        c.setflags(write=False)
        return c

    @functools.cached_property
    def _basis_images(self) -> np.ndarray:
        images = (self._coefficients.reshape(3, 16) @ _TENSOR_ROWS).reshape(3, 4, 4)
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


def _basis_coefficients(d: DeltaCoefficients) -> np.ndarray:
    """c[i, m, l]: weight of sigma_m (x) sigma_l in Delta(sigma_i), sigma_0 = 1.

    c[:, 0, 0] is b, c[:, 0, 1:] is B1.T, c[:, 1:, 0] is B2.T and c[:, 1:, 1:]
    is T.transpose(2, 0, 1).  Built on the first call for d; every later call
    returns the same read-only array.
    """
    return d._coefficients


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
    return math.hypot(*residual) <= checked_tol(tol) * math.hypot(*d._entries.tolist())


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


def _coassociativity_residual(d: DeltaCoefficients) -> float:
    """Largest entry of |(Delta (x) id) Delta(sigma_i) - (id (x) Delta) Delta(sigma_i)|.

    With c[i, m, l] the weight of sigma_m (x) sigma_l in Delta(sigma_i), the
    left side is sum_l kron(X_l, sigma_l) for X_l = sum_m c[i, m, l] Delta(sigma_m),
    the right side sum_m kron(sigma_m, Y_m) for Y_m = sum_l c[i, m, l] Delta(sigma_l)
    (Delta(sigma_0) = 1(x)1): two matrix products per side.
    """
    c = _basis_coefficients(d)
    images = np.concatenate([_EYE4[None], basis_images(d)]).reshape(4, 16)
    lhs = (c.transpose(0, 2, 1) @ images).reshape(3, 64) @ _LIFT_RIGHT
    rhs = (c @ images).reshape(3, 64) @ _LIFT_LEFT
    return float(np.abs(lhs - rhs).max())


def check_coassociativity(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Compare (Delta (x) id) Delta and (id (x) Delta) Delta on the basis.

    Both sides are 8x8 matrices: each basis image expanded in the
    tensor-Pauli basis, with one leg lifted through Delta again.
    """
    return _coassociativity_residual(d) <= checked_tol(tol)


def induced_qmap(d: DeltaCoefficients) -> QuadraticMapCoeffs:
    """Coefficients of the Bloch-ball map f -> Delta*(phi_f (x) phi_f).

    Quadratic vectors are read off the tensor block; the linear part is the
    (B1 + B2)-action, which reduces to twice the common block for
    symmetric operators.  Built on the first call for d; every later call
    returns the same map.
    """
    return d._induced_qmap
