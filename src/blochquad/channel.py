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
entry (about 2.6e302), stays below the double maximum of 1.8e308; the
structural checks compare as `residual <= tol`.  A refusal names its block.

bloch_images, the images the positivity proof solves, and the structural
checks are built on the three basis images Delta(sigma_i).  An
operator's basis images and its induced map are built on first use and
kept with it, read-only, so every check of one operator shares them.  The
matrix of Delta(x) for a general x, its closed form for symmetric
operators and the pair functional (phi (x) psi)(Delta(x)) are the tests'
references, in tests/algebra_reference.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import TOL_ALG, BASIS, checked_tol, kron, vector_norm
from .qmap import COEFFICIENT_LIMIT, QuadraticMapCoeffs, admit

# All sixteen tensor-basis matrices kron(e_m, e_l), m outermost.
TENSOR_BASIS = np.array([[kron(em, el) for el in BASIS] for em in BASIS])
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)
# The tensor swap on the product basis indices (1,2,3,4) -> (1,3,2,4).
_SWAP = np.array([0, 2, 1, 3])
# sum_l kron(X_l, e_l) = X @ _LIFT_RIGHT and sum_m kron(e_m, Y_m) = Y @ _LIFT_LEFT
# for four 4x4 matrices X_l (Y_m) flattened to one row of 64; the products
# come out as flattened 8x8 matrices.
_LIFT_RIGHT = np.einsum("ap,bq,lcd->labpcqd", np.eye(4), np.eye(4), np.array(BASIS)).reshape(64, 64)
_LIFT_LEFT = np.einsum("mab,cp,dq->mcdapbq", np.array(BASIS), np.eye(4), np.eye(4)).reshape(64, 64)


# Field name, entries of the admitted copy of all 48 entries, and shape of each block.
_BLOCK_VIEWS = (("b", slice(0, 3), (3,)), ("B1", slice(3, 12), (3, 3)), ("B2", slice(12, 21), (3, 3)), ("T", slice(21, 48), (3, 3, 3)))
_BLOCKS = tuple((name, shape) for name, _, shape in _BLOCK_VIEWS)
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
    def _basis_images(self) -> np.ndarray:
        images = np.einsum("iml,mlab->iab", _basis_coefficients(self), TENSOR_BASIS)
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
    """c[i, m, l]: weight of sigma_m (x) sigma_l in Delta(sigma_i), sigma_0 = 1."""
    c = np.zeros((3, 4, 4))
    c[:, 0, 0] = d.b
    c[:, 0, 1:] = d.B1.T
    c[:, 1:, 0] = d.B2.T
    c[:, 1:, 1:] = d.T.transpose(2, 0, 1)
    return c


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


def is_trace_preserving(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """True iff the constant block vanishes."""
    return vector_norm(d.b) <= checked_tol(tol)


def _symmetry_residual(d: DeltaCoefficients) -> float:
    """Largest entry of |U Delta(sigma_i) U - Delta(sigma_i)|, U the tensor swap."""
    images = basis_images(d)
    return float(np.abs(images[:, _SWAP[:, None], _SWAP] - images).max())


def is_symmetric(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Invariance under the tensor swap, checked on every basis image."""
    return _symmetry_residual(d) <= checked_tol(tol)


def _haar_trace_residual(d: DeltaCoefficients) -> float:
    """Largest entry of the right and left normalized partial traces of the Delta(sigma_i)."""
    m = basis_images(d).reshape(3, 2, 2, 2, 2)  # [i, left row, right row, left column, right column]
    traces = np.stack([m[:, :, 0, :, 0] + m[:, :, 1, :, 1], m[:, 0, :, 0] + m[:, 1, :, 1]])
    return 0.5 * float(np.abs(traces).max())


def has_haar_trace(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Whether the normalized trace is invariant on both legs.

    Checked on the matrices themselves: both partial traces of every basis
    image Delta(sigma_i) must vanish, which for trace-preserving operators
    is the same as B1 = B2 = 0.
    """
    return _haar_trace_residual(d) <= checked_tol(tol)


def _coassociativity_residual(d: DeltaCoefficients) -> float:
    """Largest entry of |(Delta (x) id) Delta(sigma_i) - (id (x) Delta) Delta(sigma_i)|.

    With c[i, m, l] the weight of sigma_m (x) sigma_l in Delta(sigma_i), the
    left side is sum_l kron(X_l, sigma_l) for X_l = sum_m c[i, m, l] Delta(sigma_m),
    the right side sum_m kron(sigma_m, Y_m) for Y_m = sum_l c[i, m, l] Delta(sigma_l)
    (Delta(sigma_0) = 1(x)1): two matrix products per side.
    """
    c = _basis_coefficients(d)
    images = np.concatenate([np.eye(4)[None], basis_images(d)]).reshape(4, 16)
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
