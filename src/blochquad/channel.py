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

The structural checks run with numpy's overflow and invalid warnings off
and compare as `residual <= tol`, so a residual that overflows fails its
check without a warning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pauli
from .errors import NotHaarFormError, NotSelfAdjointError, NotSymmetricError
from .pauli import TOL_ALG, BASIS, PauliElement, BlochState, kron, swap_conjugate
from .qmap import QuadraticMapCoeffs, evaluate

# All sixteen tensor-basis matrices kron(e_m, e_l), m outermost.
TENSOR_BASIS = np.array([[kron(em, el) for el in BASIS] for em in BASIS])


def _real_array(value, shape: tuple, name: str) -> np.ndarray:
    if value is None:
        arr = np.zeros(shape)
    else:
        arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
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

    def __post_init__(self):
        object.__setattr__(self, "b", _real_array(self.b, (3,), "b"))
        object.__setattr__(self, "B1", _real_array(self.B1, (3, 3), "B1"))
        object.__setattr__(self, "B2", _real_array(self.B2, (3, 3), "B2"))
        object.__setattr__(self, "T", _real_array(self.T, (3, 3, 3), "T"))

    @classmethod
    def trace_preserving(cls, B1=None, B2=None, T=None) -> "DeltaCoefficients":
        """Constructor that pins the constant block to zero."""
        return cls(b=None, B1=B1, B2=B2, T=T)


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

    With Delta(1) = 1(x)1 they determine Delta on all of M_2(C).
    """
    return np.einsum("iml,mlab->iab", _basis_coefficients(d), TENSOR_BASIS)


def apply(d: DeltaCoefficients, x: PauliElement) -> np.ndarray:
    """The 4x4 matrix Delta(x) = w0 * 1(x)1 + sum_i w_i Delta(sigma_i)."""
    return x.w0 * np.eye(4) + np.tensordot(x.w, basis_images(d), axes=1)


def bloch_images(d: DeltaCoefficients, W) -> np.ndarray:
    """Stack of matrices Delta(1 + w.sigma) for the rows w of W.

    These are the images of the positive boundary elements probed by the
    sampled positivity oracle.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    return np.eye(4) + np.tensordot(W, basis_images(d), axes=1)


@dataclass(frozen=True)
class HaarEntries:
    """Scalar entries of the closed-form image matrix at a given input vector w.

    L = <a,w>, M = <A,w>/2, N = <Gamma,w>/2, O = <b,w>, P = <B,w>/2, R = <c,w>.
    """

    L: float
    M: float
    N: float
    O: float
    P: float
    R: float

    @classmethod
    def from_map(cls, v: QuadraticMapCoeffs, w) -> "HaarEntries":
        w = np.asarray(w, dtype=float)
        return cls(
            L=float(v.a @ w),
            M=float(v.A @ w) / 2.0,
            N=float(v.Gamma @ w) / 2.0,
            O=float(v.b @ w),
            P=float(v.B @ w) / 2.0,
            R=float(v.c @ w),
        )


def apply_haar_closed_form(d: DeltaCoefficients, x: PauliElement) -> np.ndarray:
    """Delta(x) assembled entry by entry from HaarEntries.

    Requires a symmetric operator with no linear blocks and a self-adjoint
    input; must agree with apply() entrywise.
    """
    if max(np.abs(d.B1).max(), np.abs(d.B2).max()) > TOL_ALG:
        raise NotHaarFormError("linear blocks B1/B2 must vanish for the closed form")
    if not is_symmetric(d):
        raise NotSymmetricError("closed form requires a symmetric tensor block")
    if not x.is_self_adjoint():
        raise NotSelfAdjointError("closed form requires a self-adjoint input")
    w0 = x.w0.real
    h = HaarEntries.from_map(induced_qmap(d), x.w.real)
    L, M, N, O, P, R = h.L, h.M, h.N, h.O, h.P, h.R
    return np.array(
        [
            [w0 + R, N - 1j * P, N - 1j * P, L - 2j * M - O],
            [N + 1j * P, w0 - R, L + O, -N + 1j * P],
            [N + 1j * P, L + O, w0 - R, -N + 1j * P],
            [L + 2j * M - O, -N - 1j * P, -N - 1j * P, w0 + R],
        ]
    )


def is_trace_preserving(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """True iff the constant block vanishes."""
    return float(np.linalg.norm(d.b)) <= tol


@np.errstate(over="ignore", invalid="ignore")
def is_symmetric(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Invariance under the tensor swap, checked on every basis image."""
    images = basis_images(d)
    swapped = np.array([swap_conjugate(m) for m in images])
    return bool(np.abs(swapped - images).max() <= tol)


@np.errstate(over="ignore", invalid="ignore")
def has_haar_trace(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Whether the normalized trace is invariant on both legs.

    Checked on the matrices themselves: both partial traces of every basis
    image Delta(sigma_i) must vanish, which for trace-preserving operators
    is the same as B1 = B2 = 0.
    """
    traces = [(pauli.partial_trace_right(m), pauli.partial_trace_left(m)) for m in basis_images(d)]
    return bool(np.abs(traces).max() <= tol)


def dual_pair(d: DeltaCoefficients, phi: BlochState, psi: BlochState) -> np.ndarray:
    """Bloch vector of the pair functional (phi, psi) pulled back through Delta.

    For a symmetric operator with linear block B, component k is
    sum_j B[j,k] (p_j + f_j) + sum_{i,j} T[i,j,k] f_i p_j; with phi = psi
    this is exactly the induced quadratic map evaluated at f.
    """
    if not is_symmetric(d):
        raise NotSymmetricError("dual_pair requires a symmetric operator")
    f, p = phi.f, psi.f
    return d.B1.T @ (p + f) + np.einsum("ijk,i,j->k", d.T, f, p)


def split(d: DeltaCoefficients, lam: float) -> tuple:
    """Convex split into a pure-tensor part and a pure-linear part.

    Delta = lam * Delta1 + (1 - lam) * Delta2 where Delta1 carries T/lam,
    Delta2 carries B1/(1-lam) and B2/(1-lam), and each keeps the full
    unital term.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie strictly in (0, 1), got {lam}")
    d1 = DeltaCoefficients(b=d.b / lam, T=d.T / lam)
    d2 = DeltaCoefficients(B1=d.B1 / (1.0 - lam), B2=d.B2 / (1.0 - lam))
    return d1, d2


@np.errstate(over="ignore", invalid="ignore")
def check_coassociativity(d: DeltaCoefficients, tol: float = TOL_ALG) -> bool:
    """Compare (Delta (x) id) Delta and (id (x) Delta) Delta on the basis.

    Both sides are built as 8x8 matrices by expanding each basis image in
    the tensor-Pauli basis and lifting one leg through Delta again.
    """
    c = _basis_coefficients(d)
    images = np.concatenate([np.eye(4)[None], basis_images(d)])  # Delta(sigma_m), m = 0..3
    basis = np.array(BASIS)
    lhs = np.einsum("iml,mab,lcd->iacbd", c, images, basis).reshape(3, 8, 8)
    rhs = np.einsum("iml,mab,lcd->iacbd", c, basis, images).reshape(3, 8, 8)
    return bool(np.abs(lhs - rhs).max() <= tol)


def induced_qmap(d: DeltaCoefficients) -> QuadraticMapCoeffs:
    """Coefficients of the Bloch-ball map f -> Delta*(phi_f (x) phi_f).

    Quadratic vectors are read off the tensor block; the linear part is the
    (B1 + B2)-action, which reduces to twice the common block for
    symmetric operators.
    """
    T, S = d.T, d.B1 + d.B2
    return QuadraticMapCoeffs(
        a=T[0, 0],
        b=T[1, 1],
        c=T[2, 2],
        A=T[0, 1] + T[1, 0],
        B=T[1, 2] + T[2, 1],
        Gamma=T[0, 2] + T[2, 0],
        d=S[0],
        e=S[1],
        g=S[2],
    )


def pair_eval(d: DeltaCoefficients, phi: BlochState, psi: BlochState, x: PauliElement) -> complex:
    """(phi (x) psi)(Delta(x)) computed through the 4x4 matrix and product state."""
    rho = np.kron(phi.density_matrix(), psi.density_matrix())
    return complex(np.trace(rho @ apply(d, x)))
