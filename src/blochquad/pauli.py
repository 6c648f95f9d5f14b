"""Pauli-basis algebra for 2x2 / 4x4 complex matrices and the Bloch picture.

Every x in M_2(C) is x = w0*1 + w.sigma with w0 in C, w in C^3; x is
self-adjoint iff w0 and w are real, and then x >= 0 iff |w| <= w0.
States are real 3-vectors f with |f| <= 1 acting as
phi(w0*1 + w.sigma) = w0 + <w, f>; pure states are exactly |f| = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSelfAdjointError

# Rounding-noise tolerances for closed-form arithmetic on unit-scale data.
TOL_ALG = 1e-9
TOL_STATE = 1e-9


def checked_tol(tol: float) -> float:
    """tol itself; ValueError unless it is a finite number at least 0.

    Every library check that compares a residual with a caller's tol takes
    it through here: at tol = inf, `residual <= tol` passes every operator.
    """
    if not 0.0 <= tol < math.inf:  # a NaN fails too
        raise ValueError(f"tol must be a finite number at least 0, got {tol}")
    return tol


def vector_norm(x: np.ndarray) -> float:
    """|x| for a real 3-vector: math.sqrt(x @ x), the bits of np.linalg.norm, without its dispatch.

    Where an entry exceeds 1e153 in magnitude, so that x @ x may overflow,
    it is math.hypot of the entries instead: the true norm, and no warning.
    """
    entries = x.tolist()
    if max(map(abs, entries)) <= 1e153:
        return math.sqrt(x @ x)
    return math.hypot(*entries)


ID2 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMAS = (SIGMA1, SIGMA2, SIGMA3)

# Basis convention is fixed as (1, sigma1, sigma2, sigma3); the 4x4 tensor
# basis is kron(e_m, e_l) with the first index outermost.
BASIS = (ID2, SIGMA1, SIGMA2, SIGMA3)


def _complex_vector3(value) -> np.ndarray:
    arr = np.array(value, dtype=complex)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PauliElement:
    """Element of M_2(C) stored as (w0, w) in the basis (1, sigma1, sigma2, sigma3)."""

    w0: complex
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w0", complex(self.w0))
        object.__setattr__(self, "w", _complex_vector3(self.w))

    def self_adjoint_residue(self) -> float:
        """Largest imaginary part among the coefficients."""
        return max(abs(self.w0.imag), float(np.abs(self.w.imag).max()))

    def is_self_adjoint(self, tol: float = TOL_ALG) -> bool:
        return self.self_adjoint_residue() <= checked_tol(tol)

    def conjugate(self) -> "PauliElement":
        """Coefficients of the adjoint x*: both w0 and w get conjugated."""
        return PauliElement(np.conj(self.w0), np.conj(self.w))


@dataclass(frozen=True)
class BlochState:
    """State of M_2(C) as a Bloch vector f, |f| <= 1; pure iff |f| = 1."""

    f: np.ndarray

    def __post_init__(self):
        arr = np.array(self.f, dtype=float)
        if arr.shape != (3,):
            raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Bloch vector must be finite")
        norm = vector_norm(arr)
        if norm > 1.0 + TOL_STATE:
            raise ValueError(f"Bloch vector norm {norm} exceeds 1")
        arr.setflags(write=False)
        object.__setattr__(self, "f", arr)

    @property
    def norm(self) -> float:
        return vector_norm(self.f)

    @property
    def is_pure(self) -> bool:
        return abs(self.norm - 1.0) <= TOL_STATE

    def density_matrix(self) -> np.ndarray:
        """The 2x2 density matrix (1 + f.sigma)/2 representing this state."""
        return recompose(PauliElement(0.5, 0.5 * self.f))


def decompose(m: np.ndarray) -> PauliElement:
    """Coefficients of a 2x2 matrix: w0 = Tr(m)/2, w_k = Tr(m sigma_k)/2."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    w0 = np.trace(m) / 2.0
    w = np.array([np.trace(m @ s) / 2.0 for s in SIGMAS])
    return PauliElement(w0, w)


def recompose(p: PauliElement) -> np.ndarray:
    """Inverse of decompose: the matrix w0*1 + w.sigma."""
    m = p.w0 * ID2
    for wk, s in zip(p.w, SIGMAS):
        m = m + wk * s
    return m


def is_positive_element(p: PauliElement, tol: float = TOL_ALG) -> bool:
    """Positivity test |w| <= w0 for a self-adjoint element; |w| is vector_norm's, true where |w|^2 overflows."""
    if not p.is_self_adjoint(tol):
        raise NotSelfAdjointError(
            f"imaginary residue {p.self_adjoint_residue():.3e} exceeds {tol:.1e}"
        )
    return vector_norm(p.w.real) <= p.w0.real + tol


def state_eval(s: BlochState, p: PauliElement) -> complex:
    """phi(w0*1 + w.sigma) = w0 + <w, f> for the state with Bloch vector f."""
    return p.w0 + complex(np.dot(p.w, s.f))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 blocks, layout (a11*b a12*b / a21*b a22*b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("kron expects two 2x2 matrices")
    return np.kron(a, b)


def swap_conjugate(m: np.ndarray) -> np.ndarray:
    """Conjugate a 4x4 matrix by the tensor swap U(x (x) y) = y (x) x.

    U permutes the product basis indices (1,2,3,4) -> (1,3,2,4), so the
    result is m reindexed by that permutation on rows and columns.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    idx = np.array([0, 2, 1, 3])
    return m[np.ix_(idx, idx)]


def partial_trace_right(m: np.ndarray) -> np.ndarray:
    """(id (x) tau) of a 4x4 matrix, tau the normalized trace on the right leg."""
    m = np.asarray(m, dtype=complex).reshape(2, 2, 2, 2)
    return 0.5 * np.einsum("ikjk->ij", m)


def partial_trace_left(m: np.ndarray) -> np.ndarray:
    """(tau (x) id) of a 4x4 matrix, tau the normalized trace on the left leg."""
    m = np.asarray(m, dtype=complex).reshape(2, 2, 2, 2)
    return 0.5 * np.einsum("kikj->ij", m)
