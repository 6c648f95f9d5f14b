"""The Pauli basis of M_2(C), its tensor square, and the shared numeric guards.

Every x in M_2(C) is x = w0*1 + w.sigma with w0 in C, w in C^3; x is
self-adjoint iff w0 and w are real, and then x >= 0 iff |w| <= w0.
States are real 3-vectors f with |f| <= 1 acting as
phi(w0*1 + w.sigma) = w0 + <w, f>; pure states are exactly |f| = 1.
The package works on the coefficients alone: this module holds the basis
matrices and kron for the 4x4 tensor basis, vector_norm for Bloch
vectors, and checked_tol, the one guard on a caller's tolerance.
"""

from __future__ import annotations

import math

import numpy as np

# Rounding-noise tolerances for closed-form arithmetic on unit-scale data.
# TOL_ALG is the default tolerance of every check in channel, qmap and
# purity, and of inspect --tol; is_haar_form and check_linear_isometry use it alone.
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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 blocks, layout (a11*b a12*b / a21*b a22*b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("kron expects two 2x2 matrices")
    return np.kron(a, b)
