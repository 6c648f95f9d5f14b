"""The paper's closed forms and the Pauli object layer, kept as test references.

No command runs them; the tests check blochquad's images and proofs
against them.  PauliElement and BlochState hold an element w0*1 + w.sigma
of M_2(C) and a state's Bloch vector f, and recompose gives the 2x2
matrix; swap_conjugate and the partial traces act on one 4x4 matrix at a
time.  apply builds Delta(x) from the basis images, apply_haar_closed_form
entry by entry from HaarEntries; pair_eval takes the pair functional
(phi (x) psi)(Delta(x)) through the matrix and dual_pair in closed form.
simple_form_eigs and theorem_witness_eigs are closed-form spectra, and
check_linear_positivity is the |B| <= 1/2 criterion for linear operators.
A failed precondition raises ValueError, or NotHaarFormError where linear
terms are present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from blochquad.channel import DeltaCoefficients, basis_images, induced_qmap, is_symmetric
from blochquad.pauli import ID2, SIGMAS, TOL_ALG, TOL_STATE, checked_tol, vector_norm
from blochquad.positivity import TOL_EIG, PositivityVerdict, Witness
from blochquad.qmap import QuadraticMapCoeffs, is_haar_form


class NotHaarFormError(ValueError):
    """Operator or map carries linear terms where a trace-state form is required."""


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


def recompose(p: PauliElement) -> np.ndarray:
    """The matrix w0*1 + w.sigma."""
    m = p.w0 * ID2
    for wk, s in zip(p.w, SIGMAS):
        m = m + wk * s
    return m


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


def apply(d: DeltaCoefficients, x: PauliElement) -> np.ndarray:
    """The 4x4 matrix Delta(x) = w0 * 1(x)1 + sum_i w_i Delta(sigma_i)."""
    return x.w0 * np.eye(4) + np.tensordot(x.w, basis_images(d), axes=1)


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
        raise ValueError("closed form requires a symmetric tensor block")
    if not x.is_self_adjoint():
        raise ValueError("closed form requires a self-adjoint input")
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


def dual_pair(d: DeltaCoefficients, phi: BlochState, psi: BlochState) -> np.ndarray:
    """Bloch vector of the pair functional (phi, psi) pulled back through Delta.

    For a symmetric operator with linear block B, component k is
    sum_j B[j,k] (p_j + f_j) + sum_{i,j} T[i,j,k] f_i p_j; with phi = psi
    this is exactly the induced quadratic map evaluated at f.
    """
    if not is_symmetric(d):
        raise ValueError("dual_pair requires a symmetric operator")
    f, p = phi.f, psi.f
    return d.B1.T @ (p + f) + np.einsum("ijk,i,j->k", d.T, f, p)


def pair_eval(d: DeltaCoefficients, phi: BlochState, psi: BlochState, x: PauliElement) -> complex:
    """(phi (x) psi)(Delta(x)) computed through the 4x4 matrix and product state."""
    rho = np.kron(phi.density_matrix(), psi.density_matrix())
    return complex(np.trace(rho @ apply(d, x)))


def simple_form_eigs(w0: float, w, r) -> np.ndarray:
    """Spectrum of w0*1(x)1 + w.sigma(x)1 + 1(x)r.sigma.

    The four values are w0 -|r|+|w|, w0 -|r|-|w|, w0 +|r|+|w|, w0 +|r|-|w|;
    the element is positive iff |w| + |r| <= w0.
    """
    nw = float(np.linalg.norm(np.asarray(w, dtype=float)))
    nr = float(np.linalg.norm(np.asarray(r, dtype=float)))
    return np.array([w0 - nr + nw, w0 - nr - nw, w0 + nr + nw, w0 + nr - nw])


def check_linear_positivity(B: np.ndarray, tol: float = TOL_EIG) -> PositivityVerdict:
    """Positivity of the purely linear operator with common block B: |B| <= 1/2.

    Accepts when 1 - 2|B| >= -tol, the acceptance line of check_positivity.
    When the criterion fails, the top right-singular direction w of B is a
    witness: the image of 1 + w.sigma has smallest eigenvalue 1 - 2|Bw| < 0.
    """
    B = np.asarray(B, dtype=float)
    vals, vecs = np.linalg.eigh(B.T @ B)
    norm = float(np.sqrt(max(vals[-1], 0.0)))
    min_eig = 1.0 - 2.0 * norm
    if min_eig >= -checked_tol(tol):
        return PositivityVerdict(verdict=True, min_eigenvalue_seen=min_eig)
    w = vecs[:, -1]
    nonzero = np.nonzero(np.abs(w) > 1e-12)[0]
    if nonzero.size and w[nonzero[0]] < 0:  # fix the sign for determinism
        w = -w
    return PositivityVerdict(
        verdict=False,
        min_eigenvalue_seen=min_eig,
        witness=Witness(w=w, min_eigenvalue=min_eig),
    )


def theorem_witness_eigs(v: QuadraticMapCoeffs) -> dict:
    """Closed-form spectra of the probe images 1 + a.sigma, 1 + b.sigma, 1 + c.sigma.

    For a sphere-preserving trace-state map the image of 1 + a.sigma has
    eigenvalues -<c,a>-<b,a>, <c,a>+<b,a>, 2 +- sqrt((<b,a>-<c,a>)^2 + <B,a>^2),
    and analogously for b (with Gamma) and c (with A).  One of the first
    two is always <= 0, which is what the probes of check_positivity find.
    """
    if not is_haar_form(v):
        raise NotHaarFormError("witness spectra require a map without linear terms")

    def quad(x, y, probe, cross):
        s = float(np.sqrt((x - y) ** 2 + float(cross @ probe) ** 2))
        return np.array([-x - y, x + y, 2.0 + s, 2.0 - s])

    return {
        "a": quad(float(v.b @ v.a), float(v.c @ v.a), v.a, v.B),
        "b": quad(float(v.a @ v.b), float(v.c @ v.b), v.b, v.Gamma),
        "c": quad(float(v.a @ v.c), float(v.b @ v.c), v.c, v.A),
    }
