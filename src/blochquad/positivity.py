"""Positivity certificates, closed-form spectra, and the sampled oracle.

Every numerical spectrum comes from LAPACK through numpy (eigvalsh, eigh).
Closed forms from the coefficient picture are checked against it rather
than replacing it: simple_form_eigs covers images of the form
w0*1(x)1 + w.sigma(x)1 + 1(x)r.sigma, theorem_witness_eigs the probe
images of sphere-preserving trace-state operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, sampling
from .channel import DeltaCoefficients, induced_qmap
from .errors import NotHaarFormError, NotHermitianError
from .pauli import TOL_ALG
from .qmap import QuadraticMapCoeffs, is_haar_form

TOL_EIG = 1e-9


def eigvals_hermitian4(h: np.ndarray, tol: float = TOL_ALG) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian 4x4 matrix."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    defect = float(np.abs(h - h.conj().T).max())
    if not defect <= tol:  # a NaN defect fails too
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


def simple_form_eigs(w0: float, w, r) -> np.ndarray:
    """Spectrum of w0*1(x)1 + w.sigma(x)1 + 1(x)r.sigma.

    The four values are w0 -|r|+|w|, w0 -|r|-|w|, w0 +|r|+|w|, w0 +|r|-|w|;
    the element is positive iff |w| + |r| <= w0.
    """
    nw = float(np.linalg.norm(np.asarray(w, dtype=float)))
    nr = float(np.linalg.norm(np.asarray(r, dtype=float)))
    return np.array([w0 - nr + nw, w0 - nr - nw, w0 + nr + nw, w0 + nr - nw])


def operator_norm3(B: np.ndarray) -> float:
    """Largest singular value of a real 3x3 matrix."""
    return float(np.linalg.norm(np.asarray(B, dtype=float), 2))


@dataclass(frozen=True)
class Witness:
    """A positive input 1 + w.sigma whose image has a negative eigenvalue."""

    w: np.ndarray
    min_eigenvalue: float


@dataclass(frozen=True)
class PositivityVerdict:
    verdict: bool
    min_eigenvalue_seen: float
    witness: Witness | None = None


def check_linear_positivity(B: np.ndarray, tol: float = TOL_EIG) -> PositivityVerdict:
    """Positivity of the purely linear operator with common block B: |B| <= 1/2.

    When the criterion fails, the top right-singular direction w of B is a
    witness: the image of 1 + w.sigma has smallest eigenvalue 1 - 2|Bw| < 0.
    """
    B = np.asarray(B, dtype=float)
    vals, vecs = np.linalg.eigh(B.T @ B)
    norm = float(np.sqrt(max(vals[-1], 0.0)))
    min_eig = 1.0 - 2.0 * norm
    if norm <= 0.5 + tol:
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


@np.errstate(over="ignore")
def _probe_directions(v: QuadraticMapCoeffs) -> np.ndarray:
    """Deterministic probe directions: a, b, c (normalized), then e1, e2, e3.

    The oracle scans each direction with both signs, so the probe sequence
    is +-a, +-b, +-c, +-e1, +-e2, +-e3.  A vector whose norm overflows is
    divided by its largest entry before it is normalized.
    """
    quadratic = []
    for vec in (v.a, v.b, v.c):
        norm = np.linalg.norm(vec)
        if not np.isfinite(norm):
            vec = vec / np.abs(vec).max()
            norm = np.linalg.norm(vec)
        if norm > 1e-12:
            quadratic.append(vec / norm)
    return np.vstack(quadratic + [np.eye(3)])


def _batches(d: DeltaCoefficients, samples: int, seed: int):
    """The probe directions, then the sphere points.

    A generator, so the sphere points are drawn only when the caller goes
    on past the probes.
    """
    yield _probe_directions(induced_qmap(d))
    if samples > 0:
        yield sampling.sphere_points(sampling.generator(seed), samples)


def check_positivity_sampled(d: DeltaCoefficients, samples: int, seed: int) -> PositivityVerdict:
    """Sampled positivity oracle over the positive boundary inputs 1 + w.sigma.

    Scans the deterministic probes first (sphere violations of
    sphere-preserving operators occur at the quadratic coefficient
    directions) and, only when they all pass, `samples` seeded sphere
    directions.  Each direction w is scanned as +w, then -w, from one
    eigen solve: Delta(1) = 1(x)1, so Delta(1 - w.sigma) =
    2*1(x)1 - Delta(1 + w.sigma), whose smallest eigenvalue is 2 minus the
    largest of Delta(1 + w.sigma).  Interior inputs are dominated and not
    scanned: lambda_min(Delta(1 + r u.sigma)) =
    (1-r) + r*lambda_min(Delta(1 + u.sigma)) for 0 <= r <= 1.  Stops at
    the first eigenvalue below -TOL_EIG; positivity is scale-invariant, so
    w0 = 1 inputs suffice.  Raises ValueError when an image has a
    non-finite entry, because no verdict can be read from it; the image
    assembly runs with numpy's overflow and invalid warnings off, so that
    case reaches the caller as the error alone.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    min_seen = np.inf
    for W in _batches(d, samples, seed):
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite images are refused below
            images = channel.bloch_images(d, W)
        if not np.isfinite(images).all():
            raise ValueError("operator images overflow double precision; positivity cannot be decided")
        vals = np.linalg.eigvalsh(images)
        mins = np.column_stack([vals[:, 0], 2.0 - vals[:, -1]]).ravel()  # (w, +), (w, -), ...
        bad = np.nonzero(mins < -TOL_EIG)[0]
        if bad.size:
            first = int(bad[0])
            w = W[first // 2] if first % 2 == 0 else -W[first // 2]
            return PositivityVerdict(
                verdict=False,
                min_eigenvalue_seen=min(min_seen, float(mins[: first + 1].min())),
                witness=Witness(w=w, min_eigenvalue=float(mins[first])),
            )
        min_seen = min(min_seen, float(mins.min()))
    return PositivityVerdict(verdict=True, min_eigenvalue_seen=min_seen)


def theorem_witness_eigs(v: QuadraticMapCoeffs) -> dict:
    """Closed-form spectra of the probe images 1 + a.sigma, 1 + b.sigma, 1 + c.sigma.

    For a sphere-preserving trace-state map the image of 1 + a.sigma has
    eigenvalues -<c,a>-<b,a>, <c,a>+<b,a>, 2 +- sqrt((<b,a>-<c,a>)^2 + <B,a>^2),
    and analogously for b (with Gamma) and c (with A).  One of the first
    two is always <= 0, which is what the sampled oracle rediscovers.
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
