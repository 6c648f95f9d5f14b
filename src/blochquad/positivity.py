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
# Sphere directions per oracle step.  2048 was the fastest of 1024-8192 in
# the oracle on 100k directions: larger chunks leave the cache.
CHUNK = 2048


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


def _probe_directions(v: QuadraticMapCoeffs) -> np.ndarray:
    """Deterministic probe directions: a, b, c (normalized), then e1, e2, e3.

    The oracle scans each direction with both signs, so the probe sequence
    is +-a, +-b, +-c, +-e1, +-e2, +-e3.
    """
    quadratic = []
    for vec in (v.a, v.b, v.c):
        norm = np.linalg.norm(vec)
        if norm > 1e-12:
            quadratic.append(vec / norm)
    return np.vstack(quadratic + [np.eye(3)])


def _batches(d: DeltaCoefficients, samples: int, seed: int):
    """The probe directions, then `samples` sphere points in chunks of CHUNK rows.

    A generator, so each chunk is drawn only when the caller goes on past
    the previous one.  The chunks come from one seeded stream, so they are
    the rows of sphere_points(generator(seed), samples) in order.
    """
    yield _probe_directions(induced_qmap(d))
    rng = sampling.generator(seed)
    for start in range(0, samples, CHUNK):
        yield sampling.sphere_points(rng, min(CHUNK, samples - start))


def _clears(X: np.ndarray, t: float, floor: float) -> np.ndarray:
    """Rows of the Hermitian stack X whose eigvalsh spectrum is certainly above t.

    A row clears when every pivot of the LDL^H factorisation of
    X - (t + floor) I, read from the lower triangle as eigvalsh reads it,
    exceeds floor.  With floor >= 256 eps * s, where s bounds ||X|| and |t|
    (derived in check_positivity_sampled), every eigenvalue eigvalsh
    computes for a cleared row is above t: a row whose eigvalsh minimum is
    at or below t never clears.
    A NaN pivot does not clear.  Once a row fails, its multipliers are
    zero; while it clears, its pivots above floor bound every multiplier by
    ||X|| / floor, so no entry overflows for ||X|| up to about 1e200.
    """
    n = len(X)
    A = np.ascontiguousarray(X.transpose(1, 2, 0))  # A[i, k] holds entry (i, k) of every row
    ok = np.ones(n, dtype=bool)
    for j in range(4):
        d = A[j, j].real - (t + floor)
        ok &= d > floor
        if j == 3:
            return ok
        r = np.divide(1.0, d, out=np.zeros(n), where=ok)
        for i in range(j + 1, 4):
            l = A[i, j] * r
            for k in range(j + 1, i + 1):
                A[i, k] -= l * A[k, j].conj()


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
    non-finite entry, because no verdict can be read from it.

    Screen, then solve: most directions can change neither the verdict, the
    witness nor the minimum, so they get a sign test instead of an eigen
    solve.  The probes and the first CHUNK sphere directions are solved
    with eigvalsh, which seeds the running minimum m.  Every later chunk
    goes through _clears at t = max(-TOL_EIG, m - margin) on both signs
    (the image of -w is 2*1(x)1 - X), and only the directions that do not
    clear are solved, in sample order.  Both minima of a cleared direction
    are above t, so it is not a witness and lowers the minimum by less
    than margin: verdict and witness are those of solving every direction,
    and min_eigenvalue_seen is within margin of that exhaustive minimum,
    byte-identical to it unless the minimum is flat to rounding (as on the
    |B| = 1/2 linear operators, where it is 0 in every direction).

    The constants, with scale = 1 + sum |entries of basis_images(d)|, which
    bounds ||X|| for every image X since |w_i| <= 1:
      margin = 1e-12 * scale.
      floor = 256 eps * scale.  When every computed pivot of
        X - (t + floor) I exceeds floor > 0, the computed factors are an
        exact LDL^H factorisation, with positive pivots, of
        X - (t + floor) I + E, so lambda_min(X) > t + floor - ||E||.  The
        backward error is ||E|| <= n gamma_{n+1} ||X - (t + floor) I||
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10):
        about 10 eps in real arithmetic for n = 4, a few times that in
        complex, so below 32 eps * 2 scale, as -TOL_EIG <= t <= 1 (m <= 1,
        since lambda_min + 2 - lambda_max <= 2).  eigvalsh is backward
        stable; for 4x4 it misplaces no eigenvalue by more than
        64 eps * scale.  floor covers the sum twice over, so every
        eigenvalue eigvalsh computes for a cleared image is above t.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    scale = 1.0 + float(np.abs(channel.basis_images(d)).sum())
    margin = 1e-12 * scale
    floor = 256.0 * np.finfo(float).eps * scale
    min_seen = np.inf
    for k, W in enumerate(_batches(d, samples, seed)):
        images = channel.bloch_images(d, W)
        if not np.isfinite(images).all():
            raise ValueError("operator images overflow double precision; positivity cannot be decided")
        rows = np.arange(len(W))
        if k >= 2:  # the probes and the first sphere chunk are solved in full
            t = max(-TOL_EIG, min_seen - margin)
            cleared = _clears(images, t, floor) & _clears(2.0 * np.eye(4) - images, t, floor)
            rows = rows[~cleared]
            if not rows.size:
                continue
        vals = np.linalg.eigvalsh(images[rows])
        mins = np.column_stack([vals[:, 0], 2.0 - vals[:, -1]]).ravel()  # (w, +), (w, -), ...
        bad = np.nonzero(mins < -TOL_EIG)[0]
        if bad.size:
            first = int(bad[0])
            w = W[rows[first // 2]] if first % 2 == 0 else -W[rows[first // 2]]
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
