"""Positivity certificates, closed-form spectra, and the positivity proof.

Every numerical spectrum comes from LAPACK through numpy (eigvalsh, eigh).
Closed forms from the coefficient picture are checked against it rather
than replacing it: simple_form_eigs covers images of the form
w0*1(x)1 + w.sigma(x)1 + 1(x)r.sigma, theorem_witness_eigs the probe
images of sphere-preserving trace-state operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import channel
from .channel import DeltaCoefficients, induced_qmap
from .errors import NotHaarFormError, NotHermitianError
from .pauli import TOL_ALG
from .qmap import QuadraticMapCoeffs, is_haar_form

TOL_EIG = 1e-9
# Vertices the branch and bound may solve before it gives up as marginal.
VERTEX_CAP = 20000


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
    """verdict None is marginal.  interval, where set, is a certified [lower, upper] around
    min over unit w of lambda_min Delta(1 + w.sigma); min_eigenvalue_seen is the least computed."""

    verdict: bool | None
    min_eigenvalue_seen: float
    witness: Witness | None = None
    interval: tuple | None = None


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
    """Deterministic probe directions: a, b, c (normalized), then e1, e2, e3."""
    quadratic = []
    for vec in (v.a, v.b, v.c):
        norm = np.linalg.norm(vec)
        if norm > 1e-12:
            quadratic.append(vec / norm)
    return np.vstack(quadratic + [np.eye(3)])


def _minima(d: DeltaCoefficients, W: np.ndarray) -> np.ndarray:
    """Rows (lambda_min Delta(1 + w.sigma), lambda_min Delta(1 - w.sigma)) for the rows w of W.

    One eigvalsh gives both, as Delta(1 - w.sigma) = 2*1(x)1 - Delta(1 + w.sigma).  Raises
    ValueError on a non-finite image: no verdict can be read from it."""
    images = channel.bloch_images(d, W)
    if not np.isfinite(images).all():
        raise ValueError("operator images overflow double precision; positivity cannot be decided")
    vals = np.linalg.eigvalsh(images)
    return np.column_stack([vals[:, 0], 2.0 - vals[:, -1]])


def _icosahedron() -> tuple:
    """Unit icosahedron vertices, and one face (vertex indices) of each antipodal pair."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    V = np.array([np.roll((0.0, s, t * phi), k) for k in range(3) for s in (1, -1) for t in (1, -1)])
    edge = np.abs(np.linalg.norm(V[:, None] - V[None], axis=2) - 2.0) < 1e-9
    faces = np.array([f for f in combinations(range(12), 3) if all(edge[i, j] for i, j in combinations(f, 2))])
    return V / np.linalg.norm(V, axis=1, keepdims=True), faces[[tuple(c) > tuple(-c) for c in V[faces].sum(axis=1)]]


ICOSAHEDRON, FACES = _icosahedron()


def check_positivity(d: DeltaCoefficients) -> PositivityVerdict:
    """Prove or refute positivity on the positive boundary inputs 1 + w.sigma.

    With M = channel.basis_images(d) and g(u) = lambda_max(u.M),
    lambda_min(Delta(1 + w.sigma)) = 1 - g(-w): Delta is positive iff g <= 1
    on the unit sphere (interior inputs are dominated; w0 = 1 suffices).
    Stages: (1) the probes, each scanned as +w, then -w, where
    sphere-preserving operators fail; (2) for T = 0, b = 0,
    g(u) = |B1 u| + |B2 u| <= |B1| + |B2|, which proves flat maxima such as
    linear(I/2)'s that no vertex bound can; (3) _branch_and_bound.
    verdict: True when the certified minimum is at least -TOL_EIG, False
    with a witness (the first probe, or a vertex, below -TOL_EIG), None
    (marginal) at VERTEX_CAP.  interval: upper is the least eigenvalue seen
    plus allowance; on a witness lower is 1 - sqrt(sum_i |M_i|^2) - allowance.

    allowance = 128 eps * scale, where scale = 1 + sum |entries of M| bounds
    |Delta(1 + w.sigma)| for |w| <= 1 and the Lipschitz constant of g.  It
    covers 64 eps * scale for building an image and eigvalsh (backward
    stable: Higham, Accuracy and Stability of Numerical Algorithms, ch. 10);
    8 eps * scale for cones the leaf triangles miss (a rounded midpoint lies
    within 8 eps of the plane of its edge, and a neighbour keeping the edge
    covers the gap); 32 eps * scale for the norms, centroids, <c, v_j> and
    the division, on bounds that pass only below 2.  A positive operator
    has |M_i| <= 1 (to TOL_EIG): there scale <= 25, allowance < 1e-12.
    """
    M = channel.basis_images(d)
    allowance = 128.0 * float(np.finfo(float).eps) * (1.0 + float(np.abs(M).sum()))
    W = _probe_directions(induced_qmap(d))
    mins = _minima(d, W).ravel()  # (w, +), (w, -), ...
    seen = float(mins.min())
    bad = np.nonzero(mins < -TOL_EIG)[0]
    if bad.size:
        first = int(bad[0])
        w = W[first // 2] if first % 2 == 0 else -W[first // 2]
        return _refuted(M, allowance, Witness(w=w, min_eigenvalue=float(mins[first])), seen)
    if not d.b.any() and not d.T.any():
        bound = operator_norm3(d.B1) + operator_norm3(d.B2) + allowance
        if 1.0 - bound >= -TOL_EIG:
            return PositivityVerdict(True, seen, interval=(1.0 - bound, seen + allowance))
    return _branch_and_bound(d, M, allowance, seen)


# perfbench traces and patches the check by its former name (tracing.py
# TARGETS, its tests), so the CLI calls it by that name.  ROADMAP item 6.
check_positivity_sampled = check_positivity


def _refuted(M: np.ndarray, allowance: float, witness: Witness, seen: float) -> PositivityVerdict:
    """Nonpositive verdict; its lower end from g(u) <= |u.M| <= sqrt(sum_i |M_i|^2) for unit u."""
    reach = float(np.linalg.norm(np.linalg.norm(M, 2, axis=(1, 2))))
    return PositivityVerdict(False, seen, witness, (1.0 - reach - allowance, seen + allowance))


def _branch_and_bound(d: DeltaCoefficients, M: np.ndarray, allowance: float, seen: float) -> PositivityVerdict:
    """Stage 3 of check_positivity: bound g on spherical triangles, splitting the open ones.

    g is sublinear, so u = sum_j mu_j v_j (mu_j >= 0) in the cone of a
    triangle with vertices v_j and unit centroid c has g(u) <= sum_j mu_j
    g(v_j) and 1 >= <c, u> >= sum_j mu_j min_j <c, v_j>: g(u) <= max(0,
    max_j g(v_j)) / min_j <c, v_j>.  One solve per vertex v gives g(+-v),
    so a face and its antipode share one bound, plus allowance; open faces
    split in four at their edge midpoints.  The first vertex batch with an
    eigenvalue below -TOL_EIG gives the witness, its most negative one.
    """
    V, F, g, fresh, settled_top = ICOSAHEDRON, FACES, np.empty((0, 2)), ICOSAHEDRON, 0.0
    while True:
        minima = _minima(d, fresh)
        seen = min(seen, float(minima.min()))
        if (minima < -TOL_EIG).any():
            k = int(np.argmin(minima))
            w = fresh[k // 2] if k % 2 == 0 else -fresh[k // 2]
            return _refuted(M, allowance, Witness(w=w, min_eigenvalue=float(minima.flat[k])), seen)
        g = np.vstack([g, 1.0 - minima])  # g(-v), g(v)
        c = V[F].sum(axis=1)
        cos = np.einsum("kd,kjd->kj", c / np.linalg.norm(c, axis=1, keepdims=True), V[F]).min(axis=1)
        bound = (np.maximum(0.0, g[F].max(axis=(1, 2))) + allowance) / cos
        settled = 1.0 - bound >= -TOL_EIG  # NaN stays open
        settled_top = max(settled_top, float(bound[settled].max(initial=0.0)))
        F = F[~settled]
        if not len(F):
            return PositivityVerdict(True, seen, interval=(1.0 - settled_top, seen + allowance))
        edges = np.sort(F[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
        pairs, slot = np.unique(edges, axis=0, return_inverse=True)
        if len(V) + len(pairs) > VERTEX_CAP:
            top = max(settled_top, float(bound[~settled].max()))
            return PositivityVerdict(None, seen, interval=(1.0 - top, seen + allowance))
        fresh = V[pairs[:, 0]] + V[pairs[:, 1]]
        fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
        corners = np.column_stack([F, len(V) + slot.reshape(-1, 3)])  # p, q, r, m_pq, m_qr, m_rp
        F = corners[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]].reshape(-1, 3)
        V = np.vstack([V, fresh])


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
