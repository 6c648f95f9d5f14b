"""The positivity proof: probes, a closed form for linear operators, and a branch and bound.

Every spectrum comes from LAPACK through numpy's eigvalsh, on the images
Delta(1 + w.sigma) of channel.bloch_images.  The paper's closed-form
spectra, and the |B| <= 1/2 criterion for linear operators, are the
tests' references for it, in tests/algebra_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import channel
from .channel import DeltaCoefficients, induced_qmap
from .qmap import QuadraticMapCoeffs

TOL_EIG = 1e-9
_EPS = float(np.finfo(float).eps)
# Vertices the branch and bound may solve before it gives up as marginal.
VERTEX_CAP = 20000


def operator_norm3(B: np.ndarray):
    """Largest singular value of a real 3x3 matrix, or of each in a stack (..., 3, 3).

    One batched LAPACK call; it returns the singular values in descending order.
    """
    return np.linalg.svd(np.asarray(B, dtype=float), compute_uv=False)[..., 0]


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
class Witness:
    """A positive input 1 + w.sigma whose image has a negative eigenvalue."""

    w: np.ndarray
    min_eigenvalue: float


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
class PositivityVerdict:
    """verdict None is marginal.  interval, where set, is a certified [lower, upper] around
    min over unit w of lambda_min Delta(1 + w.sigma); min_eigenvalue_seen is the least computed."""

    verdict: bool | None
    min_eigenvalue_seen: float
    witness: Witness | None = None
    interval: tuple | None = None


_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def _probe_directions(v: QuadraticMapCoeffs) -> np.ndarray:
    """Deterministic probe directions: a, b, c (normalized), then e1, e2, e3."""
    quadratic = []
    squares = v.gram.diagonal().tolist()
    for vec, square in zip((v.a, v.b, v.c), squares):
        norm = math.sqrt(square)  # the bits of np.linalg.norm on a real vector
        if norm > 1e-12:
            quadratic.append(vec / norm)
    return np.vstack(quadratic + [_EYE3])


def _minima(d: DeltaCoefficients, W: np.ndarray) -> np.ndarray:
    """Rows (lambda_min Delta(1 + w.sigma), lambda_min Delta(1 - w.sigma)) for the rows w of W.

    One eigvalsh gives both, as Delta(1 - w.sigma) = 2*1(x)1 - Delta(1 + w.sigma).  Raises
    ValueError on a non-finite image: no verdict can be read from it."""
    images = channel.bloch_images(d, W)
    if not np.isfinite(images).all():
        raise ValueError("operator images overflow double precision; positivity cannot be decided")
    minima = np.linalg.eigvalsh(images)[:, ::3]  # lambda_min, lambda_max: a view of a fresh array
    minima[:, 1] = 2.0 - minima[:, 1]
    return minima


def _icosahedron() -> tuple:
    """Unit icosahedron vertices, and one face (vertex indices) of each antipodal pair."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    V = np.array([np.roll((0.0, s, t * phi), k) for k in range(3) for s in (1, -1) for t in (1, -1)])
    edge = np.abs(np.linalg.norm(V[:, None] - V[None], axis=2) - 2.0) < 1e-9
    faces = np.array([f for f in combinations(range(12), 3) if all(edge[i, j] for i, j in combinations(f, 2))])
    return V / np.linalg.norm(V, axis=1, keepdims=True), faces[[tuple(c) > tuple(-c) for c in V[faces].sum(axis=1)]]


def _face_cos(V: np.ndarray, F: np.ndarray) -> np.ndarray:
    """min_j <c, v_j> of each face (row of F) with vertices v_j in V and unit centroid c."""
    corners = V[F]
    c = corners.sum(axis=1)
    return np.einsum("kd,kjd->kj", c / np.linalg.norm(c, axis=1, keepdims=True), corners).min(axis=1)


ICOSAHEDRON, FACES = _icosahedron()
FACE_COS = _face_cos(ICOSAHEDRON, FACES)
for _table in (ICOSAHEDRON, FACES, FACE_COS):
    _table.setflags(write=False)


def split_faces(V: np.ndarray, F: np.ndarray) -> tuple:
    """Split each face (row of F, indices into V) in four at its unit edge midpoints; returns the new (V, F).

    The midpoint of an edge is one new vertex, appended to V, however many
    faces share the edge.  Face k = (p, q, r) becomes rows 4k ... 4k+3:
    (p, m_pq, m_rp), (m_pq, q, m_qr), (m_rp, m_qr, r), (m_pq, m_qr, m_rp).
    """
    n = len(V)
    ahead = F[:, [1, 2, 0]]
    # Keys p * n + q (p < q < n) of the edges pq, qr, rp sort as the pairs (p, q) do.
    keys, slot = np.unique((np.minimum(F, ahead) * n + np.maximum(F, ahead)).ravel(), return_inverse=True)
    p, q = np.divmod(keys, n)
    fresh = V[p] + V[q]
    fresh /= np.sqrt((fresh * fresh).sum(axis=1))[:, None]
    corners = np.concatenate([F, n + slot.reshape(-1, 3)], axis=1)  # p, q, r, m_pq, m_qr, m_rp
    return np.concatenate([V, fresh]), corners[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]].reshape(-1, 3)


def check_positivity(d: DeltaCoefficients) -> PositivityVerdict:
    """Prove or refute positivity on the positive boundary inputs 1 + w.sigma.

    With M = channel.basis_images(d) and g(u) = lambda_max(u.M),
    lambda_min(Delta(1 + w.sigma)) = 1 - g(-w): Delta is positive iff g <= 1
    on the unit sphere (interior inputs are dominated; w0 = 1 suffices).
    Stages: (1) the probes, each scanned as +w, then -w, where
    sphere-preserving operators fail; (2) for T = 0, b = 0,
    g(u) = |B1 u| + |B2 u| <= |B1| + |B2|, which proves flat maxima such as
    linear(I/2)'s that no vertex bound can; (3) _branch_and_bound, whose
    faces carry their geometry min_j <c, v_j> from where they are created
    (FACE_COS, computed at import, for the 10 icosahedron face pairs).
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
    allowance = 128.0 * _EPS * (1.0 + float(np.abs(M).sum()))
    W = _probe_directions(induced_qmap(d))
    mins = _minima(d, W).ravel()  # (w, +), (w, -), ...
    seen = float(mins.min())
    bad = (mins < -TOL_EIG).nonzero()[0]
    if bad.size:
        first = int(bad[0])
        w = W[first // 2] if first % 2 == 0 else -W[first // 2]
        return _refuted(M, allowance, Witness(w=w, min_eigenvalue=float(mins[first])), seen)
    if not d.b.any() and not d.T.any():
        norm1, norm2 = operator_norm3(np.stack([d.B1, d.B2]))
        bound = float(norm1) + float(norm2) + allowance
        if 1.0 - bound >= -TOL_EIG:
            return PositivityVerdict(True, seen, interval=(1.0 - bound, seen + allowance))
    return _branch_and_bound(d, M, allowance, seen)


# perfbench traces and patches the check by its former name (tracing.py
# TARGETS, its tests), so the CLI calls it by that name.  ROADMAP item 6.
check_positivity_sampled = check_positivity


def _refuted(M: np.ndarray, allowance: float, witness: Witness, seen: float) -> PositivityVerdict:
    """Nonpositive verdict; its lower end from g(u) <= |u.M| <= sqrt(sum_i |M_i|^2) for unit u."""
    s = np.linalg.svd(M, compute_uv=False)[:, 0]  # |M_i|: the values come sorted descending
    reach = math.sqrt(s @ s)
    return PositivityVerdict(False, seen, witness, (1.0 - reach - allowance, seen + allowance))


def _branch_and_bound(d: DeltaCoefficients, M: np.ndarray, allowance: float, seen: float) -> PositivityVerdict:
    """Stage 3 of check_positivity: bound g on spherical triangles, splitting the open ones.

    g is sublinear, so u = sum_j mu_j v_j (mu_j >= 0) in the cone of a
    triangle with vertices v_j and unit centroid c has g(u) <= sum_j mu_j
    g(v_j) and 1 >= <c, u> >= sum_j mu_j min_j <c, v_j>: g(u) <= max(0,
    max_j g(v_j)) / min_j <c, v_j>.  One solve per vertex v gives g(+-v),
    so a face and its antipode share one bound, plus allowance; open faces
    split in four (split_faces).  min_j <c, v_j> is computed once
    per face, where the face is created (FACE_COS for the icosahedron).  The
    first vertex batch with an eigenvalue below -TOL_EIG gives the witness,
    its most negative one.
    """
    V, F, cos, g, fresh, settled_top = ICOSAHEDRON, FACES, FACE_COS, np.empty((0, 2)), ICOSAHEDRON, 0.0
    while True:
        minima = _minima(d, fresh)
        seen = min(seen, float(minima.min()))
        if (minima < -TOL_EIG).any():
            k = int(minima.argmin())
            w = fresh[k // 2] if k % 2 == 0 else -fresh[k // 2]
            return _refuted(M, allowance, Witness(w=w, min_eigenvalue=float(minima.flat[k])), seen)
        g = np.vstack([g, 1.0 - minima])  # g(-v), g(v)
        bound = (np.maximum(0.0, g[F].max(axis=(1, 2))) + allowance) / cos
        settled = 1.0 - bound >= -TOL_EIG  # NaN stays open
        settled_top = max(settled_top, float(bound[settled].max(initial=0.0)))
        F = F[~settled]
        if not len(F):
            return PositivityVerdict(True, seen, interval=(1.0 - settled_top, seen + allowance))
        n = len(V)
        V, F = split_faces(V, F)
        if len(V) > VERTEX_CAP:
            top = max(settled_top, float(bound[~settled].max()))
            return PositivityVerdict(None, seen, interval=(1.0 - top, seen + allowance))
        fresh = V[n:]
        cos = _face_cos(V, F)
