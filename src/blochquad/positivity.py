"""The positivity proof: probes, an exact certificate for linear operators, a norm bound, and a branch and bound.

check_positivity runs four stages, and its verdict names the one that
decided: probes (with the top singular directions of B1 and B2 for
T = 0, b = 0), the S-lemma certificate for T = 0, b = 0, the norm bound
sqrt(sum_i |Delta(sigma_i)|^2) <= 1, whose norms are read off the axis
probes, and a branch and bound on the sphere.  Every spectrum comes from
LAPACK: eigvalsh on the images Delta(1 + w.sigma) of channel.bloch_images,
eigh on the certificate's 3x3 matrices, and one SVD of B1 and B2 for
T = 0, b = 0.  The
paper's closed-form spectra, and the |B| <= 1/2 criterion for linear
operators, are the tests' references for it, in tests/algebra_reference.py.
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
# Rounds of the linear certificate's search before it hands over.
SEARCH_ROUNDS = 16
# Ascent steps from the circle point that a linear proof's upper end takes.
ASCENT_STEPS = 8


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
class Witness:
    """A positive input 1 + w.sigma whose image has a negative eigenvalue."""

    w: np.ndarray
    min_eigenvalue: float


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
class PositivityVerdict:
    """verdict None is marginal.  interval, where set, is a certified [lower, upper] around
    min over unit w of lambda_min Delta(1 + w.sigma); min_eigenvalue_seen is the least computed.
    stage names the stage of check_positivity that decided it: "probe", "linear",
    "norm" or "branch-and-bound"; l_star is the linear certificate's l."""

    verdict: bool | None
    min_eigenvalue_seen: float
    witness: Witness | None = None
    interval: tuple | None = None
    stage: str | None = None
    l_star: float | None = None


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
    The stage that decides is the verdict's stage:
    (1) "probe": the probes, each scanned as +w, then -w, where
        sphere-preserving operators fail; for T = 0, b = 0 the top right
        singular vectors of B1 and B2 follow them;
    (2) "linear", for T = 0, b = 0, where g(u) = |B1 u| + |B2 u|:
        _linear_certificate, exact by the S-lemma;
    (3) "norm", otherwise: g(u) <= |u.M| <= reach = sqrt(sum_i |M_i|^2),
        with |M_i| = max(g(e_i), g(-e_i)) read off the probes' last rows
        e1, e2, e3, so the probes' one eigvalsh gives both;
    (4) "branch-and-bound": _branch_and_bound, whose faces carry their
        geometry min_j <c, v_j> from where they are created (FACE_COS,
        computed at import, for the 10 icosahedron face pairs).
    verdict: True when the certified minimum is at least -TOL_EIG, False
    with a witness (the first probe, a certificate's eigenvector or a
    vertex below -TOL_EIG), None (marginal) at VERTEX_CAP; only operators
    with T != 0 or b != 0, or linear ones whose minimum is within allowance
    of -TOL_EIG, can be marginal.  interval: upper is the least
    eigenvalue seen plus allowance (the linear certificate's search also
    takes 1 - g at the points it solved); on a witness lower is
    1 - |B1| - |B2| - allowance for T = 0, b = 0 and 1 - reach - allowance
    otherwise.

    allowance = 128 eps * scale, where scale = 1 + sum |entries of M| bounds
    |Delta(1 + w.sigma)| for |w| <= 1 and the Lipschitz constant of g.  It
    covers 64 eps * scale for building an image and eigvalsh (backward
    stable: Higham, Accuracy and Stability of Numerical Algorithms, ch. 10);
    8 eps * scale for cones the leaf triangles miss (a rounded midpoint lies
    within 8 eps of the plane of its edge, and a neighbour keeping the edge
    covers the gap); 32 eps * scale for the norms, centroids, <c, v_j> and
    the division, on bounds that pass only below 2.  reach errs by under
    120 eps * scale: the probe e_i's image is 1 + M_i, where only the four
    diagonal entries round, so each |M_i| is off by the 64 eps * scale of
    building an image and eigvalsh, plus 2u * scale for 2 - lambda_max and
    1 - min; the three errors by sqrt(3) * 66 eps * scale in 2-norm, the
    sum and root by 4 eps * reach, with reach <= scale, and the
    subtractions of floor by eps * scale.  A positive operator has
    |M_i| <= 1 (to TOL_EIG): there scale <= 25, allowance < 1e-12.
    """
    M = channel.basis_images(d)
    allowance = 128.0 * _EPS * (1.0 + float(np.abs(M).sum()))
    W = _probe_directions(induced_qmap(d))
    linear = len(W) == 3 and not d.T.any() and not d.b.any()  # a quadratic probe needs T != 0
    if linear:
        _, s, vt = np.linalg.svd(np.stack([d.B1, d.B2]))  # |B1|, |B2| and their top right singular vectors
        norms = s[:, 0].tolist()
        floor = 1.0 - norms[0] - norms[1] - allowance
        if floor < -TOL_EIG:  # else g <= |B1| + |B2| settles it, and no probe can fail
            W = np.concatenate((W, vt[:, 0]))
    minima = _minima(d, W)
    if not linear:  # W ends with e1, e2, e3: |M_i| = max(g(e_i), g(-e_i))
        s = 1.0 - minima[-3:].min(axis=1)
        floor = 1.0 - math.sqrt(s @ s) - allowance
    mins = minima.ravel()  # (w, +), (w, -), ...
    seen = float(mins.min())
    bad = (mins < -TOL_EIG).nonzero()[0]
    if bad.size:
        first = int(bad[0])
        w = W[first // 2] if first % 2 == 0 else -W[first // 2]
        return PositivityVerdict(False, seen, Witness(w=w, min_eigenvalue=float(mins[first])), (floor, seen + allowance), "probe")
    if linear:
        return _linear_certificate(d, norms, allowance, seen, floor)
    if floor >= -TOL_EIG:
        return PositivityVerdict(True, seen, interval=(floor, seen + allowance), stage="norm")
    return _branch_and_bound(d, allowance, seen, floor)


# perfbench traces and patches the check by its former name (tracing.py
# TARGETS, its tests), so the CLI calls it by that name.  ROADMAP item 7.
check_positivity_sampled = check_positivity


def _linear_certificate(d: DeltaCoefficients, norms: list, allowance: float, seen: float, floor: float) -> PositivityVerdict:
    """Stage 2 of check_positivity, for T = 0, b = 0, where g(u) = |B1 u| + |B2 u|.

    (a + b)^2 = min over l in (0, 1) of a^2/l + b^2/(1 - l), and the joint
    range {(u'Pu, u'Qu) : |u| = 1} of P = B1'B1 and Q = B2'B2 is convex
    (Brickman, Proc. AMS 12, 1961), so max g^2 = min_l f(l) with
    f(l) = lambda_max(P/l + Q/(1 - l)): one l with f(l) <= 1 proves Delta
    positive, and it is the verdict's l_star.  l = |B1| / (|B1| + |B2|)
    gives f(l) <= (|B1| + |B2|)^2, the norms' bound, exact when B1 = B2.

    Otherwise f is minimized over t = log(l / (1 - l)), where
    A(t) = P/l + Q/(1 - l) = P + Q + e^-t P + e^t Q is convex, from the
    bracket l = |B1|^2 / (|B1| + |B2|)^2 ... 1 - |B2|^2 / (|B1| + |B2|)^2
    (f is at least |B1|^2 / l and |B2|^2 / (1 - l)).  For a unit v,
    h_v(t) = v'A(t)v = v'Pv (1 + e^-t) + v'Qv (1 + e^t) <= f(t), with
    equality where v is a top eigenvector.  The bracket ends are the nearest
    solved points on each side whose h_v has slope <= 0 and >= 0.  Each
    round solves, in one batched eigh, where the two ends' curves take
    their minima, where they cross (exact for the kink of commuting P and Q,
    as on flat) and at the midpoint.  min_t h_v = g(v)^2, so a solved v with
    g(v) > 1 + TOL_EIG ends the search as a witness candidate, confirmed by
    _minima.  So does a round whose minima and crossing are all solved
    already: the ends' curves have nothing new to offer.  If that candidate
    fails, one more is tried on the circle through the bracket ends' top
    eigenvectors va and vb, cos(th) va + sin(th) vb with
    tan(th) = g(vb) / g(va).  Where P and Q commute, with Q va = 0 and
    P vb = 0 (B1 = s diag(0.6, 0.6, 0), B2 = s diag(0, 0, 0.8)), g is
    g(va) cos(th) + g(vb) sin(th) on that circle and peaks there; the search
    finds that kink in its second round and could only re-solve it.  What
    stays open after both candidates, or after SEARCH_ROUNDS, goes to
    _branch_and_bound.

    Accepted at sqrt(f) + allowance <= 1 + TOL_EIG, so f < 1.01: forming A(t)
    from B1, B2 and e^t errs by under 36 eps * f (|B1|^2 / l and
    |B2|^2 / (1 - l) are at most f), eigh by 16 eps * f, and the root at
    most halves that above f = 1/4 (below it g stays under 0.51).

    A proof's upper end is min(seen, 1 - peak) + allowance, where peak is
    the largest g(v) = sqrt(p) + sqrt(q), p = |B1 v|^2, q = |B2 v|^2, over
    the solved top eigenvectors and _ascent_peak's steps from the circle
    point of the bracket ends: max g >= g(v) for unit v.  On flat the axes
    (g = 0.6 and 0.8) are eigenvectors and the circle point has g = 1.
    Each v is unit to within 4 eps (eigh, or the circle point's sum, root
    and division); y = B v errs by under 3u (|B1|_F + |B2|_F) in 2-norm,
    with 3u the three-term dot products' bound; the sums of squares, roots
    and sum by under 4u g(v).  So the computed g(v) is within
    8 eps * scale of g(v / |v|): |B1|_F + |B2|_F and g(v) are at most
    sum |entries of M|, inside the allowance.
    """
    n1, n2 = norms
    if floor >= -TOL_EIG:
        return PositivityVerdict(True, seen, interval=(floor, seen + allowance), stage="linear", l_star=n1 / (n1 + n2) if n1 else 0.0)
    if min(n1, n2) <= allowance:  # max g >= max(n1, n2): no l beats the norms by more than allowance
        return _branch_and_bound(d, allowance, seen, floor)
    B = np.vstack([d.B1, d.B2])
    P, Q = d.B1.T @ d.B1, d.B2.T @ d.B2
    terms = np.stack([P + Q, P, Q]).reshape(3, 9)
    ts = [math.log(n1 * n1 / (n2 * (2.0 * n1 + n2))), math.log(n1 * (n1 + 2.0 * n2) / (n2 * n2))]
    best, far, lo, hi, solved = (math.inf, 0.0), (0.0, None), None, None, set()
    for _ in range(SEARCH_ROUNDS):
        x = [math.exp(t) for t in ts]
        vals, vecs = np.linalg.eigh((np.array([[1.0, 1.0 / e, e] for e in x]) @ terms).reshape(-1, 3, 3))
        top = vecs[:, :, -1]
        y = top @ B.T
        pq = (y * y).reshape(-1, 2, 3).sum(axis=2).tolist()  # v'Pv, v'Qv
        for t, e, f, (p, q), v in zip(ts, x, vals[:, -1].tolist(), pq, top):
            best = (f, t) if f < best[0] else best
            g = math.sqrt(p) + math.sqrt(q)
            far = (g, v) if g > far[0] else far
            if q * e <= p / e and (lo is None or t > lo[0]):
                lo = (t, p, q, g, v)
            if q * e >= p / e and (hi is None or t < hi[0]):
                hi = (t, p, q, g, v)
        solved.update(ts)
        bound = math.sqrt(best[0]) + allowance
        if 1.0 - bound >= -TOL_EIG:
            peak, u = far[0], _circle_point(lo, hi)
            if u is not None:
                peak = max(peak, _ascent_peak(B, u))
            interval = (1.0 - bound, min(seen, 1.0 - peak) + allowance)
            return PositivityVerdict(True, seen, interval=interval, stage="linear", l_star=1.0 / (1.0 + math.exp(-best[1])))
        if far[0] > 1.0 + TOL_EIG or lo is None or hi is None or hi[0] - lo[0] <= 8.0 * _EPS * (1.0 + abs(lo[0])):
            break
        (ta, pa, qa), (tb, pb, qb) = lo[:3], hi[:3]
        ts = [0.5 * (math.log(p) - math.log(q)) for p, q in ((pa, qa), (pb, qb)) if p > 0.0 and q > 0.0]
        if (pb - pa) * (qa - qb) > 0.0:
            ts.append(math.log((pb - pa) / (qa - qb)))
        ts = [min(max(t, ta), tb) for t in ts]
        if ts and solved.issuperset(ts):  # the ends' curves point only at solved points
            break
        ts.append(0.5 * (ta + tb))
    candidates = [far[1]]
    u = _circle_point(lo, hi)
    if far[0] <= 1.0 + TOL_EIG and u is not None:
        candidates.append(u)
    for v in candidates:
        mins = _minima(d, v[None]).ravel()
        seen = min(seen, float(mins.min()))
        k = int(mins.argmin())
        if mins[k] < -TOL_EIG:
            witness = Witness(w=-v if k else v.copy(), min_eigenvalue=float(mins[k]))
            return PositivityVerdict(False, seen, witness, (floor, seen + allowance), "linear")
    return _branch_and_bound(d, allowance, seen, floor)


def _circle_point(lo, hi) -> np.ndarray | None:
    """cos(th) va + sin(th) vb, tan(th) = g(vb) / g(va), for the top eigenvectors va, vb of the bracket ends lo, hi.

    None while an end is missing, or for va = -vb.
    """
    if lo is None or hi is None:
        return None
    u = lo[3] * lo[4] + hi[3] * hi[4]
    size = math.sqrt(u @ u)
    return u / size if size > 0.0 else None


def _ascent_peak(B: np.ndarray, u: np.ndarray) -> float:
    """The largest g = |B1 u| + |B2 u| (B stacks B1 over B2) in ASCENT_STEPS steps u <- grad g(u) / |grad g(u)| from unit u.

    g is convex and positively homogeneous, with subgradient 0 for a term
    whose norm is 0, so g(u) = <grad g(u), u> and each step climbs:
    g(u+) >= <grad g(u), u+> = |grad g(u)| >= g(u).  It stops early where
    the tangent part of grad g(u) is under 8 eps |grad g(u)|, its rounding
    at a maximum, where |grad g(u)| >= g(u) >= (|B1| + |B2|) / 2.  Each u
    read is unit to within 4 eps (sum of squares, root and division), so
    each g is within 8 eps * scale of g at a unit vector, as for the circle
    point.
    """
    peak = 0.0
    for _ in range(ASCENT_STEPS + 1):
        y = B @ u
        n1, n2 = math.sqrt(y[:3] @ y[:3]), math.sqrt(y[3:] @ y[3:])
        peak = max(peak, n1 + n2)
        y[:3] *= 1.0 / n1 if n1 > 0.0 else 0.0
        y[3:] *= 1.0 / n2 if n2 > 0.0 else 0.0
        grad = y @ B
        size = math.sqrt(grad @ grad)
        tangent = grad - (grad @ u) * u
        if math.sqrt(tangent @ tangent) <= 8.0 * _EPS * size:
            return peak
        u = grad / size
    return peak


def _branch_and_bound(d: DeltaCoefficients, allowance: float, seen: float, floor: float) -> PositivityVerdict:
    """Stage 4 of check_positivity: bound g on spherical triangles, splitting the open ones.

    g is sublinear, so u = sum_j mu_j v_j (mu_j >= 0) in the cone of a
    triangle with vertices v_j and unit centroid c has g(u) <= sum_j mu_j
    g(v_j) and 1 >= <c, u> >= sum_j mu_j min_j <c, v_j>: g(u) <= max(0,
    max_j g(v_j)) / min_j <c, v_j>.  One solve per vertex v gives g(+-v),
    so a face and its antipode share one bound, plus allowance; open faces
    split in four (split_faces).  min_j <c, v_j> is computed once
    per face, where the face is created (FACE_COS for the icosahedron).  The
    first vertex batch with an eigenvalue below -TOL_EIG gives the witness,
    its most negative one, and floor is its interval's lower end.
    """
    V, F, cos, g, fresh, settled_top = ICOSAHEDRON, FACES, FACE_COS, np.empty((0, 2)), ICOSAHEDRON, 0.0
    while True:
        minima = _minima(d, fresh)
        seen = min(seen, float(minima.min()))
        if (minima < -TOL_EIG).any():
            k = int(minima.argmin())
            w = fresh[k // 2] if k % 2 == 0 else -fresh[k // 2]
            witness = Witness(w=w, min_eigenvalue=float(minima.flat[k]))
            return PositivityVerdict(False, seen, witness, (floor, seen + allowance), "branch-and-bound")
        g = np.vstack([g, 1.0 - minima])  # g(-v), g(v)
        bound = (np.maximum(0.0, g[F].max(axis=(1, 2))) + allowance) / cos
        settled = 1.0 - bound >= -TOL_EIG  # NaN stays open
        settled_top = max(settled_top, float(bound[settled].max(initial=0.0)))
        F = F[~settled]
        if not len(F):
            return PositivityVerdict(True, seen, interval=(1.0 - settled_top, seen + allowance), stage="branch-and-bound")
        n = len(V)
        V, F = split_faces(V, F)
        if len(V) > VERTEX_CAP:
            top = max(settled_top, float(bound[~settled].max()))
            return PositivityVerdict(None, seen, interval=(1.0 - top, seen + allowance), stage="branch-and-bound")
        fresh = V[n:]
        cos = _face_cos(V, F)
