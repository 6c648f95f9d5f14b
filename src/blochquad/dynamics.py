"""Orbits of quadratic Bloch maps: collapse law, fixed points, circle chaos.

For a sphere-preserving map without linear terms, |V(f)| = |f|^2, so every
strictly interior orbit collapses to the origin at a doubly exponential
rate while sphere orbits stay on the sphere.  The restriction of the
benchmark map to the invariant circle {f3 = 0} is an angle-doubling map,
which drives the divergence-rate estimator and the conjugacy check with
the full-height logistic parabola.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicableError
from .pauli import TOL_STATE, vector_norm
from .positivity import FACE_COS, FACES, ICOSAHEDRON, split_faces
from .purity import check_q_purity
from .qmap import QuadraticMapCoeffs, _feature_rows, _point_image, is_haar_form, jacobian
from .qmap import evaluate  # noqa: F401  kept as dynamics.evaluate, a name perfbench's tracer wraps

UNDERFLOW_FLUSH = 1e-300
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
class Trajectory:
    """Orbit points and their norms, one row per step (step 0 is the start)."""

    points: np.ndarray  # (n, 3)
    norms: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.norms)


def iterate(v: QuadraticMapCoeffs, f0, steps: int) -> Trajectory:
    """Orbit f0, V(f0), ..., V^steps(f0); flushes to exact zero below 1e-300.

    Norms are taken with math.hypot, which scales instead of squaring, so
    they stay accurate far below the 1e-154 where squared components underflow.
    Raises ValueError at the first iterate that is not finite: a map that
    leaves the ball can grow doubly exponentially and overflow, and no
    later point of the orbit means anything.  Raises ValueError for steps < 0,
    for a start point whose shape is not (3,), and for one outside the ball
    or with a NaN entry.  The orbit is held as three Python floats, and each
    step takes single-point evaluate()'s product (qmap._point_image), so
    every row is what the map gives that point alone.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    f = np.array(f0, dtype=float)
    if f.shape != (3,):
        raise ValueError(f"start point must have shape (3,), got {f.shape}")
    start = vector_norm(f)
    if not start <= 1.0 + TOL_STATE:  # a NaN fails too
        raise ValueError(f"start point norm {start} exceeds 1")
    rows = v.coefficient_rows()
    point = f.tolist()
    points, norms = list(point), [math.hypot(*point)]  # points: the rows end to end, in one flat list
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught by the norm test
        for n in range(1, steps + 1):
            point = _point_image(rows, *point).tolist()
            norm = math.hypot(*point)
            if not math.isfinite(norm):
                raise ValueError(f"the orbit overflows double precision at step {n} (norm {norms[-1]:.3e} at step {n - 1})")
            if norm < UNDERFLOW_FLUSH:
                points += (0.0, 0.0, 0.0)
                norms.append(0.0)
                break
            points += point
            norms.append(norm)
    return Trajectory(points=np.array(points).reshape(-1, 3), norms=np.array(norms))


def verify_collapse(v: QuadraticMapCoeffs, f0, steps: int) -> float:
    """Max relative error of |V^n(f0)| against |f0|^(2^n) for n <= steps.

    Only meaningful for certified sphere-preserving maps without linear
    terms; terms with predicted norm below 1e-290 are skipped.  Raises
    ValueError for a start point whose shape is not (3,), before any norm
    is taken, and for one not strictly inside the ball.
    """
    if not is_haar_form(v) or check_q_purity(v)[0] is not True:
        raise NotApplicableError("collapse law needs a certified sphere-preserving map")
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != (3,):
        raise ValueError(f"start point must have shape (3,), got {f0.shape}")
    norm0 = vector_norm(f0)
    if norm0 >= 1.0:
        raise ValueError("start point must lie strictly inside the ball")
    if norm0 == 0.0:
        return 0.0
    traj = iterate(v, f0, steps)
    worst = 0.0
    for n in range(len(traj)):
        expected = norm0 ** (2.0**n)
        if expected < 1e-290:
            break
        worst = max(worst, abs(traj.norms[n] - expected) / expected)
    return worst


def _newton_steps(m: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Solutions s of M s = -r for a batch, in components: m (9, n), residual (3, n).

    Row 3 i + j of m is entry [i, j] of M = J - I across the batch, and row
    k of residual is component k of r; returns the steps as a (3, n) array.
    Each system is solved in closed form by Cramer's rule, with
    M = [c0 c1 c2] and det M = c0 . (c1 x c2):

        s = -(r . (c1 x c2), c2 . (c0 x r), -c1 . (c0 x r)) / det M.

    The six cross-product entries are one gather of the stacked rows of m
    and residual and three products; det M and the three numerators are
    four 3-term dot products of one more product, summed left to right from
    -0.0.  That is about a dozen numpy calls for the whole batch, whatever
    its width, and every entry is rounded as the term-by-term formula
    rounds it, the sign of a zero included.  A column whose
    determinant is not finite, or whose step is not finite (which a zero
    determinant makes it), takes the pseudo-inverse step (np.linalg.pinv)
    instead; that is how an overflow in the closed form is caught.  The
    caller ignores the overflow, invalid and divide warnings that the closed
    form may raise on the way.
    """
    g = np.concatenate([m, residual])[_CRAMER_GATHER]
    cross = g[0:6] * g[6:12]  # c1 x c2, then c0 x r
    cross -= g[12:18] * g[18:24]
    # det M and the numerators; a sum from -0.0 keeps the sign of a sum of zeros
    dots = (g[24:].reshape(4, 3, -1) * cross[_CRAMER_RIGHT]).sum(axis=1, initial=-0.0)
    det = dots[0]
    step = dots[1:] / (det * _CRAMER_SIGN)
    # A sum is finite only when every term is; an overflowing sum just builds the mask.
    if not (math.isfinite(det.sum()) and math.isfinite(step.sum())):
        finite = np.isfinite(step)
        fallback = np.flatnonzero(~(np.isfinite(det) & finite[0] & finite[1] & finite[2]))
        # pinv and the product take the (k, 3, 3) systems and (k, 3) residuals C-contiguous, one row per system
        system = np.ascontiguousarray(m[:, fallback].T).reshape(-1, 3, 3)
        rhs = np.ascontiguousarray(residual[:, fallback].T)
        step[:, fallback] = -(np.linalg.pinv(system) @ rhs[..., None])[..., 0].T
    return step


# Index tables of _newton_steps into the rows of the stack [m; residual]
# (entry [i, j] of M in row 3 i + j, r_k in row 9 + k).  Column e of
# _CRAMER_CROSS holds the rows (a, b, c, d) of entry e = a b - c d of c1 x c2
# (e < 3) or of c0 x r (e >= 3).  Row k of _CRAMER_DOT (rows of the stack) and
# of _CRAMER_RIGHT (cross entries) pairs the terms of the dot products
# det M = c0 . (c1 x c2), r . (c1 x c2), c2 . (c0 x r) and c1 . (c0 x r);
# _CRAMER_SIGN flips the sign of the last numerator.
_CRAMER_CROSS = np.array([[4, 7, 1, 3, 6, 0], [8, 2, 5, 11, 9, 10], [7, 1, 4, 6, 0, 3], [5, 8, 2, 10, 11, 9]])
_CRAMER_DOT = np.array([[0, 3, 6], [9, 10, 11], [2, 5, 8], [1, 4, 7]])
_CRAMER_GATHER = np.concatenate([_CRAMER_CROSS.ravel(), _CRAMER_DOT.ravel()])
_CRAMER_RIGHT = np.array([[0, 1, 2], [0, 1, 2], [3, 4, 5], [3, 4, 5]])
_CRAMER_SIGN = np.array([[-1.0], [-1.0], [1.0]])


def _residual(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V(x) - x for the columns of x (3, n), as a (3, n) array; rows are the map's 9x3 coefficients."""
    image = rows.T @ _feature_rows(x)
    image -= x
    return image


# Splits of the icosahedron faces before the exclusion test, and further
# splits of the open faces that no isolated fixed point accounts for.
EXCLUSION_LEVELS = 3
COMPONENT_LEVELS = 2
NEWTON_STEPS = 16
# J - I has rank 2 on a tangent plane when the product of its two singular
# values there exceeds this fraction of the sum of their squares.
RANK_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
# Gathers g of the nine entries of a (3, 3) matrix m, row-major, whose
# combination g[0] g[1] - g[2] g[3] is its cofactor matrix: entry [i, j] is
# m[i+1, j+1] m[i+2, j+2] - m[i+1, j+2] m[i+2, j+1] (indices mod 3), so row i is
# the cross product of rows i + 1 and i + 2.
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])
_COFACTOR = np.stack(
    [
        3 * _NEXT[:, None] + _NEXT,
        3 * _AFTER[:, None] + _AFTER,
        3 * _NEXT[:, None] + _AFTER,
        3 * _AFTER[:, None] + _NEXT,
    ]
).reshape(4, 9)


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
class FixedComponent:
    """A connected region of the sphere where fixed_set_sphere could neither rule out nor isolate fixed points.

    The region is the union of the caps |u - centres[k]| <= radii[k].  It
    may hold a circle of fixed points, a fixed point where J - I has rank
    < 2 on the tangent plane, or none at all (a near miss).  point is a
    fixed point on the sphere that Newton's method found in it, or None.
    """

    centres: np.ndarray  # (k, 3)
    radii: np.ndarray  # (k,)
    point: np.ndarray | None

    def covers(self, p) -> bool:
        """Whether the point p, shape (3,), lies in the region."""
        gap = self.centres - np.asarray(p, dtype=float)
        return bool((np.sqrt((gap * gap).sum(axis=1)) <= self.radii).any())


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
class FixedSet:
    """The fixed points of V on the unit sphere (see fixed_set_sphere).

    points: the fixed points where J - I has rank 2 on the tangent plane,
    as (3,) arrays in lexicographic order.  components: FixedComponent
    regions that hold every other fixed point.  Both empty proves that V
    fixes no point of the sphere.
    """

    points: list
    components: list


def fixed_set_sphere(v: QuadraticMapCoeffs) -> FixedSet:
    """Fixed points of V on the unit sphere, by exclusion on spherical triangles and Newton's method.

    Exclusion.  R(u) = V(u) - u is quadratic: R(c + h) = R(c) + (J(c) - I) h
    + Q(h), where Q(h) = T(h) h / 2 and T(h) = J(c + h) - J(c) =
    sum_m h_m D_m is linear in h (D_m, the slice dJ/df_m, is row m of
    v._hessian as a 3x3 matrix).  So |Q(h)| <= L |h|^2 / 2 for any L with
    |T(h)|_2 <= L |h|, and _lipschitz takes L = min(H, L_vertex) plus its
    rounding:

    - H, the largest singular value of v._hessian, bounds |T(h)|_F / |h|,
      which is at least |T(h)|_2 / |h|; on delta0 H = 2 sqrt 3 = 3.464.
    - sigma_max(T(h)) is sublinear and even in h, so it is bounded on the
      sphere as positivity._branch_and_bound bounds g.  A unit h lies in
      the cone of an icosahedron face, or of its antipode: +-h = sum_j
      mu_j v_j with mu_j >= 0 at the face's vertices v_j.  With c the unit
      centroid, 1 >= <c, +-h> >= sum_j mu_j min_j <c, v_j>, so |T(h)|_2 <=
      sum_j mu_j |T(v_j)|_2 <= max_j |T(v_j)|_2 / min FACE_COS = L_vertex,
      from one SVD of T(v_j) at one vertex of each antipodal pair.  On
      delta0 L_vertex = 2.517, where the spectral constant is 2.
    - L's own share, 64 eps * scale, covers the rounding of either term:
      16 eps H for H's SVD (the table's entries are exact); for L_vertex,
      7 eps S for the products v_j D (3-term sums, |v._hessian|_F <= 2 S),
      16 eps S for the SVDs, 14 eps S for the cone factor 1 / min FACE_COS
      (known to 7 eps: |c| <= 1 + 2 eps and <c, v_j> to 3 eps, against
      FACE_COS > 0.79) times |T(v_j)|_2 <= 2 S, and 10 eps S for the
      maximum, the division and the sum.

    Every point of a spherical triangle lies within rho, the largest chord
    from its unit centroid c to a corner (the triangle lies in that cap,
    which is convex on the sphere).  So a triangle with

        |R(c)| > (|J(c) - I|_F + L rho / 2) rho + allowance

    holds no fixed point and is dropped; a NaN or infinite residual keeps
    it open.  The test runs at once on the 20 * 4^EXCLUSION_LEVELS faces of
    the icosahedron split EXCLUSION_LEVELS times at unit edge midpoints by
    positivity.split_faces, the subdivision the positivity proof refines
    (_START; one test of all of them takes fewer numpy calls than a test
    per level).  Every fixed point on the sphere lies in an open face.

    allowance = 128 eps * scale, where scale = 1 + S and S is the sum of
    the |coefficients|: for |u| <= 1, |V(u)| <= S, |J(u)|_F <= 2 S and
    H <= 2 S (each quadratic coefficient enters the Hessian table twice, or
    once doubled), so L <= 2 S + 64 eps * scale, and rho <= 0.65 (the
    icosahedron's own faces).  It covers 16 eps * scale for the residual (a
    9-term product and its norm); 16 eps * scale for |J(c) - I|_F times rho
    and 14 eps * scale for L rho^2 (entry products and the norms); 66 eps *
    scale for a rho short by 11 eps (its rounding, and the sliver within
    8 eps of an edge that the children of a face miss when a rounded
    midpoint falls inside the face) times the slope |J - I|_F + L rho <=
    6 scale; and 12 eps * scale for the sums and products of the bound.

    Points.  Newton's method (_newton) runs from the centroid of every open
    face.  The points are its limits on the sphere where J - I has rank 2
    on the tangent plane, deduplicated within 1e-6 in lexicographic order
    (_distinct_points).  Each accounts for the open faces whose caps lie in
    its ball (_balls), which holds no other fixed point.

    Components.  The open faces that no point accounts for are split
    COMPONENT_LEVELS more times in the same mesh, with the same exclusion
    (_refine), and Newton's method runs from the new open faces that the
    points still do not account for.  The faces that neither the old nor
    the new points account for, in clusters that share a vertex of the
    mesh, are the components (_components).  Each
    carries the first of these Newton limits that started in it and lies in
    it, or None.  A circle of fixed points is one component, not a count of
    points.
    """
    rows = v.coefficient_rows()
    scale = 1.0 + float(np.abs(rows).sum())
    lip = _lipschitz(v, scale)
    allowance = 128.0 * _EPS * scale
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        keep = _open(v, rows, lip, allowance, _START_CENTRES, _START_RHO)
        V, F = _START
        F, x, rho = F[keep], _START_CENTRES.compress(keep, axis=1), _START_RHO[keep]
        points, radii = _balls(v, lip, scale, *_newton(v, rows, x)[:2])
        left = ~_accounted_for(x, rho, points, radii)
        if not left.any():  # _balls keeps distinct points in lexicographic order: _distinct_points keeps them all
            return FixedSet([p.copy() for p in points.T], [])
        F, x, rho = _refine(v, rows, lip, allowance, V, F[left], COMPONENT_LEVELS)
        starts = np.flatnonzero(~_accounted_for(x, rho, points, radii))
        found, r, start = _newton(v, rows, x[:, starts])
        more, more_radii = _balls(v, lip, scale, found, r)
        points = np.hstack([points, more])
        left = starts[~_accounted_for(x[:, starts], rho[starts], more, more_radii)]
        position = np.full(len(rho), -1)
        position[left] = np.arange(len(left))
        components = _components(F[left], x[:, left].T, rho[left], found, position[starts[start]])
    return FixedSet(_distinct_points(points), components)


def _lipschitz(v: QuadraticMapCoeffs, scale: float) -> float:
    """L = min(H, L_vertex) + 64 eps * scale >= |T(h)|_2 / |h| for all h: the constant of fixed_set_sphere and _balls.

    See fixed_set_sphere for T(h), the two bounds and the rounding share;
    scale = 1 + S with S the sum of the |coefficients|.
    """
    hessian = v._hessian
    corners = np.linalg.svd((_HALF_ICOSAHEDRON @ hessian).reshape(-1, 3, 3), compute_uv=False)[:, 0]
    vertex = float(corners.max()) / _FACE_COS_MIN
    return min(float(np.linalg.svd(hessian, compute_uv=False)[0]), vertex) + 64.0 * _EPS * scale


def _geometry(corners: np.ndarray) -> tuple:
    """Unit centroids, as the columns of a (3, k) array, and radii rho (k,) of faces with corners (k, 3, 3)."""
    c = corners.sum(axis=1)
    c /= np.sqrt((c * c).sum(axis=1))[:, None]
    gap = corners - c[:, None]
    return np.ascontiguousarray(c.T), np.sqrt((gap * gap).sum(axis=2).max(axis=1))


def _open(v, rows, lip, allowance, x, rho) -> np.ndarray:
    """Whether the exclusion bound of fixed_set_sphere, with lip its L, keeps each face (unit centroids x (3, k), radii rho (k,)) open."""
    residual = _residual(rows, x)
    m = jacobian(v, x.T).reshape(-1, 9).T  # the rows of J(c), then J(c) - I in place
    m[0::4] -= 1.0
    r = np.sqrt((residual * residual).sum(axis=0))
    reach = (np.sqrt((m * m).sum(axis=0)) + 0.5 * lip * rho) * rho + allowance
    return ~((r > reach) & (r < np.inf))  # a NaN or infinite residual stays open


def _refine(v, rows, lip, allowance, V, F, levels) -> tuple:
    """The open faces among the descendants, levels splits down, of faces F (rows of indices into V).

    Splits (split_faces) and tests level by level.  Returns the open faces
    (rows of vertex indices: _components reads only which faces share a
    vertex), their unit centroids (3, j) and radii (j,).
    """
    for _ in range(levels):
        if not len(F):
            break
        V, F = split_faces(V, F)
        x, rho = _geometry(V[F])
        keep = _open(v, rows, lip, allowance, x, rho)
        F, x, rho = F[keep], x.compress(keep, axis=1), rho[keep]
    return F, x, rho


# The search's start mesh: the vertices and the 20 * 4^EXCLUSION_LEVELS faces
# of every icosahedron face split EXCLUSION_LEVELS times (FACES keeps one face
# of each antipodal pair, and V(-u) != -V(u) in general), and the faces' unit
# centroids and radii.
_ANTIPODE = np.abs(ICOSAHEDRON[:, None] + ICOSAHEDRON[None]).sum(axis=2).argmin(axis=1)
_START = ICOSAHEDRON, np.vstack([FACES, _ANTIPODE[FACES]])
for _ in range(EXCLUSION_LEVELS):
    _START = split_faces(*_START)
_START_CENTRES, _START_RHO = _geometry(_START[0][_START[1]])
# The icosahedron vertex of each antipodal pair with the lower index, and the
# least cone factor of its faces, for _lipschitz.
_HALF_ICOSAHEDRON = ICOSAHEDRON[np.arange(len(ICOSAHEDRON)) < _ANTIPODE]
_FACE_COS_MIN = float(FACE_COS.min())
for _table in (*_START, _START_CENTRES, _START_RHO, _HALF_ICOSAHEDRON):
    _table.setflags(write=False)


def _newton(v: QuadraticMapCoeffs, rows: np.ndarray, x: np.ndarray) -> tuple:
    """Newton's method on V(f) = f from the columns of x (3, n).

    Returns its limits on the sphere (3, k), their residuals |V(f) - f| and
    their columns in x.  Each step solves (J - I) s = -(V(f) - f) for every
    column at once in closed form (_newton_steps).  A column whose update
    is not finite or leaves the cube |f|_inf < 10 keeps its point.  At most
    NEWTON_STEPS steps; the loop stops once no step is longer than
    1e-8 * max(1, |x|_inf) in any entry: where Newton's method converges
    quadratically, such a last step leaves an error of order 1e-16 times
    L / sigma (see _balls), and where it does not, the residual test below
    decides.  A limit is kept when its last step met that bound, its
    residual is at most 1e-9 (a NaN fails) and it lies within 1e-6 of the
    sphere.  When one column keeps the batch going for all NEWTON_STEPS
    steps, a column that reached a fixed point's basin late can end with a
    residual below 1e-9 yet 1e-9 or more from the point; the step test drops
    it, so a point is not reported from a column that has not settled.
    """
    if not x.shape[1]:
        return x, np.empty(0), np.empty(0, dtype=int)
    hessian, linear = v._hessian.T, v._linear[:, None]
    for _ in range(NEWTON_STEPS):
        m = hessian @ x  # the rows of J, with the bits of jacobian(v, x.T); then J - I in place
        m += linear
        m[0::4] -= 1.0
        step = _newton_steps(m, _residual(rows, x))
        x_new = x + step
        top = np.abs(x_new).max()
        if not top < 10.0:  # some column left the cube, or is NaN or inf
            ok = np.abs(x_new).max(axis=0) < 10.0
            x_new, step = np.where(ok, x_new, x), np.where(ok, step, 0.0)
            top = np.abs(x_new).max()
        x = x_new
        if not np.abs(step).max() > 1e-8 * max(1.0, float(top)):
            break
    residual = _residual(rows, x)
    r = np.sqrt((residual * residual).sum(axis=0))
    settled = np.abs(step).max(axis=0) <= 1e-8 * max(1.0, float(top))
    keep = np.flatnonzero(settled & (r <= 1e-9) & (np.abs(np.sqrt((x * x).sum(axis=0)) - 1.0) <= 1e-6))
    return x[:, keep], r[keep], keep


def _balls(v: QuadraticMapCoeffs, lip: float, scale: float, found: np.ndarray, r: np.ndarray) -> tuple:
    """The distinct columns p of found (3, n) where J - I has rank 2 on the tangent plane, as (3, k), and their radii.

    r holds the residuals |V(p) - p|, and lip is L of fixed_set_sphere:
    |J(p + h) - J(p)|_2 = |T(h)|_2 <= L |h|.  With M = J(p) - I and
    u = p / |p|, M maps the tangent plane with area factor |cof(M) u|
    (cof(M) the cofactor matrix: M a x M b = cof(M) (a x b)), the product of
    the two singular values of M (I - u u^T), whose squares sum to
    |M|_F^2 - |M u|^2.  Rank 2 means a product above RANK_TOL times that
    sum.  With sigma the least singular value of M and
    s = sigma - 32 eps * scale (the rounding of J(p) and of the SVD), the
    ball around p has radius 2 s / L - 2 r / s - 16 eps (the rounding of the
    distances it is compared with) when 2 L r <= s^2, and NaN otherwise,
    which accounts for no face.  The fixed point near p is the only one in
    it: R is one to one on |h| < s / L, where |J(p + h) - J(p)|_2 <= L |h|
    < s, and |R(p + h)| >= s t - L t^2 / 2 - r > 0 for s / L <= t = |h|
    below (s + sqrt(s^2 - 2 L r)) / L >= 2 s / L - 2 r / s.  On delta0,
    L = 2.52 in place of H = 3.46 widens the balls around the three circle
    points from 0.58, 0.58 and 0.42 to 0.79, 0.79 and 0.58, which takes in
    the open faces 0.36-0.43 from the weakest point.
    """
    pick = _distinct(found)
    if not pick:
        return found, r
    p = found[:, pick]
    m = jacobian(v, p.T).reshape(-1, 3, 3) - _EYE3
    u = p.T / np.sqrt((p * p).sum(axis=0))[:, None]
    g = m.reshape(-1, 9)[:, _COFACTOR]
    cof = (g[:, 0] * g[:, 1] - g[:, 2] * g[:, 3]).reshape(-1, 3, 3)  # rows m1 x m2, m2 x m0, m0 x m1
    area, image = (cof @ u[:, :, None])[..., 0], (m @ u[:, :, None])[..., 0]
    spread = (m * m).sum(axis=(1, 2)) - (image * image).sum(axis=1)
    isolated = np.flatnonzero(np.sqrt((area * area).sum(axis=1)) > RANK_TOL * spread)
    sigma = np.linalg.svd(m[isolated], compute_uv=False)[:, 2] - 32.0 * _EPS * scale
    r = r[pick][isolated]
    return p[:, isolated], np.where(2.0 * lip * r <= sigma * sigma, 2.0 * sigma / lip - 2.0 * r / sigma - 16.0 * _EPS, np.nan)


def _accounted_for(x: np.ndarray, rho: np.ndarray, centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Whether the cap of each face (centroid a column of x, radius rho) lies in some ball (centres (3, k), radii)."""
    gap = x.T[:, None, :] - centres.T[None]
    return (np.sqrt((gap * gap).sum(axis=2)) + rho[:, None] <= radii).any(axis=1)


def _components(faces: np.ndarray, centres: np.ndarray, rho: np.ndarray, found: np.ndarray, start: np.ndarray) -> list:
    """The faces (rows (k, 3) of vertex indices, centroids (k, 3), radii rho) in clusters that share a vertex, as FixedComponents.

    found (3, n) are Newton limits and start their faces (indices into the
    k, or -1); each component carries the first limit that started in it
    and lies in its caps, or None.
    """
    if not len(faces):
        return []
    labels = np.arange(len(faces))  # each face's label: the least face index in its cluster, once settled
    while True:
        least = np.full(faces.max() + 1, len(faces))
        np.minimum.at(least, faces, labels[:, None])
        merged = least[faces].min(axis=1)
        merged = merged[merged]  # a label names a face of the cluster, and so does that face's label
        if np.array_equal(merged, labels):
            break
        labels = merged
    components = []
    for label in np.unique(labels):
        inside = labels == label
        region = FixedComponent(centres[inside], rho[inside], None)
        here = (found[:, i] for i in np.flatnonzero(inside[start] & (start >= 0)))
        point = next((p.copy() for p in here if region.covers(p)), None)
        components.append(dataclasses.replace(region, point=point))
    return components


def fixed_points_sphere(v: QuadraticMapCoeffs, grid_density: int = 32) -> list:
    """The fixed points of V on the unit sphere where J - I has rank 2 on the tangent plane.

    fixed_set_sphere(v).points.  grid_density is ignored: the points no
    longer depend on a seed grid.
    """
    return fixed_set_sphere(v).points


def _distinct_points(candidates: np.ndarray) -> list:
    """The columns of candidates (3, n), deduplicated greedily in lexicographic order (_distinct), as (3,) copies."""
    return [candidates[:, i].copy() for i in _distinct(candidates)]


def _distinct(candidates: np.ndarray) -> list:
    """Indices of the columns of candidates (3, n) that a greedy dedup in lexicographic order keeps.

    The columns are visited in stable lexicographic order (-0.0 ties with
    0.0, and of full ties the lowest index comes first); a column is kept
    unless it lies within 1e-6 of a column kept before it.  Only kept
    columns whose first entry is within 2e-6 of the visited one's are
    compared, as the others are farther than 1e-6 from it.
    """
    kept, near = [], collections.deque()
    order = np.lexsort(candidates[::-1])
    for i, p in zip(order.tolist(), candidates.T[order].tolist()):
        p0, p1, p2 = p
        while near and p0 - near[0][0] > 2e-6:
            near.popleft()
        for q0, q1, q2 in near:
            # The distance is computed as np.linalg.norm computes it: sqrt((d0^2 + d1^2) + d2^2).
            if not math.sqrt((p0 - q0) * (p0 - q0) + (p1 - q1) * (p1 - q1) + (p2 - q2) * (p2 - q2)) > 1e-6:
                break
        else:
            kept.append(i)
            near.append(p)
    return kept


def circle_restriction_step(f1: float, f2: float) -> tuple:
    """One step of the benchmark map on the invariant circle: (2 f1 f2, f1^2 - f2^2)."""
    return 2.0 * f1 * f2, f1 * f1 - f2 * f2


def logistic_conjugacy_residual(grid: int) -> float:
    """Max defect of the square-root conjugacy onto the logistic parabola.

    With g(y) = 2 y sqrt(1 - y^2) and h(x) = sqrt(x), the identity
    g(h(x))^2 = 4 x (1 - x) holds on [0, 1]; returns the worst deviation on
    a uniform grid.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    x = np.linspace(0.0, 1.0, grid)
    y = np.sqrt(x)
    g = 2.0 * y * np.sqrt(np.maximum(1.0 - x, 0.0))
    return float(np.abs(g * g - 4.0 * x * (1.0 - x)).max())


def _wrap_angle(angle: float) -> float:
    return math.remainder(angle, 2.0 * math.pi)


def _circle_angle_step(angle: float) -> float:
    f1, f2 = math.cos(angle), math.sin(angle)
    g1, g2 = circle_restriction_step(f1, f2)
    return math.atan2(g2, g1)


def estimate_divergence_rate(f0_angle: float, steps: int, delta0: float) -> float:
    """Two-orbit divergence rate of the circle restriction, in nats per step.

    Runs the standard renormalized pair protocol in angle coordinates on
    {f3 = 0}: evolve two orbits delta0 apart, accumulate the log separation
    growth, pull the perturbed orbit back to distance delta0 each step.
    Returns NaN when the protocol degenerates (the base orbit lands on a
    fixed point or the pair merges numerically); stops early if the
    separation ever exceeds 0.1 before renormalization.
    """
    if not 0.0 < delta0 <= 1e-6:
        raise ValueError("delta0 must lie in (0, 1e-6]")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    theta = float(f0_angle)
    theta_p = theta + delta0
    total = 0.0
    count = 0
    for _ in range(steps):
        theta_next = _circle_angle_step(theta)
        theta_p = _circle_angle_step(theta_p)
        if abs(_wrap_angle(theta_next - theta)) < 1e-13:
            return math.nan  # base orbit is stuck on a fixed point
        theta = theta_next
        separation = _wrap_angle(theta_p - theta)
        if abs(separation) < 1e-300:
            return math.nan  # orbits merged; growth undefined
        if abs(separation) > 0.1:
            break
        total += math.log(abs(separation) / delta0)
        count += 1
        theta_p = theta + math.copysign(delta0, separation)
    if count == 0:
        return math.nan
    return total / count


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """CSV rows `n,f1,f2,f3,norm` with 17-significant-digit decimals, in one write.

    Every row is formatted by one %-format over a flat (n, f1, f2, f3, norm)
    table; %d prints each step number, held as an exact float, as an integer.
    """
    count = len(traj)
    table = np.column_stack([np.arange(count), traj.points, traj.norms])
    fh.write("n,f1,f2,f3,norm\n" + "%d,%.17g,%.17g,%.17g,%.17g\n" * count % tuple(table.ravel().tolist()))
