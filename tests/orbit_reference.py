"""Earlier forms of the orbit path and of the fixed-set search, kept as references.

evaluate_reference forms the nine features by numpy gathers and one
concatenate for any input shape; iterate_reference steps an orbit with it
and takes norms with math.hypot on numpy scalars; write_trajectory_csv_reference
writes one row per call; newton_steps_reference solves the Newton systems on
a (9, n) copy of J - I, and cramer_steps_reference on views of (n, 3, 3)
systems.  fixed_set_sphere_reference is the fixed-set search on faces held
as their corner coordinates (k, 3, 3), split by corner arithmetic and
clustered on corner bits.  The tests require blochquad's orbit rows and CSV
text to equal these bit for bit, its Newton steps to stay within 1e-12 of
newton_steps_reference and to have the bytes of cramer_steps_reference, and
its fixed sets to have the bytes of fixed_set_sphere_reference.
"""

import dataclasses
import math

import numpy as np

from blochquad.dynamics import (
    COMPONENT_LEVELS,
    EXCLUSION_LEVELS,
    UNDERFLOW_FLUSH,
    FixedComponent,
    FixedSet,
    Trajectory,
    _accounted_for,
    _balls,
    _distinct_points,
    _geometry,
    _lipschitz,
    _newton,
    _open,
)
from blochquad.pauli import TOL_STATE
from blochquad.positivity import FACES, ICOSAHEDRON

_LEFT = np.array([0, 1, 2, 0, 1, 0])
_RIGHT = np.array([0, 1, 2, 1, 2, 2])


def features_reference(f) -> np.ndarray:
    """(f1^2, f2^2, f3^2, f1 f2, f2 f3, f1 f3, f1, f2, f3) along the last axis."""
    f = np.asarray(f, dtype=float)
    return np.concatenate([f[..., _LEFT] * f[..., _RIGHT], f], axis=-1)


def evaluate_reference(v, f) -> np.ndarray:
    return features_reference(f) @ v.coefficient_rows()


def iterate_reference(v, f0, steps: int) -> Trajectory:
    """Orbit f0, V(f0), ..., V^steps(f0); flushes to exact zero below 1e-300."""
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    f = np.array(f0, dtype=float)
    if np.linalg.norm(f) > 1.0 + TOL_STATE:
        raise ValueError(f"start point norm {np.linalg.norm(f)} exceeds 1")
    points, norms = [f], [math.hypot(*f)]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            f = evaluate_reference(v, f)
            norm = math.hypot(*f)
            if not math.isfinite(norm):
                raise ValueError(f"the orbit overflows double precision at step {n} (norm {norms[-1]:.3e} at step {n - 1})")
            if norm < UNDERFLOW_FLUSH:
                points.append(np.zeros(3))
                norms.append(0.0)
                break
            points.append(f)
            norms.append(norm)
    return Trajectory(points=np.array(points), norms=np.array(norms))


def write_trajectory_csv_reference(traj: Trajectory, fh) -> None:
    fh.write("n,f1,f2,f3,norm\n")
    for n, (point, norm) in enumerate(zip(traj.points, traj.norms)):
        fh.write(f"{n},{point[0]:.17g},{point[1]:.17g},{point[2]:.17g},{norm:.17g}\n")


@np.errstate(over="ignore", invalid="ignore")
def newton_steps_reference(jac: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """(3, n) solutions of (J - I) s = -r by Cramer's rule, pinv where it fails."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = jac.reshape(-1, 9).T - np.eye(3).reshape(9, 1)
    r0, r1, r2 = residual.T
    u0, u1, u2 = m4 * m8 - m7 * m5, m7 * m2 - m1 * m8, m1 * m5 - m4 * m2
    q0, q1, q2 = m3 * r2 - m6 * r1, m6 * r0 - m0 * r2, m0 * r1 - m3 * r0
    det = m0 * u0 + m3 * u1 + m6 * u2
    solvable = np.isfinite(det) & (det != 0.0)
    step = np.array(
        [
            r0 * u0 + r1 * u1 + r2 * u2,
            m2 * q0 + m5 * q1 + m8 * q2,
            -(m1 * q0 + m4 * q1 + m7 * q2),
        ]
    ) / -np.where(solvable, det, 1.0)
    fallback = np.flatnonzero(~(solvable & np.isfinite(step).all(axis=0)))
    if fallback.size:
        system = jac[fallback] - np.eye(3)
        step[:, fallback] = -(np.linalg.pinv(system) @ residual[fallback, :, None])[..., 0].T
    return step


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cramer_steps_reference(jac: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """(3, n) solutions of (J - I) s = -r by Cramer's rule on views of jac (n, 3, 3), pinv where it fails."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = jac.reshape(-1, 9).T
    m0, m4, m8 = m0 - 1.0, m4 - 1.0, m8 - 1.0
    r0, r1, r2 = residual.T
    u0, u1, u2 = m4 * m8 - m7 * m5, m7 * m2 - m1 * m8, m1 * m5 - m4 * m2
    q0, q1, q2 = m3 * r2 - m6 * r1, m6 * r0 - m0 * r2, m0 * r1 - m3 * r0
    det = m0 * u0 + m3 * u1 + m6 * u2
    step = np.array(
        [
            r0 * u0 + r1 * u1 + r2 * u2,
            m2 * q0 + m5 * q1 + m8 * q2,
            -(m1 * q0 + m4 * q1 + m7 * q2),
        ]
    ) / -det
    finite = np.isfinite(step)
    fallback = np.flatnonzero(~(np.isfinite(det) & finite[0] & finite[1] & finite[2]))
    if fallback.size:
        system = jac[fallback] - np.eye(3)
        step[:, fallback] = -(np.linalg.pinv(system) @ residual[fallback, :, None])[..., 0].T
    return step


# The corners of a face's four children, among its corners p0, p1, p2 and its
# edge midpoints m01, m12, m20.
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])
_EPS = float(np.finfo(float).eps)


def split_corners_reference(corners: np.ndarray) -> np.ndarray:
    """The corners (4 k, 3, 3) of the children of faces with corners (k, 3, 3), split at their unit edge midpoints.

    p + q rounds as q + p, so faces that share an edge make its midpoint with
    the same bits, and their children share corners.
    """
    mids = corners + corners[:, [1, 2, 0]]
    mids /= np.sqrt((mids * mids).sum(axis=2))[..., None]
    return np.concatenate([corners, mids], axis=1)[:, _CHILDREN].reshape(-1, 3, 3)


def start_corners_reference() -> np.ndarray:
    """The corners of all 20 icosahedron faces, split EXCLUSION_LEVELS times."""
    antipode = np.abs(ICOSAHEDRON[:, None] + ICOSAHEDRON[None]).sum(axis=2).argmin(axis=1)
    corners = ICOSAHEDRON[np.vstack([FACES, antipode[FACES]])]
    for _ in range(EXCLUSION_LEVELS):
        corners = split_corners_reference(corners)
    return corners


def components_reference(corners, centres, rho, found, start) -> list:
    """Clusters of faces (corners (k, 3, 3)) that hold the same corner bits, as FixedComponents."""
    if not len(corners):
        return []
    faces = np.unique(corners.reshape(-1, 3), axis=0, return_inverse=True)[1].reshape(-1, 3)
    labels = np.arange(len(faces))
    while True:
        least = np.full(len(faces) * 3, len(faces))
        np.minimum.at(least, faces, labels[:, None])
        merged = least[faces].min(axis=1)
        merged = merged[merged]
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


def fixed_set_sphere_reference(v) -> FixedSet:
    """dynamics.fixed_set_sphere with faces held as corner coordinates."""
    rows = v.coefficient_rows()
    scale = 1.0 + float(np.abs(rows).sum())
    lip = _lipschitz(v, scale)
    allowance = 128.0 * _EPS * scale
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        corners = start_corners_reference()
        x, rho = _geometry(corners)
        keep = _open(v, rows, lip, allowance, x, rho)
        corners, x, rho = corners[keep], x.compress(keep, axis=1), rho[keep]
        points, radii = _balls(v, lip, scale, *_newton(v, rows, x)[:2])
        left = ~_accounted_for(x, rho, points, radii)
        if not left.any():
            return FixedSet(_distinct_points(points), [])
        corners = corners[left]
        for _ in range(COMPONENT_LEVELS):
            if not len(corners):
                break
            corners = split_corners_reference(corners)
            x, rho = _geometry(corners)
            keep = _open(v, rows, lip, allowance, x, rho)
            corners, x, rho = corners[keep], x.compress(keep, axis=1), rho[keep]
        starts = np.flatnonzero(~_accounted_for(x, rho, points, radii))
        found, r, start = _newton(v, rows, x[:, starts])
        more, more_radii = _balls(v, lip, scale, found, r)
        points = np.hstack([points, more])
        left = starts[~_accounted_for(x[:, starts], rho[starts], more, more_radii)]
        position = np.full(len(rho), -1)
        position[left] = np.arange(len(left))
        components = components_reference(corners[left], x[:, left].T, rho[left], found, position[starts[start]])
    return FixedSet(_distinct_points(points), components)
