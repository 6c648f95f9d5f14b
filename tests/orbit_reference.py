"""The orbit path as it was before the single-point map step, kept as references.

evaluate_reference forms the nine features by numpy gathers and one
concatenate for any input shape; iterate_reference steps an orbit with it
and takes norms with math.hypot on numpy scalars; write_trajectory_csv_reference
writes one row per call; newton_steps_reference solves the Newton systems on
a (9, n) copy of J - I.  The tests require blochquad's orbit rows and CSV text
to equal these bit for bit, and its Newton steps to stay within 1e-12 of them.

fixed_points_sphere_reference is the fixed-point search as it was before it
ran on component-major rows: every iteration reads the points as (n, 3) rows,
takes the Jacobian as one (n, 3) @ (3, 9) product and the residual as the
batch (n, 9) @ (9, 3) product, and solves the systems with
cramer_steps_reference; distinct_points_reference is its final filter, a
stable lexicographic sort and a greedy dedup.  The tests require every
point blochquad's search returns to have the same bytes as this one's.
"""

import functools

import math

import numpy as np

from blochquad.dynamics import UNDERFLOW_FLUSH, Trajectory
from blochquad.pauli import TOL_STATE

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


def jacobian_reference(v, f) -> np.ndarray:
    """dV/df at the rows of f (n, 3) as one (n, 3) @ (3, 9) product, shape (n, 3, 3)."""
    return (f @ v._hessian + v._linear).reshape(f.shape[:-1] + (3, 3))


@functools.cache
def _seed_grid(grid_density: int) -> np.ndarray:
    theta = np.linspace(0.0, np.pi, grid_density)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * grid_density, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    seeds = np.array([(np.sin(tt) * np.cos(pp)).ravel(), (np.sin(tt) * np.sin(pp)).ravel(), np.cos(tt).ravel()])
    seeds.setflags(write=False)
    return seeds


def fixed_points_sphere_reference(v, grid_density: int = 32) -> list:
    """Fixed points of V on the unit sphere: damped Newton on (n, 3) rows, greedy dedup."""
    if grid_density < 1:
        raise ValueError("grid_density must be >= 1")
    f = _seed_grid(grid_density).copy()
    x = f
    active = np.arange(f.shape[1])
    for _ in range(60):
        if not active.size:
            break
        step = cramer_steps_reference(jacobian_reference(v, x.T), evaluate_reference(v, x.T) - x.T)
        step *= 0.5 / np.maximum(np.sqrt((step * step).sum(axis=0)), 0.5)
        x_new = x + step
        ok = np.sqrt((x_new * x_new).sum(axis=0)) < 10.0
        moving = np.abs(step).max(axis=0) > 1e-15 * np.maximum(1.0, np.abs(x).max(axis=0))
        x = np.where(ok, x_new, x)
        going = ok & moving
        if not going.all():
            f[:, active[~going]] = x[:, ~going]
            x, active = x.compress(going, axis=1), active.compress(going)
    f[:, active] = x

    points = f.T
    residuals = np.linalg.norm(evaluate_reference(v, points) - points, axis=1)
    on_sphere = np.abs(np.linalg.norm(points, axis=1) - 1.0) <= 1e-6
    keep = np.isfinite(residuals) & (residuals <= 1e-9) & on_sphere
    return distinct_points_reference(points[keep])


def distinct_points_reference(candidates) -> list:
    """The rows of candidates (n, 3), sorted lexicographically (stable lexsort) and deduplicated greedily."""
    candidates = candidates[np.lexsort(candidates.T[::-1])]
    found = []
    while len(candidates):
        found.append(candidates[0])
        candidates = candidates[np.linalg.norm(candidates - candidates[0], axis=1) > 1e-6]
    return found
