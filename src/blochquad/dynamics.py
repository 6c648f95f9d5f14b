"""Orbits of quadratic Bloch maps: collapse law, fixed points, circle chaos.

For a sphere-preserving map without linear terms, |V(f)| = |f|^2, so every
strictly interior orbit collapses to the origin at a doubly exponential
rate while sphere orbits stay on the sphere.  The restriction of the
benchmark map to the invariant circle {f3 = 0} is an angle-doubling map,
which drives the divergence-rate estimator and the conjugacy check with
the full-height logistic parabola.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicableError, NotHaarFormError
from .pauli import TOL_STATE
from .purity import check_haar_conditions
from .qmap import QuadraticMapCoeffs, evaluate, is_haar_form, jacobian

UNDERFLOW_FLUSH = 1e-300


@dataclass(frozen=True)
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
    """
    f = np.array(f0, dtype=float)
    if np.linalg.norm(f) > 1.0 + TOL_STATE:
        raise ValueError(f"start point norm {np.linalg.norm(f)} exceeds 1")
    points = [f.copy()]
    for _ in range(steps):
        f = evaluate(v, f)
        if math.hypot(*f) < UNDERFLOW_FLUSH:
            points.append(np.zeros(3))
            break
        points.append(f.copy())
    points = np.array(points)
    return Trajectory(points=points, norms=np.array([math.hypot(*p) for p in points]))


def verify_collapse(v: QuadraticMapCoeffs, f0, steps: int) -> float:
    """Max relative error of |V^n(f0)| against |f0|^(2^n) for n <= steps.

    Only meaningful for certified sphere-preserving maps without linear
    terms; terms with predicted norm below 1e-290 are skipped.
    """
    if not is_haar_form(v) or not check_haar_conditions(v).verdict:
        raise NotApplicableError("collapse law needs a certified sphere-preserving map")
    f0 = np.asarray(f0, dtype=float)
    norm0 = float(np.linalg.norm(f0))
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


def fixed_points_sphere(v: QuadraticMapCoeffs, grid_density: int = 32) -> list:
    """Fixed points of V on the unit sphere.

    Seeds a polar x azimuthal grid (grid_density x 2*grid_density) and runs
    at most 60 damped Newton steps on V(f) - f = 0.  Each step solves
    (J - I) s = -(V(f) - f) for all active seeds in one batched LAPACK
    solve; when some seed's system is exactly singular, that iteration
    takes the pseudo-inverse step (np.linalg.pinv) for every active seed
    instead.  Steps longer than 0.5 are cut to 0.5.  A seed stops
    iterating (its row freezes) when its update is rejected, because the
    new point is non-finite or has norm >= 10: f is unchanged, so every
    later step would repeat the rejected one.  It also freezes once its
    step is at most 1e-15 * max(1, |f|_inf), i.e. it has converged to
    rounding.  Converged points with residual <= 1e-9 that lie within 1e-6
    of the sphere are sorted lexicographically and deduplicated greedily:
    the first remaining candidate is kept and every candidate within 1e-6
    of it is dropped, until none remain.
    """
    if grid_density < 1:
        raise ValueError("grid_density must be >= 1")
    theta = np.linspace(0.0, np.pi, grid_density)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * grid_density, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    f = np.column_stack(
        [
            (np.sin(tt) * np.cos(pp)).ravel(),
            (np.sin(tt) * np.sin(pp)).ravel(),
            np.cos(tt).ravel(),
        ]
    )
    eye = np.eye(3)
    active = np.arange(len(f))
    for _ in range(60):
        if not active.size:
            break
        x = f[active]
        residual = (evaluate(v, x) - x)[..., None]
        system = jacobian(v, x) - eye
        try:
            step = -np.linalg.solve(system, residual)[..., 0]
        except np.linalg.LinAlgError:
            step = -(np.linalg.pinv(system) @ residual)[..., 0]
        lengths = np.linalg.norm(step, axis=1, keepdims=True)
        step = step * np.where(lengths > 0.5, 0.5 / np.maximum(lengths, 1e-300), 1.0)
        x_new = x + step
        ok = np.isfinite(x_new).all(axis=1) & (np.linalg.norm(x_new, axis=1) < 10.0)
        f[active[ok]] = x_new[ok]
        moving = np.abs(step).max(axis=1) > 1e-15 * np.maximum(1.0, np.abs(x).max(axis=1))
        active = active[ok & moving]

    residuals = np.linalg.norm(evaluate(v, f) - f, axis=1)
    on_sphere = np.abs(np.linalg.norm(f, axis=1) - 1.0) <= 1e-6
    keep = np.isfinite(residuals) & (residuals <= 1e-9) & on_sphere
    candidates = f[keep]
    candidates = candidates[np.lexsort(candidates.T[::-1])]

    found: list[np.ndarray] = []
    while len(candidates):
        found.append(candidates[0])
        candidates = candidates[np.linalg.norm(candidates - candidates[0], axis=1) > 1e-6]
    return found


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
    """CSV rows `n,f1,f2,f3,norm` with 17-significant-digit decimals."""
    fh.write("n,f1,f2,f3,norm\n")
    for n, (point, norm) in enumerate(zip(traj.points, traj.norms)):
        fh.write(
            f"{n},{point[0]:.17g},{point[1]:.17g},{point[2]:.17g},{norm:.17g}\n"
        )
