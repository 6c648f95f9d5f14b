"""Orbits of quadratic Bloch maps: collapse law, fixed points, circle chaos.

For a sphere-preserving map without linear terms, |V(f)| = |f|^2, so every
strictly interior orbit collapses to the origin at a doubly exponential
rate while sphere orbits stay on the sphere.  The restriction of the
benchmark map to the invariant circle {f3 = 0} is an angle-doubling map,
which drives the divergence-rate estimator and the conjugacy check with
the full-height logistic parabola.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicableError, NotHaarFormError
from .pauli import TOL_STATE, vector_norm
from .purity import check_haar_conditions
from .qmap import QuadraticMapCoeffs, _feature_rows, evaluate, is_haar_form, jacobian

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
    Raises ValueError at the first iterate that is not finite: a map that
    leaves the ball can grow doubly exponentially and overflow, and no
    later point of the orbit means anything.  Raises ValueError for steps < 0,
    for a start point whose shape is not (3,), and for one outside the ball
    or with a NaN entry.  Each step is one single-point evaluate(), so every
    row is what the map gives that point alone.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    f = np.array(f0, dtype=float)
    if f.shape != (3,):
        raise ValueError(f"start point must have shape (3,), got {f.shape}")
    start = vector_norm(f)
    if not start <= 1.0 + TOL_STATE:  # a NaN fails too
        raise ValueError(f"start point norm {start} exceeds 1")
    points, norms = [f], [math.hypot(*f.tolist())]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught by the norm test
        for n in range(1, steps + 1):
            f = evaluate(v, f)
            norm = math.hypot(*f.tolist())
            if not math.isfinite(norm):
                raise ValueError(f"the orbit overflows double precision at step {n} (norm {norms[-1]:.3e} at step {n - 1})")
            if norm < UNDERFLOW_FLUSH:
                points.append(np.zeros(3))
                norms.append(0.0)
                break
            points.append(f)
            norms.append(norm)
    return Trajectory(points=np.array(points), norms=np.array(norms))


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


def _newton_steps(m: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Solutions s of M s = -r for a batch, in components: m (9, n), residual (3, n).

    Row 3 i + j of m is entry [i, j] of M = J - I across the batch, and row
    k of residual is component k of r; returns the steps as a (3, n) array.
    Each system is solved in closed form by Cramer's rule, with
    M = [c0 c1 c2] and det M = c0 . (c1 x c2):

        s = -(r . (c1 x c2), c2 . (c0 x r), -c1 . (c0 x r)) / det M,

    where every operation is a length-n vector operation on rows of m and
    residual.  A column whose determinant is not finite, or whose step is
    not finite (which a zero determinant makes it), takes the pseudo-inverse
    step (np.linalg.pinv) instead; that is how an overflow in the closed form
    is caught.  The caller ignores the overflow, invalid and divide warnings
    that the closed form may raise on the way.
    """
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    r0, r1, r2 = residual
    u0, u1, u2 = m4 * m8 - m7 * m5, m7 * m2 - m1 * m8, m1 * m5 - m4 * m2  # c1 x c2
    q0, q1, q2 = m3 * r2 - m6 * r1, m6 * r0 - m0 * r2, m0 * r1 - m3 * r0  # c0 x r
    det = m0 * u0 + m3 * u1 + m6 * u2
    step = np.array(
        [
            r0 * u0 + r1 * u1 + r2 * u2,
            m2 * q0 + m5 * q1 + m8 * q2,
            -(m1 * q0 + m4 * q1 + m7 * q2),
        ]
    )
    step /= -det
    # A sum is finite only when every term is; an overflowing sum just builds the mask.
    if not (math.isfinite(det.sum()) and math.isfinite(step.sum())):
        finite = np.isfinite(step)
        fallback = np.flatnonzero(~(np.isfinite(det) & finite[0] & finite[1] & finite[2]))
        # pinv and the product take the (k, 3, 3) systems and (k, 3) residuals C-contiguous, one row per system
        system = np.ascontiguousarray(m[:, fallback].T).reshape(-1, 3, 3)
        rhs = np.ascontiguousarray(residual[:, fallback].T)
        step[:, fallback] = -(np.linalg.pinv(system) @ rhs[..., None])[..., 0].T
    return step


def _residual(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V(x) - x for the columns of x (3, n), as a (3, n) array; rows are the map's 9x3 coefficients.

    n >= 2 columns take one (3, 9) @ (9, n) product, which gives the bits of
    the (n, 9) @ (9, 3) batch evaluate().  One column keeps evaluate()'s
    (1, 9) @ (9, 3) vector-matrix product, which can round differently from
    the matrix-vector one.
    """
    features = _feature_rows(x)
    image = rows.T @ features if x.shape[1] > 1 else (features.T @ rows).T
    image -= x
    return image


@functools.cache
def _seed_grid(grid_density: int) -> np.ndarray:
    """Read-only (3, n) seeds: a polar x azimuthal grid on the unit sphere."""
    theta = np.linspace(0.0, np.pi, grid_density)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * grid_density, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    seeds = np.array([(np.sin(tt) * np.cos(pp)).ravel(), (np.sin(tt) * np.sin(pp)).ravel(), np.cos(tt).ravel()])
    seeds.setflags(write=False)
    return seeds


def fixed_points_sphere(v: QuadraticMapCoeffs, grid_density: int = 32) -> list:
    """Fixed points of V on the unit sphere.

    Seeds a polar x azimuthal grid (grid_density x 2*grid_density) and runs
    at most 60 damped Newton steps on V(f) - f = 0.  Each step solves
    (J - I) s = -(V(f) - f) for all active seeds at once in closed form
    (_newton_steps); a seed whose system is exactly singular, or whose
    closed-form step is not finite, takes the pseudo-inverse step
    (np.linalg.pinv) alone.  The seeds are the columns of C-contiguous
    (3, n) arrays, the Jacobian entries and the nine features rows of
    (9, n) arrays, so every operation runs on contiguous rows; each product
    rounds as the (n, 3) row-major batch product did (one active seed keeps
    the vector-matrix products, see _residual and jacobian()), so the points
    are bit for bit those of a search on rows.  Steps longer than 0.5 are
    cut to 0.5.  A seed
    stops iterating (its row freezes) when its update is rejected, because
    the new point is non-finite or has norm >= 10: f is unchanged, so every
    later step would repeat the rejected one.  It also freezes once its
    step is at most 1e-15 * max(1, |f|_inf), i.e. it has converged to
    rounding.  Converged points with residual <= 1e-9 that lie within 1e-6
    of the sphere are deduplicated greedily in lexicographic order: the
    smallest remaining candidate is kept and every candidate within 1e-6 of
    it is dropped, until none remain (_distinct_points).
    """
    if grid_density < 1:
        raise ValueError("grid_density must be >= 1")
    # f holds the seeds as columns; x the columns still iterating, at the
    # indices `active`.  A column is written back to f once, when it freezes.
    f = _seed_grid(grid_density).copy()
    x = f
    active = np.arange(f.shape[1])
    rows = v.coefficient_rows()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(60):
            if not active.size:
                break
            # The nine Jacobian entries as rows of length n, a view of
            # jacobian()'s buffer; J - I in place on the diagonal rows 0, 4, 8.
            m = jacobian(v, x.T).reshape(-1, 9).T
            m[0::4] -= 1.0
            step = _newton_steps(m, _residual(rows, x))
            # Sums over the three components add them in order, so the norms are
            # those of np.linalg.norm(axis=1); 0.5 / max(length, 0.5) is exactly 1
            # for a step no longer than 0.5.
            step *= 0.5 / np.maximum(np.sqrt((step * step).sum(axis=0)), 0.5)
            x_new = x + step
            ok = np.sqrt((x_new * x_new).sum(axis=0)) < 10.0  # False for NaN and inf too
            moving = np.abs(step).max(axis=0) > 1e-15 * np.maximum(1.0, np.abs(x).max(axis=0))
            going = ok & moving
            if going.all():
                x = x_new
            else:  # the frozen columns go back to f; a rejected update keeps its old point
                frozen = ~going
                f[:, active[frozen]] = (x_new if ok.all() else np.where(ok, x_new, x))[:, frozen]
                x, active = x_new.compress(going, axis=1), active.compress(going)
    f[:, active] = x

    # The norms below are those of np.linalg.norm(axis=1) on the points as rows.
    residual = _residual(rows, f)
    residuals = np.sqrt((residual * residual).sum(axis=0))
    on_sphere = np.abs(np.sqrt((f * f).sum(axis=0)) - 1.0) <= 1e-6
    return _distinct_points(f.compress((residuals <= 1e-9) & on_sphere, axis=1))  # a NaN residual fails too


def _distinct_points(candidates: np.ndarray) -> list:
    """The columns of candidates (3, n), deduplicated greedily in lexicographic order.

    Each round keeps the lexicographically smallest remaining column and
    drops every column within 1e-6 of it.  The smallest is found by
    narrowing the remaining columns on row 0, then row 1, then row 2, to
    those equal to the row's minimum (so -0.0 ties with 0.0); of full ties
    the lowest index is kept.  That is the first column of a stable
    lexicographic sort, without sorting all n columns.
    """
    found: list[np.ndarray] = []
    while candidates.shape[1]:
        tied = np.arange(candidates.shape[1])
        for row in candidates:
            values = row[tied]
            tied = tied[values == values.min()]
        first = candidates[:, tied[0]].copy()
        found.append(first)
        gap = candidates - first[:, None]
        candidates = candidates.compress(np.sqrt((gap * gap).sum(axis=0)) > 1e-6, axis=1)
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
    """CSV rows `n,f1,f2,f3,norm` with 17-significant-digit decimals, in one write.

    Every row is formatted by one %-format over a flat (n, f1, f2, f3, norm)
    table; %d prints each step number, held as an exact float, as an integer.
    """
    count = len(traj)
    table = np.column_stack([np.arange(count), traj.points, traj.norms])
    fh.write("n,f1,f2,f3,norm\n" + "%d,%.17g,%.17g,%.17g,%.17g\n" * count % tuple(table.ravel().tolist()))
