import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import (
    NotApplicableError,
    QuadraticMapCoeffs,
    circle_restriction_step,
    delta0,
    delta1,
    estimate_divergence_rate,
    evaluate,
    fixed_points_sphere,
    induced_qmap,
    iterate,
    linear_family,
    logistic_conjugacy_residual,
    verify_collapse,
)
from blochquad.dynamics import write_trajectory_csv
from blochquad.qmap import jacobian
from blochquad.sampling import generator, sphere_points
from conftest import conjugate_qmap, rotation_matrix


def v0():
    return induced_qmap(delta0())


def test_iterate_sends_sphere_to_fixed_target():
    v = induced_qmap(delta1((1, 0, 0)))
    traj = iterate(v, [0, 1, 0], 4)
    assert np.allclose(traj.points[1], [1, 0, 0])
    assert np.allclose(traj.points[4], [1, 0, 0])


def test_iterate_f1_zero_circle_is_absorbed():
    traj = iterate(v0(), [0, 0.6, 0.8], 3)
    assert np.abs(traj.points[1] - np.array([0, -1, 0])).max() < 1e-12
    assert np.abs(traj.points[3] - np.array([0, -1, 0])).max() < 1e-12


def test_iterate_interior_norms_square_each_step():
    traj = iterate(v0(), [0.9, 0, 0], 4)
    assert np.allclose(traj.norms[:5], [0.9, 0.81, 0.6561, 0.43046721, 0.18530201888518424])


def test_iterate_rejects_outside_ball():
    with pytest.raises(ValueError):
        iterate(v0(), [1.1, 0, 0], 3)


def test_iterate_flushes_underflow():
    traj = iterate(v0(), [0.1, 0, 0], 20)
    assert traj.norms[-1] == 0.0
    assert len(traj) < 21  # stopped early once the orbit hit exact zero


def test_trajectory_norm_consistency():
    traj = iterate(v0(), [0.7, 0.1, 0.2], 10)
    assert np.abs(traj.norms - np.linalg.norm(traj.points, axis=1)).max() < 1e-13


def test_verify_collapse_benchmarks():
    assert verify_collapse(v0(), [0.9, 0, 0], 8) <= 1e-9
    v = induced_qmap(delta1((0, 0, 1)))
    assert verify_collapse(v, [0, 0, 0.5], 5) <= 1e-9
    assert verify_collapse(v0(), [0, 0, 0], 5) == 0.0


def test_verify_collapse_rejects_unsuitable_maps():
    with pytest.raises(NotApplicableError):
        verify_collapse(induced_qmap(linear_family(np.eye(3) / 2)), [0.5, 0, 0], 4)
    broken = QuadraticMapCoeffs(a=(0, 1.1, 0), b=(0, -1, 0), c=(0, -1, 0), A=(2, 0, 0), Gamma=(0, 0, 2))
    with pytest.raises(NotApplicableError):
        verify_collapse(broken, [0.5, 0, 0], 4)
    with pytest.raises(ValueError):
        verify_collapse(v0(), [1.0, 0, 0], 4)


def test_fixed_points_of_target_map():
    t = np.array([0, 0, 1.0])
    points = fixed_points_sphere(induced_qmap(delta1(t)))
    assert len(points) == 1
    assert np.abs(points[0] - t).max() < 1e-9


def test_fixed_points_of_benchmark_map():
    # On the circle f3 = 0, V acts on the angle as a -> pi/2 - 2a, whose fixed
    # points are a = pi/6 + 2k pi/3; off the circle no sphere point is fixed.
    h = math.sqrt(3.0) / 2.0
    expected = np.array([[-h, 0.5, 0.0], [0.0, -1.0, 0.0], [h, 0.5, 0.0]])
    points = fixed_points_sphere(v0())
    assert len(points) == 3
    assert np.abs(np.array(points) - expected).max() <= 1e-12


def test_fixed_points_of_zero_map():
    assert fixed_points_sphere(QuadraticMapCoeffs()) == []


def test_fixed_points_of_contraction():
    assert fixed_points_sphere(induced_qmap(linear_family(0.3 * np.eye(3)))) == []


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(lambda u: np.linalg.norm(u) > 0.1),
    st.floats(0.0, 2.0 * math.pi),
)
def test_fixed_points_follow_rotations(axis, angle):
    # f -> R V(R^T f) has the fixed points R p of V
    R = rotation_matrix(axis, angle)
    expected = [R @ p for p in fixed_points_sphere(v0())]
    points = fixed_points_sphere(conjugate_qmap(v0(), R.T))
    assert len(points) == len(expected)
    for q in expected:
        assert min(np.abs(p - q).max() for p in points) <= 1e-9


def fixed_points_sphere_reference(v, grid_density):
    """The original search: 60 damped pinv Newton steps on every seed, pairwise dedup."""
    theta = np.linspace(0.0, np.pi, grid_density)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * grid_density, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    f = np.column_stack([(np.sin(tt) * np.cos(pp)).ravel(), (np.sin(tt) * np.sin(pp)).ravel(), np.cos(tt).ravel()])
    for _ in range(60):
        residual = evaluate(v, f) - f
        step = (-np.linalg.pinv(jacobian(v, f) - np.eye(3)) @ residual[..., None])[..., 0]
        lengths = np.linalg.norm(step, axis=1, keepdims=True)
        step = step * np.where(lengths > 0.5, 0.5 / np.maximum(lengths, 1e-300), 1.0)
        f_new = f + step
        ok = np.isfinite(f_new).all(axis=1) & (np.linalg.norm(f_new, axis=1) < 10.0)
        f = np.where(ok[:, None], f_new, f)
    residuals = np.linalg.norm(evaluate(v, f) - f, axis=1)
    keep = np.isfinite(residuals) & (residuals <= 1e-9) & (np.abs(np.linalg.norm(f, axis=1) - 1.0) <= 1e-6)
    found = []
    for point in f[keep][np.lexsort(f[keep].T[::-1])]:
        if all(np.linalg.norm(point - other) > 1e-6 for other in found):
            found.append(point)
    return found


def assert_matches_reference_search(v, grid):
    points = fixed_points_sphere(v, grid)
    reference = fixed_points_sphere_reference(v, grid)
    assert len(points) == len(reference)
    for p, q in zip(points, reference):
        assert np.abs(p - q).max() <= 1e-9


@pytest.mark.parametrize("grid", [1, 2, 3, 4, 8, 32])
def test_fixed_points_match_reference_search(grid):
    assert_matches_reference_search(v0(), grid)
    assert_matches_reference_search(conjugate_qmap(v0(), rotation_matrix((1, 2, 3), 0.7)), grid)
    # at grid 4, J - I is nearly singular at the seeds where <t, f> = 1/2
    assert_matches_reference_search(induced_qmap(delta1((0, 0, 1))), grid)
    assert_matches_reference_search(induced_qmap(linear_family(0.3 * np.eye(3))), grid)


def test_fixed_points_fall_back_to_pinv(monkeypatch):
    # the identity map makes every J - I exactly zero, which LAPACK's solve refuses
    assert_matches_reference_search(induced_qmap(linear_family(0.5 * np.eye(3))), 4)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    # with every solve refused, the search runs on pinv steps alone
    monkeypatch.setattr(np.linalg, "solve", singular)
    assert_matches_reference_search(v0(), 8)


def test_circle_restriction_step_values():
    assert circle_restriction_step(1.0, 0.0) == (0.0, 1.0)
    assert circle_restriction_step(0.0, 1.0) == (0.0, -1.0)
    h = math.sqrt(0.5)
    out = circle_restriction_step(h, h)
    assert abs(out[0] - 1.0) < 1e-15 and abs(out[1]) < 1e-15


def test_circle_restriction_preserves_circle(rng):
    for _ in range(100):
        angle = rng.uniform(0, 2 * np.pi)
        f1, f2 = math.cos(angle), math.sin(angle)
        g1, g2 = circle_restriction_step(f1, f2)
        assert abs(g1 * g1 + g2 * g2 - 1.0) < 1e-14


def test_logistic_conjugacy_residual():
    assert logistic_conjugacy_residual(2) == 0.0  # endpoints only
    assert logistic_conjugacy_residual(10000) <= 1e-12
    with pytest.raises(ValueError):
        logistic_conjugacy_residual(1)


def test_divergence_rate_is_log_two():
    rate = estimate_divergence_rate(1.0, 10000, 1e-6)
    assert abs(rate - math.log(2)) < 0.05


def test_divergence_rate_independent_of_separation():
    a = estimate_divergence_rate(0.37, 2000, 1e-6)
    b = estimate_divergence_rate(0.37, 2000, 5e-7)
    assert abs(a - b) < 0.02


def test_divergence_rate_degenerate_start_is_nan():
    # pi/2 maps onto the fixed point at angle -pi/2 (the point (0, -1))
    assert math.isnan(estimate_divergence_rate(math.pi / 2, 100, 1e-6))


def test_divergence_rate_validates_arguments():
    with pytest.raises(ValueError):
        estimate_divergence_rate(1.0, 100, 1e-3)
    with pytest.raises(ValueError):
        estimate_divergence_rate(1.0, 0, 1e-7)


def test_interior_collapse_to_zero(rng):
    maps = [v0(), induced_qmap(delta1((0, 1, 0)))]
    rng_points = generator(4)
    starts = 0.9 * sphere_points(rng_points, 50)
    for v in maps:
        for f0 in starts:
            traj = iterate(v, f0, 10)
            assert traj.norms[min(10, len(traj) - 1)] < 1e-12


def test_sphere_orbit_per_step_defect_accumulation():
    # the map's sphere-preservation defect along an orbit, re-projected each
    # step; the raw orbit itself doubles representation error per step
    for v in (v0(), induced_qmap(delta1((0, 0, 1)))):
        f = sphere_points(generator(8), 1)[0]
        accumulated = 0.0
        for _ in range(50):
            f = f / np.linalg.norm(f)
            f = evaluate(v, f)
            accumulated += abs(np.linalg.norm(f) - 1.0)
        assert accumulated <= 1e-9


def test_trajectory_csv_format(tmp_path):
    traj = iterate(v0(), [0.9, 0, 0], 2)
    out = tmp_path / "traj.csv"
    with open(out, "w") as fh:
        write_trajectory_csv(traj, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,f1,f2,f3,norm"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[1].split(",")[1]) == 0.9  # 17 significant digits round-trip
    assert len(lines) == 4
