import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import (
    NotApplicableError,
    QuadraticMapCoeffs,
    catalog,
    circle_restriction_step,
    delta0,
    delta1,
    estimate_divergence_rate,
    evaluate,
    fixed_points_sphere,
    fixed_set_sphere,
    induced_qmap,
    iterate,
    linear_family,
    logistic_conjugacy_residual,
    verify_collapse,
)
from blochquad import dynamics
from blochquad.dynamics import (
    _START,
    _START_CENTRES,
    _START_RHO,
    _distinct_points,
    _geometry,
    _lipschitz,
    _newton_steps,
    _open,
    write_trajectory_csv,
)
from blochquad.positivity import FACE_COS, split_faces
from blochquad.qmap import COEFFICIENT_LIMIT, jacobian
from blochquad.sampling import generator, sphere_points
from conftest import conjugate_qmap, rotation_matrix, rotations, sphere_faces
from orbit_reference import (
    cramer_steps_reference,
    fixed_set_sphere_reference,
    iterate_reference,
    newton_steps_reference,
    start_corners_reference,
    write_trajectory_csv_reference,
)


def v0():
    return induced_qmap(delta0())


def test_iterate_sends_sphere_to_fixed_target():
    v = induced_qmap(delta1((1, 0, 0)))
    traj = iterate(v, [0, 1, 0], 4)
    assert np.allclose(traj.points[1], [1, 0, 0])
    assert np.allclose(traj.points[4], [1, 0, 0])


def test_iterate_fails_closed_at_the_first_non_finite_iterate():
    # delta0 drifts off its invariant circle and leaves the ball; the 64 steps
    # before the overflow stay finite and are returned in full
    start = [0.6, 0.8, 0.0]
    assert np.isfinite(iterate(v0(), start, 64).points).all()
    with pytest.raises(ValueError, match=r"at step 65 \(norm 1\.242e\+191 at step 64\)"):
        iterate(v0(), start, 70)
    with pytest.raises(ValueError, match="at step 11 "):
        iterate(QuadraticMapCoeffs(a=[2.0, 0.0, 0.0]), [0.9, 0.0, 0.0], 20)


def test_iterate_refuses_a_negative_step_count():
    with pytest.raises(ValueError, match="steps must be at least 0, got -3"):
        iterate(v0(), [0.6, 0.8, 0.0], -3)
    traj = iterate(v0(), [0.6, 0.8, 0.0], 0)
    assert len(traj) == 1 and np.array_equal(traj.points, [[0.6, 0.8, 0.0]])


def test_iterate_f1_zero_circle_is_absorbed():
    traj = iterate(v0(), [0, 0.6, 0.8], 3)
    assert np.abs(traj.points[1] - np.array([0, -1, 0])).max() < 1e-12
    assert np.abs(traj.points[3] - np.array([0, -1, 0])).max() < 1e-12


def test_iterate_interior_norms_square_each_step():
    traj = iterate(v0(), [0.9, 0, 0], 4)
    assert np.allclose(traj.norms[:5], [0.9, 0.81, 0.6561, 0.43046721, 0.18530201888518424])


def test_iterate_rejects_outside_ball():
    # a start with a NaN or infinite entry is no point of the ball either,
    # also when the orbit takes no step
    for start in ([1.1, 0, 0], [math.nan, 0, 0], [0, -math.inf, 0]):
        for steps in (0, 3):
            with pytest.raises(ValueError, match="start point norm"):
                iterate(v0(), start, steps)
    # f @ f would overflow: the true norm, and no RuntimeWarning
    with pytest.raises(ValueError, match=r"start point norm 1e\+200 exceeds 1"):
        iterate(v0(), [1e200, 0, 0], 1)


@pytest.mark.parametrize(
    "start, shape",
    [([0.1, 0.2], (2,)), ([0.1, 0.2, 0.3, 0.4], (4,)), ([[0.1, 0.2, 0.3]] * 2, (2, 3)), (0.5, ()), ([[0.6, 0.8, 0.0]], (1, 3))],
)
def test_iterate_refuses_a_start_that_is_not_one_point(start, shape):
    for steps in (0, 3):
        with pytest.raises(ValueError, match=rf"^start point must have shape \(3,\), got {re.escape(str(shape))}$"):
            iterate(v0(), start, steps)


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
    with pytest.raises(ValueError, match="start point norm nan"):
        verify_collapse(v0(), [math.nan, 0, 0], 4)


def test_verify_collapse_checks_the_shape_before_the_norm():
    # no norm is taken of a start that is not one point, and a far start is refused by its true norm
    for start, shape in (([0.1, 0.2], (2,)), ([[1e200, 0.0, 0.0]] * 2, (2, 3))):
        with pytest.raises(ValueError, match=rf"^start point must have shape \(3,\), got {re.escape(str(shape))}$"):
            verify_collapse(v0(), start, 4)
    with pytest.raises(ValueError, match="strictly inside the ball"):
        verify_collapse(v0(), [1e200, 0.0, 0.0], 4)


def test_fixed_points_of_target_map():
    t = np.array([0, 0, 1.0])
    points = fixed_points_sphere(induced_qmap(delta1(t)))
    assert len(points) == 1
    assert np.abs(points[0] - t).max() < 1e-9


# On the circle f3 = 0, delta0's map acts on the angle as a -> pi/2 - 2a, whose
# fixed points are a = pi/6 + 2k pi/3; off the circle no sphere point is fixed.
CIRCLE_POINTS = np.array([[-math.sqrt(3.0) / 2.0, 0.5, 0.0], [0.0, -1.0, 0.0], [math.sqrt(3.0) / 2.0, 0.5, 0.0]])


def test_fixed_points_of_benchmark_map():
    points = fixed_points_sphere(v0())
    assert len(points) == 3
    assert np.abs(np.array(points) - CIRCLE_POINTS).max() <= 1e-12


def rotated_benchmark_maps(count):
    """count seeded random rotations R and the maps f -> R V(R^T f) of delta0, whose fixed points are R p."""
    rng = np.random.default_rng(19)
    maps = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        maps.append((q, conjugate_qmap(v0(), q.T)))
    return maps


def test_rotated_benchmark_maps_give_the_three_rotated_circle_points():
    for R, v in rotated_benchmark_maps(40):
        fixed = fixed_set_sphere(v)
        assert fixed.components == [] and len(fixed.points) == 3
        for q in CIRCLE_POINTS @ R.T:
            assert min(np.abs(p - q).max() for p in fixed.points) <= 1e-12


def test_benchmark_and_target_maps_need_no_component_pass(monkeypatch):
    # every open face lies in the ball of a found point, so the search never refines
    def refine(*args):
        raise AssertionError("the component pass ran")

    monkeypatch.setattr(dynamics, "_refine", refine)
    targets = [sign * np.eye(3)[k] for k in range(3) for sign in (1.0, -1.0)]
    targets += [t / np.linalg.norm(t) for t in np.random.default_rng(23).normal(size=(10, 3))]
    circles = [induced_qmap(catalog.get("delta0").delta)] + [v for _, v in rotated_benchmark_maps(40)]
    sinks = [induced_qmap(catalog.get("delta1").delta)] + [induced_qmap(delta1(t)) for t in targets]
    for maps, count in ((circles, 3), (sinks, 1)):
        for v in maps:
            fixed = fixed_set_sphere(v)
            assert fixed.components == [] and len(fixed.points) == count


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


def assert_same_points(points, reference):
    assert len(points) == len(reference)
    for p, q in zip(points, reference):
        assert np.abs(p - q).max() <= 1e-9


def assert_matches_reference_search(v, grid):
    assert_same_points(fixed_points_sphere(v, grid), fixed_points_sphere_reference(v, grid))


@pytest.mark.parametrize("grid", [3, 4, 8, 32])
def test_fixed_points_match_reference_search(grid):
    assert_matches_reference_search(v0(), grid)
    assert_matches_reference_search(conjugate_qmap(v0(), rotation_matrix((1, 2, 3), 0.7)), grid)
    # at grid 4, J - I is nearly singular at the seeds where <t, f> = 1/2
    assert_matches_reference_search(induced_qmap(delta1((0, 0, 1))), grid)
    assert_matches_reference_search(induced_qmap(linear_family(0.3 * np.eye(3))), grid)


def well_conditioned_systems(rng, n):
    """n random 3x3 matrices Q1 diag(s) Q2 with singular values s in [0.5, 2]."""
    q1 = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    q2 = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    return (q1 * rng.uniform(0.5, 2.0, size=(n, 1, 3))) @ q2


def newton_steps(jac, residual):
    """_newton_steps on the (9, n) rows of J - I and the (3, n) residual, as the search calls it.

    The search's errstate ignores the overflow, invalid and divide warnings
    of the closed form; fixed_points_sphere raises none of them (see
    test_fixed_points_at_the_admission_bound).
    """
    m = np.ascontiguousarray((jac - np.eye(3)).reshape(-1, 9).T)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _newton_steps(m, np.ascontiguousarray(residual.T))


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e150])
def test_newton_steps_match_lapack_solve(rng, scale):
    # at 1e150, det(J - I) overflows: those rows must reach the pinv step, also
    # when the numerator stays finite and would give a zero step
    jac = scale * well_conditioned_systems(rng, 500) + np.eye(3)
    for residual in (rng.normal(size=(500, 3)), scale * rng.normal(size=(500, 3))):
        expected = -np.linalg.solve(jac - np.eye(3), residual[..., None])[..., 0]
        steps = newton_steps(jac, residual).T
        assert np.all(np.abs(steps - expected) <= 1e-12 * np.abs(expected).max(axis=1, keepdims=True))


newton_systems = st.tuples(st.integers(0, 2**32 - 1), *[st.sampled_from([1.0, 1e100, 1e150, 1e160])] * 2, st.integers(1, 300))


def random_newton_systems(seed, scale, residual_scale, n):
    """jac (n, 3, 3) and residual (n, 3): some J - I with a zero first column, some zero residuals."""
    rng = np.random.default_rng(seed)
    jac = scale * rng.normal(size=(n, 3, 3)) + np.eye(3)
    jac[rng.random(n) < 0.1, :, 0] = [1.0, 0.0, 0.0]
    residual = residual_scale * rng.normal(size=(n, 3))
    residual[rng.random(n) < 0.1] = 0.0
    return jac, residual


@settings(max_examples=60, deadline=None)
@given(newton_systems)
def test_newton_steps_match_the_reference(system):
    # from 1e150 det(J - I) overflows, also where the numerators stay finite, and
    # those rows fall back to pinv; some rows are exactly singular (first column
    # of J - I zero) or have no residual
    jac, residual = random_newton_systems(*system)
    n = len(jac)
    expected = newton_steps_reference(jac, residual)
    steps = newton_steps(jac, residual)
    assert steps.shape == expected.shape == (3, n)
    assert np.all(np.abs(steps - expected) <= 1e-12 * np.abs(expected).max(axis=0))


@settings(max_examples=60, deadline=None)
@given(newton_systems)
def test_newton_steps_keep_the_bits_of_the_row_layout(system):
    # the same arithmetic on rows of J - I as on views of (n, 3, 3) systems,
    # the pinv fallback included: every step has the same bytes
    jac, residual = random_newton_systems(*system)
    assert newton_steps(jac, residual).tobytes() == cramer_steps_reference(jac, residual).tobytes()


def test_fixed_points_at_the_admission_bound():
    # the largest admitted coefficients: no RuntimeWarning, the reference's points
    rng = generator(11)
    for _ in range(3):
        v = QuadraticMapCoeffs(*(2.0 * COEFFICIENT_LIMIT * rng.choice([-1.0, 1.0], size=(9, 3))))
        assert_matches_reference_search(v, 8)


_EPS = float(np.finfo(float).eps)


def bounded_map(seed, scale, signs):
    """A map with entries scale * u, u uniform on [-1, 1] or (signs) a random sign: admitted up to scale 2 * COEFFICIENT_LIMIT."""
    rng = np.random.default_rng(seed)
    entries = rng.choice([-1.0, 1.0], size=(9, 3)) if signs else rng.uniform(-1.0, 1.0, size=(9, 3))
    return QuadraticMapCoeffs(*(scale * entries))


lipschitz_maps = st.builds(
    bounded_map,
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 0.5, 1.0, 10.0, 1e100, COEFFICIENT_LIMIT, 2.0 * COEFFICIENT_LIMIT]),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(lipschitz_maps, st.integers(0, 2**32 - 1))
def test_the_spectral_bound_holds_on_the_sphere(v, seed):
    # L is finite, at most H plus its rounding share, and at least sigma_max(T(h))
    # for sampled unit h, up to the largest admitted coefficients, without a warning
    hessian = v._hessian
    scale = 1.0 + float(np.abs(v.coefficient_rows()).sum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lip = _lipschitz(v, scale)
        h = sphere_points(generator(seed), 2000)
        sampled = np.linalg.svd((h @ hessian).reshape(-1, 3, 3), compute_uv=False)[:, 0].max()
    H = float(np.linalg.svd(hessian, compute_uv=False)[0])
    assert math.isfinite(lip) and lip <= H + 64.0 * _EPS * scale
    assert sampled <= lip


def test_the_spectral_bound_of_the_benchmark_map():
    # T(h) of delta0 has spectral norm 2 |h| at its worst, and the vertex bound is at most 2 / min FACE_COS
    v = v0()
    lip = _lipschitz(v, 1.0 + float(np.abs(v.coefficient_rows()).sum()))
    assert 2.0 <= lip <= 2.0 / FACE_COS.min() + 1e-12
    H = float(np.linalg.svd(v._hessian, compute_uv=False)[0])
    assert H == pytest.approx(2.0 * math.sqrt(3.0)) and lip < H


def assert_same_bits(points, reference):
    assert len(points) == len(reference)
    for p, q in zip(points, reference):
        assert p.shape == q.shape == (3,)
        assert p.tobytes() == q.tobytes()  # signs of zero included


def planted_fixed_point_map(rows, p):
    """rows' quadratic part with d, e, g set so that the linear part is (p - Q(p)) p^T: V(p) = p for |p| = 1."""
    q = QuadraticMapCoeffs(*rows[:6])
    d, e, g = np.outer(p - evaluate(q, p), p).T
    return QuadraticMapCoeffs(*rows[:6], d=d, e=e, g=g)


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: np.linalg.norm(u) > 0.1).map(
    lambda u: np.array(u) / np.linalg.norm(u)
)
search_maps = st.one_of(
    st.builds(lambda R: conjugate_qmap(v0(), R), rotations),
    st.builds(lambda t: induced_qmap(delta1(t)), unit_vectors),
    st.builds(
        lambda seed, p: planted_fixed_point_map(0.5 * np.random.default_rng(seed).normal(size=(9, 3)), p),
        st.integers(0, 2**32 - 1),
        unit_vectors,
    ),
)


@settings(max_examples=15, deadline=None)
@given(search_maps)
def test_fixed_set_holds_every_point_of_the_grid_search(v):
    # every point the pinv grid search finds is one of the points or lies in a component
    fixed = fixed_set_sphere(v)
    assert_same_bits(fixed_points_sphere(v), fixed.points)
    for grid in (8, 32):
        for q in fixed_points_sphere_reference(v, grid):
            near = any(np.abs(p - q).max() <= 1e-9 for p in fixed.points)
            assert near or any(component.covers(q) for component in fixed.components)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), unit_vectors)
def test_fixed_points_hold_the_planted_point(seed, p):
    v = planted_fixed_point_map(0.5 * np.random.default_rng(seed).normal(size=(9, 3)), p)
    assert any(np.abs(q - p).max() <= 1e-9 for q in fixed_points_sphere(v))


@pytest.mark.parametrize(
    "seed, p",
    [
        (1785, [-0.4446585300124606, 0.0, -0.8957001684085796]),
        (2692, [0.0, 0.0, -1.0]),
        (4482, [0.3458521755327336, 0.0, 0.9382890134064639]),
        (827, [-0.818919555371281, 0.0, 0.5739083217993127]),
        (2406, [0.0, 0.649436084387404, 0.7604161836097103]),
    ],
)
def test_the_planted_point_is_not_taken_from_a_column_that_has_not_settled(seed, p):
    # one column runs Newton's method to its step limit, and another ends inside
    # the planted point's basin but 1e-9 or more from it, with a residual below 1e-9
    v = planted_fixed_point_map(0.5 * np.random.default_rng(seed).normal(size=(9, 3)), np.array(p))
    assert any(np.abs(q - p).max() <= 1e-9 for q in fixed_points_sphere(v))


def test_fixed_points_ignore_the_grid_density():
    expected = fixed_points_sphere(v0())
    for grid in (1, 8, 32):
        assert_same_bits(fixed_points_sphere(v0(), grid), expected)


def circle_points(axis, n=200):
    """n points of the great circle orthogonal to the coordinate axis."""
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.insert(np.column_stack([np.cos(angles), np.sin(angles)]), axis, 0.0, axis=1)


def test_a_circle_of_fixed_points_is_one_component():
    # V(f) = f + f2 f fixes the whole circle {f2 = 0}, where J - I = f e2^T has rank 1
    v = QuadraticMapCoeffs(b=[0.0, 1.0, 0.0], A=[1.0, 0.0, 0.0], B=[0.0, 0.0, 1.0], d=[1.0, 0.0, 0.0], e=[0.0, 1.0, 0.0], g=[0.0, 0.0, 1.0])
    fixed = fixed_set_sphere(v)
    assert fixed.points == [] and len(fixed.components) == 1
    (component,) = fixed.components
    assert all(component.covers(q) for q in circle_points(1))
    assert np.abs(component.centres[:, 1]).max() <= 0.1
    if component.point is not None:
        assert abs(component.point[1]) <= 1e-9 and component.covers(component.point)


def test_the_identity_is_one_component():
    fixed = fixed_set_sphere(induced_qmap(linear_family(0.5 * np.eye(3))))
    assert fixed.points == [] and len(fixed.components) == 1
    assert all(fixed.components[0].covers(q) for q in sphere_points(generator(3), 200))


def test_the_equator_map_gives_the_equator_and_the_pole():
    # V(f) = (f1, f2, f3^2) fixes the equator and the pole; J - I = diag(0, 0, 2 f3 - 1)
    # has rank 1 on the equator's tangent planes and rank 0 on the pole's
    fixed = fixed_set_sphere(QuadraticMapCoeffs(d=[1, 0, 0], e=[0, 1, 0], c=[0, 0, 1]))
    equator = [c for c in fixed.components if all(c.covers(q) for q in circle_points(2))]
    assert len(equator) == 1 and np.abs(equator[0].centres[:, 2]).max() <= 0.1
    pole = np.array([0.0, 0.0, 1.0])
    assert any(np.abs(p - pole).max() <= 1e-9 for p in fixed.points) or any(c.covers(pole) for c in fixed.components)


def test_no_fixed_point_is_an_empty_fixed_set():
    # the exclusion drops every face: no point and no component proves there is no fixed point
    for v in (QuadraticMapCoeffs(), induced_qmap(linear_family(0.3 * np.eye(3)))):
        fixed = fixed_set_sphere(v)  # a FixedSet equals only itself
        assert (fixed.points, fixed.components) == ([], [])


def test_the_exclusion_keeps_a_face_with_a_non_finite_residual_open():
    # the contraction's bound drops every face; centroids with a NaN or an infinite entry stay open
    v = induced_qmap(linear_family(0.3 * np.eye(3)))
    centres = np.array(_START_CENTRES)
    centres[:, :3] = [np.nan, np.inf, -np.inf]
    with np.errstate(invalid="ignore"):
        keep = _open(v, v.coefficient_rows(), 0.0, 0.0, centres, _START_RHO)
    assert keep[:3].all() and not keep[3:].any()


def test_the_start_mesh_is_three_splits_of_the_sphere():
    V, F = sphere_faces()
    for _ in range(3):
        V, F = split_faces(V, F)
    assert np.array_equal(_START[0], V) and np.array_equal(_START[1], F)
    assert (len(V), len(F)) == (642, 1280)
    # and it has the bits of the faces split by corner arithmetic
    corners = start_corners_reference()
    assert V[F].tobytes() == corners.tobytes()
    centres, rho = _geometry(corners)
    assert centres.tobytes() == _START_CENTRES.tobytes() and rho.tobytes() == _START_RHO.tobytes()


def reference_maps():
    """Random normal maps at three scales, planted points, the catalog maps, the equator map, the identity, a near miss and rotated delta0 maps."""
    rng = np.random.default_rng(7)
    maps = [QuadraticMapCoeffs(*(rng.normal(size=(9, 3)) * s)) for s in (0.1, 0.5, 1.0) for _ in range(100)]
    for _ in range(20):
        p = rng.normal(size=3)
        maps.append(planted_fixed_point_map(0.5 * rng.normal(size=(9, 3)), p / np.sqrt(p @ p)))
    maps += [induced_qmap(entry.delta) for entry in catalog.entries()]
    maps.append(QuadraticMapCoeffs(d=[1, 0, 0], e=[0, 1, 0], c=[0, 0, 1]))
    maps.append(QuadraticMapCoeffs(d=[1, 0, 0], e=[0, 1, 0], g=[0, 0, 1]))
    # one triangle survives every level here and carries no point
    maps.append(QuadraticMapCoeffs(*np.random.default_rng(1).normal(size=(9, 3))))
    maps += [v for _, v in rotated_benchmark_maps(10)]
    return maps


def test_fixed_set_matches_the_corner_form_search_bit_for_bit():
    with_components = 0
    for v in reference_maps():
        fixed, reference = fixed_set_sphere(v), fixed_set_sphere_reference(v)
        assert_same_bits(fixed.points, reference.points)
        assert len(fixed.components) == len(reference.components)
        for c, r in zip(fixed.components, reference.components):
            assert c.centres.tobytes() == r.centres.tobytes() and c.radii.tobytes() == r.radii.tobytes()
            assert (c.point is None) == (r.point is None)
            assert c.point is None or c.point.tobytes() == r.point.tobytes()
        with_components += bool(fixed.components)
    assert with_components >= 50


# Candidate sets as the search's final filter sees them: columns drawn from a
# few points, exact copies, copies moved by less or more than the 1e-6
# radius, and components that tie with the other sign of zero.
_candidate_values = st.sampled_from([0.0, -0.0, 0.6, -0.6, 0.8, 1.0, -1.0, 0.6 + 4e-7, 0.6 - 4e-7, 0.6 + 3e-6])
candidate_sets = st.lists(st.tuples(_candidate_values, _candidate_values, _candidate_values), max_size=40).map(
    lambda columns: np.array(columns, dtype=float).reshape(-1, 3).T.copy()
)


def distinct_points_reference(candidates) -> list:
    """The rows of candidates (n, 3), sorted lexicographically (stable lexsort) and deduplicated greedily."""
    candidates = candidates[np.lexsort(candidates.T[::-1])]
    found = []
    while len(candidates):
        found.append(candidates[0])
        candidates = candidates[np.linalg.norm(candidates - candidates[0], axis=1) > 1e-6]
    return found


@settings(max_examples=300, deadline=None)
@given(candidate_sets)
def test_distinct_points_keep_the_bits_of_the_sorted_dedup(candidates):
    # the lexicographic minimum of each round is the first column of the stable
    # lexsort: same points, same order, same bytes (signs of zero included)
    assert_same_bits(_distinct_points(candidates), distinct_points_reference(candidates.T))


def test_distinct_points_take_the_first_of_a_signed_zero_tie():
    candidates = np.array([[0.0, -0.0, 0.0], [1.0, 1.0, -1.0], [-0.0, 0.0, 0.0]])
    points = _distinct_points(candidates)
    assert [p.tobytes() for p in points] == [candidates[:, 2].tobytes(), candidates[:, 0].tobytes()]


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


def _random_map(seed, scale):
    return QuadraticMapCoeffs(*(scale * np.random.default_rng(seed).normal(size=(9, 3))))


# Chaotic sphere orbits (rotated delta0), orbits that land on a fixed point
# (delta1), and random maps that collapse, wander or overflow.
orbit_maps = st.one_of(
    st.builds(lambda R: conjugate_qmap(v0(), R), rotations),
    st.builds(lambda t: induced_qmap(delta1(t / np.linalg.norm(t))), st.tuples(*[st.floats(0.1, 1.0)] * 3).map(np.array)),
    st.builds(_random_map, st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0, 3.0])),
)
orbit_starts = st.one_of(
    st.sampled_from([(0.6, 0.8, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (-0.0, 0.5, -0.0)]),
    st.builds(
        lambda u, r: r * np.array(u) / np.linalg.norm(u),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: np.linalg.norm(u) > 0.1),
        st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    ),
)


def _orbit(iterate_fn, v, f0, steps):
    try:
        return iterate_fn(v, f0, steps)
    except ValueError as exc:  # the overflow error, which must match too
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(orbit_maps, orbit_starts, st.integers(0, 80))
def test_iterate_and_csv_match_the_reference_bit_for_bit(v, f0, steps):
    # a chaotic orbit doubles any last-bit difference each step, so the rows
    # must be the reference's exactly: same bytes, signs of zero included
    traj, expected = _orbit(iterate, v, f0, steps), _orbit(iterate_reference, v, f0, steps)
    if isinstance(expected, str):
        assert traj == expected
        return
    assert traj.points.tobytes() == expected.points.tobytes()
    assert traj.norms.tobytes() == expected.norms.tobytes()
    text, expected_text = io.StringIO(), io.StringIO()
    write_trajectory_csv(traj, text)
    write_trajectory_csv_reference(expected, expected_text)
    assert text.getvalue() == expected_text.getvalue()


def _reference_maps():
    """The catalog maps, 40 rotated delta0 maps and random maps at scales 1e-3 .. 2 * COEFFICIENT_LIMIT."""
    rng = np.random.default_rng(2022)
    maps = [induced_qmap(entry.delta) for entry in catalog.entries()]
    maps += [conjugate_qmap(v0(), rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 2.0 * math.pi))) for _ in range(40)]
    for scale in (1e-3, 0.3, 1.0, 3.0, 1e3, 1e100, 2 * COEFFICIENT_LIMIT):
        maps += [QuadraticMapCoeffs(*(scale * rng.uniform(-1.0, 1.0, size=(9, 3)))) for _ in range(4)]
    return maps


def _reference_starts():
    """Sphere starts, interior starts and the centre, signs of zero included."""
    rng = np.random.default_rng(2023)
    sphere = rng.normal(size=(4, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    interior = sphere * rng.uniform(0.05, 0.95, size=(4, 1))
    return [(0.6, 0.8, 0.0), (-0.0, 0.0, 1.0), (0.0, 0.0, 0.0), *sphere, *interior]


def test_iterate_matches_the_per_step_evaluate_loop_byte_for_byte():
    # three floats per step give the rows and norms of one single-point
    # evaluate per step, and the same error text, step numbers included
    outcomes = set()
    for v in _reference_maps():
        for f0 in _reference_starts():
            for steps in (0, 1, 50):
                traj, expected = _orbit(iterate, v, f0, steps), _orbit(iterate_reference, v, f0, steps)
                if isinstance(expected, str):
                    assert traj == expected
                    outcomes.add("overflow")
                    continue
                assert traj.points.tobytes() == expected.points.tobytes()
                assert traj.norms.tobytes() == expected.norms.tobytes()
                outcomes.add("flush" if len(traj) < steps + 1 else "full")
    assert outcomes == {"overflow", "flush", "full"}


def test_flushing_and_overflowing_orbits_match_the_reference():
    v = v0()  # |V(f)| = |f|^2: an interior orbit flushes at step 10, one outside the ball overflows
    flushed, expected = iterate(v, [0.5, 0.0, 0.0], 50), iterate_reference(v, [0.5, 0.0, 0.0], 50)
    assert len(flushed) == 11 and flushed.norms[-1] == 0.0 and np.signbit(flushed.points[-1]).sum() == 0
    assert flushed.points.tobytes() == expected.points.tobytes()
    assert flushed.norms.tobytes() == expected.norms.tobytes()
    grow = QuadraticMapCoeffs(a=[4.0, 0.0, 0.0])
    with pytest.raises(ValueError) as exc:
        iterate(grow, [0.9, 0.0, 0.0], 50)
    assert str(exc.value) == _orbit(iterate_reference, grow, [0.9, 0.0, 0.0], 50)
    assert str(exc.value).startswith("the orbit overflows double precision at step ")


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
