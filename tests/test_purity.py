import numpy as np
import pytest

from blochquad import (
    NotHaarFormError,
    QuadraticMapCoeffs,
    check_haar_conditions,
    check_linear_isometry,
    check_sphere_conditions,
    delta0,
    delta1,
    evaluate,
    induced_qmap,
    linear_family,
    monte_carlo_sphere,
)
from blochquad.sampling import generator, sphere_points
from conftest import rotation_matrix


def v0():
    return induced_qmap(delta0())


def v1(t=(0, 0, 1)):
    return induced_qmap(delta1(t))


def scaled(v, field, factor):
    values = {name: getattr(v, name) for name in ("a", "b", "c", "A", "B", "Gamma", "d", "e", "g")}
    values[field] = values[field] * factor
    return QuadraticMapCoeffs(**values)


def test_sphere_conditions_on_benchmarks():
    report = check_sphere_conditions(v0())
    assert report.verdict
    assert report.max_residual == 0.0

    report = check_sphere_conditions(scaled(v0(), "a", 1.1))
    assert not report.verdict
    assert report.residual("i.1") == pytest.approx(0.21)

    report = check_sphere_conditions(QuadraticMapCoeffs())
    assert not report.verdict
    assert report.residual("i.1") == pytest.approx(1.0)


def test_haar_conditions_on_benchmarks():
    assert check_haar_conditions(v0()).verdict
    assert check_haar_conditions(v1()).verdict

    broken = scaled(v0(), "Gamma", 0.0)
    report = check_haar_conditions(broken)
    assert not report.verdict
    assert report.residual("ii.2") == pytest.approx(2.0)
    assert report.worst_condition == "ii.2"


def test_haar_conditions_reject_linear_terms():
    with pytest.raises(NotHaarFormError):
        check_haar_conditions(QuadraticMapCoeffs(d=(1, 0, 0)))


def test_linear_isometry_examples():
    assert check_linear_isometry(np.eye(3) / 2).verdict
    assert check_linear_isometry(rotation_matrix((0, 0, 1), 0.7) / 2).verdict
    report = check_linear_isometry(np.diag([0.5, 0.5, 0.4]))
    assert not report.verdict
    assert report.max_residual == pytest.approx(0.36)


def test_monte_carlo_benchmarks():
    dev, _ = monte_carlo_sphere(v0(), samples=100000, seed=42)
    assert dev <= 1e-12
    dev, _ = monte_carlo_sphere(v1(), samples=100000, seed=42)
    assert dev <= 1e-12
    dev, worst = monte_carlo_sphere(scaled(v0(), "a", 1.1), samples=10000, seed=42)
    assert dev > 0.05
    assert abs(np.linalg.norm(worst) - 1.0) < 1e-12


def test_monte_carlo_determinism():
    first = monte_carlo_sphere(v0(), samples=1000, seed=7)
    second = monte_carlo_sphere(v0(), samples=1000, seed=7)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])


def test_monte_carlo_rejects_zero_samples():
    with pytest.raises(ValueError):
        monte_carlo_sphere(v0(), samples=0, seed=1)


def isometric_linear_maps():
    maps = []
    for axis, angle in (((0, 0, 1), 0.9), ((1, 1, 0), 2.2), ((1, -2, 3), 0.4)):
        maps.append(induced_qmap(linear_family(rotation_matrix(axis, angle) / 2)))
    return maps


def test_oracle_agreement_soundness():
    for v in [v0(), v1(), v1((1, 0, 0))] + isometric_linear_maps():
        assert check_sphere_conditions(v).verdict
        dev, _ = monte_carlo_sphere(v, samples=100000, seed=42)
        assert dev <= 1e-9


def test_oracle_agreement_violations(rng):
    fields = ("a", "b", "c", "A", "Gamma")  # the nonzero coefficient vectors
    for k in range(50):
        field = fields[int(rng.integers(len(fields)))]
        factor = rng.uniform(1.05, 1.5)
        candidate = scaled(v0(), field, factor)
        report = check_sphere_conditions(candidate)
        assert not report.verdict
        assert report.max_residual > 1e-3
        dev, _ = monte_carlo_sphere(candidate, samples=10000, seed=int(k))
        assert dev > 1e-3


def test_isometry_implies_sphere_oracle_passes():
    B = rotation_matrix((2, 1, -1), 1.3) / 2
    assert check_linear_isometry(B).verdict
    rows = 2.0 * B.T
    v = QuadraticMapCoeffs(d=rows[0], e=rows[1], g=rows[2])
    dev, _ = monte_carlo_sphere(v, samples=100000, seed=5)
    assert dev <= 1e-9


def test_certified_maps_preserve_ball():
    # 10000 points uniform in the ball: sphere directions at cube-root radii
    rng = generator(11)
    points = sphere_points(rng, 10000) * rng.uniform(0.0, 1.0, size=(10000, 1)) ** (1.0 / 3.0)
    for v in [v0(), v1()] + isometric_linear_maps():
        assert check_sphere_conditions(v).verdict
        norms = np.linalg.norm(evaluate(v, points), axis=1)
        assert norms.max() <= 1.0 + 1e-9
