from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    is_haar_form,
    linear_family,
    monte_carlo_sphere,
    sphere_deviation,
)
from blochquad.channel import DeltaCoefficients
from blochquad.cli import load_config
from blochquad.purity import _FORMS, _FOURTH_POWERS, _MONOMIALS, MC_PASS_DEVIATION, MC_VIOLATION_DEVIATION
from blochquad.sampling import generator, sphere_points
from conftest import admission_bound_config, rotate_qmap, rotation_matrix, rotations
from purity_reference import check_haar_conditions_reference, check_sphere_conditions_reference

FIELDS = ("a", "b", "c", "A", "B", "Gamma", "d", "e", "g")


def v0():
    return induced_qmap(delta0())


def v1(t=(0, 0, 1)):
    return induced_qmap(delta1(t))


def scaled(v, field, factor):
    values = {name: getattr(v, name) for name in FIELDS}
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
        assert dev <= MC_PASS_DEVIATION


def test_oracle_agreement_violations(rng):
    fields = ("a", "b", "c", "A", "Gamma")  # the nonzero coefficient vectors
    for k in range(50):
        field = fields[int(rng.integers(len(fields)))]
        factor = rng.uniform(1.05, 1.5)
        candidate = scaled(v0(), field, factor)
        report = check_sphere_conditions(candidate)
        assert not report.verdict
        assert report.max_residual > MC_VIOLATION_DEVIATION
        dev, _ = monte_carlo_sphere(candidate, samples=10000, seed=int(k))
        assert dev > MC_VIOLATION_DEVIATION


def test_isometry_implies_sphere_oracle_passes():
    B = rotation_matrix((2, 1, -1), 1.3) / 2
    assert check_linear_isometry(B).verdict
    rows = 2.0 * B.T
    v = QuadraticMapCoeffs(d=rows[0], e=rows[1], g=rows[2])
    dev, _ = monte_carlo_sphere(v, samples=100000, seed=5)
    assert dev <= MC_PASS_DEVIATION


def test_certified_maps_preserve_ball():
    # 10000 points uniform in the ball: sphere directions at cube-root radii
    rng = generator(11)
    points = sphere_points(rng, 10000) * rng.uniform(0.0, 1.0, size=(10000, 1)) ** (1.0 / 3.0)
    for v in [v0(), v1()] + isometric_linear_maps():
        assert check_sphere_conditions(v).verdict
        norms = np.linalg.norm(evaluate(v, points), axis=1)
        assert norms.max() <= 1.0 + 1e-9


# Coefficient rows at scales 1e-4 .. 1e4, and pure maps perturbed by up to 1e-3.
random_maps = st.builds(
    lambda entries, exponent: QuadraticMapCoeffs(**dict(zip(FIELDS, np.reshape(entries, (9, 3)) * 10.0**exponent))),
    st.lists(st.floats(-1.0, 1.0), min_size=27, max_size=27),
    st.integers(-4, 4),
)
perturbed_pure_maps = st.builds(
    lambda R1, R2, field, factor: scaled(rotate_qmap(induced_qmap(delta0()), R1, R2), field, factor),
    rotations,
    rotations,
    st.sampled_from(("a", "b", "c", "A", "B", "Gamma")),
    st.floats(1.0 - 1e-3, 1.0 + 1e-3),
)


@settings(max_examples=60, deadline=None)
@given(random_maps, st.integers(0, 2**31 - 1))
def test_deviation_forms_reproduce_the_sphere_deviation(v, seed):
    # the 25 coefficients upper sums are those of |V(f)|^2 - 1 on the sphere
    rows = v.coefficient_rows()
    coefficients = _FORMS @ (rows @ rows.T).ravel() - _FOURTH_POWERS
    points = sphere_points(generator(seed), 200)
    forms = np.prod(points[:, None, :] ** _MONOMIALS, axis=2) @ coefficients
    direct = (evaluate(v, points) ** 2).sum(axis=1) - 1.0
    scale = 1.0 + np.abs(rows).sum()
    assert np.abs(forms - direct).max() <= 1e-13 * scale**2


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_maps, perturbed_pure_maps))
def test_sphere_deviation_interval_is_ordered(v):
    lower, upper = sphere_deviation(v)
    assert 0.0 <= lower <= upper < np.inf


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_maps, perturbed_pure_maps), st.integers(0, 2**31 - 1))
def test_sphere_deviation_bounds_every_sampled_point(v, seed):
    points = sphere_points(generator(seed), 10000)
    deviations = np.abs((evaluate(v, points) ** 2).sum(axis=1) - 1.0)
    assert deviations.max() <= sphere_deviation(v)[1]


@settings(max_examples=60, deadline=None)
@given(rotations, rotations)
def test_sphere_deviation_vanishes_on_certified_pure_maps(R1, R2):
    maps = [rotate_qmap(v, R1, R2) for v in (v0(), v1())] + [induced_qmap(linear_family(R1 / 2.0))]
    for v in maps:
        assert check_sphere_conditions(v).verdict
        lower, upper = sphere_deviation(v)
        assert lower == 0.0 and upper <= 1e-12


def test_sphere_deviation_on_benchmarks():
    # delta0's coefficient sum is exactly 0 while a vertex rounds to 2.2e-16:
    # only the allowance keeps the interval ordered
    assert sphere_deviation(v0()) == (0.0, 16.0 * np.finfo(float).eps * 8.0**2)
    lower, upper = sphere_deviation(scaled(v0(), "a", 1.1))
    assert MC_VIOLATION_DEVIATION < lower <= monte_carlo_sphere(scaled(v0(), "a", 1.1), 10000, 42)[0] <= upper


@pytest.mark.parametrize("pattern", ["plus", "minus", "random"])
def test_sphere_deviation_is_finite_at_the_admission_bound(pattern):
    config = admission_bound_config(pattern)
    maps = [induced_qmap(DeltaCoefficients(**config))]
    sign = {"plus": 1.0, "minus": -1.0, "random": 1.0}[pattern]
    maps.append(QuadraticMapCoeffs(**{name: np.full(3, sign * 2e150) for name in FIELDS}))
    for v in maps:
        lower, upper = sphere_deviation(v)
        assert 0.0 < lower <= upper < np.inf


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_sphere_deviation_fails_closed_on_non_finite_rows(bad):
    # rows set past admission, which refuses both; inf * 0 in the Gram matrix
    # makes numpy warn before the check refuses the NaN it yields
    v = QuadraticMapCoeffs()
    rows = np.zeros((9, 3))
    rows[3, 1] = bad
    object.__setattr__(v, "_rows", rows)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="overflow"):
        sphere_deviation(v)


def assert_same_certificate(report, reference):
    assert report.verdict == reference.verdict
    assert report.worst_condition == reference.worst_condition
    assert [name for name, _ in report.residuals] == [name for name, _ in reference.residuals]
    assert [float(r).hex() for _, r in report.residuals] == [float(r).hex() for _, r in reference.residuals]


def assert_certificates_match_the_references(v):
    assert_same_certificate(check_sphere_conditions(v), check_sphere_conditions_reference(v))
    if is_haar_form(v):
        assert_same_certificate(check_haar_conditions(v), check_haar_conditions_reference(v))


def map_at_scale(entries, exponent, zero_rows, zero, haar):
    """Rows entries * 10^exponent; rows in zero_rows, and d, e, g if haar, set to the signed zero."""
    rows = np.reshape(entries, (9, 3)) * 10.0**exponent
    rows[sorted(zero_rows)] = zero
    if haar:
        rows[6:] = zero
    return QuadraticMapCoeffs(**dict(zip(FIELDS, rows)))


# Entries up to 2e150, the admission bound, down to 1e-160, whose products are
# subnormal or zero; whole rows of +0.0 or -0.0, and Haar-form maps.
scaled_maps = st.builds(
    map_at_scale,
    st.lists(st.floats(-2.0, 2.0), min_size=27, max_size=27),
    st.integers(-160, 150),
    st.sets(st.integers(0, 8), max_size=4),
    st.sampled_from((0.0, -0.0)),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(scaled_maps)
def test_gram_certificates_match_the_per_pair_references(v):
    # every residual with the bits of the per-pair products, signed zeros included
    assert_certificates_match_the_references(v)


@settings(max_examples=60, deadline=None)
@given(rotations, rotations, st.sampled_from(("a", "b", "c", "A", "B", "Gamma")), st.floats(0.5, 1.5))
def test_gram_certificates_match_the_references_on_haar_form_maps(R1, R2, field, factor):
    for v in (v0(), v1()):
        rotated = rotate_qmap(v, R1, R2)
        assert is_haar_form(rotated)
        assert_certificates_match_the_references(rotated)
        assert_certificates_match_the_references(scaled(rotated, field, factor))


GOLDEN_CONFIGS = sorted(p for p in (Path(__file__).parent / "golden").glob("*.json") if p.name != "status.json")


@pytest.mark.parametrize("path", GOLDEN_CONFIGS, ids=lambda p: p.name)
def test_gram_certificates_match_the_references_on_the_golden_configs(path):
    v = induced_qmap(load_config(path))
    assert_certificates_match_the_references(v)
    assert_certificates_match_the_references(QuadraticMapCoeffs(*v.coefficient_rows()[:6]))
