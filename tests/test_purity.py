import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import (
    QuadraticMapCoeffs,
    catalog,
    check_linear_isometry,
    check_q_purity,
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
from blochquad.pauli import TOL_ALG
from blochquad.purity import _FORMS, _FOURTH_POWERS, _MONOMIALS
from blochquad.sampling import generator, sphere_points
from conftest import admission_bound_config, conjugate_qmap, rotate_qmap, rotation_matrix, rotations
from algebra_reference import NotHaarFormError
from purity_reference import (
    haar_conditions,
    haar_residuals_reference,
    sphere_conditions,
    sphere_residuals_reference,
)
from sampled_oracle import MC_PASS_DEVIATION, MC_VIOLATION_DEVIATION

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
    residuals = sphere_residuals_reference(v0())
    assert len(residuals) == 25 and max(residuals.values()) == 0.0

    residuals = sphere_residuals_reference(scaled(v0(), "a", 1.1))
    assert max(residuals.values()) > TOL_ALG
    assert residuals["i.1"] == pytest.approx(0.21)

    residuals = sphere_residuals_reference(QuadraticMapCoeffs())
    assert max(residuals.values()) > TOL_ALG
    assert residuals["i.1"] == pytest.approx(1.0)


def test_haar_conditions_on_benchmarks():
    assert max(haar_residuals_reference(v0()).values()) <= TOL_ALG
    assert max(haar_residuals_reference(v1()).values()) <= TOL_ALG

    broken = scaled(v0(), "Gamma", 0.0)
    residuals = haar_residuals_reference(broken)
    assert len(residuals) == 15 and max(residuals.values()) > TOL_ALG
    assert residuals["ii.2"] == pytest.approx(2.0)
    assert max(residuals, key=residuals.get) == "ii.2"


def test_haar_conditions_reject_linear_terms():
    with pytest.raises(NotHaarFormError):
        haar_residuals_reference(QuadraticMapCoeffs(d=(1, 0, 0)))


def test_linear_isometry_examples():
    assert check_linear_isometry(np.eye(3) / 2) == (True, 0.0)
    assert check_linear_isometry(rotation_matrix((0, 0, 1), 0.7) / 2)[0] is True
    verdict, residual = check_linear_isometry(np.diag([0.5, 0.5, 0.4]))
    assert verdict is False
    assert residual == pytest.approx(0.36)


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
        assert check_q_purity(v)[0] is True
        dev, _ = monte_carlo_sphere(v, samples=100000, seed=42)
        assert dev <= MC_PASS_DEVIATION


def test_oracle_agreement_violations(rng):
    fields = ("a", "b", "c", "A", "Gamma")  # the nonzero coefficient vectors
    for k in range(50):
        field = fields[int(rng.integers(len(fields)))]
        factor = rng.uniform(1.05, 1.5)
        candidate = scaled(v0(), field, factor)
        verdict, (lower, _) = check_q_purity(candidate)
        assert verdict is False and lower > MC_VIOLATION_DEVIATION
        dev, _ = monte_carlo_sphere(candidate, samples=10000, seed=int(k))
        assert dev > MC_VIOLATION_DEVIATION


def test_isometry_implies_sphere_oracle_passes():
    B = rotation_matrix((2, 1, -1), 1.3) / 2
    assert check_linear_isometry(B)[0]
    rows = 2.0 * B.T
    v = QuadraticMapCoeffs(d=rows[0], e=rows[1], g=rows[2])
    dev, _ = monte_carlo_sphere(v, samples=100000, seed=5)
    assert dev <= MC_PASS_DEVIATION


def test_certified_maps_preserve_ball():
    # 10000 points uniform in the ball: sphere directions at cube-root radii
    rng = generator(11)
    points = sphere_points(rng, 10000) * rng.uniform(0.0, 1.0, size=(10000, 1)) ** (1.0 / 3.0)
    for v in [v0(), v1()] + isometric_linear_maps():
        assert check_q_purity(v)[0] is True
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
        verdict, (lower, upper) = check_q_purity(v)
        assert verdict is True and (lower, upper) == sphere_deviation(v)
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




GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["bound_plus", "bound_minus", "bound_random"])
def test_the_admission_bound_goldens_read_impure_with_a_finite_bound(name):
    # coefficients near 1e302, whose squares overflow: math.hypot scales them
    v = induced_qmap(load_config(GOLDEN / f"{name}.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict, (lower, upper) = check_q_purity(v)
    assert verdict is False
    assert 1e300 < lower <= upper < np.inf


def delta1_tilted(size):
    """delta1 (V(f) = (0, 0, |f|^2)) with the f2 f3 cross vector B set to (size, 0, 0), orthogonal to t."""
    return QuadraticMapCoeffs(a=(0, 0, 1), b=(0, 0, 1), c=(0, 0, 1), B=(size, 0, 0))


def test_a_perturbation_orthogonal_to_the_image_reads_pure():
    # |V|^2 - 1 = size^2 f2^2 f3^2 moves at second order; the paper's
    # equation |B| = |b - c| is off by size itself
    verdict, (lower, upper) = check_q_purity(delta1_tilted(1e-6))
    assert verdict is True and 0.0 < lower <= 0.25e-12 <= upper <= TOL_ALG
    assert sphere_residuals_reference(delta1_tilted(1e-6))["ii.3"] == pytest.approx(1e-6)
    assert check_q_purity(delta1_tilted(1e-3))[0] is False


def allowance(v):
    return 16.0 * np.finfo(float).eps * (1.0 + np.abs(v.coefficient_rows()).sum()) ** 2


def band_map():
    """delta0 with a scaled by 1 + s, s bisected until the upper end just exceeds TOL_ALG."""
    low, high = 0.0, 1e-6
    for _ in range(60):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if sphere_deviation(scaled(v0(), "a", 1.0 + mid))[1] <= TOL_ALG else (low, mid)
    return scaled(v0(), "a", 1.0 + high)


def test_the_verdict_reads_each_end_of_the_interval():
    v = band_map()
    verdict, (lower, upper) = check_q_purity(v)
    assert verdict is None and lower <= TOL_ALG < upper
    assert check_q_purity(v, tol=upper)[0] is True
    assert check_q_purity(v, tol=0.5 * lower)[0] is False
    with pytest.raises(ValueError, match="tol must be a finite number at least 0"):
        check_q_purity(v, tol=math.inf)


def test_the_verdict_and_the_bound_do_not_depend_on_the_frame():
    # The Bombieri norm is rotation-invariant, so the upper end moves by
    # rounding alone, within the allowance, and keeps its side of TOL_ALG
    # wherever it is farther from it than that.  The lower end is read at
    # vertices fixed in the frame; here it stays above TOL_ALG too, also for
    # delta1 tilted by 1e-4, whose largest deviation is 2.5 TOL_ALG.
    rng = np.random.default_rng(20)
    frames = [rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(20)]
    maps = [v0(), v1(), delta1_tilted(1e-6), delta1_tilted(2e-9), delta1_tilted(1e-4), scaled(v0(), "a", 1.001), band_map()]
    for v in maps:
        verdict, (_, upper) = check_q_purity(v)
        for R in frames:
            turned = conjugate_qmap(v, R)
            turned_verdict, (_, turned_upper) = check_q_purity(turned)
            bound = max(allowance(v), allowance(turned))
            assert abs(turned_upper - upper) <= bound
            if abs(upper - TOL_ALG) > bound:
                assert turned_verdict is verdict


# ------------------------------------------------ exact arithmetic references


def exact_rows(v):
    """The coefficient rows of v as a (9, 3) object array of Fractions, each the float's exact value."""
    return np.array([[Fraction(x) for x in row] for row in v.coefficient_rows().tolist()], dtype=object)


def _times(p, q):
    """Product of two polynomials held as {exponent tuple: coefficient}."""
    out = {}
    for e, x in p.items():
        for f, y in q.items():
            key = tuple(i + j for i, j in zip(e, f))
            out[key] = out.get(key, 0) + x * y
    return out


def _plus(*polys):
    out = {}
    for p in polys:
        for e, x in p.items():
            out[e] = out.get(e, 0) + x
    return out


FEATURE_EXPONENTS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def exact_forms(rows):
    """(E, O): the quartic and cubic forms with |V(f)|^2 - 1 = E + O on the unit sphere, expanded exactly.

    E = |Q f|^2 + |L f|^2 |f|^2 - |f|^4 and O = 2 <Q f, L f>, multiplied out
    term by term from the rows, independently of blochquad.purity's tables.
    """
    quadratic = [{FEATURE_EXPONENTS[i]: rows[i][k] for i in range(6)} for k in range(3)]
    linear = [{FEATURE_EXPONENTS[i]: rows[i][k] for i in range(6, 9)} for k in range(3)]
    square = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    E = _plus(
        *[_times(q, q) for q in quadratic],
        _times(_plus(*[_times(l, l) for l in linear]), square),
        {e: -x for e, x in _times(square, square).items()},
    )
    O = _plus(*[{e: 2 * x for e, x in _times(q, l).items()} for q, l in zip(quadratic, linear)])
    return E, O


def bombieri_square(form):
    """||p||_B^2 = sum (a! / k!) c_a^2, exactly."""
    return sum(
        Fraction(math.prod(map(math.factorial, e)), math.factorial(sum(e))) * x * x for e, x in form.items()
    )


def assert_upper_covers_the_exact_bound(v):
    # sqrt(X) + sqrt(Y) <= U  iff  D = U^2 - X - Y >= 0 and 4 X Y <= D^2
    E, O = exact_forms(exact_rows(v))
    X, Y = bombieri_square(E), bombieri_square(O)
    U = Fraction(sphere_deviation(v)[1])
    D = U * U - X - Y
    assert D >= 0 and 4 * X * Y <= D * D


def coefficients_vanish_with_the_equations(rows):
    """Whether the 25 exact coefficients vanish; asserts that the paper's equations vanish exactly then.

    Group (ii) is taken as squared norms, which are rational.
    """
    E, O = exact_forms(rows)
    coefficients_vanish = all(x == 0 for x in (*E.values(), *O.values()))
    assert all(r == 0 for _, r in sphere_conditions(rows, root=lambda s: s)) == coefficients_vanish
    if all(x == 0 for x in rows[6:].ravel()):
        assert all(r == 0 for _, r in haar_conditions(rows, root=lambda s: s)) == coefficients_vanish
    return coefficients_vanish


def cayley(k):
    """The rational rotation (I - K)(I + K)^-1 for the skew matrix K of the rational vector k."""
    k1, k2, k3 = (Fraction(x) for x in k)
    K = np.array([[0, -k3, k2], [k3, 0, -k1], [-k2, k1, 0]], dtype=object)
    eye = np.array([[Fraction(int(i == j)) for j in range(3)] for i in range(3)], dtype=object)
    inverse = (eye - K + np.outer([k1, k2, k3], [k1, k2, k3])) / (1 + k1 * k1 + k2 * k2 + k3 * k3)
    R = (eye - K) @ inverse
    assert ((R.T @ R) == eye).all()
    return R


def exact_image(rows, f):
    features = [math.prod(x**p for x, p in zip(f, e)) for e in FEATURE_EXPONENTS]
    return np.array(features, dtype=object) @ rows


def rotate_rows(rows, R1, R2):
    """Exact rows of f -> R1 V(R2 f), read off its values at the basis vectors, their negatives and sums."""
    e = [np.array([Fraction(int(i == j)) for j in range(3)], dtype=object) for i in range(3)]

    def image(f):
        return R1 @ exact_image(rows, R2 @ f)

    plus, minus = [image(x) for x in e], [image(-x) for x in e]
    cross = [image(e[i] + e[j]) - plus[i] - plus[j] for i, j in ((0, 1), (1, 2), (0, 2))]
    return np.array([*[(p + m) / 2 for p, m in zip(plus, minus)], *cross, *[(p - m) / 2 for p, m in zip(plus, minus)]])


CAYLEY_VECTORS = [(1, 0, 0), (Fraction(1, 2), Fraction(-1, 3), 2), (3, 5, Fraction(-7, 4))]


@pytest.mark.parametrize("name", ["delta0", "delta1", "linear"])
def test_the_paper_equations_vanish_exactly_when_the_coefficients_do(name):
    rows = exact_rows(induced_qmap(catalog.get(name).delta))
    assert coefficients_vanish_with_the_equations(rows)
    for k1, k2 in zip(CAYLEY_VECTORS, CAYLEY_VECTORS[1:] + CAYLEY_VECTORS[:1]):
        turned = rotate_rows(rows, cayley(k1), cayley(k2))
        assert coefficients_vanish_with_the_equations(turned)
        # a rational planted perturbation of one entry: neither list vanishes
        for row, column, size in ((4, 0, Fraction(1, 10**6)), (0, 2, Fraction(-1, 3)), (7, 1, Fraction(1, 10**9))):
            planted = turned.copy()
            planted[row, column] += size
            assert not coefficients_vanish_with_the_equations(planted)


def assert_the_certificate_matches_the_references(v):
    assert_upper_covers_the_exact_bound(v)
    verdict = check_q_purity(v)[0]
    if coefficients_vanish_with_the_equations(exact_rows(v)):
        assert verdict is True


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
    # the Gram matrix the certificate reads holds each per-pair product x @ y
    # with its bits, signed zeros included, and its upper end covers the exact
    # Bombieri bound of the map's coefficients, from 1e-160 to the admission bound
    rows = v.coefficient_rows()
    per_pair = np.array([[x @ y for y in rows] for x in rows])
    assert v.gram.tobytes() == per_pair.tobytes()
    assert_the_certificate_matches_the_references(v)


@settings(max_examples=60, deadline=None)
@given(rotations, rotations, st.sampled_from(("a", "b", "c", "A", "B", "Gamma")), st.floats(0.5, 1.5))
def test_gram_certificates_match_the_references_on_haar_form_maps(R1, R2, field, factor):
    for v in (v0(), v1()):
        rotated = rotate_qmap(v, R1, R2)
        assert is_haar_form(rotated)
        assert check_q_purity(rotated)[0] is True
        assert_the_certificate_matches_the_references(rotated)
        assert_the_certificate_matches_the_references(scaled(rotated, field, factor))


GOLDEN_CONFIGS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "status.json")


@pytest.mark.parametrize("path", GOLDEN_CONFIGS, ids=lambda p: p.name)
def test_gram_certificates_match_the_references_on_the_golden_configs(path):
    v = induced_qmap(load_config(path))
    assert_the_certificate_matches_the_references(v)
    assert_the_certificate_matches_the_references(QuadraticMapCoeffs(*v.coefficient_rows()[:6]))
