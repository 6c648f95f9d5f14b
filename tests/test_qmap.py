import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import (
    QuadraticMapCoeffs,
    delta0,
    delta1,
    evaluate,
    homogeneous_part,
    induced_qmap,
    is_haar_form,
    linear_part,
)
from conftest import random_delta


def test_evaluate_benchmark_values():
    v0 = induced_qmap(delta0())
    assert np.allclose(evaluate(v0, [1, 0, 0]), [0, 1, 0])
    # whole f1 = 0 circle maps to (0, -1, 0)
    assert np.abs(evaluate(v0, [0, 0.6, 0.8]) - np.array([0, -1, 0])).max() < 1e-15
    v1 = induced_qmap(delta1((0, 0, 1)))
    assert np.allclose(evaluate(v1, [0.6, 0, 0]), [0, 0, 0.36])


def test_evaluate_batches_match_single_calls(rng):
    v = QuadraticMapCoeffs(*rng.normal(size=(9, 3)))
    points = rng.uniform(-1, 1, size=(50, 3))
    batch = evaluate(v, points)
    for f, out in zip(points, batch):
        assert np.abs(evaluate(v, f) - out).max() < 1e-13


def test_homogeneous_linear_decomposition(rng):
    v = QuadraticMapCoeffs(*rng.normal(size=(9, 3)))
    L = linear_part(v)
    h = homogeneous_part(v)
    for _ in range(100):
        f = rng.uniform(-1, 1, size=3)
        assert np.abs(evaluate(v, f) - (evaluate(h, f) + L @ f)).max() < 1e-13


def test_linear_part_layout():
    v = QuadraticMapCoeffs(d=(1, 2, 3), e=(4, 5, 6), g=(7, 8, 9))
    f = np.array([1.0, 0.0, 0.0])
    assert np.allclose(evaluate(v, f), v.d)
    assert np.allclose(linear_part(v) @ f, v.d)


def test_is_haar_form():
    assert is_haar_form(induced_qmap(delta0()))
    assert is_haar_form(induced_qmap(delta1((1, 0, 0))))
    assert not is_haar_form(QuadraticMapCoeffs(d=(1, 0, 0)))


@settings(max_examples=100)
@given(st.floats(-2, 2))
def test_degree_two_homogeneity(s):
    v0 = induced_qmap(delta0())
    f = np.array([0.3, -0.5, 0.7])
    lhs = evaluate(v0, s * f)
    rhs = s * s * evaluate(v0, f)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_coefficient_rows_are_cached_read_only(rng):
    v = QuadraticMapCoeffs(*rng.normal(size=(9, 3)))
    rows = v.coefficient_rows()
    fields = ("a", "b", "c", "A", "B", "Gamma", "d", "e", "g")
    assert np.array_equal(rows, np.stack([getattr(v, name) for name in fields]))
    assert v.coefficient_rows() is rows
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0


def test_coefficient_validation():
    with pytest.raises(ValueError):
        QuadraticMapCoeffs(a=(1, 2))
    with pytest.raises(ValueError):
        QuadraticMapCoeffs(a=(np.inf, 0, 0))


def test_linear_part_of_linear_family(rng):
    d = random_delta(rng, symmetric=True)
    v = induced_qmap(d)
    assert np.allclose(linear_part(v), 2.0 * d.B1.T)
