import numpy as np
import pytest

from blochquad import (
    check_linear_isometry,
    check_positivity,
    check_q_purity,
    delta0,
    delta1,
    evaluate,
    has_haar_trace,
    induced_qmap,
    is_haar_form,
    is_symmetric,
    is_trace_preserving,
    linear_family,
    monte_carlo_sphere,
)
from blochquad import catalog
from conftest import rotation_matrix
from algebra_reference import check_linear_positivity


def test_delta0_tensor_entries():
    T = delta0().T
    expected = np.zeros((3, 3, 3))
    expected[0, 1, 0] = expected[1, 0, 0] = 1
    expected[0, 0, 1] = 1
    expected[1, 1, 1] = expected[2, 2, 1] = -1
    expected[0, 2, 2] = expected[2, 0, 2] = 1
    assert np.array_equal(T, expected)


def test_delta0_structure():
    d = delta0()
    assert is_trace_preserving(d)
    assert is_symmetric(d)
    assert has_haar_trace(d)
    v = induced_qmap(d)
    assert evaluate(v, [0.3, -0.4, 0.5]) == pytest.approx(
        [2 * 0.3 * -0.4, 0.09 - 0.16 - 0.25, 2 * 0.3 * 0.5]
    )
    assert check_q_purity(v)[0] is True


def test_delta1_structure():
    t = np.array([0.6, 0.8, 0.0])
    d = delta1(t)
    assert is_trace_preserving(d) and is_symmetric(d) and has_haar_trace(d)
    v = induced_qmap(d)
    f = np.array([0.1, 0.5, -0.3])
    assert np.allclose(evaluate(v, f), t * (f @ f))
    dev, _ = monte_carlo_sphere(v, samples=10000, seed=1)
    assert dev <= 1e-12


def test_delta1_requires_unit_vector():
    with pytest.raises(ValueError):
        delta1((0, 0, 0.5))
    with pytest.raises(ValueError):
        delta1((1, 1))
    with pytest.raises(ValueError, match=r"got norm 1e\+200$"):
        delta1((0, -1e200, 0))


def test_linear_family_cases():
    half_rotation = rotation_matrix((1, 0, 2), 1.1) / 2
    assert check_linear_isometry(half_rotation)[0]
    assert check_linear_positivity(half_rotation).verdict

    bad = np.diag([0.6, 0, 0])
    assert not check_linear_isometry(bad)[0]
    assert not check_linear_positivity(bad).verdict

    zero = linear_family(np.zeros((3, 3)))
    assert check_positivity(zero).verdict is True
    assert check_q_purity(induced_qmap(zero))[0] is False


def test_catalog_entries_are_certified():
    names = [entry.name for entry in catalog.entries()]
    assert names == ["delta0", "delta1", "linear"]
    for entry in catalog.entries():
        assert is_trace_preserving(entry.delta)
        assert is_symmetric(entry.delta)


def test_sphere_preserving_entries_are_not_positive():
    for name in ("delta0", "delta1"):
        entry = catalog.get(name)
        v = induced_qmap(entry.delta)
        assert is_haar_form(v) and check_q_purity(v)[0] is True
        assert check_positivity(entry.delta).verdict is False


def test_catalog_get_unknown():
    with pytest.raises(KeyError):
        catalog.get("nosuch")
