import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochquad import (
    DeltaCoefficients,
    QuadraticMapCoeffs,
    check_q_purity,
    delta0,
    delta1,
    evaluate,
    induced_qmap,
    is_haar_form,
    sphere_deviation,
)
from blochquad import channel, qmap
from blochquad.qmap import _MAP_LIMIT, _ROW_FIELDS, COEFFICIENT_LIMIT, _feature_rows, _features, admit, jacobian
from conftest import random_delta
from orbit_reference import evaluate_reference, step_reference


def concatenated_floats(fields, values):
    """The values converted one by one by np.asarray(value, float), None as zeros, concatenated."""
    return np.concatenate([np.zeros(shape) if v is None else np.asarray(v, float) for (_, shape), v in zip(fields, values)], axis=None)


@pytest.fixture(autouse=True, scope="module")
def every_admission_is_the_concatenated_floats():
    # every input a test of this module admits, through either constructor,
    # must give the bytes of its values converted and concatenated
    def checked(fields, values, limit):
        flat = admit(fields, values, limit)
        assert flat.tobytes() == concatenated_floats(fields, values).tobytes()
        return flat

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmap, "admit", checked)
        mp.setattr(channel, "admit", checked)
        yield


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


step_scales = st.sampled_from([1e-3, 1.0, 1e3, 2 * COEFFICIENT_LIMIT])
step_points = arrays(float, (3,), elements=st.floats(-1, 1))


def drawn_map(seed, scale):
    return QuadraticMapCoeffs(*(scale * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(9, 3))))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), step_scales, step_points)
@example(0, 1.0, np.zeros(3))
def test_a_single_point_takes_the_fixed_order_sum_bit_for_bit(seed, scale, f):
    # the one-point step, which every orbit step takes, sums the nine products
    # left to right from +0.0; a batch keeps the (n, 9) @ (9, 3) product.  On
    # the map's negated magnitudes a zero feature makes a -0.0 product, and
    # at the origin all nine are -0.0, whose sum from +0.0 is +0.0.
    v = drawn_map(seed, scale)
    for w in (v, QuadraticMapCoeffs(*-np.abs(v.coefficient_rows()))):
        assert evaluate(w, f).tobytes() == step_reference(w, f).tobytes()
    assert evaluate(v, f[None]).tobytes() == evaluate_reference(v, f[None]).tobytes()


_U = Fraction(1, 2**53)
GAMMA_10 = 10 * _U / (1 - 10 * _U)
# Half the least subnormal: the most a product that underflows can lose, which gamma_10 does not cover.
_ETA = Fraction(1, 2**1075)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), step_scales, step_points)
def test_a_single_point_is_within_the_dot_product_rounding_bound(seed, scale, f):
    # each component within gamma_10 * sum_k |x_k c_k| of the exact value: a
    # quadratic term takes two roundings (its feature and its product) and the
    # first term eight more sums.  A product that underflows may lose up to
    # _ETA more, and a quadratic feature that underflows |c_k| * _ETA, each
    # grown by at most (1 + u)^9 < 2 through the later roundings.
    v = drawn_map(seed, scale)
    f1, f2, f3 = (Fraction(x) for x in f.tolist())
    features = (f1 * f1, f2 * f2, f3 * f3, f1 * f2, f2 * f3, f1 * f3, f1, f2, f3)
    image = evaluate(v, f)
    for k, column in enumerate(v.coefficient_rows().T.tolist()):
        terms = [x * Fraction(c) for x, c in zip(features, column)]
        underflow = 2 * _ETA * sum(1 + abs(Fraction(c)) for c in column)
        assert abs(Fraction(image[k]) - sum(terms)) <= GAMMA_10 * sum(map(abs, terms)) + underflow


def test_homogeneous_linear_decomposition(rng):
    v = QuadraticMapCoeffs(*rng.normal(size=(9, 3)))
    L = np.column_stack([v.d, v.e, v.g])
    h = QuadraticMapCoeffs(*v.coefficient_rows()[:6])  # the degree-2 terms alone
    for _ in range(100):
        f = rng.uniform(-1, 1, size=3)
        assert np.abs(evaluate(v, f) - (evaluate(h, f) + L @ f)).max() < 1e-13


def test_linear_part_layout():
    v = QuadraticMapCoeffs(d=(1, 2, 3), e=(4, 5, 6), g=(7, 8, 9))
    f = np.array([1.0, 0.0, 0.0])
    assert np.allclose(evaluate(v, f), v.d)
    assert np.allclose(evaluate(v, [0.0, 0.0, 1.0]), v.g)


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


def test_admission_names_the_first_offending_field():
    # the nine vectors are admitted as one array; a refusal still names its field
    with pytest.raises(ValueError, match="^a: .*overflow"):
        QuadraticMapCoeffs(a=[np.nan, 0, 0], Gamma=[np.inf, 0, 0])
    with pytest.raises(ValueError, match="^Gamma: .*overflow"):
        QuadraticMapCoeffs(a=[1, 0, 0], Gamma=[np.inf, 0, 0])
    with pytest.raises(ValueError, match=r"^B: expected shape \(3,\), got \(2,\)$"):
        QuadraticMapCoeffs(a=[1, 0, 0], B=(1, 2))
    with pytest.raises(ValueError, match=r"^a: expected shape \(3,\), got \(1, 3\)$"):
        QuadraticMapCoeffs(**{name: [[1.0, 2.0, 3.0]] for name in ("a", "b", "c", "A", "B", "Gamma", "d", "e", "g")})


def test_fields_are_rows_of_one_admitted_copy(rng):
    source = rng.normal(size=(9, 3))
    v = QuadraticMapCoeffs(*source)
    rows = v.coefficient_rows()
    assert all(np.shares_memory(getattr(v, name), rows) for name in ("a", "Gamma", "g"))
    assert not np.shares_memory(rows, source)
    source[0, 0] += 1.0
    assert v.a[0] != source[0, 0]
    expected = np.zeros((9, 3))
    expected[1] = [1, 2, 3]
    assert np.array_equal(QuadraticMapCoeffs(b=[1, 2, 3]).coefficient_rows(), expected)  # None is zeros


def test_operator_admission_names_the_offending_block():
    # the four blocks are admitted as one copy with one bound check; a refusal still names its block
    with pytest.raises(ValueError, match=r"^T: expected shape \(3, 3, 3\), got \(3, 3\)$"):
        DeltaCoefficients(T=np.zeros((3, 3)))
    B2 = np.zeros((3, 3))
    B2[1, 2] = np.nan
    with pytest.raises(ValueError, match="^B2: .*overflow"):
        DeltaCoefficients(B2=B2, T=np.full((3, 3, 3), np.inf))
    with pytest.raises(ValueError, match="^b: .*overflow"):
        DeltaCoefficients(b=[2e150, 0, 0], B1=[[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="^B1: expected shape"):
        DeltaCoefficients(B1=[[1, 2], [3, 4]], T=np.full((3, 3, 3), np.nan))


def field_values(shape):
    """A value admit accepts in shape: None, or an array or nested lists of floats, float32s, ints or bools."""
    finite = st.floats(-COEFFICIENT_LIMIT, COEFFICIENT_LIMIT)
    kinds = st.one_of(
        arrays(float, shape, elements=finite),
        arrays(np.float32, shape, elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
        arrays(np.int64, shape),
        arrays(bool, shape),
    )
    return st.none() | kinds | kinds.map(np.ndarray.tolist)


REFUSED = [
    (np.nan, "overflow"),
    (np.inf, "overflow"),
    (2.0 * _MAP_LIMIT, "overflow"),
    ("x", "expected real numbers"),
    (1j, "expected real numbers"),
    ([1.0, 2.0], "expected numbers in shape"),
]

ADMISSIONS = [(_ROW_FIELDS, _MAP_LIMIT), (channel._BLOCKS, COEFFICIENT_LIMIT)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_admission_of_mixed_values_and_its_first_refusal(data):
    # random None mixes over the nine map fields and the four operator blocks
    for fields, limit in ADMISSIONS:
        values = [data.draw(field_values(shape)) for _, shape in fields]
        flat = admit(fields, values, limit)
        assert flat.tobytes() == concatenated_floats(fields, values).tobytes() and not flat.flags.writeable
        # two offending fields: the first one in field order is named
        first, second = sorted(data.draw(st.lists(st.integers(0, len(fields) - 1), min_size=2, max_size=2, unique=True)))
        problems = []
        for k in (first, second):
            bad, problem = data.draw(st.sampled_from(REFUSED))
            values[k] = with_last_leaf(np.zeros(fields[k][1]), bad)
            problems.append(problem)
        with pytest.raises(ValueError, match=f"^{fields[first][0]}: ") as refusal:
            admit(fields, values, limit)
        assert problems[0] in str(refusal.value)


def test_operator_blocks_are_views_of_one_read_only_copy(rng):
    source = {"b": rng.normal(size=3), "B1": rng.normal(size=(3, 3)), "T": rng.normal(size=(3, 3, 3))}
    d = DeltaCoefficients(**source)
    for name in ("b", "B1", "B2", "T"):
        block = getattr(d, name)
        assert block.base is d.b.base is not None
        with pytest.raises(ValueError):
            block.flat[0] = 1.0
    for name, value in source.items():
        assert np.array_equal(getattr(d, name), value) and not np.shares_memory(getattr(d, name), value)
    assert np.array_equal(d.B2, np.zeros((3, 3)))  # None is zeros
    assert np.array_equal(DeltaCoefficients(B1=[[1, 0, 0], [0, 2, 0], [0, 0, 3]]).B1, np.diag([1.0, 2.0, 3.0]))


ADMITTED = [
    (QuadraticMapCoeffs, "Gamma", (3,), 2.0 * COEFFICIENT_LIMIT),
    (DeltaCoefficients, "b", (3,), COEFFICIENT_LIMIT),
    (DeltaCoefficients, "T", (3, 3, 3), COEFFICIENT_LIMIT),
    (QuadraticMapCoeffs, "a", (3,), 2.0 * COEFFICIENT_LIMIT),
    (DeltaCoefficients, "B1", (3, 3), COEFFICIENT_LIMIT),
]


def with_last_leaf(entries, leaf):
    """entries as nested lists with the last number replaced by leaf."""
    nested = entries.tolist()
    inner = nested
    while isinstance(inner[-1], list):
        inner = inner[-1]
    inner[-1] = leaf
    return nested


@pytest.mark.parametrize("cls, name, shape, limit", ADMITTED)
def test_admission_bound(cls, name, shape, limit):
    entries = np.full(shape, limit)
    entries.flat[::2] = -limit
    assert np.array_equal(getattr(cls(**{name: entries}), name), entries)
    for bad in (limit * (1.0 + 1e-12), -limit * (1.0 + 1e-12), np.inf, -np.inf, np.nan):
        entries.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name}: .*overflow"):
            cls(**{name: entries})
    # every other refusal is a ValueError that names the field too
    entries = np.ones(shape)
    refused = {
        "a string": "abc",
        "a string entry": with_last_leaf(entries, "x"),
        "a dict": {"x": 1.0},
        "a dict entry": with_last_leaf(entries, {}),
        "a ragged list": with_last_leaf(entries, [1.0, 2.0]),
        "a wrong shape": np.ones(shape + (1,)),
        "an integer beyond the double range": with_last_leaf(entries, 10**400),
        "its negative": with_last_leaf(entries, -(10**400)),
    }
    for what, bad in refused.items():
        with pytest.raises(ValueError, match=f"^{name}: ") as refusal:
            cls(**{name: bad})
        assert type(refusal.value) is ValueError, what
    with pytest.raises(ValueError, match=rf"^{name}: expected shape {re.escape(str(shape))}, got {re.escape(str(shape + (1,)))}$"):
        cls(**{name: refused["a wrong shape"]})


def test_admission_refuses_complex_values():
    # a complex entry is refused by name, not cast to its real part with a ComplexWarning
    for cls, name, shape in ((DeltaCoefficients, "b", (3,)), (DeltaCoefficients, "T", (3, 3, 3)), (QuadraticMapCoeffs, "g", (3,))):
        for bad in (np.array([0.5 + 2j, 0.0, 0.0]), [0.5 + 2j, 0.0, 0.0], np.zeros(shape, dtype=complex)):
            if np.shape(bad) != shape:
                bad = np.broadcast_to(np.asarray(bad)[(None,) * (len(shape) - 1)], shape)
            with pytest.raises(ValueError, match=f"^{name}: expected real numbers, got complex128 entries$"):
                cls(**{name: bad})


def test_admission_refuses_narrow_float_infinities():
    # the bound is compared as a double: cast to float32 or float16 it would be inf, and admit inf
    for dtype in (np.float16, np.float32):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="^a: .*overflow"):
                QuadraticMapCoeffs(a=np.array([bad, 0.0, 0.0], dtype=dtype))
            with pytest.raises(ValueError, match="^T: .*overflow"):
                DeltaCoefficients(T=np.full((3, 3, 3), bad, dtype=dtype))
    assert QuadraticMapCoeffs(a=np.array([65504.0, 0.0, 0.0], dtype=np.float16)).a.tolist() == [65504.0, 0.0, 0.0]


def test_admission_refuses_numeric_strings():
    # a string entry is refused by name even when it spells a number
    for bad in (["1", "2", "3"], np.array(["1", "2", "3"]), [1.0, "2", 3.0], [10**20, "2", 3]):
        with pytest.raises(ValueError, match="^a: expected real numbers, got "):
            QuadraticMapCoeffs(a=bad)
    with pytest.raises(ValueError, match="^B1: expected real numbers, got "):
        DeltaCoefficients(B1=[["0.5", "0", "0"], [0, 0, 0], [0, 0, 0]])
    # integers beyond 64 bits are numbers: admitted, as before
    assert QuadraticMapCoeffs(a=[10**20, 1, 2]).a.tolist() == [1e20, 1.0, 2.0]


def test_induced_map_of_an_operator_at_the_bound_is_admitted():
    d = DeltaCoefficients(
        b=np.full(3, COEFFICIENT_LIMIT),
        B1=np.full((3, 3), COEFFICIENT_LIMIT),
        B2=np.full((3, 3), COEFFICIENT_LIMIT),
        T=np.full((3, 3, 3), -COEFFICIENT_LIMIT),
    )
    v = induced_qmap(d)
    assert np.array_equal(v.A, np.full(3, -2.0 * COEFFICIENT_LIMIT))
    assert np.array_equal(v.d, np.full(3, 2.0 * COEFFICIENT_LIMIT))


def test_linear_part_of_linear_family(rng):
    d = random_delta(rng, symmetric=True)
    v = induced_qmap(d)
    assert np.allclose(np.column_stack([v.d, v.e, v.g]), 2.0 * d.B1.T)


def jacobian_by_columns(v, f):
    """dV/df from its three columns written out term by term."""
    f = np.asarray(f, dtype=float)
    f1, f2, f3 = f[..., 0:1], f[..., 1:2], f[..., 2:3]
    col1 = 2.0 * f1 * v.a + f2 * v.A + f3 * v.Gamma + v.d
    col2 = 2.0 * f2 * v.b + f1 * v.A + f3 * v.B + v.e
    col3 = 2.0 * f3 * v.c + f2 * v.B + f1 * v.Gamma + v.g
    return np.stack([col1, col2, col3], axis=-1)


def test_jacobian_matches_central_differences(rng):
    # V is quadratic, so central differences are exact up to rounding
    h = 1e-5
    for _ in range(20):
        v = QuadraticMapCoeffs(*rng.normal(size=(9, 3)))
        f = rng.uniform(-1, 1, size=3)
        numeric = np.column_stack([(evaluate(v, f + h * e) - evaluate(v, f - h * e)) / (2 * h) for e in np.eye(3)])
        assert np.abs(jacobian(v, f) - numeric).max() <= 1e-8


@pytest.mark.parametrize("shape", [(3,), (7, 3), (2, 4, 3)])
def test_jacobian_matches_the_column_formula(rng, shape):
    for _ in range(10):
        v = QuadraticMapCoeffs(*rng.normal(size=(9, 3)))
        f = rng.uniform(-2, 2, size=shape)
        expected = jacobian_by_columns(v, f)
        got = jacobian(v, f)
        assert got.shape == shape[:-1] + (3, 3)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_jacobian_at_the_admission_bound(rng):
    # coefficients of magnitude 2e150 at points up to norm 10 (the Newton search's
    # bound): every entry finite, no RuntimeWarning
    for _ in range(5):
        v = QuadraticMapCoeffs(*(2.0 * COEFFICIENT_LIMIT * rng.choice([-1.0, 1.0], size=(9, 3))))
        f = rng.uniform(-5.7, 5.7, size=(50, 3))
        expected = jacobian_by_columns(v, f)
        got = jacobian(v, f)
        assert np.isfinite(got).all()
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_jacobian_tables_are_read_only(rng):
    # built on the first jacobian() call, not with the map, and kept with it
    v = QuadraticMapCoeffs(*rng.normal(size=(9, 3)))
    assert "_hessian" not in vars(v) and "_linear" not in vars(v)
    jacobian(v, rng.normal(size=(5, 3)))
    hessian, linear = v._hessian, v._linear
    for table in (hessian, linear):
        with pytest.raises(ValueError):
            table[0] = 1.0
    jacobian(v, rng.normal(size=3))
    jacobian(v, rng.normal(size=(2, 4, 3)))
    assert v._hessian is hessian and v._linear is linear
    assert QuadraticMapCoeffs(*v.coefficient_rows()[:6])._hessian is not hessian


def jacobian_by_row_product(v, f):
    """The (..., 3) @ (3, 9) product of every batch shape, as jacobian() took it before its batch path."""
    f = np.asarray(f, dtype=float)
    return (f @ v._hessian + v._linear).reshape(f.shape[:-1] + (3, 3))


jacobian_batches = st.one_of(
    st.sampled_from([(3,), (1, 3), (1, 1, 3)]),
    st.tuples(st.integers(2, 300), st.just(3)),
    st.tuples(st.integers(1, 4), st.integers(2, 4), st.just(3)),
).flatmap(lambda shape: arrays(float, shape, elements=st.floats(-10.0, 10.0)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3, 2.0 * COEFFICIENT_LIMIT]), jacobian_batches)
def test_jacobian_keeps_the_bits_of_the_row_product(seed, scale, f):
    # one point, also a one-row batch, takes the same (3,) @ (3, 9) product; a
    # batch of n >= 2 points takes (9, 3) @ (3, n), which must round every
    # entry as (n, 3) @ (3, 9) did: the fixed-point search relies on it
    v = QuadraticMapCoeffs(*(scale * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(9, 3))))
    got, expected = jacobian(v, f), jacobian_by_row_product(v, f)
    assert got.shape == expected.shape == f.shape[:-1] + (3, 3)
    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


def test_jacobian_batch_rows_are_a_view(rng):
    # the search reads the nine entries as contiguous rows without a copy
    v = QuadraticMapCoeffs(*rng.normal(size=(9, 3)))
    for n in (2, 7, 2048):
        x = rng.normal(size=(3, n))
        jac = jacobian(v, x.T)
        rows = jac.reshape(-1, 9).T
        assert rows.shape == (9, n) and rows.flags.c_contiguous
        assert np.shares_memory(rows, jac)
        assert np.array_equal(rows.T.reshape(n, 3, 3), jacobian_by_row_product(v, x.T))


point_batches = st.one_of(
    st.just((3,)),
    st.tuples(st.integers(1, 6), st.just(3)),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(3)),
).flatmap(lambda shape: arrays(float, shape, elements=st.floats(-1e150, 1e150)))


@settings(max_examples=100, deadline=None)
@given(point_batches)
def test_features_are_the_nine_products(f):
    f1, f2, f3 = f[..., 0], f[..., 1], f[..., 2]
    expected = np.stack([f1 * f1, f2 * f2, f3 * f3, f1 * f2, f2 * f3, f1 * f3, f1, f2, f3], axis=-1)
    features = _features(f)
    assert features.shape == expected.shape
    assert features.tobytes() == expected.tobytes()  # bit for bit, signs of zero included
    # the same products as the rows of a (9, n) array, from the points as columns
    rows = _feature_rows(np.ascontiguousarray(f.reshape(-1, 3).T))
    assert rows.flags.c_contiguous
    assert rows.tobytes() == np.ascontiguousarray(expected.reshape(-1, 9).T).tobytes()


def test_gram_is_read_only_and_built_once_per_map(rng):
    v = induced_qmap(random_delta(rng))
    gram = v.gram
    rows = v.coefficient_rows()
    assert np.array_equal(gram, rows @ rows.T)
    with pytest.raises(ValueError):
        gram[0, 1] = 1.0
    check_q_purity(v)
    sphere_deviation(v)
    assert v.gram is gram
    assert QuadraticMapCoeffs(*v.coefficient_rows()[:6]).gram is not gram
