import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochquad import (
    DeltaCoefficients,
    check_coassociativity,
    delta0,
    delta1,
    evaluate,
    has_haar_trace,
    induced_qmap,
    is_symmetric,
    is_trace_preserving,
    linear_family,
)
from blochquad import channel
from blochquad.channel import (
    TENSOR_BASIS,
    _coassociativity_residual,
    basis_images,
    bloch_images,
)
from blochquad.cli import load_config
from blochquad.pauli import BASIS
from blochquad.qmap import _FIELDS, _MAP_LIMIT, COEFFICIENT_LIMIT, QuadraticMapCoeffs
from algebra_reference import (
    BlochState,
    HaarEntries,
    NotHaarFormError,
    PauliElement,
    apply,
    apply_haar_closed_form,
    dual_pair,
    pair_eval,
    partial_trace_left,
    partial_trace_right,
    swap_conjugate,
)
from conftest import admission_bound_config, delta_from_entries, golden_operators, random_delta, rescaled, rotate_delta, rotation_matrix


def sigma(i):
    return PauliElement(0.0, np.eye(3)[i])


def basis_coefficients(d):
    """c[i, m, l]: weight of sigma_m (x) sigma_l in Delta(sigma_i), sigma_0 = 1.

    c[:, 0, 0] is b, c[:, 0, 1:] is B1.T, c[:, 1:, 0] is B2.T and c[:, 1:, 1:]
    is T.transpose(2, 0, 1): a view of rows 1 to 3 of d's coefficient table.
    """
    return d._stacked_coefficients[1:].reshape(3, 4, 4)


DELTA0_ON_1_PLUS_S2 = np.array(
    [[0, 0, 0, 2], [0, 2, 0, 0], [0, 0, 2, 0], [2, 0, 0, 0]], dtype=complex
)


def test_apply_is_unital(rng):
    for _ in range(20):
        d = random_delta(rng)
        assert np.abs(apply(d, PauliElement(1.0, (0, 0, 0))) - np.eye(4)).max() < 1e-15


def test_apply_benchmark_matrix():
    m = apply(delta0(), PauliElement(1.0, (0, 1, 0)))
    assert np.abs(m - DELTA0_ON_1_PLUS_S2).max() < 1e-15


def test_apply_linear_family_kronecker_sum():
    d = linear_family(np.eye(3) / 2)
    m = apply(d, PauliElement(1.0, (0, 0, 1)))
    assert np.abs(m - np.diag([2.0, 1.0, 1.0, 0.0])).max() < 1e-15


def test_apply_is_linear(rng):
    # complex-bilinear tensor pairing keeps Delta linear on all of M_2(C)
    d = random_delta(rng)
    x = PauliElement(rng.normal() + 1j * rng.normal(), rng.normal(size=3) + 1j * rng.normal(size=3))
    y = PauliElement(rng.normal() + 1j * rng.normal(), rng.normal(size=3) + 1j * rng.normal(size=3))
    alpha, beta = 0.7 - 0.3j, -1.1 + 2j
    z = PauliElement(alpha * x.w0 + beta * y.w0, alpha * x.w + beta * y.w)
    lhs = apply(d, z)
    rhs = alpha * apply(d, x) + beta * apply(d, y)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_is_star_preserving(rng):
    for _ in range(100):
        d = random_delta(rng)
        x = PauliElement(
            rng.normal() + 1j * rng.normal(), rng.normal(size=3) + 1j * rng.normal(size=3)
        )
        assert np.abs(apply(d, x.conjugate()) - apply(d, x).conj().T).max() < 1e-12


def test_apply_trace_preservation(rng):
    # normalized trace of the image equals the normalized trace of the input
    for _ in range(100):
        d = random_delta(rng)
        x = PauliElement(
            rng.normal() + 1j * rng.normal(), rng.normal(size=3) + 1j * rng.normal(size=3)
        )
        assert abs(np.trace(apply(d, x)) / 4.0 - x.w0) < 1e-12


def test_bloch_images_matches_apply(rng):
    d = random_delta(rng)
    W = rng.uniform(-1, 1, size=(10, 3))
    stack = bloch_images(d, W)
    for w, m in zip(W, stack):
        assert np.abs(apply(d, PauliElement(1.0, w)) - m).max() < 1e-14


def test_closed_form_examples():
    x = PauliElement(1.0, (0, 1, 0))
    assert np.abs(apply_haar_closed_form(delta0(), x) - apply(delta0(), x)).max() < 1e-15

    d1 = delta1((0, 0, 1))
    m = apply_haar_closed_form(d1, PauliElement(1.0, (0, 0, 1)))
    expected = np.array(
        [[2, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, 0], [0, 0, 0, 2]], dtype=complex
    )
    assert np.abs(m - expected).max() < 1e-15

    ident = PauliElement(1.0, (0, 0, 0))
    assert np.abs(apply_haar_closed_form(delta0(), ident) - np.eye(4)).max() < 1e-15


def test_closed_form_agreement_random(rng):
    for _ in range(100):
        d = random_delta(rng, symmetric=True, haar=True)
        x = PauliElement(rng.normal(), rng.normal(size=3))
        assert np.abs(apply_haar_closed_form(d, x) - apply(d, x)).max() < 1e-12


def test_closed_form_preconditions(rng):
    with pytest.raises(NotHaarFormError):
        apply_haar_closed_form(linear_family(np.eye(3) / 2), PauliElement(1.0, (0, 0, 1)))
    asymmetric = DeltaCoefficients(T=rng.normal(size=(3, 3, 3)))
    with pytest.raises(ValueError, match="requires a symmetric tensor block"):
        apply_haar_closed_form(asymmetric, PauliElement(1.0, (0, 0, 1)))
    with pytest.raises(ValueError, match="requires a self-adjoint input"):
        apply_haar_closed_form(delta0(), PauliElement(1j, (0, 0, 0)))


def test_haar_entries_legend(rng):
    v = induced_qmap(delta0())
    w = rng.normal(size=3)
    h = HaarEntries.from_map(v, w)
    assert h.L == pytest.approx(v.a @ w)
    assert h.M == pytest.approx(v.A @ w / 2)
    assert h.N == pytest.approx(v.Gamma @ w / 2)
    assert h.O == pytest.approx(v.b @ w)
    assert h.P == pytest.approx(v.B @ w / 2)
    assert h.R == pytest.approx(v.c @ w)


def test_is_trace_preserving():
    assert is_trace_preserving(DeltaCoefficients())
    assert not is_trace_preserving(DeltaCoefficients(b=(0.1, 0, 0)))
    assert is_trace_preserving(delta0())


def test_is_symmetric():
    assert is_symmetric(delta0())
    assert not is_symmetric(DeltaCoefficients(B2=np.eye(3)))  # x -> x(x)1
    assert is_symmetric(linear_family(np.eye(3) / 2))


def test_is_symmetric_matches_coefficient_condition(rng):
    for _ in range(50):
        d = random_delta(rng)
        coeff_symmetric = np.allclose(d.B1, d.B2) and np.allclose(d.T, d.T.transpose(1, 0, 2))
        assert is_symmetric(d) == coeff_symmetric


def test_has_haar_trace():
    assert has_haar_trace(delta0())
    assert not has_haar_trace(linear_family(np.diag([0.3, 0.3, 0.3])))
    assert has_haar_trace(delta1((0, 0, 1)))


def test_has_haar_trace_matches_block_norms(rng):
    for _ in range(50):
        d = random_delta(rng, haar=bool(rng.integers(2)))
        linear = np.concatenate([d.b, d.B1.ravel(), d.B2.ravel()])
        blocks_vanish = np.linalg.norm(linear) <= 1e-9 * np.linalg.norm(d._entries)
        assert has_haar_trace(d) == blocks_vanish


def test_dual_pair_examples():
    d = delta0()
    out = dual_pair(d, BlochState((1, 0, 0)), BlochState((0, 1, 0)))
    assert np.allclose(out, [1, 0, 0])
    zero = BlochState((0, 0, 0))
    assert np.allclose(dual_pair(d, zero, zero), [0, 0, 0])
    f = BlochState((1, 0, 0))
    assert np.allclose(dual_pair(d, f, f), [0, 1, 0])  # = V0(1,0,0)


def test_dual_pair_requires_symmetric():
    with pytest.raises(ValueError, match="requires a symmetric operator"):
        dual_pair(
            DeltaCoefficients(B2=np.eye(3)),
            BlochState((0, 0, 0)),
            BlochState((0, 0, 0)),
        )


def test_duality_against_matrix_pairing(rng):
    # (phi (x) psi)(Delta(x)) == w0 + <w, dual_pair(d, phi, psi)>
    for _ in range(100):
        d = random_delta(rng, symmetric=True)
        phi = BlochState(rng.uniform(-0.5, 0.5, size=3))
        psi = BlochState(rng.uniform(-0.5, 0.5, size=3))
        x = PauliElement(rng.normal(), rng.normal(size=3))
        lhs = pair_eval(d, phi, psi, x)
        rhs = x.w0 + x.w @ dual_pair(d, phi, psi)
        assert abs(lhs - rhs) < 1e-10


def test_induced_qmap_consistency_with_dual_pair(rng):
    for _ in range(50):
        d = random_delta(rng, symmetric=True)
        f = rng.uniform(-0.5, 0.5, size=3)
        lhs = evaluate(induced_qmap(d), f)
        rhs = dual_pair(d, BlochState(f), BlochState(f))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_induced_qmap_benchmarks():
    v0 = induced_qmap(delta0())
    assert np.allclose(v0.a, [0, 1, 0])
    assert np.allclose(v0.b, [0, -1, 0])
    assert np.allclose(v0.c, [0, -1, 0])
    assert np.allclose(v0.A, [2, 0, 0])
    assert np.allclose(v0.B, [0, 0, 0])
    assert np.allclose(v0.Gamma, [0, 0, 2])
    assert np.allclose(v0.d, 0) and np.allclose(v0.e, 0) and np.allclose(v0.g, 0)

    t = np.array([0.6, 0.0, 0.8])
    v1 = induced_qmap(delta1(t))
    for vec in (v1.a, v1.b, v1.c):
        assert np.allclose(vec, t)
    for vec in (v1.A, v1.B, v1.Gamma, v1.d, v1.e, v1.g):
        assert np.allclose(vec, 0)

    vlin = induced_qmap(linear_family(np.eye(3) / 2))
    assert np.allclose(np.column_stack([vlin.d, vlin.e, vlin.g]), np.eye(3))
    for vec in (vlin.a, vlin.b, vlin.c, vlin.A, vlin.B, vlin.Gamma):
        assert np.allclose(vec, 0)


def convex_split(d, lam):
    """Delta = lam * Delta1 + (1 - lam) * Delta2: Delta1 carries b and T over lam, Delta2 the linear blocks over 1 - lam."""
    return DeltaCoefficients(b=d.b / lam, T=d.T / lam), DeltaCoefficients(B1=d.B1 / (1.0 - lam), B2=d.B2 / (1.0 - lam))


def test_split_reconstruction(rng):
    # each part keeps the full unital term, so the images recombine convexly
    lam = 0.3
    x = PauliElement(1.0, (0, 1, 0))
    for d in (delta0(), random_delta(rng)):
        d1, d2 = convex_split(d, lam)
        recon = lam * apply(d1, x) + (1.0 - lam) * apply(d2, x)
        assert np.abs(recon - apply(d, x)).max() < 1e-14


def test_coassociativity_cases():
    right_leg = DeltaCoefficients(B2=np.eye(3))  # x -> x(x)1
    assert check_coassociativity(right_leg)
    assert not check_coassociativity(linear_family(np.eye(3) / 2))
    assert check_coassociativity(DeltaCoefficients())  # x -> w0 * 1(x)1
    T = np.random.default_rng(3).normal(size=(3, 3, 3))
    assert not check_coassociativity(DeltaCoefficients(T=T))
    with pytest.raises(ValueError, match="T: .*overflow"):
        DeltaCoefficients(T=1e200 * T)
    # at the admission bound the 8x8 products stay finite and the check still fails
    assert not check_coassociativity(DeltaCoefficients(T=1e150 * T / np.abs(T).max()))


def test_tensor_basis_enumeration():
    # layout sanity for the assembly path: kron(e_m, e_l), m outermost
    for m in range(4):
        for l in range(4):
            assert np.abs(TENSOR_BASIS[m, l] - np.kron(BASIS[m], BASIS[l])).max() == 0


# Per-matrix references for the structural checks.  Symmetry and the Haar
# trace are defined on the basis images, by the tensor swap and the partial
# traces; channel.py reads them off the coefficient blocks, which are the
# Pauli weights of those matrices.  Both coassociativity lifts, whose Pauli
# weights channel.py forms by one product of the coefficients, are here one
# three-operand einsum each, as 8x8 matrices.


def reference_symmetry_blocks(d):
    """Pauli weights of sigma_p (x) sigma_q, q > 0, in U Delta(sigma_i) U - Delta(sigma_i): B2 - B1 and T^swap - T."""
    residual = np.array([swap_conjugate(m) - m for m in basis_images(d)])
    return (np.einsum("pqab,iba->ipq", TENSOR_BASIS, residual).real / 4.0)[:, :, 1:]


def reference_haar_trace_blocks(d):
    """Pauli weights of both normalized partial traces of Delta(sigma_i), b_i counted once: b, B2 and B1."""
    basis = np.array(BASIS)
    right = np.einsum("pab,iba->ip", basis, [partial_trace_right(m) for m in basis_images(d)]).real / 2.0
    left = np.einsum("pab,iba->ip", basis, [partial_trace_left(m) for m in basis_images(d)]).real / 2.0
    return np.concatenate([right, left[:, 1:]], axis=1)


def reference_coassociativity_residual(d):
    """Frobenius norm of the three 8x8 matrices (Delta (x) id) Delta(sigma_i) - (id (x) Delta) Delta(sigma_i)."""
    c = basis_coefficients(d)
    images = np.concatenate([np.eye(4)[None], basis_images(d)])  # Delta(sigma_m), m = 0..3
    basis = np.array(BASIS)
    lhs = np.einsum("iml,mab,lcd->iacbd", c, images, basis).reshape(3, 8, 8)
    rhs = np.einsum("iml,mab,lcd->iacbd", c, basis, images).reshape(3, 8, 8)
    return math.hypot(*np.abs(lhs - rhs).ravel().tolist())


def structural_cases():
    """Operators on both sides of every structural check, up to the admission bound."""
    rng = np.random.default_rng(2024)
    cases = [
        delta0(),
        delta1((0, 0, 1)),
        linear_family(np.eye(3) / 2),
        DeltaCoefficients(),
        DeltaCoefficients(B2=np.eye(3)),
    ]
    for _ in range(30):
        cases.append(random_delta(rng, trace_preserving=False))  # b != 0
        cases.append(random_delta(rng, haar=True))
        T = rng.normal(size=(3, 3, 3))
        B = rng.normal(size=(3, 3))
        near = 1e-10 * rng.normal(size=(3, 3, 3))  # symmetric up to about the tolerance
        cases.append(DeltaCoefficients(B1=B, B2=B + near[0], T=0.5 * (T + T.transpose(1, 0, 2)) + near))
    shapes = {"b": (3,), "B1": (3, 3), "B2": (3, 3), "T": (3, 3, 3)}
    cases.append(DeltaCoefficients(**{k: np.full(v, COEFFICIENT_LIMIT) for k, v in shapes.items()}))
    cases.append(DeltaCoefficients(**{k: COEFFICIENT_LIMIT * rng.choice([-1.0, 1.0], size=v) for k, v in shapes.items()}))
    return cases


def test_structural_residuals_match_the_per_matrix_references():
    eps = float(np.finfo(float).eps)
    verdicts = set()
    for d in structural_cases():
        # the weights sum in another order than the 8x8 lifts: equal up to
        # rounding in entries of size (1 + S)^2 (0.14 eps (1 + S)^2 at most here)
        scale = 1.0 + float(np.abs(basis_coefficients(d)).sum())
        reference = reference_coassociativity_residual(d)
        assert abs(_coassociativity_residual(d) - reference) <= eps * scale * scale
        verdicts.add((is_symmetric(d), has_haar_trace(d), check_coassociativity(d)))
        # every verdict is the reference's at the default tolerance: symmetry and
        # the Haar trace relative to the norm of all entries, coassociativity absolute
        entries = math.hypot(*d._entries.tolist())
        assert is_symmetric(d) == (math.hypot(*reference_symmetry_blocks(d).ravel().tolist()) <= 1e-9 * entries)
        assert has_haar_trace(d) == (math.hypot(*reference_haar_trace_blocks(d).ravel().tolist()) <= 1e-9 * entries)
        assert check_coassociativity(d) == (reference <= 1e-9)
    # and the cases reach both verdicts of each check
    assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {v[2] for v in verdicts} == {True, False}


# The array builds that channel.py replaced by takes of the admitted entries
# and of the images by constant index tables, and by one product with the
# tensor basis: every table must keep their bytes, signed zeros included.


def reference_basis_coefficients(d):
    c = np.zeros((3, 4, 4))
    c[:, 0, 0] = d.b
    c[:, 0, 1:] = d.B1.T
    c[:, 1:, 0] = d.B2.T
    c[:, 1:, 1:] = d.T.transpose(2, 0, 1)
    return c


def reference_basis_images(d):
    return np.einsum("iml,mlab->iab", reference_basis_coefficients(d), TENSOR_BASIS)


def assert_tables_keep_the_bytes(d):
    assert basis_coefficients(d).tobytes() == reference_basis_coefficients(d).tobytes()
    assert basis_images(d).tobytes() == reference_basis_images(d).tobytes()


def test_index_tables_keep_the_bytes_of_the_array_builds(rng):
    cases = structural_cases() + induced_map_operators(rng) + golden_operators()
    for d in cases:
        assert_tables_keep_the_bytes(d)
    # the cases hold signed zeros and entries at the admission bound
    entries = np.concatenate([d._entries for d in cases])
    assert np.signbit(entries[entries == 0]).any() and np.abs(entries).max() == COEFFICIENT_LIMIT


signed_entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(float.__mul__, st.sampled_from([-1.0, 1.0]), st.floats(1e-160, COEFFICIENT_LIMIT)),
)


@settings(max_examples=300, deadline=None)
@given(arrays(float, (48,), elements=signed_entries))
def test_index_tables_keep_the_bytes_on_drawn_operators(x):
    # magnitudes mixed from 1e-160 to the admission bound within one operator, and signed zeros
    assert_tables_keep_the_bytes(DeltaCoefficients(b=x[:3], B1=x[3:12].reshape(3, 3), B2=x[12:21].reshape(3, 3), T=x[21:].reshape(3, 3, 3)))


def exact_weight_differences(d):
    """The 192 differences left - right of the lift weights of the three Delta(sigma_i), in exact arithmetic.

    With C[m, p, q] the weight of sigma_p (x) sigma_q in Delta(sigma_m) and
    C[0] = 1(x)1, (Delta (x) id) Delta(sigma_i) gives sigma_p (x) sigma_q (x) sigma_r
    the weight sum_m C[i, m, r] C[m, p, q], and (id (x) Delta) Delta(sigma_i)
    the weight sum_l C[i, p, l] C[l, q, r]: 64 weights per side, as Fractions
    of the float entries.
    """
    C = [[[Fraction(int(m == p == q == 0)) for q in range(4)] for p in range(4)] for m in range(4)]
    for i, block in enumerate(basis_coefficients(d).tolist(), start=1):
        C[i] = [[Fraction(x) for x in row] for row in block]
    return [
        sum(C[i][m][r] * C[m][p][q] for m in range(4)) - sum(C[i][p][l] * C[l][q][r] for l in range(4))
        for i in range(1, 4)
        for p, q, r in product(range(4), repeat=3)
    ]


def exact_coassociativity_residual(d):
    """Largest |left - right| over the lift weights, in exact arithmetic."""
    return max(abs(x) for x in exact_weight_differences(d))


def exact_squared_residual(d):
    """The square of the Frobenius norm of the three 8x8 residuals, in exact arithmetic: 8 times the weights' sum of squares."""
    return 8 * sum(x * x for x in exact_weight_differences(d))


def test_coassociativity_verdicts_agree_with_the_exact_lift_weights():
    golden = Path(__file__).parent / "golden"
    cases = golden_operators() + structural_cases()
    for s in 10.0 ** np.arange(-150, 151, 10):  # group-like: Delta(sigma_i) = s sigma_i (x) sigma_i
        T = np.zeros((3, 3, 3))
        T[[0, 1, 2], [0, 1, 2], [0, 1, 2]] = s
        cases.append(DeltaCoefficients(T=T))
    exact = [exact_coassociativity_residual(d) for d in cases]
    for d, residual in zip(cases, exact):
        if residual == 0:
            assert check_coassociativity(d)
        elif residual > 1e-9:
            assert not check_coassociativity(d)
    assert exact.count(0) >= 31 and sum(residual > 1e-9 for residual in exact) >= 31
    # At tol = 0 the exactly coassociative ones pass only through the exact path.
    assert [check_coassociativity(d, tol=0.0) for d in cases] == [residual == 0 for residual in exact]
    # every entry s = 1e150: 1(x)1(x)sigma_r weighs s + 3 s^2 on the left and 3 s^2 on the right
    for name in ("bound_plus", "bound_minus"):
        assert exact_coassociativity_residual(load_config(str(golden / f"{name}.json"))) == Fraction(1e150)


def bound_operators():
    golden = Path(__file__).parent / "golden"
    return [load_config(str(golden / f"{name}.json")) for name in ("bound_plus", "bound_minus")]


def test_verdict_is_exact_at_the_threshold():
    # On bound_plus and bound_minus the float weights cancel to 0, while the
    # exact residual is about 1e151: every tol near it lies inside the
    # rounding band, and the verdict must flip exactly where tol^2 passes
    # the exact squared residual.
    for d in bound_operators():
        squared = exact_squared_residual(d)
        near = math.sqrt(float(squared))
        tols = [near]
        for _ in range(3):
            tols = [math.nextafter(tols[0], 0.0)] + tols + [math.nextafter(tols[-1], math.inf)]
        verdicts = [check_coassociativity(d, tol=t) for t in tols]
        assert verdicts == [Fraction(t) ** 2 >= squared for t in tols]
        assert set(verdicts) == {True, False}


SUBNORMAL_MAX = 2.2250738585072009e-308
exact_path_entries = st.one_of(
    signed_entries,
    st.builds(float.__mul__, st.sampled_from([-1.0, 1.0]), st.floats(5e-324, SUBNORMAL_MAX)),  # subnormal
    st.sampled_from([-COEFFICIENT_LIMIT, COEFFICIENT_LIMIT]),
)


@settings(max_examples=100, deadline=None)
@given(arrays(float, (48,), elements=exact_path_entries))
def test_integer_weights_are_the_exact_weights(x):
    # Signed zeros, subnormals and the admission bound, mixed in one
    # operator: the ints are 2^2148 times the Fraction weights, and the
    # exact path's verdict is the Fraction comparison at every tol.
    d = delta_from_entries(x)
    table = d._stacked_coefficients
    exact = exact_weight_differences(d)
    assert [Fraction(v, 1 << 2148) for v in channel._weight_differences(channel._scaled(table)).tolist()] == exact
    squared = 8 * sum(v * v for v in exact)
    tols = [0.0, 5e-324, 1e-300, 1e-9, 1.0, 1e300]
    if squared < 1e300:
        near = math.sqrt(float(squared))
        tols += [math.nextafter(near, 0.0), near, math.nextafter(near, math.inf)]
    assert [channel._exact_coassociativity_within(table, t) for t in tols] == [Fraction(t) ** 2 >= squared for t in tols]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_scaled_is_the_double_times_two_to_the_1074_exactly(x):
    assert Fraction(channel._scaled(np.array([x]))[0], 2**1074) == Fraction(x)


def test_scaled_keeps_the_edge_doubles_and_the_shape():
    edges = np.array([[0.0, -0.0, 5e-324, -5e-324], [SUBNORMAL_MAX, 1.0, 1e150, -1e150]])
    scaled = channel._scaled(edges)
    assert scaled.shape == edges.shape and scaled.dtype == object
    assert all(type(n) is int for n in scaled.flat)
    assert [Fraction(n, 2**1074) for n in scaled.flat] == [Fraction(x) for x in edges.flat]
    assert scaled[0, :3].tolist() == [0, 0, 1] and scaled[1, 1] == 1 << 1074
    assert scaled[1, 0] == (1 << 52) - 1  # the largest subnormal: 2^52 - 1 units of 2^-1074


def test_the_exact_path_keeps_the_bound_operators_non_coassociative(monkeypatch):
    # Without the rounding band their float residual, 0, would pass: the
    # exact path is what reads them false.
    reached = []
    exact = channel._exact_coassociativity_within
    monkeypatch.setattr(channel, "_exact_coassociativity_within", lambda c, tol: reached.append(tol) or exact(c, tol))
    assert not any(check_coassociativity(d) for d in bound_operators()) and len(reached) == 2
    assert all(_coassociativity_residual(d) == 0.0 for d in bound_operators())
    monkeypatch.setattr(channel, "_COASSOCIATIVITY_ROUNDING", 0.0)
    assert all(check_coassociativity(d) for d in bound_operators()) and len(reached) == 2


def test_operators_of_moderate_size_never_reach_the_exact_path(monkeypatch):
    def refuse(c, tol):
        raise AssertionError("reached the exact path")

    monkeypatch.setattr(channel, "_exact_coassociativity_within", refuse)
    cases = [d for d in structural_cases() + golden_operators() if np.abs(d._entries).max() < 1e3]
    assert len(cases) >= 90
    verdicts = {check_coassociativity(d) for d in cases}
    assert verdicts == {True, False}


def residual_at(raw, target):
    """raw scaled by the factor, found by bisection, at which its coassociativity residual is target to within 1e-6."""
    lo, hi = 0.0, 1.0
    while _coassociativity_residual(rescaled(raw, hi)) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        d = rescaled(raw, mid)
        r = _coassociativity_residual(d)
        if abs(r - target) <= 1e-6 * target:
            return d
        lo, hi = (mid, hi) if r < target else (lo, mid)


def test_coassociativity_verdict_does_not_depend_on_the_frame():
    # Operators 0.1% above and below the default tol of 1e-9: the residual
    # is a Frobenius norm, so no rotation of the frame moves it across.
    rng = np.random.default_rng(31)
    raw = random_delta(rng, trace_preserving=False)
    above, below = residual_at(raw, 1.001e-9), residual_at(raw, 0.999e-9)
    flips = 0
    for _ in range(200):
        R = rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 2.0 * np.pi))
        flips += check_coassociativity(rotate_delta(above, R)) + (not check_coassociativity(rotate_delta(below, R)))
    assert not check_coassociativity(above) and check_coassociativity(below) and flips == 0


def test_importing_the_command_line_leaves_fractions_unloaded():
    # fractions (with decimal) costs milliseconds of start-up; the exact
    # coassociativity path decides on ints without it.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, blochquad.cli; print('fractions' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_images_and_map_are_built_once_per_operator(rng):
    d = random_delta(rng)
    assert basis_images(d) is basis_images(d)
    assert induced_qmap(d) is induced_qmap(d)
    fresh = DeltaCoefficients(b=d.b, B1=d.B1, B2=d.B2, T=d.T)
    assert basis_images(fresh) is not basis_images(d)
    assert np.array_equal(basis_images(fresh), basis_images(d))


def test_coefficients_are_built_once_and_read_only(rng):
    d = random_delta(rng)
    c = basis_coefficients(d)
    assert c.base is d._stacked_coefficients is basis_coefficients(d).base  # views of the one table, built once
    with pytest.raises(ValueError):
        c[0, 0, 0] = 1.0
    # a derived operator takes its own entries, so its own coefficients
    replaced = dataclasses.replace(d, T=np.zeros((3, 3, 3)))
    assert basis_coefficients(replaced) is not c and not basis_coefficients(replaced)[:, 1:, 1:].any()


def test_cached_images_and_map_are_read_only(rng):
    d = random_delta(rng)
    with pytest.raises(ValueError):
        basis_images(d)[0, 0, 0] = 1.0
    v = induced_qmap(d)
    for name in ("a", "b", "c", "A", "B", "Gamma", "d", "e", "g"):
        with pytest.raises(ValueError):
            getattr(v, name)[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        d._basis_images = np.zeros((3, 4, 4))


def induced_qmap_reference(d):
    """The induced map as the public constructor builds it, through a second admission of its rows."""
    T, S = d.T, d.B1 + d.B2
    return QuadraticMapCoeffs(
        a=T[0, 0],
        b=T[1, 1],
        c=T[2, 2],
        A=T[0, 1] + T[1, 0],
        B=T[1, 2] + T[2, 1],
        Gamma=T[0, 2] + T[2, 0],
        d=S[0],
        e=S[1],
        g=S[2],
    )


def induced_map_operators(rng):
    operators = [random_delta(rng) for _ in range(20)]
    operators += [random_delta(rng, symmetric=True, trace_preserving=False) for _ in range(5)]
    operators += [DeltaCoefficients(**admission_bound_config(p)) for p in ("plus", "minus", "random")]
    # signed zeros: -0.0 + -0.0 is -0.0, -0.0 + 0.0 is 0.0, and a copied -0.0 stays
    signs = rng.choice([-0.0, 0.0, 1.0], size=(5, 45))
    for row in signs:
        operators.append(DeltaCoefficients(B1=row[:9].reshape(3, 3), B2=row[9:18].reshape(3, 3), T=row[18:].reshape(3, 3, 3)))
    operators.append(DeltaCoefficients(B1=np.full((3, 3), -0.0), B2=np.full((3, 3), -0.0), T=np.full((3, 3, 3), -0.0)))
    return operators


def test_induced_qmap_has_the_rows_of_the_public_constructor(rng):
    for d in induced_map_operators(rng):
        v = induced_qmap(d)
        assert v.coefficient_rows().tobytes() == induced_qmap_reference(d).coefficient_rows().tobytes()
        rows = v.coefficient_rows()
        assert rows.shape == (9, 3) and not rows.flags.writeable
        for k, name in enumerate(_FIELDS):
            field = getattr(v, name)
            assert field.base is rows and np.shares_memory(field, rows[k])
            assert field.tobytes() == rows[k].tobytes()
            with pytest.raises(ValueError):
                field[0] = 1.0


def test_public_map_constructor_still_refuses_entries_above_the_map_limit():
    assert _MAP_LIMIT == 2.0 * COEFFICIENT_LIMIT
    for name in _FIELDS:
        with pytest.raises(ValueError, match=f"^{name}: entries must be numbers of magnitude at most 2e\\+150"):
            QuadraticMapCoeffs(**{name: [0.0, np.nextafter(_MAP_LIMIT, np.inf), 0.0]})
    QuadraticMapCoeffs(**{name: [0.0, -_MAP_LIMIT, 0.0] for name in _FIELDS})


def test_derived_operators_get_fresh_images(rng):
    d = random_delta(rng)
    images, v = basis_images(d).copy(), induced_qmap(d)
    T = rng.normal(size=(3, 3, 3))
    replaced = dataclasses.replace(d, T=T)
    rebuilt = DeltaCoefficients(b=d.b, B1=d.B1, B2=d.B2, T=T)
    assert np.array_equal(basis_images(replaced), basis_images(rebuilt))
    assert not np.array_equal(basis_images(replaced), images)
    assert np.array_equal(induced_qmap(replaced).coefficient_rows(), induced_qmap(rebuilt).coefficient_rows())
    for part in convex_split(d, 0.3):
        rebuilt = DeltaCoefficients(b=part.b, B1=part.B1, B2=part.B2, T=part.T)
        assert np.array_equal(basis_images(part), basis_images(rebuilt))
        assert np.array_equal(induced_qmap(part).coefficient_rows(), induced_qmap(rebuilt).coefficient_rows())
    assert np.array_equal(basis_images(d), images) and induced_qmap(d) is v
