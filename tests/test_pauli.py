import math

import numpy as np
import pytest

from blochquad import DeltaCoefficients, kron
from blochquad.pauli import BASIS, ID2, SIGMA1, SIGMA2, SIGMA3, vector_norm
from algebra_reference import (
    BlochState,
    PauliElement,
    partial_trace_left,
    partial_trace_right,
    recompose,
    swap_conjugate,
)


def test_recompose_examples():
    assert np.allclose(recompose(PauliElement(0, (1, 0, 0))), SIGMA1)
    assert np.allclose(recompose(PauliElement(1, (0, 0, 0))), ID2)
    expected = np.array([[1, -1j], [1j, 1]])
    assert np.abs(recompose(PauliElement(1, (0, 1, 0))) - expected).max() < 1e-15


def test_positivity_agrees_with_eigensolver(rng):
    # |w| <= w0 must match the sign of the smallest eigenvalue of the matrix.
    for _ in range(1000):
        p = PauliElement(rng.normal(), rng.normal(size=3))
        eigs = np.linalg.eigvalsh(recompose(p))
        assert (vector_norm(p.w.real) <= p.w0.real + 1e-9) == (eigs[0] >= -1e-9)


def test_state_eval_matches_density_matrix_trace(rng):
    for _ in range(200):
        f = rng.uniform(-1, 1, size=3)
        f /= max(1.0, np.linalg.norm(f) * 1.0001)
        s = BlochState(f)
        p = PauliElement(rng.normal() + 1j * rng.normal(), rng.normal(size=3) + 1j * rng.normal(size=3))
        via_trace = np.trace(s.density_matrix() @ recompose(p))
        assert abs(p.w0 + p.w @ s.f - via_trace) < 1e-12  # phi(w0*1 + w.sigma) = w0 + <w, f>


def test_bloch_state_validation():
    with pytest.raises(ValueError):
        BlochState((1, 1, 0))
    with pytest.raises(ValueError, match=r"^Bloch vector norm 1e\+200 exceeds 1$"):
        BlochState((1e200, 0, 0))
    assert BlochState((0.6, 0.8, 0)).is_pure
    assert not BlochState((0.5, 0, 0)).is_pure


def test_kron_examples():
    assert np.allclose(kron(ID2, ID2), np.eye(4))
    assert np.allclose(kron(SIGMA3, SIGMA3), np.diag([1, -1, -1, 1]))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
    assert np.allclose(kron(SIGMA1, ID2), expected)


def test_swap_conjugate_defining_property():
    assert np.allclose(swap_conjugate(kron(SIGMA1, SIGMA2)), kron(SIGMA2, SIGMA1))
    assert np.allclose(swap_conjugate(np.eye(4)), np.eye(4))


def test_swap_conjugate_involution_and_basis_pairs(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = g + g.conj().T
    assert np.abs(swap_conjugate(swap_conjugate(h)) - h).max() == 0
    for em in BASIS:
        for el in BASIS:
            assert np.abs(swap_conjugate(kron(em, el)) - kron(el, em)).max() == 0


def test_partial_traces_on_product_matrices(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = np.kron(a, b)
    assert np.abs(partial_trace_right(m) - a * np.trace(b) / 2).max() < 1e-14
    assert np.abs(partial_trace_left(m) - b * np.trace(a) / 2).max() < 1e-14


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
def test_every_library_check_refuses_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # at tol = inf each of these passed the broken-trace operator b = (0.1, 0, 0);
    # each refuses on the zero operator too, where every residual is 0
    from blochquad import channel, purity

    for d in (DeltaCoefficients(b=(0.1, 0, 0)), DeltaCoefficients()):
        v = channel.induced_qmap(d)
        checks = [
            lambda: channel.is_trace_preserving(d, tol=tol),
            lambda: channel.is_symmetric(d, tol=tol),
            lambda: channel.has_haar_trace(d, tol=tol),
            lambda: channel.check_coassociativity(d, tol=tol),
            lambda: purity.check_q_purity(v, tol=tol),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="tol must be a finite number at least 0"):
                check()
    assert channel.is_trace_preserving(DeltaCoefficients(b=(0.1, 0, 0)), tol=0.0) is False


def test_vector_norm_has_the_bits_of_the_dot_product_and_beyond_them_the_true_norm(rng):
    # entries up to 1e153 in magnitude: sqrt(x @ x) bit for bit
    scales = 10.0 ** rng.uniform(-160.0, 153.0, size=(300, 1))
    for x in np.clip(rng.normal(size=(300, 3)) * scales, -1e153, 1e153):
        assert vector_norm(x) == math.sqrt(x @ x)
    x = np.full(3, -1e153)
    assert vector_norm(x) == math.sqrt(x @ x)
    # beyond them x @ x may overflow: math.hypot, with no RuntimeWarning
    for entries in ([1e200, 0.0, 0.0], [0.0, -3e300, 4e300], [1e308, -1e308, 1e308], [2e153, 1.0, 0.0]):
        assert vector_norm(np.array(entries)) == math.hypot(*entries)
    assert vector_norm(np.array([-1e200, 0.0, 0.0])) == 1e200
    assert math.isnan(vector_norm(np.array([math.nan, 0.0, 0.0])))
