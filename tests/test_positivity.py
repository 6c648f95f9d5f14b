import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import (
    DeltaCoefficients,
    NotHaarFormError,
    NotHermitianError,
    PauliElement,
    apply,
    channel,
    check_haar_conditions,
    check_linear_positivity,
    check_positivity_sampled,
    delta0,
    delta1,
    eigvals_hermitian4,
    induced_qmap,
    linear_family,
    operator_norm3,
    simple_form_eigs,
    theorem_witness_eigs,
)
from blochquad.pauli import ID2, SIGMAS
from blochquad.channel import basis_images
from blochquad.positivity import _probe_directions
from blochquad.sampling import generator, sphere_points
from conftest import conjugate_qmap, delta_from_qmap, random_delta, rotation_matrix


def simple_form_matrix(w0, w, r):
    m = w0 * np.eye(4, dtype=complex)
    for k in range(3):
        m += w[k] * np.kron(SIGMAS[k], ID2) + r[k] * np.kron(ID2, SIGMAS[k])
    return m


def test_eigvals_diagonal():
    assert np.allclose(eigvals_hermitian4(np.diag([4.0, 2.0, 1.0, 3.0])), [1, 2, 3, 4])


def test_eigvals_benchmark_image():
    m = apply(delta0(), PauliElement(1.0, (0, 1, 0)))
    assert np.abs(eigvals_hermitian4(m) - np.array([-2, 2, 2, 2])).max() < 1e-12


def test_eigvals_simple_form_matrix():
    m = simple_form_matrix(1.0, (0, 0, 0.3), (0.4, 0, 0))
    assert np.abs(eigvals_hermitian4(m) - np.array([0.3, 0.9, 1.1, 1.7])).max() < 1e-12


def test_eigvals_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(NotHermitianError):
        eigvals_hermitian4(m)
    m[0, 1] = np.nan  # a NaN defect must not pass as Hermitian
    with pytest.raises(NotHermitianError):
        eigvals_hermitian4(m)


def test_eigvals_matches_lapack(rng):
    # the wrapper's symmetrisation must leave an exactly Hermitian spectrum unchanged
    for _ in range(200):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        assert np.abs(eigvals_hermitian4(h) - np.linalg.eigvalsh(h)).max() < 1e-12


def test_simple_form_eigs_examples():
    assert np.allclose(simple_form_eigs(1.0, (0, 0, 0), (0, 0, 0)), [1, 1, 1, 1])
    vals = np.sort(simple_form_eigs(1.0, (0, 0, 0.3), (0.4, 0, 0)))
    assert np.abs(vals - np.array([0.3, 0.9, 1.1, 1.7])).max() < 1e-15
    w = np.array([0.6, 0, 0])
    r = np.array([0, 0.6, 0])
    assert simple_form_eigs(1.0, w, r).min() == pytest.approx(-0.2)


def test_simple_form_vs_eigvals_random(rng):
    for _ in range(1000):
        w0 = rng.normal()
        w = rng.normal(size=3)
        r = rng.normal(size=3)
        closed = np.sort(simple_form_eigs(w0, w, r))
        numeric = eigvals_hermitian4(simple_form_matrix(w0, w, r))
        assert np.abs(closed - numeric).max() < 1e-9


def test_operator_norm3_examples():
    assert operator_norm3(np.eye(3) / 2) == pytest.approx(0.5)
    assert operator_norm3(np.diag([0.6, 0, 0])) == pytest.approx(0.6)
    assert operator_norm3(rotation_matrix((0, 1, 1), 0.8) / 2) == pytest.approx(0.5)


def test_check_linear_positivity_examples():
    assert check_linear_positivity(np.eye(3) / 2).verdict

    verdict = check_linear_positivity(np.diag([0.6, 0, 0]))
    assert not verdict.verdict
    assert np.allclose(verdict.witness.w, [1, 0, 0])
    assert verdict.witness.min_eigenvalue == pytest.approx(-0.2)

    verdict = check_linear_positivity(np.zeros((3, 3)))
    assert verdict.verdict
    assert verdict.witness is None


def test_linear_witness_reproduces_negative_eigenvalue(rng):
    for _ in range(20):
        B = rng.normal(size=(3, 3))
        B *= rng.uniform(0.55, 1.0) / operator_norm3(B)
        verdict = check_linear_positivity(B)
        assert not verdict.verdict
        m = apply(linear_family(B), PauliElement(1.0, verdict.witness.w))
        assert eigvals_hermitian4(m)[0] == pytest.approx(verdict.witness.min_eigenvalue, abs=1e-10)


def test_sampled_oracle_on_benchmarks():
    result = check_positivity_sampled(delta0(), samples=0, seed=0)
    assert not result.verdict
    assert np.allclose(result.witness.w, [0, 1, 0])
    assert result.witness.min_eigenvalue == pytest.approx(-2.0, abs=1e-12)

    result = check_positivity_sampled(linear_family(np.eye(3) / 2), samples=10000, seed=3)
    assert result.verdict
    assert result.min_eigenvalue_seen >= -1e-9

    result = check_positivity_sampled(delta1((0, 0, 1)), samples=0, seed=0)
    assert not result.verdict
    assert result.witness.min_eigenvalue < -1.0


def test_sampled_oracle_determinism():
    a = check_positivity_sampled(linear_family(np.diag([0.45, 0.2, 0.1])), samples=500, seed=9)
    b = check_positivity_sampled(linear_family(np.diag([0.45, 0.2, 0.1])), samples=500, seed=9)
    assert a.min_eigenvalue_seen == b.min_eigenvalue_seen


def test_linear_criterion_vs_sampled_oracle(rng):
    for _ in range(25):
        raw = rng.normal(size=(3, 3))
        B = raw * (rng.uniform(0.0, 1.0) / operator_norm3(raw))
        if abs(operator_norm3(B) - 0.5) < 5e-3:
            continue  # boundary band where a finite oracle cannot resolve the margin
        criterion = check_linear_positivity(B).verdict
        oracle = check_positivity_sampled(linear_family(B), samples=1000, seed=17).verdict
        assert criterion == oracle


def rotated_benchmarks():
    maps = [induced_qmap(delta0()), induced_qmap(delta1((0, 0, 1)))]
    for axis, angle in (((1, 2, 0), 0.8), ((0, 1, 1), 2.0)):
        maps.append(conjugate_qmap(induced_qmap(delta0()), rotation_matrix(axis, angle)))
    return maps


def test_sphere_preserving_trace_state_operators_are_not_positive():
    # certified sphere preservation forces a negative eigenvalue at a probe
    for v in rotated_benchmarks():
        assert check_haar_conditions(v).verdict
        d = delta_from_qmap(v)
        result = check_positivity_sampled(d, samples=0, seed=0)
        assert not result.verdict


def test_theorem_witness_eigs_examples():
    spectra = theorem_witness_eigs(induced_qmap(delta0()))
    assert np.allclose(spectra["a"], [2, -2, 2, 2])

    spectra = theorem_witness_eigs(induced_qmap(delta1((0, 0, 1))))
    assert np.allclose(spectra["a"], [-2, 2, 2, 2])

    # orthogonal a, b and a, c with <B,a> = 0 collapses the formulas
    from blochquad import QuadraticMapCoeffs

    made = theorem_witness_eigs(QuadraticMapCoeffs(a=(1, 0, 0), b=(0, 1, 0), c=(0, 0, 1)))
    assert np.allclose(made["a"], [0, 0, 2, 2])


def test_theorem_witness_eigs_match_eigvals():
    for v in rotated_benchmarks():
        d = delta_from_qmap(v)
        spectra = theorem_witness_eigs(v)
        for key, probe in (("a", v.a), ("b", v.b), ("c", v.c)):
            numeric = eigvals_hermitian4(apply(d, PauliElement(1.0, probe)))
            assert np.abs(np.sort(spectra[key]) - numeric).max() < 1e-9


def test_theorem_witness_requires_haar_form():
    v = induced_qmap(linear_family(np.eye(3) / 2))
    with pytest.raises(NotHaarFormError):
        theorem_witness_eigs(v)


def test_sampled_oracle_scans_both_signs(rng):
    # On positive operators the oracle scans everything: its minimum must be
    # the brute-force minimum over the probes and sphere points, both signs.
    for seed in range(5):
        d = random_delta(rng)
        norms = sum(np.abs(np.linalg.eigvalsh(m)).max() for m in basis_images(d))
        d = DeltaCoefficients(B1=d.B1 * 0.9 / norms, B2=d.B2 * 0.9 / norms, T=d.T * 0.9 / norms)
        result = check_positivity_sampled(d, samples=200, seed=seed)
        assert result.verdict
        X = np.vstack([_probe_directions(induced_qmap(d)), sphere_points(generator(seed), 200)])
        brute = min(eigvals_hermitian4(apply(d, PauliElement(1.0, w)))[0] for w in np.vstack([X, -X]))
        assert abs(result.min_eigenvalue_seen - brute) < 1e-12


def test_sampled_oracle_finds_witness_on_the_minus_sign():
    # Delta(w.sigma) = s <t,w> (1(x)1 + sigma1(x)sigma2) has spectrum
    # s <t,w> {0, 0, 2, 2}, so 1 + w.sigma fails only where <t,w> < -1/(2s).
    # With t the first sphere sample, the first failing input is -t, and the
    # axis probes pass while |t_k| < 1/(2s).
    s = 0.6
    t = sphere_points(generator(0), 1)[0]
    assert np.abs(t).max() < 1.0 / (2.0 * s)
    T = np.zeros((3, 3, 3))
    T[0, 1] = s * t
    d = DeltaCoefficients(b=s * t, T=T)
    result = check_positivity_sampled(d, samples=50, seed=0)
    assert not result.verdict
    assert np.array_equal(result.witness.w, -t)
    direct = eigvals_hermitian4(apply(d, PauliElement(1.0, result.witness.w)))[0]
    assert result.witness.min_eigenvalue == pytest.approx(direct, abs=1e-12)
    assert direct == pytest.approx(1.0 - 2.0 * s, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_interior_inputs_are_dominated_by_the_sphere(seed, r):
    # Delta(1) = 1(x)1 gives lambda_min(Delta(1 + r u.sigma)) =
    # (1 - r) + r lambda_min(Delta(1 + u.sigma)): the oracle scans no ball points.
    rng = np.random.default_rng(seed)
    d = random_delta(rng, trace_preserving=False)
    u = sphere_points(generator(seed), 1)[0]
    inner = eigvals_hermitian4(apply(d, PauliElement(1.0, r * u)))[0]
    outer = eigvals_hermitian4(apply(d, PauliElement(1.0, u)))[0]
    assert inner == pytest.approx((1.0 - r) + r * outer, abs=1e-12)


def test_probe_directions_at_the_admission_bound():
    T = np.zeros((3, 3, 3))
    T[0, 0] = (3e160, 4e160, 0.0)
    with pytest.raises(ValueError, match="T: .*overflow"):
        DeltaCoefficients.trace_preserving(T=T)
    T[0, 0] = (0.6e150, 0.8e150, 0.0)
    probes = _probe_directions(induced_qmap(DeltaCoefficients.trace_preserving(T=T)))
    assert np.abs(probes[0] - [0.6, 0.8, 0.0]).max() <= 1e-15
    assert np.array_equal(probes[1:], np.eye(3))


def test_sampled_oracle_refuses_overflowing_images(monkeypatch):
    def overflowing_images(d, W):
        images = np.repeat(np.eye(4)[None], len(W), axis=0)
        images[0, 0, 0] = np.inf
        return images

    monkeypatch.setattr(channel, "bloch_images", overflowing_images)
    with pytest.raises(ValueError, match="overflow"):
        check_positivity_sampled(delta0(), samples=0, seed=0)
