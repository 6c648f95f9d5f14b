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
    check_positivity,
    delta0,
    delta1,
    eigvals_hermitian4,
    induced_qmap,
    linear_family,
    operator_norm3,
    simple_form_eigs,
    theorem_witness_eigs,
)
from blochquad import positivity, sampling
from blochquad.pauli import ID2, SIGMAS
from blochquad.channel import basis_images
from blochquad.positivity import TOL_EIG, VERTEX_CAP, _probe_directions
from blochquad.qmap import COEFFICIENT_LIMIT
from blochquad.sampling import generator, sphere_points
from conftest import conjugate_qmap, delta_from_qmap, random_delta, rotation_matrix
from sampled_oracle import CHUNK, _clears, check_positivity_exhaustive, check_positivity_sampled


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
        result = check_positivity(d)
        assert result.verdict is False


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


def oracle_scale(d):
    """The oracle's bound on ||Delta(1 + w.sigma)||: 1 + sum of |basis image entries|."""
    return 1.0 + float(np.abs(basis_images(d)).sum())


def assert_matches_exhaustive(d, samples, seed):
    result = check_positivity_sampled(d, samples=samples, seed=seed)
    reference = check_positivity_exhaustive(d, samples, seed)
    assert result.verdict == reference.verdict
    if reference.witness is None:
        assert result.witness is None
    else:
        assert np.array_equal(result.witness.w, reference.witness.w)
        assert result.witness.min_eigenvalue == reference.witness.min_eigenvalue
    assert abs(result.min_eigenvalue_seen - reference.min_eigenvalue_seen) <= 1e-12 * oracle_scale(d)
    return result


def rescaled(d, factor):
    return DeltaCoefficients(b=d.b * factor, B1=d.B1 * factor, B2=d.B2 * factor, T=d.T * factor)


def narrow_cap_operator(s, t):
    # Delta(w.sigma) = s <t,w> (1(x)1 + sigma1(x)sigma2): only the inputs with
    # <t,w> < -1/(2s) fail, a cap that is tiny for s just above 1/2.
    T = np.zeros((3, 3, 3))
    T[0, 1] = s * t
    return DeltaCoefficients(b=s * t, T=T)


def rank_one_operator(t):
    # delta1's shape with |t| free: Delta(w.sigma) = <t,w> sum_m sigma_m(x)sigma_m,
    # whose smallest eigenvalue over the sphere is 1 - 3|t|: 0 at |t| = 1/3.
    T = np.zeros((3, 3, 3))
    for m in range(3):
        T[m, m] = t
    return DeltaCoefficients.trace_preserving(T=T)


def cross_check_operators():
    rng = np.random.default_rng(2024)
    ops = [linear_family(np.eye(3) / 2)]
    for trace_preserving in (True, False):
        for ratio in (0.9, 1.0, 1.05):
            d = random_delta(rng, trace_preserving=trace_preserving)
            ops.append(rescaled(d, ratio / sum(np.abs(np.linalg.eigvalsh(m)).max() for m in basis_images(d))))
    direction = np.array([2.0, -1.0, 2.0]) / 3.0
    for offset in (-1e-10, 1e-10):
        ops.append(rank_one_operator((1.0 / 3.0 + offset) * direction))
    ops.append(narrow_cap_operator(0.5 / (1.0 - 2e-4), sphere_points(generator(5), 1)[0]))
    return ops


@pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 20000])
def test_screened_oracle_matches_the_exhaustive_reference(samples):
    # Scale s multiplies every coefficient, capped at the admission bound.
    for i, d in enumerate(cross_check_operators()):
        top = max(float(np.abs(block).max()) for block in (d.b, d.B1, d.B2, d.T))
        for s in (1e-12, 1.0, 1e100, 1e150):
            assert_matches_exhaustive(rescaled(d, min(s, COEFFICIENT_LIMIT / top)), samples, seed=i)


def test_screened_oracle_finds_a_late_witness():
    # The narrow cap is first hit well past the first chunk, so the witness
    # comes from a screened chunk.
    d = cross_check_operators()[-1]
    result = assert_matches_exhaustive(d, 20000, seed=0)
    assert not result.verdict
    W = sphere_points(generator(0), 20000)
    hit = np.nonzero((np.abs(W - result.witness.w).max(axis=1) == 0) | (np.abs(W + result.witness.w).max(axis=1) == 0))[0]
    assert hit.size == 1 and hit[0] >= CHUNK


def test_sampled_oracle_scans_both_signs(rng):
    # On positive operators the oracle scans everything: its minimum must be
    # the brute-force minimum over the probes and sphere points, both signs,
    # within the screen's margin of 1e-12 * scale.
    samples = CHUNK + 100
    for seed in range(3):
        d = random_delta(rng)
        norms = sum(np.abs(np.linalg.eigvalsh(m)).max() for m in basis_images(d))
        d = DeltaCoefficients(B1=d.B1 * 0.9 / norms, B2=d.B2 * 0.9 / norms, T=d.T * 0.9 / norms)
        result = check_positivity_sampled(d, samples=samples, seed=seed)
        assert result.verdict
        X = np.vstack([_probe_directions(induced_qmap(d)), sphere_points(generator(seed), samples)])
        brute = min(eigvals_hermitian4(apply(d, PauliElement(1.0, w)))[0] for w in np.vstack([X, -X]))
        assert abs(result.min_eigenvalue_seen - brute) <= 1e-12 * oracle_scale(d)


def random_unitaries(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
    return q * (np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2)))[:, None, :]


@pytest.mark.parametrize("size", [1.0, 1e150])
@pytest.mark.parametrize("t_frac", [-1e-9, 0.0, 0.5])
def test_screen_never_clears_a_row_at_or_below_t(size, t_frac):
    # Spectra with lambda_min = t + k eps * scale for k = -512..512, the rest
    # spread up to `size`: rows whose eigvalsh minimum is at or below t must
    # not clear; rows far above t must.
    rng = np.random.default_rng(7)
    t = t_frac * size
    k = np.arange(-512, 513)
    far = np.full(64, t + 1e-6 * size)
    lowest = np.concatenate([t + k * np.finfo(float).eps * size, far])
    spectra = np.column_stack([lowest, t + size * rng.uniform(0.01, 1.0, size=(len(lowest), 3))])
    U = random_unitaries(rng, len(lowest))
    X = (U * spectra[:, None, :]) @ U.conj().transpose(0, 2, 1)
    X = 0.5 * (X + X.conj().transpose(0, 2, 1))
    scale = float(np.abs(np.linalg.eigvalsh(X)).max())
    cleared = _clears(X, t, 256.0 * np.finfo(float).eps * scale)
    assert not cleared[np.linalg.eigvalsh(X)[:, 0] <= t].any()
    assert cleared[-len(far) :].all()


def test_screen_does_not_clear_nan():
    X = np.repeat(3.0 * np.eye(4, dtype=complex)[None], 11, axis=0)
    rows, cols = np.tril_indices(4)
    for n, (i, j) in enumerate(zip(rows, cols)):
        X[n, i, j] = np.nan
    cleared = _clears(X, 0.0, 1e-13)
    assert not cleared[:10].any()
    assert cleared[10]


def test_oracle_exits_early(monkeypatch):
    # A probe-decided operator draws no sphere points.
    def refuse(rng, n):
        raise AssertionError("sphere points drawn")

    monkeypatch.setattr(sampling, "sphere_points", refuse)
    assert not check_positivity_sampled(delta0(), samples=100000, seed=0).verdict
    monkeypatch.undo()

    # A witness in the first sphere chunk stops the scan there.
    rows = []
    images = channel.bloch_images

    def counting_images(d, W):
        rows.append(len(W))
        return images(d, W)

    monkeypatch.setattr(channel, "bloch_images", counting_images)
    d = narrow_cap_operator(0.6, sphere_points(generator(0), 1)[0])
    result = check_positivity_sampled(d, samples=100000, seed=0)
    assert not result.verdict
    assert rows[0] == len(_probe_directions(induced_qmap(d)))
    assert sum(rows) <= rows[0] + CHUNK


def test_screen_spares_most_eigen_solves(monkeypatch):
    # On a positive operator only the first chunk and the few directions
    # that may lower the minimum are solved.
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        solved.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    d = linear_family(np.diag([0.45, 0.3, 0.2]))
    result = check_positivity_sampled(d, samples=20000, seed=1)
    monkeypatch.undo()
    assert result.verdict
    assert result.min_eigenvalue_seen == check_positivity_exhaustive(d, 20000, 1).min_eigenvalue_seen
    assert sum(solved) <= len(_probe_directions(induced_qmap(d))) + CHUNK + 200


def test_sampled_oracle_finds_witness_on_the_minus_sign():
    # Delta(w.sigma) = s <t,w> (1(x)1 + sigma1(x)sigma2) has spectrum
    # s <t,w> {0, 0, 2, 2}, so 1 + w.sigma fails only where <t,w> < -1/(2s).
    # With t the first sphere sample, the first failing input is -t, and the
    # axis probes pass while |t_k| < 1/(2s).
    s = 0.6
    t = sphere_points(generator(0), 1)[0]
    assert np.abs(t).max() < 1.0 / (2.0 * s)
    d = narrow_cap_operator(s, t)
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
    with pytest.raises(ValueError, match="overflow"):
        check_positivity(delta0())


# ------------------------------------------------------------------ the proof


def refuse_branch_and_bound(*args):
    raise AssertionError("branch and bound ran")


def count_solves(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        solved.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return solved


def test_proof_on_the_catalog_operators(monkeypatch):
    # delta0 and delta1 fail at the probes, with the sampled oracle's witnesses;
    # linear(I/2), whose minimum 0 is attained on the whole sphere, is proved
    # by the closed form.
    for d, w in ((delta0(), [0.0, 1.0, 0.0]), (delta1((0, 0, 1)), [0.0, 0.0, 1.0])):
        result = check_positivity(d)
        reference = check_positivity_sampled(d, samples=0, seed=0)
        assert result.verdict is False
        assert np.array_equal(result.witness.w, w) and np.array_equal(result.witness.w, reference.witness.w)
        assert result.witness.min_eigenvalue == reference.witness.min_eigenvalue == pytest.approx(-2.0, abs=1e-12)
        lower, upper = result.interval
        assert lower <= result.witness.min_eigenvalue <= upper
    monkeypatch.setattr(positivity, "_branch_and_bound", refuse_branch_and_bound)
    result = check_positivity(linear_family(np.eye(3) / 2))
    assert result.verdict is True and result.witness is None
    lower, upper = result.interval
    assert lower <= 0.0 <= upper
    assert upper - lower < 1e-11


def sphere_max_g(d, samples=20000):
    """Largest g(u) = lambda_max(u.M) over +-samples seeded sphere directions."""
    vals = np.linalg.eigvalsh(np.tensordot(sphere_points(generator(1), samples), basis_images(d), axes=1))
    return max(float(vals[:, -1].max()), float(-vals[:, 0].min()))


def linear_operator(s1, s2, top):
    """T = 0, b = 0 with B1 = R1 diag(s1) Q^T and B2 = R2 diag(s2) Q^T, Q's first column +-top."""
    q, _ = np.linalg.qr(np.column_stack([top, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    B1 = rotation_matrix((1, 2, 3), 0.7) @ np.diag(s1) @ q.T
    B2 = rotation_matrix((3, 1, 2), 0.4) @ np.diag(s2) @ q.T
    return DeltaCoefficients.trace_preserving(B1=B1, B2=B2)


def boundary_operators():
    """(operator, ratio): random operators with and without b, at ratio times the positivity boundary.

    g scales with the coefficients, so d / sphere_max_g(d) sits on the
    boundary (to the sampling's resolution).
    """
    rng = np.random.default_rng(606)
    ops = []
    for trace_preserving in (True, False):
        for ratio in (0.3, 0.9, 0.99, 1.01, 1.1, 5.0):
            d = random_delta(rng, trace_preserving=trace_preserving)
            ops.append((rescaled(d, ratio / sphere_max_g(d)), ratio))
    # T = 0, b = 0, where g(u) = |B1 u| + |B2 u|: proved by |B1| + |B2| <= 1,
    # or refuted off every axis by the branch and bound.
    top = np.array([2.0, -1.0, 2.0]) / 3.0
    ops.append((linear_operator([0.45, 0.2, 0.1], [0.4, 0.3, 0.2], top), 0.85))
    ops.append((linear_operator([0.6, 0.2, 0.1], [0.6, 0.2, 0.1], top), 1.2))
    ops.append((linear_operator([0.3, 0.2, 0.1], [0.75, 0.3, 0.2], top), 1.05))
    ops.append((narrow_cap_operator(0.5 / (1.0 - 2e-4), sphere_points(generator(5), 1)[0]), 1.0 / (1.0 - 2e-4)))
    return ops


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e100, 1e150])
def test_proof_agrees_with_the_exhaustive_oracle(s):
    # Scale s multiplies every coefficient, capped at the admission bound.
    for i, (d, ratio) in enumerate(boundary_operators()):
        top = max(float(np.abs(block).max()) for block in (d.b, d.B1, d.B2, d.T))
        d = rescaled(d, min(s, COEFFICIENT_LIMIT / top))
        proof = check_positivity(d)
        reference = check_positivity_exhaustive(d, 20000, seed=i)
        lower, upper = proof.interval
        assert lower <= upper
        if reference.witness is not None:
            assert proof.verdict is not True
        if proof.verdict is True:
            assert lower <= reference.min_eigenvalue_seen
        if proof.witness is not None:
            assert proof.verdict is False
            redone = eigvals_hermitian4(apply(d, PauliElement(1.0, proof.witness.w)))[0]
            assert redone < -TOL_EIG
            assert lower <= proof.min_eigenvalue_seen <= min(upper, proof.witness.min_eigenvalue)
        if s == 1.0:
            assert proof.verdict is (ratio < 1.0)


def test_branch_and_bound_spends_few_solves(monkeypatch):
    # Trace-state operators at half to nine tenths of Weyl's bound
    # sum_i |Delta(sigma_i)| <= 1, as the benchmark draws them.
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = DeltaCoefficients.trace_preserving(T=rng.normal(size=(3, 3, 3)))
        norms = sum(np.abs(np.linalg.eigvalsh(m)).max() for m in basis_images(d))
        d = rescaled(d, rng.uniform(0.45, 0.9) / norms)
        solved = count_solves(monkeypatch)
        assert check_positivity(d).verdict is True
        monkeypatch.undo()
        assert sum(solved) <= 200


def test_flat_maximum_is_marginal(monkeypatch):
    # g(u) = 0.6 |(u1, u2)| + 0.8 |u3| is 1 on a whole circle: no vertex bound
    # closes the gap there, and |B1| + |B2| = 1.4 fails the closed form.
    d = DeltaCoefficients.trace_preserving(B1=np.diag([0.6, 0.6, 0.0]), B2=np.diag([0.0, 0.0, 0.8]))
    solved = count_solves(monkeypatch)
    result = check_positivity(d)
    monkeypatch.undo()
    assert result.verdict is None and result.witness is None
    lower, upper = result.interval
    assert lower <= 0.0 <= upper
    assert sum(solved) <= VERTEX_CAP + len(_probe_directions(induced_qmap(d)))
    # Just inside, the same operator is proved.
    assert check_positivity(rescaled(d, 1.0 - 1e-4)).verdict is True
