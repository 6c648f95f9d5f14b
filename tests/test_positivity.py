import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import (
    DeltaCoefficients,
    channel,
    check_positivity,
    check_q_purity,
    delta0,
    delta1,
    induced_qmap,
    linear_family,
)
from blochquad import positivity, sampling
from blochquad.pauli import ID2, SIGMAS
from blochquad.channel import basis_images
from blochquad.positivity import TOL_EIG, VERTEX_CAP, _probe_directions
from blochquad.qmap import COEFFICIENT_LIMIT
from blochquad.sampling import generator, sphere_points
from conftest import conjugate_qmap, delta_from_qmap, golden_operators, random_delta, rescaled, rotation_matrix, sphere_faces
from sampled_oracle import CHUNK, _clears, check_positivity_exhaustive, check_positivity_sampled
from algebra_reference import NotHaarFormError, PauliElement, apply, check_linear_positivity, simple_form_eigs, theorem_witness_eigs


def simple_form_matrix(w0, w, r):
    m = w0 * np.eye(4, dtype=complex)
    for k in range(3):
        m += w[k] * np.kron(SIGMAS[k], ID2) + r[k] * np.kron(ID2, SIGMAS[k])
    return m


def test_eigvals_benchmark_image():
    m = apply(delta0(), PauliElement(1.0, (0, 1, 0)))
    assert np.abs(np.linalg.eigvalsh(m) - np.array([-2, 2, 2, 2])).max() < 1e-12


def test_eigvals_simple_form_matrix():
    m = simple_form_matrix(1.0, (0, 0, 0.3), (0.4, 0, 0))
    assert np.abs(np.linalg.eigvalsh(m) - np.array([0.3, 0.9, 1.1, 1.7])).max() < 1e-12


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
        numeric = np.linalg.eigvalsh(simple_form_matrix(w0, w, r))
        assert np.abs(closed - numeric).max() < 1e-9


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
        B *= rng.uniform(0.55, 1.0) / np.linalg.norm(B, 2)
        verdict = check_linear_positivity(B)
        assert not verdict.verdict
        m = apply(linear_family(B), PauliElement(1.0, verdict.witness.w))
        assert np.linalg.eigvalsh(m)[0] == pytest.approx(verdict.witness.min_eigenvalue, abs=1e-10)


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
        B = raw * (rng.uniform(0.0, 1.0) / np.linalg.norm(raw, 2))
        if abs(np.linalg.norm(B, 2) - 0.5) < 5e-3:
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
        assert check_q_purity(v)[0] is True
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
            numeric = np.linalg.eigvalsh(apply(d, PauliElement(1.0, probe)))
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
    return DeltaCoefficients(T=T)


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
        brute = min(np.linalg.eigvalsh(apply(d, PauliElement(1.0, w)))[0] for w in np.vstack([X, -X]))
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
    direct = np.linalg.eigvalsh(apply(d, PauliElement(1.0, result.witness.w)))[0]
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
    inner = np.linalg.eigvalsh(apply(d, PauliElement(1.0, r * u)))[0]
    outer = np.linalg.eigvalsh(apply(d, PauliElement(1.0, u)))[0]
    assert inner == pytest.approx((1.0 - r) + r * outer, abs=1e-12)


def test_probe_directions_at_the_admission_bound():
    T = np.zeros((3, 3, 3))
    T[0, 0] = (3e160, 4e160, 0.0)
    with pytest.raises(ValueError, match="T: .*overflow"):
        DeltaCoefficients(T=T)
    T[0, 0] = (0.6e150, 0.8e150, 0.0)
    probes = _probe_directions(induced_qmap(DeltaCoefficients(T=T)))
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


def count_solves(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        solved.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return solved


def test_proof_on_the_catalog_operators():
    # delta0 and delta1 fail at the probes, with the sampled oracle's witnesses;
    # linear(I/2), whose minimum 0 is attained on the whole sphere, is proved
    # by the linear certificate's norm bound, at l = 1/2.
    for d, w in ((delta0(), [0.0, 1.0, 0.0]), (delta1((0, 0, 1)), [0.0, 0.0, 1.0])):
        result = check_positivity(d)
        reference = check_positivity_sampled(d, samples=0, seed=0)
        assert result.verdict is False and result.stage == "probe"
        assert np.array_equal(result.witness.w, w) and np.array_equal(result.witness.w, reference.witness.w)
        assert result.witness.min_eigenvalue == reference.witness.min_eigenvalue == pytest.approx(-2.0, abs=1e-12)
        lower, upper = result.interval
        assert lower <= result.witness.min_eigenvalue <= upper
    result = check_positivity(linear_family(np.eye(3) / 2))
    assert result.verdict is True and result.witness is None
    assert result.stage == "linear" and result.l_star == 0.5
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
    return DeltaCoefficients(B1=B1, B2=B2)


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
    # T = 0, b = 0, where g(u) = |B1 u| + |B2 u|: proved by the linear
    # certificate, or refuted off every axis.
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
            redone = np.linalg.eigvalsh(apply(d, PauliElement(1.0, proof.witness.w)))[0]
            assert redone < -TOL_EIG
            assert lower <= proof.min_eigenvalue_seen <= min(upper, proof.witness.min_eigenvalue)
        if s == 1.0:
            assert proof.verdict is (ratio < 1.0)


def reach(d):
    """sqrt(sum_i |Delta(sigma_i)|^2), the norm stage's bound on g, from an SVD of each basis image."""
    s = np.linalg.svd(basis_images(d), compute_uv=False)[:, 0]
    return math.sqrt(s @ s)


def oracle_allowance(d):
    """check_positivity's rounding allowance, 128 eps * (1 + sum |entries of M|)."""
    return 128.0 * np.finfo(float).eps * oracle_scale(d)


def norm_floor(d):
    """The floor check_positivity gives an operator with T != 0 or b != 0: the argument it hands the branch and bound, else its interval's lower end."""
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(positivity, "_branch_and_bound", lambda d, allowance, seen, floor: handed.append(floor) or positivity.PositivityVerdict(None, seen))
        result = check_positivity(d)
    return result, handed[0] if handed else result.interval[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(-500.0, 500.0), st.none() | st.floats(1.0 - 3e-9, 1.0 + 3e-9))
def test_norm_bound_from_the_probes_matches_the_svd_reach(seed, trace_preserving, log2_scale, reach_ratio):
    # Random operators with T != 0 (and b != 0 when not trace-preserving),
    # scaled by 2^log2_scale up to the admission bound, or to reach within
    # 3e-9 of 1, where the norm stage's verdict turns.
    raw = random_delta(np.random.default_rng(seed), trace_preserving=trace_preserving)
    if reach_ratio is None:
        factor = min(2.0**log2_scale, COEFFICIENT_LIMIT / float(np.abs(raw._entries).max()))
    else:
        factor = reach_ratio / reach(raw)
    d = rescaled(raw, factor)
    result, floor = norm_floor(d)
    allowance = oracle_allowance(d)
    floor_svd = 1.0 - reach(d) - allowance
    assert abs(floor - floor_svd) <= allowance
    if floor_svd > -TOL_EIG + allowance:
        assert result.verdict is True and result.stage == "norm"
    elif floor_svd < -TOL_EIG - allowance:
        assert result.stage != "norm"


def test_no_svd_decides_an_operator_with_t_or_b(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    cases = [d for d in golden_operators() + bit_identity_operators() if d.T.any() or d.b.any()]
    assert len(cases) >= 58
    monkeypatch.setattr(positivity.np.linalg, "svd", refuse)
    verdicts = {check_positivity(d).verdict for d in cases}
    assert verdicts == {True, False, None}


def test_probe_and_norm_verdicts_make_one_eigen_solve(monkeypatch):
    broken_trace = DeltaCoefficients(b=[0.1, 0.0, 0.0])
    for d, stage in ((delta0(), "probe"), (delta1((0, 0, 1)), "probe"), (broken_trace, "norm")):
        solved = count_solves(monkeypatch)
        result = check_positivity(d)
        monkeypatch.undo()
        assert result.stage == stage and len(solved) == 1


def test_branch_and_bound_spends_few_solves(monkeypatch):
    # Trace-state operators scaled between reach = 1, where the norm stage
    # stops proving them, and 0.95 of their positivity boundary.
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = DeltaCoefficients(T=rng.normal(size=(3, 3, 3)))
        low, high = 1.0 / reach(d), 0.95 / sphere_max_g(d)
        assert low < high
        d = rescaled(d, rng.uniform(low, high))
        solved = count_solves(monkeypatch)
        result = check_positivity(d)
        monkeypatch.undo()
        assert result.verdict is True and result.stage == "branch-and-bound"
        assert sum(solved) <= 200


# tests/golden/flat.json: g(u) = 0.6 |(u1, u2)| + 0.8 |u3| is 1 on a whole circle.
FLAT = DeltaCoefficients(B1=np.diag([0.6, 0.6, 0.0]), B2=np.diag([0.0, 0.0, 0.8]))
# tests/golden/flat_offset.json: g(u) = 0.8 u3 + 0.6 |(u1, u2)| is 1 on the circle u3 = 0.8.
FLAT_OFFSET = DeltaCoefficients(b=np.array([0.0, 0.0, 0.8]), B1=np.diag([0.6, 0.6, 0.0]))


def test_flat_maximum_is_marginal(monkeypatch):
    # No vertex bound closes the gap on flat_offset's circle, and reach > 1
    # fails the norm stage.
    solved = count_solves(monkeypatch)
    result = check_positivity(FLAT_OFFSET)
    monkeypatch.undo()
    assert result.verdict is None and result.witness is None and result.stage == "branch-and-bound"
    lower, upper = result.interval
    assert lower <= 0.0 <= upper
    assert sum(solved) <= VERTEX_CAP + len(_probe_directions(induced_qmap(FLAT_OFFSET)))
    # Just inside, the same operator is proved.
    assert check_positivity(rescaled(FLAT_OFFSET, 1.0 - 1e-4)).verdict is True
    # flat's linear blocks are proved exactly: P/l + Q/(1 - l) = I at l = 0.36.
    result = check_positivity(FLAT)
    assert result.verdict is True and result.stage == "linear"
    assert result.l_star == pytest.approx(0.36, abs=1e-12)
    # The circle point of the bracket ends, 0.6 e1 + 0.8 e3, lies on the circle.
    assert result.interval[0] <= 0.0 <= result.interval[1] <= oracle_allowance(FLAT)


def test_rotated_flat_family_is_positive():
    # B1 = R diag(a, a, 0) R', B2 = R diag(0, 0, c) R' with a^2 + c^2 = 1: g
    # is 1 on a circle, and P/l + Q/(1 - l) = I at l = a^2.  The minimum is
    # 0 (to the rounding of the entries), so the upper end may not pass
    # below -allowance, and it is never looser than the probes' one.  The
    # ascent from the circle point reaches the circle, so the upper end
    # stays within 2 * allowance.
    rng = np.random.default_rng(29)
    tighter = 0
    for _ in range(300):
        a = rng.uniform(0.01, 0.99)
        R = rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 2.0 * np.pi))
        d = DeltaCoefficients(B1=R @ np.diag([a, a, 0.0]) @ R.T, B2=R @ np.diag([0.0, 0.0, math.sqrt(1.0 - a * a)]) @ R.T)
        result = check_positivity(d)
        assert result.verdict is True and result.stage == "linear"
        assert result.l_star == pytest.approx(a * a, rel=1e-6)
        allowance = oracle_allowance(d)
        lower, upper = result.interval
        assert -allowance <= upper <= min(result.min_eigenvalue_seen + allowance, 2.0 * allowance) and lower <= 0.0
        tighter += upper < result.min_eigenvalue_seen
    assert tighter >= 150


def test_certificate_refutes_flat_scaled_past_its_circle(monkeypatch):
    # s * flat: g peaks at s on flat's circle, on the kink of the commuting P
    # and Q.  The search finds the kink in its second round, stops there, and
    # the witness lies on the circle through the bracket ends' eigenvectors.
    solves = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solves.append(1) or eigh(a))
    for s in (1.000001, 1.001, 1.05):
        solves.clear()
        result = check_positivity(rescaled(FLAT, s))
        assert result.verdict is False and result.stage == "linear" and len(solves) <= 3
        assert result.witness.min_eigenvalue == pytest.approx(1.0 - s, abs=1e-12)


def test_linear_certificate_agrees_with_the_branch_and_bound():
    # 300 random linear operators with B1 != B2, around their positivity
    # boundary: wherever the branch and bound decides, the certificate decides
    # alike, and every witness's image has a negative eigenvalue.
    rng = np.random.default_rng(27)
    stages = []
    for _ in range(300):
        raw = DeltaCoefficients(B1=rng.normal(size=(3, 3)), B2=rng.normal(size=(3, 3)))
        d = rescaled(raw, rng.choice([0.5, 0.9, 0.97, 1.03, 1.1, 2.0]) / sphere_max_g(raw, samples=2000))
        result = check_positivity(d)
        reference = positivity._branch_and_bound(d, oracle_allowance(d), math.inf, -math.inf)
        if reference.verdict is not None:
            assert result.verdict is reference.verdict
        if result.verdict is True and reference.verdict is True:  # both intervals hold the minimum
            assert max(result.interval[0], reference.interval[0]) <= min(result.interval[1], reference.interval[1])
        if result.verdict is False:
            assert np.linalg.eigvalsh(apply(d, PauliElement(1.0, result.witness.w)))[0] < -TOL_EIG
        stages.append((result.stage, result.verdict))
    assert set(stages) == {("probe", False), ("linear", False), ("linear", True)}


def single_image_operator(rng):
    """Random b, B1, B2 and T entries on sigma_3 only: g(u) = lambda_max(u3 M_3), so max g = reach."""
    T = np.zeros((3, 3, 3))
    T[:, :, 2] = rng.normal(size=(3, 3))
    B1, B2 = np.zeros((3, 3)), np.zeros((3, 3))
    B1[:, 2], B2[:, 2] = rng.normal(size=3), rng.normal(size=3)
    return DeltaCoefficients(b=np.array([0.0, 0.0, rng.normal()]), B1=B1, B2=B2, T=T)


def test_norm_stage_never_passes_a_refuted_operator():
    # Operators scaled to reach within 2e-9 of 1, half of them with one basis
    # image, where reach is max g: none that the norm stage proves may be
    # refuted by the sampled oracle by more than the allowance.
    rng = np.random.default_rng(28)
    proved = 0
    for i in range(80):
        d = single_image_operator(rng) if i % 2 else random_delta(rng, trace_preserving=bool(i % 4))
        d = rescaled(d, (1.0 + rng.uniform(-2e-9, 2e-9)) / reach(d))
        result = check_positivity(d)
        if result.stage != "norm":
            continue
        proved += 1
        oracle = check_positivity_sampled(d, samples=2000, seed=i)
        assert oracle.min_eigenvalue_seen >= -TOL_EIG - oracle_allowance(d)
    assert proved >= 30


# ------------------------------------------------ the proof's earlier numpy forms
# The branch and bound takes images by np.dot, face geometry once per face and
# edge keys as integers; the probes take 1-D norms as math.sqrt(x @ x).  The
# forms they replaced are kept here, and must give the same bits.


def reference_bloch_images(d, W):
    return np.eye(4) + np.tensordot(np.atleast_2d(np.asarray(W, dtype=float)), basis_images(d), axes=1)


def reference_minima(d, W):
    vals = np.linalg.eigvalsh(reference_bloch_images(d, W))
    return np.column_stack([vals[:, 0], 2.0 - vals[:, -1]])


def reference_branch_and_bound(d, allowance, seen, floor):
    V, F, g, settled_top = positivity.ICOSAHEDRON, positivity.FACES, np.empty((0, 2)), 0.0
    fresh = V
    while True:
        minima = reference_minima(d, fresh)
        seen = min(seen, float(minima.min()))
        if (minima < -TOL_EIG).any():
            k = int(np.argmin(minima))
            w = fresh[k // 2] if k % 2 == 0 else -fresh[k // 2]
            witness = positivity.Witness(w=w, min_eigenvalue=float(minima.flat[k]))
            return positivity.PositivityVerdict(False, seen, witness, (floor, seen + allowance), "branch-and-bound")
        g = np.vstack([g, 1.0 - minima])
        c = V[F].sum(axis=1)
        cos = np.einsum("kd,kjd->kj", c / np.linalg.norm(c, axis=1, keepdims=True), V[F]).min(axis=1)
        bound = (np.maximum(0.0, g[F].max(axis=(1, 2))) + allowance) / cos
        settled = 1.0 - bound >= -TOL_EIG
        settled_top = max(settled_top, float(bound[settled].max(initial=0.0)))
        F = F[~settled]
        if not len(F):
            return positivity.PositivityVerdict(True, seen, interval=(1.0 - settled_top, seen + allowance), stage="branch-and-bound")
        edges = np.sort(F[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
        pairs, slot = np.unique(edges, axis=0, return_inverse=True)
        if len(V) + len(pairs) > VERTEX_CAP:
            top = max(settled_top, float(bound[~settled].max()))
            return positivity.PositivityVerdict(None, seen, interval=(1.0 - top, seen + allowance), stage="branch-and-bound")
        fresh = V[pairs[:, 0]] + V[pairs[:, 1]]
        fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
        corners = np.column_stack([F, len(V) + slot.reshape(-1, 3)])
        F = corners[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]].reshape(-1, 3)
        V = np.vstack([V, fresh])


def stage_three_inputs(d):
    """(allowance, seen, floor) for the branch and bound: the probes' least eigenvalue and reach's lower end."""
    M, allowance = basis_images(d), oracle_allowance(d)
    v = induced_qmap(d)
    quadratic = [vec / np.linalg.norm(vec) for vec in (v.a, v.b, v.c) if np.linalg.norm(vec) > 1e-12]
    seen = float(reference_minima(d, np.vstack(quadratic + [np.eye(3)])).min())
    reach = float(np.linalg.norm(np.linalg.norm(M, 2, axis=(1, 2))))
    return allowance, seen, 1.0 - reach - allowance


def hexed(values):
    return tuple(float(x).hex() for x in np.ravel(values))


def verdict_bits(result):
    """Every field of a PositivityVerdict, floats as hex."""
    witness = None if result.witness is None else (hexed(result.witness.w), hexed(result.witness.min_eigenvalue))
    return result.verdict, hexed(result.min_eigenvalue_seen), hexed(result.interval), witness, result.stage, result.l_star


def bit_identity_operators():
    """Operators on every path of the proof and each branch-and-bound exit."""
    rng = np.random.default_rng(1010)
    ops = [FLAT]  # marginal at the branch and bound's vertex cap
    for _ in range(4):
        B1, B2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        for raw in (
            random_delta(rng, trace_preserving=False),  # b != 0
            DeltaCoefficients(T=rng.normal(size=(3, 3, 3))),  # T != 0
            DeltaCoefficients(B1=B1, B2=B2),  # linear, B1 != B2
            linear_family(B1),  # linear, B1 = B2
        ):
            boundary = 1.0 / sphere_max_g(raw, samples=2000)
            ops.extend(rescaled(raw, ratio * boundary) for ratio in (0.5, 0.97, 0.999, 1.001, 1.03, 3.0))
    shapes = {"b": (3,), "B1": (3, 3), "B2": (3, 3), "T": (3, 3, 3)}
    ops.append(DeltaCoefficients(**{k: np.full(v, COEFFICIENT_LIMIT) for k, v in shapes.items()}))
    ops.append(DeltaCoefficients(**{k: COEFFICIENT_LIMIT * rng.choice([-1.0, 1.0], size=v) for k, v in shapes.items()}))
    return ops


def test_proof_matches_its_earlier_numpy_forms_bit_for_bit():
    exits = set()
    for d in bit_identity_operators():
        inputs = stage_three_inputs(d)
        result = positivity._branch_and_bound(d, *inputs)
        assert verdict_bits(result) == verdict_bits(reference_branch_and_bound(d, *inputs))
        exits.add(result.verdict)
    assert exits == {True, False, None}


def test_batched_forms_match_the_per_call_forms(rng):
    for d in bit_identity_operators()[::5]:
        W = np.vstack([sphere_points(rng, 7), np.eye(3)])
        assert np.array_equal(channel.bloch_images(d, W), reference_bloch_images(d, W))
        assert np.array_equal(channel.bloch_images(d, W[0]), reference_bloch_images(d, W[0]))
        v = induced_qmap(d)
        reference_probes = [vec / np.linalg.norm(vec) for vec in (v.a, v.b, v.c) if np.linalg.norm(vec) > 1e-12]
        assert np.array_equal(_probe_directions(v), np.vstack(reference_probes + [np.eye(3)]))


def test_face_geometry_is_the_per_level_value():
    V, F = positivity.ICOSAHEDRON, positivity.FACES
    c = V[F].sum(axis=1)
    cos = np.einsum("kd,kjd->kj", c / np.linalg.norm(c, axis=1, keepdims=True), V[F]).min(axis=1)
    assert np.array_equal(positivity.FACE_COS, cos)
    assert len(F) == 10 and not positivity.FACE_COS.flags.writeable


def test_split_faces_keeps_a_closed_sphere_mesh():
    V, F = sphere_faces()
    for level in range(1, 5):
        parent_vertices, parents = V, F
        V, F = positivity.split_faces(V, F)
        assert len(F) == 20 * 4**level and np.array_equal(V[: len(parent_vertices)], parent_vertices)
        edges = np.sort(F[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
        pairs, count = np.unique(edges, axis=0, return_counts=True)
        assert (count == 2).all()  # every edge lies on exactly two faces
        assert len(V) - len(pairs) + len(F) == 2  # Euler characteristic of the sphere
        assert len(np.unique(V, axis=0)) == len(V)  # no two vertices share bits
        assert np.abs(np.sqrt((V * V).sum(axis=1)) - 1.0).max() <= 1e-15
        # the children of face k are rows 4k ... 4k+3: a child at each corner, then the middle one
        assert np.array_equal(np.stack([F[0::4, 0], F[1::4, 1], F[2::4, 2]], axis=1), parents)
        assert np.array_equal(F[3::4], np.stack([F[0::4, 1], F[1::4, 2], F[0::4, 2]], axis=1))
