"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import (
    check_linear_isometry,
    check_positivity,
    check_q_purity,
    delta0,
    delta1,
    estimate_divergence_rate,
    evaluate,
    fixed_points_sphere,
    induced_qmap,
    iterate,
    linear_family,
    logistic_conjugacy_residual,
    monte_carlo_sphere,
    verify_collapse,
)
from blochquad.channel import DeltaCoefficients
from blochquad.pauli import TOL_ALG
from blochquad.positivity import _probe_directions
from blochquad.sampling import generator, sphere_points
from conftest import delta_from_qmap, rotate_qmap, rotation_matrix, rotations
from test_positivity import simple_form_matrix
from test_purity import scaled
from purity_reference import haar_residuals_reference, sphere_residuals_reference
from sampled_oracle import MC_PASS_DEVIATION, MC_VIOLATION_DEVIATION
from algebra_reference import PauliElement, apply, apply_haar_closed_form, check_linear_positivity, simple_form_eigs, theorem_witness_eigs


def _record(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_benchmark_q_purity():
    start = time.time()
    v = induced_qmap(delta0())
    verdict, (_, upper) = check_q_purity(v)
    max_residual = max(haar_residuals_reference(v).values())
    deviation, _ = monte_carlo_sphere(v, samples=100000, seed=42)
    elapsed = time.time() - start
    ok = verdict is True and upper <= 1e-12 and max_residual <= 1e-12 and deviation <= MC_PASS_DEVIATION and elapsed < 1.0
    _record(
        1,
        ok,
        f"deviation bound {upper:.2e}, max residual {max_residual:.2e}, sampled deviation {deviation:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_impossibility_at_probes():
    d0 = check_positivity(delta0())
    d1 = check_positivity(delta1((0, 0, 1)))
    witness_gap = abs(d0.witness.min_eigenvalue - (-2.0)) if d0.witness else math.inf
    ok = d0.verdict is False and d1.verdict is False and witness_gap <= 1e-9
    _record(
        2,
        ok,
        "proof verdicts "
        f"{d0.verdict}/{d1.verdict}, witness eigenvalue gap {witness_gap:.2e}",
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["delta0", "delta1"]), rotations, rotations)
def test_criterion_2_rotated_theorem_operators_fail_at_a_probe(name, R1, R2):
    # f -> R1 V(R2 f) is q-pure with a Haar state, like V itself: the proof
    # must refute positivity at a quadratic probe, with the closed-form
    # probe spectrum of theorem_witness_eigs.
    base = induced_qmap(delta0() if name == "delta0" else delta1((0, 0, 1)))
    v = rotate_qmap(base, R1, R2)
    result = check_positivity(delta_from_qmap(v))
    assert result.verdict is False
    w = result.witness.w
    probes = _probe_directions(v)[:3]
    hits = [(k, sign) for k in range(3) for sign in (1.0, -1.0) if np.array_equal(w, sign * probes[k])]
    assert hits, f"witness {w} is not a quadratic probe"
    k, sign = hits[0]
    spectrum = theorem_witness_eigs(v)["abc"[k]]
    expected = spectrum.min() if sign > 0 else (2.0 - spectrum).min()
    gap = abs(result.witness.min_eigenvalue - expected)
    _record(2, gap <= 1e-9, f"{name} rotated: probe {'+-'[sign < 0]}{'abc'[k]}, witness gap {gap:.2e}")


def test_criterion_3_linear_dichotomy():
    rng = generator(20240811)
    blocks = []
    for _ in range(100):
        raw = rng.standard_normal((3, 3))
        blocks.append(raw * (rng.uniform(0.0, 1.0) / np.linalg.norm(raw, 2)))
    # 1 - 2|B| = -1.4e-9, between the proof's acceptance line -TOL_EIG and -2 TOL_EIG
    blocks.append((0.5 + 7e-10) * np.eye(3))
    disagreements = 0
    for B in blocks:
        criterion = check_linear_positivity(B).verdict
        proof = check_positivity(linear_family(B)).verdict
        disagreements += int(criterion is not proof)

    axis = rng.standard_normal(3)
    half_rotation = rotation_matrix(axis, rng.uniform(0.0, 2.0 * math.pi)) / 2.0
    isometry_ok = check_linear_isometry(half_rotation)[0]
    positive_ok = check_linear_positivity(half_rotation).verdict
    ok = disagreements == 0 and isometry_ok and positive_ok
    _record(
        3,
        ok,
        f"{disagreements} disagreements over 100 random blocks and one at |B| = 0.5 + 7e-10; "
        f"half-rotation isometry {isometry_ok}, positivity {positive_ok}",
    )


@settings(max_examples=60, deadline=None)
@given(rotations)
def test_criterion_3_half_rotations_are_positive_by_the_closed_form(R):
    # A half-rotation is q-pure and linear, so positive: the linear
    # certificate must prove it, with the minimum 0 inside the certified interval.
    B = R / 2.0
    result = check_positivity(linear_family(B))
    lower, upper = result.interval
    ok = check_linear_isometry(B)[0] and result.verdict is True and result.stage == "linear" and lower <= 0.0 <= upper
    _record(3, ok, f"half-rotation: verdict {result.verdict}, interval [{lower:.2e}, {upper:.2e}]")


def test_criterion_4_closed_form_eigenvalues():
    rng = generator(4)
    worst = 0.0
    for _ in range(1000):
        w0 = rng.normal()
        w = rng.normal(size=3)
        r = rng.normal(size=3)
        closed = np.sort(simple_form_eigs(w0, w, r))
        numeric = np.linalg.eigvalsh(simple_form_matrix(w0, w, r))
        worst = max(worst, float(np.abs(closed - numeric).max()))
    ok = worst <= 1e-9
    _record(4, ok, f"worst multiset gap {worst:.2e} over 1000 draws")


def test_criterion_5_interior_collapse():
    worst_rel = 0.0
    worst_tail = 0.0
    cases = (
        (induced_qmap(delta0()), np.array([0.9, 0.0, 0.0])),
        (induced_qmap(delta0()), 0.9 * np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)),
        (induced_qmap(delta1((0, 0, 1))), 0.9 * np.array([0.6, 0.0, 0.8])),
    )
    for v, f0 in cases:
        worst_rel = max(worst_rel, verify_collapse(v, f0, 8))
        traj = iterate(v, f0, 9)
        worst_tail = max(worst_tail, float(traj.norms[9]))
    ok = worst_rel <= 1e-9 and worst_tail < 1e-12
    _record(5, ok, f"n<=8 relative error {worst_rel:.2e}, norm at n=9 {worst_tail:.2e}")


def test_criterion_6_logistic_conjugacy_and_rate():
    residual = logistic_conjugacy_residual(10000)
    rate = estimate_divergence_rate(1.0, 10000, 1e-6)
    gap = abs(rate - math.log(2.0))
    ok = residual <= 1e-12 and gap <= 0.05
    _record(6, ok, f"conjugacy residual {residual:.2e}, rate gap {gap:.2e}")


def test_criterion_7_trivial_dynamics():
    t = np.array([0.0, 0.0, 1.0])
    v = induced_qmap(delta1(t))
    points = fixed_points_sphere(v)
    only_t = len(points) == 1 and np.abs(points[0] - t).max() <= 1e-6
    starts = sphere_points(generator(77), 1000)
    one_step_gap = float(np.abs(evaluate(v, starts) - t).max())
    ok = only_t and one_step_gap <= 1e-12
    _record(
        7,
        ok,
        f"{len(points)} sphere fixed point(s), one-step gap to t {one_step_gap:.2e}",
    )


def test_criterion_8_certificate_oracle_equivalence():
    # The q-purity verdict, the paper's equations (the reference) and the
    # Monte-Carlo oracle must agree on every map.
    passing = [induced_qmap(delta0()), induced_qmap(delta1((0, 0, 1)))]
    for axis, angle in (((0, 0, 1), 0.9), ((1, 1, 0), 2.2), ((1, -2, 3), 0.4)):
        passing.append(induced_qmap(linear_family(rotation_matrix(axis, angle) / 2.0)))
    crossed = 0
    for v in passing:
        verdict, (_, upper) = check_q_purity(v)
        reference = max(sphere_residuals_reference(v).values()) <= TOL_ALG
        dev, _ = monte_carlo_sphere(v, samples=100000, seed=42)
        crossed += int(not (verdict is True and reference and dev <= MC_PASS_DEVIATION and upper <= MC_PASS_DEVIATION))

    rng = generator(88)
    fields = ("a", "b", "c", "A", "Gamma")
    v0 = induced_qmap(delta0())
    for k in range(50):
        field = fields[int(rng.integers(len(fields)))]
        candidate = scaled(v0, field, float(rng.uniform(1.05, 1.5)))
        verdict, (lower, _) = check_q_purity(candidate)
        worst = max(sphere_residuals_reference(candidate).values())
        dev, _ = monte_carlo_sphere(candidate, samples=100000, seed=k)
        refuted = worst > MC_VIOLATION_DEVIATION and lower > MC_VIOLATION_DEVIATION
        crossed += int(not (verdict is False and refuted and dev > MC_VIOLATION_DEVIATION))
    ok = crossed == 0
    _record(8, ok, f"{crossed} crossed verdicts over 5 passing + 50 perturbed maps")


def test_criterion_9_representation_cross_check():
    rng = generator(99)
    worst = 0.0
    for _ in range(100):
        T = rng.standard_normal((3, 3, 3))
        d = DeltaCoefficients(T=0.5 * (T + T.transpose(1, 0, 2)))
        x = PauliElement(rng.normal(), rng.normal(size=3))
        gap = np.abs(apply_haar_closed_form(d, x) - apply(d, x)).max()
        worst = max(worst, float(gap))
    ok = worst <= 1e-12
    _record(9, ok, f"worst entrywise gap {worst:.2e} over 100 operators")
