"""Trace preservation, symmetry and the Haar trace, decided on the coefficient blocks.

Each check compares the Frobenius norm of a block residual with tol times
the Frobenius norm of all 48 entries.  Here: the exact proof that the block
residuals have the kernels of the image-side definitions (tensor swap and
partial traces of the basis images), the reproducers an absolute tolerance
got wrong, and the invariance of every verdict under scale and frame.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from blochquad import DeltaCoefficients, has_haar_trace, is_symmetric, is_trace_preserving
from blochquad.channel import basis_images
from blochquad.pauli import BASIS, TOL_ALG
from blochquad.qmap import COEFFICIENT_LIMIT
from algebra_reference import partial_trace_left, partial_trace_right, swap_conjugate
from conftest import delta_from_entries, golden_operators, random_delta, rotate_delta, rotation_matrix

EPS = float(np.finfo(float).eps)
CHECKS = {"trace_preserving": is_trace_preserving, "symmetric": is_symmetric, "haar_trace": has_haar_trace}


def residual_blocks(d):
    """The residual of each check, as the blocks whose Frobenius norm it compares."""
    return {
        "trace_preserving": [d.b],
        "symmetric": [d.B1 - d.B2, d.T - d.T.transpose(1, 0, 2)],
        "haar_trace": [d.b, d.B1, d.B2],
    }


def verdicts(d, tol=TOL_ALG):
    return tuple(check(d, tol=tol) for check in CHECKS.values())


def su2(axis, angle):
    """exp(-i angle n.sigma / 2): conjugation by it rotates Bloch vectors by rotation_matrix(axis, angle)."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * np.tensordot(n, np.array(BASIS[1:]), axes=1)


def test_rotate_delta_conjugates_the_images_by_u_kron_u(rng):
    for _ in range(20):
        axis, angle = rng.normal(size=3), rng.uniform(0.0, 2.0 * math.pi)
        R, U = rotation_matrix(axis, angle), su2(axis, angle)
        for j in range(3):
            assert np.abs(U @ BASIS[j + 1] @ U.conj().T - np.tensordot(R[:, j], np.array(BASIS[1:]), axes=1)).max() < 1e-14
        d = random_delta(rng, trace_preserving=False)
        UU = np.kron(U, U)
        expected = UU @ np.tensordot(R, basis_images(d), axes=1) @ UU.conj().T
        scale = 1.0 + np.abs(d._entries).sum()
        assert np.abs(basis_images(rotate_delta(d, R)) - expected).max() <= 64 * EPS * scale


# The image-side definitions as linear maps on the 48 unit operators, in exact
# arithmetic.  A unit operator's basis images have entries in {0, +-1, +-i},
# so the swap residual's and both partial traces' real and imaginary parts
# are small integers, and Fraction holds them exactly.  A map K is kept as
# its columns, each a dict row -> (real part, imaginary part).

UNIT_IMAGES = [basis_images(delta_from_entries(np.eye(48)[k])) for k in range(48)]


def exact_map(image_map):
    columns = []
    for images in UNIT_IMAGES:
        values = np.concatenate([np.ravel(m) for m in image_map(images)]).tolist()
        columns.append({r: (Fraction(z.real), Fraction(z.imag)) for r, z in enumerate(values) if z != 0})
    return len(values), columns


def gram(columns):
    """K^H K as its real and imaginary parts."""
    real = [[sum((a[0] * b[r][0] + a[1] * b[r][1] for r, a in ca.items() if r in b), Fraction(0)) for b in columns] for ca in columns]
    imag = [[sum((a[0] * b[r][1] - a[1] * b[r][0] for r, a in ca.items() if r in b), Fraction(0)) for b in columns] for ca in columns]
    return real, imag


def rank(rows):
    rows, r = [list(row) for row in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def entry_swap():
    """The permutation of the 48 entries that swaps B1 with B2 and T[m, l, i] with T[l, m, i]."""
    swap = list(range(48))
    for j in range(3):
        for i in range(3):
            swap[3 + 3 * j + i], swap[12 + 3 * j + i] = 12 + 3 * j + i, 3 + 3 * j + i
    for m in range(3):
        for l in range(3):
            for i in range(3):
                swap[21 + 9 * m + 3 * l + i] = 21 + 9 * l + 3 * m + i
    return swap


def test_the_image_side_definitions_have_the_kernels_of_the_block_residuals():
    # symmetry: K x = (U Delta(sigma_i) U - Delta(sigma_i))_i, 48 complex rows
    rows, columns = exact_map(lambda images: [swap_conjugate(m) - m for m in images])
    assert rows == 48 and {x for c in columns for z in c.values() for x in z} <= {-2, -1, 0, 1, 2}
    real, imag = gram(columns)
    swap = entry_swap()
    # P = (1 - S) / 2, S the entry swap: the orthogonal projector onto the block residual (B1 - B2, T - T^swap)
    P = [[(Fraction(k == c) - Fraction(swap[k] == c)) / 2 for c in range(48)] for k in range(48)]
    assert all(P[k][c] == P[c][k] == sum(P[k][j] * P[j][c] for j in range(48)) for k in range(48) for c in range(48))
    assert real == [[16 * x for x in row] for row in P] and not any(map(any, imag))
    assert sum(P[k][k] for k in range(48)) == 18  # rank K = rank K^H K = rank P = trace P
    # Haar trace: K x = (both normalized partial traces of Delta(sigma_i))_i, 24 complex rows
    rows, columns = exact_map(lambda images: [f(m) for m in images for f in (partial_trace_right, partial_trace_left)])
    assert rows == 24 and {x for c in columns for z in c.values() for x in z} <= {-2, -1, 0, 1, 2}
    real, imag = gram(columns)
    assert not any(map(any, imag))
    # T's 27 entries map to 0, and K is injective on (b, B1, B2): its kernel is b = B1 = B2 = 0
    assert not any(columns[21:]) and rank(row[:21] for row in real[:21]) == 21


def motivation_reproducers():
    """(check, operator) pairs that an absolute tolerance passed, though each residual is of the order of the entries."""
    T = np.random.default_rng(3).normal(size=(3, 3, 3))
    small_linear = DeltaCoefficients(B1=1e-10 * np.eye(3))
    return [
        ("symmetric", DeltaCoefficients(T=1e-10 * T)),
        ("symmetric", DeltaCoefficients(T=1e-160 * T)),
        ("symmetric", small_linear),
        ("haar_trace", small_linear),
        ("trace_preserving", DeltaCoefficients(b=(1e-10, 0.0, 0.0))),
    ]


@pytest.mark.parametrize("check, d", motivation_reproducers())
def test_a_residual_at_the_scale_of_the_entries_fails_at_every_scale(check, d):
    assert CHECKS[check](d) is False


def test_the_zero_operator_passes_every_check():
    for d in (DeltaCoefficients(), delta_from_entries(np.full(48, -0.0))):
        assert verdicts(d) == (True, True, True)
        assert verdicts(d, tol=0.0) == (True, True, True)


def test_verdicts_are_the_same_under_every_power_of_two_scaling(rng):
    # 2^k x is exact while every entry and residual entry, and tol times the
    # norm of the entries, stays a normal number: so are both norms and the product
    cases = golden_operators() + [d for _, d in motivation_reproducers()]
    cases += [random_delta(rng, symmetric=bool(rng.integers(2)), haar=bool(rng.integers(2))) for _ in range(4)]
    for d in cases:
        x = d._entries
        values = np.abs(np.concatenate([x] + [b.ravel() for blocks in residual_blocks(d).values() for b in blocks]))
        k_max = math.floor(math.log2(COEFFICIENT_LIMIT) - math.log2(np.abs(x).max()))
        k_min = math.ceil(math.log2(np.finfo(float).tiny) - math.log2(TOL_ALG * values[values > 0].min()))
        expected = verdicts(d)
        for k in range(k_min, k_max + 1):
            assert verdicts(delta_from_entries(np.ldexp(x, k))) == expected, k


def near_threshold_operators(rng):
    """For each check, operators whose residual is a fraction of their entries' norm drawn around TOL_ALG."""
    cases = []
    for factor in (0.5, 0.99, 0.999, 1.001, 1.01, 2.0):
        for _ in range(2):
            t = factor * TOL_ALG
            T, B = rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3))
            size = math.sqrt(2.0 * (B**2).sum() + (T**2).sum())
            u = rng.normal(size=3)
            cases.append(("trace_preserving", DeltaCoefficients(b=t * size * u / np.linalg.norm(u), B1=B, B2=B, T=T)))
            E, F = rng.normal(size=(3, 3)), rng.normal(size=(3, 3, 3))
            sym = 0.5 * (T + T.transpose(1, 0, 2))
            size = math.sqrt(2.0 * (B**2).sum() + (sym**2).sum())
            r = t * size / math.hypot(np.linalg.norm(E), np.linalg.norm(F - F.transpose(1, 0, 2)))
            cases.append(("symmetric", DeltaCoefficients(B1=B, B2=B + r * E, T=sym + r * F)))
            size = np.linalg.norm(T)
            b, B1, B2 = rng.normal(size=3), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
            r = t * size / math.sqrt((b**2).sum() + (B1**2).sum() + (B2**2).sum())
            cases.append(("haar_trace", DeltaCoefficients(b=r * b, B1=r * B1, B2=r * B2, T=T)))
    return cases


def test_verdicts_do_not_depend_on_frame_or_scale(rng):
    # A rotated entry is a sum of at most 27 products of four factors, whose
    # coefficient rows (rows of R (x) R (x) R) are unit vectors: it is off by
    # at most 30 eps times its block's norm, so the 48 entries by less than
    # 30 sqrt(48) eps < 256 eps times the norm of all of them.  R is
    # orthogonal to a few eps, a scale rounds each entry by eps, the residual
    # maps have norm at most 2, and both norms and the product with tol round
    # by a few eps: the residual, as a fraction of the entries' norm, moves by
    # less than the allowance below.
    allowance = 1024 * EPS + 8 * EPS * TOL_ALG
    rotations = [rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(20)]
    scales = (1e-150, 2.5e-37, 1.0, 3e40, 1e140)
    decided = set()
    for name, d in near_threshold_operators(rng):
        fraction = math.hypot(*np.concatenate([b.ravel() for b in residual_blocks(d)[name]])) / math.hypot(*d._entries)
        assert 0.4 * TOL_ALG < fraction < 2.5 * TOL_ALG
        if abs(fraction - TOL_ALG) <= allowance:
            continue
        verdict = CHECKS[name](d)
        for s in scales:
            scaled = delta_from_entries(s * d._entries)
            for R in rotations:
                assert CHECKS[name](rotate_delta(scaled, R)) == verdict, (name, fraction, s)
        decided.add((name, verdict))
    assert decided == {(name, verdict) for name in CHECKS for verdict in (True, False)}
