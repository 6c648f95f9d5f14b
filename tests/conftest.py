import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from blochquad import DeltaCoefficients, QuadraticMapCoeffs, evaluate
from blochquad.cli import load_config
from blochquad.positivity import FACES, ICOSAHEDRON


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_delta(rng, symmetric=False, haar=False, trace_preserving=True):
    """Random coefficient blocks at unit scale."""
    T = rng.normal(size=(3, 3, 3))
    if symmetric:
        T = 0.5 * (T + T.transpose(1, 0, 2))
    B1 = np.zeros((3, 3)) if haar else rng.normal(size=(3, 3))
    B2 = B1 if symmetric else (np.zeros((3, 3)) if haar else rng.normal(size=(3, 3)))
    b = None if trace_preserving else rng.normal(size=3)
    return DeltaCoefficients(b=b, B1=B1, B2=B2, T=T)


def golden_operators():
    """The operators of every golden config, in file name order."""
    golden = Path(__file__).parent / "golden"
    return [load_config(str(path)) for path in sorted(golden.glob("*.json")) if path.name != "status.json"]


def delta_from_entries(x):
    """The operator whose 48 entries are x: b, B1, B2 and T, each block row-major, in that order."""
    x = np.asarray(x, dtype=float)
    return DeltaCoefficients(b=x[:3], B1=x[3:12].reshape(3, 3), B2=x[12:21].reshape(3, 3), T=x[21:].reshape(3, 3, 3))


def rotate_delta(d, R):
    """The operator d read in the frame rotated by R: b -> R b, B -> R B R', T -> (R (x) R (x) R) T.

    Its basis image Delta'(sigma_i) is (U (x) U) (sum_j R[i, j] Delta(sigma_j)) (U (x) U)^H
    for the U in SU(2) with U sigma_j U^H = sum_k R[k, j] sigma_k.
    """
    R = np.asarray(R, dtype=float)
    return DeltaCoefficients(
        b=R @ d.b,
        B1=R @ d.B1 @ R.T,
        B2=R @ d.B2 @ R.T,
        T=np.einsum("ma,lb,ic,abc->mli", R, R, R, d.T),
    )


def rescaled(d, factor):
    """The operator whose 48 entries are d's times factor."""
    return DeltaCoefficients(b=d.b * factor, B1=d.B1 * factor, B2=d.B2 * factor, T=d.T * factor)


def delta_from_qmap(v):
    """Symmetric operator without linear blocks whose induced map is v.

    Only valid for maps without linear terms; cross vectors are split
    evenly between the two tensor slots.
    """
    T = np.zeros((3, 3, 3))
    T[0, 0] = v.a
    T[1, 1] = v.b
    T[2, 2] = v.c
    T[0, 1] = T[1, 0] = v.A / 2.0
    T[1, 2] = T[2, 1] = v.B / 2.0
    T[0, 2] = T[2, 0] = v.Gamma / 2.0
    return DeltaCoefficients(T=T)


def rotation_matrix(axis, angle):
    """Rodrigues rotation about `axis` by `angle`."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


rotations = st.builds(
    rotation_matrix,
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda axis: np.linalg.norm(axis) > 0.1),
    st.floats(0.0, 2.0 * math.pi),
)


def admission_bound_config(pattern):
    """Operator config with every entry at +-1e150, the largest admitted magnitude.

    pattern "plus" or "minus" gives every entry that sign, "random" seeded signs.
    """
    shapes = {"b": (3,), "B1": (3, 3), "B2": (3, 3), "T": (3, 3, 3)}
    rng = np.random.default_rng(7)
    config = {}
    for name, shape in shapes.items():
        if pattern == "random":
            signs = rng.choice([-1.0, 1.0], size=shape)
        else:
            signs = np.full(shape, 1.0 if pattern == "plus" else -1.0)
        config[name] = (1e150 * signs).tolist()
    return config


def conjugate_qmap(v, R):
    """Coefficients of f -> R^T V(R f) for a map without linear terms."""
    R = np.asarray(R, dtype=float)
    return rotate_qmap(v, R.T, R)


def rotate_qmap(v, R1, R2):
    """Coefficients of f -> R1 V(R2 f) for a map without linear terms.

    Coefficient vectors are extracted from evaluations at basis points,
    which pins a homogeneous quadratic uniquely.
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)

    def image(f):
        return R1 @ evaluate(v, R2 @ np.asarray(f, dtype=float))

    e1, e2, e3 = np.eye(3)
    a, b, c = image(e1), image(e2), image(e3)
    return QuadraticMapCoeffs(
        a=a,
        b=b,
        c=c,
        A=image(e1 + e2) - a - b,
        B=image(e2 + e3) - b - c,
        Gamma=image(e1 + e3) - a - c,
    )


def sphere_faces():
    """The icosahedron's vertices and all 20 of its faces: each face of FACES and its antipode."""
    antipode = np.abs(ICOSAHEDRON[:, None] + ICOSAHEDRON[None]).sum(axis=2).argmin(axis=1)
    return ICOSAHEDRON, np.vstack([FACES, antipode[FACES]])
