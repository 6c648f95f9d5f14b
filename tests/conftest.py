import numpy as np
import pytest

from blochquad import DeltaCoefficients, QuadraticMapCoeffs, evaluate


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
    return DeltaCoefficients.trace_preserving(T=T)


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
