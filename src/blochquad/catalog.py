"""Built-in benchmark operators.

Entries are generated programmatically so the defining coefficients sit
next to their construction; all are unital, *-preserving, trace-preserving
and symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DeltaCoefficients
from .pauli import TOL_STATE, vector_norm


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    delta: DeltaCoefficients
    notes: str


def delta0() -> DeltaCoefficients:
    """Sphere-preserving bilinear operator with chaotic circle dynamics.

    Image of w0*1 + w.sigma:
        w0*1(x)1 + w1 (s1(x)s2 + s2(x)s1) + w2 (s1(x)s1 - s2(x)s2 - s3(x)s3)
                 + w3 (s1(x)s3 + s3(x)s1),
    inducing the Bloch map (2 f1 f2, f1^2 - f2^2 - f3^2, 2 f1 f3).
    """
    T = np.zeros((3, 3, 3))
    T[0, 1, 0] = T[1, 0, 0] = 1.0
    T[0, 0, 1] = 1.0
    T[1, 1, 1] = T[2, 2, 1] = -1.0
    T[0, 2, 2] = T[2, 0, 2] = 1.0
    return DeltaCoefficients(T=T)


def delta1(t) -> DeltaCoefficients:
    """Rank-one bilinear operator sending the whole sphere to the point t.

    Image of w0*1 + w.sigma is w0*1(x)1 + <t,w> sum_m s_m(x)s_m; the
    induced Bloch map is f -> t * |f|^2.  Requires |t| = 1.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (3,):
        raise ValueError("t must be a 3-vector")
    norm = vector_norm(t)
    if abs(norm - 1.0) > TOL_STATE:
        raise ValueError(f"t must be a unit vector, got norm {norm}")
    T = np.zeros((3, 3, 3))
    for m in range(3):
        T[m, m, :] = t
    return DeltaCoefficients(T=T)


def linear_family(B) -> DeltaCoefficients:
    """Purely linear operator x -> w0*1(x)1 + Bw.sigma(x)1 + 1(x)Bw.sigma."""
    B = np.asarray(B, dtype=float)
    return DeltaCoefficients(B1=B, B2=B)


def entries() -> list:
    """The named entries served by the command-line catalog."""
    return [
        CatalogEntry(
            name="delta0",
            delta=delta0(),
            notes=(
                "Bilinear operator inducing (2 f1 f2, f1^2 - f2^2 - f3^2, 2 f1 f3); "
                "sphere-preserving, not positive, chaotic on the f3 = 0 circle."
            ),
        ),
        CatalogEntry(
            name="delta1",
            delta=delta1((0.0, 0.0, 1.0)),
            notes=(
                "Rank-one bilinear operator with t = (0, 0, 1); induced map "
                "f -> t |f|^2 sends the sphere to the single point t."
            ),
        ),
        CatalogEntry(
            name="linear",
            delta=linear_family(np.eye(3) / 2.0),
            notes=(
                "Purely linear operator with block B = I/2; 2B is an isometry, "
                "so it is sphere-preserving and positive."
            ),
        ),
    ]


def get(name: str) -> CatalogEntry:
    for entry in entries():
        if entry.name == name:
            return entry
    raise KeyError(name)
