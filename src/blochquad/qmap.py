"""Quadratic maps of the Bloch ball in nine-vector coefficient form.

Component k of V(f) is

    a_k f1^2 + b_k f2^2 + c_k f3^2
        + A_k f1 f2 + B_k f2 f3 + Gamma_k f1 f3
        + d_k f1 + e_k f2 + g_k f3.

Evaluation never clamps to the ball; range checks belong to the purity
certifiers, which must be able to observe violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import TOL_ALG

_FIELDS = ("a", "b", "c", "A", "B", "Gamma", "d", "e", "g")


def _real_vector3(value, name: str) -> np.ndarray:
    if value is None:
        arr = np.zeros(3)
    else:
        arr = np.array(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name}: expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadraticMapCoeffs:
    """Coefficient vectors in the fixed order (a, b, c, A, B, Gamma, d, e, g)."""

    a: np.ndarray = None
    b: np.ndarray = None
    c: np.ndarray = None
    A: np.ndarray = None
    B: np.ndarray = None
    Gamma: np.ndarray = None
    d: np.ndarray = None
    e: np.ndarray = None
    g: np.ndarray = None

    def __post_init__(self):
        for name in _FIELDS:
            object.__setattr__(self, name, _real_vector3(getattr(self, name), name))
        rows = np.stack([getattr(self, name) for name in _FIELDS])
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)

    def coefficient_rows(self) -> np.ndarray:
        """The read-only 9x3 stack of coefficient vectors, row order as in _FIELDS.

        Built once with the instance; every evaluate() call reads it.
        """
        return self._rows


def _features(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    f1, f2, f3 = f[..., 0], f[..., 1], f[..., 2]
    return np.stack(
        [f1 * f1, f2 * f2, f3 * f3, f1 * f2, f2 * f3, f1 * f3, f1, f2, f3],
        axis=-1,
    )


def evaluate(v: QuadraticMapCoeffs, f) -> np.ndarray:
    """V(f); broadcasts over a leading batch of input vectors."""
    return _features(f) @ v.coefficient_rows()


def homogeneous_part(v: QuadraticMapCoeffs) -> QuadraticMapCoeffs:
    """The degree-2 terms alone."""
    return QuadraticMapCoeffs(a=v.a, b=v.b, c=v.c, A=v.A, B=v.B, Gamma=v.Gamma)


def linear_part(v: QuadraticMapCoeffs) -> np.ndarray:
    """3x3 matrix L with L @ f = degree-1 terms of V(f)."""
    return np.column_stack([v.d, v.e, v.g])


def is_haar_form(v: QuadraticMapCoeffs, tol: float = TOL_ALG) -> bool:
    """True when the map has no linear terms (d = e = g = 0)."""
    return all(np.linalg.norm(vec) <= tol for vec in (v.d, v.e, v.g))


def jacobian(v: QuadraticMapCoeffs, f) -> np.ndarray:
    """dV/df at f; broadcasts over a leading batch."""
    f = np.asarray(f, dtype=float)
    f1, f2, f3 = f[..., 0:1], f[..., 1:2], f[..., 2:3]
    col1 = 2.0 * f1 * v.a + f2 * v.A + f3 * v.Gamma + v.d
    col2 = 2.0 * f2 * v.b + f1 * v.A + f3 * v.B + v.e
    col3 = 2.0 * f3 * v.c + f2 * v.B + f1 * v.Gamma + v.g
    return np.stack([col1, col2, col3], axis=-1)
