"""Quadratic maps of the Bloch ball in nine-vector coefficient form.

Component k of V(f) is

    a_k f1^2 + b_k f2^2 + c_k f3^2
        + A_k f1 f2 + B_k f2 f3 + Gamma_k f1 f3
        + d_k f1 + e_k f2 + g_k f3.

Evaluation never clamps to the ball; range checks belong to the purity
certifiers, which must be able to observe violations.

Map coefficients are admitted up to 2 * COEFFICIENT_LIMIT (2e150) in
magnitude, twice the operator bound because each map vector may sum two
operator blocks, so the largest product formed from them, |V(f)|^2 on the
sphere (about 1e303), stays below the double maximum of 1.8e308.  admit()
is the one admission of coefficient arrays: this module's map and
channel.DeltaCoefficients both take their fields through it, as does
cli.parse_config, which admits a config's 48 entries as one array, and
every refusal names the field.

Single-point evaluate() and every orbit step of dynamics.iterate() take
one step, the map's _step: the nine products summed left to right in row
order in Python floats, with no numpy call, so an orbit row is what
evaluate() gives and its rounding does not depend on a BLAS kernel.  A
batch takes one (n, 9) @ (9, 3) product.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .pauli import TOL_ALG, vector_norm

_FIELDS = ("a", "b", "c", "A", "B", "Gamma", "d", "e", "g")

COEFFICIENT_LIMIT = 1e150


# Array kinds whose entries are real numbers: bool, signed and unsigned integers, floats.
_REAL_KINDS = "biuf"


def admit(fields: tuple, values, limit: float) -> np.ndarray:
    """One read-only flat float copy of values, end to end; fields holds a (name, shape) pair per value.

    A value of None is zeros.  Each value must be an array, or nested
    lists, of real numbers in its shape with every |x| <= limit, which
    refuses NaN and +-inf as well; complex values and strings (also numeric
    ones) are refused rather than converted.  The fields are checked in
    order: the first offending one raises ValueError "<name>: ...".  A value
    is converted once, by np.asarray without a dtype; the one float copy is
    the concatenation.
    """
    arrays = []
    for (name, shape), value in zip(fields, values):
        try:
            array = np.zeros(shape) if value is None else np.asarray(value)
            if array.dtype.kind == "O" and all(isinstance(x, numbers.Real) for x in array.flat):
                array = array.astype(float)  # Python integers beyond 64 bits, fractions
        except (TypeError, ValueError, OverflowError) as exc:  # ragged, or an integer beyond the double range
            raise ValueError(f"{name}: expected numbers in shape {shape}: {exc}") from None
        if array.dtype.kind not in _REAL_KINDS:
            raise ValueError(f"{name}: expected real numbers, got {array.dtype} entries")
        if array.shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {array.shape}")
        if not float(np.abs(array).max()) <= limit:  # compared as a double, not cast to float32; a NaN fails too
            raise ValueError(
                f"{name}: entries must be numbers of magnitude at most {limit:g}, "
                "or their products overflow double precision"
            )
        arrays.append(array)
    flat = np.concatenate(arrays, axis=None, dtype=float)
    flat.setflags(write=False)
    return flat


_MAP_LIMIT = 2.0 * COEFFICIENT_LIMIT
_ROW_FIELDS = tuple((name, (3,)) for name in _FIELDS)

# d2V/df_m df_j as coefficient vectors, m-major: 2a, A, Gamma / A, 2b, B / Gamma, B, 2c.
_HESSIAN_ROWS = np.array([0, 3, 5, 3, 1, 4, 5, 4, 2])
_HESSIAN_WEIGHTS = np.array([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0])[:, None]


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself, hashed by identity
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

    def __init__(self, a=None, b=None, c=None, A=None, B=None, Gamma=None, d=None, e=None, g=None):
        self._take_rows(admit(_ROW_FIELDS, (a, b, c, A, B, Gamma, d, e, g), _MAP_LIMIT).reshape(9, 3))

    def _take_rows(self, rows: np.ndarray) -> None:
        fields = vars(self)  # written directly, as the instance is frozen
        fields.update(zip(_FIELDS, rows))
        fields["_rows"] = rows

    @classmethod
    def _from_admitted_rows(cls, rows: np.ndarray) -> "QuadraticMapCoeffs":
        """The map whose coefficient rows are rows, a fresh read-only (9, 3) float array, without the bound check.

        For rows admitted by construction: each entry a sum of at most two
        entries of blocks admitted up to COEFFICIENT_LIMIT, so at most
        2 * COEFFICIENT_LIMIT = _MAP_LIMIT in magnitude.  The map takes rows
        as its own, and its fields are row views of it, as with the public
        constructor.
        """
        v = object.__new__(cls)
        v._take_rows(rows)
        return v

    def coefficient_rows(self) -> np.ndarray:
        """The read-only 9x3 stack of coefficient vectors, row order as in _FIELDS.

        Admitted once with the instance, whose fields are its rows; every
        evaluate() call reads it.
        """
        return self._rows

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """The read-only 9x9 Gram matrix rows @ rows.T of the coefficient vectors.

        Built on the first read and kept with the instance.  Each entry is
        the per-pair product x @ y bit for bit (tests/test_purity.py holds
        each entry to it); a Python sum x0*y0 + x1*y1 + x2*y2 is not, as the
        BLAS kernels fuse multiply-adds.
        """
        gram = self._rows @ self._rows.T
        gram.setflags(write=False)
        return gram

    @functools.cached_property
    def _hessian(self) -> np.ndarray:
        """The read-only 3x9 table with _hessian[m, 3 i + j] = d2 V_i / df_m df_j.

        Built on the first jacobian() call, so f @ _hessian + _linear is the
        Jacobian at f flattened row-major; its transpose, a (9, 3) view, is
        the table of the batch product.
        """
        rows = self._rows
        hessian = (rows[_HESSIAN_ROWS] * _HESSIAN_WEIGHTS).reshape(3, 3, 3).transpose(0, 2, 1).reshape(3, 9)
        hessian.setflags(write=False)
        return hessian

    @functools.cached_property
    def _step(self):
        """V at one point (f1, f2, f3) of Python floats, as a tuple of three Python floats.

        Built on the first read and kept with the instance: a closure over
        the 27 coefficients as Python floats.  Component k is

            0.0 + f1*f1 * a_k + f2*f2 * b_k + f3*f3 * c_k + f1*f2 * A_k
                + f2*f3 * B_k + f1*f3 * Gamma_k + f1 * d_k + f2 * e_k + f3 * g_k

        summed left to right, in row order.  Each feature and each product is
        rounded once, as numpy rounds them, so a term carries at most two
        roundings (the quadratic ones) and eight more from the sums: short of
        underflow, each component is within gamma_10 * sum_k |x_k c_k| of the
        exact value (Higham, Accuracy and Stability, 3.1), where
        gamma_10 = 10u / (1 - 10u) and x_k are the exact features.  The sum
        starts from +0.0, which leaves every other value exact and turns a
        sum of nine -0.0 products into +0.0, as numpy's dot gives it.  The
        step makes no numpy call: an orbit step is a few dozen float
        operations, which numpy's per-call dispatch would cost several times
        over, and a plain-float overflow gives inf or nan without a warning,
        for the caller's finiteness test to catch.
        """
        a1, a2, a3, b1, b2, b3, c1, c2, c3, A1, A2, A3, B1, B2, B3, G1, G2, G3, d1, d2, d3, e1, e2, e3, g1, g2, g3 = self._rows.ravel().tolist()

        def step(f1: float, f2: float, f3: float) -> tuple:
            s11, s22, s33, s12, s23, s13 = f1 * f1, f2 * f2, f3 * f3, f1 * f2, f2 * f3, f1 * f3
            return (
                0.0 + s11 * a1 + s22 * b1 + s33 * c1 + s12 * A1 + s23 * B1 + s13 * G1 + f1 * d1 + f2 * e1 + f3 * g1,
                0.0 + s11 * a2 + s22 * b2 + s33 * c2 + s12 * A2 + s23 * B2 + s13 * G2 + f1 * d2 + f2 * e2 + f3 * g2,
                0.0 + s11 * a3 + s22 * b3 + s33 * c3 + s12 * A3 + s23 * B3 + s13 * G3 + f1 * d3 + f2 * e3 + f3 * g3,
            )

        return step

    @functools.cached_property
    def _linear(self) -> np.ndarray:
        """The read-only (9,) linear part of the Jacobian, row-major: _linear[3 i + j] = dV_i/df_j at 0."""
        linear = self._rows[6:].T.ravel()
        linear.setflags(write=False)
        return linear


_LEFT = np.array([0, 1, 2, 0, 1, 0])
_RIGHT = np.array([0, 1, 2, 1, 2, 2])


def _features(f: np.ndarray) -> np.ndarray:
    """(f1^2, f2^2, f3^2, f1 f2, f2 f3, f1 f3, f1, f2, f3) along the last axis."""
    return np.concatenate([f[..., _LEFT] * f[..., _RIGHT], f], axis=-1)


def _feature_rows(x: np.ndarray) -> np.ndarray:
    """The nine features of the columns of x (3, n) as the rows of a C-contiguous (9, n) array.

    Formed from row products, each rounded as _features rounds it.
    """
    features = np.empty((9, x.shape[1]))
    np.multiply(x, x, out=features[0:3])
    np.multiply(x[0:2], x[1:3], out=features[3:5])
    np.multiply(x[0], x[2], out=features[5])
    features[6:] = x
    return features


def evaluate(v: QuadraticMapCoeffs, f) -> np.ndarray:
    """V(f); broadcasts over a leading batch of input vectors.

    One point, shape (3,), takes the map's fixed-order step (v._step), the
    one every dynamics.iterate() step takes, so an orbit row is what
    evaluate() gives that point.  A batch takes one (n, 9) @ (9, 3)
    product, whose BLAS kernel may round the same point differently in the
    last bits; an orbit steps one point at a time, so its rows do not
    depend on how the batch product rounds.
    """
    f = np.asarray(f, dtype=float)
    if f.shape == (3,):
        return np.array(v._step(*f.tolist()))
    return _features(f) @ v.coefficient_rows()


def is_haar_form(v: QuadraticMapCoeffs) -> bool:
    """True when the map has no linear terms: |d|, |e| and |g| are each at most TOL_ALG."""
    return all(vector_norm(vec) <= TOL_ALG for vec in (v.d, v.e, v.g))


def jacobian(v: QuadraticMapCoeffs, f) -> np.ndarray:
    """dV/df at f, entry [..., i, j] = dV_i/df_j; broadcasts over a leading batch.

    Column j is the sum over m of f_m d2V/df_m df_j plus the coefficients
    (d, e, g)[j]: one product with the Hessian table of v.  One point,
    also a one-row batch, takes the (3,) @ (3, 9) vector-matrix product:
    unlike evaluate(), it has no plain-float step, as no orbit step takes
    it and the fixed-point search takes it in batches.  A batch of n >= 2 points
    takes one (9, 3) @ (3, n) product into a C-contiguous (9, n) buffer and
    returns a view of it, so jacobian(v, x.T).reshape(-1, 9).T reads the
    nine entries as contiguous rows of length n without a copy.  Both
    products give the same bits as the (n, 3) @ (3, 9) product.
    """
    f = np.asarray(f, dtype=float)
    if f.size == 3:
        return (f @ v._hessian + v._linear).reshape(f.shape[:-1] + (3, 3))
    entries = v._hessian.T @ f.reshape(-1, 3).T
    entries += v._linear[:, None]
    return entries.T.reshape(f.shape[:-1] + (3, 3))
