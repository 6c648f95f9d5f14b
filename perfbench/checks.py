"""Correctness checks for every benchmark operation.

Each check compares the program's output with truth the benchmark knows
from how the input was built (workloads.py) or recomputes with its own
numpy code.  Nothing is compared with saved program output, and witness
vectors are not pinned: any witness is accepted once its image is shown
to be non-positive.  A check returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np

import workloads

WITNESS_EIG = -1e-9
COLLAPSE_REL = 1e-9
COLLAPSE_FLOOR = 1e-290
# iterate() documents a flush to zero below 1e-300, but it tests
# np.linalg.norm(f), whose squares underflow once |f| < ~1.5e-154, so the
# program flushes there.  A zero row is accepted where the law is below
# this limit; every row the program does print must follow the law.  Zero
# rows where the law is still at or above DOCUMENTED_FLUSH are counted as
# flushed early, so the defect and its fix show in each run's record.
FLUSH_LIMIT = 1e-150
DOCUMENTED_FLUSH = 1e-300
SPHERE_ROWS = 20
SPHERE_DRIFT = 1e-6
FIXED_POINT_RESIDUAL = 1e-9
FIXED_POINT_SPHERE = 1e-6
LINEAR_ORBIT_REL = 1e-9


def coefficients(config: str) -> dict:
    return {k: np.asarray(v, dtype=float) for k, v in json.loads(config).items()}


def check_witness(c: dict, witness) -> str | None:
    """A witness must be a positive input 1 + w.sigma with a negative image."""
    if not isinstance(witness, dict) or "w" not in witness:
        return "non-positive verdict without a witness"
    w = np.asarray(witness["w"], dtype=float)
    if w.shape != (3,) or not np.all(np.isfinite(w)):
        return f"malformed witness {witness['w']!r}"
    if np.linalg.norm(w) > 1.0 + 1e-12:
        return f"witness |w| = {np.linalg.norm(w):.17g} exceeds 1"
    lowest = float(workloads.min_eigenvalues(c, w)[0])
    if not lowest < WITNESS_EIG:
        return f"witness image has smallest eigenvalue {lowest:.3e}, not below {WITNESS_EIG}"
    return None


def check_inspect(truth: dict, c: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"inspect exited {rc}"
    try:
        report = json.loads(out)
        positivity = report["positivity"]
        checks = [
            ("positivity verdict", positivity["verdict"], truth["positive"]),
            ("purity certificate", report["q_purity"]["certificate"]["verdict"], truth["pure"]),
            ("trace_preserving", report["trace_preserving"], True),
            ("symmetric", report["symmetric"], truth["symmetric"]),
            ("haar_trace", report["haar_trace"], truth["haar_trace"]),
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable inspect report: {exc!r}"
    for label, got, want in checks:
        if got is not want:
            return f"{label} is {got!r}, built to be {want!r}"
    if not truth["positive"]:
        return check_witness(c, positivity.get("witness"))
    return None


def check_certify(truth: dict, op: dict, rc: int, out: str) -> str | None:
    if op["command"] == "certify-purity":
        actual = "pure" if truth["pure"] else "impure"
    else:
        actual = "positive" if truth["positive"] else "nonpositive"
    want_rc = 0 if op["expect"] == actual else 2
    if rc != want_rc:
        return f"certify --expect {op['expect']} exited {rc}, expected {want_rc}"
    try:
        detail = json.loads(out)
        got = detail["actual"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable certify report: {exc!r}"
    if got != actual:
        return f"certify reports {got!r}, built to be {actual!r}"
    return None


def _orbit_rows(out: str) -> np.ndarray:
    lines = out.splitlines()
    if not lines or lines[0] != "n,f1,f2,f3,norm":
        raise ValueError("missing trajectory header")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != 5 or not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise ValueError("malformed trajectory rows")
    return rows[:, 1:4]


def check_simulate(truth: dict, c: dict, op: dict, rc: int, out: str, tally: dict | None = None) -> str | None:
    """Check one trajectory; tally, if given, counts rows flushed early."""
    if rc != 0:
        return f"simulate exited {rc}"
    try:
        points = _orbit_rows(out)
    except ValueError as exc:
        return f"unreadable trajectory: {exc}"
    f0 = np.asarray(op["f0"], dtype=float)
    if not np.array_equal(points[0], f0):
        return "trajectory does not start at --f0"
    # Scaled norms: squares of components near 1e-160 underflow.
    scale = np.abs(points).max(axis=1, keepdims=True)
    norms = scale[:, 0] * np.linalg.norm(points / np.where(scale > 0, scale, 1.0), axis=1)
    if truth.get("contraction"):
        # Linear map f -> (B1 + B2)^T f with |B1 + B2| < 1: compare with powers.
        S = c["B1"] + c["B2"]
        expected = f0.copy()
        for n in range(1, len(points)):
            expected = expected @ S
            if np.linalg.norm(points[n] - expected) > LINEAR_ORBIT_REL * np.linalg.norm(expected):
                return f"linear orbit row {n} is off the matrix power"
        return None
    if op["start"] == "sphere":
        head = norms[: SPHERE_ROWS + 1]
        if len(head) < SPHERE_ROWS + 1:
            return f"sphere orbit stopped after {len(points) - 1} steps"
        drift = float(np.abs(head - 1.0).max())
        if not drift <= SPHERE_DRIFT:
            return f"sphere orbit drifts {drift:.3e} within {SPHERE_ROWS} steps"
        return None
    r = float(np.linalg.norm(f0))
    for n, norm in enumerate(norms):
        predicted = r ** (2.0**n)
        if predicted < DOCUMENTED_FLUSH:
            break
        if norm == 0.0:
            if not predicted < FLUSH_LIMIT:
                return f"interior orbit flushed at row {n}, law gives {predicted:.17g}"
            if np.any(points[n:]):
                return f"interior orbit leaves zero after row {n}"
            if tally is not None:
                tally["early_flush_rows"] = tally.get("early_flush_rows", 0) + 1
            break
        if predicted >= COLLAPSE_FLOOR and not abs(norm - predicted) <= COLLAPSE_REL * predicted:
            return f"interior orbit row {n}: |f| = {norm:.17g}, law gives {predicted:.17g}"
    return None


def check_fixed_points(truth: dict, c: dict, points) -> str | None:
    points = [np.asarray(p, dtype=float) for p in points]
    for p in points:
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            return f"malformed fixed point {p!r}"
        if not abs(np.linalg.norm(p) - 1.0) <= FIXED_POINT_SPHERE:
            return f"fixed point {p.tolist()} is off the sphere"
        residual = float(np.linalg.norm(workloads.induced_map(c, p) - p))
        if not residual <= FIXED_POINT_RESIDUAL:
            return f"fixed point {p.tolist()} has residual {residual:.3e}"
    if truth.get("contraction") and points:
        return "a contraction has no fixed point on the sphere"
    if "fixed_point" in truth:
        t = np.asarray(truth["fixed_point"])
        if not any(np.linalg.norm(p - t) <= FIXED_POINT_SPHERE for p in points):
            return f"fixed point t = {truth['fixed_point']} not found"
    return None
