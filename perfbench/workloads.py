"""Seeded inputs and their ground truth for the blochquad benchmark.

Everything here is numpy only and never imports blochquad, so the inputs
for a seed are the same at every commit of the program.  Each operator
carries the truth that follows from how it was built (positive, pure,
symmetric, trace state); the generator asserts that truth with its own
linear algebra before it writes anything.

Operators use the program's config convention: b[i] is the weight of
1(x)1, B1[j, i] of 1(x)sigma_j, B2[j, i] of sigma_j(x)1 and T[m, l, i] of
sigma_m(x)sigma_l in the image of sigma_i.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("oracle-scan", "probe-screen", "orbits")

PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# KRON[m, l] = sigma_m (x) sigma_l with sigma_0 = 1.
KRON = np.array([[np.kron(PAULI[m], PAULI[l]) for l in range(4)] for m in range(4)])

# Kind cycles are fixed, and a run measures whole cycles of operations
# (run.py), so every run, whatever its seed and however fast the program,
# sees the same mix of slow and fast operations; the seed only varies the
# coefficients.  The non-positive operator leads its cycle, so even a short
# traced run covers the sphere-witness path.
ORACLE_CYCLE = (
    "linear-nonpositive",
    "catalog-linear",
    "linear-positive",
    "bilinear-positive",
)
PROBE_OPERATORS = (
    "general",
    "symmetric",
    "linear-free",
    "delta0",
    "delta0-rotated",
    "delta1",
    "delta1-rotated",
)
# Seven inspects in ten keep op_p50_ms and op_p90_ms inside the inspect
# latencies, away from the much cheaper certify commands.
PROBE_COMMANDS = (
    "inspect",
    "inspect",
    "certify-purity",
    "inspect",
    "inspect",
    "certify-positivity",
    "inspect",
    "inspect",
    "certify-purity",
    "inspect",
)
ORBIT_MAPS = (
    "delta0",
    "delta0-rotated",
    "delta1-rotated",
    "delta0-rotated",
    "linear-contraction",
)
# Per map: one fixed-point search, then two sphere and two interior starts.
# Interior orbits of pure maps flush after about ten steps, so in sorted
# order the ops fall into fast simulates (<= 32%), 51-row simulates and
# fixed-point searches (the top 20%): op_p50_ms reads a 51-row simulate and
# op_p90_ms a fixed-point search.
ORBIT_OPS = ("fixed-points", "sphere", "interior", "sphere", "interior")

# Operations per cycle, and per workload (a whole number of cycles).
CYCLE = {
    "oracle-scan": len(ORACLE_CYCLE),
    "probe-screen": math.lcm(len(PROBE_OPERATORS), len(PROBE_COMMANDS)),
    "orbits": len(ORBIT_MAPS) * len(ORBIT_OPS),
}
OP_COUNTS = {"oracle-scan": 60, "probe-screen": 280, "orbits": 500}
FIXED_POINT_GRID = 32
POSITIVE_BOUND = 0.9  # sum_i ||Delta(sigma_i)||_op for bilinear-positive


# ------------------------------------------------------------ linear algebra


def zero_operator() -> dict:
    return {"b": np.zeros(3), "B1": np.zeros((3, 3)), "B2": np.zeros((3, 3)), "T": np.zeros((3, 3, 3))}


def basis_images(c: dict) -> np.ndarray:
    """Delta(sigma_i) for i = 1..3, shape (3, 4, 4), from Kronecker products."""
    coef = np.zeros((3, 4, 4))
    coef[:, 0, 0] = c["b"]
    coef[:, 0, 1:] = np.asarray(c["B1"]).T
    coef[:, 1:, 0] = np.asarray(c["B2"]).T
    coef[:, 1:, 1:] = np.asarray(c["T"]).transpose(2, 0, 1)
    return np.einsum("iml,mlab->iab", coef, KRON)


def min_eigenvalues(c: dict, W) -> np.ndarray:
    """Smallest eigenvalue of Delta(1 + w.sigma) for each row w of W."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    images = np.eye(4) + np.tensordot(W, basis_images(c), axes=1)
    return np.linalg.eigvalsh(images)[:, 0]


def induced_map(c: dict, f) -> np.ndarray:
    """V(f)_k = sum_j (B1 + B2)[j, k] f_j + sum_{m,l} T[m, l, k] f_m f_l."""
    f = np.asarray(f, dtype=float)
    S = np.asarray(c["B1"]) + np.asarray(c["B2"])
    return f @ S + np.einsum("mlk,...m,...l->...k", np.asarray(c["T"]), f, f)


def op_norm_sum(c: dict) -> float:
    """sum_i ||Delta(sigma_i)||_op; below 1 it proves positivity by Weyl's bound."""
    return float(sum(np.abs(np.linalg.eigvalsh(m)).max() for m in basis_images(c)))


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def unit_vector(rng) -> np.ndarray:
    g = rng.standard_normal(3)
    return g / np.linalg.norm(g)


def rotate(c: dict, R: np.ndarray) -> dict:
    """Conjugate both legs by the qubit rotation R: V becomes f -> R V(R^T f)."""
    return {
        "b": R @ c["b"],
        "B1": R @ c["B1"] @ R.T,
        "B2": R @ c["B2"] @ R.T,
        "T": np.einsum("ma,lb,ic,abc->mli", R, R, R, c["T"]),
    }


def delta0() -> dict:
    c = zero_operator()
    T = c["T"]
    T[0, 1, 0] = T[1, 0, 0] = 1.0
    T[0, 0, 1] = 1.0
    T[1, 1, 1] = T[2, 2, 1] = -1.0
    T[0, 2, 2] = T[2, 0, 2] = 1.0
    return c


def delta1(t) -> dict:
    c = zero_operator()
    for m in range(3):
        c["T"][m, m, :] = t
    return c


def linear(B) -> dict:
    c = zero_operator()
    c["B1"] = np.array(B, dtype=float)
    c["B2"] = np.array(B, dtype=float)
    return c


def with_singular_values(rng, s, v_top=None) -> np.ndarray:
    """U diag(s) V^T with Haar U and V; v_top, if given, is V's first column."""
    U = random_rotation(rng)
    V = random_rotation(rng)
    if v_top is not None:
        q, _ = np.linalg.qr(np.column_stack([v_top, rng.standard_normal((3, 2))]))
        V = q * np.sign(q[:, 0] @ v_top)
    return U @ np.diag(s) @ V.T


# ----------------------------------------------------------------- operators


def _require(condition, message: str) -> None:
    if not condition:
        raise RuntimeError(f"workload generation: {message}")


def _axes_violate(c: dict) -> bool:
    axes = np.vstack([np.eye(3), -np.eye(3)])
    return bool(min_eigenvalues(c, axes).min() < -1e-3)


def _far_from_sphere(c: dict, rng) -> bool:
    f = rng.standard_normal((64, 3))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    return bool(np.abs(np.linalg.norm(induced_map(c, f), axis=1) - 1.0).max() > 1e-3)


def make_operator(family: str, rng) -> tuple:
    """(coefficients, truth) for one operator of the named family."""
    truth = {"positive": False, "pure": False, "family": family}
    if family == "catalog-linear":
        c = linear(np.eye(3) / 2.0)
        truth.update(positive=True, pure=True, bound=0.5)
    elif family == "linear-positive":
        s1 = rng.uniform(0.3, 0.5)
        s2 = s1 * rng.uniform(0.3, 0.9)
        s = [s1, s2, s2 * rng.uniform(0.3, 0.9)]
        c = linear(with_singular_values(rng, s))
        truth.update(positive=True, bound=float(np.linalg.norm(c["B1"], 2)))
        _require(truth["bound"] <= 0.5 + 1e-12, "linear-positive exceeds |B| <= 1/2")
    elif family == "bilinear-positive":
        c = zero_operator()
        c["T"] = rng.standard_normal((3, 3, 3))
        c["T"] *= POSITIVE_BOUND * rng.uniform(0.5, 1.0) / op_norm_sum(c)
        truth.update(positive=True, bound=op_norm_sum(c))
        _require(truth["bound"] <= POSITIVE_BOUND + 1e-12, "bilinear-positive exceeds its bound")
    elif family == "linear-nonpositive":
        # Top singular direction far from every axis, so the axis probes pass
        # (|B e_k| < 1/2) and only sampled sphere points find the violation.
        while True:
            v = unit_vector(rng)
            if np.max(v * v) <= 0.4:
                break
        s = [rng.uniform(0.55, 0.65), rng.uniform(0.1, 0.25), rng.uniform(0.05, 0.25)]
        c = linear(with_singular_values(rng, s, v_top=v))
        _require(np.linalg.norm(c["B1"], axis=0).max() < 0.49, "an axis probe violates")
        _require(min_eigenvalues(c, v)[0] < -0.05, "top singular direction is no witness")
    elif family in ("general", "symmetric", "linear-free"):
        while True:
            c = zero_operator()
            c["T"] = 0.5 * rng.standard_normal((3, 3, 3))
            if family == "general":
                c["B1"] = 0.5 * rng.standard_normal((3, 3))
                c["B2"] = 0.5 * rng.standard_normal((3, 3))
            elif family == "symmetric":
                c["B1"] = c["B2"] = 0.5 * rng.standard_normal((3, 3))
                c["T"] = 0.5 * (c["T"] + c["T"].transpose(1, 0, 2))
            if _axes_violate(c) and _far_from_sphere(c, rng):
                break
    elif family in ("delta0", "delta0-rotated"):
        c = delta0() if family == "delta0" else rotate(delta0(), random_rotation(rng))
        truth.update(pure=True)
    elif family in ("delta1", "delta1-rotated"):
        t = np.array([0.0, 0.0, 1.0]) if family == "delta1" else unit_vector(rng)
        c = delta1(t)
        truth.update(pure=True, fixed_point=t.tolist())
    elif family == "linear-contraction":
        s1 = rng.uniform(0.3, 0.475)
        s = [s1, s1 * rng.uniform(0.5, 1.0), s1 * rng.uniform(0.5, 1.0)]
        c = linear(with_singular_values(rng, s))
        truth.update(positive=True, bound=float(np.linalg.norm(c["B1"], 2)), contraction=True)
    else:
        raise ValueError(f"unknown operator family {family!r}")
    if not truth["positive"] and family != "linear-nonpositive":
        probe = rng.standard_normal((2000, 3))
        probe /= np.linalg.norm(probe, axis=1, keepdims=True)
        _require(
            _axes_violate(c) or min_eigenvalues(c, probe).min() < -1e-3,
            f"{family}: no witness of non-positivity found",
        )
    truth["symmetric"] = bool(
        np.array_equal(c["B1"], c["B2"]) and np.allclose(c["T"], c["T"].transpose(1, 0, 2), rtol=0, atol=1e-12)
    )
    truth["haar_trace"] = bool(not c["B1"].any() and not c["B2"].any())
    return c, truth


def config_text(c: dict) -> str:
    return json.dumps({k: np.asarray(v).tolist() for k, v in c.items()}) + "\n"


# ----------------------------------------------------------------- workloads


def generate(workload: str, seed: int) -> dict:
    """The manifest for one workload: operators (with truth) and operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    operators, ops = {}, []

    def add_operator(family: str) -> str:
        name = f"op{len(operators):04d}"
        c, truth = make_operator(family, rng)
        operators[name] = {"config": config_text(c), "truth": truth}
        return name

    n = OP_COUNTS[workload]
    if workload == "oracle-scan":
        for i in range(n):
            name = add_operator(ORACLE_CYCLE[i % len(ORACLE_CYCLE)])
            ops.append({"command": "inspect", "operator": name, "cli_seed": int(rng.integers(2**31))})
    elif workload == "probe-screen":
        for i in range(n):
            name = add_operator(PROBE_OPERATORS[i % len(PROBE_OPERATORS)])
            command = PROBE_COMMANDS[i % len(PROBE_COMMANDS)]
            op = {"command": command, "operator": name, "cli_seed": int(rng.integers(2**31))}
            if command == "certify-purity":
                op["expect"] = str(rng.choice(["pure", "impure"]))
            elif command == "certify-positivity":
                op["expect"] = "nonpositive"
            ops.append(op)
    else:
        for i in range(n // len(ORBIT_OPS)):
            name = add_operator(ORBIT_MAPS[i % len(ORBIT_MAPS)])
            for kind in ORBIT_OPS:
                if kind == "fixed-points":
                    ops.append({"command": "fixed-points", "operator": name, "grid": FIXED_POINT_GRID})
                else:
                    f0 = unit_vector(rng) * (1.0 if kind == "sphere" else rng.uniform(0.3, 0.9))
                    ops.append({"command": "simulate", "operator": name, "start": kind, "f0": f0.tolist()})
    return {"workload": workload, "seed": seed, "cycle": CYCLE[workload], "operators": operators, "ops": ops}


def write(manifest: dict, out_dir: str) -> None:
    """Write one config file per operator and the manifest beside them."""
    os.makedirs(out_dir, exist_ok=True)
    for name, entry in manifest["operators"].items():
        with open(os.path.join(out_dir, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(entry["config"])
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)
