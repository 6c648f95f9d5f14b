"""Batch command-line front door.

Subcommands:
    inspect    classify an operator config and certify purity/positivity
    simulate   iterate the induced Bloch map and write a trajectory CSV
    certify    exit-code assertion of an expected verdict (CI-friendly)
    catalog    list built-in operators or print one as config JSON
    conjugacy  residual of the circle-to-logistic conjugacy identity

Operator configs are JSON objects {"b": [3], "B1": [3x3], "B2": [3x3],
"T": [3x3x3]} with any field omissible (zeros).  All randomness enters
through an explicit --seed flag; reports are byte-identical for identical
inputs and seed.  Numbers are printed with 17 significant digits so they
round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import catalog, dynamics, purity, positivity
from .channel import DeltaCoefficients, check_coassociativity, has_haar_trace, induced_qmap, is_symmetric, is_trace_preserving
from .qmap import evaluate


class ConfigError(ValueError):
    """Invalid operator config; message carries a field or line diagnostic."""


# ------------------------------------------------------------------ config IO


def _reject_nonfinite(token: str):
    raise ConfigError(f"non-finite number {token!r} is not allowed")


def _check_numbers(value, path: str, dims: int):
    if dims == 0:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: non-finite number")
        return
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: expected a list of 3 entries")
    for k, item in enumerate(value):
        _check_numbers(item, f"{path}[{k}]", dims - 1)


_FIELD_DIMS = {"b": 1, "B1": 2, "B2": 2, "T": 3}


def parse_config(text: str) -> DeltaCoefficients:
    """Parse an OperatorConfig JSON document into coefficients."""
    try:
        raw = json.loads(text, parse_constant=_reject_nonfinite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    for key in raw:
        if key not in _FIELD_DIMS:
            raise ConfigError(f"unknown field {key!r}; expected one of b, B1, B2, T")
    for key, dims in _FIELD_DIMS.items():
        if key in raw:
            _check_numbers(raw[key], key, dims)
    return DeltaCoefficients(
        b=raw.get("b"), B1=raw.get("B1"), B2=raw.get("B2"), T=raw.get("T")
    )


def load_config(path: str) -> DeltaCoefficients:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return parse_config(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_dict(d: DeltaCoefficients) -> dict:
    return {
        "b": d.b.tolist(),
        "B1": d.B1.tolist(),
        "B2": d.B2.tolist(),
        "T": d.T.tolist(),
    }


# --------------------------------------------------------------- JSON output


def _fmt(value, indent: int, path: str = "") -> str:
    pad = "  " * indent
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"report field {path or '/'} is {float(value)}, which JSON cannot hold")
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_fmt(v, indent + 1, f'{path}/{k}')}" for k, v in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(x, (int, float, np.integer, np.floating)) for x in items):
            return "[" + ", ".join(_fmt(x, 0, f"{path}/{i}") for i, x in enumerate(items)) + "]"
        body = ",\n".join(f"{pad}  {_fmt(x, indent + 1, f'{path}/{i}')}" for i, x in enumerate(items))
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps_report(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Raises ValueError naming the field (as a /-separated key path) when a
    float is infinite or NaN, which JSON has no literal for.
    """
    return _fmt(obj, 0) + "\n"


# ------------------------------------------------------------------ commands


def inspection_report(d: DeltaCoefficients, samples: int, seed: int, tol: float) -> dict:
    v = induced_qmap(d)
    certificate = purity.check_sphere_conditions(v, tol=tol)
    max_deviation, _ = purity.monte_carlo_sphere(v, samples=samples, seed=seed)
    pos = positivity.check_positivity_sampled(d)  # check_positivity, by the name perfbench traces
    report = {
        "trace_preserving": is_trace_preserving(d, tol=tol),
        "symmetric": is_symmetric(d, tol=tol),
        "haar_trace": has_haar_trace(d, tol=tol),
        "coassociative": check_coassociativity(d, tol=tol),
        "q_purity": {
            "certificate": {
                "verdict": certificate.verdict,
                "worst_condition": certificate.worst_condition,
                "residuals": dict(certificate.residuals),
            },
            "monte_carlo": {
                "max_deviation": max_deviation,
                "samples": samples,
                "seed": seed,
            },
        },
        "positivity": {
            "verdict": pos.verdict,
            "min_eigenvalue": pos.interval,
        },
    }
    if pos.witness is not None:
        report["positivity"]["witness"] = {
            "w": pos.witness.w.tolist(),
            "min_eigenvalue": pos.witness.min_eigenvalue,
        }
    return report


def _cmd_inspect(args) -> int:
    d = load_config(args.path)
    report = inspection_report(d, samples=args.samples, seed=args.seed, tol=args.tol)
    sys.stdout.write(dumps_report(report))
    return 0


def _parse_f0(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--f0 expects three comma-separated numbers, got {text!r}")
    try:
        f0 = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"--f0: {exc}") from exc
    if not np.all(np.isfinite(f0)):
        raise ConfigError("--f0: entries must be finite")
    if np.linalg.norm(f0) > 1.0 + 1e-9:
        raise ConfigError(f"--f0: norm {np.linalg.norm(f0)} exceeds 1")
    return f0


def _cmd_simulate(args) -> int:
    d = load_config(args.path)
    f0 = _parse_f0(args.f0)
    v = induced_qmap(d)
    traj = dynamics.iterate(v, f0, steps=args.steps)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            dynamics.write_trajectory_csv(traj, fh)
        sink = sys.stdout
    else:
        dynamics.write_trajectory_csv(traj, sys.stdout)
        sink = sys.stderr
    final = traj.points[-1]
    final_norm = traj.norms[-1]
    if final_norm <= 1e-12:
        label = "collapsed"
    elif np.linalg.norm(evaluate(v, final) - final) <= 1e-9:
        label = "fixed"
    else:
        label = "moving"
    sink.write(f"final_norm={final_norm:.17g} classification={label}\n")
    return 0


def _cmd_certify(args) -> int:
    d = load_config(args.path)
    v = induced_qmap(d)
    if args.expect in ("pure", "impure"):
        verdict = purity.check_sphere_conditions(v).verdict
        actual = "pure" if verdict else "impure"
        detail = {"check": "q_purity", "verdict": verdict}
    else:
        result = positivity.check_positivity_sampled(d)
        actual = {True: "positive", False: "nonpositive", None: "marginal"}[result.verdict]
        detail = {
            "check": "positivity",
            "verdict": result.verdict,
            "min_eigenvalue": result.interval,
        }
        if result.verdict is None:
            lower, upper = result.interval
            sys.stderr.write(
                f"positivity undecided: the proof reached its vertex cap with the smallest "
                f"eigenvalue in [{lower:.3e}, {upper:.3e}]\n"
            )
    detail["expected"] = args.expect
    detail["actual"] = actual
    detail["match"] = actual == args.expect
    sys.stdout.write(dumps_report(detail))
    return 0 if detail["match"] else 2


def _cmd_catalog(args) -> int:
    if args.name is None:
        for entry in catalog.entries():
            sys.stdout.write(f"{entry.name}: {entry.notes}\n")
        return 0
    try:
        entry = catalog.get(args.name)
    except KeyError:
        sys.stderr.write(f"unknown catalog entry {args.name!r}\n")
        return 1
    sys.stdout.write(dumps_report(config_dict(entry.delta)))
    return 0


def _cmd_conjugacy(args) -> int:
    if args.grid < 2:
        sys.stderr.write("--grid must be >= 2\n")
        return 1
    residual = dynamics.logistic_conjugacy_residual(args.grid)
    sys.stdout.write(dumps_report({"grid": args.grid, "residual": residual}))
    return 0 if residual <= 1e-10 else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochquad",
        description="Classify, certify and simulate quadratic qubit channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="full classification report as JSON")
    p.add_argument("path", help="operator config JSON file")
    p.add_argument(
        "--samples",
        type=int,
        default=100000,
        help="sphere points for the Monte-Carlo purity check; the positivity check is a "
        "proof and draws no samples",
    )
    p.add_argument("--seed", type=int, default=42, help="seed of the Monte-Carlo purity check's sample")
    p.add_argument("--tol", type=float, default=1e-9, help="classifier/certificate tolerance")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("simulate", help="iterate the induced Bloch map")
    p.add_argument("path", help="operator config JSON file")
    p.add_argument("--f0", required=True, help="start point as x,y,z")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out", default=None, help="trajectory CSV file (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="assert an expected verdict via exit code")
    p.add_argument("path", help="operator config JSON file")
    p.add_argument(
        "--expect",
        required=True,
        choices=("pure", "impure", "positive", "nonpositive"),
    )
    p.add_argument(
        "--samples",
        type=int,
        default=100000,
        help="ignored: the positivity check is a proof and --expect pure/impure uses the "
        "exact certificate, so certify draws no samples",
    )
    p.add_argument("--seed", type=int, default=42, help="ignored, like --samples")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("catalog", help="list built-in operators or print one")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("conjugacy", help="circle-to-logistic conjugacy residual")
    p.add_argument("--grid", type=int, default=10000)
    p.set_defaults(func=_cmd_conjugacy)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    sys.exit(main())
