"""Batch command-line front door.

Subcommands:
    inspect    classify an operator config and certify purity/positivity
    simulate   iterate the induced Bloch map and write a trajectory CSV
    certify    exit-code assertion of an expected verdict (CI-friendly)
    catalog    list built-in operators or print one as config JSON
    conjugacy  residual of the circle-to-logistic conjugacy identity

Operator configs are JSON objects {"b": [3], "B1": [3x3], "B2": [3x3],
"T": [3x3x3]} with any field omissible (zeros).  A config file is read
once, checked leaf by leaf and admitted as one array of its 48 entries.
Every verdict is a proof and nothing is sampled, so reports are
byte-identical for identical inputs.  Numbers are printed with 17
significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import catalog, dynamics, purity, positivity
from .channel import DeltaCoefficients, check_coassociativity, has_haar_trace, induced_qmap, is_symmetric, is_trace_preserving
from .pauli import TOL_STATE, vector_norm
from .qmap import COEFFICIENT_LIMIT, admit, evaluate


class ConfigError(ValueError):
    """Invalid operator config; message carries a field or line diagnostic."""


# ------------------------------------------------------------------ config IO


def _reject_nonfinite(token: str):
    raise ConfigError(f"non-finite number {token!r} is not allowed")


class _Misplaced(Exception):
    """A value that does not fit where it stands; the walk back up prepends each place to path."""

    def __init__(self, problem: str, path: str = ""):
        super().__init__(problem)
        self.problem, self.path = problem, path


def _check_number(value):
    """Raises _Misplaced unless value is a finite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Misplaced(f"expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the double range
        raise _Misplaced("number beyond the double range") from None
    if not finite:
        raise _Misplaced("non-finite number")


_DOUBLE_MAX = sys.float_info.max


def _check_numbers(value, dims: int, leaves: list) -> None:
    """Appends the leaves of value to leaves if it nests dims >= 1 levels of 3-lists of finite numbers; raises _Misplaced if not."""
    if not isinstance(value, list) or len(value) != 3:
        raise _Misplaced("expected a list of 3 entries")
    if dims > 1:
        for k, item in enumerate(value):
            try:
                _check_numbers(item, dims - 1, leaves)
            except _Misplaced as exc:
                exc.path = f"[{k}]{exc.path}"
                raise
        return
    a, b, c = value
    if not (type(a) is type(b) is type(c) is float and math.isfinite(a + b + c)):  # three finite floats, most rows, pass
        for k, item in enumerate(value):
            if type(item) is not float or not math.isfinite(item):  # a finite float needs no call
                if type(item) is not int or not -_DOUBLE_MAX <= item <= _DOUBLE_MAX:  # nor an int (not a bool) in range
                    try:
                        _check_number(item)
                    except _Misplaced as exc:
                        exc.path = f"[{k}]"
                        raise
    leaves += value


# Each field's nesting depth, and the zeros that stand for it when it is missing.
_FIELD_DIMS = {"b": 1, "B1": 2, "B2": 2, "T": 3}
_MISSING = {key: [0.0] * 3**dims for key, dims in _FIELD_DIMS.items()}
# The 48 entries of a config, b, B1, B2 and T in that order, as one value for qmap.admit.
_ENTRIES = (("b, B1, B2, T", (48,)),)


def _unique_fields(pairs: list) -> dict:
    """The JSON object of pairs; ConfigError on a repeated key, of which json.loads would keep the last."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise ConfigError(f"duplicate field {key!r}")
        fields[key] = value
    return fields


# What json.loads(text, parse_constant=..., object_pairs_hook=...) builds on every call, built once.
_DECODER = json.JSONDecoder(parse_constant=_reject_nonfinite, object_pairs_hook=_unique_fields)


def parse_config(text: str) -> DeltaCoefficients:
    """Parse an OperatorConfig JSON document into coefficients.

    The walk checks every entry and collects the 48 of them, zeros for a
    missing field, and qmap.admit admits them as one array, whose views the
    blocks are.  An entry the walk passes can still exceed the magnitude
    bound; then the blocks are admitted one by one, so the error names its
    block.
    """
    if text.startswith("\ufeff"):  # json.loads refuses a BOM before it decodes; the decoder does not
        raise ConfigError("line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        raw = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    for key in raw:
        if key not in _FIELD_DIMS:
            raise ConfigError(f"unknown field {key!r}; expected one of b, B1, B2, T")
    leaves = []
    for key, dims in _FIELD_DIMS.items():
        if key in raw:
            try:
                _check_numbers(raw[key], dims, leaves)
            except _Misplaced as exc:
                raise ConfigError(f"{key}{exc.path}: {exc.problem}") from None
        else:
            leaves += _MISSING[key]
    try:
        return DeltaCoefficients._from_admitted(admit(_ENTRIES, (leaves,), COEFFICIENT_LIMIT))
    except ValueError:  # an entry above the bound: refused again block by block, by the block's name
        return DeltaCoefficients(b=raw.get("b"), B1=raw.get("B1"), B2=raw.get("B2"), T=raw.get("T"))


def load_config(path: str) -> DeltaCoefficients:
    """The coefficients of the config file at path, read in one unbuffered read.

    The bytes are decoded as UTF-8, with CRLF and lone CR line ends read
    as LF, as a text-mode read gives them; an unreadable or undecodable
    file is a ConfigError that names path.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
#
# One writer per report shape.  Each prints its known fields in a fixed
# order, two spaces per level, lists of numbers on one line and floats with
# 17 significant digits, so they round-trip exactly.  A NaN or +-inf, which
# JSON has no literal for, raises ValueError naming the field as a
# /-separated key path.

# What json.dumps gives for a str, without its dispatch.
_quote = json.encoder.encode_basestring_ascii


def _first_non_finite(members, path: str) -> ValueError:
    """The error for the first (key, value) member whose value is NaN or +-inf, at field path + key."""
    key, value = next((key, value) for key, value in members if not math.isfinite(value))
    return ValueError(f"report field {path}{key} is {float(value)}, which JSON cannot hold")


def _number(value, path: str) -> str:
    """A finite float field with 17 significant digits."""
    if not math.isfinite(value):
        raise _first_non_finite([("", value)], path)
    return f"{value:.17g}"


def _numbers(values, path: str) -> str:
    """A list of finite floats on one line, entry k at field path + k; null for None."""
    if values is None:
        return "null"
    if not all(map(math.isfinite, values)):
        raise _first_non_finite(enumerate(values), path)
    return "[" + ", ".join([f"{x:.17g}" for x in values]) + "]"


def _flag(value) -> str:
    """A bool, or null for None."""
    return "null" if value is None else "true" if value else "false"


def dumps_inspection(report: dict) -> str:
    """The inspect report of inspection_report as JSON text."""
    pos = report["positivity"]
    text = (
        "{\n"
        f'  "trace_preserving": {_flag(report["trace_preserving"])},\n'
        f'  "symmetric": {_flag(report["symmetric"])},\n'
        f'  "haar_trace": {_flag(report["haar_trace"])},\n'
        f'  "coassociative": {_flag(report["coassociative"])},\n'
        '  "q_purity": {\n'
        '    "certificate": {\n'
        f'      "verdict": {_flag(report["q_purity"]["certificate"]["verdict"])}\n'
        "    },\n"
        f'    "sphere_deviation": {_numbers(report["q_purity"]["sphere_deviation"], "/q_purity/sphere_deviation/")}\n'
        "  },\n"
        '  "positivity": {\n'
        f'    "verdict": {_flag(pos["verdict"])},\n'
        f'    "min_eigenvalue": {_numbers(pos["min_eigenvalue"], "/positivity/min_eigenvalue/")}'
    )
    if "witness" in pos:
        witness = pos["witness"]
        text += (
            ',\n    "witness": {\n'
            f'      "w": {_numbers(witness["w"], "/positivity/witness/w/")},\n'
            f'      "min_eigenvalue": {_number(witness["min_eigenvalue"], "/positivity/witness/min_eigenvalue")}\n'
            "    }"
        )
    return text + "\n  }\n}\n"


def dumps_certification(detail: dict) -> str:
    """The certify detail as JSON text; the positivity check adds min_eigenvalue."""
    interval = ""
    if "min_eigenvalue" in detail:
        interval = f'  "min_eigenvalue": {_numbers(detail["min_eigenvalue"], "/min_eigenvalue/")},\n'
    return (
        "{\n"
        f'  "check": {_quote(detail["check"])},\n'
        f'  "verdict": {_flag(detail["verdict"])},\n'
        f"{interval}"
        f'  "expected": {_quote(detail["expected"])},\n'
        f'  "actual": {_quote(detail["actual"])},\n'
        f'  "match": {_flag(detail["match"])}\n'
        "}\n"
    )


def _matrix(rows, path: str, pad: str) -> str:
    """A list of float lists, one list per line, indented by pad."""
    body = ",\n".join([f"{pad}  {_numbers(row, f'{path}{k}/')}" for k, row in enumerate(rows)])
    return "[\n" + body + "\n" + pad + "]"


def dumps_config(config: dict) -> str:
    """An operator config of config_dict as JSON text, which parse_config reads back exactly."""
    b = _numbers(config["b"], "/b/")  # fields in document order: the first non-finite one is named
    B1 = _matrix(config["B1"], "/B1/", "  ")
    B2 = _matrix(config["B2"], "/B2/", "  ")
    T = ",\n".join([f"    {_matrix(block, f'/T/{k}/', '    ')}" for k, block in enumerate(config["T"])])
    return f'{{\n  "b": {b},\n  "B1": {B1},\n  "B2": {B2},\n  "T": [\n{T}\n  ]\n}}\n'


def dumps_conjugacy(grid: int, residual: float) -> str:
    """The conjugacy report as JSON text."""
    return f'{{\n  "grid": {grid},\n  "residual": {_number(residual, "/residual")}\n}}\n'


# ------------------------------------------------------------------ commands


def inspection_report(d: DeltaCoefficients, tol: float) -> dict:
    verdict, deviation = purity.check_q_purity(induced_qmap(d), tol=tol)
    pos = positivity.check_positivity_sampled(d)  # check_positivity, by the name perfbench traces
    report = {
        "trace_preserving": is_trace_preserving(d, tol=tol),
        "symmetric": is_symmetric(d, tol=tol),
        "haar_trace": has_haar_trace(d, tol=tol),
        "coassociative": check_coassociativity(d, tol=tol),
        "q_purity": {"certificate": {"verdict": verdict}, "sphere_deviation": deviation},
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
    if not 0.0 <= args.tol < math.inf:  # a NaN fails too: no verdict may pass by an infinite tolerance
        raise ConfigError(f"--tol must be a finite number at least 0, got {args.tol}")
    d = load_config(args.path)
    report = inspection_report(d, tol=args.tol)
    sys.stdout.write(dumps_inspection(report))
    return 0


def _parse_f0(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--f0 expects three comma-separated numbers, got {text!r}")
    try:
        entries = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"--f0: {exc}") from exc
    if not all(map(math.isfinite, entries)):
        raise ConfigError("--f0: entries must be finite")
    f0 = np.array(entries)
    norm = vector_norm(f0)
    if norm > 1.0 + TOL_STATE:
        raise ConfigError(f"--f0: norm {norm} exceeds 1")
    return f0


def _cmd_simulate(args) -> int:
    d = load_config(args.path)
    f0 = _parse_f0(args.f0)
    v = induced_qmap(d)
    traj = dynamics.iterate(v, f0, steps=args.steps)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                dynamics.write_trajectory_csv(traj, fh)
        except OSError as exc:
            raise ValueError(f"{args.out}: {exc.strerror or exc}") from exc
        sink = sys.stdout
    else:
        dynamics.write_trajectory_csv(traj, sys.stdout)
        sink = sys.stderr
    final = traj.points[-1]
    final_norm = traj.norms[-1]
    if final_norm <= 1e-12:
        label = "collapsed"
    elif vector_norm(evaluate(v, final) - final) <= 1e-9:
        label = "fixed"
    else:
        label = "moving"
    sink.write(f"final_norm={final_norm:.17g} classification={label}\n")
    return 0


def _cmd_certify(args) -> int:
    d = load_config(args.path)
    if args.expect in ("pure", "impure"):
        verdict, interval = purity.check_q_purity(induced_qmap(d))
        outcomes = ("pure", "impure")
        detail = {"check": "q_purity", "verdict": verdict}
        undecided = f"q-purity undecided: the sphere deviation lies in [{{:.3e}}, {{:.3e}}], across the tolerance {purity.TOL_CERT:g}\n"
    else:
        result = positivity.check_positivity_sampled(d)
        verdict, interval = result.verdict, result.interval
        outcomes = ("positive", "nonpositive")
        detail = {"check": "positivity", "verdict": verdict, "min_eigenvalue": interval}
        undecided = "positivity undecided: the proof reached its vertex cap with the smallest eigenvalue in [{:.3e}, {:.3e}]\n"
    actual = {True: outcomes[0], False: outcomes[1], None: "marginal"}[verdict]
    if verdict is None:
        sys.stderr.write(undecided.format(*interval))
    detail["expected"] = args.expect
    detail["actual"] = actual
    detail["match"] = actual == args.expect
    sys.stdout.write(dumps_certification(detail))
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
    sys.stdout.write(dumps_config(config_dict(entry.delta)))
    return 0


def _cmd_conjugacy(args) -> int:
    if args.grid < 2:
        sys.stderr.write("--grid must be >= 2\n")
        return 1
    residual = dynamics.logistic_conjugacy_residual(args.grid)
    sys.stdout.write(dumps_conjugacy(args.grid, residual))
    return 0 if residual <= 1e-10 else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main() call and reused, with its action table.

    argparse is the one definition of the grammar: help, types, choices and
    defaults are written here only.  parser.action_table, built once with
    the parser, holds what _read_plain needs of each sub-command's parser.
    Parsing leaves the parser unchanged, so every later call, also one after
    a rejected command line, parses as a fresh parser would.
    """
    parser = argparse.ArgumentParser(
        prog="blochquad",
        description="Classify, certify and simulate quadratic qubit channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # inspect and certify once ran sampled checks; they still accept the
    # sampling flags, and ignore them, so existing command lines keep working.
    ignored = argparse.ArgumentParser(add_help=False)
    ignored.add_argument(
        "--samples", type=int, help="ignored, kept for existing command lines: every check is a proof"
    )
    ignored.add_argument("--seed", type=int, help="ignored, like --samples")

    p = sub.add_parser("inspect", parents=[ignored], help="full classification report as JSON")
    p.add_argument("path", help="operator config JSON file")
    p.add_argument("--tol", type=float, default=1e-9, help="classifier/certificate tolerance")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("simulate", help="iterate the induced Bloch map")
    p.add_argument("path", help="operator config JSON file")
    p.add_argument("--f0", required=True, help="start point as x,y,z")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out", default=None, help="trajectory CSV file (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", parents=[ignored], help="assert an expected verdict via exit code")
    p.add_argument("path", help="operator config JSON file")
    p.add_argument(
        "--expect",
        required=True,
        choices=("pure", "impure", "positive", "nonpositive"),
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("catalog", help="list built-in operators or print one")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("conjugacy", help="circle-to-logistic conjugacy residual")
    p.add_argument("--grid", type=int, default=10000)
    p.set_defaults(func=_cmd_conjugacy)

    parser.action_table = _action_table(sub.choices)
    return parser


def _action_table(commands: dict) -> dict:
    """Each sub-command name -> (options, positionals, required, defaults), read off its parser's actions.

    options maps the option strings of each single-value store option to
    its action; positionals lists the positional actions in order; required
    is the set of actions argparse requires; defaults is the namespace of a
    command line that gives no argument: every action default, then the
    set_defaults entries (func).  A sub-command whose positionals are not
    all single values, nor one optional value, is left out, as argparse
    may split its positionals around the options otherwise than in order.
    """
    table = {}
    for name, command in commands.items():
        actions = command._actions
        positionals = [action for action in actions if not action.option_strings]
        if not (all(action.nargs is None for action in positionals) or [action.nargs for action in positionals] == ["?"]):
            continue
        options = {
            string: action
            for action in actions
            if type(action) is argparse._StoreAction and action.nargs is None
            for string in action.option_strings
        }
        defaults = {}
        for action in actions:
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                defaults.setdefault(action.dest, action.default)
        for dest, value in command._defaults.items():
            defaults.setdefault(dest, value)
        required = frozenset(action for action in actions if action.required)
        table[name] = (options, positionals, required, defaults)
    return table


def _read_plain(argv: list, table: dict) -> argparse.Namespace | None:
    """The full parser's namespace for a plain command line, read off the action table; None for any other line.

    A line is plain when argv[0] names a sub-command and every other token
    is either an exact option string of one of its single-value store
    options, given at most once, with the value after "=" or as the next
    token, which must not start with "-"; or a token that does not start
    with "-" and fills the next positional.  Each value must convert with
    its action's type and lie in its choices, and every required action
    must be given.  argparse reads such a line to the same namespace;
    help, abbreviations, "--", values that start with "-" and every line it
    refuses are left to it.
    """
    reading = table.get(argv[0]) if argv else None
    if reading is None:
        return None
    options, positionals, required, defaults = reading
    values = dict(defaults)
    given = set()
    unfilled = iter(positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            option, joined, value = token.partition("=")
            action = options.get(option)
            if action is None or action in given:
                return None
            if not joined:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
        else:
            action, value = next(unfilled, None), token
            if action is None:
                return None
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        given.add(action)
    if not required <= given:
        return None
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv: list) -> argparse.Namespace:
    """The arguments of argv as the full parser reads them.

    A plain command line (see _read_plain), which is what scripts and the
    benchmark send, is read off the action table built with the parser,
    without an argparse pass; any other line, help and every refusal
    included, is read by the full parser.  Help, errors and the namespace
    are those of the full parser either way.
    """
    parser = _build_parser()
    args = _read_plain(argv, parser.action_table)
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
