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
from .pauli import TOL_ALG, TOL_STATE, vector_norm
from .qmap import COEFFICIENT_LIMIT, admit, evaluate


class ConfigError(ValueError):
    """Invalid operator config; message carries a field or line diagnostic."""


# ------------------------------------------------------------------ config IO


def _reject_nonfinite(token: str):
    raise ConfigError(f"non-finite number {token!r} is not allowed")


class _Misplaced(Exception):
    """A value that does not fit where it stands, an error of type error; the walk back up prepends each place to path."""

    def __init__(self, problem: str, path: str = "", error: type = ValueError):
        super().__init__(problem)
        self.problem, self.path, self.error = problem, path, error


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
    except RecursionError:  # the decoder recurses once per open bracket
        raise ConfigError("arrays or objects nested too deeply to decode; a config nests at most 3 arrays in its object") from None
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
    """The config of d, its fields b, B1, B2 and T as nested lists, for dumps."""
    return {key: getattr(d, key).tolist() for key in _FIELD_DIMS}


# --------------------------------------------------------------- JSON output

# What json.dumps gives for a str, without its dispatch; and for an int, a bool and None.
_quote = json.encoder.encode_basestring_ascii
_SCALARS = {str: _quote, int: str, bool: {True: "true", False: "false"}.get, type(None): {None: "null"}.get}


def dumps(report) -> str:
    """The report, a nest of dicts, lists and tuples, as JSON text that round-trips exactly.

    Dict members in insertion order, two spaces per level; a list or tuple
    of floats on one line, any other list one member per line; floats with
    17 significant digits, other leaves as json.dumps writes them.  A NaN or
    +-inf raises ValueError, naming the first such field in document order
    by its /-separated key path; a leaf of any other type, numpy's among
    them, raises TypeError naming its field.
    """
    try:
        return _text(report, "") + "\n"
    except _Misplaced as exc:
        raise exc.error(f"report field {exc.path or '/'} {exc.problem}") from None


def _text(value, pad: str) -> str:
    """value as JSON text whose inner lines are indented by pad plus two spaces."""
    kind = type(value)  # exact types: numpy's float64 is a float, and its bool_ is not a bool
    if kind is float:
        if math.isfinite(value):
            return f"{value:.17g}"
        raise _Misplaced(f"is {value}, which JSON cannot hold")
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    if kind is dict:
        members, brackets = value.items(), "{}"
    elif kind is list or kind is tuple:
        if all([type(x) is float for x in value]) and all(map(math.isfinite, value)):
            return "[" + ", ".join([f"{x:.17g}" for x in value]) + "]"
        members, brackets = enumerate(value), "[]"  # a non-finite float is refused below, at its index
    else:
        raise _Misplaced(f"is a {kind.__module__}.{kind.__qualname__}, which dumps does not write", error=TypeError)
    inner, lines = pad + "  ", []
    try:
        for key, member in members:
            lines.append(inner + (f"{_quote(key)}: " if kind is dict else "") + _text(member, inner))
    except _Misplaced as exc:
        exc.path = f"/{key}{exc.path}"
        raise
    return f"{brackets[0]}\n" + ",\n".join(lines) + f"\n{pad}{brackets[1]}" if lines else brackets


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
        "positivity": {"verdict": pos.verdict, "min_eigenvalue": pos.interval},
    }
    if pos.witness is not None:
        report["positivity"]["witness"] = {"w": pos.witness.w.tolist(), "min_eigenvalue": pos.witness.min_eigenvalue}
    return report


def _cmd_inspect(args) -> int:
    if not 0.0 <= args.tol < math.inf:  # a NaN fails too: no verdict may pass by an infinite tolerance
        raise ConfigError(f"--tol must be a finite number at least 0, got {args.tol}")
    sys.stdout.write(dumps(inspection_report(load_config(args.path), tol=args.tol)))
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
        undecided = f"q-purity undecided: the sphere deviation lies in [{{:.3e}}, {{:.3e}}], across the tolerance {TOL_ALG:g}\n"
    else:
        result = positivity.check_positivity_sampled(d)
        verdict, interval = result.verdict, result.interval
        outcomes = ("positive", "nonpositive")
        detail = {"check": "positivity", "verdict": verdict, "min_eigenvalue": interval}
        undecided = "positivity undecided: the proof reached its vertex cap with the smallest eigenvalue in [{:.3e}, {:.3e}]\n"
    actual = {True: outcomes[0], False: outcomes[1], None: "marginal"}[verdict]
    if verdict is None:
        sys.stderr.write(undecided.format(*interval))
    detail.update(expected=args.expect, actual=actual, match=actual == args.expect)
    sys.stdout.write(dumps(detail))
    return 0 if detail["match"] else 2


def _cmd_catalog(args) -> int:
    if args.name is None:
        for entry in catalog.entries():
            sys.stdout.write(f"{entry.name}: {entry.notes}\n")
        return 0
    try:
        entry = catalog.get(args.name)
    except KeyError:
        raise ConfigError(f"unknown catalog entry {args.name!r}") from None
    sys.stdout.write(dumps(config_dict(entry.delta)))
    return 0


def _cmd_conjugacy(args) -> int:
    residual = dynamics.logistic_conjugacy_residual(args.grid)
    sys.stdout.write(dumps({"grid": args.grid, "residual": residual}))
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
    tol_help = "tolerance, relative to the coefficients' Frobenius norm for trace_preserving, symmetric and haar_trace"
    tol_help += ", absolute for coassociative (the Frobenius norm of its 8x8 residuals, decided exactly near tol) and q_purity"
    p.add_argument("--tol", type=float, default=TOL_ALG, help=tol_help)
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
