"""A recursive report serializer, kept apart from blochquad.cli.dumps as its reference.

dumps_report walks any nesting of dicts, lists, tuples, arrays and scalars:
floats with 17 significant digits, lists of numbers (bools are not numbers
here) on one line, two spaces per level.  A NaN or +-inf raises ValueError
naming its /-separated key path.  The tests require blochquad.cli.dumps to
give this text, or this error message, on every report a command builds.
"""

import json
import math

import numpy as np

# What json.dumps gives for a str, without its dispatch.
_quote = json.encoder.encode_basestring_ascii


class _Misplaced(Exception):
    """A value that does not fit where it stands; the walk back up prepends each place to path."""

    def __init__(self, problem: str, path: str = ""):
        super().__init__(problem)
        self.problem, self.path = problem, path


def _fmt(value, indent: int) -> str:
    if isinstance(value, (float, np.floating)):  # first: most leaves are floats
        if not math.isfinite(value):
            raise _Misplaced(f"is {float(value)}, which JSON cannot hold")
        return format(float(value), ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return _quote(value)
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(f"{pad}  {_quote(k)}: {text}" for k, text in _members(value.items(), indent + 1))
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool) for x in items):
            return "[" + ", ".join(text for _, text in _members(enumerate(items), 0)) + "]"
        body = ",\n".join(f"{pad}  {text}" for _, text in _members(enumerate(items), indent + 1))
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _members(pairs, indent: int):
    """(key, formatted value) of each container member; a failing member's key joins the path."""
    for key, member in pairs:
        try:
            yield key, _fmt(member, indent)
        except _Misplaced as exc:
            exc.path = f"/{key}{exc.path}"
            raise


def dumps_report(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Raises ValueError naming the field (as a /-separated key path) when a
    float is infinite or NaN, which JSON has no literal for.
    """
    try:
        return _fmt(obj, 0) + "\n"
    except _Misplaced as exc:
        raise ValueError(f"report field {exc.path or '/'} {exc.problem}") from None
