"""Byte-for-byte CLI outputs on fixed inputs.

tests/golden/ holds the operator configs (the catalog entries as `catalog
NAME` prints them, and the configs the other CLI tests build), and for each
command line the stdout (CASE.out) and the exit code and stderr
(status.json) the CLI gave when the files were written.  Any change to a
report, a verdict, a number's last digit or a trajectory row fails here.
After a deliberate output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
CATALOG = ("delta0", "delta1", "linear")
CHECKS = (("inspect",),) + tuple(("certify", "--expect", e) for e in ("pure", "impure", "positive", "nonpositive"))
# (case, config, simulate arguments): a chaotic sphere orbit, an interior orbit
# that flushes to zero and stops early, no step at all, an orbit that
# overflows (exit 1), an orbit that lands on a fixed point and the identity map.
SIMULATIONS = (
    ("delta0.simulate", "delta0", ("--f0", "0.6,0.8,0")),
    ("delta0.simulate-interior", "delta0", ("--f0", "0.5,0.3,0.1")),
    ("delta0.simulate-steps0", "delta0", ("--f0", "0.6,0.8,0", "--steps", "0")),
    ("delta0.simulate-overflow", "delta0", ("--f0", "0.6,0.8,0", "--steps", "70")),
    ("delta1.simulate-sphere", "delta1", ("--f0", "0,1,0")),
    ("linear.simulate", "linear", ("--f0", "0.3,-0.4,0.5")),
)


def _built_configs() -> dict:
    """The non-catalog inputs: those tests/test_cli.py builds."""
    from conftest import admission_bound_config

    configs = {
        "flat": {"B1": [[0.6, 0, 0], [0, 0.6, 0], [0, 0, 0]], "B2": [[0, 0, 0], [0, 0, 0], [0, 0, 0.8]]},
        # g(u) = 0.8 u3 + 0.6 |(u1, u2)| is 1 on a circle: marginal at the vertex cap
        "flat_offset": {"b": [0, 0, 0.8], "B1": [[0.6, 0, 0], [0, 0.6, 0], [0, 0, 0]]},
        "broken_trace": {"b": [0.1, 0, 0]},
        # delta1 with a cross term 1e-6 orthogonal to its image: q-pure to 1e-12
        "delta1_tilted": {"T": [[[0, 0, 1], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [1e-6, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]},
    }
    for pattern in ("plus", "minus", "random"):
        configs[f"bound_{pattern}"] = admission_bound_config(pattern)
    return configs


def cases() -> list:
    """(case name, argv) of every golden command line."""
    names = list(CATALOG) + sorted(_built_configs())
    out = [(f"{name}.{'-'.join(c[0::2])}", [c[0], str(GOLDEN / f"{name}.json"), *c[1:]]) for name in names for c in CHECKS]
    out += [(case, ["simulate", str(GOLDEN / f"{name}.json"), *args]) for case, name, args in SIMULATIONS]
    return out


def run(capsys, argv: list) -> tuple:
    from blochquad.cli import main

    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _expected(case: str) -> tuple:
    status = json.loads((GOLDEN / "status.json").read_text())[case]
    return status["exit"], (GOLDEN / f"{case}.out").read_text(), status["stderr"]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_config_is_unchanged(capsys, name):
    assert run(capsys, ["catalog", name]) == (0, (GOLDEN / f"{name}.json").read_text(), "")


@pytest.mark.parametrize("case,argv", cases(), ids=[c[0] for c in cases()])
def test_cli_output_is_unchanged(capsys, case, argv):
    assert run(capsys, argv) == _expected(case)


def write() -> None:
    """Rewrite every golden file from the program on sys.path."""
    import contextlib
    import io

    from blochquad.cli import main

    def capture(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    for name in CATALOG:
        code, out, _ = capture(["catalog", name])
        assert code == 0
        (GOLDEN / f"{name}.json").write_text(out)
    for name, config in _built_configs().items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(config) + "\n")
    status = {}
    for case, argv in cases():
        code, out, err = capture(argv)
        (GOLDEN / f"{case}.out").write_text(out)
        status[case] = {"exit": code, "stderr": err}
    (GOLDEN / "status.json").write_text(json.dumps(status, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    write()
