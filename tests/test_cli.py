import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blochquad import DeltaCoefficients, catalog, cli, check_positivity, induced_qmap, sampling, sphere_deviation
from blochquad.channel import basis_images
from blochquad.cli import (
    ConfigError,
    _build_parser,
    _parse_args,
    config_dict,
    dumps_config,
    dumps_conjugacy,
    dumps_inspection,
    inspection_report,
    load_config,
    main,
    parse_config,
)
from blochquad.purity import MC_PASS_DEVIATION
from conftest import admission_bound_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_catalog_config(tmp_path, capsys, name):
    code, out, _ = run_cli(capsys, "catalog", name)
    assert code == 0
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    return path


def test_config_round_trip():
    for entry in catalog.entries():
        text = dumps_config(config_dict(entry.delta))
        parsed = parse_config(text)
        assert np.array_equal(parsed.T, entry.delta.T)
        assert np.array_equal(parsed.B1, entry.delta.B1)


def test_parse_config_defaults_missing_fields_to_zero():
    d = parse_config("{}")
    assert np.array_equal(d.b, np.zeros(3))
    assert np.array_equal(d.T, np.zeros((3, 3, 3)))


def test_parse_config_diagnostics():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match=r"b\[1\]"):
        parse_config('{"b": [0, "x", 0]}')
    with pytest.raises(ConfigError, match="expected a list of 3"):
        parse_config('{"B1": [[0,0,0],[0,0,0]]}')
    with pytest.raises(ConfigError, match="non-finite"):
        parse_config('{"b": [0, NaN, 0]}')
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config('{"Q": 1}')
    with pytest.raises(ConfigError, match=r"T\[0\]\[0\]"):
        parse_config('{"T": [[[0,0],[0,0,0],[0,0,0]],'
                     '[[0,0,0],[0,0,0],[0,0,0]],[[0,0,0],[0,0,0],[0,0,0]]]}')


def config_error(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return str(exc.value)


def test_parse_config_names_the_offending_entry():
    # JSON true is a bool, which float() would take as 1.0
    assert config_error('{"b": [true, 0, 0]}') == "b[0]: expected a number, got True"
    T = np.zeros((3, 3, 3)).tolist()
    T[2][1][0] = "x"
    assert config_error(json.dumps({"T": T})) == "T[2][1][0]: expected a number, got 'x'"
    T[2][1][0] = [0]
    assert config_error(json.dumps({"T": T})) == "T[2][1][0]: expected a number, got [0]"
    assert config_error('{"B1": [[0, 0, 0], [0, 0, 1%s], [0, 0, 0]]}' % ("0" * 400)) == (
        "B1[1][2]: number beyond the double range"
    )
    assert config_error('{"B2": [[0, 0, 0], 0, [0, 0, 0]]}') == "B2[1]: expected a list of 3 entries"
    assert config_error('{"b": [0, 0]}') == "b: expected a list of 3 entries"
    assert config_error('{"b": [0.5, 0, 0], "b": [0, 0, 0]}') == "duplicate field 'b'"


def test_parse_config_leaf_diagnostics():
    # finite floats skip the per-entry check; every other leaf still gets its message
    assert config_error('{"B1": [[1e400, 0, 0], [0, 0, 0], [0, 0, 0]]}') == "B1[0][0]: non-finite number"
    assert config_error('{"T": [[[0, 0, 0], [0, 0, 0], [0, 0, -1e400]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]],'
                        ' [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]}') == "T[0][2][2]: non-finite number"
    assert config_error('{"b": [0.5, null, 0]}') == "b[1]: expected a number, got None"
    d = parse_config('{"B1": [[1, 0.5, 0], [0, 2, 0], [0, 0, -3]]}')  # integers are numbers
    assert np.array_equal(d.B1, [[1.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -3.0]])


def test_integral_leaves_parse_as_their_float_form():
    # catalog configs print integral entries as 0 / 1 / -1: the int form and the
    # float form of the same config give the same blocks, bit for bit
    golden = Path(__file__).parent / "golden"
    assert "[0, 1, 0]" in (golden / "delta0.json").read_text()
    texts = [path.read_text() for path in sorted(golden.glob("*.json")) if path.name != "status.json"]
    texts.append('{"b": [0, 1, -1], "B1": [[%d, 0, 0], [0, 0, 0], [0, 0, 0]]}' % 10**150)
    for text in texts:
        as_floats = json.dumps(json.loads(text, parse_int=float))
        got, expected = parse_config(text), parse_config(as_floats)
        for block in ("b", "B1", "B2", "T"):
            assert getattr(got, block).tobytes() == getattr(expected, block).tobytes()
    # an int beyond the double range, and a bool, still get their messages
    assert config_error('{"b": [0, %d, 0]}' % -10**309) == "b[1]: number beyond the double range"
    assert config_error('{"T": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, false, 0], [0, 0, 0]],'
                        ' [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]}') == "T[1][1][1]: expected a number, got False"


def test_inspect_names_the_offending_entry(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text('{"b": [true, 0, 0]}')
    assert run_cli(capsys, "inspect", str(path)) == (1, "", f"error: {path}: b[0]: expected a number, got True\n")


GOLDEN_CONFIGS = sorted(path for path in (Path(__file__).parent / "golden").glob("*.json") if path.name != "status.json")


def _front_door_configs():
    """Config texts: the goldens, 200 random ones written with repr floats, and integral, signed-zero and partial ones."""
    texts = [path.read_text() for path in GOLDEN_CONFIGS]
    rng = np.random.default_rng(22)
    shapes = {"b": (3,), "B1": (3, 3), "B2": (3, 3), "T": (3, 3, 3)}
    for _ in range(200):
        fields = {}
        for name, shape in shapes.items():
            if rng.random() < 0.85:  # some fields missing
                values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 150, size=shape)
                fields[name] = values.tolist()
        texts.append(json.dumps(fields))  # json.dumps writes each float as its repr
    texts += [
        '{"b": [0, 1, -1], "B1": [[2, 0, 0], [0, 3, 0], [0, 0, -4]]}',
        '{"B2": [[-0.0, 0, -0], [0.0, -0.0, 0], [0, 0, -0.0]], "T": [[[-0.0, 0, 0], [0, 0, 0], [0, 0, 0]], '
        '[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, -0.0]]]}',
        '{"b": [%d, 0.5, -%d], "T": [[[%d, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]], '
        '[[0, 0, 0], [0, 0, 0], [0, 0, %d]]]}' % (10**150, 10**150, 10**150, -(10**150)),
        '{"B1": [[%d, 0, 0], [0, 0, 0], [0, 0, 0]]}' % 10**150,
        "{}",
        '{"T": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]}',
    ]
    return texts


def test_load_config_gives_the_blocks_of_json_loads_and_the_constructor(tmp_path):
    # one read, one walk and one admission of all 48 entries give, bit for bit,
    # what json.loads and a block-by-block admission give
    path = tmp_path / "op.json"
    for text in _front_door_configs():
        path.write_text(text)
        got, expected = load_config(str(path)), DeltaCoefficients(**json.loads(text))
        for block in ("b", "B1", "B2", "T"):
            assert getattr(got, block).tobytes() == getattr(expected, block).tobytes(), (block, text)
            assert not getattr(got, block).flags.writeable


@pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=[path.stem for path in GOLDEN_CONFIGS])
def test_crlf_and_lone_cr_configs_inspect_as_the_golden(tmp_path, capsys, config):
    # a text-mode read translates both line ends to \n, and so does load_config
    expected = run_cli(capsys, "inspect", str(config))
    assert expected[1] == (config.parent / f"{config.stem}.inspect.out").read_text()
    for name, end in (("crlf", b"\r\n"), ("cr", b"\r")):
        copy = tmp_path / f"{name}.json"
        copy.write_bytes(config.read_bytes().replace(b"\n", end))
        assert run_cli(capsys, "inspect", str(copy)) == expected


def test_config_errors_keep_their_messages(tmp_path, capsys):
    delta0 = Path(__file__).parent / "golden" / "delta0.json"
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + delta0.read_bytes())
    assert run_cli(capsys, "inspect", str(bom)) == (
        1, "", f"error: {bom}: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
    )
    assert run_cli(capsys, "inspect", str(tmp_path)) == (1, "", f"error: {tmp_path}: Is a directory\n")
    missing = tmp_path / "missing.json"
    assert run_cli(capsys, "inspect", str(missing)) == (1, "", f"error: {missing}: No such file or directory\n")
    T = np.zeros((3, 3, 3))
    T[1, 2, 0] = 1e200
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"b": [0.5, 0, 0], "T": T.tolist()}))
    assert run_cli(capsys, "inspect", str(huge)) == (
        1, "", f"error: {huge}: T: entries must be numbers of magnitude at most 1e+150, "
        "or their products overflow double precision\n"
    )
    # json counts lines by \n only, so the error's line number needs the read's translation
    syntax = tmp_path / "syntax.json"
    syntax.write_bytes(b'{\r"b": [0, 0, 0],\r"B1": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],\r"T": [[[0, 0, 0], [0, 0, 0], [0, 0,  ]]]}')
    assert run_cli(capsys, "inspect", str(syntax)) == (1, "", f"error: {syntax}: line 4, column 38: Expecting value\n")


def test_a_config_that_is_not_utf8_is_named_by_its_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"b": [0, 0, 0\xff]}')
    assert run_cli(capsys, "inspect", str(path)) == (
        1, "", f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n"
    )


def test_inspection_report_does_not_depend_on_the_cache(tmp_path, capsys):
    # the report of an operator whose images, map and verdicts were already
    # derived equals the report of a fresh one, and a second report the first
    for entry in catalog.entries():
        text = dumps_config(config_dict(entry.delta))
        fresh = dumps_inspection(inspection_report(parse_config(text), tol=1e-9))
        warm = parse_config(text)
        basis_images(warm)
        induced_qmap(warm)
        check_positivity(warm)
        assert dumps_inspection(inspection_report(warm, tol=1e-9)) == fresh
        assert dumps_inspection(inspection_report(warm, tol=1e-9)) == fresh


def test_inspect_delta0(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta0")
    code, out, _ = run_cli(capsys, "inspect", str(path), "--samples", "1000")
    assert code == 0
    report = json.loads(out)
    assert report["trace_preserving"] is True
    assert report["symmetric"] is True
    assert report["haar_trace"] is True
    assert report["q_purity"]["certificate"]["verdict"] is True
    lower, upper = report["q_purity"]["sphere_deviation"]
    assert lower == 0.0 and upper <= MC_PASS_DEVIATION
    assert report["positivity"]["verdict"] is False
    assert report["positivity"]["witness"]["min_eigenvalue"] == pytest.approx(-2.0)


def test_inspect_linear_config(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "linear")
    code, out, _ = run_cli(capsys, "inspect", str(path), "--samples", "1000")
    assert code == 0
    report = json.loads(out)
    assert report["q_purity"]["certificate"]["verdict"] is True
    assert report["positivity"]["verdict"] is True
    assert "witness" not in report["positivity"]


def test_inspect_reports_broken_trace_preservation(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text('{"b": [0.1, 0, 0]}')
    code, out, _ = run_cli(capsys, "inspect", str(path), "--samples", "100")
    assert code == 0
    assert json.loads(out)["trace_preserving"] is False


def test_inspect_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"T": "oops"}')
    code, _, err = run_cli(capsys, "inspect", str(path))
    assert code == 1
    assert "T" in err
    code, _, err = run_cli(capsys, "inspect", str(tmp_path / "missing.json"))
    assert code == 1


def test_inspect_refuses_overflowing_operator(tmp_path, capsys):
    # coefficients whose products overflow are refused at load: no verdict, no report
    T = np.zeros((3, 3, 3))
    T[0, 1, :] = 1.7e308
    T[1, 0, :] = -1.7e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"T": T.tolist()}))
    code, out, err = run_cli(capsys, "inspect", str(path), "--samples", "100")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "T: " in err and "overflow" in err


def test_inspect_refuses_non_finite_report_fields(tmp_path, capsys):
    # |a|^2 would overflow in the purity bound: refused at load, no "inf" in a report
    T = np.zeros((3, 3, 3))
    T[0, 0, 0] = 1e160
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"T": T.tolist()}))
    code, out, err = run_cli(capsys, "inspect", str(path), "--samples", "100")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "T: " in err and "overflow" in err


@pytest.mark.parametrize("pattern", ["plus", "minus", "random"])
def test_inspect_and_certify_at_the_admission_bound(tmp_path, capsys, pattern):
    # every entry at +-1e150: each check runs to a verdict without a RuntimeWarning
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(admission_bound_config(pattern)))
    runs = [("inspect",)] + [("certify", "--expect", e) for e in ("pure", "positive")]
    for command in runs:
        code, out, _ = run_cli(capsys, command[0], str(path), *command[1:], "--samples", "200")
        assert code in (0, 2)
        json.loads(out)


def test_writers_name_a_non_finite_field():
    assert dumps_conjugacy(3, 1.0) == '{\n  "grid": 3,\n  "residual": 1\n}\n'
    assert dumps_conjugacy(3, 2.5) == '{\n  "grid": 3,\n  "residual": 2.5\n}\n'
    with pytest.raises(ValueError, match="^report field /residual is nan, which JSON cannot hold$"):
        dumps_conjugacy(3, float("nan"))
    report = inspection_report(catalog.get("delta1").delta, tol=1e-9)
    report["positivity"]["witness"]["w"] = [1.0, float("nan"), 0.0]
    with pytest.raises(ValueError, match="^report field /positivity/witness/w/1 is nan, which JSON cannot hold$"):
        dumps_inspection(report)
    report["q_purity"]["sphere_deviation"] = (0.0, -np.inf)
    with pytest.raises(ValueError, match="^report field /q_purity/sphere_deviation/1 is -inf, which JSON"):
        dumps_inspection(report)


def test_inspect_matches_library_verdicts(tmp_path, capsys):
    # round-trip: exported config reproduces the in-memory verdicts
    path = write_catalog_config(tmp_path, capsys, "delta0")
    code, out, _ = run_cli(capsys, "inspect", str(path))
    report = json.loads(out)
    d = catalog.get("delta0").delta
    assert report["q_purity"]["sphere_deviation"] == list(sphere_deviation(induced_qmap(d)))
    pos = check_positivity(d)
    assert report["positivity"]["min_eigenvalue"] == list(pos.interval)


def test_inspect_is_deterministic(tmp_path, capsys):
    # --samples and --seed are accepted and ignored: the report depends on the config alone
    path = write_catalog_config(tmp_path, capsys, "delta0")
    _, first, _ = run_cli(capsys, "inspect", str(path), "--seed", "1")
    _, second, _ = run_cli(capsys, "inspect", str(path), "--seed", "2", "--samples", "5")
    _, plain, _ = run_cli(capsys, "inspect", str(path))
    assert first == second == plain


def test_commands_draw_no_random_numbers(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a random number generator was built")

    monkeypatch.setattr(sampling, "generator", refuse)
    for entry in catalog.entries():
        path = write_catalog_config(tmp_path, capsys, entry.name)
        code, out, _ = run_cli(capsys, "inspect", str(path), "--samples", "100", "--seed", "3")
        assert code == 0
        json.loads(out)
        for expect in ("pure", "positive"):
            assert run_cli(capsys, "certify", str(path), "--expect", expect, "--seed", "3")[0] in (0, 2)


def test_simulate_target_map(tmp_path, capsys):
    config = tmp_path / "d1.json"
    t = catalog.get("delta1").delta
    config.write_text(dumps_config(config_dict(t)))
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "simulate", str(config), "--f0", "0,1,0", "--steps", "5",
        "--out", str(out_csv),
    )
    assert code == 0
    assert "classification=fixed" in out
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "n,f1,f2,f3,norm"
    assert rows[2].startswith("1,0,0,1,")  # lands on t after one step


def test_simulate_collapse_norm_column(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta0")
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "simulate", str(path), "--f0", "0.9,0,0", "--steps", "40",
        "--out", str(out_csv),
    )
    assert code == 0
    assert "classification=collapsed" in out
    rows = out_csv.read_text().splitlines()[1:]
    # row 12 is 0.9**4096 ~ 3.8e-188, above the 1e-300 flush floor; row 13 is not
    assert len(rows) == 14
    for n, row in enumerate(rows[:13]):
        norm = float(row.split(",")[4])
        assert norm == pytest.approx(0.9 ** (2.0**n), rel=1e-9)
    assert rows[13] == "13,0,0,0,0"


def test_simulate_absorbing_circle(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta0")
    code, out, _ = run_cli(capsys, "simulate", str(path), "--f0", "0,0.6,0.8", "--steps", "5")
    assert code == 0
    rows = out.splitlines()[1:]
    for row in rows[1:]:
        assert row.split(",")[1:4] == ["0", "-1", "0"]


@pytest.mark.parametrize(
    "config, f0, steps, step",
    [
        (None, "0.6,0.8,0", "70", 65),  # delta0 off its invariant circle, after float drift
        ({"T": [[[2, 0, 0], [0, 0, 0], [0, 0, 0]], [[0] * 3] * 3, [[0] * 3] * 3]}, "0.9,0,0", "20", 11),
    ],
)
def test_simulate_fails_closed_on_an_overflowing_orbit(tmp_path, capsys, config, f0, steps, step):
    # exit 1 with the step named, no CSV row and no RuntimeWarning (pytest would raise one)
    if config is None:
        path = write_catalog_config(tmp_path, capsys, "delta0")
    else:
        path = tmp_path / "grow.json"
        path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", str(path), "--f0", f0, "--steps", steps)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"at step {step} " in err
    assert "Warning" not in err and err.count("\n") == 1
    out_csv = tmp_path / "orbit.csv"
    code, out, err = run_cli(capsys, "simulate", str(path), "--f0", f0, "--steps", steps, "--out", str(out_csv))
    assert (code, out) == (1, "") and not out_csv.exists()


def test_simulate_refuses_a_negative_step_count(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta0")
    code, out, err = run_cli(capsys, "simulate", str(path), "--f0", "0.6,0.8,0", "--steps", "-3")
    assert (code, out, err) == (1, "", "error: steps must be at least 0, got -3\n")
    out_csv = tmp_path / "orbit.csv"
    code, out, err = run_cli(capsys, "simulate", str(path), "--f0", "0.6,0.8,0", "--steps", "-3", "--out", str(out_csv))
    assert (code, out) == (1, "") and not out_csv.exists()
    code, out, _ = run_cli(capsys, "simulate", str(path), "--f0", "0.6,0.8,0", "--steps", "0")
    assert code == 0 and out.splitlines() == ["n,f1,f2,f3,norm", "0,0.59999999999999998,0.80000000000000004,0,1"]


def test_simulate_reports_an_output_file_it_cannot_open(tmp_path, capsys):
    # exit 1 with the path and the reason, as for a config that cannot be read, and no traceback
    path = write_catalog_config(tmp_path, capsys, "delta0")
    unopenable = ((tmp_path / "missing" / "orbit.csv", "No such file or directory"), (tmp_path, "Is a directory"))
    for out_csv, reason in unopenable:
        code, out, err = run_cli(capsys, "simulate", str(path), "--f0", "0.6,0.8,0", "--out", str(out_csv))
        assert (code, out, err) == (1, "", f"error: {out_csv}: {reason}\n")


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_inspect_refuses_a_tolerance_that_is_not_finite_and_non_negative(tmp_path, capsys, tol):
    # at --tol inf a broken operator would read trace-preserving, Haar-traced and q-pure
    path = tmp_path / "op.json"
    path.write_text('{"b": [0.1, 0, 0]}')
    code, out, err = run_cli(capsys, "inspect", str(path), "--tol", tol)
    assert (code, out) == (1, "")
    assert err.startswith("error: --tol ") and err.count("\n") == 1


def test_inspect_accepts_a_zero_tolerance(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text('{"b": [0.1, 0, 0]}')
    code, out, _ = run_cli(capsys, "inspect", str(path), "--tol", "0")
    report = json.loads(out)
    assert code == 0 and report["trace_preserving"] is False and report["haar_trace"] is False


@pytest.mark.parametrize("module", ["blochquad", "blochquad.cli"])
def test_python_dash_m_runs_the_command_line(module):
    # no installed console script needed: the package runs from src/
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", module, "catalog", "delta0"], env=env, capture_output=True, text=True, check=False
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (root / "tests" / "golden" / "delta0.json").read_text()


def test_simulate_rejects_bad_start(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta0")
    code, _, err = run_cli(capsys, "simulate", str(path), "--f0", "1.5,0,0")
    assert code == 1
    code, _, err = run_cli(capsys, "simulate", str(path), "--f0", "1,2")
    assert code == 1


def test_certify_expectations(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta0")
    assert run_cli(capsys, "certify", str(path), "--expect", "pure", "--samples", "100")[0] == 0
    assert run_cli(capsys, "certify", str(path), "--expect", "positive", "--samples", "100")[0] == 2
    assert run_cli(capsys, "certify", str(path), "--expect", "nonpositive", "--samples", "100")[0] == 0

    linear = write_catalog_config(tmp_path, capsys, "linear")
    assert run_cli(capsys, "certify", str(linear), "--expect", "positive", "--samples", "500")[0] == 0
    assert run_cli(capsys, "certify", str(linear), "--expect", "pure", "--samples", "100")[0] == 0
    assert run_cli(capsys, "certify", str(linear), "--expect", "impure", "--samples", "100")[0] == 2


def test_a_map_pure_to_second_order_reads_pure(capsys):
    # delta1 with T[1][2] = (1e-6, 0, 0): |V|^2 - 1 moves by 1e-12, while the
    # paper's equation |B| = |b - c| is off by 1e-6
    path = Path(__file__).parent / "golden" / "delta1_tilted.json"
    assert json.loads(path.read_text())["T"][1][2] == [1e-6, 0, 0]
    code, out, _ = run_cli(capsys, "inspect", str(path))
    q_purity = json.loads(out)["q_purity"]
    assert code == 0 and q_purity["certificate"]["verdict"] is True
    assert q_purity["sphere_deviation"][1] <= 1e-12
    assert run_cli(capsys, "certify", str(path), "--expect", "pure")[0] == 0
    assert run_cli(capsys, "certify", str(path), "--expect", "impure")[0] == 2


def test_marginal_purity_in_reports(tmp_path, capsys):
    # delta0 with a scaled until the upper end of the sphere deviation just
    # exceeds the tolerance, its lower end below it: inspect reports a null
    # verdict; certify exits 2 whatever it expected and says why on stderr
    from test_purity import band_map

    v = band_map()
    T = np.array(config_dict(catalog.get("delta0").delta)["T"])
    T[0, 0] = v.a  # the induced map's a
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"T": T.tolist()}))
    assert induced_qmap(load_config(str(path))).a.tolist() == v.a.tolist()
    code, out, _ = run_cli(capsys, "inspect", str(path))
    q_purity = json.loads(out)["q_purity"]
    assert code == 0 and q_purity["certificate"]["verdict"] is None
    lower, upper = q_purity["sphere_deviation"]
    assert lower <= 1e-9 < upper
    for expect in ("pure", "impure"):
        code, out, err = run_cli(capsys, "certify", str(path), "--expect", expect)
        assert code == 2
        detail = json.loads(out)
        assert detail["actual"] == "marginal" and detail["verdict"] is None and detail["match"] is False
        assert err == f"q-purity undecided: the sphere deviation lies in [{lower:.3e}, {upper:.3e}], across the tolerance 1e-09\n"


def test_marginal_positivity_in_reports(tmp_path, capsys):
    # g(u) = 0.6 |(u1, u2)| + 0.8 |u3| reaches 1 on a whole circle: the proof
    # runs out of vertices.  inspect reports a null verdict and the interval;
    # certify exits 2 whatever it expected and says why on stderr.
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"B1": np.diag([0.6, 0.6, 0.0]).tolist(), "B2": np.diag([0.0, 0.0, 0.8]).tolist()}))
    code, out, _ = run_cli(capsys, "inspect", str(path), "--samples", "100")
    assert code == 0
    positivity = json.loads(out)["positivity"]
    assert positivity["verdict"] is None and "witness" not in positivity
    lower, upper = positivity["min_eigenvalue"]
    assert lower <= 0.0 <= upper
    for expect in ("positive", "nonpositive"):
        code, out, err = run_cli(capsys, "certify", str(path), "--expect", expect)
        assert code == 2
        detail = json.loads(out)
        assert detail["actual"] == "marginal" and detail["verdict"] is None
        assert detail["min_eigenvalue"] == [lower, upper]
        assert "vertex cap" in err


def test_catalog_listing_and_unknown(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == ["delta0", "delta1", "linear"]
    code, _, err = run_cli(capsys, "catalog", "nosuch")
    assert code == 1
    assert "nosuch" in err


def test_conjugacy_command(capsys):
    code, out, _ = run_cli(capsys, "conjugacy")
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-12
    code, out, _ = run_cli(capsys, "conjugacy", "--grid", "2")
    assert code == 0
    assert json.loads(out)["residual"] == 0.0


def test_main_builds_one_parser(capsys, monkeypatch):
    # one parser and one action table per process, whichever way each line is read
    tables = []
    build_table = cli._action_table
    monkeypatch.setattr(cli, "_action_table", lambda commands: tables.append(commands) or build_table(commands))
    _build_parser.cache_clear()
    run_cli(capsys, "catalog")  # read off the table
    run_cli(capsys, "conjugacy", "--grid", "2")
    run_cli(capsys, "conjugacy", "--grid", "2", "--grid", "3")  # read by the full parser
    info = _build_parser.cache_info()
    assert (info.misses, info.currsize, len(tables)) == (1, 1, 1)


def test_rejected_command_line_leaves_the_parser_unchanged(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta1")
    valid = ("simulate", str(path), "--f0", "0.6,0,0.8", "--steps", "3")
    _build_parser.cache_clear()
    fresh = run_cli(capsys, *valid)  # on a newly built parser
    rejected = [
        ("simulate", str(path)),  # missing --f0
        ("simulate", str(path), "--f0", "1,0,0", "--steps", "x"),
        ("certify", str(path), "--expect", "sure"),
        ("nosuch",),
        (),
    ]
    for argv in rejected:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: blochquad")
        assert run_cli(capsys, *valid) == fresh


def help_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [[], ["inspect"], ["simulate"], ["certify"], ["catalog"], ["conjugacy"]])
def test_help_text_matches_a_fresh_parser(capsys, command):
    argv = [*command, "--help"]
    fresh = help_text(capsys, _build_parser.__wrapped__().parse_args, argv)
    assert fresh.startswith("usage: blochquad")
    assert help_text(capsys, main, argv) == fresh
    assert help_text(capsys, main, argv) == fresh


GOLDEN = Path(__file__).resolve().parent / "golden"


def reference_main(argv):
    """main() as it reads a command line through a freshly built full parser."""
    args = _build_parser.__wrapped__().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def outcome(capsys, command, argv):
    try:
        code = command(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return str(GOLDEN / f"{name}.json")


# Command lines that _read_plain reads off the action table, without argparse.
PLAIN_COMMAND_LINES = [
    ["inspect", golden("linear")],
    ["inspect", golden("delta1"), "--tol", "1e-6", "--samples", "100", "--seed", "3"],
    ["inspect", golden("delta0"), "--tol=-1"],
    ["simulate", golden("delta0"), "--f0=0.6,0.8,0"],
    ["simulate", golden("delta0"), "--f0", "0.6,0.8,0"],
    ["simulate", golden("delta1"), "--f0", "0,0,1", "--steps", "3"],
    ["simulate", golden("delta0"), "--f0=0.6,0.8,0", "--steps", "70"],
    ["simulate", golden("delta0"), "--f0", "1.5,0,0"],
    ["simulate", golden("delta0"), "--f0", "1,2"],
    ["certify", golden("delta0"), "--expect", "pure"],
    ["certify", golden("delta1"), "--expect=positive"],
    ["certify", golden("flat"), "--expect", "nonpositive"],
    ["catalog"],
    ["catalog", "delta1"],
    ["catalog", "nosuch"],
    ["conjugacy", "--grid", "3"],
    ["conjugacy", "--grid=1"],
]
ROUTED_COMMAND_LINES = PLAIN_COMMAND_LINES + [
    # an abbreviation, a repeated option, values that start with "-" and "--"
    ["certify", golden("linear"), "--exp", "positive"],
    ["inspect", golden("linear"), "--seed", "1", "--seed", "2"],
    ["inspect", golden("linear"), "--tol", "-1"],
    ["simulate", golden("delta0"), "--f0", "-0.6,-0.8,0"],
    ["catalog", "--", "delta1"],
    # help at every level, and command lines the parser refuses
    ["--help"],
    ["-h", "inspect"],
    ["inspect", "--help"],
    ["simulate", "-h"],
    ["certify", "--help"],
    ["catalog", "--help"],
    ["conjugacy", "--help"],
    [],
    ["nosuch"],
    ["nosuch", golden("linear")],
    ["--grid", "3"],
    ["inspect"],
    ["inspect", golden("linear"), "--bogus"],
    ["inspect", golden("linear"), "extra"],
    ["catalog", "delta0", "delta1"],
    ["simulate", golden("delta0")],
    ["simulate", golden("delta0"), "--f0", "1,0,0", "--steps", "x"],
    ["certify", golden("delta0"), "--expect", "sure"],
    ["certify", golden("delta0"), "--expect", "pure", "--samples", "x"],
]


@pytest.mark.parametrize("argv", ROUTED_COMMAND_LINES, ids=lambda argv: " ".join(map(os.path.basename, argv)) or "none")
def test_main_reads_a_command_line_as_the_full_parser_does(capsys, argv):
    # a sub-command's parser reads its own arguments; exit code, stdout and
    # stderr must be those of the full parser, refusals and help included
    expected = outcome(capsys, reference_main, list(argv))
    assert outcome(capsys, main, list(argv)) == expected


def test_a_routed_command_line_gets_the_full_parsers_namespace(capsys):
    for argv in ROUTED_COMMAND_LINES:
        try:
            expected = vars(_build_parser.__wrapped__().parse_args(argv))
        except SystemExit:
            capsys.readouterr()
            continue
        assert vars(_parse_args(list(argv))) == expected


def test_the_action_table_leaves_out_positionals_argparse_may_split_otherwise(capsys):
    parser = argparse.ArgumentParser(prog="toy")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("one").add_argument("a")
    split = sub.add_parser("split")
    split.add_argument("a")
    split.add_argument("b", nargs="?")
    split.add_argument("--o")
    sub.add_parser("many").add_argument("a", nargs="*")
    assert set(cli._action_table(sub.choices)) == {"one"}
    # filled in order, X --o v Y would give b = Y; argparse gives b its default at --o and refuses Y
    with pytest.raises(SystemExit):
        parser.parse_args(["split", "X", "--o", "v", "Y"])
    assert "unrecognized arguments: Y" in capsys.readouterr().err


def perfbench_lines():
    """Command lines of the shapes perfbench's client sends: inspect, certify and simulate on a config."""
    for config, seed in zip(["linear", "delta0", "delta1"], ["0", "1234567", "2147483647"]):
        yield ["inspect", golden(config), "--seed", seed]
        for expect in ("pure", "impure", "positive", "nonpositive"):
            yield ["certify", golden(config), "--expect", expect, "--seed", seed]
        for f0 in ((0.6, 0.8, 0.0), (-0.6, -0.8, 1e-4), (0.0, 0.0, -1.0), (-1e-3, 0.25, -0.5)):
            yield ["simulate", golden(config), "--f0=" + ",".join(repr(x) for x in f0)]


def test_a_plain_command_line_reaches_no_argparse_parse(capsys, monkeypatch):
    # plain lines are read off the action table: no parser, neither the full
    # one nor a sub-command's, parses them; every other line is the full parser's
    parses = []

    def spy(name):
        method = getattr(argparse.ArgumentParser, name)
        return lambda parser, *args, **kwargs: parses.append((parser.prog, name)) or method(parser, *args, **kwargs)

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, spy(name))
    for argv in [*perfbench_lines(), *PLAIN_COMMAND_LINES]:
        assert isinstance(outcome(capsys, main, list(argv))[0], int)
    assert parses == []
    for argv in (["inspect", golden("linear"), "--bogus"], ["nosuch"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert parses[0] == ("blochquad", "parse_args")


# The token alphabet of the equivalence test, read off a fresh parser so that it grows with the grammar.
SUB_PARSERS = next(action for action in _build_parser.__wrapped__()._actions if action.dest == "command").choices
OPTION_STRINGS = sorted({string for command in SUB_PARSERS.values() for action in command._actions for string in action.option_strings})
# Relative paths, to copies in the test's working directory, so that --out writes there whatever it names.
CONFIGS = ["linear", "delta0", "delta1"]
VALUE = st.sampled_from([
    *[f"{name}.json" for name in CONFIGS], "nosuch.json", "out.csv", ".", "",
    "3", "0", "70", "1e-6", "x", "-1", "-0.5", "-inf",
    "pure", "impure", "positive", "nonpositive", "sure", "delta1", "nosuch",
    "0.6,0.8,0", "-0.6,-0.8,0", "0,0,1", "1,2", "1.5,0,0",
])
OPTION = st.sampled_from(OPTION_STRINGS)
TOKEN = st.one_of(
    st.sampled_from([*SUB_PARSERS, *OPTION_STRINGS, "--", "-", "--bogus", "extra", "-x y"]),
    VALUE,
    OPTION.flatmap(lambda string: st.integers(1, len(string)).map(lambda k: string[:k])),  # abbreviations
    st.tuples(OPTION, VALUE).map("=".join),
)


def typed_value(action):
    """Values for action: mostly of its type or in its choices, and some that are not."""
    if action.choices is not None:
        return st.sampled_from([*action.choices, "sure"])
    if action.type is int:
        return st.sampled_from(["3", "0", "70", "x", "-1"])
    if action.type is float:
        return st.sampled_from(["1e-6", "0", "3", "x", "-0.5"])
    return VALUE


def given_once(actions, value):
    """Units of at most three distinct actions, each an option string of it and a value that value(action) draws, as two
    tokens or joined by "="."""
    if not actions:
        return st.just([])
    unit = lambda action: st.tuples(st.sampled_from(action.option_strings), value(action)).flatmap(
        lambda pair: st.sampled_from([list(pair), ["=".join(pair)]])
    )
    return st.lists(st.sampled_from(actions), max_size=3, unique=True).flatmap(lambda drawn: st.tuples(*map(unit, drawn)).map(list))


def singles(tokens, max_size):
    """Units of one token each."""
    return st.lists(tokens.map(lambda token: [token]), max_size=max_size)


def any_order(first, *units):
    """Lines of the first token, then the units that each of units draws, in any order."""
    rest = st.tuples(*units).flatmap(lambda drawn: st.permutations([unit for part in drawn for unit in part]))
    return st.tuples(first, rest).map(lambda line: [line[0], *[token for unit in line[1] for token in unit]])


OPTION_ACTIONS = {name: [action for action in command._actions if action.option_strings] for name, command in SUB_PARSERS.items()}
# Any tokens; a sub-command with its own options and any tokens; and a sub-command with a value for each positional
# and its own options that take a value, most of them plain.
COMMAND_LINES = st.one_of(
    st.just([]),
    any_order(TOKEN, singles(VALUE, 2), given_once(sum(OPTION_ACTIONS.values(), []), lambda action: VALUE), singles(TOKEN, 1)),
    *[any_order(st.just(name), singles(VALUE, 2), given_once(OPTION_ACTIONS[name], typed_value), singles(TOKEN, 1)) for name in SUB_PARSERS],
    *[
        any_order(
            st.just(name),
            st.tuples(*[VALUE.map(lambda token: [token]) for action in command._actions if not action.option_strings]).map(list),
            given_once([action for action in OPTION_ACTIONS[name] if action.nargs is None], typed_value),
        )
        for name, command in SUB_PARSERS.items()
    ],
)


def parsed(capsys, parse, argv):
    """The namespace that parse reads argv to, as a dict, or its exit code and output."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=COMMAND_LINES)
def test_any_command_line_is_read_as_a_fresh_full_parser_reads_it(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    outcomes = []
    for command in (reference_main, main):
        for name in CONFIGS:  # put back any config that the other run's --out overwrote
            (tmp_path / f"{name}.json").write_bytes(Path(golden(name)).read_bytes())
        outcomes.append(outcome(capsys, command, list(argv)))
    assert outcomes[1] == outcomes[0]
    assert parsed(capsys, _parse_args, argv) == parsed(capsys, _build_parser.__wrapped__().parse_args, argv)


@pytest.mark.parametrize("argv", [["simulate", golden("delta0"), "--f0", "0.6,0.8,0"], ["inspect", golden("linear"), "--bogus"], []])
def test_main_reads_sys_argv_by_default(capsys, monkeypatch, argv):
    expected = outcome(capsys, reference_main, list(argv))
    monkeypatch.setattr(sys, "argv", ["blochquad", *argv])
    assert outcome(capsys, main, None) == expected


@pytest.mark.parametrize("f0", ["1.5,0,0", "0.7,0.8,0.1", "1e-3,1,1e-5", "-0.6,-0.8,1e-4"])
def test_simulate_prints_the_norm_of_a_start_outside_the_ball(capsys, f0):
    norm = np.linalg.norm([float(x) for x in f0.split(",")])
    assert run_cli(capsys, "simulate", golden("delta0"), f"--f0={f0}") == (1, "", f"error: --f0: norm {norm} exceeds 1\n")


def test_simulate_refuses_a_start_far_outside_the_ball_by_its_true_norm(capsys):
    # f0 @ f0 would overflow: no RuntimeWarning, and the norm is not called inf
    assert run_cli(capsys, "simulate", golden("delta0"), "--f0", "1e200,0,0") == (1, "", "error: --f0: norm 1e+200 exceeds 1\n")
