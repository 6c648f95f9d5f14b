import json

import numpy as np
import pytest

from blochquad import catalog, check_positivity, monte_carlo_sphere, induced_qmap
from blochquad.cli import ConfigError, config_dict, dumps_report, main, parse_config


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
        text = dumps_report(config_dict(entry.delta))
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


def test_inspect_delta0(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta0")
    code, out, _ = run_cli(capsys, "inspect", str(path), "--samples", "1000")
    assert code == 0
    report = json.loads(out)
    assert report["trace_preserving"] is True
    assert report["symmetric"] is True
    assert report["haar_trace"] is True
    assert report["q_purity"]["certificate"]["verdict"] is True
    assert report["q_purity"]["monte_carlo"]["max_deviation"] <= 1e-9
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
    # |a|^2 would overflow in the purity certificate: refused at load, no "inf" in a report
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
    shapes = {"b": (3,), "B1": (3, 3), "B2": (3, 3), "T": (3, 3, 3)}
    rng = np.random.default_rng(7)
    config = {}
    for name, shape in shapes.items():
        if pattern == "random":
            signs = rng.choice([-1.0, 1.0], size=shape)
        else:
            signs = np.full(shape, 1.0 if pattern == "plus" else -1.0)
        config[name] = (1e150 * signs).tolist()
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(config))
    runs = [("inspect",)] + [("certify", "--expect", e) for e in ("pure", "positive")]
    for command in runs:
        code, out, _ = run_cli(capsys, command[0], str(path), *command[1:], "--samples", "200")
        assert code in (0, 2)
        json.loads(out)


def test_dumps_report_names_non_finite_field():
    assert dumps_report({"x": [1.0, 2.5]}) == '{\n  "x": [1, 2.5]\n}\n'
    with pytest.raises(ValueError, match="/x/1 is nan"):
        dumps_report({"x": [1.0, float("nan")]})
    with pytest.raises(ValueError, match="/r/s is -inf"):
        dumps_report({"r": {"s": -np.inf}})


def test_inspect_matches_library_verdicts(tmp_path, capsys):
    # round-trip: exported config reproduces the in-memory verdicts
    path = write_catalog_config(tmp_path, capsys, "delta0")
    code, out, _ = run_cli(capsys, "inspect", str(path), "--samples", "2000", "--seed", "7")
    report = json.loads(out)
    d = catalog.get("delta0").delta
    dev, _ = monte_carlo_sphere(induced_qmap(d), samples=2000, seed=7)
    assert report["q_purity"]["monte_carlo"]["max_deviation"] == dev
    pos = check_positivity(d)
    assert report["positivity"]["min_eigenvalue"] == list(pos.interval)


def test_inspect_is_deterministic(tmp_path, capsys):
    path = write_catalog_config(tmp_path, capsys, "delta0")
    _, first, _ = run_cli(capsys, "inspect", str(path), "--samples", "500")
    _, second, _ = run_cli(capsys, "inspect", str(path), "--samples", "500")
    assert first == second


def test_simulate_target_map(tmp_path, capsys):
    config = tmp_path / "d1.json"
    t = catalog.get("delta1").delta
    config.write_text(dumps_report(config_dict(t)))
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
