"""Tests of the benchmark itself: inputs, checkers and tracer.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

from conftest import BENCH, ROOT

PAULI = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]


def _image_of_sigma(c, i):
    """Delta(sigma_i) summed term by term, independently of workloads.KRON."""
    m = c["b"][i] * np.kron(PAULI[0], PAULI[0])
    for j in range(3):
        m = m + c["B1"][j, i] * np.kron(PAULI[0], PAULI[j + 1])
        m = m + c["B2"][j, i] * np.kron(PAULI[j + 1], PAULI[0])
        for l in range(3):
            m = m + c["T"][j, l, i] * np.kron(PAULI[j + 1], PAULI[l + 1])
    return m


def _manifest(workload, seed, tmp_path):
    manifest = workloads.generate(workload, seed)
    workloads.write(manifest, str(tmp_path))
    return manifest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_inputs(workload, tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.write(workloads.generate(workload, seed), str(tmp_path / name))
    files = sorted(os.listdir(tmp_path / "a"))
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert not mismatch and not errors
    assert (tmp_path / "a" / "manifest.json").read_bytes() != (tmp_path / "c" / "manifest.json").read_bytes()


@pytest.mark.parametrize("workload", ("oracle-scan", "orbits"))
@pytest.mark.parametrize("seed", (1, 2))
def test_positive_operators_are_provably_positive(workload, seed):
    manifest = workloads.generate(workload, seed)
    positives = [e for e in manifest["operators"].values() if e["truth"]["positive"]]
    assert positives
    for entry in positives:
        c = checks.coefficients(entry["config"])
        if c["T"].any():
            # Weyl: lambda_min(1 + sum_i w_i Delta(sigma_i)) >= 1 - sum_i ||Delta(sigma_i)||.
            bound = sum(np.abs(np.linalg.eigvalsh(_image_of_sigma(c, i))).max() for i in range(3))
            assert bound <= workloads.POSITIVE_BOUND + 1e-12
        else:
            # Delta(1 + w.sigma) has eigenvalues 1 +- 2|Bw| and 1: positive iff |B| <= 1/2.
            assert np.array_equal(c["B1"], c["B2"]) and not c["b"].any()
            assert np.linalg.norm(c["B1"], 2) <= 0.5 + 1e-12


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pure_operators_preserve_the_sphere_and_others_do_not(workload):
    manifest = workloads.generate(workload, 3)
    f = np.random.default_rng(0).standard_normal((200, 3))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    for entry in manifest["operators"].values():
        c = checks.coefficients(entry["config"])
        deviation = np.abs(np.linalg.norm(workloads.induced_map(c, f), axis=1) - 1.0).max()
        assert (deviation < 1e-12) == entry["truth"]["pure"], entry["truth"]["family"]


def _nonpositive_probe_operator():
    manifest = workloads.generate("probe-screen", 1)
    entry = next(e for e in manifest["operators"].values() if e["truth"]["family"] == "general")
    c = checks.coefficients(entry["config"])
    w = np.vstack([np.eye(3), -np.eye(3)])
    witness = w[np.argmin(workloads.min_eigenvalues(c, w))]
    truth = entry["truth"]
    report = {
        "trace_preserving": True,
        "symmetric": truth["symmetric"],
        "haar_trace": truth["haar_trace"],
        "q_purity": {"certificate": {"verdict": truth["pure"]}},
        "positivity": {"verdict": False, "witness": {"w": witness.tolist()}},
    }
    return truth, c, report


def test_checker_accepts_a_right_report():
    truth, c, report = _nonpositive_probe_operator()
    assert checks.check_inspect(truth, c, 0, json.dumps(report)) is None


def test_checker_rejects_a_planted_wrong_verdict():
    truth, c, report = _nonpositive_probe_operator()
    report["positivity"] = {"verdict": True}
    assert "positivity verdict" in checks.check_inspect(truth, c, 0, json.dumps(report))
    truth, c, report = _nonpositive_probe_operator()
    report["q_purity"]["certificate"]["verdict"] = not truth["pure"]
    assert "purity" in checks.check_inspect(truth, c, 0, json.dumps(report))


@pytest.mark.parametrize("w", ([0.0, 0.0, 0.0], [2.0, 0.0, 0.0]))
def test_checker_rejects_a_planted_bad_witness(w):
    truth, c, report = _nonpositive_probe_operator()
    report["positivity"]["witness"]["w"] = w
    assert checks.check_inspect(truth, c, 0, json.dumps(report)) is not None


def test_checker_rejects_unparsable_report_and_wrong_exit_code():
    truth, c, report = _nonpositive_probe_operator()
    assert checks.check_inspect(truth, c, 0, "{not json") is not None
    assert checks.check_inspect(truth, c, 1, json.dumps(report)) is not None


def test_checker_rejects_a_broken_collapse_law():
    op = {"start": "interior", "f0": [0.5, 0.0, 0.0]}
    truth = {"pure": True, "positive": False}
    rows = ["n,f1,f2,f3,norm", "0,0.5,0,0,0.5", "1,0.25,0,0,0.25", "2,0.0625,0,0,0.0625"]
    assert checks.check_simulate(truth, {}, op, 0, "\n".join(rows) + "\n") is None
    rows[2] = "1,0.3,0,0,0.3"
    assert "law" in checks.check_simulate(truth, {}, op, 0, "\n".join(rows) + "\n")
    rows[2] = "1,0,0,0,0"
    assert "flushed" in checks.check_simulate(truth, {}, op, 0, "\n".join(rows) + "\n")


def test_checker_counts_rows_flushed_above_the_documented_floor():
    r = 1e-40  # the law gives 1e-160 at row 2: accepted as zero, but early
    op = {"start": "interior", "f0": [r, 0.0, 0.0]}
    truth = {"pure": True, "positive": False}
    rows = ["n,f1,f2,f3,norm", f"0,{r!r},0,0,{r!r}", "1,1e-80,0,0,1e-80", "2,0,0,0,0"]
    tally = {}
    assert checks.check_simulate(truth, {}, op, 0, "\n".join(rows) + "\n", tally) is None
    assert tally == {"early_flush_rows": 1}
    rows = rows[:3] + ["2,1e-160,0,0,1e-160", "3,1e-320,0,0,1e-320", "4,0,0,0,0"]
    tally = {}
    assert checks.check_simulate(truth, {}, op, 0, "\n".join(rows) + "\n", tally) is None
    assert tally == {}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operations_come_in_whole_cycles_of_every_kind(workload):
    manifest = workloads.generate(workload, 4)
    ops, cycle = manifest["ops"], manifest["cycle"]
    assert len(ops) % cycle == 0

    def kind(op):
        return op["command"], manifest["operators"][op["operator"]]["truth"]["family"], op.get("start")

    first = sorted(map(kind, ops[:cycle]))
    for k in range(1, len(ops) // cycle):
        assert sorted(map(kind, ops[k * cycle : (k + 1) * cycle])) == first
    if workload == "oracle-scan":
        # The sphere-witness operator leads, so even one traced operation covers it.
        assert kind(ops[0])[1] == "linear-nonpositive"


def _client(workload, tmp_path):
    program = run.load_program()
    manifest = _manifest(workload, 5, tmp_path)
    return run.Client(program, manifest, str(tmp_path)), program


def test_later_laps_use_other_cli_seeds(tmp_path):
    client, _ = _client("probe-screen", tmp_path)
    op = next(o for o in client.ops if o["command"] == "inspect")
    assert client.argv(op, 0) != client.argv(op, 1)
    assert client.argv(op, 0)[:2] == client.argv(op, 1)[:2]


def test_a_run_measures_at_least_one_whole_cycle(tmp_path):
    client, _ = _client("orbits", tmp_path)
    result = run.measure(client, 0.0, None)
    assert result["ops"] == result["attempted"] == client.cycle and not result["failures"]
    assert len(result["plain"]) == len(result["walls"]) == len(result["kernel_s"]) == client.cycle
    assert all(w >= x > 0 for x, w in zip(result["plain"], result["walls"]))


def test_planted_wrong_result_fails_the_operation(tmp_path, monkeypatch):
    client, program = _client("probe-screen", tmp_path)
    op = next(o for o in client.ops if o["command"] == "inspect")
    assert client.execute(op)[1] is None
    always_positive = program.positivity.PositivityVerdict(verdict=True, min_eigenvalue_seen=1.0)
    monkeypatch.setattr(program.positivity, "check_positivity_sampled", lambda *a, **k: always_positive)
    assert "positivity verdict" in client.execute(op)[1]


def test_tracer_wraps_by_value_imports_and_restores_them(tmp_path):
    client, program = _client("orbits", tmp_path)
    original = program.qmap.evaluate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        for module in (program.qmap, program.cli, program.dynamics, program.purity, program):
            assert module.evaluate is not original
        op = next(o for o in client.ops if o["command"] == "simulate")
        assert tracer.run_op(0, client.execute, op)[1] is None
    finally:
        tracer.uninstall()
    for module in (program.qmap, program.cli, program.dynamics, program.purity, program):
        assert module.evaluate is original
    names = {s.name for s in tracer.spans}
    assert {"op", "cli", "qmap.evaluate", "dynamics.iterate", "dynamics.csv", "channel.classify"} <= names
    metrics = tracing.layer_metrics(tracer.spans, 1, 0.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["dynamics.iterate_steps"] >= 1 and metrics["cli.self_ms"] > 0


def test_missing_layer_is_reported_absent(tmp_path, monkeypatch):
    program = run.load_program()
    monkeypatch.delattr(program.dynamics, "fixed_points_sphere")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["dynamics.fixed_points"]
    metrics = tracing.layer_metrics([], 1, 0.0)
    assert "dynamics.fixed_points_ms" in tracing.self_check(metrics, "orbits")


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {name: unit for name, (_, unit) in run.end_to_end(1.0, [0.1, 0.2], [0.1, 0.2]).items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "orbits", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
