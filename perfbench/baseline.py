"""Record the benchmark's baseline and check its trace against known figures.

    python3 perfbench/baseline.py

Runs every workload on the default seed and on a hold-out seed, untraced
and traced, for BENCHMARK.json's run_seconds each, and writes
perfbench/BASELINE.json: every metric of every run, and the traced
attribution next to the figures measured ad hoc before the benchmark
existed (ROADMAP.md, item 1).  Gaps are recorded, not hidden.  Takes 12
runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SEEDS = {"default": 1, "hold-out": 2}
WORKLOADS = ("oracle-scan", "probe-screen", "orbits")

# Ad-hoc figures measured before the benchmark existed (2 cores, numpy 2.4).
PRIOR = {
    "inspect_linear_ms": ([3200.0, 4300.0], "inspect linear: 3.2-3.6 s (ROADMAP), 3.4-4.3 s per operation"),
    "oracle_share_of_inspect_linear": ([0.97, 0.99], "the oracle owns about 98% of inspect linear"),
    "eigen_share_of_oracle": ([0.85, 0.95], "Jacobi owns about 90% of the oracle"),
    "eigen_ms_per_100k": ([1500.0, 1700.0], "Jacobi: 1.5 s (ROADMAP) to 1.7 s per 100k matrices"),
    "bloch_images_ms_per_100k": ([135.0, 177.0], "bloch_images: 135-177 ms per 100k points"),
    "fixed_points_ms_per_call": ([260.0, 350.0], "fixed_points_sphere(32): 260-350 ms"),
    "inspect_delta0_ms": ([43.0, 65.0], "inspect delta0: 54 ms (+-20%), exits at the probes"),
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spans(workload: str, seed: int) -> tuple:
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace1-spans.jsonl"), encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def _durations(spans, name, ops=None) -> list:
    return [1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == name and (ops is None or s["op"] in ops)]


def _within(spans, name, outer, ops) -> float:
    """ms spent in `name` spans that run inside an `outer` span of the given ops."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] != name or s["op"] not in ops:
            continue
        parent, nested_in_self, inside = s["parent"], False, False
        while parent >= 0:
            p = by_id[parent]
            nested_in_self |= p["name"] == name
            inside |= p["name"] == outer
            parent = p["parent"]
        if inside and not nested_in_self:
            total += 1e3 * (s["end"] - s["start"])
    return total


def attribution() -> dict:
    measured = {k: [] for k in PRIOR}
    for seed in SEEDS.values():
        header, spans = load_spans("oracle-scan", seed)
        linear_ops = {i for i, kind in enumerate(header["op_kinds"]) if kind == "inspect:catalog-linear"}
        op_ms = sum(_durations(spans, "op", linear_ops))
        oracle_ms = sum(_durations(spans, "positivity.oracle", linear_ops))
        all_ops = set(range(len(header["op_kinds"])))
        all_oracle = sum(_durations(spans, "positivity.oracle"))
        eigen = [s for s in spans if s["name"] == "positivity.eigen"]
        bloch = [s for s in spans if s["name"] == "channel.bloch_images"]
        measured["inspect_linear_ms"] += _durations(spans, "op", linear_ops)
        measured["oracle_share_of_inspect_linear"].append(oracle_ms / op_ms)
        measured["eigen_share_of_oracle"].append(_within(spans, "positivity.eigen", "positivity.oracle", all_ops) / all_oracle)
        measured["eigen_ms_per_100k"].append(
            1e5 * sum(1e3 * (s["end"] - s["start"]) for s in eigen) / sum(s["n"] for s in eigen))
        measured["bloch_images_ms_per_100k"].append(
            1e5 * sum(1e3 * (s["end"] - s["start"]) for s in bloch) / sum(s["n"] for s in bloch))
        header, spans = load_spans("orbits", seed)
        measured["fixed_points_ms_per_call"] += _durations(spans, "dynamics.fixed_points")
        header, spans = load_spans("probe-screen", seed)
        delta0_ops = {i for i, kind in enumerate(header["op_kinds"]) if kind == "inspect:delta0"}
        measured["inspect_delta0_ms"] += _durations(spans, "op", delta0_ops)
    result = {}
    for key, ((lo, hi), prior) in PRIOR.items():
        values = measured[key]
        median = statistics.median(values)
        result[key] = {
            "prior": prior,
            "prior_range": [lo, hi],
            "measured_median": median,
            "measured_range": [min(values), max(values)],
            "samples": len(values),
            "within_prior": lo <= median <= hi,
        }
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = {}
    env = None
    for workload in WORKLOADS:
        for label, seed in SEEDS.items():
            entry = runs.setdefault(workload, {}).setdefault(label, {"seed": seed})
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                result = run(workload, seed, seconds, trace)
                entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
                entry[f"{key}_attempted"] = result["attempted"]
                entry[f"{key}_failed"] = result["failed"]
                with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
                    record = json.load(fh)
                env = record["env"]
                entry[f"{key}_early_flush_rows"] = record["early_flush_rows"]
                if not trace:
                    entry["unscaled"] = record["unscaled"]
                    entry["speed_factor"] = record["speed_factor"]
                else:
                    entry["absent_layers"] = record["absent_layers"]
                    entry["self_check_zero"] = record["self_check_zero"]
            print(f"{workload} {label}: {entry['end_to_end']}", flush=True)
    shares = {}
    for label in SEEDS:
        oracle = runs["oracle-scan"][label]["per_layer"]
        probe = runs["probe-screen"][label]["per_layer"]
        shares[label] = {
            "oracle-scan: (eigen + bloch_images + sampling) / op, must be >= 0.9": (
                oracle["positivity.eigen_ms"] + oracle["channel.bloch_images_ms"] + oracle["sampling.points_ms"]
            ) / oracle["trace.op_ms"],
            "probe-screen: eigen / op, must be < 0.1": probe["positivity.eigen_ms"] / probe["trace.op_ms"],
        }
    baseline = {
        "about": "Seed-commit baseline of every metric on the default and a hold-out seed, and the traced "
                 "attribution against the ad-hoc figures measured before the benchmark existed.",
        "seconds": seconds,
        "environment": {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")},
        "runs": runs,
        "acceptance_shares": shares,
        "attribution": attribution(),
    }
    with open(os.path.join(HERE, "BASELINE.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
