#!/usr/bin/env python3
"""The blochquad benchmark.

    python3 perfbench/run.py --workload oracle-scan --seed 1 --seconds 30 --trace 0

One process and one closed-loop client: the next operation starts only
after the previous one has finished and been checked.  Operations drive
the user paths in-process, `blochquad.cli.main(argv)` on generated config
files with stdout and stderr captured in memory, and the public
`dynamics.fixed_points_sphere`.  Every output is checked against truth the
benchmark knows on its own (checks.py); a wrong output fails the run.

Workloads (workloads.py):
  oracle-scan   `inspect` at the default 100k samples on positive operators
                and a minority of non-positive ones whose witness only the
                sampled sphere finds: the sampler, image assembly and eigen
                kernel own the time.
  probe-screen  `inspect` and `certify` on operators the probe batch
                decides: sampling, the Monte-Carlo sphere oracle,
                classification and CLI overhead own the time.
  orbits        `simulate` (50 steps) from sphere and interior starts and one
                `fixed_points_sphere(32)` per map: per-step dispatch,
                iteration, CSV output and the Newton search own the time.

A run measures whole cycles of the workload's operations (workloads.CYCLE):
it starts new cycles while less than --seconds have passed, so every run
covers each kind of operation, in the same mix whatever the program's
speed.  --trace 0 runs each operation once and reports the end-to-end
metrics with tracing off: latency percentiles, and ops_per_s as completed
operations over the loop's wall time (operation and check), all at a
reference machine speed (see calibration_kernel).
--trace 1 runs every operation twice, untraced and traced in alternating
order, and reports the per-layer metrics of tracing.py plus the tracing
overhead.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  Set-up (a fresh interpreter importing blochquad and
writing the workload's configs) runs several times; setup_s is its median
at the reference speed.
Each run's full record, with the unscaled figures and the machine's speed
factor, goes to .perfbench_out/.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures a single-threaded client, and a
# pool of BLAS threads on a shared machine only adds noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
WARM_UP_SAMPLES = "1000"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


_CAL_RNG = np.random.default_rng(0)
_CAL_DOC = {"v": _CAL_RNG.standard_normal(200).tolist(), "m": _CAL_RNG.standard_normal((3, 3, 3)).tolist()}
_CAL_MAP = _CAL_RNG.standard_normal((9, 3))
_CAL_MATRICES = _CAL_RNG.standard_normal((10000, 4, 4))
# The kernel's time at the reference speed, about this 2-core machine's
# speed when no neighbour contends; it sets the scale, not the comparison.
REFERENCE_S = 2.5e-3
# Operations longer than this span many of the machine's speed phases.
LONG_OP_S = 1.0


def calibration_kernel() -> float:
    """Seconds for a fixed mix of the three kinds of work the workloads do.

    Neighbours on a shared machine slow this code by up to 80% for seconds
    to minutes at a time, so that a whole run can fall in a slow phase, and
    the process's CPU time slows with its wall time.  The kernel runs after
    every set-up and every operation, and each set-up or operation time is
    scaled by REFERENCE_S over the kernel's time right after it.  An
    operation longer than LONG_OP_S (oracle-scan's) spans many of the
    machine's speed phases, which that one sample does not represent; it is
    scaled by REFERENCE_S over the kernel's mean time in the run instead.
    Its three parts take about a millisecond each: Python with tiny arrays
    (simulate, fixed-point search), vectorised sampling and maps (inspect,
    certify) and batched 4x4 products (the positivity oracle).  It is the
    benchmark's own code, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    doc = json.loads(json.dumps(_CAL_DOC))
    total = float(len([f"{i},{x:.17g}" for i, x in enumerate(doc["v"])]))
    for row in np.asarray(doc["m"]).reshape(9, 3):
        total += float(row @ row)
    for _ in range(30):
        total += float(np.linalg.norm(np.array([0.1, 0.2, 0.3]) @ _CAL_MAP[:3]))
    g = np.random.Generator(np.random.Philox(key=1)).standard_normal((5000, 3))
    f = g / np.linalg.norm(g, axis=1)[:, None]
    f1, f2, f3 = f[:, 0], f[:, 1], f[:, 2]
    features = np.stack([f1 * f1, f2 * f2, f3 * f3, f1 * f2, f2 * f3, f1 * f3, f1, f2, f3], axis=-1)
    total += float(np.abs(np.linalg.norm(features @ _CAL_MAP, axis=1) - 1.0).max())
    products = _CAL_MATRICES @ _CAL_MATRICES
    total += float(np.einsum("nii->n", products).sum()) + float((0.5 * _CAL_MATRICES + products).max())
    return time.perf_counter() - t0


def load_program():
    """Import blochquad from this checkout's src/, never from elsewhere."""
    package_dir = os.path.join(SRC, "blochquad")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise BenchmarkError(f"no blochquad sources under {SRC}")
    sys.path.insert(0, SRC)
    import blochquad
    import blochquad.cli
    import blochquad.dynamics

    if os.path.realpath(os.path.dirname(blochquad.__file__)) != os.path.realpath(package_dir):
        raise BenchmarkError(f"imported blochquad from {blochquad.__file__}, not from {package_dir}")
    return blochquad


def set_up(workload: str, seed: int, work_dir: str) -> tuple:
    """Run the set-up child SETUP_REPEATS times.

    Returns the median set-up seconds, scaled to the reference speed by the
    calibration kernel run right after each child (a set-up lasts under a
    second, short enough for the kernel to track), the same median unscaled,
    the manifest and the config directory.
    """
    times, scaled, manifests = [], [], []
    for k in range(SETUP_REPEATS):
        out = os.path.join(work_dir, f"setup{k}")
        argv = [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", workload, "--seed", str(seed), "--out", out]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * REFERENCE_S / calibration_kernel())
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed:\n{proc.stderr}")
        with open(os.path.join(out, "manifest.json"), "rb") as fh:
            manifests.append(fh.read())
    if len(set(manifests)) != 1:
        raise BenchmarkError("set-up wrote different inputs for the same seed")
    return statistics.median(scaled), statistics.median(times), json.loads(manifests[-1]), out


class Client:
    """Runs one operation at a time through the program's public entry points."""

    def __init__(self, program, manifest: dict, config_dir: str):
        self.cli = program.cli
        self.dynamics = program.dynamics
        self.ops = manifest["ops"]
        self.cycle = manifest["cycle"]
        self.operators = manifest["operators"]
        self.config_dir = config_dir
        self.tally = {}  # counts the checks keep beside their verdicts
        self.coefficients = {k: checks.coefficients(v["config"]) for k, v in self.operators.items()}
        self.maps = {
            op["operator"]: program.channel.induced_qmap(self.cli.load_config(self.path(op)))
            for op in self.ops
            if op["command"] == "fixed-points"
        }

    def path(self, op: dict) -> str:
        return os.path.join(self.config_dir, op["operator"] + ".json")

    def argv(self, op: dict, lap: int = 0) -> list:
        """The CLI arguments of op on the lap-th pass over the operation list.

        Each pass gives the sampling commands other seeds, so a repeated
        operation is never a repeated call.
        """
        command = op["command"]
        seed = str((op.get("cli_seed", 0) + lap) % 2**31)
        if command == "inspect":
            return ["inspect", self.path(op), "--seed", seed]
        if command.startswith("certify"):
            return ["certify", self.path(op), "--expect", op["expect"], "--seed", seed]
        if command == "simulate":
            # One token, so argparse does not read a leading minus as an option.
            return ["simulate", self.path(op), "--f0=" + ",".join(repr(x) for x in op["f0"])]
        raise ValueError(f"unknown command {command!r}")

    def _cli(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code if isinstance(exc.code, int) else 1
            elapsed = time.perf_counter() - t0
        return elapsed, rc, out.getvalue()

    def execute(self, op: dict, lap: int = 0) -> tuple:
        """(latency in seconds, None or the reason the output is wrong)."""
        truth = self.operators[op["operator"]]["truth"]
        c = self.coefficients[op["operator"]]
        t0 = time.perf_counter()
        try:
            if op["command"] == "fixed-points":
                points = self.dynamics.fixed_points_sphere(self.maps[op["operator"]], op["grid"])
                elapsed = time.perf_counter() - t0
                return elapsed, checks.check_fixed_points(truth, c, points)
            elapsed, rc, out = self._cli(self.argv(op, lap))
        except Exception:  # a crash in the program is a failed operation
            return time.perf_counter() - t0, traceback.format_exc(limit=3).strip().splitlines()[-1]
        if op["command"] == "inspect":
            return elapsed, checks.check_inspect(truth, c, rc, out)
        if op["command"] == "simulate":
            return elapsed, checks.check_simulate(truth, c, op, rc, out, self.tally)
        return elapsed, checks.check_certify(truth, op, rc, out)

    def warm_up(self) -> None:
        """Run each command once on cheap settings so lazy set-up happens before timing."""
        seen = set()
        for op in self.ops:
            if op["command"] in seen:
                continue
            seen.add(op["command"])
            if op["command"] == "fixed-points":
                self.dynamics.fixed_points_sphere(self.maps[op["operator"]], 4)
            else:
                argv = self.argv(op)
                self._cli(argv + ["--samples", WARM_UP_SAMPLES] if argv[0] != "simulate" else argv)


def measure(client: Client, seconds: float, tracer: tracing.Tracer | None) -> dict:
    """Closed loop over whole cycles of the workload's operations.

    A run measures at least one cycle, and starts another while less than
    `seconds` seconds have passed.  Untraced, each operation runs once, and
    then the calibration kernel.  Traced, each operation runs once untraced
    and once traced, in alternating order.
    """
    plain, walls, kernel_s, traced, failures = [], [], [], [], []
    attempted = i = 0
    start = time.perf_counter()
    while True:
        op = client.ops[i % len(client.ops)]
        lap = i // len(client.ops)
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if i % 2 == 0 else (True, False)
        runs = []
        for with_trace in order:
            if with_trace:
                tracer.install()
                try:
                    runs.append(tracer.run_op(i, client.execute, op, lap))
                finally:
                    tracer.uninstall()
                traced.append(runs[-1][0])
            else:
                t0 = time.perf_counter()
                runs.append(client.execute(op, lap))
                walls.append(time.perf_counter() - t0)
                plain.append(runs[-1][0])
        if tracer is None:
            kernel_s.append(calibration_kernel())
        attempted += len(runs)
        for _, error in runs:
            if error is not None:
                failures.append({"op": i, "command": op["command"], "operator": op["operator"], "error": error})
        i += 1
        if i % client.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    return {
        "plain": plain,
        "walls": walls,
        "kernel_s": kernel_s,
        "traced": traced,
        "failures": failures,
        "attempted": attempted,
        "ops": i,
    }


def end_to_end(setup_s: float, latencies: list, walls: list) -> dict:
    """Metrics from each operation's latency and its loop time (with the check)."""
    ms = [1e3 * x for x in latencies]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _blas() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    package_dir = os.path.join(SRC, "blochquad")
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one blochquad benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        program = load_program()
        env = environment(args.workload, args.seed, args.seconds, args.trace)
        setup_s, setup_unscaled, manifest, config_dir = set_up(args.workload, args.seed, work_dir)
        client = Client(program, manifest, config_dir)
        client.warm_up()
        tracer = tracing.Tracer() if args.trace else None
        run = measure(client, args.seconds, tracer)
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = run["failures"]
    record = {
        "env": env,
        "failures": failures[:20],
        # Interior orbits the program zeroed while the collapse law was still
        # above its documented 1e-300 floor (see checks.FLUSH_LIMIT).
        "early_flush_rows": client.tally.get("early_flush_rows", 0),
    }
    if tracer is None:
        run_speed = REFERENCE_S / statistics.fmean(run["kernel_s"])
        speeds = [run_speed if x > LONG_OP_S else REFERENCE_S / k for x, k in zip(run["plain"], run["kernel_s"])]
        metrics = end_to_end(
            setup_s, [x * s for x, s in zip(run["plain"], speeds)], [x * s for x, s in zip(run["walls"], speeds)]
        )
        record["unscaled"] = {k: v for k, (v, _) in end_to_end(setup_unscaled, run["plain"], run["walls"]).items()}
        record["speed_factor"] = run_speed
    else:
        overhead = sum(run["traced"]) / sum(run["plain"]) - 1.0
        layer = tracing.layer_metrics(tracer.spans, len(run["traced"]), overhead)
        metrics = {name: (layer[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
        record.update(absent_layers=tracer.absent, self_check_zero=tracing.self_check(layer, args.workload))
        for name in tracer.absent:
            sys.stderr.write(f"trace: layer {name} is absent\n")
        for name in record["self_check_zero"]:
            sys.stderr.write(f"trace self-check: {name} recorded no work on {args.workload}\n")
    for failure in failures[:5]:
        sys.stderr.write(f"wrong output: {json.dumps(failure)}\n")

    result = {
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result, "op_count": run["ops"]}, fh, indent=1)
    if tracer is not None:
        kinds = [
            f"{op['command']}:{manifest['operators'][op['operator']]['truth']['family']}"
            for op in (manifest["ops"][i % len(manifest["ops"])] for i in range(run["ops"]))
        ]
        tracer.dump(stem + "-spans.jsonl", {"env": env, "op_kinds": kinds})
    print("env " + json.dumps(env))
    print(f"{args.workload}: {len(run['plain'])} ops, {len(failures)} wrong, results in {stem}.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
