"""Outside-in layer trace for the benchmark's traced run.

The tracer wraps the public functions of each blochquad layer and swaps
the wrapper in at every site that holds the function: the defining module
and every module that imported the name by value (``from .qmap import
evaluate``).  No source file changes.  Spans carry a name, start, end,
parent and operation id, stay in memory and are written when the run
ends.  A wrapped function that no longer exists marks its layer absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

PACKAGE = "blochquad"


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rows(fn, args, kwargs, result) -> dict:
    return {"n": int(np.shape(result)[0])}


def _matrices(fn, args, kwargs, result) -> dict:
    shape = np.shape(args[0] if args else next(iter(kwargs.values())))
    return {"n": int(np.prod(shape[:-2], dtype=np.int64))}


def _points(fn, args, kwargs, result) -> dict:
    return {"n": int(np.prod(np.shape(result)[:-1], dtype=np.int64))}


def _steps(fn, args, kwargs, result) -> dict:
    return {"n": len(result) - 1}


def _samples(fn, args, kwargs, result) -> dict:
    return {"n": int(_bound(fn, args, kwargs)["samples"])}


def _grid_seeds(fn, args, kwargs, result) -> dict:
    g = int(_bound(fn, args, kwargs)["grid_density"])
    return {"n": 2 * g * g, "found": len(result)}


# (module, attribute, span name, counter).  The counter sees the function,
# the call's arguments and its result, and returns the work done as
# {"n": ...}; fixed-point searches also report {"found": ...}.
TARGETS = (
    ("cli", "main", "cli", None),
    ("channel", "bloch_images", "channel.bloch_images", _rows),
    ("channel", "is_trace_preserving", "channel.classify", None),
    ("channel", "is_symmetric", "channel.classify", None),
    ("channel", "has_haar_trace", "channel.classify", None),
    ("channel", "check_coassociativity", "channel.classify", None),
    ("channel", "induced_qmap", "channel.classify", None),
    ("sampling", "sphere_points", "sampling.points", _rows),
    ("sampling", "ball_points", "sampling.points", _rows),
    ("positivity", "check_positivity_sampled", "positivity.oracle", None),
    ("positivity", "jacobi_eigh", "positivity.eigen", _matrices),
    ("purity", "monte_carlo_sphere", "purity.monte_carlo", _samples),
    ("purity", "check_sphere_conditions", "purity.certificate", None),
    ("purity", "check_haar_conditions", "purity.certificate", None),
    ("purity", "check_linear_isometry", "purity.certificate", None),
    ("qmap", "evaluate", "qmap.evaluate", _points),
    ("qmap", "jacobian", "qmap.jacobian", None),
    ("dynamics", "iterate", "dynamics.iterate", _steps),
    ("dynamics", "fixed_points_sphere", "dynamics.fixed_points", _grid_seeds),
    ("dynamics", "write_trajectory_csv", "dynamics.csv", None),
)
# The eigen kernel is whichever batched solver positivity calls: the seed's
# Jacobi solver above, or numpy's, reached through positivity's `np`.
NUMPY_EIGEN = ("eigvalsh", "eigh", "eigvals", "eig")
EIGEN_SPAN = "positivity.eigen"

# Per-layer metrics: name -> (unit, workloads on which it must record work).
# Times and counts are per traced operation unless the name says otherwise.
ORACLE, PROBE, ORBITS = "oracle-scan", "probe-screen", "orbits"
PER_LAYER = {
    "positivity.eigen_ms": ("ms/op", (ORACLE,)),
    "positivity.eigen_matrices": ("count/op", (ORACLE,)),
    "channel.bloch_images_ms": ("ms/op", (ORACLE,)),
    "channel.bloch_images_matrices": ("count/op", (ORACLE,)),
    "sampling.points_ms": ("ms/op", (ORACLE, PROBE)),
    "sampling.points": ("count/op", (ORACLE, PROBE)),
    "positivity.oracle_ms": ("ms/op", (ORACLE, PROBE)),
    "positivity.oracle_self_ms": ("ms/op", (ORACLE, PROBE)),
    "positivity.matrices_per_verdict": ("count", (ORACLE, PROBE)),
    "positivity.sample_use_ratio": ("ratio", (ORACLE, PROBE)),
    "positivity.probe_exit_ratio": ("ratio", (PROBE,)),
    "purity.monte_carlo_ms": ("ms/op", (ORACLE, PROBE)),
    "purity.monte_carlo_points": ("count/op", (ORACLE, PROBE)),
    "purity.certificate_ms": ("ms/op", (PROBE,)),
    "channel.classify_ms": ("ms/op", (PROBE, ORBITS)),
    "qmap.evaluate_ms": ("ms/op", (PROBE, ORBITS)),
    "qmap.evaluate_calls": ("count/op", (PROBE, ORBITS)),
    "qmap.evaluate_points": ("count/op", (PROBE, ORBITS)),
    "qmap.jacobian_ms": ("ms/op", (ORBITS,)),
    "dynamics.fixed_points_ms": ("ms/op", (ORBITS,)),
    "dynamics.fixed_points_found_per_seed": ("ratio", (ORBITS,)),
    "dynamics.iterate_ms": ("ms/op", (ORBITS,)),
    "dynamics.iterate_steps": ("count/op", (ORBITS,)),
    "dynamics.csv_ms": ("ms/op", (ORBITS,)),
    "cli.self_ms": ("ms/op", (PROBE, ORBITS)),
    "trace.op_ms": ("ms/op", (ORACLE, PROBE, ORBITS)),
    "trace.overhead_frac": ("ratio", ()),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    n: int = 0
    found: int = 0


class _Proxy:
    """Attribute view of `target` with some attributes replaced."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


@dataclass
class Tracer:
    """Installs span-recording wrappers into the blochquad modules."""

    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)
    _op: int = -1

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                for key, value in counter(fn, args, kwargs, result).items():
                    setattr(span, key, value)
            return result

        return wrapper

    def _modules(self) -> list:
        return [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]

    def install(self) -> None:
        """Replace every reference to a target function in the package's modules."""
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        present = set()
        for module_name, attr, span_name, counter in TARGETS:
            home = by_name.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                continue
            present.add(span_name)
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, value))
                        setattr(module, key, wrapper)
        positivity = by_name.get(f"{PACKAGE}.positivity")
        if positivity is not None and getattr(positivity, "np", None) is np:
            linalg = _Proxy(np.linalg, {f: self._wrap(getattr(np.linalg, f), EIGEN_SPAN, _matrices) for f in NUMPY_EIGEN})
            self._installed.append((positivity, "np", np))
            positivity.np = _Proxy(np, {"linalg": linalg})
            present.add(EIGEN_SPAN)
        self.absent = sorted({t[2] for t in TARGETS} - present)

    def uninstall(self) -> None:
        while self._installed:
            module, key, value = self._installed.pop()
            setattr(module, key, value)

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) as operation op_id under an `op` root span."""
        self._op = op_id
        root = Span("op", time.perf_counter(), 0.0, -1, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            return fn(*args)
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(extra, fh)
            fh.write("\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def layer_metrics(spans: list, n_ops: int, overhead: float) -> dict:
    """Per-layer metrics from the spans of n_ops traced operations."""
    names = [s.name for s in spans]

    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield p
            p = spans[p].parent

    # A span counts for its layer only when no ancestor has the same name,
    # so nested calls (ball_points -> sphere_points) are not counted twice.
    top = [all(names[a] != names[i] for a in ancestors(i)) for i in range(len(spans))]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    total, work, calls = {}, {}, {}
    for i, s in enumerate(spans):
        if top[i]:
            total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
            work[s.name] = work.get(s.name, 0) + s.n
            calls[s.name] = calls.get(s.name, 0) + 1

    def per_op_ms(name):
        return 1e3 * total.get(name, 0.0) / n_ops

    def self_ms(name):
        return 1e3 * sum(s.end - s.start - child_time[i] for i, s in enumerate(spans) if top[i] and s.name == name) / n_ops

    per_oracle = {i: 0 for i, s in enumerate(spans) if top[i] and s.name == "positivity.oracle"}
    eigen_in_oracle = sampled_in_oracle = 0
    for i, s in enumerate(spans):
        if not top[i] or s.name not in (EIGEN_SPAN, "sampling.points"):
            continue
        owner = next((a for a in ancestors(i) if a in per_oracle), None)
        if owner is None:
            continue
        if s.name == EIGEN_SPAN:
            per_oracle[owner] += 1
            eigen_in_oracle += s.n
        else:
            sampled_in_oracle += s.n
    oracle_calls = len(per_oracle)
    probe_exits = sum(1 for calls in per_oracle.values() if calls == 1)
    found = sum(s.found for i, s in enumerate(spans) if top[i] and s.name == "dynamics.fixed_points")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "positivity.eigen_ms": per_op_ms(EIGEN_SPAN),
        "positivity.eigen_matrices": work.get(EIGEN_SPAN, 0) / n_ops,
        "channel.bloch_images_ms": per_op_ms("channel.bloch_images"),
        "channel.bloch_images_matrices": work.get("channel.bloch_images", 0) / n_ops,
        "sampling.points_ms": per_op_ms("sampling.points"),
        "sampling.points": work.get("sampling.points", 0) / n_ops,
        "positivity.oracle_ms": per_op_ms("positivity.oracle"),
        "positivity.oracle_self_ms": self_ms("positivity.oracle"),
        "positivity.matrices_per_verdict": ratio(eigen_in_oracle, oracle_calls),
        "positivity.sample_use_ratio": ratio(eigen_in_oracle, sampled_in_oracle),
        "positivity.probe_exit_ratio": ratio(probe_exits, oracle_calls),
        "purity.monte_carlo_ms": per_op_ms("purity.monte_carlo"),
        "purity.monte_carlo_points": work.get("purity.monte_carlo", 0) / n_ops,
        "purity.certificate_ms": per_op_ms("purity.certificate"),
        "channel.classify_ms": per_op_ms("channel.classify"),
        "qmap.evaluate_ms": per_op_ms("qmap.evaluate"),
        "qmap.evaluate_calls": calls.get("qmap.evaluate", 0) / n_ops,
        "qmap.evaluate_points": work.get("qmap.evaluate", 0) / n_ops,
        "qmap.jacobian_ms": per_op_ms("qmap.jacobian"),
        "dynamics.fixed_points_ms": per_op_ms("dynamics.fixed_points"),
        "dynamics.fixed_points_found_per_seed": ratio(found, work.get("dynamics.fixed_points", 0)),
        "dynamics.iterate_ms": per_op_ms("dynamics.iterate"),
        "dynamics.iterate_steps": work.get("dynamics.iterate", 0) / n_ops,
        "dynamics.csv_ms": per_op_ms("dynamics.csv"),
        "cli.self_ms": self_ms("cli"),
        "trace.op_ms": per_op_ms("op"),
        "trace.overhead_frac": overhead,
    }


def self_check(metrics: dict, workload: str) -> list:
    """Metrics that record no work on a workload they are mapped to."""
    return [name for name, (_, mapped) in PER_LAYER.items() if workload in mapped and not metrics[name] > 0]
