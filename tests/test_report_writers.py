"""The fixed-shape report writers of blochquad.cli against the recursive reference serializer.

Each writer must give the reference's text on every report of its shape,
and the reference's error message when a float field holds a NaN or +-inf.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import catalog
from blochquad.cli import (
    config_dict,
    dumps_certification,
    dumps_config,
    dumps_conjugacy,
    dumps_inspection,
    inspection_report,
    load_config,
)
from report_reference import dumps_report

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "status.json")


def conjugacy_writer(report):
    return dumps_conjugacy(report["grid"], report["residual"])


def float_paths(obj, path=()):
    """Key paths of the float leaves of a nest of dicts, lists, tuples and arrays."""
    if isinstance(obj, dict):
        members = obj.items()
    elif isinstance(obj, (list, tuple, np.ndarray)):
        members = enumerate(obj)
    else:
        if isinstance(obj, (float, np.floating)):
            yield path
        return
    for key, member in members:
        yield from float_paths(member, path + (key,))


def replaced(obj, path, value):
    """A copy of obj with the leaf at path set to value; containers keep their types."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {**obj, key: replaced(obj[key], rest, value)}
    if isinstance(obj, np.ndarray):
        out = obj.copy()
        out[key] = replaced(obj[key], rest, value)
        return out
    items = list(obj)
    items[key] = replaced(items[key], rest, value)
    return type(obj)(items)


def assert_same_text(writer, report):
    assert writer(report) == dumps_report(report)


def assert_same_error(writer, planted) -> str:
    with pytest.raises(ValueError) as expected:
        dumps_report(planted)
    with pytest.raises(ValueError) as actual:
        writer(planted)
    assert str(actual.value) == str(expected.value)
    return str(actual.value)


def assert_same_errors(writer, report):
    # a NaN, inf and -inf at each float field: the reference's message, which names the field
    paths = list(float_paths(report))
    assert paths
    for path in paths:
        for bad in (float("nan"), float("inf"), float("-inf")):
            message = assert_same_error(writer, replaced(report, path, bad))
            assert message.startswith("report field /" + "/".join(map(str, path)) + " is ")


def golden_reports(command: str) -> list:
    return sorted(GOLDEN.glob(f"*.{command}*.out"))


@pytest.mark.parametrize("path", golden_reports("inspect"), ids=lambda p: p.name)
def test_inspection_writer_on_the_golden_reports(path):
    # the report as the command builds it (tuples, numpy scalars) and as its JSON parses back
    report = inspection_report(load_config(GOLDEN / f"{path.name.split('.')[0]}.json"), tol=1e-9)
    assert dumps_inspection(report) == dumps_report(report) == path.read_text()
    parsed = json.loads(path.read_text())
    assert_same_text(dumps_inspection, parsed)
    assert_same_errors(dumps_inspection, report)


@pytest.mark.parametrize("path", golden_reports("certify"), ids=lambda p: p.name)
def test_certification_writer_on_the_golden_reports(path):
    detail = json.loads(path.read_text())
    assert dumps_certification(detail) == dumps_report(detail) == path.read_text()
    if "min_eigenvalue" in detail:
        assert_same_errors(dumps_certification, detail)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_writer_on_the_golden_configs(path):
    config = config_dict(load_config(path))
    assert_same_text(dumps_config, config)
    assert_same_errors(dumps_config, config)
    if path.stem in {entry.name for entry in catalog.entries()}:
        assert dumps_config(config) == path.read_text()


def test_conjugacy_writer():
    for grid, residual in ((2, 0.0), (10000, 1.3877787807814457e-17), (7, -2.5e300)):
        report = {"grid": grid, "residual": residual}
        assert_same_text(conjugacy_writer, report)
        assert_same_errors(conjugacy_writer, report)


# Leaves as the library gives them: Python or numpy floats and bools, pairs as
# tuples, lists or arrays, and nullable verdicts and intervals.
finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(finite, finite.map(np.float64))
flags = st.one_of(st.booleans(), st.booleans().map(np.bool_))
verdicts = st.one_of(st.none(), flags)


def sequences(size):
    values = st.lists(numbers, min_size=size, max_size=size)
    return st.one_of(values, values.map(tuple), st.lists(finite, min_size=size, max_size=size).map(np.array))


intervals = st.one_of(st.none(), sequences(2))
witnesses = st.builds(lambda w, m: {"w": w, "min_eigenvalue": m}, sequences(3), numbers)


def positivity_block(verdict, interval, witness):
    block = {"verdict": verdict, "min_eigenvalue": interval}
    if witness is not None:
        block["witness"] = witness
    return block


inspection_reports = st.builds(
    lambda flags4, verdict, deviation, positivity: {
        "trace_preserving": flags4[0],
        "symmetric": flags4[1],
        "haar_trace": flags4[2],
        "coassociative": flags4[3],
        "q_purity": {"certificate": {"verdict": verdict}, "sphere_deviation": deviation},
        "positivity": positivity,
    },
    st.tuples(flags, flags, flags, flags),
    verdicts,
    sequences(2),
    st.builds(positivity_block, verdicts, intervals, st.one_of(st.none(), witnesses)),
)


def certification_detail(check, verdict, interval, expected, actual, match):
    detail = {"check": check, "verdict": verdict}
    if check == "positivity":
        detail["min_eigenvalue"] = interval
    return {**detail, "expected": expected, "actual": actual, "match": match}


certification_details = st.builds(
    certification_detail,
    st.sampled_from(("q_purity", "positivity")),
    verdicts,
    intervals,
    st.text(max_size=12),
    st.text(max_size=12),
    flags,
)
matrices = st.lists(st.lists(finite, min_size=3, max_size=3), min_size=3, max_size=3)
configs = st.builds(
    lambda b, B1, B2, T: {"b": b, "B1": B1, "B2": B2, "T": T},
    st.lists(finite, min_size=3, max_size=3),
    matrices,
    matrices,
    st.lists(matrices, min_size=3, max_size=3),
)
conjugacy_reports = st.builds(
    lambda grid, residual: {"grid": grid, "residual": residual}, st.integers(2, 10**9), numbers
)

WRITERS = (
    (dumps_inspection, inspection_reports),
    (dumps_certification, certification_details),
    (dumps_config, configs),
    (conjugacy_writer, conjugacy_reports),
)


@pytest.mark.parametrize("writer,reports", WRITERS, ids=lambda w: getattr(w, "__name__", None))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_writers_match_the_reference_on_built_reports(writer, reports, data):
    report = data.draw(reports)
    assert_same_text(writer, report)
    paths = list(float_paths(report))
    if paths:
        path = data.draw(st.sampled_from(paths))
        assert_same_error(writer, replaced(report, path, data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))))


def test_writers_name_the_first_non_finite_field_in_document_order():
    config = config_dict(load_config(GOLDEN / "delta0.json"))
    report = inspection_report(load_config(GOLDEN / "delta1.json"), tol=1e-9)
    late_config = replaced(config, ("T", 2, 1, 0), np.inf)
    late_report = replaced(report, ("positivity", "witness", "w", 0), np.nan)
    planted = (
        (dumps_config, replaced(late_config, ("B1", 1, 2), np.nan), "/B1/1/2 is nan"),
        (dumps_inspection, replaced(late_report, ("q_purity", "sphere_deviation", 1), np.inf), "/sphere_deviation/1 is inf"),
    )
    for writer, bad, first in planted:
        assert first in assert_same_error(writer, bad)
