"""blochquad.cli.dumps, the one report writer, against the recursive reference serializer.

dumps must give the reference's text on every report a command builds, and
the reference's error message when a float field holds a NaN or +-inf.  The
commands build their reports of dicts, lists, tuples, str, int, float, bool
and None only; dumps refuses any other leaf, numpy's among them, by name.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochquad import DeltaCoefficients, catalog, cli, positivity
from blochquad.channel import basis_images
from blochquad.cli import config_dict, dumps, inspection_report, load_config
from report_reference import dumps_report

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "status.json")


def float_paths(obj, path=()):
    """Key paths of the float leaves of a nest of dicts, lists and tuples."""
    if isinstance(obj, dict):
        members = obj.items()
    elif isinstance(obj, (list, tuple)):
        members = enumerate(obj)
    else:
        if isinstance(obj, float):
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
    items = list(obj)
    items[key] = replaced(items[key], rest, value)
    return type(obj)(items)


def assert_same_text(report):
    assert dumps(report) == dumps_report(report)


def assert_same_error(planted) -> str:
    with pytest.raises(ValueError) as expected:
        dumps_report(planted)
    with pytest.raises(ValueError) as actual:
        dumps(planted)
    assert str(actual.value) == str(expected.value)
    return str(actual.value)


def assert_same_errors(report):
    # a NaN, inf and -inf at each float field: the reference's message, which names the field
    paths = list(float_paths(report))
    assert paths
    for path in paths:
        for bad in (float("nan"), float("inf"), float("-inf")):
            message = assert_same_error(replaced(report, path, bad))
            assert message.startswith("report field /" + "/".join(map(str, path)) + " is ")


def golden_reports(command: str) -> list:
    return sorted(GOLDEN.glob(f"*.{command}*.out"))


@pytest.mark.parametrize("path", golden_reports("inspect"), ids=lambda p: p.name)
def test_inspection_writer_on_the_golden_reports(path):
    # the report as the command builds it and as its JSON parses back, where
    # a float written as an integral number parses as a float again
    report = inspection_report(load_config(GOLDEN / f"{path.name.split('.')[0]}.json"), tol=1e-9)
    assert dumps(report) == dumps_report(report) == path.read_text()
    assert_same_text(json.loads(path.read_text(), parse_int=float))
    assert_same_errors(report)


@pytest.mark.parametrize("path", golden_reports("certify"), ids=lambda p: p.name)
def test_certification_writer_on_the_golden_reports(path):
    detail = json.loads(path.read_text(), parse_int=float)
    assert dumps(detail) == dumps_report(detail) == path.read_text()
    if "min_eigenvalue" in detail:
        assert_same_errors(detail)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_writer_on_the_golden_configs(path):
    config = config_dict(load_config(path))
    assert_same_text(config)
    assert_same_errors(config)
    if path.stem in {entry.name for entry in catalog.entries()}:
        assert dumps(config) == path.read_text()


def test_conjugacy_writer():
    for grid, residual in ((2, 0.0), (10000, 1.3877787807814457e-17), (7, -2.5e300)):
        report = {"grid": grid, "residual": residual}
        assert_same_text(report)
        assert_same_errors(report)


# Leaves as the commands give them: Python floats and bools, pairs as tuples
# or lists, and nullable verdicts and intervals.
finite = st.floats(allow_nan=False, allow_infinity=False)
verdicts = st.one_of(st.none(), st.booleans())


def sequences(size):
    values = st.lists(finite, min_size=size, max_size=size)
    return st.one_of(values, values.map(tuple))


intervals = st.one_of(st.none(), sequences(2))
witnesses = st.builds(lambda w, m: {"w": w, "min_eigenvalue": m}, sequences(3), finite)


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
    st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
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
    st.booleans(),
)
matrices = st.lists(st.lists(finite, min_size=3, max_size=3), min_size=3, max_size=3)
configs = st.builds(
    lambda b, B1, B2, T: {"b": b, "B1": B1, "B2": B2, "T": T},
    st.lists(finite, min_size=3, max_size=3),
    matrices,
    matrices,
    st.lists(matrices, min_size=3, max_size=3),
)
conjugacy_reports = st.builds(lambda grid, residual: {"grid": grid, "residual": residual}, st.integers(2, 10**9), finite)

REPORTS = {
    "inspection": inspection_reports,
    "certification": certification_details,
    "config": configs,
    "conjugacy": conjugacy_reports,
}


@pytest.mark.parametrize("shape", REPORTS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dumps_matches_the_reference_on_built_reports(shape, data):
    report = data.draw(REPORTS[shape])
    assert_same_text(report)
    paths = list(float_paths(report))
    if paths:
        path = data.draw(st.sampled_from(paths))
        assert_same_error(replaced(report, path, data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))))


def test_writers_name_the_first_non_finite_field_in_document_order():
    config = config_dict(load_config(GOLDEN / "delta0.json"))
    report = inspection_report(load_config(GOLDEN / "delta1.json"), tol=1e-9)
    late_config = replaced(config, ("T", 2, 1, 0), np.inf)
    late_report = replaced(report, ("positivity", "witness", "w", 0), np.nan)
    planted = (
        (replaced(late_config, ("B1", 1, 2), np.nan), "/B1/1/2 is nan"),
        (replaced(late_report, ("q_purity", "sphere_deviation", 1), np.inf), "/sphere_deviation/1 is inf"),
    )
    for bad, first in planted:
        assert first in assert_same_error(bad)


# ---------------------------------------------------------------- leaf types

PLAIN_LEAVES = (str, int, float, bool, type(None))


def assert_plain(obj, path=""):
    """Every container of obj is a dict, list or tuple and every leaf a str, int, float, bool or None, by exact type."""
    if type(obj) is dict:
        for key, member in obj.items():
            assert type(key) is str, f"{path}: key {key!r}"
            assert_plain(member, f"{path}/{key}")
    elif type(obj) in (list, tuple):
        for k, member in enumerate(obj):
            assert_plain(member, f"{path}/{k}")
    else:
        assert type(obj) in PLAIN_LEAVES, f"report field {path or '/'} is a {type(obj)!r}"


def command_reports(*argvs) -> list:
    """The report each command line's run hands to cli.dumps, in order."""
    reports = []
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        patch.setattr(cli, "dumps", lambda report: reports.append(report) or dumps(report))
        for argv in argvs:
            cli.main(argv)
    assert len(reports) == len(argvs)
    return reports


def config_commands(path) -> list:
    certify = [["certify", str(path), "--expect", expect] for expect in ("pure", "impure", "positive", "nonpositive")]
    return [["inspect", str(path)], ["inspect", str(path), "--tol", "0"], *certify]


def test_the_commands_build_reports_of_plain_leaves_on_the_golden_configs():
    per_config = [argv for path in CONFIGS for argv in config_commands(path)]
    names = [["catalog", entry.name] for entry in catalog.entries()]
    for report in command_reports(*per_config, *names, ["conjugacy"], ["conjugacy", "--grid", "7"]):
        assert_plain(report)


# T != 0, b != 0 or both, or T = 0, b = 0 (the linear stage), scaled around the
# norm bound, so the probes, the linear certificate, the norm bound and the
# branch and bound all decide some; a vertex cap of 12, the icosahedron's,
# stops the branch and bound after its first round, marginal where a face
# stays open.
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    quadratic=st.booleans(),
    offset=st.booleans(),
    ratio=st.sampled_from((0.5, 0.9, 1.05, 1.3, 3.0)),
    vertex_cap=st.sampled_from((positivity.VERTEX_CAP, 12)),
)
def test_the_commands_build_reports_of_plain_leaves_on_drawn_operators(tmp_path_factory, seed, quadratic, offset, ratio, vertex_cap):
    rng = np.random.default_rng(seed)
    blocks = {key: rng.normal(size=(3, 3)) for key in ("B1", "B2")}
    if quadratic:
        blocks["T"] = rng.normal(size=(3, 3, 3))
    if offset:
        blocks["b"] = rng.normal(size=3)
    d = DeltaCoefficients(**blocks)
    s = np.linalg.svd(basis_images(d), compute_uv=False)[:, 0]
    d = DeltaCoefficients(**{key: block * (ratio / np.sqrt(s @ s)) for key, block in blocks.items()})
    path = tmp_path_factory.mktemp("drawn") / "config.json"
    path.write_text(dumps(config_dict(d)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(positivity, "VERTEX_CAP", vertex_cap)
        reports = command_reports(*config_commands(path))
    for report in reports:
        assert_plain(report)


@pytest.mark.parametrize(
    "leaf",
    [np.float64(0.5), np.bool_(True), np.array([0.5, 0.25]), np.int64(3), {0.5}],
    ids=["float64", "bool_", "ndarray", "int64", "set"],
)
def test_dumps_refuses_a_leaf_of_any_other_type_by_its_field(leaf):
    report = inspection_report(catalog.get("delta1").delta, tol=1e-9)
    report["positivity"]["witness"]["w"] = [0.0, leaf, 1.0]
    with pytest.raises(TypeError, match=r"^report field /positivity/witness/w/1 is a "):
        dumps(report)
    report["positivity"]["witness"]["w"] = leaf
    with pytest.raises(TypeError, match=r"^report field /positivity/witness/w is a "):
        dumps(report)
    with pytest.raises(TypeError, match=r"^report field / is a "):
        dumps(leaf)
