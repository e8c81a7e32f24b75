"""Deterministic writer tests: JSON, CSV, SVG plots, curve checks."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gridquake.errors import ConfigError
from gridquake.report import (fmt_float, plot_lines_svg,
                              resilience_curves_ok, write_comparison_csv,
                              write_csv, write_json, write_resilience_csv)


def test_fmt_float_repr_round_trip():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(1 / 3) == repr(1 / 3)
    assert fmt_float(True) == "true"
    assert fmt_float(7) == "7"
    assert float(fmt_float(5.0)) == 5.0


def test_write_json_sorted_with_trailing_newline(tmp_path):
    path = tmp_path / "o.json"
    write_json({"b": 1, "a": [1.5, None]}, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [1.5, None]}


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**63, max_value=2**200).map(lambda i: -i),
    st.integers(min_value=2**63, max_value=2**200),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(), st.sampled_from(["é ü 😀", "\x00\x1f\x7f", "a\tb\nc\r", '"\\',
                                "\u2028\ud800"]),
)
# one key type per dict, so that json can sort the keys
_KEYS = (st.text(max_size=4), st.integers() | st.floats() | st.booleans(),
         st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in _KEYS))


_TREES = st.recursive(_SCALARS, _containers, max_leaves=12)


@st.composite
def _documents(draw):
    """A random tree wrapped in four more containers, each beside siblings."""
    doc = draw(_TREES)
    for _ in range(4):
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        if kind == "dict":
            doc = {**draw(st.dictionaries(st.text(max_size=3), _TREES,
                                          max_size=2)),
                   draw(st.text(max_size=3)): doc}
        else:
            siblings = draw(st.lists(_TREES, max_size=2))
            doc = (list if kind == "list" else tuple)([*siblings, doc])
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_documents())
def test_write_json_writes_the_bytes_of_json_dumps(doc, tmp_path):
    path = tmp_path / "doc.json"
    write_json(doc, str(path))
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


_REFUSED = [np.int64(3), {1, 2}, b"ab"]


@pytest.mark.parametrize("doc", [
    *_REFUSED,
    *([1.5, v] for v in _REFUSED),  # in a flat container
    *({"a": [1.0], "b": v} for v in _REFUSED),  # beside a container
])
def test_write_json_raises_type_error_where_json_dump_does(doc, tmp_path):
    with pytest.raises(TypeError) as want:
        json.dump(doc, io.StringIO(), indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        write_json(doc, str(tmp_path / "o.json"))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("doc", [{np.int64(3): 1.0}, {b"ab": [[1]]},
                                 {(1, 2): [[1]]}])
def test_write_json_refuses_the_keys_json_dump_refuses(doc, tmp_path):
    # json's C and Python encoders name a numpy key's type differently
    with pytest.raises(TypeError, match="^keys must be str, int, float"):
        json.dump(doc, io.StringIO(), indent=2, sort_keys=True)
    with pytest.raises(TypeError, match="^keys must be str, int, float"):
        write_json(doc, str(tmp_path / "o.json"))


def test_write_json_leaves_the_file_alone_when_encoding_fails(tmp_path):
    path = tmp_path / "o.json"
    write_json({"a": [1.0] * 3}, str(path))
    good = path.read_bytes()
    with pytest.raises(TypeError):
        write_json({"a": [1.0] * 3, "b": np.int64(3)}, str(path))
    assert path.read_bytes() == good


def test_write_csv_rejects_cells_needing_quoting(tmp_path):
    path = tmp_path / "o.csv"
    with pytest.raises(ConfigError):
        write_csv(str(path), ["a"], [["x,y"]])


def test_csv_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [[1.25, "x"], [2.5, "y"]]
    write_csv(str(p1), ["v", "n"], rows)
    write_csv(str(p2), ["v", "n"], rows)
    assert p1.read_bytes() == p2.read_bytes()


def plan(solver, objective, status="ok", mag=7.0, sid=1):
    """A pipeline plan document, without the routes and times the
    comparison table does not read; a plan at a limit has no objective."""
    doc = {"solver": solver, "status": status, "magnitude": mag,
           "scenario_id": sid}
    if objective is not None:
        doc.update(objective={"value": objective, "makespan_hours": 1.0,
                              "weighted_completion": 1.0, "gamma": 0.5},
                   ens_mwh=2.0)
    return doc


def comparison_rows(plans, tmp_path):
    path = tmp_path / "cmp.csv"
    write_comparison_csv(plans, str(path))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_gap_relative_to_exact(tmp_path):
    rows = comparison_rows([plan("exact", 10.0), plan("ga", 10.5),
                            plan("policy", None, status="limit"),
                            plan("ga", 3.0, sid=2),
                            plan("exact", 0.0, sid=3), plan("ga", 1.0, sid=3),
                            plan("exact", None, status="limit", sid=4),
                            plan("ga", 2.0, sid=4)], tmp_path)
    by = {(int(r["scenario_id"]), r["solver"]): r for r in rows}
    assert float(by[1, "exact"]["gap_vs_exact"]) == 0.0
    assert float(by[1, "ga"]["gap_vs_exact"]) == pytest.approx(0.05)
    assert by[1, "policy"]["gap_vs_exact"] == ""
    assert by[1, "policy"]["objective"] == ""
    # no exact plan, an exact objective of 0, or an exact plan at a limit
    for key in ((2, "ga"), (3, "ga"), (4, "ga")):
        assert by[key]["gap_vs_exact"] == ""


def test_comparison_csv_sorted_and_without_timing(tmp_path):
    path = tmp_path / "cmp.csv"
    write_comparison_csv([plan("ga", 11.0, sid=2), plan("exact", 10.0, sid=2),
                          plan("exact", 9.0, sid=1)], str(path))
    lines = path.read_text().splitlines()
    assert "seconds" not in lines[0]
    assert lines[1].startswith("7.0,1,exact")
    assert lines[2].startswith("7.0,2,exact")
    assert lines[3].startswith("7.0,2,ga")


def test_resilience_csv_requires_common_grid(tmp_path):
    with pytest.raises(ConfigError):
        write_resilience_csv({"a": ([0, 1], [0.1, 1.0]),
                              "b": ([0, 2], [0.2, 1.0])},
                             str(tmp_path / "r.csv"))


def test_svg_plot_deterministic_and_self_contained(tmp_path):
    curves = {"one": ([0, 1, 2], [0.0, 0.4, 1.0]),
              "two": ([0, 1, 2], [0.1, 0.5, 0.9])}
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    plot_lines_svg(curves, str(p1), title="t", xlabel="x", ylabel="y")
    plot_lines_svg(curves, str(p2), title="t", xlabel="x", ylabel="y")
    body = p1.read_text()
    assert p1.read_bytes() == p2.read_bytes()
    assert body.count("<polyline") == 2
    # self-contained: nothing but the svg namespace declaration
    assert "href" not in body and "url(" not in body and "<script" not in body
    assert "one" in body and "two" in body


def test_svg_step_mode_draws_staircase(tmp_path):
    p = tmp_path / "s.svg"
    plot_lines_svg({"c": ([0, 1], [1.0, 0.5])}, str(p), title="t",
                   xlabel="x", ylabel="y", step=True)
    assert "<polyline" in p.read_text()


def test_resilience_curves_ok_checks():
    good = {"a": ([0, 1, 2], [0.5, 0.75, 1.0])}
    assert resilience_curves_ok(good) == []
    dipping = {"a": ([0, 1, 2], [0.5, 0.4, 1.0])}
    assert resilience_curves_ok(dipping)
    unfinished = {"a": ([0, 1, 2], [0.5, 0.75, 0.8])}
    assert resilience_curves_ok(unfinished)
