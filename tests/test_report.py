"""Deterministic writer tests: JSON, CSV, SVG plots, curve checks."""

import json

import pytest

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
