"""CLI behavior: exit codes, round trips between subcommands, artifacts."""

import errno
import json
import math
import os
import re
from dataclasses import fields
from xml.dom import minidom

import numpy as np
import pytest

from gridquake.cli import build_parser, main
from gridquake.fixtures import (DEFAULT_EPICENTER, builtin_feeder,
                                default_event, random_radial_network)
from gridquake.model import network_to_document
from gridquake.pipeline import PipelineConfig
from gridquake.policy.nn import PolicyConfig, PolicyModel
from gridquake.scenarios import generate_scenarios, scenario_set_to_document
from gridquake.seismic import SeismicEvent


@pytest.fixture()
def network_path(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_document(builtin_feeder())))
    return str(path)


@pytest.fixture()
def model_path(tmp_path):
    path = str(tmp_path / "tiny.npz")
    PolicyModel.init(PolicyConfig(width=8, heads=2, enc_layers=1,
                                  dec_layers=1, ffn_hidden=12),
                     seed=0).save(path)
    return path


def test_gen_reduce_dispatch_round_trip(network_path, tmp_path, capsys):
    sc = str(tmp_path / "sc.json")
    assert main(["gen", "--network", network_path, "--magnitude", "7.5",
                 "--n", "25", "--seed", "3", "--out", sc]) == 0
    doc = json.load(open(sc))
    assert len(doc["scenarios"]) == 25

    red = str(tmp_path / "red.json")
    assert main(["reduce", "--scenarios", sc, "--k", "6",
                 "--periods", "2,10", "--out", red]) == 0
    assert len(json.load(open(red))["scenarios"]) == 6

    plan = str(tmp_path / "plan.json")
    assert main(["dispatch", "exact", "--network", network_path,
                 "--scenarios", sc, "--scenario-id", "0",
                 "--out", plan]) == 0
    pdoc = json.load(open(plan))
    assert pdoc["solver"] == "exact"
    assert pdoc["optimal"] is True
    capsys.readouterr()


def test_reduce_and_dispatch_read_sets_written_before_the_impact_map(
        network_path, tmp_path, capsys):
    sc, old = str(tmp_path / "sc.json"), tmp_path / "old.json"
    assert main(["gen", "--network", network_path, "--magnitude", "7.5",
                 "--n", "12", "--seed", "3", "--out", sc]) == 0
    doc = json.load(open(sc))
    # the older layout: a sampled PGA per scenario and component, no map
    del doc["impact"]
    for rec in doc["scenarios"]:
        rec["pga_g"] = {cid: 0.4 for cid in builtin_feeder().components}
    old.write_text(json.dumps(doc))
    red = tmp_path / "red.json"
    assert main(["reduce", "--scenarios", str(old), "--k", "4",
                 "--out", str(red)]) == 0
    reduced = json.loads(red.read_text())
    assert reduced["impact"] == []
    assert all("pga_g" not in rec for rec in reduced["scenarios"])
    plans = []
    for path in (sc, str(old)):
        out = tmp_path / "plan.json"
        assert main(["dispatch", "exact", "--network", network_path,
                     "--scenarios", path, "--scenario-id", "0",
                     "--out", str(out)]) == 0
        plans.append(out.read_text())
    assert plans[0] == plans[1]
    capsys.readouterr()


def test_stdout_json_is_the_out_file(network_path, tmp_path, capsys):
    """Without --out a command prints the bytes it writes with --out."""
    sc = str(tmp_path / "sc.json")
    commands = {
        "gen": ["gen", "--network", network_path, "--magnitude", "7.5",
                "--n", "12", "--seed", "3"],
        "reduce": ["reduce", "--scenarios", sc, "--k", "4",
                   "--periods", "2,10"],
        "eval": ["eval", "--network", network_path, "--failed", "c_l2,c_g1"],
        "dispatch": ["dispatch", "exact", "--network", network_path,
                     "--failed", "c_l3,c_g1,c_l5"],
    }
    for name, argv in commands.items():
        out = sc if name == "gen" else str(tmp_path / f"{name}.json")
        assert main(argv + ["--out", out]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed[:len(text)] == text, name
        # gen, reduce and dispatch end with one summary line, eval with none
        assert printed[len(text):].count("\n") == (name != "eval"), name


def test_eval_reports_shedding(network_path, capsys):
    assert main(["eval", "--network", network_path,
                 "--failed", "c_l1,c_g1"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[:out.rindex("}") + 1])
    assert doc["energized"]["b1"] is True
    assert doc["shed_mw"] >= 0.0


def test_ga_and_policy_dispatch(network_path, tmp_path, capsys):
    model_path = str(tmp_path / "m.npz")
    PolicyModel.init(PolicyConfig(width=8, heads=2, enc_layers=1,
                                  dec_layers=1, ffn_hidden=12),
                     seed=0).save(model_path)
    for solver, extra in (("ga", ["--pop", "20", "--gens", "15"]),
                          ("policy", ["--model", model_path,
                                      "--samples", "4"])):
        assert main(["dispatch", solver, "--network", network_path,
                     "--failed", "c_l1,c_l2,c_g1", "--seed", "1"]
                    + extra) == 0
    capsys.readouterr()


def test_dispatch_without_failures_gives_empty_plan(network_path, tmp_path,
                                                  model_path, capsys):
    docs = {}
    for solver, extra in (("exact", []),
                          ("ga", ["--pop", "10", "--gens", "5"]),
                          ("policy", ["--model", model_path])):
        out = str(tmp_path / f"{solver}.json")
        assert main(["dispatch", solver, "--network", network_path,
                     "--failed", "", "--out", out] + extra) == 0
        docs[solver] = json.load(open(out))
    for doc in docs.values():
        assert doc["objective"]["value"] == 0.0
        assert doc["routes"] == docs["exact"]["routes"]
        assert all(r == [] for r in doc["routes"].values())
    capsys.readouterr()


def test_parser_defaults_are_the_dataclass_defaults():
    defaults = {f.name: f.default for f in fields(PipelineConfig)}
    assert defaults["epicenter"] == DEFAULT_EPICENTER
    assert defaults["focal_depth_km"] == SeismicEvent.focal_depth_km
    parser = build_parser()
    dispatch = parser.parse_args(["dispatch", "exact", "--network", "n"])
    assert dispatch.gamma == defaults["gamma"]
    assert dispatch.max_comps == defaults["exact_max_components"]
    assert dispatch.max_crews == defaults["exact_max_crews"]
    assert dispatch.samples == defaults["policy_samples"]
    gen = parser.parse_args(["gen", "--network", "n", "--magnitude", "7"])
    assert tuple(map(float, gen.epicenter.split(","))) == defaults["epicenter"]
    assert gen.depth == defaults["focal_depth_km"]
    assert (gen.w1, gen.w2) == (defaults["w1"], defaults["w2"])


def test_exit_code_2_on_negative_samples(network_path, model_path, capsys):
    assert main(["dispatch", "policy", "--network", network_path,
                 "--failed", "c_l1", "--model", model_path,
                 "--samples", "-1"]) == 2
    assert "samples must be >= 0" in capsys.readouterr().err
    assert main(["dispatch", "policy", "--network", network_path,
                 "--failed", "c_l1", "--model", model_path,
                 "--samples", "-1"]) == 2
    assert "samples must be >= 0, got -1" in capsys.readouterr().err


def test_exit_code_2_on_checkpoint_missing_an_array(network_path, tmp_path,
                                                    model_path, capsys):
    with np.load(model_path) as data:
        arrays = {k: data[k] for k in data.files if k != "ptr.Wk"}
    path = str(tmp_path / "no_ptr_keys.npz")
    np.savez(path, **arrays)
    assert main(["dispatch", "policy", "--network", network_path,
                 "--failed", "c_l1", "--model", path]) == 2
    assert "missing ptr.Wk" in capsys.readouterr().err


@pytest.mark.parametrize("score_clip", [float("nan"), -10.0, 0.0,
                                        float("inf")])
def test_exit_code_2_on_checkpoint_with_bad_score_clip(
        score_clip, network_path, tmp_path, model_path, capsys):
    with np.load(model_path) as data:
        arrays = {k: data[k] for k in data.files}
    config = json.loads(bytes(arrays["__config__"]).decode("utf-8"))
    config["score_clip"] = score_clip
    arrays["__config__"] = np.frombuffer(json.dumps(config).encode("utf-8"),
                                         dtype=np.uint8)
    path = str(tmp_path / "bad_clip.npz")
    np.savez(path, **arrays)
    assert main(["dispatch", "policy", "--network", network_path,
                 "--failed", "c_l1", "--model", path]) == 2
    # the document reader refuses NaN and inf before PolicyConfig's rule
    rule = ("__config__.score_clip: expected a finite number"
            if not math.isfinite(score_clip)
            else "__config__.score_clip must be finite and > 0")
    assert rule in capsys.readouterr().err


def test_report_subcommands(network_path, tmp_path, capsys):
    plans = []
    for i, solver in enumerate(["exact", "ga"]):
        p = str(tmp_path / f"plan{i}.json")
        args = ["dispatch", solver, "--network", network_path,
                "--failed", "c_l1,c_l8,c_g2", "--out", p]
        if solver == "ga":
            args += ["--pop", "20", "--gens", "15"]
        assert main(args) == 0
        plans.append(p)
    cmp_csv = str(tmp_path / "cmp.csv")
    assert main(["report", "compare", "--plans", *plans,
                 "--out", cmp_csv]) == 0
    assert "gap_vs_best" in open(cmp_csv).read()
    # a plan whose name needs csv quoting exits 2 before the table is
    # written, so the old table stays whole
    before = open(cmp_csv, "rb").read()
    comma = str(tmp_path / "a,b.json")
    with open(comma, "w") as fh:
        fh.write(open(plans[0]).read())
    assert main(["report", "compare", "--plans", plans[1], comma,
                 "--out", cmp_csv]) == 2
    assert "csv cell needs quoting: 'a,b.json'" in capsys.readouterr().err
    assert open(cmp_csv, "rb").read() == before
    prefix = str(tmp_path / "resil")
    assert main(["report", "resilience", "--network", network_path,
                 "--plans", *plans, "--out", prefix]) == 0
    assert os.path.exists(prefix + ".csv")
    assert os.path.exists(prefix + ".svg")
    capsys.readouterr()


def _solver_plan(tmp_path, solver):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(dict(_PLAN, solver=solver)))
    return str(path)


@pytest.mark.parametrize("name", ["a,b", "a\rb"])
def test_exit_code_2_on_a_curve_name_that_needs_quoting(name, network_path,
                                                       tmp_path, capsys):
    """The header of the resilience table holds the curve names; one with
    a comma used to write a header wider than its rows, and a csv reader
    splits a header with a carriage return into two rows."""
    prefix = str(tmp_path / "r")
    assert main(["report", "resilience", "--network", network_path,
                 "--plans", _solver_plan(tmp_path, name),
                 "--out", prefix]) == 2
    assert f"csv cell needs quoting: {name!r}" in capsys.readouterr().err
    assert not os.path.exists(prefix + ".csv")
    assert not os.path.exists(prefix + ".svg")


def test_resilience_chart_escapes_its_text(network_path, tmp_path, capsys):
    prefix = str(tmp_path / "r")
    assert main(["report", "resilience", "--network", network_path,
                 "--plans", _solver_plan(tmp_path, "a<b&c"),
                 "--out", prefix]) == 0
    svg = minidom.parse(prefix + ".svg")
    texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert "a<b&c" in texts
    capsys.readouterr()


def test_pipeline_command(network_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "magnitudes": [7.5], "n_scenarios": 20, "reduce_to": 4,
        "return_periods": [2, 10], "seed": 2,
        "ga_population": 15, "ga_generations": 10,
    }))
    out = str(tmp_path / "study")
    assert main(["pipeline", "--network", network_path,
                 "--config", str(cfg), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    capsys.readouterr()


def _pipeline_study(network_path, tmp_path, out=None, magnitudes=(7.5,),
                    code=0) -> str:
    """A small study at seed 2 (M7.5 unless told otherwise) whose
    representatives need repairs, written to `out` (default `study`); the
    command must exit with `code`."""
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "magnitudes": list(magnitudes), "n_scenarios": 20, "reduce_to": 4,
        "return_periods": [2, 10], "seed": 2,
        "ga_population": 15, "ga_generations": 10,
    }))
    out = out or str(tmp_path / "study")
    assert main(["pipeline", "--network", network_path,
                 "--config", str(cfg), "--out", out]) == code
    return out


def _tree(root) -> dict:
    """Every file under `root`, relative path -> bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_pipeline_refuses_a_used_output_directory(network_path, tmp_path,
                                                  capsys):
    # a one-magnitude rerun into a two-magnitude study's directory
    study = tmp_path / "study"
    _pipeline_study(network_path, tmp_path, magnitudes=(6.5, 7.5))
    entries, before = sorted(tmp_path.iterdir()), _tree(study)
    _pipeline_study(network_path, tmp_path, code=2)
    assert "holds 'comparison.csv'" in capsys.readouterr().err
    assert _tree(study) == before
    assert sorted(tmp_path.iterdir()) == entries


def test_pipeline_exits_2_when_out_cannot_be_renamed_onto(
        network_path, tmp_path, monkeypatch, capsys):
    """An --out that is itself a mount point refuses the final rename."""
    def busy(src, dst):
        raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), dst)

    (tmp_path / "mnt").mkdir()
    (tmp_path / "study.json").touch()
    entries = sorted(tmp_path.iterdir())
    monkeypatch.setattr(os, "rename", busy)
    _pipeline_study(network_path, tmp_path, out=str(tmp_path / "mnt"),
                    code=2)
    assert "Device or resource busy" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == entries
    assert not any((tmp_path / "mnt").iterdir())


def test_pipeline_accepts_an_empty_or_slashed_output_directory(
        network_path, tmp_path, capsys):
    fresh = _pipeline_study(network_path, tmp_path)
    (tmp_path / "empty").mkdir()
    for out in (str(tmp_path / "empty"), str(tmp_path / "slashed") + "/"):
        _pipeline_study(network_path, tmp_path, out=out)
        assert _tree(tmp_path / out)["manifest.json"] == \
            _tree(tmp_path / fresh)["manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "empty", "net.json", "slashed", "study", "study.json"]
    capsys.readouterr()


def _ok_plans(out: str) -> dict:
    """Paths of the pipeline's ok plan documents, by resilience file stem."""
    plans = {}
    for name in sorted(os.listdir(os.path.join(out, "plans"))):
        path = os.path.join(out, "plans", name)
        if json.load(open(path))["status"] == "ok":
            stem = name.rsplit("_", 1)[0]
            plans.setdefault(stem, []).append(path)
    return plans


def test_report_resilience_matches_pipeline_curves(network_path, tmp_path,
                                                   capsys):
    out = _pipeline_study(network_path, tmp_path)
    plans = _ok_plans(out)
    assert plans
    for stem, paths in plans.items():
        prefix = str(tmp_path / stem)
        assert main(["report", "resilience", "--network", network_path,
                     "--plans", *paths, "--out", prefix]) == 0
        want = os.path.join(out, "resilience", stem + ".csv")
        assert open(prefix + ".csv", "rb").read() == open(want, "rb").read()
    capsys.readouterr()


def test_dispatch_exact_matches_pipeline_plan(network_path, tmp_path, capsys):
    out = _pipeline_study(network_path, tmp_path)
    scenarios = json.load(open(os.path.join(out, "scenarios",
                                            "m7_5_full.json")))["scenarios"]
    failed = {s["id"]: s["failed"] for s in scenarios}
    checked = 0
    for stem, paths in _ok_plans(out).items():
        [exact] = [p for p in paths if p.endswith("_exact.json")]
        want = json.load(open(exact))
        plan = str(tmp_path / f"{stem}.json")
        assert main(["dispatch", "exact", "--network", network_path,
                     "--failed", ",".join(failed[want["scenario_id"]]),
                     "--out", plan]) == 0
        got = json.load(open(plan))
        for key in ("objective", "routes", "arrival", "completion",
                    "return_hours", "makespan_hours", "optimal"):
            assert got[key] == want[key], (stem, key)
        checked += 1
    assert checked >= 1
    capsys.readouterr()


def test_dispatch_plan_files_are_rerunnable(network_path, tmp_path, capsys):
    for solver, extra in (("exact", []),
                          ("ga", ["--pop", "20", "--gens", "15"])):
        outs = [str(tmp_path / f"{solver}{i}.json") for i in range(2)]
        for out in outs:
            assert main(["dispatch", solver, "--network", network_path,
                         "--failed", "c_l1,c_l8,c_g2", "--seed", "4",
                         "--out", out] + extra) == 0
        a, b = (open(out, "rb").read() for out in outs)
        assert a == b, solver
        doc = json.loads(a)
        assert doc["status"] == "ok"
        assert doc["optimal"] is (solver == "exact")
    capsys.readouterr()


def test_exit_code_2_on_empty_ga_population(network_path, capsys):
    assert main(["dispatch", "ga", "--network", network_path,
                 "--failed", "c_l1", "--pop", "0"]) == 2
    assert "population_size must be >= 1" in capsys.readouterr().err


def test_exit_code_2_on_negative_ga_generations(network_path, capsys):
    assert main(["dispatch", "ga", "--network", network_path,
                 "--failed", "c_l1", "--gens", "-1"]) == 2
    assert "generations must be >= 0" in capsys.readouterr().err


def test_exit_code_2_on_resilience_plans_from_one_solver(network_path,
                                                         tmp_path, capsys):
    plans = []
    for i, failed in enumerate(["c_l1,c_g2", "c_l8"]):
        plans.append(str(tmp_path / f"plan{i}.json"))
        assert main(["dispatch", "exact", "--network", network_path,
                     "--failed", failed, "--out", plans[-1]]) == 0
    prefix = str(tmp_path / "r")
    assert main(["report", "resilience", "--network", network_path,
                 "--plans", *plans, "--out", prefix]) == 2
    assert "a second plan named 'exact'" in capsys.readouterr().err
    assert not os.path.exists(prefix + ".csv")
    assert not os.path.exists(prefix + ".svg")


def test_exit_code_2_on_resilience_horizon_before_last_repair(
        network_path, tmp_path, capsys):
    plan = str(tmp_path / "plan.json")
    assert main(["dispatch", "exact", "--network", network_path,
                 "--failed", "c_l1,c_l8,c_g2", "--out", plan]) == 0
    assert main(["report", "resilience", "--network", network_path,
                 "--plans", plan, "--horizon", "1",
                 "--out", str(tmp_path / "r")]) == 2
    assert "ends before the last repair" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "r.csv"))


def test_exit_code_2_on_a_feeder_that_sheds_with_nothing_failed(tmp_path,
                                                                capsys):
    # a plain random radial feeder's lines cannot carry its peak load
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_document(
        random_radial_network(0, n_buses=30))))
    out = tmp_path / "run"
    assert main(["pipeline", "--network", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"sheds [0-9.]+ MW of its peak load with nothing "
                     r"failed", err)
    assert not out.exists()

    plan = str(tmp_path / "plan.json")
    assert main(["dispatch", "exact", "--network", str(path),
                 "--failed", "c_l1", "--out", plan]) == 0
    prefix = str(tmp_path / "r")
    assert main(["report", "resilience", "--network", str(path),
                 "--plans", plan, "--out", prefix]) == 2
    assert "with nothing failed" in capsys.readouterr().err
    assert not os.path.exists(prefix + ".csv")
    assert not os.path.exists(prefix + ".svg")


def test_exit_code_2_on_bad_inputs(tmp_path, network_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--network", str(bad), "--magnitude", "7"]) == 2
    assert main(["gen", "--network", str(tmp_path / "missing.json"),
                 "--magnitude", "7"]) == 2
    assert main(["eval", "--network", network_path,
                 "--failed", "does_not_exist"]) == 2
    assert main(["dispatch", "policy", "--network", network_path,
                 "--failed", "c_l1", "--model", ""]) == 2
    capsys.readouterr()


def test_exit_code_2_on_unknown_failed_id_in_dispatch(network_path,
                                                      tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["dispatch", "exact", "--network", network_path,
                 "--failed", "c_l1,c_zz", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "c_zz" in err and "c_l1" not in err
    assert not out.exists()


def test_exit_code_2_on_reduce_k_below_one(network_path, tmp_path, capsys):
    sc = str(tmp_path / "sc.json")
    assert main(["gen", "--network", network_path, "--magnitude", "7.5",
                 "--n", "5", "--seed", "1", "--out", sc]) == 0
    for k in ("0", "-1"):
        assert main(["reduce", "--scenarios", sc, "--k", k]) == 2
        assert "k must be >= 1" in capsys.readouterr().err
    assert main(["reduce", "--scenarios", sc, "--k", "0"]) == 2
    assert "k must be >= 1, got 0" in capsys.readouterr().err
    # return periods 2 and 10 protect two scenarios of this set
    assert main(["reduce", "--scenarios", sc, "--k", "1",
                 "--periods", "2,10"]) == 2
    assert ("k must be >= the protected count 2, got 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv,rule", [
    (["gen", "--magnitude", "7.5", "--n", "3", "--w1", "-1"],
     "w1 must be >= 0"),
    (["gen", "--magnitude", "7.5", "--n", "3", "--w2", "-0.5"],
     "w2 must be >= 0"),
    (["eval", "--failed", "c_l1", "--hour", "-3"], "--hour must be >= 0"),
    (["eval", "--failed", "c_l1", "--hour", "-3"],
     "--hour must be >= 0, got -3"),
    (["gen", "--magnitude", "7.5", "--n", "0"], "n must be >= 1, got 0")])
def test_exit_code_2_on_negative_weight_or_hour(argv, rule, network_path,
                                                tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(argv + ["--network", network_path, "--out", str(out)]) == 2
    assert rule in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_2_on_bad_magnitude(network_path, capsys):
    assert main(["gen", "--network", network_path,
                 "--magnitude", "12.0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags,rule", [
    (["--epicenter", "nan,0"], "epicenter_x must be finite"),
    (["--epicenter", "0,inf"], "epicenter_y must be finite"),
    (["--depth", "nan"], "focal_depth_km must be >= 0 and finite"),
    (["--depth", "inf"], "focal_depth_km must be >= 0 and finite")])
def test_exit_code_2_on_non_finite_event(flags, rule, network_path, tmp_path,
                                         capsys):
    # a NaN epicenter or depth made every PGA NaN, so nothing failed
    out = tmp_path / "out.json"
    assert main(["gen", "--network", network_path, "--magnitude", "7.5",
                 "--n", "5", "--out", str(out)] + flags) == 2
    assert rule in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_3_on_solver_limits(network_path, tmp_path, capsys):
    # 15 failed components funneled to one depot area exceed the default cap
    net = builtin_feeder()
    failed = ",".join(net.components)
    assert main(["dispatch", "exact", "--network", network_path,
                 "--failed", failed, "--max-comps", "3"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flags,rule", [
    (["--time-limit", "nan"], "time limit must be >= 0"),
    (["--time-limit", "-1"], "time limit must be >= 0"),
    (["--max-comps", "0"], "max_components_per_depot must be >= 1"),
    (["--max-crews", "0"], "max_crews_per_depot must be >= 1")])
def test_dispatch_exact_rejects_bad_settings_before_writing(
        flags, rule, network_path, tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["dispatch", "exact", "--network", network_path,
                 "--failed", "c_l1,c_g2", "--out", str(out)] + flags) == 2
    assert rule in capsys.readouterr().err
    assert not out.exists()


def test_train_command_smoke(tmp_path, capsys):
    out = str(tmp_path / "model.npz")
    assert main(["train", "--out", out, "--iterations", "2", "--batch", "4",
                 "--width", "8", "--n-min", "2", "--n-max", "3"]) == 0
    model = PolicyModel.load(out)
    assert model.config.width == 8
    assert " s/iteration" in capsys.readouterr().out


@pytest.mark.parametrize("flags,rule", [
    (["--width", "0"], "width must be >= 1"),
    (["--iterations", "-3"], "iterations must be >= 1"),
    (["--iterations", "0"], "iterations must be >= 1"),
    (["--batch", "1"], "batch_size must be >= 2"),
    (["--lr", "0"], "lr must be finite and > 0"),
    (["--lr", "nan"], "lr must be finite and > 0"),
    (["--n-min", "9", "--n-max", "5"], "n_max must be >= n_min"),
    (["--n-min", "0", "--n-max", "0"], "n_min must be >= 1"),
    (["--depots", "0"], "depot_count must be >= 1"),
    (["--crews", "0"], "crews_per_depot must be >= 1")])
def test_train_rejects_bad_settings_before_writing(flags, rule, tmp_path,
                                                   capsys):
    out = tmp_path / "model.npz"
    assert main(["train", "--out", str(out), "--width", "8"] + flags) == 2
    assert rule in capsys.readouterr().err
    assert not out.exists()


def _scenario_doc() -> dict:
    return scenario_set_to_document(
        generate_scenarios(builtin_feeder(), default_event(7.5), 3, seed=1))


_PLAN = {"solver": "exact", "status": "ok", "completion": {"c_l3": 2.5},
         "objective": {"value": 1.0, "makespan_hours": 2.5,
                       "weighted_completion": 1.0, "gamma": 0.5}}


@pytest.mark.parametrize("kind,edit,where", [
    ("network", lambda d: d["buses"][0].update(x="abc"), "buses[0].x"),
    ("network", lambda d: d["profiles"][0].update(p_mw=5), "profiles[0].p_mw"),
    ("network", lambda d: d["components"][0].update(fragility=3),
     "components[0].fragility"),
    ("network", lambda d: d["buses"][1].update(v_mn=0.9), "buses[1].v_mn"),
    ("network", lambda d: d.update(substation_import_mvaa=3.0),
     "substation_import_mvaa"),
    ("network", lambda d: d["depots"][0].update(crew_count=1.7),
     "depots[0].crew_count"),
    ("network", lambda d: d["buses"][0].update(is_substation="false"),
     "buses[0].is_substation"),
    ("network", lambda d: d.update(timestep_hours=-1), "timestep_hours"),
    ("network", lambda d: d.update(substation_import_mva=-2),
     "substation_import_mva"),
    ("network", lambda d: d.update(travel_speed_kmh=0), "travel_speed_kmh"),
    # a value rule of each record kind, led by the field's path
    ("network", lambda d: d["buses"][1].update(v_max=0.5),
     "buses[1].v_max must be "),
    ("network", lambda d: d["lines"][1].update(capacity_mva=0.0),
     "lines[1].capacity_mva must be "),
    ("network", lambda d: d["generators"][1].update(p_min=2.0),
     "generators[1].p_max must be "),
    ("network", lambda d: d["profiles"][1].update(p_mw=[1.0, -0.5]),
     "profiles[1].p_mw must be "),
    ("network", lambda d: d["depots"][1].update(crew_count=0),
     "depots[1].crew_count must be "),
    ("network", lambda d: d["components"][2].update(repair_hours=-1.0),
     "components[2].repair_hours must be "),
    ("network", lambda d: d["components"][2].update(
        fragility={"median_g": 0.0, "beta": 0.5}),
     "components[2].fragility.median_g must be "),
    ("config", lambda d: d.update(magnitudes="7.5"), "magnitudes"),
    ("config", lambda d: d.update(magnitudes=[11]),
     "magnitudes[0] must be in [4, 10], got 11"),
    ("config", lambda d: d.update(return_periods=[0, 2]), "return_periods"),
    ("config", lambda d: d.update(epicenter=[1, 2, 3]), "epicenter"),
    ("config", lambda d: d.update(seed=1.5), "seed"),
    ("scenarios", lambda d: d["scenarios"][0].update(failed="c_l3"),
     "scenarios[0].failed"),
    # by_id and forward_reduce took different scenarios for a repeated id,
    # and a negative weight that the others offset reduced: both exited 0
    ("scenarios", lambda d: d["scenarios"][2].update(id=1),
     "scenarios[2].id must be unique, got 1"),
    ("scenarios", lambda d: [s.update(weight=w) for s, w in
                             zip(d["scenarios"], (-0.5, 1.0, 0.5))],
     "scenarios[0].weight must be >= 0, got -0.5"),
    ("plan", lambda d: d.update(completion={"c_l3": "x"}),
     "completion.c_l3"),
    ("plan", lambda d: d["objective"].update(value="x"), "objective.value"),
    # a numeric solver crashed `report resilience` and filled compare's cell
    ("plan", lambda d: d.update(solver=5), "solver: expected a string, got 5"),
])
def test_exit_code_2_on_malformed_documents(kind, edit, where, tmp_path,
                                            network_path, capsys):
    doc = {"network": network_to_document(builtin_feeder()),
           "config": {"magnitudes": [7.5], "n_scenarios": 10,
                      "reduce_to": 4, "return_periods": [2, 10]},
           "scenarios": _scenario_doc(),
           "plan": json.loads(json.dumps(_PLAN))}[kind]
    edit(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if kind in ("network", "config"):
        net = str(path) if kind == "network" else network_path
        cfg = str(path) if kind == "config" else str(tmp_path / "cfg.json")
        if kind == "network":
            (tmp_path / "cfg.json").write_text("{}")
        runs = [["pipeline", "--network", net, "--config", cfg,
                 "--out", str(out)]]
    elif kind == "scenarios":
        runs = [["dispatch", "exact", "--network", network_path,
                 "--scenarios", str(path), "--scenario-id", "0",
                 "--out", str(out)],
                ["reduce", "--scenarios", str(path), "--k", "2",
                 "--out", str(out)]]
    else:
        runs = [["report", "resilience", "--network", network_path,
                 "--plans", str(path), "--out", str(out)],
                ["report", "compare", "--plans", str(path),
                 "--out", str(out)]]
    for argv in runs:
        assert main(argv) == 2, argv
        assert where in capsys.readouterr().err, argv
        assert not any(p.name.startswith("out")
                       for p in tmp_path.iterdir()), argv


@pytest.mark.parametrize("section,rid,field,value", [
    (None, None, "substation_import_mva", math.inf),
    ("components", "c_l1", "repair_hours", math.inf),
    ("buses", "b2", "x", math.nan),
    ("lines", "l1", "capacity_mva", math.inf),
    ("components", "c_l1", "fragility", {"median_g": math.nan, "beta": 0.5})])
def test_exit_code_2_on_non_finite_network_numbers(
        section, rid, field, value, tmp_path, capsys):
    doc = network_to_document(builtin_feeder())
    if section is None:
        doc[field] = value
        where = field
    else:
        i = [rec["id"] for rec in doc[section]].index(rid)
        doc[section][i][field] = value
        where = f"{section}[{i}].{field}"
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))  # NaN, Infinity: json reads them back
    out = tmp_path / "out.json"
    for argv in (["eval"], ["dispatch", "exact"],
                 ["dispatch", "ga", "--pop", "4", "--gens", "1"]):
        assert main(argv + ["--network", str(path), "--failed", "c_l1",
                            "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert where in err and "expected a finite number" in err, argv
        assert not out.exists(), argv


@pytest.mark.parametrize("hour", [float("nan"), float("inf"), -5.0])
def test_exit_code_2_on_plan_completion_not_finite_or_negative(
        hour, tmp_path, network_path, capsys):
    doc = json.loads(json.dumps(_PLAN))
    doc["completion"]["c_l3"] = hour
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))  # NaN, Infinity: json reads them back
    out = tmp_path / "out"
    for argv in (["report", "resilience", "--network", network_path,
                  "--plans", str(path), "--out", str(out)],
                 ["report", "compare", "--plans", str(path),
                  "--out", str(out)]):
        assert main(argv) == 2, argv
        assert f"{path}: completion.c_l3" in capsys.readouterr().err, argv
        assert not any(p.name.startswith("out")
                       for p in tmp_path.iterdir()), argv


def test_exit_code_2_on_generator_that_cannot_idle(tmp_path, capsys):
    """g1 must run at 1 MW, more than its bus b5 carries at peak (0.8 MW):
    once l4 fails, b5's island has no feasible point. That used to exit 4
    as a broken invariant; it is the document's doing."""
    doc = network_to_document(builtin_feeder())
    doc["generators"][0]["p_min"] = 1.0
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"magnitudes": [8.0], "n_scenarios": 100,
                               "reduce_to": 6, "seed": 3, "exact_ens": True}))
    out = tmp_path / "out.json"
    entries = sorted(tmp_path.iterdir())
    for argv in (["eval", "--network", str(net), "--failed", "c_l4",
                  "--out", str(out)],
                 ["pipeline", "--network", str(net), "--config", str(cfg),
                  "--out", str(tmp_path / "study")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "buses ['b5']" in err and "generators ['g1']" in err, argv
    # the study failed part-way: no out, no study directory, no sibling
    assert sorted(tmp_path.iterdir()) == entries
    # other failures leave g1 in an island that takes its minimum output
    assert main(["eval", "--network", str(net), "--failed", "c_l1"]) == 0
