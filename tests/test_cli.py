"""CLI behavior: exit codes, round trips between subcommands, artifacts."""

import json
import os

import numpy as np
import pytest

from gridquake.cli import main
from gridquake.fixtures import builtin_feeder
from gridquake.model import network_to_document
from gridquake.policy.nn import PolicyConfig, PolicyModel


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


def test_exit_code_2_on_negative_samples(network_path, model_path, capsys):
    assert main(["dispatch", "policy", "--network", network_path,
                 "--failed", "c_l1", "--model", model_path,
                 "--samples", "-1"]) == 2
    assert "samples must be >= 0" in capsys.readouterr().err


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
    prefix = str(tmp_path / "resil")
    assert main(["report", "resilience", "--network", network_path,
                 "--plans", *plans, "--out", prefix]) == 0
    assert os.path.exists(prefix + ".csv")
    assert os.path.exists(prefix + ".svg")
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


def _pipeline_study(network_path, tmp_path) -> str:
    """A small M7.5 study at seed 2 whose representatives need repairs."""
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "magnitudes": [7.5], "n_scenarios": 20, "reduce_to": 4,
        "return_periods": [2, 10], "seed": 2,
        "ga_population": 15, "ga_generations": 10,
    }))
    out = str(tmp_path / "study")
    assert main(["pipeline", "--network", network_path,
                 "--config", str(cfg), "--out", out]) == 0
    return out


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


def test_exit_code_2_on_reduce_k_below_one(network_path, tmp_path, capsys):
    sc = str(tmp_path / "sc.json")
    assert main(["gen", "--network", network_path, "--magnitude", "7.5",
                 "--n", "5", "--seed", "1", "--out", sc]) == 0
    for k in ("0", "-1"):
        assert main(["reduce", "--scenarios", sc, "--k", k]) == 2
        assert "k must be >= 1" in capsys.readouterr().err


def test_exit_code_2_on_bad_magnitude(network_path, capsys):
    assert main(["gen", "--network", network_path,
                 "--magnitude", "12.0"]) == 2
    capsys.readouterr()


def test_exit_code_3_on_solver_limits(network_path, tmp_path, capsys):
    # 15 failed components funneled to one depot area exceed the default cap
    net = builtin_feeder()
    failed = ",".join(net.components)
    assert main(["dispatch", "exact", "--network", network_path,
                 "--failed", failed, "--max-comps", "3"]) == 3
    capsys.readouterr()


def test_train_command_smoke(tmp_path, capsys):
    out = str(tmp_path / "model.npz")
    assert main(["train", "--out", out, "--iterations", "2", "--batch", "4",
                 "--width", "8", "--n-min", "2", "--n-max", "3"]) == 0
    model = PolicyModel.load(out)
    assert model.config.width == 8
    capsys.readouterr()
