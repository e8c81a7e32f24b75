"""CLI behavior: exit codes, round trips between subcommands, artifacts."""

import json
import os

import numpy as np
import pytest

from gridquake.cli import main
from gridquake.fixtures import builtin_feeder, default_event
from gridquake.model import network_to_document
from gridquake.policy.nn import PolicyConfig, PolicyModel
from gridquake.scenarios import generate_scenarios, scenario_set_to_document


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


def test_exit_code_2_on_checkpoint_missing_an_array(network_path, tmp_path,
                                                    model_path, capsys):
    with np.load(model_path) as data:
        arrays = {k: data[k] for k in data.files if k != "ptr.Wk"}
    path = str(tmp_path / "no_ptr_keys.npz")
    np.savez(path, **arrays)
    assert main(["dispatch", "policy", "--network", network_path,
                 "--failed", "c_l1", "--model", path]) == 2
    assert "missing ptr.Wk" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv,rule", [
    (["gen", "--magnitude", "7.5", "--n", "3", "--w1", "-1"],
     "w1 must be >= 0"),
    (["gen", "--magnitude", "7.5", "--n", "3", "--w2", "-0.5"],
     "w2 must be >= 0"),
    (["eval", "--failed", "c_l1", "--hour", "-3"], "--hour must be >= 0")])
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
    (["--lr", "nan"], "lr must be finite and > 0")])
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
    ("config", lambda d: d.update(magnitudes="7.5"), "magnitudes"),
    ("config", lambda d: d.update(magnitudes=[11]), "magnitude 11"),
    ("config", lambda d: d.update(return_periods=[0, 2]), "return_periods"),
    ("config", lambda d: d.update(epicenter=[1, 2, 3]), "epicenter"),
    ("config", lambda d: d.update(seed=1.5), "seed"),
    ("scenarios", lambda d: d["scenarios"][0].update(failed="c_l3"),
     "scenarios[0].failed"),
    ("plan", lambda d: d.update(completion={"c_l3": "x"}),
     "completion.c_l3"),
    ("plan", lambda d: d["objective"].update(value="x"), "objective.value"),
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
