"""Pipeline orchestration tests on a reduced configuration."""

import dataclasses
import json
import os
import re

import pytest

import gridquake.pipeline as pipeline
from gridquake.cli import main
from gridquake.dispatch import _Compiled
from gridquake.errors import ConfigError
from gridquake.fixtures import builtin_feeder
from gridquake.model import Network, load_network, network_to_document
from gridquake.pipeline import (PipelineConfig, config_from_document,
                                run_pipeline)
from gridquake.policy import PolicyConfig, PolicyModel
from test_powerflow import spy_island_solves

SMALL = PipelineConfig(magnitudes=(7.5,), n_scenarios=40, reduce_to=6,
                       return_periods=(2.0, 10.0), seed=5,
                       ga_population=25, ga_generations=30,
                       exact_time_limit_s=15.0)


def test_config_document_round_trip():
    cfg = config_from_document({"magnitudes": [6.5], "n_scenarios": 10,
                                "reduce_to": 4, "return_periods": [2, 10],
                                "seed": 1})
    assert cfg.magnitudes == (6.5,)
    assert cfg.n_scenarios == 10


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_document({"n_scenariosss": 10})


@pytest.mark.parametrize("field,where", [
    ({"magnitudes": "7.5"}, "magnitudes: expected a list"),
    ({"magnitudes": ["7.5"]}, "magnitudes[0]: expected a number"),
    ({"epicenter": [1.0]}, "epicenter: expected a list of 2 items"),
    ({"solvers": ["exact", 1]}, "solvers[1]: expected a string"),
    ({"seed": 1.5}, "seed: expected an integer"),
    ({"ga_population": 20.0}, "ga_population: expected an integer"),
    ({"exact_ens": 1}, "exact_ens: expected true or false"),
    ({"gamma": "0.5"}, "gamma: expected a number"),
    ({"policy_model": 3}, "policy_model: expected a string")])
def test_config_document_fields_are_typed(field, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        config_from_document(field)


def test_config_document_keeps_numbers_as_written():
    cfg = config_from_document({"gamma": 1, "w1": 2, "epicenter": [20, 15]})
    assert (cfg.gamma, cfg.w1, cfg.epicenter) == (1, 2, (20, 15))
    assert type(cfg.gamma) is int


def test_config_rejects_unknown_solver():
    with pytest.raises(ConfigError):
        PipelineConfig(solvers=("exact", "cplex"))


def test_config_policy_solver_needs_checkpoint():
    with pytest.raises(ConfigError):
        PipelineConfig(solvers=("policy",))


def test_config_reduce_to_must_cover_periods():
    with pytest.raises(ConfigError):
        PipelineConfig(reduce_to=2, return_periods=(2, 10, 50, 100))


@pytest.mark.parametrize("field", [{"ga_population": 0},
                                   {"ga_population": -3},
                                   {"policy_samples": -1}])
def test_config_rejects_empty_ga_population_and_negative_samples(field):
    with pytest.raises(ConfigError):
        PipelineConfig(**field)


@pytest.mark.parametrize("field,rule", [
    ({"gamma": -0.1}, "gamma must be in [0, 1]"),
    ({"gamma": 1.5}, "gamma must be in [0, 1]"),
    ({"gamma": float("nan")}, "gamma must be in [0, 1]"),
    ({"n_scenarios": 0}, "n_scenarios must be >= 1"),
    ({"ga_generations": -1}, "ga_generations must be >= 0"),
    ({"magnitudes": []}, "magnitudes must be non-empty"),
    ({"focal_depth_km": -5.0}, "focal_depth_km must be >= 0"),
    ({"w1": -1.0}, "w1 must be >= 0"),
    ({"w2": -0.5}, "w2 must be >= 0"),
    ({"exact_max_components": 0}, "exact_max_components must be >= 1"),
    ({"exact_max_components": -1}, "exact_max_components must be >= 1"),
    ({"exact_max_crews": 0}, "exact_max_crews must be >= 1"),
    ({"exact_time_limit_s": 0.0}, "exact_time_limit_s must be > 0"),
    ({"exact_time_limit_s": -1.0}, "exact_time_limit_s must be > 0"),
    ({"magnitudes": [11]}, "magnitudes[0] must be in [4, 10], got 11"),
    ({"return_periods": [0, 2]}, "return_periods must be > 0"),
    ({"epicenter": [1, 2, 3]}, "epicenter must be an (x, y) pair"),
    ({"reduce_to": 0, "return_periods": []}, "reduce_to must be >= 1"),
    ({"magnitudes": [7.5, 7.5000001]},
     "magnitudes 7.5 and 7.5000001 share the artifact tag m7_5"),
    ({"magnitudes": [6.5, 7.5, 7.5]},
     "magnitudes 7.5 and 7.5 share the artifact tag m7_5"),
    ({"magnitudes": [7.5, 3]}, "magnitudes[1] must be in [4, 10], got 3")])
def test_config_rejects_fields_before_any_output(field, rule, tmp_path):
    with pytest.raises(ConfigError, match=re.escape(rule)):
        PipelineConfig(**field)
    # a config document fails at load, so the CLI exits 2 having written
    # nothing, not even the output directory
    net, cfg = tmp_path / "net.json", tmp_path / "cfg.json"
    net.write_text(json.dumps(network_to_document(builtin_feeder())))
    cfg.write_text(json.dumps(field))
    out = tmp_path / "run"
    assert main(["pipeline", "--network", str(net), "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_a_study_reads_the_peak_hour_once(tmp_path, monkeypatch):
    calls = []
    peak_hour = Network.peak_hour

    def counting(net):
        calls.append(net)
        return peak_hour(net)

    monkeypatch.setattr(Network, "peak_hour", counting)
    config = PipelineConfig(magnitudes=(8.0,), reduce_to=6, ga_population=30,
                            ga_generations=40, exact_max_components=7, seed=5)
    run_pipeline(builtin_feeder(), config, str(tmp_path / "run"))
    assert len(calls) == 1


def test_pipeline_produces_expected_artifacts(tmp_path):
    net = builtin_feeder()
    out = str(tmp_path / "run")
    manifest = run_pipeline(net, SMALL, out)
    arts = manifest["artifacts"]
    assert "comparison.csv" in arts
    assert "summary.json" in arts
    assert "scenarios/m7_5_full.json" in arts
    assert "scenarios/m7_5_reduced.json" in arts
    assert "losses/m7_5_exceedance.csv" in arts
    assert any(k.startswith("plans/") for k in arts)
    assert any(k.startswith("resilience/") and k.endswith(".svg")
               for k in arts)
    # the sidecar exists but stays out of the manifest
    assert os.path.exists(os.path.join(out, "timings.json"))
    assert "timings.json" not in arts
    assert "manifest.json" not in arts

    summary = json.load(open(os.path.join(out, "summary.json")))
    m = summary["magnitudes"]["m7_5"]
    assert m["n_scenarios"] == 40
    assert set(m["return_period_loss"]) == {"2", "10"}
    assert m["reduction_w1"] >= 0.0

    # the directory walk is the manifest's oracle: the files under out are
    # exactly its artifacts, the manifest and the sidecar, and every
    # artifact hash matches the bytes on disk
    import hashlib
    on_disk = {os.path.relpath(os.path.join(root, name), out)
               .replace(os.sep, "/")
               for root, _, files in os.walk(out) for name in files}
    assert on_disk == set(arts) | {"manifest.json", "timings.json"}
    for rel, want in arts.items():
        with open(os.path.join(out, rel), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want, rel
    assert json.load(open(os.path.join(out, "manifest.json"))) == manifest


def test_pipeline_rerun_is_byte_identical(tmp_path):
    net = builtin_feeder()
    m1 = run_pipeline(net, SMALL, str(tmp_path / "a"))
    m2 = run_pipeline(net, SMALL, str(tmp_path / "b"))
    assert m1 == m2


def test_pipeline_rejects_threads_other_than_one(tmp_path):
    out = str(tmp_path / "run")
    with pytest.raises(ConfigError):
        run_pipeline(builtin_feeder(), SMALL, out, threads=2)
    assert not os.path.exists(out)


def test_pipeline_heuristic_rows_carry_gap(tmp_path):
    net = builtin_feeder()
    out = str(tmp_path / "run")
    run_pipeline(net, SMALL, out)
    plans = {}
    for name in os.listdir(os.path.join(out, "plans")):
        with open(os.path.join(out, "plans", name)) as fh:
            doc = json.load(fh)
        plans[doc["magnitude"], doc["scenario_id"], doc["solver"]] = doc
    lines = open(os.path.join(out, "comparison.csv")).read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    keys = [(float(r["magnitude"]), int(r["scenario_id"]), r["solver"])
            for r in rows]
    assert keys == sorted(plans)

    def number(cell):
        return None if cell == "" else float(cell)
    saw_ga = 0
    for key, row in zip(keys, rows):
        doc, exact = plans[key], plans[key[:2] + ("exact",)]
        obj = doc.get("objective", {})
        assert row["status"] == doc["status"]
        assert number(row["objective"]) == obj.get("value")
        assert number(row["makespan_hours"]) == obj.get("makespan_hours")
        assert (number(row["weighted_completion"])
                == obj.get("weighted_completion"))
        assert number(row["ens_mwh"]) == doc.get("ens_mwh")
        ref = exact.get("objective", {}).get("value")
        if doc["status"] == "ok" and exact["status"] == "ok" and ref > 0:
            gap = (obj["value"] - ref) / ref
            assert number(row["gap_vs_exact"]) == gap
        else:
            assert row["gap_vs_exact"] == ""
        if key[2] == "ga" and doc["status"] == "ok":
            saw_ga += 1
            # never better than exact
            assert number(row["gap_vs_exact"]) >= -1e-9
    assert saw_ga >= 1


def test_pipeline_compiles_each_instance_once_for_all_solvers(tmp_path,
                                                             monkeypatch):
    """Every solver of a scenario gets the same instance, and exact, the GA
    and a 16-sample policy decode share its one compiled form."""
    path = str(tmp_path / "m.npz")
    PolicyModel.init(PolicyConfig(width=8, heads=2, enc_layers=1,
                                  dec_layers=1, ffn_hidden=12),
                     seed=0).save(path)
    instances, compiled = [], []
    build, init = pipeline.instance_from_scenario, _Compiled.__init__

    def counting_build(*args, **kwargs):
        instances.append(build(*args, **kwargs))
        return instances[-1]

    def counting_init(self, instance):
        compiled.append(instance)
        init(self, instance)
    monkeypatch.setattr(pipeline, "instance_from_scenario", counting_build)
    monkeypatch.setattr(_Compiled, "__init__", counting_init)

    cfg = dataclasses.replace(SMALL, solvers=("exact", "ga", "policy"),
                              policy_model=path, policy_samples=16)
    manifest = run_pipeline(builtin_feeder(), cfg, str(tmp_path / "run"))
    plans = [k for k in manifest["artifacts"] if k.startswith("plans/")]
    assert len(plans) == 3 * len(instances) > 0
    assert len(compiled) == len(instances)
    assert all(a is b for a, b in zip(compiled, instances))


def test_pipeline_solves_each_energized_part_once_per_study(tmp_path,
                                                           monkeypatch):
    """Scenario losses (exact_ens) and every restoration timeline share one
    peak-hour cache of energized islands, which lives for one run_pipeline
    call only."""
    net = builtin_feeder()
    solved = spy_island_solves(monkeypatch)
    cfg = dataclasses.replace(SMALL, exact_ens=True)
    first = run_pipeline(net, cfg, str(tmp_path / "a"))
    per_study = len(solved)
    assert len(set(solved)) == per_study > 0
    second = run_pipeline(net, cfg, str(tmp_path / "b"))
    assert len(solved) == 2 * per_study
    assert solved[per_study:] == solved[:per_study]
    assert first == second


def test_pipeline_loads_policy_checkpoint_once_per_run(tmp_path, monkeypatch):
    path = str(tmp_path / "m.npz")
    PolicyModel.init(PolicyConfig(width=8, heads=2, enc_layers=1,
                                  dec_layers=1, ffn_hidden=12),
                     seed=0).save(path)
    loads = []
    load = PolicyModel.load.__func__

    def counting_load(cls, p):
        loads.append(p)
        return load(cls, p)
    monkeypatch.setattr(PolicyModel, "load", classmethod(counting_load))

    cfg = dataclasses.replace(SMALL, solvers=("exact", "policy"),
                              policy_model=path, policy_samples=2)
    net = builtin_feeder()
    m1 = run_pipeline(net, cfg, str(tmp_path / "a"))
    assert loads == [path]
    policy_plans = [k for k in m1["artifacts"] if k.endswith("_policy.json")]
    assert len(policy_plans) >= 2  # several policy jobs, one load
    m2 = run_pipeline(net, cfg, str(tmp_path / "b"))
    assert loads == [path, path]
    assert m1 == m2


def _as_integers(value):
    """A document with every integral float written as an integer."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, list):
        return [_as_integers(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_integers(v) for k, v in value.items()}
    return value


def test_integer_feeder_document_gives_the_same_manifest(tmp_path):
    doc = network_to_document(builtin_feeder())
    ints = load_network(json.dumps(_as_integers(doc)))
    assert type(ints.buses["b1"].x) is int
    assert type(ints.components["c_l1"].repair_hours) is int
    cfg = dataclasses.replace(SMALL, exact_ens=True)
    want = run_pipeline(load_network(doc), cfg, str(tmp_path / "floats"))
    got = run_pipeline(ints, cfg, str(tmp_path / "ints"))
    assert got == want
