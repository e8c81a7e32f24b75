"""Pipeline orchestration tests on a reduced configuration."""

import dataclasses
import json
import os

import pytest

from gridquake.errors import ConfigError
from gridquake.fixtures import builtin_feeder
from gridquake.pipeline import (PipelineConfig, config_from_document,
                                run_pipeline)
from gridquake.policy import PolicyConfig, PolicyModel

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

    # every artifact hash matches the bytes on disk
    import hashlib
    for rel, want in arts.items():
        with open(os.path.join(out, rel), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want, rel


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
    lines = open(os.path.join(out, "comparison.csv")).read().splitlines()
    header = lines[0].split(",")
    i_solver = header.index("solver")
    i_status = header.index("status")
    i_gap = header.index("gap_vs_exact")
    saw_ga = 0
    for line in lines[1:]:
        cells = line.split(",")
        if cells[i_solver] == "ga" and cells[i_status] == "ok":
            saw_ga += 1
            assert cells[i_gap] != ""
            assert float(cells[i_gap]) >= -1e-9  # never better than exact
    assert saw_ga >= 1


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
