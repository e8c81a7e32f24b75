"""Acceptance gate: twelve end-to-end criteria with pinned tolerances.

Each criterion prints one [PASS]/[FAIL] line (visible with pytest -s; the
test name carries the same verdict in -v output) and asserts its runtime
budget alongside the functional checks.

Oracles: mpmath for the normal CDF, exhaustive lattice grid search for the
shedding LP, unpruned route enumeration for the dispatch optimum, central
finite differences for gradients, direct 1-Wasserstein computation for the
reduction quality check.
"""

import hashlib
import itertools
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import gridquake as gq
import gridquake.policy.autodiff as ad
from gridquake.fixtures import (builtin_feeder, default_event,
                                random_radial_network)
from gridquake.model import FragilityCurve, load_network
from gridquake.pipeline import PipelineConfig, run_pipeline
from gridquake.policy import (InstanceFamily, PolicyConfig, PolicyModel,
                              PpoConfig, policy_dispatch, ppo_train)
from gridquake.policy.nn import COMP_FEATURES
from gridquake.scenarios import reduction_distance

from test_dispatch import brute_force_value
from test_powerflow import brute_force_min_shed


@contextmanager
def criterion(num, label, budget_s):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        assert elapsed < budget_s, (
            f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.1f}s")
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {label} "
              f"({time.monotonic() - t0:.1f}s)")
        raise
    print(f"[PASS] criterion {num:02d}: {label} ({elapsed:.1f}s)")


# default lognormal fragility parameters: kind -> (median pga in g, beta)
DEFAULT_FRAGILITY = {"generator": (0.4, 0.6), "substation": (0.5, 0.5),
                     "line": (0.3, 0.7)}

Z_90 = 1.2815515655446004  # Phi^-1(0.9)


def test_criterion_01_fragility_exactness():
    import mpmath as mp
    with criterion(1, "fragility exactness vs high-precision oracle", 1.0):
        for kind, (median, beta) in DEFAULT_FRAGILITY.items():
            curve = FragilityCurve(median_g=median, beta=beta)
            assert abs(gq.failure_probability(median, curve) - 0.5) <= 1e-9, kind
        mp.mp.dps = 30
        ratios = np.logspace(math.log10(0.01), math.log10(100.0), 401)
        for median, beta in DEFAULT_FRAGILITY.values():
            curve = FragilityCurve(median_g=median, beta=beta)
            for r in ratios:
                pga = float(r) * median
                got = gq.failure_probability(pga, curve)
                # oracle mirrors the same double-precision ratio exactly
                want = float(mp.ncdf(mp.log(mp.mpf(pga) / mp.mpf(median))
                                     / mp.mpf(beta)))
                assert abs(got - want) <= 1e-12, (median, beta, float(r))


def _single_component_net(median, beta):
    doc = {
        "buses": [
            {"id": "b1", "x": 0, "y": 0, "is_substation": True},
            {"id": "b2", "x": 3, "y": 4, "load_profile": "p1"},
        ],
        "lines": [{"id": "l1", "from_bus": "b1", "to_bus": "b2",
                   "resistance": 0.001, "reactance": 0.001,
                   "capacity_mva": 5.0}],
        "generators": [], "depots": [{"id": "d1", "x": 0, "y": 0}],
        "components": [{"id": "c1", "kind": "line", "ref": "l1",
                        "fragility": {"median_g": median, "beta": beta}}],
        "profiles": [{"id": "p1", "p_mw": [1.0]}],
    }
    return load_network(doc)


def test_criterion_02_monte_carlo_soundness():
    with criterion(2, "Monte Carlo frequency and magnitude order", 10.0):
        n = 10_000
        beta = 0.5
        ev = default_event(7.0, epicenter=(0.0, 0.0), sigma_eps=0.0)
        probe = _single_component_net(0.4, beta)
        x, y = probe.component_location("c1")
        pga = gq.ground_motion_pga(ev, x, y)
        for p_true, z in ((0.1, -Z_90), (0.5, 0.0), (0.9, Z_90)):
            # median chosen so Phi(ln(pga/median)/beta) equals p_true
            net = _single_component_net(pga * math.exp(-beta * z), beta)
            field = gq.compute_pga_field(net, ev)
            probs = gq.component_failure_probabilities(net, field)
            assert probs["c1"] == pytest.approx(p_true, abs=1e-12)
            draws = gq.sample_damage(net, field, np.random.default_rng(7), n)
            hits = sum(bool(failed) for failed in draws)
            bound = 3.0 * math.sqrt(p_true * (1 - p_true) / n)
            assert abs(hits / n - p_true) <= bound, p_true

        # magnitude monotonicity at eps = 0 for every component
        feeder = builtin_feeder()
        prev = None
        for mag in (6.5, 7.5, 8.5):
            field = gq.compute_pga_field(feeder, default_event(mag))
            probs = gq.component_failure_probabilities(feeder, field)
            if prev is not None:
                for cid in feeder.components:
                    assert probs[cid] >= prev[cid] - 1e-15, (cid, mag)
            prev = probs


def test_criterion_03_linearization_fidelity():
    with criterion(3, "triple-product linearization on all 8 combos", 1.0):
        lin = gq.linearize_triple_product()
        for u1, u2, u3 in itertools.product((0, 1), repeat=3):
            z12, z = lin.evaluate(u1, u2, u3)
            assert z12 == u1 * u2
            assert z == u1 * u2 * u3


def test_criterion_04_lp_correctness():
    with criterion(4, "shedding LP vs grid oracle and all-shed anchor", 60.0):
        for seed in range(20):
            net = random_radial_network(seed, n_buses=6, max_load_steps=6)
            got = gq.shed_at(net, [], 0).total_shed_mw
            want = brute_force_min_shed(net)
            assert abs(got - want) <= 1e-4, seed

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            net = random_radial_network(int(rng.integers(0, 100_000)),
                                        n_buses=int(rng.integers(2, 7)))
            comp_ids = list(net.components)
            k = int(rng.integers(0, len(comp_ids) + 1))
            failed = (list(rng.choice(comp_ids, size=k, replace=False))
                      if k else [])
            flow = gq.shed_at(net, failed, 0)  # raises if anchor infeasible
            assert flow.total_shed_mw >= -1e-9


def _hundred_instances():
    """100 seeded dispatch instances: 2..6 components, 2 depots, crews per
    depot alternating 1 and 2."""
    out = []
    rng = np.random.default_rng(555)
    for i in range(100):
        fam = InstanceFamily(n_min=2, n_max=6, depot_count=2,
                             crews_per_depot=1 + (i % 2))
        out.append(fam.sample_instance(rng))
    return out


_shared = {}


def _exact_results(instances):
    if "exact" not in _shared:
        _shared["exact"] = [gq.exact_dispatch(i) for i in instances]
    return _shared["exact"]


def test_criterion_05_exact_oracle_dominance():
    with criterion(5, "exact <= GA/policy, matches enumeration", 300.0):
        instances = _hundred_instances()
        exacts = _exact_results(instances)
        model = PolicyModel.init(
            PolicyConfig(width=16, heads=2, enc_layers=1, dec_layers=1,
                         ffn_hidden=32), seed=3)
        for i, (inst, ex) in enumerate(zip(instances, exacts)):
            assert ex.optimal, i
            ga = gq.ga_dispatch(inst, gq.GaConfig(population_size=30,
                                                  generations=40, seed=i))
            po = policy_dispatch(model, inst, samples=4, seed=i)
            assert ex.objective.value <= ga.objective.value + 1e-9, i
            assert ex.objective.value <= po.objective.value + 1e-9, i
            # unpruned enumeration over every ordered crew split; covers
            # every cluster size in this family, 3-component ones included
            want = brute_force_value(inst)
            assert ex.objective.value == pytest.approx(want, abs=1e-9), i


def test_criterion_06_ga_quality():
    with criterion(6, "GA within 5% of exact on >=90% of instances", 600.0):
        instances = _hundred_instances()
        exacts = _exact_results(instances)
        hits = 0
        for i, (inst, ex) in enumerate(zip(instances, exacts)):
            ga = gq.ga_dispatch(inst, gq.GaConfig(population_size=60,
                                                  generations=120, seed=i))
            gap = (ga.objective.value - ex.objective.value) / max(
                ex.objective.value, 1e-12)
            assert gap >= -1e-9
            if gap <= 0.05:
                hits += 1
        assert hits >= 90, f"only {hits}/100 within 5%"


@pytest.mark.slow  # ~9 min; `pytest -m "not slow"` skips it for a quick loop
def test_criterion_07_policy_quality():
    with criterion(7, "PPO policy median gap <= 5% vs exact", 1800.0):
        fam = InstanceFamily()  # 5-8 components, 2 depots, 1 crew each
        model = PolicyModel.init(PolicyConfig(width=64), seed=0)
        trace = ppo_train(model, fam,
                          PpoConfig(iterations=500, batch_size=64, seed=0))
        assert trace.iterations_run <= 500
        assert not trace.aborted

        rng = np.random.default_rng(10_000)  # held out from training stream
        gaps = []
        for i in range(50):
            inst = fam.sample_instance(rng)
            ex = gq.exact_dispatch(inst)
            po = policy_dispatch(model, inst, samples=16, seed=i)
            assert po.objective.value >= ex.objective.value - 1e-9
            gaps.append((po.objective.value - ex.objective.value)
                        / ex.objective.value)
        med = float(np.median(gaps))
        assert med <= 0.05, f"median gap {med:.4f}"


def test_criterion_08_inference_latency():
    with criterion(8, "policy inference latency at 40 and 150 failures",
                   50.0):
        model = PolicyModel.init(PolicyConfig(width=64), seed=0)
        fam40 = InstanceFamily(n_min=40, n_max=40, depot_count=5,
                               crews_per_depot=2)
        inst40 = fam40.sample_instance(np.random.default_rng(0))
        t0 = time.monotonic()
        res = policy_dispatch(model, inst40, samples=16, seed=0)
        t40 = time.monotonic() - t0
        assert len(res.plan.completion) == 40
        assert t40 < 15.0, f"{t40:.1f}s"

        fam150 = InstanceFamily(n_min=150, n_max=150, depot_count=5,
                                crews_per_depot=2)
        inst150 = fam150.sample_instance(np.random.default_rng(1))
        t0 = time.monotonic()
        res = policy_dispatch(model, inst150, samples=16, seed=0)
        t150 = time.monotonic() - t0
        assert len(res.plan.completion) == 150
        assert t150 < 30.0, f"{t150:.1f}s"


def test_criterion_09_gradient_checks():
    with criterion(9, "actor/critic gradients vs central differences",
                   120.0):
        model = PolicyModel.init(
            PolicyConfig(width=8, heads=1, enc_layers=1, dec_layers=1,
                         ffn_hidden=8), seed=5)
        rng = np.random.default_rng(6)
        comp = rng.normal(size=(4, COMP_FEATURES))
        crew = rng.normal(size=(2, 6))
        mask = np.ones(8, dtype=bool)
        mask[[2, 5]] = False

        def loss():
            logp, value = model.step(model.attend(model.encode(comp)),
                                     crew, mask)
            picked = ad.take_along_last(logp.reshape((1, 8)),
                                        np.array([[1]]))
            return picked.sum() + value * 0.5

        loss().backward()

        names = sorted(model.params)
        probe_rng = np.random.default_rng(7)
        for _ in range(100):
            name = names[int(probe_rng.integers(len(names)))]
            t = model.params[name]
            flat = t.data.reshape(-1)
            idx = int(probe_rng.integers(flat.size))
            eps = 1e-5
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = loss().item()
            flat[idx] = orig - eps
            lo = loss().item()
            flat[idx] = orig
            fd = (hi - lo) / (2 * eps)
            got = t.grad.reshape(-1)[idx] if t.grad is not None else 0.0
            rel = abs(got - fd) / max(abs(fd), 1e-8)
            assert rel <= 1e-4, (name, idx, got, fd)


def test_criterion_10_scenario_reduction_quality():
    with criterion(10, "forward reduction beats random subsets", 120.0):
        net = builtin_feeder()
        sset = gq.generate_scenarios(net, default_event(7.5), 1000, seed=77)
        k = 20
        red = gq.forward_reduce(sset, k)
        assert sum(s.weight for s in red.scenarios) == pytest.approx(
            1.0, abs=1e-9)
        d_greedy = reduction_distance(sset, [s.id for s in red.scenarios])
        rng = np.random.default_rng(99)
        wins = 0
        for _ in range(100):
            ids = rng.choice(len(sset.scenarios), size=k,
                             replace=False).tolist()
            if d_greedy <= reduction_distance(sset, ids) + 1e-12:
                wins += 1
        assert wins >= 95, f"greedy won only {wins}/100"


# deterministic by construction: the size cap (not wall clock) is what
# skips oversized exact instances, and the time limit is never approached
PIPELINE_CFG = PipelineConfig(
    magnitudes=(6.5, 7.5, 8.5), n_scenarios=250, reduce_to=10,
    return_periods=(2.0, 10.0, 50.0), seed=11,
    ga_population=40, ga_generations=80,
    exact_max_components=9, exact_time_limit_s=600.0)

_pipeline_cache = {}


def _pipeline_run(tmp_root):
    if "dir" not in _pipeline_cache:
        out = os.path.join(tmp_root, "study_a")
        _pipeline_cache["manifest"] = run_pipeline(builtin_feeder(),
                                                   PIPELINE_CFG, out)
        _pipeline_cache["dir"] = out
    return _pipeline_cache["dir"], _pipeline_cache["manifest"]


def test_criterion_11_end_to_end_determinism(tmp_path_factory):
    with criterion(11, "pipeline rerun is byte-identical", 600.0):
        root = str(tmp_path_factory.mktemp("accept"))
        _pipeline_cache.clear()
        dir_a, man_a = _pipeline_run(root)
        dir_b = os.path.join(root, "study_b")
        man_b = run_pipeline(builtin_feeder(), PIPELINE_CFG, dir_b)
        assert man_a == man_b
        assert len(man_a["artifacts"]) > 10
        for rel, digest in man_a["artifacts"].items():
            with open(os.path.join(dir_b, rel), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, rel
        # the timing sidecar exists but is excluded from the manifest
        assert os.path.exists(os.path.join(dir_a, "timings.json"))
        assert "timings.json" not in man_a["artifacts"]


def _first_passage(curve):
    for i, v in enumerate(curve):
        if v >= 1.0 - 1e-9:
            return i
    return len(curve)


def test_criterion_12_resilience_curve_properties(tmp_path_factory):
    with criterion(12, "resilience curves monotone, terminal, ordered",
                   600.0):
        if "dir" not in _pipeline_cache:
            _pipeline_run(str(tmp_path_factory.mktemp("accept12")))
        resil_dir = os.path.join(_pipeline_cache["dir"], "resilience")
        csvs = sorted(f for f in os.listdir(resil_dir) if f.endswith(".csv"))
        assert csvs, "pipeline produced no resilience timelines"
        for name in csvs:
            with open(os.path.join(resil_dir, name)) as fh:
                lines = fh.read().splitlines()
            header = lines[0].split(",")
            cols = {h: [] for h in header}
            for line in lines[1:]:
                for h, cell in zip(header, line.split(",")):
                    cols[h].append(float(cell))
            solvers = [h for h in header if h != "hour"]
            for s in solvers:
                curve = cols[s]
                assert all(b >= a - 1e-9
                           for a, b in zip(curve, curve[1:])), (name, s)
                assert curve[-1] == pytest.approx(1.0, abs=1e-6), (name, s)
            # a plan whose curve dominates pointwise must reach full
            # service no later (first-passage ordering)
            for s1, s2 in itertools.combinations(solvers, 2):
                a, b = cols[s1], cols[s2]
                if all(x >= y - 1e-9 for x, y in zip(a, b)):
                    assert _first_passage(a) <= _first_passage(b), (
                        name, s1, s2)
                if all(y >= x - 1e-9 for x, y in zip(a, b)):
                    assert _first_passage(b) <= _first_passage(a), (
                        name, s1, s2)
