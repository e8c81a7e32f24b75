"""The benchmark's workloads: set-up, one timed unit, and output checks.

Every workload goes through public gridquake calls only. A workload unit is
what ``study_s`` times: one ``run_pipeline`` call, or PPO training plus one
policy decode. ``setup`` builds the inputs from the seed; ``run`` is the
timed unit; ``inspect`` reads the unit's outputs back, checks them and
returns its fingerprint (bytes that must repeat on every unit of a run) and
quality numbers. Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import gridquake as gq
from gridquake.policy.autodiff import Tensor


@dataclass
class UnitOutcome:
    fingerprint: bytes
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --- the radial feeder built from the seed ---------------------------------

def radial_feeder(seed: int, n_buses: int = 30) -> gq.Network:
    """A seeded random radial feeder that the pipeline can restore in full.

    ``random_radial_network`` draws line capacities of 0.2-2.0 MVA, which
    cannot carry the downstream load even with every line intact, so
    ``run_pipeline`` on it raises InternalError ("ga: final served fraction
    ... != 1"). Lines are therefore raised above the feeder's total peak
    load, and two depots with two crews each are added.
    """
    base = gq.random_radial_network(seed, n_buses=n_buses)
    doc = gq.network_to_document(base)
    total_peak = base.import_limit_mva()
    for line in doc["lines"]:
        line["capacity_mva"] = round(1.5 * total_peak + 1.0, 6)
    doc["depots"] = [
        {"id": "d1", "x": 0.0, "y": 0.0, "crew_count": 2},
        {"id": "d2", "x": 5.0, "y": 5.0, "crew_count": 2},
    ]
    return gq.load_network(doc)


# The feeder is fixed and the seed varies the damage. The LP's size and
# structure come from the feeder, so a unit's LP work varies more across
# feeder seeds than across damage seeds on one feeder (see README.md).
RADIAL_FEEDER_SEED = 0


# --- pipeline workloads ----------------------------------------------------

@dataclass
class PipelineState:
    network: gq.Network
    config: gq.PipelineConfig


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def inspect_pipeline(out_dir: str) -> UnitOutcome:
    problems = []
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        manifest_bytes = fh.read()
    manifest = json.loads(manifest_bytes)
    for rel, digest in sorted(manifest["artifacts"].items()):
        if _sha256(os.path.join(out_dir, rel)) != digest:
            problems.append(f"manifest hash mismatch for {rel}")

    plans = []
    plan_dir = os.path.join(out_dir, "plans")
    for name in sorted(os.listdir(plan_dir)):
        with open(os.path.join(plan_dir, name), encoding="utf-8") as fh:
            plans.append(json.load(fh))
    if not plans:
        problems.append("no dispatch plans written")

    ok = [p for p in plans if p["status"] == "ok"]
    for p in plans:
        if p["status"] not in ("ok", "limit"):
            problems.append(f"plan status {p['status']!r}")
    for p in ok:
        value = p["objective"]["value"]
        if not (math.isfinite(value) and value >= 0):
            problems.append(f"bad objective {value!r}")

    by_scenario = {}
    for p in ok:
        key = (p["magnitude"], p["scenario_id"])
        by_scenario.setdefault(key, {})[p["solver"]] = p["objective"]["value"]
    gaps = []
    for key, values in sorted(by_scenario.items()):
        if "exact" in values and "ga" in values:
            exact, ga = values["exact"], values["ga"]
            if ga < exact - 1e-9 * max(1.0, abs(exact)):
                problems.append(f"scenario {key}: GA {ga} beats exact {exact}")
            if exact > 0:
                gaps.append(100.0 * (ga - exact) / exact)

    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)

    quality = {
        "objective_mean": _mean(p["objective"]["value"] for p in ok),
        "ga_gap_pct": _mean(gaps),
        "reduction_w1": _mean(m["reduction_w1"]
                              for m in summary["magnitudes"].values()),
        "ens_mwh_mean": _mean(p["ens_mwh"] for p in ok
                              if p.get("ens_mwh") is not None),
        "policy_objective": 0.0,
    }
    return UnitOutcome(fingerprint=manifest_bytes, problems=problems,
                       quality=quality)


def run_pipeline(state: PipelineState, out_dir: str):
    return gq.run_pipeline(state.network, state.config, out_dir, threads=1)


# --- policy workload -------------------------------------------------------

# The training family is the default one with its size pinned, so that every
# seed trains on the same amount of work (the default draws 5-8 per batch).
POLICY_TRAIN_SIZE = 7
POLICY_PPO_ITERATIONS = 1
POLICY_BATCH = 16
POLICY_FAILURES = 50
POLICY_SAMPLES = 1


@dataclass
class PolicyState:
    model: gq.PolicyModel
    family: gq.InstanceFamily
    ppo: gq.PpoConfig
    instance: gq.DispatchInstance
    seed: int


def setup_policy(seed: int) -> PolicyState:
    model = gq.PolicyModel.init(gq.PolicyConfig(), seed=seed)
    family = gq.InstanceFamily(n_min=POLICY_TRAIN_SIZE,
                               n_max=POLICY_TRAIN_SIZE)
    rng = np.random.default_rng(seed)
    instance = gq.InstanceFamily(depot_count=3, crews_per_depot=2) \
        .sample_instance(rng, n=POLICY_FAILURES)
    ppo = gq.PpoConfig(iterations=POLICY_PPO_ITERATIONS,
                       batch_size=POLICY_BATCH, seed=seed)
    return PolicyState(model=model, family=family, ppo=ppo,
                       instance=instance, seed=seed)


def run_policy(state: PolicyState, out_dir: str):
    # train a fresh copy, so every unit starts from the same weights
    model = gq.PolicyModel(state.model.config, {
        k: Tensor(v, requires_grad=True)
        for k, v in state.model.clone_params().items()})
    trace = gq.ppo_train(model, state.family, state.ppo)
    result = gq.policy_dispatch(model, state.instance,
                                samples=POLICY_SAMPLES, seed=state.seed)
    return trace, result


def inspect_policy(state: PolicyState, out) -> UnitOutcome:
    trace, result = out
    problems = []
    if trace.aborted or trace.iterations_run != state.ppo.iterations:
        problems.append(f"training stopped after {trace.iterations_run} "
                        f"iterations (aborted={trace.aborted})")
    if not all(math.isfinite(r) for r in trace.mean_return):
        problems.append("non-finite training return")
    if result.decodes != POLICY_SAMPLES + 1:
        problems.append(f"{result.decodes} decodes, expected "
                        f"{POLICY_SAMPLES + 1}")
    # re-time the routes independently of the decoder; schedule_plan raises
    # if a component is missed, repeated or served from the wrong depot
    try:
        plan = gq.schedule_plan(state.instance, result.plan.routes)
        value = gq.plan_objective(state.instance, plan).value
    except gq.GridQuakeError as e:
        problems.append(f"decoded plan invalid: {e}")
        value = result.objective.value
    if abs(value - result.objective.value) > 1e-9 * max(1.0, abs(value)):
        problems.append(f"objective {result.objective.value} != recomputed "
                        f"{value}")
    fingerprint = json.dumps({
        "mean_return": trace.mean_return,
        "routes": {k: list(v) for k, v in sorted(result.plan.routes.items())},
        "objective": result.objective.value,
    }, sort_keys=True).encode()
    quality = {"objective_mean": result.objective.value, "ga_gap_pct": 0.0,
               "reduction_w1": 0.0, "ens_mwh_mean": 0.0,
               "policy_objective": result.objective.value}
    return UnitOutcome(fingerprint=fingerprint, problems=problems,
                       quality=quality)


# --- the table ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # seed -> state
    run: object  # (state, out_dir) -> raw output; the timed unit
    inspect: object  # (state, out_dir, raw output) -> UnitOutcome
    # Seconds of a unit and of set-up of the pinned baseline on the
    # reference host (2-core x86 VM, Python 3.11.7): per seed, the mean of
    # the fastest tenth of a 30 s run's units and the fastest of its
    # set-ups; then the median over seeds 1-10 (1-5 on radial-exact-ens).
    # study_s and setup_s are these times the program's median ratio to
    # the baseline, timed in pairs in the same run.
    study_ref_s: float
    setup_ref_s: float


def _pipeline(name, build_network, study_ref_s, setup_ref_s, **config):
    def setup(seed):
        return PipelineState(network=build_network(seed),
                             config=gq.PipelineConfig(seed=seed, **config))
    return Workload(name=name, setup=setup, run=run_pipeline,
                    inspect=lambda state, out_dir, out: inspect_pipeline(out_dir),
                    study_ref_s=study_ref_s, setup_ref_s=setup_ref_s)


# Units are kept to well under a second, so that a 25 s run holds a dozen
# or more program/baseline pairs (see README.md, "Steadiness").
#
# The exact solver's search grows exponentially with the failures in a depot
# cluster, and the clusters of the representative scenarios depend on the
# seed. Clusters above the cap get status "limit" (the solver's designed
# refusal), so that a unit's work does not swing with the seed. On
# feeder13-study, 400 scenarios make the 6 representatives, and so the GA's
# work, nearly the same for every seed.
EXACT_CAP_STUDY = 7
EXACT_CAP_MANY = 6

WORKLOADS = {w.name: w for w in (
    _pipeline("feeder13-study", lambda seed: gq.builtin_feeder(), 0.61, 0.17,
              magnitudes=(8.0,), reduce_to=6, ga_population=30,
              ga_generations=40, exact_max_components=EXACT_CAP_STUDY),
    _pipeline("radial-exact-ens", lambda seed: radial_feeder(RADIAL_FEEDER_SEED),
              0.56, 0.20, magnitudes=(6.5,), n_scenarios=4, reduce_to=4,
              exact_ens=True, solvers=("ga",), ga_population=20,
              ga_generations=20),
    _pipeline("feeder13-many-scenarios", lambda seed: gq.builtin_feeder(),
              0.26, 0.15, magnitudes=(7.5,), n_scenarios=300, solvers=("exact",),
              exact_max_components=EXACT_CAP_MANY),
    Workload(name="policy-train-decode", setup=setup_policy, run=run_policy,
             inspect=lambda state, out_dir, out: inspect_policy(state, out),
             study_ref_s=0.64, setup_ref_s=0.16),
)}
