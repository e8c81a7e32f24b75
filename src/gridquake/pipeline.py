"""End-to-end study pipeline: hazard -> scenarios -> reduction -> dispatch
-> reports, with a hash manifest for reproducibility.

Artifacts are byte-identical across reruns with the same inputs: every
random draw is seeded deterministically, writers sort keys, and the only
wall-clock-dependent output (timings.json) is excluded from the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

from .dispatch import exact_dispatch, instance_from_scenario
from .errors import ConfigError, InternalError, LimitError
from .fixtures import default_event
from .ga import GaConfig, ga_dispatch
from .model import Network
from .powerflow import ens_timeline
from .report import (ComparisonRow, fill_gaps, plot_lines_svg,
                     resilience_curves_ok, write_comparison_csv, write_csv,
                     write_json, write_resilience_csv)
from .scenarios import (LossDistribution, forward_reduce, generate_scenarios,
                        reduction_distance, return_period_loss,
                        scenario_set_to_document, select_representatives)

KNOWN_SOLVERS = ("exact", "ga", "policy")


@dataclass
class PipelineConfig:
    magnitudes: tuple = (6.5, 7.5, 8.5)
    n_scenarios: int = 400
    reduce_to: int = 20
    return_periods: tuple = (2.0, 10.0, 50.0, 100.0)
    w1: float = 1.0
    w2: float = 1.0
    gamma: float = 0.5
    seed: int = 0
    exact_ens: bool = False
    epicenter: tuple = (20.0, 15.0)
    focal_depth_km: float = 10.0
    solvers: tuple = ("exact", "ga")
    ga_population: int = 60
    ga_generations: int = 120
    policy_model: str | None = None
    policy_samples: int = 16
    exact_max_components: int = 9
    exact_max_crews: int = 3
    exact_time_limit_s: float = 60.0

    def __post_init__(self):
        for s in self.solvers:
            if s not in KNOWN_SOLVERS:
                raise ConfigError(f"unknown solver {s!r}")
        if "policy" in self.solvers and not self.policy_model:
            raise ConfigError("solver 'policy' needs policy_model (checkpoint path)")
        if self.reduce_to < len(self.return_periods):
            raise ConfigError("reduce_to must cover the return periods")


_CONFIG_KEYS = {
    "magnitudes", "n_scenarios", "reduce_to", "return_periods", "w1", "w2",
    "gamma", "seed", "exact_ens", "epicenter", "focal_depth_km", "solvers",
    "ga_population", "ga_generations", "policy_model", "policy_samples",
    "exact_max_components", "exact_max_crews", "exact_time_limit_s",
}


def config_from_document(doc: dict) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("pipeline config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown pipeline config keys: {sorted(unknown)}")
    coerced = dict(doc)
    for key in ("magnitudes", "return_periods", "solvers", "epicenter"):
        if key in coerced:
            coerced[key] = tuple(coerced[key])
    try:
        return PipelineConfig(**coerced)
    except TypeError as e:
        raise ConfigError(f"bad pipeline config: {e}") from e


def load_pipeline_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return config_from_document(doc)


def _stable_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def _mag_tag(m: float) -> str:
    return ("m%g" % m).replace(".", "_")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _plan_document(result, solver, status, magnitude, sid, ens_mwh=None):
    if result is None:
        return {"solver": solver, "status": status, "magnitude": magnitude,
                "scenario_id": sid}
    plan, objective, optimal = result
    return {
        "solver": solver,
        "status": status,
        "optimal": optimal,
        "magnitude": magnitude,
        "scenario_id": sid,
        "objective": {
            "value": objective.value,
            "makespan_hours": objective.makespan_hours,
            "weighted_completion": objective.weighted_completion,
            "gamma": objective.gamma,
        },
        "routes": {k: list(v) for k, v in sorted(plan.routes.items())},
        "arrival": {k: plan.arrival[k] for k in sorted(plan.arrival)},
        "completion": {k: plan.completion[k] for k in sorted(plan.completion)},
        "return_hours": {k: plan.return_hours[k]
                         for k in sorted(plan.return_hours)},
        "makespan_hours": plan.makespan_hours,
        "ens_mwh": ens_mwh,
    }


def _run_solver(solver, network, scenario, config, model):
    """Returns (plan, objective, optimal) or raises LimitError. `model` is
    the loaded policy checkpoint, or None when the policy is not run."""
    instance = instance_from_scenario(network, scenario.failed,
                                      gamma=config.gamma)
    if solver == "exact":
        res = exact_dispatch(
            instance,
            max_components_per_depot=config.exact_max_components,
            max_crews_per_depot=config.exact_max_crews,
            time_limit_s=config.exact_time_limit_s)
        return res.plan, res.objective, res.optimal
    if solver == "ga":
        ga_cfg = GaConfig(population_size=config.ga_population,
                          generations=config.ga_generations,
                          seed=_stable_seed(config.seed, scenario.id, "ga"))
        res = ga_dispatch(instance, ga_cfg)
        return res.plan, res.objective, False
    if solver == "policy":
        from .policy import policy_dispatch
        res = policy_dispatch(model, instance, samples=config.policy_samples,
                              seed=_stable_seed(config.seed, scenario.id, "policy"))
        return res.plan, res.objective, False
    raise ConfigError(f"unknown solver {solver!r}")


def run_pipeline(network: Network, config: PipelineConfig, out_dir: str,
                 threads: int = 1) -> dict:
    """Run the full study and return the manifest document."""
    t_start = time.monotonic()
    timings = {}
    model = None
    if "policy" in config.solvers:
        from .policy import PolicyModel
        model = PolicyModel.load(config.policy_model)
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("scenarios", "plans", "resilience", "losses"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    # stage 1: hazard and scenario sets
    t0 = time.monotonic()
    sets = {}
    summaries = {}
    for mag in config.magnitudes:
        event = default_event(mag, epicenter=config.epicenter,
                              focal_depth_km=config.focal_depth_km)
        sset = generate_scenarios(
            network, event, config.n_scenarios,
            w1=config.w1, w2=config.w2,
            seed=_stable_seed(config.seed, mag, "scenarios"),
            exact_ens=config.exact_ens)
        tag = _mag_tag(mag)
        write_json(scenario_set_to_document(sset),
                   os.path.join(out_dir, "scenarios", f"{tag}_full.json"))

        reps = select_representatives(sset, config.return_periods)
        reduced = forward_reduce(sset, config.reduce_to, protected=reps)
        write_json(scenario_set_to_document(reduced),
                   os.path.join(out_dir, "scenarios", f"{tag}_reduced.json"))

        dist = LossDistribution.from_scenarios(sset)
        rp_losses = {("%g" % p): return_period_loss(dist, p)
                     for p in config.return_periods}
        sets[mag] = (sset, reduced, reps)
        summaries[tag] = {
            "magnitude": mag,
            "n_scenarios": config.n_scenarios,
            "mean_loss": float(sset.losses().mean()),
            "max_loss": float(sset.losses().max()),
            "mean_failures": float(sum(len(s.failed) for s in sset.scenarios)
                                   / len(sset.scenarios)),
            "return_period_loss": rp_losses,
            "representatives": {("%g" % p): r for p, r in
                                zip(config.return_periods, reps)},
            "reduction_w1": reduction_distance(
                sset, [s.id for s in reduced.scenarios]),
        }

        exc_xs = dist.support.tolist()
        exc_ys = [dist.exceedance(x) for x in exc_xs]
        write_csv(os.path.join(out_dir, "losses", f"{tag}_exceedance.csv"),
                  ["loss", "exceedance_probability"],
                  list(zip(exc_xs, exc_ys)))
        plot_lines_svg({"exceedance": (exc_xs, exc_ys)},
                       os.path.join(out_dir, "losses", f"{tag}_exceedance.svg"),
                       title=f"Loss exceedance, M{mag:g}",
                       xlabel="loss", ylabel="Pr[L >= l]",
                       ylim=(0.0, 1.05), step=True)
    timings["scenarios_s"] = round(time.monotonic() - t0, 3)

    # stage 2: dispatch fan-out over representative scenarios
    t0 = time.monotonic()
    jobs = []
    for mag in config.magnitudes:
        sset, _, reps = sets[mag]
        for sid in sorted(set(reps)):
            scenario = sset.by_id(sid)
            if not scenario.failed:
                continue
            for solver in config.solvers:
                jobs.append((mag, sid, solver, scenario))

    def solve(job):
        mag, sid, solver, scenario = job
        try:
            return job, "ok", _run_solver(solver, network, scenario,
                                            config, model)
        except LimitError:
            return job, "limit", None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(solve, jobs))
    else:
        results = [solve(j) for j in jobs]
    timings["dispatch_s"] = round(time.monotonic() - t0, 3)

    # stage 3: timelines and artifacts, written in deterministic order
    t0 = time.monotonic()
    rows = []
    by_scenario = {}
    for (mag, sid, solver, scenario), status, result in results:
        by_scenario.setdefault((mag, sid), {})[solver] = (status, result, scenario)

    for (mag, sid) in sorted(by_scenario):
        solvers = by_scenario[(mag, sid)]
        tag = _mag_tag(mag)
        horizon = 1
        for solver, (status, result, scenario) in sorted(solvers.items()):
            if result is not None:
                plan = result[0]
                if plan.completion:
                    horizon = max(horizon,
                                  max(math.ceil(h) for h in plan.completion.values()) + 1)
        curves = {}
        for solver, (status, result, scenario) in sorted(solvers.items()):
            ens = None
            if result is not None:
                plan = result[0]
                timeline = ens_timeline(network, scenario.failed,
                                        plan.completion, horizon=horizon)
                ens = timeline.ens_mwh
                curves[solver] = (timeline.hours, timeline.served_fraction)
            doc = _plan_document(result, solver, status, mag, sid, ens_mwh=ens)
            write_json(doc, os.path.join(
                out_dir, "plans", f"{tag}_s{sid:04d}_{solver}.json"))
            obj = result[1] if result is not None else None
            rows.append(ComparisonRow(
                magnitude=mag, scenario_id=sid, solver=solver, status=status,
                objective=obj.value if obj else None,
                makespan_hours=obj.makespan_hours if obj else None,
                weighted_completion=obj.weighted_completion if obj else None,
                ens_mwh=ens))
        if curves:
            problems = resilience_curves_ok(curves)
            if problems:
                raise InternalError("; ".join(problems))
            write_resilience_csv(curves, os.path.join(
                out_dir, "resilience", f"{tag}_s{sid:04d}.csv"))
            plot_lines_svg(curves, os.path.join(
                out_dir, "resilience", f"{tag}_s{sid:04d}.svg"),
                title=f"Restoration, M{mag:g} scenario {sid}",
                xlabel="hours after event", ylabel="fraction of load served",
                ylim=(0.0, 1.05))

    rows = fill_gaps(rows)
    write_comparison_csv(rows, os.path.join(out_dir, "comparison.csv"))

    summary = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(config).items()},
        "magnitudes": summaries,
    }
    write_json(summary, os.path.join(out_dir, "summary.json"))
    timings["reports_s"] = round(time.monotonic() - t0, 3)
    timings["total_s"] = round(time.monotonic() - t_start, 3)

    # manifest over everything except the timing sidecar and itself
    artifacts = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir)
            if rel in ("manifest.json", "timings.json"):
                continue
            artifacts[rel.replace(os.sep, "/")] = _sha256(full)
    manifest = {"artifacts": artifacts}
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    write_json(timings, os.path.join(out_dir, "timings.json"))
    return manifest
