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
        if self.ga_population < 1:
            raise ConfigError("ga_population must be >= 1")
        if self.policy_samples < 0:
            raise ConfigError("policy_samples must be >= 0")


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


def plan_document(solver, status, result=None, **fields) -> dict:
    """The plan document that `gridquake dispatch` and the pipeline write.

    `result` is `solve`'s (plan, objective, optimal), or None when the
    solver hit a limit; `fields` adds context keys (the pipeline's
    magnitude and scenario_id)."""
    doc = {"solver": solver, "status": status, **fields}
    if result is None:
        return doc
    plan, objective, optimal = result
    doc.update(optimal=optimal, objective=asdict(objective),
               routes={k: list(v) for k, v in sorted(plan.routes.items())},
               arrival=dict(sorted(plan.arrival.items())),
               completion=dict(sorted(plan.completion.items())),
               return_hours=dict(sorted(plan.return_hours.items())),
               makespan_hours=plan.makespan_hours)
    return doc


def solve(solver, instance, *, seed, model, samples, max_components,
          max_crews, time_limit_s, population, generations) -> tuple:
    """Run one dispatch solver; returns (plan, objective, optimal) or raises
    LimitError. `seed` drives the GA and the policy's samples; `model` is
    the loaded policy checkpoint, or None when the policy is not run."""
    if solver == "exact":
        res = exact_dispatch(instance,
                             max_components_per_depot=max_components,
                             max_crews_per_depot=max_crews,
                             time_limit_s=time_limit_s)
        return res.plan, res.objective, res.optimal
    if solver == "ga":
        res = ga_dispatch(instance, GaConfig(population_size=population,
                                             generations=generations,
                                             seed=seed))
        return res.plan, res.objective, False
    if solver == "policy":
        if model is None:
            raise ConfigError("solver 'policy' needs a policy checkpoint")
        from .policy import policy_dispatch
        res = policy_dispatch(model, instance, samples=samples, seed=seed)
        return res.plan, res.objective, False
    raise ConfigError(f"unknown solver {solver!r}")


def write_restoration(network, plans, prefix, title, horizon=None) -> dict:
    """Restoration curves of several plans over one shared horizon, written
    to `prefix`.csv and `prefix`.svg; returns each plan's timeline.

    `plans` maps a curve name to (failed ids, completion hours). The
    horizon defaults to, and must reach, one hour past the last completion
    of any plan, so that every curve ends fully restored."""
    need = max([1] + [math.ceil(max(completion.values())) + 1
                      for _, completion in plans.values() if completion])
    if horizon is None:
        horizon = need
    elif horizon < need:
        raise ConfigError(f"horizon {horizon} ends before the last repair; "
                          f"it must be >= {need}")
    timelines = {name: ens_timeline(network, failed, completion,
                                    horizon=horizon)
                 for name, (failed, completion) in sorted(plans.items())}
    curves = {name: (t.hours, t.served_fraction)
              for name, t in timelines.items()}
    problems = resilience_curves_ok(curves)
    if problems:
        raise InternalError("; ".join(problems))
    write_resilience_csv(curves, prefix + ".csv")
    plot_lines_svg(curves, prefix + ".svg", title=title,
                   xlabel="hours after event", ylabel="fraction of load served",
                   ylim=(0.0, 1.05))
    return timelines


def run_pipeline(network: Network, config: PipelineConfig, out_dir: str,
                 threads: int = 1) -> dict:
    """Run the full study, one job after another, and return the manifest.
    `threads` must be 1: the keyword stays only until the benchmark harness
    stops passing it, and then goes away."""
    if threads != 1:
        raise ConfigError(f"threads must be 1, got {threads!r}")
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

    # stage 2: dispatch every solver on each representative scenario
    t0 = time.monotonic()
    by_scenario = {}
    for mag in config.magnitudes:
        sset, _, reps = sets[mag]
        for sid in sorted(set(reps)):
            scenario = sset.by_id(sid)
            if not scenario.failed:
                continue
            for solver in config.solvers:
                instance = instance_from_scenario(network, scenario.failed,
                                                  gamma=config.gamma)
                try:
                    status, result = "ok", solve(
                        solver, instance,
                        seed=_stable_seed(config.seed, sid, solver),
                        model=model, samples=config.policy_samples,
                        max_components=config.exact_max_components,
                        max_crews=config.exact_max_crews,
                        time_limit_s=config.exact_time_limit_s,
                        population=config.ga_population,
                        generations=config.ga_generations)
                except LimitError:
                    status, result = "limit", None
                by_scenario.setdefault((mag, sid), {})[solver] = (
                    status, result, scenario)
    timings["dispatch_s"] = round(time.monotonic() - t0, 3)

    # stage 3: timelines and artifacts, written in deterministic order
    t0 = time.monotonic()
    rows = []
    for (mag, sid) in sorted(by_scenario):
        solvers = by_scenario[(mag, sid)]
        name = f"{_mag_tag(mag)}_s{sid:04d}"
        plans = {solver: (scenario.failed, result[0].completion)
                 for solver, (_, result, scenario) in solvers.items()
                 if result is not None}
        timelines = write_restoration(
            network, plans, os.path.join(out_dir, "resilience", name),
            title=f"Restoration, M{mag:g} scenario {sid}") if plans else {}
        for solver, (status, result, _) in sorted(solvers.items()):
            doc = plan_document(solver, status, result, magnitude=mag,
                                scenario_id=sid)
            if result is not None:
                doc["ens_mwh"] = timelines[solver].ens_mwh
            write_json(doc, os.path.join(out_dir, "plans",
                                         f"{name}_{solver}.json"))
            obj = doc.get("objective", {})
            rows.append(ComparisonRow(
                magnitude=mag, scenario_id=sid, solver=solver, status=status,
                objective=obj.get("value"),
                makespan_hours=obj.get("makespan_hours"),
                weighted_completion=obj.get("weighted_completion"),
                ens_mwh=doc.get("ens_mwh")))

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
