"""End-to-end study pipeline: hazard -> scenarios -> reduction -> dispatch
-> reports, with a hash manifest for reproducibility.

Artifacts are byte-identical across reruns with the same inputs: every
random draw is seeded deterministically, writers sort keys, and the only
wall-clock-dependent output (timings.json) is excluded from the manifest.
"""

from __future__ import annotations

import math
import os
import shutil
import time
import zlib
from dataclasses import dataclass, asdict

from .dispatch import (MAX_COMPONENTS_PER_DEPOT, MAX_CREWS_PER_DEPOT,
                       DispatchInstance, exact_dispatch,
                       instance_from_scenario)
from .errors import ConfigError, InternalError, LimitError
from .fixtures import DEFAULT_EPICENTER, default_event
from .ga import GaConfig, ga_dispatch
from .model import Network, check, read_json, read_record, record_document
from .policy import PolicyModel, policy_dispatch
from .powerflow import PeakShed, ens_timeline
from .report import (plot_lines_svg, resilience_curves_ok,
                     write_comparison_csv, write_csv, write_json,
                     write_resilience_csv)
from .scenarios import (LossDistribution, ScenarioSet, forward_reduce,
                        generate_scenarios, reduction_distance,
                        return_period_loss, scenario_set_to_document,
                        select_representatives)
from .seismic import SeismicEvent, magnitude_rule

KNOWN_SOLVERS = ("exact", "ga", "policy")


@dataclass
class PipelineConfig:
    magnitudes: tuple[float, ...] = (6.5, 7.5, 8.5)
    n_scenarios: int = 400
    reduce_to: int = 20
    return_periods: tuple[float, ...] = (2.0, 10.0, 50.0, 100.0)
    w1: float = ScenarioSet.w1
    w2: float = ScenarioSet.w2
    gamma: float = DispatchInstance.gamma
    seed: int = 0
    exact_ens: bool = False
    epicenter: tuple[float, float] = DEFAULT_EPICENTER
    focal_depth_km: float = SeismicEvent.focal_depth_km
    solvers: tuple[str, ...] = ("exact", "ga")
    ga_population: int = 60
    ga_generations: int = 120
    policy_model: str | None = None
    policy_samples: int = 16
    exact_max_components: int = MAX_COMPONENTS_PER_DEPOT
    exact_max_crews: int = MAX_CREWS_PER_DEPOT
    exact_time_limit_s: float = 60.0

    def __post_init__(self):
        solvers, periods = self.solvers, self.return_periods
        check(("solvers", solvers, set(solvers) <= set(KNOWN_SOLVERS),
               f"some of {KNOWN_SOLVERS}"),
              ("policy_model", self.policy_model, bool(self.policy_model)
               or "policy" not in solvers, "a checkpoint path for 'policy'"),
              ("reduce_to", self.reduce_to, self.reduce_to >= len(periods),
               f">= {len(periods)}, one per return period"),
              ("magnitudes", self.magnitudes, len(self.magnitudes) >= 1,
               "non-empty"),
              ("return_periods", periods, all(p > 0 for p in periods), "> 0"),
              ("epicenter", self.epicenter, len(self.epicenter) == 2,
               "an (x, y) pair"),
              ("w1", self.w1, self.w1 >= 0, ">= 0"),
              ("w2", self.w2, self.w2 >= 0, ">= 0"),
              ("gamma", self.gamma, 0.0 <= self.gamma <= 1.0, "in [0, 1]"),
              ("n_scenarios", self.n_scenarios, self.n_scenarios >= 1, ">= 1"),
              ("reduce_to", self.reduce_to, self.reduce_to >= 1, ">= 1"),
              ("ga_population", self.ga_population, self.ga_population >= 1,
               ">= 1"),
              ("ga_generations", self.ga_generations,
               self.ga_generations >= 0, ">= 0"),
              ("policy_samples", self.policy_samples,
               self.policy_samples >= 0, ">= 0"),
              ("exact_max_components", self.exact_max_components,
               self.exact_max_components >= 1, ">= 1"),
              ("exact_max_crews", self.exact_max_crews,
               self.exact_max_crews >= 1, ">= 1"),
              ("exact_time_limit_s", self.exact_time_limit_s,
               self.exact_time_limit_s > 0, "> 0"))
        _check_magnitudes(self)


def config_from_document(doc: dict) -> PipelineConfig:
    return read_record(PipelineConfig, doc, "")


def load_pipeline_config(path: str) -> PipelineConfig:
    return config_from_document(read_json(path))


def _stable_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def _mag_tag(m: float) -> str:
    return ("m%g" % m).replace(".", "_")


def _check_magnitudes(config: PipelineConfig):
    """Check each magnitude under its index, make its event, so that the
    event's other rules apply, and refuse two magnitudes whose files would
    overwrite each other's (one artifact tag)."""
    check(*(magnitude_rule(f"magnitudes[{i}]", mag)
            for i, mag in enumerate(config.magnitudes)))
    tagged = {}
    for mag in config.magnitudes:
        default_event(mag, epicenter=config.epicenter,
                      focal_depth_km=config.focal_depth_km)
        tag = _mag_tag(mag)
        if tag in tagged:
            raise ConfigError(f"magnitudes {tagged[tag]!r} and {mag!r} "
                              f"share the artifact tag {tag}")
        tagged[tag] = mag


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
        res = policy_dispatch(model, instance, samples=samples, seed=seed)
        return res.plan, res.objective, False
    raise ConfigError(f"unknown solver {solver!r}")


def servable_peak_shed(network: Network) -> PeakShed:
    """A study's PeakShed, once the intact feeder serves its whole peak
    load: one that sheds with nothing failed could never end a restoration
    curve at full service, so it is refused with a ConfigError before any
    output is written."""
    peak_shed = PeakShed(network)
    shed, = peak_shed([[]])
    if shed > 0:
        raise ConfigError(f"the feeder sheds {shed:g} MW of its peak load "
                          f"with nothing failed, so no repair plan can "
                          f"restore it in full")
    return peak_shed


def write_restoration(peak_shed, plans, prefix, title, horizon=None) -> tuple:
    """Restoration curves of several plans on `peak_shed`'s network over one
    shared horizon, written to `prefix`.csv and `prefix`.svg; returns each
    plan's timeline and the two files' SHA-256 keyed by suffix.

    `plans` maps a curve name to (failed ids, completion hours). The
    horizon defaults to, and must reach, one hour past the last completion
    of any plan, so that every curve ends fully restored. Every timeline
    takes its shed from the study's `peak_shed`, so an operating state the
    plans share is solved once."""
    need = max([1] + [math.ceil(max(completion.values())) + 1
                      for _, completion in plans.values() if completion])
    if horizon is None:
        horizon = need
    elif horizon < need:
        raise ConfigError(f"horizon {horizon} ends before the last repair; "
                          f"it must be >= {need}")
    timelines = {name: ens_timeline(failed, completion, horizon=horizon,
                                    peak_shed=peak_shed)
                 for name, (failed, completion) in sorted(plans.items())}
    curves = {name: (t.hours, t.served_fraction)
              for name, t in timelines.items()}
    problems = resilience_curves_ok(curves)
    if problems:
        raise InternalError("; ".join(problems))
    digests = {".csv": write_resilience_csv(curves, prefix + ".csv"),
               ".svg": plot_lines_svg(curves, prefix + ".svg", title=title,
                                      xlabel="hours after event",
                                      ylabel="fraction of load served")}
    return timelines, digests


def run_pipeline(network: Network, config: PipelineConfig, out_dir: str,
                 threads: int = 1) -> dict:
    """Run the full study, one job after another, into `out_dir`, which
    must be absent or empty, and return the manifest: each file's SHA-256
    as its writer returned it. The study is written into a new sibling
    directory, renamed to `out_dir` once whole and removed on any error.
    `threads` must be 1: the keyword stays only until the benchmark harness
    stops passing it, and then goes away."""
    if threads != 1:
        raise ConfigError(f"threads must be 1, got {threads!r}")
    out_dir = os.path.abspath(out_dir)
    entries = sorted(os.listdir(out_dir)) if os.path.lexists(out_dir) else []
    if entries:
        raise ConfigError(f"{out_dir} holds {entries[0]!r}; a study needs "
                          f"an absent or empty output directory")
    # os.makedirs, not tempfile.mkdtemp, whose 0700 mode the study would keep
    stage = f"{out_dir}.partial-{os.getpid()}"
    os.makedirs(stage)
    try:
        manifest = _write_study(network, config, stage)
        os.rename(stage, out_dir)
    finally:  # after the rename there is nothing left to remove
        shutil.rmtree(stage, ignore_errors=True)
    return manifest


def _write_study(network: Network, config: PipelineConfig,
                 out_dir: str) -> dict:
    t_start = time.monotonic()
    timings = {}
    artifacts = {}  # relative path -> SHA-256 returned by its writer

    def emit(writer, rel: str, *args, **kwargs):
        """Write artifact `rel` with `writer` and record its digest."""
        artifacts[rel] = writer(*args, path=os.path.join(out_dir, rel),
                                **kwargs)

    model = None
    if "policy" in config.solvers:
        model = PolicyModel.load(config.policy_model)
    # one per study: scenario losses, curtailment weights and every
    # timeline read the same peak-hour operating states
    peak_shed = servable_peak_shed(network)
    for sub in ("scenarios", "plans", "resilience", "losses"):
        os.mkdir(os.path.join(out_dir, sub))

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
            exact_ens=config.exact_ens, peak_shed=peak_shed)
        tag = _mag_tag(mag)
        emit(write_json, f"scenarios/{tag}_full.json",
             scenario_set_to_document(sset))

        reps = select_representatives(sset, config.return_periods)
        reduced = forward_reduce(sset, config.reduce_to, protected=reps)
        emit(write_json, f"scenarios/{tag}_reduced.json",
             scenario_set_to_document(reduced))

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
        emit(write_csv, f"losses/{tag}_exceedance.csv",
             header=["loss", "exceedance_probability"],
             rows=list(zip(exc_xs, exc_ys)))
        emit(plot_lines_svg, f"losses/{tag}_exceedance.svg",
             {"exceedance": (exc_xs, exc_ys)},
             title=f"Loss exceedance, M{mag:g}",
             xlabel="loss", ylabel="Pr[L >= l]", step=True)
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
            # one instance, so one compiled form, for every solver
            instance = instance_from_scenario(network, scenario.failed,
                                              gamma=config.gamma,
                                              peak_shed=peak_shed)
            for solver in config.solvers:
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
    docs = []
    for (mag, sid) in sorted(by_scenario):
        solvers = by_scenario[(mag, sid)]
        name = f"{_mag_tag(mag)}_s{sid:04d}"
        plans = {solver: (scenario.failed, result[0].completion)
                 for solver, (_, result, scenario) in solvers.items()
                 if result is not None}
        timelines, digests = write_restoration(
            peak_shed, plans, os.path.join(out_dir, "resilience", name),
            title=f"Restoration, M{mag:g} scenario {sid}",
        ) if plans else ({}, {})
        artifacts.update((f"resilience/{name}{ext}", digest)
                         for ext, digest in digests.items())
        for solver, (status, result, _) in sorted(solvers.items()):
            doc = plan_document(solver, status, result, magnitude=mag,
                                scenario_id=sid)
            if result is not None:
                doc["ens_mwh"] = timelines[solver].ens_mwh
            emit(write_json, f"plans/{name}_{solver}.json", doc)
            docs.append(doc)
    emit(write_comparison_csv, "comparison.csv", docs)

    emit(write_json, "summary.json",
         {"config": record_document(config), "magnitudes": summaries})
    timings["reports_s"] = round(time.monotonic() - t0, 3)
    timings["total_s"] = round(time.monotonic() - t_start, 3)

    manifest = {"artifacts": artifacts}
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    write_json(timings, os.path.join(out_dir, "timings.json"))
    return manifest
