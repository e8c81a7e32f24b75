"""The traced layers of gridquake and the per-layer metrics built from them.

Each span is named ``<module>.<function>``, after the gridquake module that
defines the function. ``PER_LAYER`` is the list of per-layer metrics in the
order they are reported; it must match the ``per_layer`` list of
BENCHMARK.json (a test checks this).
"""

from __future__ import annotations

import hashlib
import inspect
import os
import random
import statistics
from collections import defaultdict

import numpy as np

from tracer import Target, self_times

PER_LAYER = [
    # simplex: the shedding LP kernel
    ("simplex.solve_lp.calls", "count", "lower"),
    ("simplex.solve_lp.s", "s", "lower"),
    ("simplex.solve_lp.iterations", "count", "lower"),
    ("simplex.solve_lp.iters_per_call", "count", "lower"),
    ("simplex.solve_lp.rows_max", "count", "lower"),
    ("simplex.solve_lp.cols_max", "count", "lower"),
    ("simplex.solve_lp.distinct_ratio", "ratio", "higher"),
    # powerflow: islands, shedding LP assembly, restoration timelines
    ("powerflow.solve_shedding_lp.calls", "count", "lower"),
    ("powerflow.solve_shedding_lp.self_s", "s", "lower"),
    ("powerflow.ens_timeline.calls", "count", "lower"),
    ("powerflow.ens_timeline.self_s", "s", "lower"),
    ("powerflow.ens_timeline.hours", "count", "lower"),
    ("powerflow.energization_state.calls", "count", "lower"),
    ("powerflow.energization_state.self_s", "s", "lower"),
    # seismic and scenarios: sampling and reduction
    ("seismic.sample_damage.calls", "count", "lower"),
    ("seismic.sample_damage.self_s", "s", "lower"),
    ("scenarios.generate_scenarios.calls", "count", "lower"),
    ("scenarios.generate_scenarios.self_s", "s", "lower"),
    ("scenarios.forward_reduce.calls", "count", "lower"),
    ("scenarios.forward_reduce.self_s", "s", "lower"),
    ("scenarios.forward_reduce.distinct_losses", "count", "lower"),
    ("scenarios.reduction_distance.calls", "count", "lower"),
    ("scenarios.reduction_distance.self_s", "s", "lower"),
    ("scenarios.select_representatives.calls", "count", "lower"),
    ("scenarios.select_representatives.self_s", "s", "lower"),
    # dispatch: instances, exact solver, plan timing
    ("dispatch.instance_from_scenario.calls", "count", "lower"),
    ("dispatch.instance_from_scenario.self_s", "s", "lower"),
    ("dispatch.exact_dispatch.calls", "count", "lower"),
    ("dispatch.exact_dispatch.self_s", "s", "lower"),
    ("dispatch.exact_dispatch.limit", "count", "lower"),
    ("dispatch.exact_dispatch.optimal_ratio", "ratio", "higher"),
    ("dispatch.schedule_plan.calls", "count", "lower"),
    ("dispatch.schedule_plan.self_s", "s", "lower"),
    # ga
    ("ga.ga_dispatch.calls", "count", "lower"),
    ("ga.ga_dispatch.s", "s", "lower"),
    ("ga.fitness_evals", "count", "lower"),
    ("ga.eval_ratio", "ratio", "lower"),
    # policy: PPO training and decoding
    ("policy.ppo_iter_s", "s", "lower"),
    ("policy.run_batch.s", "s", "lower"),
    ("policy.backward.s", "s", "lower"),
    ("policy.adam_step.s", "s", "lower"),
    ("policy.policy_dispatch.s", "s", "lower"),
    ("policy.decodes", "count", "higher"),
    ("policy.s_per_decode", "s", "lower"),
    # report: artifact writers
    ("report.write_json.calls", "count", "lower"),
    ("report.write_json.s", "s", "lower"),
    ("report.write_json.bytes", "bytes", "lower"),
    ("report.write_csv.calls", "count", "lower"),
    ("report.write_csv.s", "s", "lower"),
    ("report.write_csv.bytes", "bytes", "lower"),
    ("report.plot_lines_svg.calls", "count", "lower"),
    ("report.plot_lines_svg.s", "s", "lower"),
    ("report.plot_lines_svg.bytes", "bytes", "lower"),
    # pipeline stages, from the timings.json sidecar
    ("pipeline.scenarios_s", "s", "lower"),
    ("pipeline.dispatch_s", "s", "lower"),
    ("pipeline.reports_s", "s", "lower"),
    # output quality; deterministic for a seed, so no bound applies
    ("quality.failed_ratio", "ratio", "lower"),
    ("quality.objective_mean", "obj", "lower"),
    ("quality.ga_gap_pct", "%", "lower"),
    ("quality.reduction_w1", "loss", "lower"),
    ("quality.ens_mwh_mean", "MWh", "lower"),
    ("quality.policy_objective", "obj", "lower"),
    # the cost of tracing itself
    ("trace.overhead_s", "s", "lower"),
]

def _arg_getter(fn, name):
    """Return f(args, kwargs) -> the value bound to parameter `name`."""
    sig = inspect.signature(fn)
    position = list(sig.parameters).index(name)
    default = sig.parameters[name].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        if position < len(args):
            return args[position]
        return default
    return get


def _file_bytes(path_getter):
    def annotate(args, kwargs, result):
        return {"bytes": os.path.getsize(path_getter(args, kwargs))}
    return annotate


class LpSampler:
    """Annotates solve_lp spans and keeps a seeded sample of LP inputs, so
    they can be re-solved by an independent solver after the run."""

    def __init__(self, seed: int, rate: float = 0.1, cap: int = 12):
        self.rng = random.Random(seed)
        self.rate = rate
        self.cap = cap
        self.samples = []  # (c, A, b, lower, upper, status, objective)

    def annotate_for(self, solve_lp):
        sig = inspect.signature(solve_lp)

        def annotate(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            arrays = [np.asarray(bound.arguments[k], dtype=float)
                      for k in ("c", "A", "b", "lower", "upper")]
            digest = hashlib.blake2b(digest_size=16)
            for a in arrays:
                digest.update(repr(a.shape).encode())
                digest.update(a.tobytes())
            if len(self.samples) < self.cap and self.rng.random() < self.rate:
                self.samples.append(tuple(a.copy() for a in arrays)
                                    + (result.status, result.objective))
            rows, cols = arrays[1].shape
            return {"iterations": result.iterations, "rows": rows,
                    "cols": cols, "key": digest.hexdigest()}
        return annotate


def targets(lp_sampler: LpSampler) -> list:
    import gridquake.ga as ga
    import gridquake.report as report
    import gridquake.scenarios as scenarios
    import gridquake.simplex as simplex

    reduce_set = _arg_getter(scenarios.forward_reduce, "sset")
    ga_config = _arg_getter(ga.ga_dispatch, "config")

    def distinct_losses(args, kwargs, result):
        return {"distinct": len(set(reduce_set(args, kwargs).losses().tolist()))}

    def ga_budget(args, kwargs, result):
        cfg = ga_config(args, kwargs)
        return {"budget": cfg.population_size * (cfg.generations + 1)}

    return [
        Target("seismic.sample_damage", "gridquake.seismic", "sample_damage"),
        Target("powerflow.energization_state", "gridquake.powerflow",
               "energization_state"),
        Target("powerflow.shed_at", "gridquake.powerflow", "shed_at"),
        Target("powerflow.solve_shedding_lp", "gridquake.powerflow",
               "solve_shedding_lp"),
        Target("powerflow.ens_timeline", "gridquake.powerflow", "ens_timeline",
               lambda a, k, r: {"hours": len(r.hours)}),
        Target("simplex.solve_lp", "gridquake.simplex", "solve_lp",
               lp_sampler.annotate_for(simplex.solve_lp)),
        Target("scenarios.generate_scenarios", "gridquake.scenarios",
               "generate_scenarios"),
        Target("scenarios.forward_reduce", "gridquake.scenarios",
               "forward_reduce", distinct_losses),
        Target("scenarios.reduction_distance", "gridquake.scenarios",
               "reduction_distance"),
        Target("scenarios.select_representatives", "gridquake.scenarios",
               "select_representatives"),
        Target("dispatch.instance_from_scenario", "gridquake.dispatch",
               "instance_from_scenario"),
        Target("dispatch.exact_dispatch", "gridquake.dispatch",
               "exact_dispatch", lambda a, k, r: {"optimal": r.optimal}),
        Target("dispatch.schedule_plan", "gridquake.dispatch", "schedule_plan"),
        Target("ga.ga_dispatch", "gridquake.ga", "ga_dispatch", ga_budget),
        Target("policy.ppo_train", "gridquake.policy.train", "ppo_train",
               lambda a, k, r: {"iterations": r.iterations_run}),
        Target("policy.run_batch", "gridquake.policy.rollout", "run_batch"),
        Target("policy.backward", "gridquake.policy.autodiff",
               "Tensor.backward"),
        Target("policy.adam_step", "gridquake.policy.autodiff", "Adam.step"),
        Target("policy.policy_dispatch", "gridquake.policy.rollout",
               "policy_dispatch", lambda a, k, r: {"decodes": r.decodes}),
        Target("report.write_json", "gridquake.report", "write_json",
               _file_bytes(_arg_getter(report.write_json, "path"))),
        Target("report.write_csv", "gridquake.report", "write_csv",
               _file_bytes(_arg_getter(report.write_csv, "path"))),
        Target("report.plot_lines_svg", "gridquake.report", "plot_lines_svg",
               _file_bytes(_arg_getter(report.plot_lines_svg, "path"))),
        Target("pipeline.run_pipeline", "gridquake.pipeline", "run_pipeline"),
    ]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_table(spans) -> dict:
    """name -> {calls, s, self_s, spans: [indices]} for one unit's spans."""
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                 "spans": []})
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        row = table[span.name]
        row["calls"] += 1
        row["s"] += span.duration
        row["self_s"] += own
        row["spans"].append(i)
    return table


def unit_metrics(spans, timings: dict) -> dict:
    """Per-layer metrics of one traced unit (quality and trace.* excluded)."""
    table = span_table(spans)
    row = table.__getitem__  # a default row for names with no spans

    def attrs(name, key):
        return [spans[i].attrs[key] for i in row(name)["spans"]
                if spans[i].attrs and key in spans[i].attrs]

    out = {}
    lp = row("simplex.solve_lp")
    iters = attrs("simplex.solve_lp", "iterations")
    out["simplex.solve_lp.calls"] = lp["calls"]
    out["simplex.solve_lp.s"] = lp["s"]
    out["simplex.solve_lp.iterations"] = sum(iters)
    out["simplex.solve_lp.iters_per_call"] = _ratio(sum(iters), len(iters))
    out["simplex.solve_lp.rows_max"] = max(attrs("simplex.solve_lp", "rows"),
                                           default=0)
    out["simplex.solve_lp.cols_max"] = max(attrs("simplex.solve_lp", "cols"),
                                           default=0)
    out["simplex.solve_lp.distinct_ratio"] = _ratio(
        len(set(attrs("simplex.solve_lp", "key"))), lp["calls"])

    for name in ("powerflow.solve_shedding_lp", "powerflow.ens_timeline",
                 "powerflow.energization_state", "seismic.sample_damage",
                 "scenarios.generate_scenarios", "scenarios.forward_reduce",
                 "scenarios.reduction_distance",
                 "scenarios.select_representatives",
                 "dispatch.instance_from_scenario", "dispatch.exact_dispatch",
                 "dispatch.schedule_plan"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    out["powerflow.ens_timeline.hours"] = sum(attrs("powerflow.ens_timeline",
                                                    "hours"))
    out["scenarios.forward_reduce.distinct_losses"] = sum(
        attrs("scenarios.forward_reduce", "distinct"))

    limits = attrs("dispatch.exact_dispatch", "error").count("LimitError")
    optimal = attrs("dispatch.exact_dispatch", "optimal")
    out["dispatch.exact_dispatch.limit"] = limits
    out["dispatch.exact_dispatch.optimal_ratio"] = _ratio(sum(optimal),
                                                          len(optimal))

    ga = row("ga.ga_dispatch")
    ga_spans = set(ga["spans"])
    evals = sum(1 for i in row("dispatch.schedule_plan")["spans"]
                if spans[i].parent in ga_spans)
    out["ga.ga_dispatch.calls"] = ga["calls"]
    out["ga.ga_dispatch.s"] = ga["s"]
    out["ga.fitness_evals"] = evals
    out["ga.eval_ratio"] = _ratio(evals, sum(attrs("ga.ga_dispatch", "budget")))

    ppo_iters = sum(attrs("policy.ppo_train", "iterations"))
    decodes = sum(attrs("policy.policy_dispatch", "decodes"))
    out["policy.ppo_iter_s"] = _ratio(row("policy.ppo_train")["s"], ppo_iters)
    out["policy.run_batch.s"] = row("policy.run_batch")["s"]
    out["policy.backward.s"] = row("policy.backward")["s"]
    out["policy.adam_step.s"] = row("policy.adam_step")["s"]
    out["policy.policy_dispatch.s"] = row("policy.policy_dispatch")["s"]
    out["policy.decodes"] = decodes
    out["policy.s_per_decode"] = _ratio(row("policy.policy_dispatch")["s"],
                                        decodes)

    for name in ("report.write_json", "report.write_csv",
                 "report.plot_lines_svg"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.s"] = row(name)["s"]
        out[f"{name}.bytes"] = sum(attrs(name, "bytes"))

    for key in ("scenarios_s", "dispatch_s", "reports_s"):
        out[f"pipeline.{key}"] = float(timings.get(key, 0.0))
    return out


def self_time_ranking(spans) -> dict:
    """Self seconds per span name and per module, largest first."""
    table = span_table(spans)
    by_name = {n: r["self_s"] for n, r in table.items()}
    by_module = defaultdict(float)
    for name, s in by_name.items():
        by_module[name.split(".")[0]] += s
    order = lambda d: dict(sorted(d.items(), key=lambda kv: -kv[1]))
    return {"by_span": order(by_name), "by_module": order(dict(by_module)),
            "inclusive_s": order({n: r["s"] for n, r in table.items()})}


def median_metrics(per_unit: list) -> dict:
    """Median over units; counts stay whole numbers."""
    out = {}
    for key in per_unit[0]:
        values = [u[key] for u in per_unit]
        whole = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if whole else statistics.median)(values)
    return out
