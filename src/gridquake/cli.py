"""Command line interface.

Exit codes: 0 ok, 2 bad input or arguments, 3 solver limit exceeded,
4 internal solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .dispatch import ObjectiveBreakdown, instance_from_scenario
from .errors import ConfigError, GridQuakeError, InternalError, LimitError
from .fixtures import default_event
from .model import load_network_file, read_json, read_value
from .pipeline import (PipelineConfig, load_pipeline_config, plan_document,
                       run_pipeline, solve, write_restoration)
from .powerflow import energization_state, shed_at
from .report import write_csv, write_json
from .scenarios import (forward_reduce, generate_scenarios, load_scenario_set,
                        scenario_set_to_document, select_representatives)


def _parse_pair(text: str, name: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{name} must be 'x,y'")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as e:
        raise ConfigError(f"{name} must be numeric: {e}") from e


def _parse_floats(text: str, name: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as e:
        raise ConfigError(f"{name} must be comma-separated numbers") from e


def _parse_ids(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _emit(doc: dict, out: str | None):
    if out:
        write_json(doc, out)
        print(f"wrote {out}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))


def _failed_set(args) -> tuple:
    """Failure ids from --failed or from a scenario file + id."""
    if args.failed is not None:
        return _parse_ids(args.failed)
    if args.scenarios is None or args.scenario_id is None:
        raise ConfigError("need --failed or --scenarios with --scenario-id")
    sset = load_scenario_set(args.scenarios)
    return sset.by_id(args.scenario_id).failed


def _cmd_gen(args) -> int:
    net = load_network_file(args.network)
    event = default_event(args.magnitude,
                          epicenter=_parse_pair(args.epicenter, "--epicenter"),
                          focal_depth_km=args.depth)
    sset = generate_scenarios(net, event, args.n, w1=args.w1, w2=args.w2,
                              seed=args.seed, exact_ens=args.exact_ens)
    _emit(scenario_set_to_document(sset), args.out)
    losses = sset.losses()
    print(f"{args.n} scenarios at M{args.magnitude:g}: "
          f"mean loss {losses.mean():.4f}, max {losses.max():.4f}")
    return 0


def _cmd_reduce(args) -> int:
    sset = load_scenario_set(args.scenarios)
    protected = ()
    if args.periods:
        protected = select_representatives(
            sset, _parse_floats(args.periods, "--periods"))
    reduced = forward_reduce(sset, args.k, protected=protected)
    _emit(scenario_set_to_document(reduced), args.out)
    print(f"reduced {len(sset.scenarios)} -> {len(reduced.scenarios)} scenarios"
          f" ({len(set(protected))} protected)")
    return 0


def _cmd_eval(args) -> int:
    if args.hour is not None and args.hour < 0:
        raise ConfigError("--hour must be >= 0")
    net = load_network_file(args.network)
    failed = _failed_set(args)
    hour = args.hour if args.hour is not None else net.peak_hour()
    state = energization_state(net, failed)
    flow = shed_at(net, failed, hour)
    doc = {
        "hour": hour,
        "failed": sorted(failed),
        "energized": {b: state.energized[b] for b in sorted(state.energized)},
        "served_mw": flow.served_mw,
        "shed_mw": flow.total_shed_mw,
        "shed_by_bus": {b: flow.p_shed[b] for b in sorted(flow.p_shed)
                        if flow.p_shed[b] > 1e-9},
        "voltage": {b: flow.v[b] for b in sorted(flow.v)},
    }
    _emit(doc, args.out)
    return 0


def _cmd_dispatch(args) -> int:
    net = load_network_file(args.network)
    failed = _failed_set(args)
    instance = instance_from_scenario(net, failed, gamma=args.gamma,
                                      travel_speed_kmh=args.speed)
    model = None
    if args.model:
        from .policy import PolicyModel
        model = PolicyModel.load(args.model)
    t0 = time.monotonic()
    result = solve(args.solver, instance, seed=args.seed, model=model,
                   samples=args.samples, max_components=args.max_comps,
                   max_crews=args.max_crews, time_limit_s=args.time_limit,
                   population=args.pop, generations=args.gens)
    seconds = time.monotonic() - t0
    _emit(plan_document(args.solver, "ok", result), args.out)
    plan, objective, _ = result
    print(f"{args.solver}: objective {objective.value:.6f}, "
          f"makespan {plan.makespan_hours:.3f} h, {seconds:.3f} s")
    return 0


def _cmd_train(args) -> int:
    from .policy import (InstanceFamily, PolicyConfig, PolicyModel, PpoConfig,
                         ppo_train)
    family = InstanceFamily(n_min=args.n_min, n_max=args.n_max,
                            depot_count=args.depots,
                            crews_per_depot=args.crews)
    model = PolicyModel.init(PolicyConfig(width=args.width), seed=args.seed)
    cfg = PpoConfig(iterations=args.iterations, batch_size=args.batch,
                    lr=args.lr, seed=args.seed)
    trace = ppo_train(model, family, cfg)
    model.save(args.out)
    print(f"trained {trace.iterations_run} iterations, "
          f"last mean return {trace.mean_return[-1]:.4f}, "
          f"aborted={trace.aborted}, "
          f"{sum(trace.seconds) / len(trace.seconds):.3f} s/iteration")
    print(f"wrote {args.out}")
    return 0


def _load_plan_doc(path: str) -> dict:
    """A plan whose completion hours and objective, used by the reports,
    have their types."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "completion" not in doc:
        raise ConfigError(f"{path}: not a plan document")
    read_value(dict[str, float], doc["completion"], f"{path}: completion")
    read_value(ObjectiveBreakdown | None, doc.get("objective"),
               f"{path}: objective")
    return doc


def _cmd_report_compare(args) -> int:
    rows = []
    for path in args.plans:
        doc = _load_plan_doc(path)
        obj = doc.get("objective") or {}
        rows.append([os.path.basename(path), doc.get("solver", ""),
                     obj.get("value"), obj.get("makespan_hours"),
                     obj.get("weighted_completion")])
    values = [r[2] for r in rows if r[2] is not None]
    best = min(values) if values else None
    table = []
    for row in sorted(rows):
        gap = None
        if best is not None and row[2] is not None and best > 0:
            gap = (row[2] - best) / best
        table.append(row + [gap])
    header = ["plan", "solver", "objective", "makespan_hours",
              "weighted_completion", "gap_vs_best"]
    write_csv(args.out, header, table)
    print(f"wrote {args.out} ({len(table)} plans)")
    return 0


def _cmd_report_resilience(args) -> int:
    net = load_network_file(args.network)
    plans = {}
    for path in args.plans:
        doc = _load_plan_doc(path)
        name = doc.get("solver") or os.path.splitext(os.path.basename(path))[0]
        if name in plans:
            raise ConfigError(f"{path}: a second plan named {name!r}; each "
                              f"curve is keyed by its plan's solver")
        plans[name] = (list(doc["completion"]), doc["completion"])
    timelines = write_restoration(net, plans, args.out, title="Restoration",
                                  horizon=args.horizon)
    for name, timeline in timelines.items():
        print(f"{name}: ens {timeline.ens_mwh:.4f} MWh over "
              f"{len(timeline.hours)} h")
    print(f"wrote {args.out}.csv and {args.out}.svg")
    return 0


def _cmd_pipeline(args) -> int:
    net = load_network_file(args.network)
    if args.config:
        config = load_pipeline_config(args.config)
    else:
        config = PipelineConfig()
    manifest = run_pipeline(net, config, args.out)
    print(f"wrote {len(manifest['artifacts'])} artifacts to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridquake",
        description="Earthquake damage, load shedding, and repair dispatch "
                    "studies for radial distribution grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample damage scenarios for one event")
    p.add_argument("--network", required=True)
    p.add_argument("--magnitude", type=float, required=True)
    p.add_argument("--epicenter", default="20,15", help="x,y in km")
    p.add_argument("--depth", type=float, default=10.0, help="focal depth km")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--w1", type=float, default=1.0)
    p.add_argument("--w2", type=float, default=1.0)
    p.add_argument("--exact-ens", action="store_true",
                   help="score scenarios with the shedding LP instead of "
                        "connectivity")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="reduce a scenario set")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--periods", default="",
                   help="return periods whose representatives must survive")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("eval", help="shedding solution for a failure set")
    p.add_argument("--network", required=True)
    p.add_argument("--failed", help="comma-separated component ids")
    p.add_argument("--scenarios")
    p.add_argument("--scenario-id", type=int)
    p.add_argument("--hour", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dispatch", help="plan repair crew routes")
    p.add_argument("solver", choices=["exact", "ga", "policy"])
    p.add_argument("--network", required=True)
    p.add_argument("--failed")
    p.add_argument("--scenarios")
    p.add_argument("--scenario-id", type=int)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--speed", type=float, help="travel speed km/h")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-comps", type=int, default=9)
    p.add_argument("--max-crews", type=int, default=3)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--pop", type=int, default=200)
    p.add_argument("--gens", type=int, default=500)
    p.add_argument("--model", help="policy checkpoint (.npz)")
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dispatch)

    p = sub.add_parser("train", help="train the dispatch policy")
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--depots", type=int, default=2)
    p.add_argument("--crews", type=int, default=1)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("report", help="derived reports")
    rsub = p.add_subparsers(dest="report_kind", required=True)
    r = rsub.add_parser("compare", help="objective table for saved plans")
    r.add_argument("--plans", nargs="+", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_report_compare)
    r = rsub.add_parser("resilience",
                        help="restoration curves for saved plans")
    r.add_argument("--network", required=True)
    r.add_argument("--plans", nargs="+", required=True)
    r.add_argument("--horizon", type=int)
    r.add_argument("--out", required=True, help="output path prefix")
    r.set_defaults(func=_cmd_report_resilience)

    p = sub.add_parser("pipeline", help="full study with manifest")
    p.add_argument("--network", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LimitError as e:
        print(f"limit exceeded: {e}", file=sys.stderr)
        return 3
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except GridQuakeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
