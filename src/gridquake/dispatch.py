"""Repair crew dispatch: instance construction, scheduling, and the exact
solver.

Failed components are first clustered to their nearest depot; each depot's
crews then serve only that cluster. A plan assigns every failed component to
exactly one crew route. The objective trades restoration makespan against
curtailment-weighted completion times:

    value = gamma * T + (1 - gamma) * sum_d cl_d * completion_d

where T is the latest repair completion over all crews (the drive back to
the depot is tracked but not part of T). A component's curtailment weight
cl_d is the peak-hour load its failure alone de-energizes, read from the
study's `powerflow.PeakShed`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, LimitError
from .model import Depot, Network, check
from .powerflow import PeakShed

# exact_dispatch's default size limits per depot cluster
MAX_COMPONENTS_PER_DEPOT = 9
MAX_CREWS_PER_DEPOT = 3


@dataclass(frozen=True)
class FailedComponent:
    id: str
    x: float
    y: float
    repair_hours: float
    curtailed_mw: float  # load de-energized by this failure alone


def _repeat(recs):
    """The first id that an earlier one of `recs` holds, else None."""
    seen = set()
    return next((r.id for r in recs if r.id in seen or seen.add(r.id)), None)


@dataclass(frozen=True)
class DispatchInstance:
    components: tuple  # FailedComponent, document order
    depots: tuple  # Depot
    travel_speed_kmh: float = Network.travel_speed_kmh
    gamma: float = 0.5

    def __post_init__(self):
        comp, depot = _repeat(self.components), _repeat(self.depots)
        check(("depots", self.depots, len(self.depots) > 0, "non-empty"),
              ("gamma", self.gamma, 0.0 <= self.gamma <= 1.0, "in [0, 1]"),
              ("travel_speed_kmh", self.travel_speed_kmh,
               self.travel_speed_kmh > 0, "> 0"),
              ("components", comp, comp is None, "unique by id"),
              ("depots", depot, depot is None, "unique by id"))

    def crew_ids(self) -> list:
        out = []
        for d in self.depots:
            out.extend(f"{d.id}:{k}" for k in range(1, d.crew_count + 1))
        return out

    @cached_property
    def compiled(self) -> "_Compiled":
        """The instance as arrays, built on first use and shared by every
        consumer; not a field, so eq and hash ignore it."""
        return _Compiled(self)


@dataclass(frozen=True)
class DispatchPlan:
    routes: dict  # crew id -> tuple of component ids in service order
    assignment: dict  # component id -> depot id
    arrival: dict  # component id -> hours
    completion: dict  # component id -> hours
    crew_duration: dict  # crew id -> hours to last completion (no return)
    return_hours: dict  # crew id -> hours including the drive back
    makespan_hours: float


@dataclass(frozen=True)
class ObjectiveBreakdown:
    makespan_hours: float
    weighted_completion: float
    value: float
    gamma: float


@dataclass(frozen=True)
class ExactResult:
    plan: DispatchPlan
    objective: ObjectiveBreakdown
    optimal: bool
    stats: dict  # nodes, pruned, frontier (summed over depots), timed_out


def travel_hours(a, b, speed_kmh: float) -> float:
    """Euclidean travel time between two (x, y) points, in hours."""
    return math.hypot(a[0] - b[0], a[1] - b[1]) / speed_kmh


def cluster_to_depots(instance: DispatchInstance) -> dict:
    """Nearest-depot assignment; distance ties go to the lexicographically
    smaller depot id."""
    return {c.id: min(instance.depots,
                      key=lambda d: (math.hypot(c.x - d.x, c.y - d.y), d.id)).id
            for c in instance.components}


class _Compiled:
    """A dispatch instance as arrays: the only place that clusters components
    to depots, lists crews and times travel. Component i keeps its document
    index; travel-matrix node n + k is depot k. Read it through
    `DispatchInstance.compiled`, which builds it once per instance."""

    def __init__(self, instance: DispatchInstance):
        comps, speed = instance.components, instance.travel_speed_kmh
        cluster = cluster_to_depots(instance)
        depot_index = {d.id: k for k, d in enumerate(instance.depots)}
        depot_of = [depot_index[cluster[c.id]] for c in comps]
        by_id = sorted(range(len(comps)), key=lambda i: comps[i].id)
        # per depot: its component indices, sorted by id
        self.depot_jobs = tuple(tuple(i for i in by_id if depot_of[i] == k)
                                for k in range(len(instance.depots)))
        # each component's depot index, and each crew's
        self.depot_of = np.array(depot_of, dtype=np.intp)
        self.crew_ids = tuple(instance.crew_ids())
        self.crew_depot = np.repeat(np.arange(len(instance.depots)),
                                    [d.crew_count for d in instance.depots])
        self.repair = np.array([c.repair_hours for c in comps], dtype=float)
        self.weight = np.array([c.curtailed_mw for c in comps], dtype=float)
        # travel_hours from row node to column node
        nodes = [(c.x, c.y) for c in comps] + [(d.x, d.y) for d in instance.depots]
        self.travel = np.array([[travel_hours(a, b, speed) for b in nodes]
                                for a in nodes])


def instance_from_scenario(
    network: Network, failed_ids, gamma: float = DispatchInstance.gamma,
    travel_speed_kmh: float | None = None, peak_shed: PeakShed | None = None,
) -> DispatchInstance:
    """Build a dispatch instance for a damage scenario's failed set.

    Each component's curtailment weight is the peak-hour load that its
    failure alone de-energizes: one `peak_shed.de_energized` call answers
    every component's one-component set. A fresh PeakShed is made when none
    is given, and a study passes its own so the peak hour is read once. The
    weights do not depend on which is used."""
    if travel_speed_kmh is None:
        travel_speed_kmh = network.travel_speed_kmh
    if peak_shed is None:
        peak_shed = PeakShed(network)
    failed_ids = list(failed_ids)
    cl = dict(zip(failed_ids,
                  peak_shed.de_energized([[cid] for cid in failed_ids])))
    comps = []
    for cid in [c for c in network.components if c in cl]:
        x, y = network.component_location(cid)
        comps.append(FailedComponent(
            id=cid, x=x, y=y,
            repair_hours=network.components[cid].repair_hours,
            curtailed_mw=cl[cid],
        ))
    return DispatchInstance(
        components=tuple(comps),
        depots=tuple(network.depots.values()),
        travel_speed_kmh=travel_speed_kmh,
        gamma=gamma,
    )


def schedule_plan(instance: DispatchInstance, routes: dict) -> DispatchPlan:
    """Turn crew routes into a timed plan.

    Validates that the routes cover every failed component exactly once,
    that crews exist, and that every component is served from its nearest
    depot's cluster.
    """
    compiled, depots = instance.compiled, instance.depots
    index = {c.id: i for i, c in enumerate(instance.components)}
    cluster = {cid: depots[k].id
               for cid, k in zip(index, compiled.depot_of.tolist())}
    homes = dict(zip(compiled.crew_ids, compiled.crew_depot.tolist()))

    seen = set()
    for crew_id, seq in routes.items():
        if crew_id not in homes:
            raise ConfigError(f"unknown crew {crew_id!r}")
        depot_id = depots[homes[crew_id]].id
        for cid in seq:
            if cid not in index:
                raise ConfigError(f"route for {crew_id} names unknown component {cid!r}")
            if cid in seen:
                raise ConfigError(f"component {cid!r} appears in two routes")
            seen.add(cid)
            if cluster[cid] != depot_id:
                raise ConfigError(
                    f"component {cid!r} belongs to depot {cluster[cid]!r}, "
                    f"not {depot_id!r}"
                )
    missing = set(index) - seen
    if missing:
        raise ConfigError(f"components not routed: {sorted(missing)}")

    travel, repair = compiled.travel.tolist(), compiled.repair.tolist()
    arrival, completion = {}, {}
    crew_duration, return_hours = {}, {}
    for crew_id, k in homes.items():
        seq = tuple(routes.get(crew_id, ()))
        home = loc = len(index) + k
        t = 0.0
        for cid in seq:
            i = index[cid]
            t += travel[loc][i]
            arrival[cid] = t
            t += repair[i]
            completion[cid] = t
            loc = i
        crew_duration[crew_id] = t
        return_hours[crew_id] = t + travel[loc][home] if seq else 0.0

    makespan = max(crew_duration.values(), default=0.0)
    return DispatchPlan(
        routes={k: tuple(routes.get(k, ())) for k in homes},
        assignment=cluster,
        arrival=arrival,
        completion=completion,
        crew_duration=crew_duration,
        return_hours=return_hours,
        makespan_hours=makespan,
    )


def plan_objective(instance: DispatchInstance, plan: DispatchPlan) -> ObjectiveBreakdown:
    weighted = sum(c.curtailed_mw * plan.completion[c.id]
                   for c in instance.components)
    value = instance.gamma * plan.makespan_hours + (1 - instance.gamma) * weighted
    return ObjectiveBreakdown(
        makespan_hours=plan.makespan_hours,
        weighted_completion=weighted,
        value=value,
        gamma=instance.gamma,
    )


# --- exact solver -----------------------------------------------------------

def exact_dispatch(
    instance: DispatchInstance,
    max_components_per_depot: int = MAX_COMPONENTS_PER_DEPOT,
    max_crews_per_depot: int = MAX_CREWS_PER_DEPOT,
    time_limit_s: float | None = None,
) -> ExactResult:
    """Optimal dispatch by per-depot enumeration with admissible pruning.

    Each depot cluster is searched independently for the Pareto frontier of
    (makespan, weighted completion); frontiers are then combined exactly by
    scanning candidate global makespans. Every cluster is checked against
    the size limits before any is searched: LimitError names the first
    depot, in depot order, that exceeds one. ConfigError is raised for a
    NaN or negative time limit and for limits below 1. On timeout the best
    plan found so far is returned with optimal=False. `stats` counts the
    search: nodes expanded, nodes pruned by dominance, Pareto points kept
    (summed over depots) and whether the deadline fired.
    """
    if time_limit_s is not None and not time_limit_s >= 0:
        raise ConfigError(f"exact time limit must be >= 0 s, "
                          f"got {time_limit_s}")
    for name, value in (("max_components_per_depot", max_components_per_depot),
                        ("max_crews_per_depot", max_crews_per_depot)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    compiled = instance.compiled
    for depot, idx in zip(instance.depots, compiled.depot_jobs):
        if len(idx) > max_components_per_depot:
            raise LimitError(f"depot {depot.id}: {len(idx)} components exceeds "
                             f"the exact solver limit {max_components_per_depot}")
        if depot.crew_count > max_crews_per_depot:
            raise LimitError(f"depot {depot.id}: {depot.crew_count} crews exceeds "
                             f"the exact solver limit {max_crews_per_depot}")
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s

    stats = {"nodes": 0, "pruned": 0, "frontier": 0, "timed_out": False}
    frontiers = {}
    for k, (depot, idx) in enumerate(zip(instance.depots, compiled.depot_jobs)):
        jobs = [instance.components[i] for i in idx]
        nodes = list(idx) + [len(instance.components) + k]
        travel = compiled.travel[np.ix_(nodes, nodes)].tolist()
        frontier, finished = _depot_frontier(depot, jobs, travel, deadline,
                                             stats)
        frontiers[depot.id] = frontier
        stats["frontier"] += len(frontier)
        stats["timed_out"] = stats["timed_out"] or not finished

    plan = schedule_plan(instance, _combine_frontiers(instance, frontiers))
    breakdown = plan_objective(instance, plan)
    return ExactResult(plan=plan, objective=breakdown,
                       optimal=not stats["timed_out"], stats=stats)


def _depot_frontier(depot, jobs, travel, deadline, stats):
    """Pareto frontier of (duration T, weighted completion E) over all
    ordered assignments of `jobs` to the depot's crews.

    `travel[a][b]` is the travel time from job a to job b; index len(jobs)
    is the depot. Crews are interchangeable, so the search is canonicalized:
    crew k's set must contain the lowest-indexed job still unassigned when
    crew k starts, and once a crew is left empty all later crews stay empty.

    A node is pruned when a frontier point dominates its lower bounds. Each
    remaining job finishes no earlier than its direct finish from the
    current crew's position or, while a later crew is free, from the depot
    at time 0. The last crew must also serve every remaining job in
    sequence, each costing at least p_j (its cheapest incoming travel plus
    its repair), so its T is at least t_crew + sum p_j and its E at least
    the weighted completions of the single-machine schedule in Smith's
    WSPT order (p_j / w_j ascending), which is optimal for that relaxation.

    Frontier entries are (T, E, routes) with routes a tuple of job-id tuples,
    one per crew. Returns (frontier, finished) where finished is False if
    the deadline cut the search short; adds the nodes expanded and pruned
    to `stats`.
    """
    n_crews, home = depot.crew_count, len(jobs)
    repair = [c.repair_hours for c in jobs]
    weight = [c.curtailed_mw for c in jobs]
    if not jobs:
        return [(0.0, 0.0, tuple(() for _ in range(n_crews)))], True
    fresh = travel[home]
    # the sequence bound's per-job cost and Smith order; zero weights last,
    # ties to the lower index
    cost = [min(travel[i][j] for i in range(home + 1) if i != j) + repair[j]
            for j in range(home)]
    wspt = sorted(range(home), key=lambda j: (
        weight[j] == 0, cost[j] / weight[j] if weight[j] else 0.0, j))
    nodes = pruned = 0

    def assign(crew_idx, remaining, routes, t_max, e_sum):
        """Pick crew crew_idx's full route, then move to the next crew.
        Returns False if the deadline fired somewhere below."""
        if not remaining:
            filled = list(routes) + [()] * (n_crews - len(routes))
            _frontier_add(frontier, (t_max, e_sum, tuple(
                tuple(jobs[j].id for j in seq) for seq in filled)))
            return True
        if crew_idx >= n_crews:
            return True  # jobs left but no crews: dead branch
        return extend(crew_idx, remaining, routes, t_max, e_sum, seq=(),
                      loc=home, t_crew=0.0, has_must=False,
                      must=min(remaining))

    def extend(crew_idx, remaining, routes, t_max, e_sum, seq, loc, t_crew,
               has_must, must):
        nonlocal nodes, pruned
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            return False
        # admissible per-job completion bound: the best direct finish from
        # the current crew's position or a fresh crew at the depot
        here = travel[loc]
        last = crew_idx + 1 == n_crews
        if last:
            lbs = [t_crew + here[j] + repair[j] for j in remaining]
        else:
            lbs = [min(t_crew + here[j], fresh[j]) + repair[j]
                   for j in remaining]
        t_lb = max(t_max, t_crew, *lbs)
        e_lb = e_sum + sum([weight[j] * lb for j, lb in zip(remaining, lbs)])
        if last and len(remaining) > 1:
            # the one-crew sequence bound, relaxed by 1e-12 relative: its
            # sums run in another order than a leaf's, and rounding must
            # never lift it above a reachable leaf
            t_seq, e_seq = t_crew, e_sum
            for j in wspt:
                if j in remaining:
                    t_seq += cost[j]
                    e_seq += weight[j] * t_seq
            t_lb = max(t_lb, (1.0 - 1e-12) * t_seq)
            e_lb = max(e_lb, (1.0 - 1e-12) * e_seq)
        t_tol, e_tol = t_lb + 1e-12, e_lb + 1e-12
        for ft, fe, _ in frontier:
            if ft <= t_tol and fe <= e_tol:
                pruned += 1
                return True

        finished = True
        # close this crew's route and hand the rest to the next crew
        if has_must:
            finished &= assign(crew_idx + 1, remaining, routes + [seq],
                               max(t_max, t_crew), e_sum)
        # or serve one more job now
        for j in sorted(remaining):
            done = t_crew + here[j] + repair[j]
            finished &= extend(crew_idx, remaining - {j}, routes, t_max,
                               e_sum + weight[j] * done, seq + (j,), j, done,
                               has_must or j == must, must)
            if not finished:
                break
        return finished

    # seed: greedy nearest-neighbor keeps the frontier non-empty under any
    # deadline and gives the dominance test an early anchor
    frontier = []
    _frontier_add(frontier, _greedy_seed(home, n_crews, jobs, travel))
    finished = assign(0, frozenset(range(len(jobs))), [], 0.0, 0.0)
    stats["nodes"] += nodes
    stats["pruned"] += pruned
    return frontier, finished


def _greedy_seed(home, n_crews, jobs, travel):
    locs = [home] * n_crews
    times = [0.0] * n_crews
    seqs = [[] for _ in range(n_crews)]
    remaining = set(range(len(jobs)))
    e_sum = 0.0
    while remaining:
        # earliest finish over every crew and job, ties to crew then job id
        (done, k, _), j = min(
            ((times[k] + travel[locs[k]][j] + jobs[j].repair_hours, k,
              jobs[j].id), j) for k in range(n_crews) for j in remaining)
        times[k] = done
        locs[k] = j
        seqs[k].append(j)
        e_sum += jobs[j].curtailed_mw * times[k]
        remaining.remove(j)
    t_max = max(times)
    routes = tuple(tuple(jobs[j].id for j in s) for s in seqs)
    return (t_max, e_sum, routes)


def _frontier_add(frontier, entry):
    t, e, _ = entry
    if _dominated_by_frontier(frontier, t, e):
        return  # dominated (or tied): keep the incumbent
    frontier[:] = [f for f in frontier if not (t <= f[0] + 1e-12 and e <= f[1] + 1e-12)]
    frontier.append(entry)


def _dominated_by_frontier(frontier, t_lb, e_lb):
    for ft, fe, _ in frontier:
        if ft <= t_lb + 1e-12 and fe <= e_lb + 1e-12:
            return True
    return False


def _combine_frontiers(instance, frontiers):
    """Exact combination of per-depot Pareto frontiers.

    The optimal global makespan equals some depot frontier point's T, so it
    suffices to scan the union of T values; at each candidate tau every depot
    contributes its cheapest E among points with T <= tau.
    """
    prepared = {}
    for did, frontier in frontiers.items():
        rows, best_e = [], math.inf
        for t, e, routes in sorted(frontier, key=lambda f: (f[0], f[1])):
            if e < best_e:
                best_e = e
                rows.append((t, e, routes))
        prepared[did] = rows  # T ascending, E strictly decreasing

    t_min_feasible = max(rows[0][0] for rows in prepared.values())
    best_value, best = math.inf, None
    for tau in sorted({t for rows in prepared.values() for t, _, _ in rows}):
        if tau < t_min_feasible - 1e-12:
            continue
        total_e, chosen = 0.0, {}
        for did, rows in prepared.items():
            chosen[did] = [r for r in rows if r[0] <= tau + 1e-12][-1]
            total_e += chosen[did][1]
        value = instance.gamma * tau + (1 - instance.gamma) * total_e
        if value < best_value - 1e-12:
            best_value, best = value, chosen
    return dict(zip(instance.compiled.crew_ids,
                     (seq for d in instance.depots for seq in best[d.id][2])))
