"""Repair crew dispatch: instance construction, scheduling, and the exact
solver.

Failed components are first clustered to their nearest depot; each depot's
crews then serve only that cluster. A plan assigns every failed component to
exactly one crew route. The objective trades restoration makespan against
curtailment-weighted completion times:

    value = gamma * T + (1 - gamma) * sum_d cl_d * completion_d

where T is the latest repair completion over all crews (the drive back to
the depot is tracked but not part of T).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import ConfigError, LimitError
from .model import Depot, Network
from .powerflow import de_energized_load


@dataclass(frozen=True)
class FailedComponent:
    id: str
    x: float
    y: float
    repair_hours: float
    curtailed_mw: float  # load de-energized by this failure alone


@dataclass(frozen=True)
class DispatchInstance:
    components: tuple  # FailedComponent, document order
    depots: tuple  # Depot
    travel_speed_kmh: float = 40.0
    gamma: float = 0.5

    def __post_init__(self):
        if not self.depots:
            raise ConfigError("dispatch instance needs at least one depot")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must be in [0, 1]")
        if not self.travel_speed_kmh > 0:
            raise ConfigError("travel speed must be > 0")
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate component ids in instance")

    def crew_ids(self) -> list:
        out = []
        for d in self.depots:
            out.extend(f"{d.id}:{k}" for k in range(1, d.crew_count + 1))
        return out

    def depot_of_crew(self, crew_id: str) -> Depot:
        did = crew_id.rsplit(":", 1)[0]
        for d in self.depots:
            if d.id == did:
                return d
        raise ConfigError(f"unknown crew {crew_id!r}")


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


def travel_hours(a, b, speed_kmh: float) -> float:
    """Euclidean travel time between two (x, y) points, in hours."""
    return math.hypot(a[0] - b[0], a[1] - b[1]) / speed_kmh


def cluster_to_depots(instance: DispatchInstance) -> dict:
    """Nearest-depot assignment; distance ties go to the lexicographically
    smaller depot id."""
    out = {}
    for comp in instance.components:
        best = None
        for d in instance.depots:
            key = (math.hypot(comp.x - d.x, comp.y - d.y), d.id)
            if best is None or key < best[0]:
                best = (key, d.id)
        out[comp.id] = best[1]
    return out


def attribute_curtailed_load(network: Network, failed_ids, hour: int) -> dict:
    """Curtailment weight per failed component: the load de-energized when
    that component alone is out."""
    return {cid: de_energized_load(network, [cid], hour) for cid in failed_ids}


def instance_from_scenario(
    network: Network, failed_ids, gamma: float = 0.5,
    travel_speed_kmh: float | None = None, hour: int | None = None,
) -> DispatchInstance:
    """Build a dispatch instance for a damage scenario's failed set."""
    if hour is None:
        hour = network.peak_hour()
    if travel_speed_kmh is None:
        travel_speed_kmh = network.travel_speed_kmh
    if not network.depots:
        raise ConfigError("network has no depots")
    cl = attribute_curtailed_load(network, failed_ids, hour)
    comps = []
    for cid in network.components:
        if cid not in set(failed_ids):
            continue
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
    cluster = cluster_to_depots(instance)
    comp_by_id = {c.id: c for c in instance.components}
    valid_crews = set(instance.crew_ids())

    seen = set()
    for crew_id, seq in routes.items():
        if crew_id not in valid_crews:
            raise ConfigError(f"unknown crew {crew_id!r}")
        depot_id = crew_id.rsplit(":", 1)[0]
        for cid in seq:
            if cid not in comp_by_id:
                raise ConfigError(f"route for {crew_id} names unknown component {cid!r}")
            if cid in seen:
                raise ConfigError(f"component {cid!r} appears in two routes")
            seen.add(cid)
            if cluster[cid] != depot_id:
                raise ConfigError(
                    f"component {cid!r} belongs to depot {cluster[cid]!r}, "
                    f"not {depot_id!r}"
                )
    missing = set(comp_by_id) - seen
    if missing:
        raise ConfigError(f"components not routed: {sorted(missing)}")

    arrival, completion = {}, {}
    crew_duration, return_hours = {}, {}
    for crew_id in instance.crew_ids():
        seq = tuple(routes.get(crew_id, ()))
        depot = instance.depot_of_crew(crew_id)
        loc = (depot.x, depot.y)
        t = 0.0
        for cid in seq:
            comp = comp_by_id[cid]
            t += travel_hours(loc, (comp.x, comp.y), instance.travel_speed_kmh)
            arrival[cid] = t
            t += comp.repair_hours
            completion[cid] = t
            loc = (comp.x, comp.y)
        crew_duration[crew_id] = t
        return_hours[crew_id] = t + travel_hours(loc, (depot.x, depot.y),
                                                 instance.travel_speed_kmh) if seq else 0.0

    makespan = max(crew_duration.values(), default=0.0)
    return DispatchPlan(
        routes={k: tuple(routes.get(k, ())) for k in instance.crew_ids()},
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


def subtour_violations(plan: DispatchPlan) -> list:
    """Position-potential check that each route is one open chain from the
    depot: potentials must strictly increase along the route and no
    component may appear twice anywhere. Returns human-readable violations
    (empty for every plan built by schedule_plan)."""
    problems = []
    potential = {}
    for crew_id, seq in plan.routes.items():
        for pos, cid in enumerate(seq, start=1):
            if cid in potential:
                problems.append(f"{cid} visited twice")
            potential[cid] = pos
        for a, b in zip(seq, seq[1:]):
            if potential[b] <= potential[a]:
                problems.append(f"{crew_id}: potential does not increase {a}->{b}")
    return problems


# --- exact solver -----------------------------------------------------------

def exact_dispatch(
    instance: DispatchInstance,
    max_components_per_depot: int = 9,
    max_crews_per_depot: int = 3,
    time_limit_s: float | None = None,
) -> ExactResult:
    """Optimal dispatch by per-depot enumeration with admissible pruning.

    Each depot cluster is searched independently for the Pareto frontier of
    (makespan, weighted completion); frontiers are then combined exactly by
    scanning candidate global makespans. Raises LimitError when a cluster
    exceeds the size limits. On timeout the best plan found so far is
    returned with optimal=False.
    """
    cluster = cluster_to_depots(instance)
    comp_by_id = {c.id: c for c in instance.components}
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s

    complete = True
    frontiers = {}
    for depot in instance.depots:
        jobs = [comp_by_id[cid] for cid in comp_by_id
                if cluster[cid] == depot.id]
        jobs.sort(key=lambda c: c.id)
        if len(jobs) > max_components_per_depot:
            raise LimitError(
                f"depot {depot.id}: {len(jobs)} components exceeds the exact "
                f"solver limit {max_components_per_depot}"
            )
        if depot.crew_count > max_crews_per_depot:
            raise LimitError(
                f"depot {depot.id}: {depot.crew_count} crews exceeds the "
                f"exact solver limit {max_crews_per_depot}"
            )
        frontier, finished = _depot_frontier(
            depot, jobs, instance.travel_speed_kmh, deadline)
        frontiers[depot.id] = frontier
        complete = complete and finished

    best_plan, best_value = _combine_frontiers(instance, frontiers)
    plan = schedule_plan(instance, best_plan)
    breakdown = plan_objective(instance, plan)
    return ExactResult(plan=plan, objective=breakdown, optimal=complete)


def _depot_frontier(depot, jobs, speed, deadline):
    """Pareto frontier of (duration T, weighted completion E) over all
    ordered assignments of `jobs` to the depot's crews.

    Crews are interchangeable, so the search is canonicalized: crew k's set
    must contain the lowest-indexed job still unassigned when crew k starts,
    and once a crew is left empty all later crews stay empty.
    Frontier entries are (T, E, routes) with routes a tuple of job-id tuples,
    one per crew. Returns (frontier, finished) where finished is False if
    the deadline cut the search short.
    """
    n_crews = depot.crew_count
    home = (depot.x, depot.y)
    if not jobs:
        return [(0.0, 0.0, tuple(() for _ in range(n_crews)))], True

    # seed: greedy nearest-neighbor keeps the frontier non-empty under any
    # deadline and gives the dominance test an early anchor
    frontier = []
    _frontier_add(frontier, _greedy_seed(home, n_crews, jobs, speed))

    finished = _assign_crews(home, n_crews, jobs, speed, deadline,
                             crew_idx=0,
                             remaining=frozenset(range(len(jobs))),
                             routes=[], t_max=0.0, e_sum=0.0,
                             frontier=frontier)
    return frontier, finished


def _greedy_seed(home, n_crews, jobs, speed):
    locs = [home] * n_crews
    times = [0.0] * n_crews
    seqs = [[] for _ in range(n_crews)]
    remaining = set(range(len(jobs)))
    e_sum = 0.0
    while remaining:
        best = None
        for k in range(n_crews):
            for j in remaining:
                done = times[k] + travel_hours(locs[k], (jobs[j].x, jobs[j].y),
                                               speed) + jobs[j].repair_hours
                key = (done, k, jobs[j].id)
                if best is None or key < best[0]:
                    best = (key, k, j)
        _, k, j = best
        times[k] = best[0][0]
        locs[k] = (jobs[j].x, jobs[j].y)
        seqs[k].append(j)
        e_sum += jobs[j].curtailed_mw * times[k]
        remaining.remove(j)
    t_max = max(times)
    routes = tuple(tuple(jobs[j].id for j in s) for s in seqs)
    return (t_max, e_sum, routes)


def _frontier_add(frontier, entry):
    t, e, _ = entry
    for ft, fe, _ in frontier:
        if ft <= t + 1e-12 and fe <= e + 1e-12:
            return  # dominated (or tied): keep the incumbent
    frontier[:] = [f for f in frontier if not (t <= f[0] + 1e-12 and e <= f[1] + 1e-12)]
    frontier.append(entry)


def _dominated_by_frontier(frontier, t_lb, e_lb):
    for ft, fe, _ in frontier:
        if ft <= t_lb + 1e-12 and fe <= e_lb + 1e-12:
            return True
    return False


def _assign_crews(home, n_crews, jobs, speed, deadline, crew_idx, remaining,
                  routes, t_max, e_sum, frontier):
    """Recursively pick crew crew_idx's full route, then move to the next
    crew. Returns False if the deadline fired somewhere below."""
    if not remaining:
        filled = list(routes) + [()] * (n_crews - len(routes))
        entry = (t_max, e_sum,
                 tuple(tuple(jobs[j].id for j in seq) for seq in filled))
        _frontier_add(frontier, entry)
        return True
    if crew_idx >= n_crews:
        return True  # jobs left but no crews: dead branch

    must = min(remaining)
    return _extend_route(home, n_crews, jobs, speed, deadline, crew_idx,
                         remaining, routes, t_max, e_sum, frontier,
                         seq=(), loc=home, t_crew=0.0, has_must=False,
                         must=must)


def _completion_lower_bounds(home, jobs, speed, remaining, loc, t_crew,
                             crews_left):
    """Admissible per-job completion bound: the best direct finish from the
    current crew's position or a fresh crew at the depot."""
    out = {}
    for j in remaining:
        p = (jobs[j].x, jobs[j].y)
        via_current = t_crew + travel_hours(loc, p, speed)
        via_fresh = travel_hours(home, p, speed) if crews_left > 0 else math.inf
        out[j] = min(via_current, via_fresh) + jobs[j].repair_hours
    return out


def _extend_route(home, n_crews, jobs, speed, deadline, crew_idx, remaining,
                  routes, t_max, e_sum, frontier, seq, loc, t_crew, has_must,
                  must):
    if deadline is not None and time.monotonic() > deadline:
        return False

    lbs = _completion_lower_bounds(home, jobs, speed, remaining, loc, t_crew,
                                   n_crews - crew_idx - 1)
    t_lb = max([t_max, t_crew] + list(lbs.values()))
    e_lb = e_sum + sum(jobs[j].curtailed_mw * lbs[j] for j in remaining)
    if _dominated_by_frontier(frontier, t_lb, e_lb):
        return True

    finished = True
    # close this crew's route and hand the rest to the next crew
    if has_must:
        finished &= _assign_crews(home, n_crews, jobs, speed, deadline,
                                  crew_idx + 1, remaining,
                                  routes + [seq], max(t_max, t_crew), e_sum,
                                  frontier)
    # or serve one more job now
    for j in sorted(remaining):
        comp = jobs[j]
        done = t_crew + travel_hours(loc, (comp.x, comp.y), speed) + comp.repair_hours
        finished &= _extend_route(
            home, n_crews, jobs, speed, deadline, crew_idx,
            remaining - {j}, routes, t_max,
            e_sum + comp.curtailed_mw * done, frontier,
            seq + (j,), (comp.x, comp.y), done,
            has_must or j == must, must)
        if not finished:
            break
    return finished


def _combine_frontiers(instance, frontiers):
    """Exact combination of per-depot Pareto frontiers.

    The optimal global makespan equals some depot frontier point's T, so it
    suffices to scan the union of T values; at each candidate tau every depot
    contributes its cheapest E among points with T <= tau.
    """
    gamma = instance.gamma
    prepared = {}
    for did, frontier in frontiers.items():
        pts = sorted(frontier, key=lambda f: (f[0], f[1]))
        best_e = math.inf
        rows = []
        for t, e, routes in pts:
            if e < best_e:
                best_e = e
                rows.append((t, e, routes))
        prepared[did] = rows  # T ascending, E strictly decreasing

    taus = sorted({t for rows in prepared.values() for t, _, _ in rows})
    t_min_feasible = max(rows[0][0] for rows in prepared.values())

    best_value, best_routes = math.inf, None
    for tau in taus:
        if tau < t_min_feasible - 1e-12:
            continue
        total_e = 0.0
        chosen = {}
        for did, rows in prepared.items():
            pick = None
            for t, e, routes in rows:
                if t <= tau + 1e-12:
                    pick = (t, e, routes)
                else:
                    break
            total_e += pick[1]
            chosen[did] = pick
        value = gamma * tau + (1 - gamma) * total_e
        if value < best_value - 1e-12:
            best_value = value
            best_routes = chosen

    routes_out = {}
    for depot in instance.depots:
        crew_routes = best_routes[depot.id][2]
        for k, seq in enumerate(crew_routes, start=1):
            routes_out[f"{depot.id}:{k}"] = tuple(seq)
    return routes_out, best_value
