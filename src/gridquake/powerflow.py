"""Post-event operating state: island energization, linearized load-shedding
dispatch, and restoration timelines.

The shedding problem is one LinDistFlow LP over all energized buses, in
which each energized island is a separate block: nodal P/Q balance, linear
voltage drop along lines, box limits on flows, generation, voltages, and
shed. De-energized islands shed everything by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalError
from .model import Network
from . import simplex


@dataclass(frozen=True)
class OperationalState:
    """Equipment status after mapping failed components onto the network."""

    failed: frozenset
    lines_out: frozenset
    gens_out: frozenset
    substations_out: frozenset  # bus ids whose grid supply is lost
    energized: dict  # bus id -> bool
    islands: tuple  # tuple of tuples of bus ids


@dataclass
class FlowSolution:
    v: dict  # bus -> voltage (p.u.); 1.0 placeholder when de-energized
    p_shed: dict  # bus -> MW shed
    q_shed: dict
    p_line: dict  # line -> MW, positive from -> to
    q_line: dict
    p_gen: dict  # generator -> MW
    q_gen: dict
    p_import: dict  # substation bus -> MW drawn from the grid
    q_import: dict
    total_shed_mw: float = 0.0
    served_mw: float = 0.0


@dataclass
class RestorationTimeline:
    hours: list  # step index per entry
    served_fraction: list  # fraction of reference load served
    shed_mw: list
    ens_mwh: float
    reference_load_mw: float


def energization_state(network: Network, failed_ids) -> OperationalState:
    """Resolve island energization from a set of failed component ids.

    A failed line is out of service; a failed generator is unavailable; a
    failed substation keeps its bus as a node but loses grid supply. An
    island is energized iff it contains an operational substation or an
    available generator.
    """
    failed = frozenset(failed_ids)
    unknown = failed - set(network.components)
    if unknown:
        raise ConfigError(f"unknown component ids: {sorted(unknown)}")

    lines_out, gens_out, subs_out = set(), set(), set()
    for cid in failed:
        comp = network.components[cid]
        if comp.kind == "line":
            lines_out.add(comp.ref)
        elif comp.kind == "generator":
            gens_out.add(comp.ref)
        else:
            subs_out.add(comp.ref)

    parent = {b: b for b in network.buses}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ln in network.lines.values():
        if ln.id in lines_out:
            continue
        ra, rb = find(ln.from_bus), find(ln.to_bus)
        if ra != rb:
            parent[ra] = rb

    sources = set()
    for bid in network.substation_buses():
        if bid not in subs_out:
            sources.add(bid)
    for g in network.generators.values():
        if g.id not in gens_out:
            sources.add(g.bus)

    groups: dict[str, list[str]] = {}
    for b in network.buses:
        groups.setdefault(find(b), []).append(b)

    energized = {}
    islands = []
    for members in groups.values():
        on = any(m in sources for m in members)
        for m in members:
            energized[m] = on
        islands.append(tuple(members))

    return OperationalState(
        failed=failed,
        lines_out=frozenset(lines_out),
        gens_out=frozenset(gens_out),
        substations_out=frozenset(subs_out),
        energized=energized,
        islands=tuple(islands),
    )


def de_energized_load(network: Network, failed_ids, t: int) -> float:
    """MW of load sitting in islands with no operational source at hour t."""
    state = energization_state(network, failed_ids)
    p, _ = network.loads_at(t)
    return sum(p[b] for b in network.buses if not state.energized[b])


def _effective_q_ratio(p_load: float, q_load: float) -> float:
    # shed is curtailed at the bus power factor: q_shed tracks p_shed
    return q_load / p_load if p_load > 0 else 0.0


def solve_shedding_lp(
    network: Network, state: OperationalState,
    p_load: dict, q_load: dict,
) -> FlowSolution:
    """Minimum total MW shed subject to LinDistFlow physics.

    One LP over all energized buses (islands decouple through the block
    structure). De-energized buses are excluded: their load is shed in full,
    incident flows are zero, and the voltage is reported as 1.0.

    The all-shed point (every generator at p_min = 0, zero flows, flat
    voltage) is feasible for any network whose generators can idle, so a
    well-formed instance cannot be infeasible; if the solver still reports
    infeasible, InternalError is raised. The simplex starts from a basis at
    that point (see _all_shed_start), so it needs no phase 1.
    """
    sol = FlowSolution(v={}, p_shed={}, q_shed={}, p_line={}, q_line={},
                       p_gen={}, q_gen={}, p_import={}, q_import={})

    for ln in network.lines.values():
        sol.p_line[ln.id] = 0.0
        sol.q_line[ln.id] = 0.0
    for g in network.generators.values():
        sol.p_gen[g.id] = 0.0
        sol.q_gen[g.id] = 0.0

    on_buses = [b for b in network.buses if state.energized[b]]
    for b in network.buses:
        if b not in on_buses:
            sol.v[b] = 1.0
            sol.p_shed[b] = p_load[b]
            sol.q_shed[b] = q_load[b]

    if not on_buses:
        sol.total_shed_mw = sum(p_load.values())
        sol.served_mw = 0.0
        return sol

    on_set = set(on_buses)
    live_lines = [ln for ln in network.lines.values()
                  if ln.id not in state.lines_out and ln.from_bus in on_set]
    live_gens = [g for g in network.generators.values()
                 if g.id not in state.gens_out and g.bus in on_set]
    live_subs = [b for b in network.substation_buses()
                 if b not in state.substations_out and b in on_set]
    import_lim = network.import_limit_mva()

    # column layout
    cols = []  # (name, kind, key, lo, hi, cost)

    def add(kind, key, lo, hi, cost=0.0):
        cols.append((kind, key, float(lo), float(hi), float(cost)))
        return len(cols) - 1

    ix_v = {b: add("v", b, network.buses[b].v_min, network.buses[b].v_max)
            for b in on_buses}
    ix_pl = {ln.id: add("pl", ln.id, -ln.capacity_mva, ln.capacity_mva)
             for ln in live_lines}
    ix_ql = {ln.id: add("ql", ln.id, -ln.capacity_mva, ln.capacity_mva)
             for ln in live_lines}
    ix_pg = {g.id: add("pg", g.id, g.p_min, g.p_max) for g in live_gens}
    ix_qg = {g.id: add("qg", g.id, g.q_min, g.q_max) for g in live_gens}
    ix_ps = {b: add("ps", b, 0.0, import_lim) for b in live_subs}
    ix_qs = {b: add("qs", b, -import_lim, import_lim) for b in live_subs}

    ix_shed = {}
    ix_qshed = {}
    q_ratio = {}
    for b in on_buses:
        if p_load[b] > 0:
            ix_shed[b] = add("shed", b, 0.0, p_load[b], cost=1.0)
            q_ratio[b] = _effective_q_ratio(p_load[b], q_load[b])
        elif q_load[b] != 0:
            lo, hi = min(0.0, q_load[b]), max(0.0, q_load[b])
            ix_qshed[b] = add("qshed", b, lo, hi)

    ncol = len(cols)
    nb = len(on_buses)
    row_of = {b: i for i, b in enumerate(on_buses)}
    # rows: real power balance per bus (gen + import + inflow - outflow +
    # shed = load), reactive balance per bus (q shed rides on p shed at the
    # load's Q/P ratio), then one voltage drop per live line
    # (v_from - v_to = r*p + x*q)
    A = np.zeros((2 * nb + len(live_lines), ncol))
    for k, ln in enumerate(live_lines):
        i, j, r = row_of[ln.from_bus], row_of[ln.to_bus], 2 * nb + k
        A[j, ix_pl[ln.id]] += 1.0
        A[i, ix_pl[ln.id]] -= 1.0
        A[nb + j, ix_ql[ln.id]] += 1.0
        A[nb + i, ix_ql[ln.id]] -= 1.0
        A[r, ix_v[ln.from_bus]] += 1.0
        A[r, ix_v[ln.to_bus]] -= 1.0
        A[r, ix_pl[ln.id]] -= ln.resistance
        A[r, ix_ql[ln.id]] -= ln.reactance
    for g in live_gens:
        A[row_of[g.bus], ix_pg[g.id]] += 1.0
        A[nb + row_of[g.bus], ix_qg[g.id]] += 1.0
    for b in live_subs:
        A[row_of[b], ix_ps[b]] += 1.0
        A[nb + row_of[b], ix_qs[b]] += 1.0
    for b, j in ix_shed.items():
        A[row_of[b], j] += 1.0
        A[nb + row_of[b], j] += q_ratio[b]
    for b, j in ix_qshed.items():
        A[nb + row_of[b], j] += 1.0

    b_vec = np.array([p_load[b] for b in on_buses]
                     + [q_load[b] for b in on_buses] + [0.0] * len(live_lines))
    c = np.array([col[4] for col in cols])
    lo = np.array([col[2] for col in cols])
    hi = np.array([col[3] for col in cols])

    # a bus's sources: (is substation, reactive range, P column, Q column)
    sources = {}
    for b in live_subs:
        sources.setdefault(b, []).append(
            (True, 2.0 * import_lim, ix_ps[b], ix_qs[b]))
    for g in live_gens:
        sources.setdefault(g.bus, []).append(
            (False, g.q_max - g.q_min, ix_pg[g.id], ix_qg[g.id]))
    start = _all_shed_start(network, state, cols, lo, hi, row_of, live_lines,
                            sources, ix_v, ix_pl, ix_ql)
    res = simplex.solve_lp(c, A, b_vec, lo, hi, start=start)
    if res.status != simplex.OPTIMAL:
        raise InternalError(
            f"shedding LP reported {res.status}; the all-shed anchor should "
            f"make this impossible ({A.shape[0]} rows, {ncol} cols)"
        )
    x = res.x

    for b, j in ix_v.items():
        sol.v[b] = float(x[j])
    for lid, j in ix_pl.items():
        sol.p_line[lid] = float(x[j])
    for lid, j in ix_ql.items():
        sol.q_line[lid] = float(x[j])
    for gid, j in ix_pg.items():
        sol.p_gen[gid] = float(x[j])
    for gid, j in ix_qg.items():
        sol.q_gen[gid] = float(x[j])
    for bid, j in ix_ps.items():
        sol.p_import[bid] = float(x[j])
    for bid, j in ix_qs.items():
        sol.q_import[bid] = float(x[j])
    for b in on_buses:
        shed = float(x[ix_shed[b]]) if b in ix_shed else 0.0
        sol.p_shed[b] = shed
        if b in ix_shed:
            sol.q_shed[b] = shed * q_ratio[b]
        elif b in ix_qshed:
            sol.q_shed[b] = float(x[ix_qshed[b]])
        else:
            sol.q_shed[b] = 0.0

    total_load = sum(p_load.values())
    sol.total_shed_mw = float(sum(sol.p_shed.values()))
    sol.served_mw = total_load - sol.total_shed_mw
    return sol


def _all_shed_start(network, state, cols, lo, hi, row_of, live_lines,
                    sources, ix_v, ix_pl, ix_ql):
    """A crash basis at the all-shed point for the shedding LP's columns and
    rows, as (basis, at_upper) for simplex.solve_lp.

    Each energized island is walked as a tree from its source with the
    widest reactive range, a live substation first; its P and Q rows take
    that source's columns. Every other bus's balance rows take its parent
    line's pl and ql, and the line's drop row takes the bus's v. A bus with
    a reactive source whose box holds 0 idles it at 0 instead: that column
    takes the bus's Q row, the parent line's ql its drop row, and the bus's
    v stays at v_max, which must then equal the root's. Nonbasic columns
    shed the whole load, hold generation at p_min and reactive sources at
    their bound nearest 0, and voltages at v_max. None if a row is left
    without a column, as in a meshed island (which the loader refuses).
    """
    def at_upper_bound(kind, lo_, hi_):
        if kind in ("shed", "qshed"):
            return abs(hi_) > abs(lo_)  # the bound that sheds the whole load
        if kind in ("qg", "qs"):
            return abs(hi_) < abs(lo_)  # the bound nearest 0
        return kind == "v"  # pg at p_min, ps at 0

    at_upper = np.array([at_upper_bound(kind, l, h)
                         for kind, _, l, h, _ in cols])
    nb = len(row_of)
    basis = np.full(2 * nb + len(live_lines), -1)
    adj = {b: [] for b in row_of}
    for k, ln in enumerate(live_lines):
        adj[ln.from_bus].append((k, ln, ln.to_bus))
        adj[ln.to_bus].append((k, ln, ln.from_bus))

    for island in state.islands:
        if not state.energized[island[0]]:
            continue
        (_, _, p_col, q_col), root = max(
            ((src, b) for b in island for src in sources.get(b, ())),
            key=lambda pair: pair[0][:2])
        basis[row_of[root]] = p_col
        basis[nb + row_of[root]] = q_col
        v_root = network.buses[root].v_max
        order, seen = [root], {root}
        for u in order:
            for k, ln, w in adj[u]:
                if w in seen:
                    continue
                seen.add(w)
                order.append(w)
                r, drop = row_of[w], 2 * nb + k
                idle = next((q for _, _, _, q in sources.get(w, ())
                             if lo[q] <= 0.0 <= hi[q]), None)
                basis[r] = ix_pl[ln.id]
                if (idle is not None and ln.reactance > 0
                        and network.buses[w].v_max == v_root):
                    basis[nb + r], basis[drop] = idle, ix_ql[ln.id]
                else:
                    basis[nb + r], basis[drop] = ix_ql[ln.id], ix_v[w]
    return (basis, at_upper) if basis.min() >= 0 else None


def shed_at(network: Network, failed_ids, t: int) -> FlowSolution:
    """Convenience wrapper: energization + LP at hour t's loads."""
    state = energization_state(network, failed_ids)
    p, q = network.loads_at(t)
    return solve_shedding_lp(network, state, p, q)


def ens_timeline(
    network: Network, failed_ids, completion_hours: dict,
    horizon: int | None = None,
) -> RestorationTimeline:
    """Hourly shed trajectory while repairs complete.

    A component is back in service from the first whole hour at or after its
    repair completion. Loads are frozen at the peak hour so the curve
    isolates the effect of restoration, not demand swing. Failed
    components absent from completion_hours stay out for the whole horizon.
    Hours with the same failed set as the hour before reuse its shed.
    """
    failed = set(failed_ids)
    missing = failed - set(completion_hours)
    if horizon is None:
        steps = [math.ceil(completion_hours[c]) for c in failed & set(completion_hours)]
        horizon = (max(steps) if steps else 0) + 1
    p_ref, q_ref = network.loads_at(network.peak_hour())
    total = sum(p_ref.values())

    hours, fracs, sheds = [], [], []
    ens = 0.0
    prev_failed = None
    for t in range(horizon):
        still_failed = {c for c in failed
                        if c in missing or math.ceil(completion_hours[c]) > t}
        # loads are frozen, so an unchanged failed set keeps last hour's shed
        if still_failed != prev_failed:
            state = energization_state(network, still_failed)
            shed = solve_shedding_lp(network, state, p_ref,
                                     q_ref).total_shed_mw
            prev_failed = still_failed
        hours.append(t)
        sheds.append(shed)
        fracs.append(1.0 if total <= 0 else (total - shed) / total)
        ens += shed * network.timestep_hours

    return RestorationTimeline(
        hours=hours, served_fraction=fracs, shed_mw=sheds,
        ens_mwh=ens, reference_load_mw=total,
    )


# --- binary triple-product linearization -----------------------------------

@dataclass(frozen=True)
class TripleProductLinearization:
    """Exact MILP encoding of z = u1*u2*u3 over binaries.

    Variables are named; constraints are (coeffs, sense, rhs) with sense in
    {'<=', '>='} and coeffs a name->float map. The pairwise auxiliary z12
    carries u1*u2.
    """

    u1: str
    u2: str
    u3: str
    z12: str
    z: str
    constraints: tuple

    def evaluate(self, u1: int, u2: int, u3: int) -> tuple[int, int]:
        """The unique feasible (z12, z) for a binary assignment of the u's."""
        feasible = []
        for z12 in (0, 1):
            for z in (0, 1):
                point = {self.u1: u1, self.u2: u2, self.u3: u3,
                         self.z12: z12, self.z: z}
                if all(self._holds(con, point) for con in self.constraints):
                    feasible.append((z12, z))
        if len(feasible) != 1:
            raise InternalError(
                f"linearization not tight at u=({u1},{u2},{u3}): {feasible}"
            )
        return feasible[0]

    @staticmethod
    def _holds(con, point, tol=1e-12):
        coeffs, sense, rhs = con
        lhs = sum(c * point[name] for name, c in coeffs.items())
        return lhs <= rhs + tol if sense == "<=" else lhs >= rhs - tol


def linearize_triple_product(
    u1: str = "u1", u2: str = "u2", u3: str = "u3",
    z12: str = "z12", z: str = "z",
) -> TripleProductLinearization:
    """Standard pairwise construction: z12 = u1 AND u2, z = z12 AND u3."""
    cons = (
        ({z12: 1.0, u1: -1.0}, "<=", 0.0),
        ({z12: 1.0, u2: -1.0}, "<=", 0.0),
        ({z12: 1.0, u1: -1.0, u2: -1.0}, ">=", -1.0),
        ({z: 1.0, z12: -1.0}, "<=", 0.0),
        ({z: 1.0, u3: -1.0}, "<=", 0.0),
        ({z: 1.0, z12: -1.0, u3: -1.0}, ">=", -1.0),
    )
    return TripleProductLinearization(u1=u1, u2=u2, u3=u3, z12=z12, z=z,
                                      constraints=cons)
