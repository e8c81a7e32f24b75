"""Post-event operating state: island energization, linearized load-shedding
dispatch, and restoration timelines.

The shedding problem is one LinDistFlow LP over all energized buses, in
which each energized island is a separate block: nodal P/Q balance, linear
voltage drop along lines, box limits on flows, generation, voltages, and
shed. De-energized islands shed everything by construction. Islands come
from `island_labels`, which labels the islands of many failed sets in one
array pass. A study's peak-hour questions (scenario losses, dispatch
curtailment weights, restoration timelines) all go through one `PeakShed`,
which answers a whole batch of failed sets' de-energized load at once.
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


def island_labels(n_buses: int, ends, live) -> np.ndarray:
    """Island labels of k line outage patterns at once. `ends` is an (m, 2)
    array of each line's two bus positions, and row i of the (k, m) bool
    array `live` marks the lines in service in pattern i. Entry [i, b] of
    the (k, n_buses) result is the smallest bus position in bus b's island
    under pattern i, so labels in ascending order list the islands by their
    first bus.

    Min-label hooking with pointer jumping: each round, every live line
    whose two ends carry different labels hooks the larger label (a root)
    onto the smaller one, and every label then jumps to its root. A label
    only falls and always names a bus of its island, so at the fixed point
    each island carries its first bus. The lines need not form a forest.
    """
    k = len(live)
    # a label is a position in the flattened (k, n_buses) array, so one
    # gather jumps every pattern's labels at once
    offset = np.arange(0, k * n_buses, n_buses)[:, None]
    label = np.arange(k * n_buses)
    rows, cols = np.nonzero(live)
    u = ends[cols, 0] + offset[rows, 0]
    v = ends[cols, 1] + offset[rows, 0]
    while True:
        lu, lv = label[u], label[v]
        lo, hi = np.minimum(lu, lv), np.maximum(lu, lv)
        if (lo == hi).all():
            return label.reshape(k, n_buses) - offset
        np.minimum.at(label, hi, lo)
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


class _Grid:
    """A network's buses, lines and sources as index arrays, to answer the
    energization of many failed sets in one island_labels pass."""

    def __init__(self, network: Network):
        self.network = network
        self.buses = list(network.buses)
        at = {b: i for i, b in enumerate(self.buses)}
        self.ends = np.array([(at[ln.from_bus], at[ln.to_bus])
                              for ln in network.lines.values()],
                             dtype=np.intp).reshape(-1, 2)
        self.gen_bus = np.array([at[g.bus]
                                 for g in network.generators.values()],
                                dtype=np.intp)
        self.substation = np.array([b.is_substation
                                    for b in network.buses.values()],
                                   dtype=bool)
        # a failed set marks equipment out in one (k, lines + generators +
        # buses) array; each component's column is its line, generator or
        # substation bus
        m, g = len(self.ends), len(self.gen_bus)
        column = {"line": {lid: i for i, lid in enumerate(network.lines)},
                  "generator": {gid: m + i for i, gid
                                in enumerate(network.generators)},
                  "substation": {b: m + g + i for b, i in at.items()}}
        self.column = {cid: column[c.kind][c.ref]
                       for cid, c in network.components.items()}

    def energized(self, failed_sets):
        """(up, labels, energized) of k failed sets, each a collection of
        component ids (a bare id is refused): a (k, lines +
        generators + buses) array of the equipment in service, and (k,
        n_buses) arrays of each bus's island label (see island_labels) and
        whether its island holds an operational substation or an available
        generator."""
        failed_sets = list(failed_sets)
        if any(isinstance(ids, str) for ids in failed_sets):
            raise ConfigError("expected a sequence of failed sets, got a "
                              "component id where a set belongs")
        try:
            out = [self.column[cid] for ids in failed_sets for cid in ids]
        except KeyError:
            unknown = ({cid for ids in failed_sets for cid in ids}
                       - self.column.keys())
            raise ConfigError(
                f"unknown component ids: {sorted(unknown)}") from None
        k, n = len(failed_sets), len(self.buses)
        m, g = len(self.ends), len(self.gen_bus)
        up = np.ones((k, m + g + n), dtype=bool)
        up[np.repeat(np.arange(k), [len(ids) for ids in failed_sets]),
           out] = False
        labels = island_labels(n, self.ends, up[:, :m])
        fed = np.zeros((k, n), dtype=bool)
        rows, buses = np.nonzero(up[:, m + g:] & self.substation)
        fed[rows, labels[rows, buses]] = True
        rows, gens = np.nonzero(up[:, m:m + g])
        fed[rows, labels[rows, self.gen_bus[gens]]] = True
        return up, labels, fed[np.arange(k)[:, None], labels]

    def energized_parts(self, up, energized) -> list:
        """Each failed set's energized part as a hashable key: its energized
        buses, and its out-of-service lines, generators and substations
        that touch them."""
        touched = np.hstack([energized[:, self.ends[:, 0]]
                             | energized[:, self.ends[:, 1]],
                             energized[:, self.gen_bus], energized])
        return [row.tobytes()
                for row in np.hstack([energized, touched & ~up])]

    def state(self, failed: frozenset, labels, energized) -> OperationalState:
        """The OperationalState of one failed set from its rows of
        `energized`'s labels and energized arrays."""
        comps = self.network.components
        refs = {"line": set(), "generator": set(), "substation": set()}
        for cid in failed:
            refs[comps[cid].kind].add(comps[cid].ref)
        islands = {}
        for b, label in zip(self.buses, labels.tolist()):
            islands.setdefault(label, []).append(b)
        return OperationalState(
            failed=failed,
            lines_out=frozenset(refs["line"]),
            gens_out=frozenset(refs["generator"]),
            substations_out=frozenset(refs["substation"]),
            energized=dict(zip(self.buses, energized.tolist())),
            islands=tuple(tuple(group) for group in islands.values()),
        )


def energization_state(network: Network, failed_ids) -> OperationalState:
    """Resolve island energization from a set of failed component ids.

    A failed line is out of service; a failed generator is unavailable; a
    failed substation keeps its bus as a node but loses grid supply. An
    island is energized iff it contains an operational substation or an
    available generator. Islands are listed by their first bus, each in
    document order. This is island_labels on a batch of one; a PeakShed
    answers a batch of failed sets in one pass.
    """
    grid = _Grid(network)
    failed = frozenset(failed_ids)
    _, labels, energized = grid.energized([failed])
    return grid.state(failed, labels[0], energized[0])


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
    infeasible, InternalError is raised. The simplex starts each energized
    island at its all-served point if that point is feasible, and at the
    all-shed point otherwise (see _crash_basis), so it needs no phase 1,
    and an island that can serve its whole load takes no pivot.
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
    start = _crash_basis(network, state, cols, A, b_vec, lo, hi, row_of,
                         live_lines, sources, ix_v, ix_pl, ix_ql)
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


def _crash_basis(network, state, cols, A, b, lo, hi, row_of, live_lines,
                 sources, ix_v, ix_pl, ix_ql):
    """A crash basis for the shedding LP's columns and rows, as (basis,
    at_upper) for simplex.solve_lp: each energized island starts at its
    all-served point if the LP's rows hold there, and at its all-shed point
    otherwise. The islands' blocks share no row, so each picks on its own.

    Each energized island is walked as a tree from its source with the
    widest reactive range, a live substation first; its P and Q rows take
    that source's columns, and every other bus's balance rows take its
    parent line's pl and ql. Nonbasic generation sits at p_min, reactive
    sources at their bound nearest 0 (the lower on a tie), and voltages at
    v_max.

    - All served: every shed and qshed column sits at its bound nearest 0,
      and each line's drop row takes its child bus's v. The basis is solved
      once against A; an island keeps it if every basic value of its rows
      lies within its box (within the simplex's own tolerance).
    - All shed, for every other island: shed and qshed sit at the bound that
      sheds the whole load. A bus with a reactive source whose box holds 0
      idles it at 0 instead: that column takes the bus's Q row, the parent
      line's ql its drop row, and the bus's v stays at v_max, which must
      then equal the root's. That pins the bus to the root's voltage, which
      is why the all-served start does not idle.

    None if a row is left without a column, as in a meshed island (which
    the loader refuses).
    """
    kinds = np.array([col[0] for col in cols])
    sheds = np.isin(kinds, ("shed", "qshed"))
    nearest_zero = np.abs(hi) < np.abs(lo)
    # v at v_max, pg at p_min and ps at 0 (their lower bounds)
    at_upper = np.where(np.isin(kinds, ("qg", "qs")), nearest_zero,
                        kinds == "v")
    at_upper[sheds] = ~nearest_zero[sheds]  # shed the whole load

    nb = len(row_of)
    served = np.full(len(b), -1)
    basis = np.full(len(b), -1)  # all shed until an island is served
    adj = {bus: [] for bus in row_of}
    for k, ln in enumerate(live_lines):
        adj[ln.from_bus].append((k, ln, ln.to_bus))
        adj[ln.to_bus].append((k, ln, ln.from_bus))

    blocks = []  # (rows, buses) of each energized island
    for island in state.islands:
        if not state.energized[island[0]]:
            continue
        (_, _, p_col, q_col), root = max(
            ((src, bus) for bus in island for src in sources.get(bus, ())),
            key=lambda pair: pair[0][:2])
        rows = [row_of[root], nb + row_of[root]]
        served[rows] = basis[rows] = (p_col, q_col)
        v_root = network.buses[root].v_max
        order, seen = [root], {root}
        for u in order:
            for k, ln, w in adj[u]:
                if w in seen:
                    continue
                seen.add(w)
                order.append(w)
                r, drop = row_of[w], 2 * nb + k
                rows += [r, nb + r, drop]
                served[r] = basis[r] = ix_pl[ln.id]
                served[nb + r], served[drop] = ix_ql[ln.id], ix_v[w]
                idle = next((q for _, _, _, q in sources.get(w, ())
                             if lo[q] <= 0.0 <= hi[q]), None)
                if (idle is not None and ln.reactance > 0
                        and network.buses[w].v_max == v_root):
                    basis[nb + r], basis[drop] = idle, ix_ql[ln.id]
                else:
                    basis[nb + r], basis[drop] = ix_ql[ln.id], ix_v[w]
        blocks.append((rows, island))
    if basis.min() < 0:
        return None

    x = np.where(np.where(sheds, nearest_zero, at_upper), hi, lo)
    x[served] = 0.0
    xb = np.linalg.solve(A[:, served], b - A @ x)
    inside = ((xb >= lo[served] - simplex._TOL)
              & (xb <= hi[served] + simplex._TOL))
    served_buses = set()
    for rows, island in blocks:
        if inside[rows].all():
            basis[rows] = served[rows]
            served_buses.update(island)
    keep = sheds & np.array([key in served_buses for _, key, *_ in cols])
    at_upper[keep] = nearest_zero[keep]
    return basis, at_upper


def shed_at(network: Network, failed_ids, t: int) -> FlowSolution:
    """Convenience wrapper: energization + LP at hour t's loads."""
    state = energization_state(network, failed_ids)
    p, q = network.loads_at(t)
    return solve_shedding_lp(network, state, p, q)


class PeakShed:
    """Peak-hour shed of failed sets on one network, for one study.

    The peak hour's loads and the network's island index arrays are built
    once, and each question takes a batch of failed sets, answered from one
    island_labels pass. The shedding LP at fixed loads reads only the
    energized part of the operating state: the energized buses and the
    out-of-service lines, generators and substations that touch them.
    Failed sets that differ only inside de-energized islands have the same
    part, so each distinct part is solved once; identical inputs give
    identical results, so reuse changes no output. Make one per study: it
    does not see later edits to the network.
    """

    def __init__(self, network: Network):
        self.network = network
        self.p_load, self.q_load = network.loads_at(network.peak_hour())
        self.total_mw = sum(self.p_load.values())
        self._grid = _Grid(network)
        self._p = [self.p_load[b] for b in network.buses]
        self._shed = {}  # energized part -> MW shed

    def de_energized(self, failed_sets) -> list:
        """MW of peak load in islands with no operational source, one entry
        per failed set: a scenario's connectivity loss, and for a
        one-component set that component's dispatch curtailment weight.

        Each entry is sum() of the de-energized buses' loads in document
        order, so a set that de-energizes nothing gives the int 0."""
        _, _, energized = self._grid.energized(failed_sets)
        return [sum(p for p, on in zip(self._p, row) if not on)
                for row in energized.tolist()]

    def __call__(self, failed_sets) -> list:
        """Minimum MW shed at the peak hour, one entry per failed set."""
        failed_sets = list(failed_sets)
        grid = self._grid
        up, labels, energized = grid.energized(failed_sets)
        out = []
        for i, part in enumerate(grid.energized_parts(up, energized)):
            if part not in self._shed:
                state = grid.state(frozenset(failed_sets[i]), labels[i],
                                   energized[i])
                self._shed[part] = solve_shedding_lp(
                    self.network, state, self.p_load,
                    self.q_load).total_shed_mw
            out.append(self._shed[part])
        return out


def ens_timeline(
    network: Network, failed_ids, completion_hours: dict, horizon: int,
    peak_shed: PeakShed,
) -> RestorationTimeline:
    """Hourly shed trajectory over hours 0 .. horizon-1 while repairs
    complete.

    A component is back in service from the first whole hour at or after its
    repair completion. Loads are frozen at the peak hour so the curve
    isolates the effect of restoration, not demand swing. Failed
    components absent from completion_hours stay out for the whole horizon.
    Every hour's shed comes from one batch question to `peak_shed`, so
    timelines that share one solve each distinct energized part once.
    `pipeline.write_restoration` picks the horizon.
    """
    failed = set(failed_ids)
    missing = failed - set(completion_hours)
    total = peak_shed.total_mw

    sheds = peak_shed([{c for c in failed
                        if c in missing or math.ceil(completion_hours[c]) > t}
                       for t in range(horizon)])
    fracs = []
    ens = 0.0
    for shed in sheds:
        fracs.append(1.0 if total <= 0 else (total - shed) / total)
        ens += shed * network.timestep_hours

    return RestorationTimeline(
        hours=list(range(horizon)), served_fraction=fracs, shed_mw=sheds,
        ens_mwh=ens, reference_load_mw=total,
    )


# --- binary triple-product linearization -----------------------------------

@dataclass(frozen=True)
class TripleProductLinearization:
    """Exact MILP encoding of z = u1*u2*u3 over binaries.

    The variables are named `u1`, `u2`, `u3`, `z12` and `z`; constraints
    are (coeffs, sense, rhs) with sense in {'<=', '>='} and coeffs a
    name->float map. The pairwise auxiliary z12 carries u1*u2.
    """

    constraints: tuple

    def evaluate(self, u1: int, u2: int, u3: int) -> tuple[int, int]:
        """The unique feasible (z12, z) for a binary assignment of the u's."""
        feasible = []
        for z12 in (0, 1):
            for z in (0, 1):
                point = {"u1": u1, "u2": u2, "u3": u3, "z12": z12, "z": z}
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


def linearize_triple_product() -> TripleProductLinearization:
    """Standard pairwise construction: z12 = u1 AND u2, z = z12 AND u3."""
    cons = (
        ({"z12": 1.0, "u1": -1.0}, "<=", 0.0),
        ({"z12": 1.0, "u2": -1.0}, "<=", 0.0),
        ({"z12": 1.0, "u1": -1.0, "u2": -1.0}, ">=", -1.0),
        ({"z": 1.0, "z12": -1.0}, "<=", 0.0),
        ({"z": 1.0, "u3": -1.0}, "<=", 0.0),
        ({"z": 1.0, "z12": -1.0, "u3": -1.0}, ">=", -1.0),
    )
    return TripleProductLinearization(constraints=cons)
