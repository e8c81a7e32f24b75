"""Post-event operating state: island energization, linearized load-shedding
dispatch, and restoration timelines.

The shedding problem is a LinDistFlow LP over the energized buses: nodal
P/Q balance, linear voltage drop along lines, box limits on flows,
generation, voltages, and shed. Energized islands share no row and no
column, so each is an LP of its own, cut from arrays of the whole
network's; one whose all-served point passes the simplex's crash-start
test takes one linear solve, and only an island that must shed reaches the
simplex. De-energized islands shed everything by construction. Islands come
from `island_labels`, which labels the islands of many failed sets in one
array pass. A study's peak-hour questions (scenario losses, dispatch
curtailment weights, restoration timelines) all go through one `PeakShed`,
which answers a whole batch of failed sets at once and solves each distinct
energized island once.
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
    energized: dict  # bus -> bool
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

    def islands(self, up, labels, energized) -> list:
        """Each failed set's energized islands, listed by their first bus,
        as (key, member) pairs: `member` marks the island's buses, and
        `key` is a hashable form of everything the island's shedding LP
        reads at fixed loads, its buses and the out-of-service lines,
        generators and substations that touch them."""
        sets, roots = np.nonzero(energized
                                 & (labels == np.arange(len(self.buses))))
        member = labels[sets] == roots[:, None]
        touched = np.hstack([member[:, self.ends[:, 0]]
                             | member[:, self.ends[:, 1]],
                             member[:, self.gen_bus], member])
        keys = np.hstack([member, touched & ~up[sets]])
        out = [[] for _ in range(len(up))]
        for i, key, row in zip(sets.tolist(), keys, member):
            out[i].append((key.tobytes(), row))
        return out

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


class _SheddingLp:
    """The shedding LP of a whole network at fixed loads, as arrays built
    from `grid`'s: every bus, line and source has its columns and rows as
    if energized and in service, and an island's LP is the part it keeps,
    in the same relative order (the simplex's lowest-index tie rule depends
    on it). Columns: v by bus, pl and ql by line, pg and qg by generator, ps
    and qs by substation bus, then shed (P load > 0) or qshed (Q load only)
    by loaded bus. Rows: P balance by bus (gen + import + inflow - outflow
    + shed = load), Q balance by bus (q shed rides on p shed at the load's
    Q/P ratio), then one voltage drop by line (v_from - v_to = r*p + x*q)."""

    def __init__(self, grid: _Grid, p_load, q_load):
        net, self.grid = grid.network, grid
        n, m, g = len(grid.buses), len(grid.ends), len(grid.gen_bus)
        r, x, cap = np.array([(ln.resistance, ln.reactance, ln.capacity_mva)
                              for ln in net.lines.values()]).reshape(-1, 3).T
        box = np.array([(gen.p_min, gen.p_max, gen.q_min, gen.q_max)
                        for gen in net.generators.values()]).reshape(-1, 4)
        v_band = np.array([(b.v_min, b.v_max) for b in net.buses.values()])
        lim = float(net.import_limit_mva())
        subs = np.flatnonzero(grid.substation)
        s = len(subs)
        p, q = np.asarray(p_load, dtype=float), np.asarray(q_load, dtype=float)
        load = np.flatnonzero((p > 0) | (q != 0))
        shed = p[load] > 0  # a shed column, else a qshed one
        self.starts = np.cumsum([0, n, m, m, g, g, s, s, len(load)])
        _, pl, ql, pg, qg, ps, qs, ld = (
            np.arange(a, z) for a, z in zip(self.starts, self.starts[1:]))
        self.shed_bus, self.shed_col = load[shed], ld[shed]
        self.qshed_bus, self.qshed_col = load[~shed], ld[~shed]
        self.ratio = q[self.shed_bus] / p[self.shed_bus]
        fr, to = grid.ends[:, 0], grid.ends[:, 1]
        # a column or row is kept if its bus is in the island and, for a
        # line or a source, that equipment is in service (its `up` entry)
        self.col_bus = np.concatenate([np.arange(n), fr, fr, grid.gen_bus,
                                       grid.gen_bus, subs, subs, load])
        self.col_up = np.concatenate([np.arange(m), np.arange(m),
                                      m + np.arange(g), m + np.arange(g),
                                      m + g + subs, m + g + subs])
        self.row_bus = np.concatenate([np.arange(n), np.arange(n), fr])
        shed_lo = np.where(shed, 0.0, np.minimum(0.0, q[load]))
        shed_hi = np.where(shed, p[load], np.maximum(0.0, q[load]))
        self.lo = np.concatenate([v_band[:, 0], -cap, -cap, box[:, 0],
                                  box[:, 2], np.zeros(s), np.full(s, -lim),
                                  shed_lo])
        self.hi = np.concatenate([v_band[:, 1], cap, cap, box[:, 1], box[:, 3],
                                  np.full(2 * s, lim), shed_hi])
        self.c = np.zeros(len(self.lo))
        self.c[self.shed_col] = 1.0
        self.b = np.concatenate([p, q, np.zeros(m)])
        # each (row, col) pair once, since a line's two ends differ
        drop, one = 2 * n + np.arange(m), np.ones
        self.nz_row = np.concatenate([
            to, fr, n + to, n + fr, drop, drop, drop, drop, grid.gen_bus,
            n + grid.gen_bus, subs, n + subs, self.shed_bus,
            n + self.shed_bus, n + self.qshed_bus])
        self.nz_col = np.concatenate([pl, pl, ql, ql, fr, to, pl, ql, pg, qg,
                                      ps, qs, self.shed_col, self.shed_col,
                                      self.qshed_col])
        self.nz_val = np.concatenate([
            one(m), -one(m), one(m), -one(m), one(m), -one(m), 0.0 - r,
            0.0 - x, one(2 * g + 2 * s + len(self.shed_bus)), 0.0 + self.ratio,
            one(len(self.qshed_bus))])
        # nonbasic start values: v at v_max, pg at p_min and ps at 0 (their
        # lower bounds), reactive sources at their bound nearest 0 (the
        # lower on a tie); shed and qshed at the bound that serves (nearest
        # 0) or at the one that sheds the whole load
        nearest_zero = np.abs(self.hi) < np.abs(self.lo)
        self.served_upper = np.zeros(len(self.lo), dtype=bool)
        self.served_upper[:n] = True
        for cols in (qg, qs, ld):
            self.served_upper[cols] = nearest_zero[cols]
        self.shed_upper = self.served_upper.copy()
        self.shed_upper[ld] = ~nearest_zero[ld]
        self.sources = np.concatenate([pg, ps])  # hi is each one's P limit
        # the crash walk's tables: each bus's (line, other end) pairs in line
        # order, and the lines' reactance, the buses' v_max and the sources'
        # buses and reactive boxes
        self.adj = [[] for _ in range(n)]
        for k, (a, z) in enumerate(grid.ends.tolist()):
            self.adj[a].append((k, z))
            self.adj[z].append((k, a))
        self.reactive, self.v_max = (x > 0).tolist(), v_band[:, 1].tolist()
        self.gen_at, self.sub_at = grid.gen_bus.tolist(), subs.tolist()
        self.q_range = (box[:, 3] - box[:, 2]).tolist()
        self.gen_idles = ((box[:, 2] <= 0.0) & (0.0 <= box[:, 3])).tolist()

    def p_shed(self, x) -> np.ndarray:
        """Each bus's MW shed at the point x over this LP's columns."""
        shed = np.zeros(len(self.v_max))
        shed[self.shed_bus] = x[self.shed_col]
        return shed


def solve_shedding_lp(lp: _SheddingLp, up, member) -> np.ndarray:
    """Minimum MW shed of one energized island, whose buses `member` marks,
    under LinDistFlow physics; `up` is the failed set's row of equipment in
    service from `_Grid.energized`. Returns the optimal point over all of
    `lp`'s columns, 0 in every column the island does not keep.

    If the island's all-served point (see _crash_basis) passes the
    crash-start test of simplex.solve_lp, it is optimal: every basic column
    there costs 0, so every reduced cost is its cost, >= 0. Such an island
    takes one linear solve and sheds exactly 0; one whose sources cannot
    supply its P load skips the test, which it would fail. Any other island
    goes to simplex.solve_lp from its all-shed point, feasible whenever its
    generators can idle; if the solver says otherwise, a ConfigError names
    the island's generators that cannot, else it is an InternalError.
    """
    n, m = len(member), len(lp.grid.ends)
    keep = member[lp.col_bus]
    keep[n:lp.starts[7]] &= up[lp.col_up]
    rows = member[lp.row_bus]
    rows[2 * n:] &= up[:m]
    at = np.cumsum(keep) - 1  # each kept column's place in the island
    row_at = np.cumsum(rows) - 1
    nz = keep[lp.nz_col] & rows[lp.nz_row]
    A = np.zeros((row_at[-1] + 1, at[-1] + 1))
    A[row_at[lp.nz_row[nz]], at[lp.nz_col[nz]]] = lp.nz_val[nz]
    c, lo, hi, b = lp.c[keep], lp.lo[keep], lp.hi[keep], lp.b[rows]

    crash = _crash_basis(lp, up, keep, len(b))
    x = None
    if crash is not None:
        crash_rows, served_at, basis_at = (np.array(a) for a in crash)
        crash_rows = row_at[crash_rows]
        served, basis = np.empty((2, len(b)), dtype=np.intp)
        served[crash_rows], basis[crash_rows] = at[served_at], at[basis_at]
        # serving every load puts the root source at the island's P load
        # less the other sources' minimum, beyond its box if the load
        # exceeds all its sources' maxima; the margin dwarfs the rounding
        load = b[:row_at[n - 1] + 1].sum()
        supply = lp.hi[lp.sources][keep[lp.sources]].sum()
        if load <= supply + 1e-6 * max(1.0, load):
            x = _served_point(A, b, lo, hi, served, lp.served_upper[keep])
    if x is None:
        res = simplex.solve_lp(
            c, A, b, lo, hi,
            start=None if crash is None else (basis, lp.shed_upper[keep]))
        if res.status != simplex.OPTIMAL:
            gens = zip(lp.grid.network.generators.values(),
                       keep[lp.starts[3]:lp.starts[4]])  # their pg columns
            must_run = [g.id for g, on in gens
                        if on and (g.p_min > 0 or not g.q_min <= 0 <= g.q_max)]
            if must_run:
                buses = [lp.grid.buses[i] for i in np.flatnonzero(member)]
                raise ConfigError(f"island of buses {buses} cannot take the "
                                  f"minimum output of generators {must_run}")
            raise InternalError(
                f"shedding LP reported {res.status}; the all-shed anchor "
                f"should make this impossible ({A.shape[0]} rows, "
                f"{A.shape[1]} cols)")
        x = res.x
    point = np.zeros(len(keep))
    point[keep] = x
    return point


def _served_point(A, b, lo, hi, served, at_upper):
    """The point of the crash basis `served` with the nonbasic columns at
    their upper bound where `at_upper`, else at their lower: one linear
    solve. None unless it passes the crash-start test of simplex.solve_lp."""
    x = np.where(at_upper, hi, lo)
    x[served] = 0.0
    B = A[:, served]
    rhs = b - A @ x
    try:
        xb = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        return None
    if not simplex.feasible_start(B, xb, rhs, lo[served], hi[served]):
        return None
    x[served] = xb
    return x


def _crash_basis(lp: _SheddingLp, up, keep, n_rows):
    """Two crash bases for one island's shedding LP, as (rows, served,
    all_shed): `lp`'s index of each of the island's rows and of its basic
    column at the all-served and at the all-shed point; None if a row is
    left without a column, as in a meshed island (the loader refuses one).

    The island is walked as a tree from its source with the widest
    reactive range, a live substation first (ties go to the first in bus
    order); its P and Q rows take that source's columns, and every other
    bus's balance rows its parent line's pl and ql. All served, each
    line's drop row takes its child bus's v. All shed, a bus with a
    reactive source whose box holds 0 idles it there instead: that column
    takes the bus's Q row and the parent line's ql its drop row, which pins
    the bus's v (at v_max) to the root's, so only a bus whose v_max equals
    the root's idles.
    """
    n, m = len(lp.v_max), len(lp.reactive)
    _, pl, ql, pg, qg, ps, qs, _, _ = lp.starts.tolist()
    subs = np.flatnonzero(keep[ps:qs]).tolist()
    gens = np.flatnonzero(keep[pg:qg]).tolist()
    if subs:
        root, p_root, q_root = lp.sub_at[subs[0]], ps + subs[0], qs + subs[0]
    else:
        j = min(gens, key=lambda j: (-lp.q_range[j], lp.gen_at[j], j))
        root, p_root, q_root = lp.gen_at[j], pg + j, qg + j
    idle = {}
    for j in gens:
        if lp.gen_idles[j]:
            idle.setdefault(lp.gen_at[j], qg + j)
    for t in subs:
        idle[lp.sub_at[t]] = qs + t

    live = up[:m].tolist()
    rows, served, basis = [root, n + root], [p_root, q_root], [p_root, q_root]
    v_root = lp.v_max[root]
    order, seen = [root], {root}
    for u in order:
        for k, w in lp.adj[u]:
            if not live[k] or w in seen:
                continue
            seen.add(w)
            order.append(w)
            rows += [w, n + w, 2 * n + k]
            served += [pl + k, ql + k, w]
            q = idle.get(w)
            if q is not None and lp.reactive[k] and lp.v_max[w] == v_root:
                basis += [pl + k, q, ql + k]
            else:
                basis += [pl + k, ql + k, w]
    if len(rows) < n_rows:
        return None
    return rows, served, basis


def _total_shed(p_load: list, shed, energized) -> float:
    """A failed set's MW shed: the de-energized buses' whole load, then each
    energized bus's shed, each in document order, summed with Python's
    sum()."""
    on = energized.tolist()
    return float(sum([p for p, live in zip(p_load, on) if not live]
                     + shed[energized].tolist()))


def shed_at(network: Network, failed_ids, t: int) -> FlowSolution:
    """Energization and the minimum-shed operating point at hour t's loads,
    from one _Grid and one shedding LP per energized island. De-energized
    buses shed their whole load, their incident flows are zero, and their
    voltage is reported as 1.0."""
    grid = _Grid(network)
    p_load, q_load = network.loads_at(t)
    up, labels, energized = grid.energized([frozenset(failed_ids)])
    lp = _SheddingLp(grid, list(p_load.values()), list(q_load.values()))
    # the islands' points are 0 outside their own columns
    x = sum((solve_shedding_lp(lp, up[0], member)
             for _, member in grid.islands(up, labels, energized)[0]),
            np.zeros(len(lp.c)))
    on, names = energized[0], grid.buses
    p_shed, q_shed = lp.p_shed(x), np.zeros(len(names))
    q_shed[lp.shed_bus] = x[lp.shed_col] * lp.ratio
    q_shed[lp.qshed_bus] = x[lp.qshed_col]
    pl = x[lp.starts[1]:lp.starts[2]].tolist()
    dead, live = np.flatnonzero(~on).tolist(), np.flatnonzero(on).tolist()
    total = _total_shed(list(p_load.values()), p_shed, on)

    def by_bus(dead_value, values):  # the de-energized buses first
        return ({names[i]: dead_value(names[i]) for i in dead}
                | {names[i]: float(values[i]) for i in live})
    return FlowSolution(
        v=by_bus(lambda b: 1.0, x), p_shed=by_bus(p_load.get, p_shed),
        q_shed=by_bus(q_load.get, q_shed),
        p_line=dict(zip(network.lines, pl)),
        energized=dict(zip(names, on.tolist())),
        total_shed_mw=total,
        served_mw=float(sum(p_load.values()) - total),
    )


class PeakShed:
    """Peak-hour shed of failed sets on one network, for one study.

    The peak hour's loads and the network's arrays are built once, and each
    question takes a batch of failed sets, answered from one island_labels
    pass. Each energized island is solved alone (see solve_shedding_lp),
    and its per-bus shed cached by its key: its buses and the
    out-of-service lines, generators and substations that touch them, all
    its LP reads. A repair that re-energizes one subtree re-solves only the
    island it changed, and failures inside a de-energized island cost no
    LP. A set's total is summed as shed_at sums it, so the two agree bit
    for bit. Make one per study: it does not see later edits to the network.
    """

    def __init__(self, network: Network):
        self.network = network
        self.p_load, self.q_load = network.loads_at(network.peak_hour())
        self.total_mw = sum(self.p_load.values())
        self._grid = _Grid(network)
        self._p = [self.p_load[b] for b in network.buses]
        self._lp = _SheddingLp(self._grid, self._p,
                               [self.q_load[b] for b in network.buses])
        self._shed = {}  # island key -> MW shed of each of its buses

    def de_energized(self, failed_sets) -> list:
        """MW of peak load in islands with no operational source, one entry
        per failed set: a scenario's connectivity loss, and for a
        one-component set that component's dispatch curtailment weight.

        Each entry is the float sum() of the de-energized buses' loads in
        document order."""
        _, _, energized = self._grid.energized(failed_sets)
        return [float(sum(p for p, on in zip(self._p, row) if not on))
                for row in energized.tolist()]

    def __call__(self, failed_sets) -> list:
        """Minimum MW shed at the peak hour, one entry per failed set."""
        grid = self._grid
        up, labels, energized = grid.energized(failed_sets)
        out = []
        for row, on, islands in zip(up, energized,
                                    grid.islands(up, labels, energized)):
            shed = np.zeros(len(self._p))
            for key, member in islands:
                if key not in self._shed:
                    self._shed[key] = self._lp.p_shed(solve_shedding_lp(
                        self._lp, row, member))[member]
                shed[member] = self._shed[key]
            out.append(_total_shed(self._p, shed, on))
        return out


def ens_timeline(
    failed_ids, completion_hours: dict, horizon: int, peak_shed: PeakShed,
) -> RestorationTimeline:
    """Hourly shed trajectory over hours 0 .. horizon-1 while repairs
    complete.

    A component is back in service from the first whole hour at or after its
    repair completion. Loads are frozen at the peak hour so the curve
    isolates the effect of restoration, not demand swing. Failed
    components absent from completion_hours stay out for the whole horizon.
    Every hour's shed comes from one batch question to `peak_shed`, so
    timelines that share one solve each distinct energized island once.
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
    for shed in sheds:  # each an hour's MW, so its MWh
        fracs.append(1.0 if total <= 0 else (total - shed) / total)
        ens += shed

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
