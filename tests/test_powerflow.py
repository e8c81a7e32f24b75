"""Shedding LP and energization tests.

The LP oracle is an exhaustive lattice grid search. The random test
networks keep loads, line capacities, generator limits, and the import
limit on a common 0.1 MW lattice with voltage slack so wide it never
binds; the binding structure (nested subtree sums) is totally unimodular,
so the continuous optimum is attained on the lattice and grid search is
exact.
"""

import itertools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gridquake.powerflow as powerflow
import gridquake.simplex as simplex
from gridquake.errors import ConfigError, InternalError
from gridquake.fixtures import builtin_feeder, random_radial_network
from gridquake.model import (Component, FragilityCurve, Line, LoadProfile,
                             load_network, network_to_document)
from gridquake.powerflow import (PeakShed, TripleProductLinearization,
                                 energization_state, ens_timeline,
                                 linearize_triple_product, shed_at)
from test_simplex import (assert_matches_highs, reference, shedding_lps,
                          whole_shedding_lp)


def brute_force_min_shed(net, t=0, step=0.1):
    """Exhaustive minimum shed over the lattice; unity power factor only."""
    p_load, _ = net.loads_at(t)
    root = net.substation_buses()[0]
    # orient the tree away from the root
    children = {b: [] for b in net.buses}
    parent_line = {}
    adj = {b: [] for b in net.buses}
    for ln in net.lines.values():
        adj[ln.from_bus].append((ln.to_bus, ln))
        adj[ln.to_bus].append((ln.from_bus, ln))
    seen = {root}
    frontier = [root]
    while frontier:
        b = frontier.pop()
        for nb, ln in adj[b]:
            if nb in seen:
                continue
            seen.add(nb)
            children[b].append(nb)
            parent_line[nb] = ln
            frontier.append(nb)
    assert seen == set(net.buses), "oracle expects a single connected tree"

    order = list(net.buses)
    idx = {b: i for i, b in enumerate(order)}
    # subtree membership per line: buses at or below the line's far end
    def subtree(b):
        out = [b]
        for c in children[b]:
            out.extend(subtree(c))
        return out

    lines = list(net.lines.values())
    sub = np.zeros((len(order), len(lines)))
    for j, ln in enumerate(lines):
        far = ln.to_bus if parent_line.get(ln.to_bus) is ln else ln.from_bus
        for b in subtree(far):
            sub[idx[b], j] = 1.0

    # path drop matrix: drop at bus b = sum over lines above b of r_l * f_l
    path = np.zeros((len(order), len(lines)))
    for i, b in enumerate(order):
        cur = b
        while cur != root:
            ln = parent_line[cur]
            path[i, lines.index(ln)] = 1.0
            cur = ln.from_bus if parent_line.get(ln.to_bus) is ln else ln.to_bus

    load_buses = [b for b in order if p_load[b] > 0]
    gens = list(net.generators.values())
    served_levels = [np.arange(0, round(p_load[b] / step) + 1) * step
                     for b in load_buses]
    gen_levels = [np.arange(0, round(g.p_max / step) + 1) * step for g in gens]

    grids = np.meshgrid(*(served_levels + gen_levels), indexing="ij")
    cols = [g.reshape(-1) for g in grids]
    n_rows = cols[0].size if cols else 1
    inj = np.zeros((n_rows, len(order)))
    for b, lv in zip(load_buses, cols[:len(load_buses)]):
        inj[:, idx[b]] -= lv  # serving load draws power
    for g, lv in zip(gens, cols[len(load_buses):]):
        inj[:, idx[g.bus]] += lv

    flows = -inj @ sub  # toward the leaves
    caps = np.array([ln.capacity_mva for ln in lines])
    ok = np.all(np.abs(flows) <= caps + 1e-9, axis=1)

    p_import = -inj.sum(axis=1)
    ok &= (p_import >= -1e-9) & (p_import <= net.import_limit_mva() + 1e-9)

    drops = flows @ (path * np.array([ln.resistance for ln in lines])).T
    v_lo = np.array([net.buses[b].v_min for b in order])
    v_hi = np.array([net.buses[b].v_max for b in order])
    ok &= (np.max(v_lo + drops, axis=1) <= np.min(v_hi + drops, axis=1) + 1e-12)

    total_load = sum(p_load[b] for b in load_buses)
    served = np.zeros(n_rows)
    for lv in cols[:len(load_buses)]:
        served += lv
    served = np.where(ok, served, -np.inf)
    return total_load - served.max()


def test_lp_matches_grid_oracle_on_random_networks():
    for seed in range(12):
        net = random_radial_network(seed, n_buses=6, max_load_steps=6)
        flow = shed_at(net, [], 0)
        want = brute_force_min_shed(net)
        assert flow.total_shed_mw == pytest.approx(want, abs=1e-6), seed


def test_lp_sheds_nothing_when_capacity_suffices():
    net = builtin_feeder()
    flow = shed_at(net, [], net.peak_hour())
    assert flow.total_shed_mw == pytest.approx(0.0, abs=1e-8)
    p, _ = net.loads_at(net.peak_hour())
    assert flow.served_mw == pytest.approx(sum(p.values()), abs=1e-8)


def test_line_capacity_forces_shedding():
    doc = {
        "buses": [
            {"id": "b1", "x": 0, "y": 0, "is_substation": True},
            {"id": "b2", "x": 1, "y": 0, "load_profile": "p1"},
        ],
        "lines": [{"id": "l1", "from_bus": "b1", "to_bus": "b2",
                   "resistance": 0.001, "reactance": 0.001,
                   "capacity_mva": 1.0}],
        "generators": [], "depots": [{"id": "d1", "x": 0, "y": 0}],
        "components": [], "profiles": [{"id": "p1", "p_mw": [3.0]}],
    }
    net = load_network(doc)
    flow = shed_at(net, [], 0)
    assert flow.total_shed_mw == pytest.approx(2.0, abs=1e-6)
    assert abs(flow.p_line["l1"]) <= 1.0 + 1e-7


def test_voltage_band_forces_shedding():
    # r = 0.1 per MW across the band of 0.05: at most 0.5 MW can flow
    doc = {
        "buses": [
            {"id": "b1", "x": 0, "y": 0, "is_substation": True,
             "v_min": 0.95, "v_max": 1.0},
            {"id": "b2", "x": 1, "y": 0, "load_profile": "p1",
             "v_min": 0.95, "v_max": 1.0},
        ],
        "lines": [{"id": "l1", "from_bus": "b1", "to_bus": "b2",
                   "resistance": 0.1, "reactance": 0.0,
                   "capacity_mva": 10.0}],
        "generators": [], "depots": [{"id": "d1", "x": 0, "y": 0}],
        "components": [], "profiles": [{"id": "p1", "p_mw": [2.0]}],
    }
    net = load_network(doc)
    flow = shed_at(net, [], 0)
    assert flow.total_shed_mw == pytest.approx(1.5, abs=1e-6)
    assert flow.v["b1"] == pytest.approx(1.0, abs=1e-7)
    assert flow.v["b2"] == pytest.approx(0.95, abs=1e-7)


def test_reactive_shed_follows_active_ratio():
    doc = {
        "buses": [
            {"id": "b1", "x": 0, "y": 0, "is_substation": True},
            {"id": "b2", "x": 1, "y": 0, "load_profile": "p1",
             "power_factor_angle": 0.4},
        ],
        "lines": [{"id": "l1", "from_bus": "b1", "to_bus": "b2",
                   "resistance": 0.001, "reactance": 0.001,
                   "capacity_mva": 1.0}],
        "generators": [], "depots": [{"id": "d1", "x": 0, "y": 0}],
        "components": [], "profiles": [{"id": "p1", "p_mw": [3.0]}],
    }
    net = load_network(doc)
    flow = shed_at(net, [], 0)
    assert flow.q_shed["b2"] == pytest.approx(
        flow.p_shed["b2"] * math.tan(0.4), rel=1e-6)


def test_energization_islands_and_sources():
    net = builtin_feeder()
    # l2 (b2-b3) out: b3..b5 keep g1; they stay energized
    st = energization_state(net, ["c_l2"])
    assert st.energized["b3"] and st.energized["b4"] and st.energized["b5"]
    # l3 (b3-b4) out as well: b3 alone has no source
    st2 = energization_state(net, ["c_l2", "c_l3"])
    assert not st2.energized["b3"]
    assert st2.energized["b4"] and st2.energized["b5"]


def test_energized_is_keyed_in_document_order():
    # c_l1 splits the feeder into b1, b6-b12 and b2-b5, b13
    net = builtin_feeder()
    state = energization_state(net, ["c_l1"])
    assert list(state.energized) == list(net.buses)


def test_failed_substation_without_generators_blacks_out():
    net = builtin_feeder()
    st = energization_state(net, ["c_sub", "c_g1", "c_g2"])
    assert not any(st.energized.values())
    flow = shed_at(net, ["c_sub", "c_g1", "c_g2"], net.peak_hour())
    p, _ = net.loads_at(net.peak_hour())
    assert flow.total_shed_mw == pytest.approx(sum(p.values()), abs=1e-8)


def test_failed_generator_counts_as_lost_source():
    net = builtin_feeder()
    st = energization_state(net, ["c_l4", "c_g1"])  # island b5 loses g1
    assert not st.energized["b5"]


def test_unknown_failed_id_raises():
    net = builtin_feeder()
    with pytest.raises(ConfigError):
        energization_state(net, ["nope"])


def test_peak_shed_refuses_a_bare_id_for_a_failed_set():
    peak_shed = PeakShed(builtin_feeder())
    for ask in (peak_shed, peak_shed.de_energized):
        with pytest.raises(ConfigError, match="sequence of failed sets"):
            ask({"c_l1"})
        with pytest.raises(ConfigError, match="sequence of failed sets"):
            ask("c_l1")


@pytest.mark.parametrize("gen", [{"p_min": 1.0}, {"q_min": 0.5}],
                         ids=["p_min", "q_min"])
def test_peak_shed_refuses_a_generator_that_cannot_idle(gen):
    """g1 alone on b5 (0.8 MW, no reactive load at peak) cannot run at
    p_min 1 MW or give a 0.5 MVAr minimum: the document's doing, so a
    ConfigError, not the InternalError of a broken invariant."""
    net = builtin_feeder()
    net.generators["g1"] = replace(net.generators["g1"], **gen)
    with pytest.raises(ConfigError, match=re.escape(
            "island of buses ['b5'] cannot take the minimum output of "
            "generators ['g1']")):
        PeakShed(net)([{"c_l4"}])
    # an island that holds g1's minimum solves, and so does a p_min that
    # b5's own load absorbs
    assert PeakShed(net)([{"c_l1"}, set()]) == pytest.approx(
        PeakShed(builtin_feeder())([{"c_l1"}, set()]))
    net.generators["g1"] = replace(net.generators["g1"], p_min=0.5, q_min=0)
    assert PeakShed(net)([{"c_l4"}]) == [0.0]


def meshed_network(seed, n_buses):
    """A random radial network built directly (the loader refuses cycles)
    with extra lines that close cycles, a second substation, and int loads
    (whole MW) on every other bus."""
    net = random_radial_network(seed, n_buses=n_buses)
    rng = np.random.default_rng(seed)
    ids = list(net.buses)
    lines, comps = dict(net.lines), dict(net.components)
    for k in range(int(rng.integers(1, n_buses + 1))):
        a, b = rng.choice(n_buses, size=2, replace=False)
        ln = Line(id=f"m{k}", from_bus=ids[a], to_bus=ids[b],
                  resistance=0.01, reactance=0.01, capacity_mva=1.0)
        lines[ln.id] = ln
        comps[f"c_{ln.id}"] = Component(
            id=f"c_{ln.id}", kind="line", ref=ln.id,
            fragility=FragilityCurve(0.3, 0.7), repair_hours=1.0)
    buses, profiles = dict(net.buses), dict(net.profiles)
    for b in ids[::2]:
        profiles[f"w{b}"] = LoadProfile(id=f"w{b}",
                                        p_mw=(int(rng.integers(0, 4)),))
        buses[b] = replace(buses[b], load_profile=f"w{b}")
    last = ids[-1]
    buses[last] = replace(buses[last], is_substation=True)
    comps["c_sub2"] = Component(id="c_sub2", kind="substation", ref=last,
                                fragility=FragilityCurve(0.5, 0.5),
                                repair_hours=2.0)
    return replace(net, buses=buses, lines=lines, components=comps,
                   profiles=profiles)


@st.composite
def failed_sets(draw):
    """The built-in feeder, a random radial one or a meshed one, and a
    batch of failed sets: random ones (ids may repeat), the empty set,
    every component, and the substation alone."""
    kind = draw(st.sampled_from(("builtin", "radial", "meshed")))
    if kind == "builtin":
        net = builtin_feeder()
    else:
        build = random_radial_network if kind == "radial" else meshed_network
        net = build(draw(st.integers(0, 10_000)),
                    n_buses=draw(st.integers(2, 12)))
    ids = sorted(net.components)
    drawn = draw(st.lists(st.lists(st.sampled_from(ids)), max_size=6))
    return net, drawn + [[], ids, ["c_sub"]]


def bfs_islands(net, failed):
    """Connected bus groups over the lines in service, each in document
    order, by breadth-first search; and the buses reachable from a source
    in service."""
    out = {(net.components[c].kind, net.components[c].ref) for c in failed}
    adj = {b: [] for b in net.buses}
    for ln in net.lines.values():
        if ("line", ln.id) not in out:
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)

    def reach(starts):
        seen, queue = set(starts), list(starts)
        for u in queue:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    groups, grouped = [], set()
    for b in net.buses:
        if b not in grouped:
            members = reach([b])
            grouped |= members
            groups.append(tuple(m for m in net.buses if m in members))
    live = reach([b for b in net.substation_buses()
                  if ("substation", b) not in out]
                 + [g.bus for g in net.generators.values()
                    if ("generator", g.id) not in out])
    return tuple(groups), live


@settings(max_examples=60, deadline=None)
@given(failed_sets())
def test_energization_matches_reachability_from_live_sources(case):
    net, sets = case
    peak_shed = PeakShed(net)
    dead_load = peak_shed.de_energized(sets)
    assert len(dead_load) == len(sets)
    for failed, got in zip(sets, dead_load):
        state = energization_state(net, failed)
        islands, live = bfs_islands(net, failed)
        assert state.energized == {b: b in live for b in net.buses}
        assert state.islands == islands
        want = float(sum(peak_shed.p_load[b] for b in net.buses
                         if b not in live))
        assert type(got) is float and got.hex() == want.hex()


def test_de_energized_load_is_monotone_in_failures():
    peak_shed = PeakShed(builtin_feeder())
    singles, more = peak_shed.de_energized([["c_l2"], ["c_l2", "c_g1"]])
    assert more >= singles - 1e-12


def test_all_shed_anchor_feasible_over_random_states():
    rng = np.random.default_rng(123)
    for trial in range(150):
        net = random_radial_network(int(rng.integers(0, 10_000)),
                                    n_buses=int(rng.integers(2, 7)))
        comp_ids = list(net.components)
        k = int(rng.integers(0, len(comp_ids) + 1))
        failed = (list(rng.choice(comp_ids, size=k, replace=False))
                  if k else [])
        flow = shed_at(net, failed, 0)  # raises InternalError on infeasible
        p, _ = net.loads_at(0)
        total = sum(p.values())
        assert -1e-7 <= flow.total_shed_mw <= total + 1e-7
        assert flow.served_mw + flow.total_shed_mw == pytest.approx(
            total, abs=1e-6)


def test_ens_timeline_hand_case():
    # one component out for 1.5 h on a two-bus net: load 2 MW, nothing else
    doc = {
        "buses": [
            {"id": "b1", "x": 0, "y": 0, "is_substation": True},
            {"id": "b2", "x": 1, "y": 0, "load_profile": "p1"},
        ],
        "lines": [{"id": "l1", "from_bus": "b1", "to_bus": "b2",
                   "resistance": 0.001, "reactance": 0.001,
                   "capacity_mva": 5.0}],
        "generators": [], "depots": [{"id": "d1", "x": 0, "y": 0}],
        "components": [{"id": "c1", "kind": "line", "ref": "l1"}],
        "profiles": [{"id": "p1", "p_mw": [2.0]}],
    }
    net = load_network(doc)
    tl = ens_timeline(["c1"], {"c1": 1.5}, horizon=4,
                      peak_shed=PeakShed(net))
    # out for hours 0 and 1, back at hour 2 (first whole hour >= 1.5)
    assert tl.served_fraction == pytest.approx([0.0, 0.0, 1.0, 1.0])
    assert tl.ens_mwh == pytest.approx(4.0)
    assert tl.reference_load_mw == pytest.approx(2.0)


def test_ens_timeline_terminates_at_full_service():
    net = builtin_feeder()
    failed = ["c_l1", "c_g1"]
    # one hour past the last repair
    tl = ens_timeline(failed, {"c_l1": 2.2, "c_g1": 5.0}, horizon=6,
                      peak_shed=PeakShed(net))
    assert tl.served_fraction[-1] == pytest.approx(1.0, abs=1e-9)
    diffs = np.diff(tl.served_fraction)
    assert np.all(diffs >= -1e-9)


def touches(net, cid, island):
    """Whether component `cid`'s equipment touches the set of buses
    `island`."""
    c = net.components[cid]
    if c.kind == "line":
        ln = net.lines[c.ref]
        return bool({ln.from_bus, ln.to_bus} & island)
    if c.kind == "generator":
        return net.generators[c.ref].bus in island
    return c.ref in island


def energized_islands(net, failed):
    """Each energized island of a failed set as (its bus ids in document
    order, the failed components that touch it), from energization_state."""
    state = energization_state(net, failed)
    return [(island, frozenset(c for c in failed
                               if touches(net, c, set(island))))
            for island in state.islands if state.energized[island[0]]]


def spy_island_solves(monkeypatch):
    """The islands that solve_shedding_lp is asked to solve, in call order,
    each keyed as energized_islands keys it."""
    solved = []
    solve = powerflow.solve_shedding_lp

    def spying(lp, up, member):
        grid = lp.grid
        island = tuple(b for b, on in zip(grid.buses, member) if on)
        out = {cid for cid, col in grid.column.items() if not up[col]}
        solved.append((island, frozenset(
            c for c in out if touches(grid.network, c, set(island)))))
        return solve(lp, up, member)

    monkeypatch.setattr(powerflow, "solve_shedding_lp", spying)
    return solved


def test_ens_timeline_solves_once_per_distinct_consecutive_state(monkeypatch):
    net = builtin_feeder()
    hours = {"c_l1": 2.2, "c_g1": 5.0, "c_l3": 5.0, "c_l5": 0.5}
    failed = sorted(hours) + ["c_l7"]  # c_l7 never repaired
    horizon = 9

    # the reference: energization and an LP on every hour
    expect = oracle_timeline(net, failed, hours, horizon)
    islands = []
    for t in range(horizon):
        still = {c for c in failed
                 if c not in hours or math.ceil(hours[c]) > t}
        islands += [key for key in energized_islands(net, still)
                    if key not in islands]
    assert len(islands) < 2 * horizon  # the case must repeat an island

    solved = spy_island_solves(monkeypatch)
    tl = ens_timeline(failed, hours, horizon=horizon,
                      peak_shed=PeakShed(net))
    assert solved == islands
    assert tl == expect


def restorable_radial(seed, n_buses):
    """A random radial feeder whose lines carry the whole peak load, so
    that with everything repaired nothing is shed."""
    doc = network_to_document(random_radial_network(seed, n_buses=n_buses))
    for line in doc["lines"]:
        line["capacity_mva"] = 100.0
    return load_network(doc)


@pytest.mark.parametrize("net", [builtin_feeder()] + [
    restorable_radial(seed, 30) for seed in range(5)],
    ids=["builtin"] + [f"radial30-seed{seed}" for seed in range(5)])
def test_servable_feeder_starts_at_its_optimum(net):
    # every island can serve its whole load from its crash start, so it
    # exits there: no simplex call, and no shed but exact zeros
    assert shedding_lps(net, []) == []
    flow = shed_at(net, [], 0)
    assert all(flow.p_shed[b] == 0.0 for b in net.buses)


def island_solves(net, failed):
    """shed_at's FlowSolution at hour 0, and each island it solves as (its
    bus ids, [(args, kwargs, result) of each solve_lp call made for it])."""
    solves = []
    solve_island, solve_lp = powerflow.solve_shedding_lp, simplex.solve_lp

    def island(lp, up, member):
        solves.append((tuple(b for b, on in zip(lp.grid.buses, member)
                             if on), []))
        return solve_island(lp, up, member)

    def lp(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        solves[-1][1].append((args, kwargs, res))
        return res

    with mock.patch.object(powerflow, "solve_shedding_lp", island), \
            mock.patch.object(simplex, "solve_lp", lp):
        flow = shed_at(net, failed, 0)
    return flow, solves


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_buses=st.integers(2, 60),
       fail_fractions=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=3))
def test_mixed_served_and_shed_islands_match_highs(seed, n_buses,
                                                   fail_fractions):
    # failures cut generator islands off the substation; those whose
    # generators cannot carry their load start all shed, the rest exit at
    # their all-served start
    net = restorable_radial(seed, n_buses)
    assume(net.generators)
    ids = sorted(net.components)
    rng = np.random.default_rng(seed)
    sets = [list(rng.choice(ids, size=int(f * len(ids)), replace=False))
            for f in fail_fractions]
    peak_shed = PeakShed(net)  # hour 0 is the peak of a flat profile
    assert net.peak_hour() == 0
    for failed, cached in zip(sets, peak_shed(sets)):
        flow, solves = island_solves(net, failed)
        assert cached.hex() == flow.total_shed_mw.hex()
        # one summation order: the de-energized buses' loads, then the
        # energized buses' shed, each in document order
        dead = [b for b in net.buses if not flow.energized[b]]
        assert list(flow.p_shed) == dead + [b for b in net.buses
                                            if flow.energized[b]]
        assert flow.total_shed_mw == float(sum(flow.p_shed.values()))
        whole, dead = whole_shedding_lp(net, failed)
        want = dead + (reference(*whole).fun if whole is not None else 0.0)
        assert flow.total_shed_mw == pytest.approx(want, rel=0, abs=1e-9)
        assert [island for island, _ in solves] == [
            island for island, _ in energized_islands(net, failed)]
        for island, lps in solves:
            if not lps:  # served: one linear solve and exact zeros
                assert all(flow.p_shed[b] == 0.0 for b in island)
            for args, kwargs, res in lps:
                c = args[0]
                _, at_upper = kwargs["start"]
                assert at_upper[c > 0].all()  # only all-shed starts
                assert res.stats["start"] == "crash"
                assert_matches_highs(*args, res)


def test_island_whose_generator_cannot_carry_its_load_starts_all_shed():
    # l2 out: b1-b2 is served from the substation and takes no simplex
    # call, and b3's 1 MW generator cannot carry its 3 MW load
    doc = {
        "buses": [
            {"id": "b1", "x": 0, "y": 0, "is_substation": True},
            {"id": "b2", "x": 1, "y": 0, "load_profile": "p2"},
            {"id": "b3", "x": 2, "y": 0, "load_profile": "p3"},
        ],
        "lines": [{"id": f"l{k}", "from_bus": f"b{k}", "to_bus": f"b{k + 1}",
                   "resistance": 0.01, "reactance": 0.01,
                   "capacity_mva": 10.0} for k in (1, 2)],
        "generators": [{"id": "g3", "bus": "b3", "p_min": 0.0, "p_max": 1.0,
                        "q_min": -1.0, "q_max": 1.0}],
        "depots": [{"id": "d1", "x": 0, "y": 0}],
        "components": [{"id": f"c_l{k}", "kind": "line", "ref": f"l{k}"}
                       for k in (1, 2)],
        "profiles": [{"id": "p2", "p_mw": [1.0]}, {"id": "p3", "p_mw": [3.0]}],
    }
    net = load_network(doc)
    flow, solves = island_solves(net, ["c_l2"])
    assert [(island, len(lps)) for island, lps in solves] == [
        (("b1", "b2"), 0), (("b3",), 1)]
    (args, kwargs, res), = solves[1][1]
    c = args[0]
    _, at_upper = kwargs["start"]
    # b3's shed column is the only one with a cost
    assert at_upper[c > 0].tolist() == [True]
    assert res.stats["start"] == "crash"
    assert_matches_highs(*args, res)
    assert flow.p_shed["b2"] == 0.0
    assert flow.p_shed["b3"] == pytest.approx(2.0, abs=1e-9)


def oracle_timeline(net, failed, hours, horizon):
    """ens_timeline's definition, one shed_at per hour and nothing shared."""
    peak = net.peak_hour()
    total = sum(net.loads_at(peak)[0].values())
    sheds = [shed_at(net, {c for c in failed
                           if c not in hours or math.ceil(hours[c]) > t},
                     peak).total_shed_mw
             for t in range(horizon)]
    ens = 0.0
    for s in sheds:
        ens += s * net.timestep_hours
    return powerflow.RestorationTimeline(
        hours=list(range(horizon)),
        served_fraction=[1.0 if total <= 0 else (total - s) / total
                         for s in sheds],
        shed_mw=sheds, ens_mwh=ens, reference_load_mw=total)


@st.composite
def study(draw):
    """A network and a few restoration plans of random failed sets; each
    component's completion hour is drawn, or left out (never repaired)."""
    if draw(st.booleans()):
        net = builtin_feeder()
    else:
        net = restorable_radial(draw(st.integers(0, 10_000)),
                                draw(st.integers(2, 7)))
    ids = sorted(net.components)
    plans = []
    for _ in range(draw(st.integers(1, 4))):
        failed = draw(st.lists(st.sampled_from(ids), unique=True))
        hours = {c: draw(st.floats(0.0, 6.0)) for c in failed
                 if draw(st.integers(0, 4))}
        plans.append((failed, hours))
    return net, plans, draw(st.integers(1, 9))


@settings(max_examples=40, deadline=None)
@given(study())
def test_timelines_sharing_a_peak_shed_match_an_lp_per_hour(case):
    net, plans, horizon = case
    peak_shed = PeakShed(net)
    for failed, hours in plans:
        tl = ens_timeline(failed, hours, horizon=horizon,
                          peak_shed=peak_shed)
        assert tl == oracle_timeline(net, failed, hours, horizon)


def test_failures_inside_a_dead_island_cost_no_extra_lp(monkeypatch):
    # l5 cuts b6-b8 off the substation, and no generator sits there, so
    # l6 and l7 fail inside a de-energized island
    net = builtin_feeder()
    expect = shed_at(net, ["c_l5", "c_l6"], net.peak_hour()).total_shed_mw
    solved = spy_island_solves(monkeypatch)
    peak_shed = PeakShed(net)
    sheds = peak_shed([["c_l5"], ["c_l5", "c_l6"], ["c_l5", "c_l6", "c_l7"]])
    assert solved == energized_islands(net, ["c_l5"])
    assert sheds == [expect] * 3
    # a failure on the energized side splits off b10's generator island:
    # two new islands
    peak_shed([["c_l5", "c_l9"]])
    assert len(solved) == 3
    assert solved[1:] == energized_islands(net, ["c_l5", "c_l9"])


def test_cut_off_generator_island_is_solved_once_while_the_main_grows(
        monkeypatch):
    # l2 stays out, so b3-b5 is g1's island all day; the main island
    # regains b6, then b7-b8, then b11, then b12 as repairs finish
    net = builtin_feeder()
    hours = {"c_l5": 0.5, "c_l6": 1.5, "c_l10": 2.5, "c_l11": 3.5}
    failed = ["c_l2"] + sorted(hours)
    horizon = 6
    generator_island = (("b3", "b4", "b5"), frozenset({"c_l2"}))
    solved = spy_island_solves(monkeypatch)
    tl = ens_timeline(failed, hours, horizon=horizon,
                      peak_shed=PeakShed(net))
    assert solved.count(generator_island) == 1
    mains = [island for island, _ in solved if "b1" in island]
    assert [len(island) for island in mains] == [5, 6, 8, 9, 10]
    assert len(solved) == 6
    assert tl == oracle_timeline(net, failed, hours, horizon)


def test_triple_product_linearization_exact_on_all_combos():
    lin = linearize_triple_product()
    for u1, u2, u3 in itertools.product([0, 1], repeat=3):
        z12, z = lin.evaluate(u1, u2, u3)
        assert z12 == u1 * u2
        assert z == u1 * u2 * u3


def test_triple_product_loose_construction_detected():
    lin = linearize_triple_product()
    loose = TripleProductLinearization(
        constraints=lin.constraints[:-1])  # drop the z lower bound
    with pytest.raises(InternalError):
        loose.evaluate(1, 1, 1)
