"""Oracles for the compiled dispatch instance and the array GA.

The compiled travel matrix must equal travel_hours bit for bit, schedule_plan
on that matrix must time routes exactly as a travel_hours loop over
coordinates does, exact plans must match golden plans recorded before the
solver read that matrix, the GA's array fitness must equal schedule_plan +
plan_objective, and every GA operator must return valid genomes and follow
its reference definition."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridquake.dispatch import (Depot, DispatchInstance, FailedComponent,
                                _Compiled, cluster_to_depots, exact_dispatch,
                                instance_from_scenario, plan_objective,
                                schedule_plan, travel_hours)
from gridquake.fixtures import builtin_feeder
from gridquake.ga import (_Layout, _crossover, _fitness, _mutate,
                          _order_crossover, _routes, _tournament)
from gridquake.policy.train import InstanceFamily

GOLDEN = Path(__file__).with_name("golden_exact_plans.json")
SEQUENCE_GOLDEN = Path(__file__).with_name("golden_exact_sequence_plans.json")


@st.composite
def instances(draw):
    """1-3 depots with 1-3 crews each and 0-12 failed components; ids are
    shuffled so that id order differs from document order, and depots often
    get empty clusters."""
    coord = st.floats(0.0, 30.0, allow_nan=False)
    n_depots = draw(st.integers(1, 3))
    depots = tuple(Depot(id=f"d{k}", x=draw(coord), y=draw(coord),
                         crew_count=draw(st.integers(1, 3)))
                   for k in range(n_depots))
    n = draw(st.integers(0, 12))
    names = draw(st.permutations(range(n)))
    comps = tuple(FailedComponent(
        id=f"c{names[i]}", x=draw(coord), y=draw(coord),
        repair_hours=draw(st.sampled_from([0.5, 1.0, 2.0, 3.5])),
        curtailed_mw=draw(st.floats(0.0, 5.0, allow_nan=False)))
        for i in range(n))
    return DispatchInstance(components=comps, depots=depots,
                            travel_speed_kmh=draw(st.floats(5.0, 60.0)),
                            gamma=draw(st.floats(0.0, 1.0)))


def depot_blocks(inst):
    """Per depot, its component indices sorted by id (the oracle's own
    clustering, from the public cluster_to_depots)."""
    cluster = cluster_to_depots(inst)
    order = sorted(range(len(inst.components)),
                   key=lambda i: inst.components[i].id)
    return [[i for i in order if cluster[inst.components[i].id] == d.id]
            for d in inst.depots]


def random_genomes(inst, rng, pop):
    """pop random genomes; each split point is 0, n_d or uniform."""
    perms, cuts = [], []
    for _ in range(pop):
        row, row_cuts = [], []
        for d, block in zip(inst.depots, depot_blocks(inst)):
            row.extend(rng.permutation(block).tolist())
            n_d = len(block)
            row_cuts.extend(sorted(
                int(rng.choice([0, n_d, rng.integers(0, n_d + 1)]))
                for _ in range(d.crew_count - 1)))
        perms.append(row)
        cuts.append(row_cuts)
    n, k = len(inst.components), sum(d.crew_count - 1 for d in inst.depots)
    return (np.array(perms, dtype=np.intp).reshape(pop, n),
            np.array(cuts, dtype=np.intp).reshape(pop, k))


def decode(inst, perm_row, cuts_row):
    """Reference decode: crew k of a depot serves its block's positions
    bounds[k]:bounds[k + 1], with bounds = (0, *cuts, n_d)."""
    routes, col, cut = {}, 0, 0
    for d, block in zip(inst.depots, depot_blocks(inst)):
        n_d, c = len(block), d.crew_count - 1
        order = perm_row[col:col + n_d]
        bounds = [0, *cuts_row[cut:cut + c], n_d]
        for k in range(d.crew_count):
            routes[f"{d.id}:{k + 1}"] = tuple(
                inst.components[i].id for i in order[bounds[k]:bounds[k + 1]])
        col, cut = col + n_d, cut + c
    return routes


def assert_valid(inst, perm, cuts):
    """Each depot's block is a permutation of its cluster; its cuts are
    sorted and lie in [0, n_d]."""
    col, cut = 0, 0
    for d, block in zip(inst.depots, depot_blocks(inst)):
        n_d, c = len(block), d.crew_count - 1
        for row, row_cuts in zip(perm, cuts):
            assert sorted(row[col:col + n_d].tolist()) == sorted(block)
            mine = row_cuts[cut:cut + c].tolist()
            assert mine == sorted(mine)
            assert all(0 <= x <= n_d for x in mine)
        col, cut = col + n_d, cut + c


@settings(max_examples=60, deadline=None)
@given(inst=instances())
def test_compiled_travel_matches_travel_hours_bit_for_bit(inst):
    compiled = _Compiled(inst)
    nodes = ([(c.x, c.y) for c in inst.components]
             + [(d.x, d.y) for d in inst.depots])
    assert compiled.travel.shape == (len(nodes), len(nodes))
    for a, pa in enumerate(nodes):
        for b, pb in enumerate(nodes):
            want = travel_hours(pa, pb, inst.travel_speed_kmh)
            assert compiled.travel[a, b].hex() == want.hex()
    assert [list(j) for j in compiled.depot_jobs] == depot_blocks(inst)


def reference_timing(inst, routes):
    """schedule_plan's timing before it read the compiled form: walk each
    crew's route over coordinates with travel_hours. Returns arrival,
    completion, crew duration and return hours, as float hex strings."""
    comp = {c.id: c for c in inst.components}
    depots = {d.id: d for d in inst.depots}
    arrival, completion, duration, back = {}, {}, {}, {}
    for crew_id in inst.crew_ids():
        depot = depots[crew_id.rsplit(":", 1)[0]]
        loc, t = (depot.x, depot.y), 0.0
        seq = routes.get(crew_id, ())
        for cid in seq:
            c = comp[cid]
            t += travel_hours(loc, (c.x, c.y), inst.travel_speed_kmh)
            arrival[cid] = t.hex()
            t += c.repair_hours
            completion[cid] = t.hex()
            loc = (c.x, c.y)
        duration[crew_id] = t.hex()
        back[crew_id] = (t + travel_hours(loc, (depot.x, depot.y),
                                          inst.travel_speed_kmh)
                         if seq else 0.0).hex()
    return arrival, completion, duration, back


@settings(max_examples=80, deadline=None)
@given(inst=instances(), seed=st.integers(0, 2**32 - 1))
def test_schedule_plan_times_routes_like_travel_hours(inst, seed):
    perm, cuts = random_genomes(inst, np.random.default_rng(seed), 1)
    routes = decode(inst, perm[0], cuts[0])
    plan = schedule_plan(inst, routes)

    def hexed(d):
        return {k: v.hex() for k, v in d.items()}
    assert (hexed(plan.arrival), hexed(plan.completion),
            hexed(plan.crew_duration), hexed(plan.return_hours)) \
        == reference_timing(inst, routes)
    assert plan.assignment == cluster_to_depots(inst)
    assert list(plan.routes) == inst.crew_ids()


@settings(max_examples=80, deadline=None)
@given(inst=instances(), seed=st.integers(0, 2**32 - 1),
       pop=st.integers(1, 6))
def test_array_fitness_equals_schedule_plan(inst, seed, pop):
    lay = _Layout(inst)
    perm, cuts = random_genomes(inst, np.random.default_rng(seed), pop)
    got = _fitness(lay, perm, cuts)
    assert got.shape == (pop,)
    for r in range(pop):
        routes = decode(inst, perm[r], cuts[r])
        assert _routes(lay, perm[r], cuts[r]) == routes
        want = plan_objective(inst, schedule_plan(inst, routes)).value
        assert got[r] == pytest.approx(want, rel=1e-9, abs=1e-12)


def reference_ox(p1, p2, i, j):
    """Davis's order crossover on one block: p1[i:j] stays in place and the
    other positions take p2's remaining genes in p2's order."""
    window = list(p1[i:j])
    filler = [x for x in p2 if x not in window]
    return filler[:i] + window + filler[i:]


@settings(max_examples=80, deadline=None)
@given(inst=instances(), seed=st.integers(0, 2**32 - 1),
       pop=st.integers(1, 6))
def test_operators_return_valid_genomes(inst, seed, pop):
    rng = np.random.default_rng(seed)
    lay = _Layout(inst)
    pa, ca = random_genomes(inst, rng, pop)
    pb, cb = random_genomes(inst, rng, pop)
    m = len(inst.depots)
    for rate in (0.0, 0.5, 1.0):
        child, child_cuts = _crossover(lay, pa, pb, ca, cb,
                                       rng.random((pop, m, 4)), rate)
        assert_valid(inst, child, child_cuts)
        if rate == 0.0:
            assert (child == pa).all() and (child_cuts == ca).all()
        mutant, mutant_cuts = _mutate(lay, child, child_cuts,
                                      rng.random((pop, m, 4)), rate)
        assert_valid(inst, mutant, mutant_cuts)
        if rate == 0.0:
            assert (mutant == child).all() and (mutant_cuts == child_cuts).all()
        for old, new in zip(child, mutant):
            assert_one_swap_or_move_per_block(inst, old, new)
        # at most one split per depot moves, by one
        assert (np.abs(child_cuts - mutant_cuts).sum(axis=1) <= m).all()


def assert_one_swap_or_move_per_block(inst, old, new):
    col = 0
    for block in depot_blocks(inst):
        a, b = old[col:col + len(block)], new[col:col + len(block)]
        col += len(block)
        diff = np.flatnonzero(a != b)
        if len(diff) == 0:
            continue
        lo, hi = diff[0], diff[-1] + 1
        seg_a, seg_b = a[lo:hi].tolist(), b[lo:hi].tolist()
        swapped = len(diff) == 2 and seg_b == seg_a[-1:] + seg_a[1:-1] + seg_a[:1]
        moved = seg_b in (seg_a[1:] + seg_a[:1], seg_a[-1:] + seg_a[:-1])
        assert swapped or moved, (a, b)


@settings(max_examples=80, deadline=None)
@given(inst=instances(), seed=st.integers(0, 2**32 - 1),
       pop=st.integers(1, 6))
def test_order_crossover_matches_davis(inst, seed, pop):
    rng = np.random.default_rng(seed)
    pa, _ = random_genomes(inst, rng, pop)
    pb, _ = random_genomes(inst, rng, pop)
    window = np.zeros(pa.shape, dtype=bool)
    bounds, col = [], 0
    for block in depot_blocks(inst):
        n_d = len(block)
        ij = np.sort(rng.integers(0, n_d + 1, size=(pop, 2)), axis=1)
        for r, (i, j) in enumerate(ij):
            window[r, col + i:col + j] = True
        bounds.append((col, n_d, ij))
        col += n_d
    child = _order_crossover(pa, pb, window)
    for r in range(pop):
        for col, n_d, ij in bounds:
            i, j = ij[r]
            want = reference_ox(pa[r, col:col + n_d].tolist(),
                                pb[r, col:col + n_d].tolist(), i, j)
            assert child[r, col:col + n_d].tolist() == want


@settings(max_examples=100, deadline=None)
@given(scores=st.lists(st.integers(0, 3), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5))
def test_tournament_takes_lowest_score_then_lowest_index(scores, seed, k):
    scores = np.array(scores, dtype=float)  # few values: many ties
    picks = np.random.default_rng(seed).integers(0, len(scores), size=(20, k))
    want = [min(row, key=lambda i: (scores[i], i)) for row in picks]
    assert _tournament(scores, picks).tolist() == want


def golden_instance(k):
    """Seeded instances for the golden exact plans: seven random families
    (1-3 depots, 1-3 crews, gamma 0.5/0.2/0.9) and three failed sets of the
    built-in feeder, whose id order differs from document order."""
    rng = np.random.default_rng(1000 + k)
    gamma = (0.5, 0.2, 0.9)[k % 3]
    if k < 7:
        fam = InstanceFamily(n_min=6, n_max=9, depot_count=1 + k % 3,
                             crews_per_depot=1 + k // 3)
        return replace(fam.sample_instance(rng), gamma=gamma)
    net = builtin_feeder()
    failed = rng.choice(sorted(net.components), size=8 + 3 * (k - 7),
                        replace=False)
    return instance_from_scenario(net, [str(c) for c in failed], gamma=gamma)


@pytest.mark.parametrize("k", range(10))
def test_exact_plans_match_golden(k):
    want = json.loads(GOLDEN.read_text())[k]
    res = exact_dispatch(golden_instance(k))
    assert res.optimal
    assert {c: list(s) for c, s in sorted(res.plan.routes.items())} \
        == want["routes"]
    assert res.objective.value.hex() == want["objective"]


def test_exact_stats_on_golden_instance():
    """Search counters of golden instance 3 (one depot, 8 components, two
    crews): the last-crew sequence bound prunes it to 3636 nodes (6450
    with per-job bounds alone)."""
    res = exact_dispatch(golden_instance(3))
    assert res.stats == {"nodes": 3636, "pruned": 2540, "frontier": 7,
                         "timed_out": False}


def sequence_golden_instance(k):
    """One depot with 8 or 9 components and 1-3 crews, the sizes at which
    the last-crew sequence bound prunes most."""
    rng = np.random.default_rng(2000 + k)
    n = 8 + k % 2
    fam = InstanceFamily(n_min=n, n_max=n, depot_count=1,
                         crews_per_depot=1 + k // 2)
    return replace(fam.sample_instance(rng), gamma=(0.5, 0.2, 0.9)[k % 3])


@pytest.mark.parametrize("k", range(6))
def test_exact_sequence_plans_match_golden(k):
    """Plans recorded before the last crew was bounded by sequence."""
    want = json.loads(SEQUENCE_GOLDEN.read_text())[k]
    res = exact_dispatch(sequence_golden_instance(k))
    assert res.optimal
    assert {c: list(s) for c, s in sorted(res.plan.routes.items())} \
        == want["routes"]
    assert res.objective.value.hex() == want["objective"]
