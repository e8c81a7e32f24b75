"""Crew dispatch tests: scheduling semantics, the exact solver against an
unpruned enumeration oracle, and instance construction from damage."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridquake.dispatch as dispatch_module
from gridquake.dispatch import (DispatchInstance, Depot, FailedComponent,
                                _Compiled, cluster_to_depots, exact_dispatch,
                                instance_from_scenario, plan_objective,
                                schedule_plan, travel_hours)
from gridquake.errors import ConfigError, LimitError
from gridquake.fixtures import builtin_feeder, random_radial_network
from gridquake.ga import GaConfig, ga_dispatch
from gridquake.pipeline import solve
from gridquake.powerflow import PeakShed, energization_state
from gridquake.policy import PolicyConfig, PolicyModel, policy_dispatch
from gridquake.policy.train import InstanceFamily


def brute_force_value(instance):
    """Unpruned exhaustive optimum: every ordered split of every depot's
    cluster across its crews."""
    assignment = cluster_to_depots(instance)
    cluster = {d.id: [c.id for c in instance.components
                      if assignment[c.id] == d.id]
               for d in instance.depots}
    comp = {c.id: c for c in instance.components}
    speed = instance.travel_speed_kmh
    gamma = instance.gamma

    def crew_time_and_weighted(depot, seq):
        t, wsum = 0.0, 0.0
        x, y = depot.x, depot.y
        for cid in seq:
            c = comp[cid]
            t += travel_hours((x, y), (c.x, c.y), speed) + c.repair_hours
            wsum += c.curtailed_mw * t
            x, y = c.x, c.y
        return t, wsum

    def depot_options(depot):
        jobs = cluster[depot.id]
        n_crews = depot.crew_count
        options = []
        if not jobs:
            return [(0.0, 0.0)]
        for perm in itertools.permutations(jobs):
            for cuts in itertools.combinations_with_replacement(
                    range(len(jobs) + 1), n_crews - 1):
                bounds = (0,) + cuts + (len(jobs),)
                if any(a > b for a, b in zip(bounds, bounds[1:])):
                    continue
                t_max, wsum = 0.0, 0.0
                for k in range(n_crews):
                    seq = perm[bounds[k]:bounds[k + 1]]
                    t, w = crew_time_and_weighted(depot, seq)
                    t_max = max(t_max, t)
                    wsum += w
                options.append((t_max, wsum))
        return options

    per_depot = [depot_options(d) for d in instance.depots]
    best = math.inf
    for combo in itertools.product(*per_depot):
        t = max(c[0] for c in combo)
        w = sum(c[1] for c in combo)
        best = min(best, gamma * t + (1 - gamma) * w)
    return best


def tiny_instance(gamma=0.5):
    comps = (
        FailedComponent(id="cA", x=10.0, y=0.0, repair_hours=1.0,
                        curtailed_mw=2.0),
        FailedComponent(id="cB", x=20.0, y=0.0, repair_hours=2.0,
                        curtailed_mw=1.0),
        FailedComponent(id="cC", x=0.0, y=10.0, repair_hours=1.5,
                        curtailed_mw=0.5),
    )
    depots = (Depot(id="d1", x=0.0, y=0.0, crew_count=2),)
    return DispatchInstance(components=comps, depots=depots,
                            travel_speed_kmh=10.0, gamma=gamma)


def test_travel_hours_pythagorean():
    assert travel_hours((0.0, 0.0), (30.0, 40.0), 25.0) == pytest.approx(2.0)


def test_clustering_nearest_depot_with_lexicographic_ties():
    comps = (
        FailedComponent(id="c1", x=0.0, y=0.0, repair_hours=1, curtailed_mw=1),
        FailedComponent(id="c2", x=10.0, y=0.0, repair_hours=1, curtailed_mw=1),
        FailedComponent(id="c3", x=5.0, y=0.0, repair_hours=1, curtailed_mw=1),
    )
    depots = (Depot(id="dA", x=0.0, y=0.0), Depot(id="dB", x=10.0, y=0.0))
    inst = DispatchInstance(components=comps, depots=depots,
                            travel_speed_kmh=10.0)
    cl = cluster_to_depots(inst)
    assert cl["c1"] == "dA"
    assert cl["c2"] == "dB"
    assert cl["c3"] == "dA"  # equidistant, lexicographically lower id wins


def test_schedule_plan_timing_hand_case():
    inst = tiny_instance()
    plan = schedule_plan(inst, {"d1:1": ["cA", "cB"], "d1:2": ["cC"]})
    # crew 1: travel 1 h, repair 1 h at cA (t=2); travel 1 h, repair 2 h (t=5)
    assert plan.arrival["cA"] == pytest.approx(1.0)
    assert plan.completion["cA"] == pytest.approx(2.0)
    assert plan.arrival["cB"] == pytest.approx(3.0)
    assert plan.completion["cB"] == pytest.approx(5.0)
    assert plan.completion["cC"] == pytest.approx(2.5)
    # makespan excludes the travel back; return legs recorded separately
    assert plan.makespan_hours == pytest.approx(5.0)
    assert plan.return_hours["d1:1"] == pytest.approx(5.0 + 2.0)
    obj = plan_objective(inst, plan)
    want = 0.5 * 5.0 + 0.5 * (2.0 * 2 + 1.0 * 5 + 0.5 * 2.5)
    assert obj.value == pytest.approx(want)


def test_schedule_plan_rejects_bad_routes():
    inst = tiny_instance()
    with pytest.raises(ConfigError):
        schedule_plan(inst, {"d1:9": ["cA", "cB", "cC"]})  # unknown crew
    with pytest.raises(ConfigError):
        schedule_plan(inst, {"d1:1": ["cA", "cA", "cB", "cC"]})  # duplicate
    with pytest.raises(ConfigError):
        schedule_plan(inst, {"d1:1": ["cA", "cB"]})  # cC unserved


def test_schedule_plan_enforces_cluster_membership():
    comps = (
        FailedComponent(id="c1", x=1.0, y=0.0, repair_hours=1, curtailed_mw=1),
        FailedComponent(id="c2", x=9.0, y=0.0, repair_hours=1, curtailed_mw=1),
    )
    depots = (Depot(id="dA", x=0.0, y=0.0), Depot(id="dB", x=10.0, y=0.0))
    inst = DispatchInstance(components=comps, depots=depots,
                            travel_speed_kmh=10.0)
    with pytest.raises(ConfigError):
        schedule_plan(inst, {"dA:1": ["c1", "c2"], "dB:1": []})


def test_exact_matches_enumeration_on_random_instances():
    fam1 = InstanceFamily(n_min=2, n_max=5, depot_count=2, crews_per_depot=1)
    fam2 = InstanceFamily(n_min=2, n_max=5, depot_count=2, crews_per_depot=2)
    rng = np.random.default_rng(88)
    for trial in range(30):
        fam = fam1 if trial % 2 == 0 else fam2
        inst = fam.sample_instance(rng)
        res = exact_dispatch(inst)
        assert res.optimal
        want = brute_force_value(inst)
        assert res.objective.value == pytest.approx(want, abs=1e-9), trial
        # the returned plan must actually realize the claimed objective
        check = plan_objective(inst, schedule_plan(inst, res.plan.routes))
        assert check.value == pytest.approx(res.objective.value, abs=1e-9)


def test_exact_respects_gamma_extremes():
    inst_t = tiny_instance(gamma=1.0)   # pure makespan
    inst_w = tiny_instance(gamma=0.0)   # pure weighted completion
    rt = exact_dispatch(inst_t)
    rw = exact_dispatch(inst_w)
    assert rt.objective.value == pytest.approx(rt.objective.makespan_hours)
    assert rw.objective.value == pytest.approx(rw.objective.weighted_completion)
    assert brute_force_value(inst_t) == pytest.approx(rt.objective.value,
                                                      abs=1e-9)
    assert brute_force_value(inst_w) == pytest.approx(rw.objective.value,
                                                      abs=1e-9)


def test_exact_empty_instance():
    inst = DispatchInstance(components=(), depots=(Depot(id="d1", x=0, y=0),),
                            travel_speed_kmh=10.0)
    res = exact_dispatch(inst)
    assert res.optimal
    assert res.objective.value == pytest.approx(0.0)
    assert res.plan.makespan_hours == pytest.approx(0.0)


def test_exact_size_limits_raise():
    rng = np.random.default_rng(0)
    fam = InstanceFamily(n_min=10, n_max=10, depot_count=1, crews_per_depot=1)
    inst = fam.sample_instance(rng)
    with pytest.raises(LimitError):
        exact_dispatch(inst, max_components_per_depot=9)


def test_exact_timeout_returns_feasible_incumbent():
    rng = np.random.default_rng(1)
    fam = InstanceFamily(n_min=8, n_max=8, depot_count=1, crews_per_depot=2)
    inst = fam.sample_instance(rng)
    res = exact_dispatch(inst, time_limit_s=0.0)
    assert not res.optimal
    # still a valid plan covering everything
    check = plan_objective(inst, schedule_plan(inst, res.plan.routes))
    assert check.value == pytest.approx(res.objective.value, abs=1e-9)


def option_count(n, crews):
    """Ordered splits brute_force_value enumerates for one depot: n! orders
    times C(n + crews - 1, crews - 1) cut placements."""
    return math.factorial(n) * math.comb(n + crews - 1, crews - 1)


@st.composite
def separated_instances(draw, budget=60_000):
    """1-3 depots 100 km apart with 1-3 crews and 0-6 components each,
    drawn around their own depot so that the cluster sizes are the drawn
    ones. Offsets come often from a 3-point grid, so components share
    coordinates with each other and with their depot; curtailment weights
    and repair times are often zero, and gamma is often 0 or 1. Cluster
    sizes are drawn so that brute_force_value's product over depots of
    ordered splits stays within `budget`."""
    n_depots = draw(st.integers(1, 3))
    crews = [draw(st.integers(1, 3)) for _ in range(n_depots)]
    sizes, left = [0] * n_depots, budget
    for k in draw(st.permutations(range(n_depots))):
        fits = [n for n in range(7) if option_count(n, crews[k]) <= left]
        sizes[k] = draw(st.sampled_from(fits))
        left //= option_count(sizes[k], crews[k])
    offset = st.one_of(st.sampled_from([-4.0, 0.0, 3.0]),
                       st.floats(-10.0, 10.0, allow_nan=False))
    depots = tuple(Depot(id=f"d{k}", x=100.0 * k, y=0.0, crew_count=crews[k])
                   for k in range(n_depots))
    comps = []
    for k, n in enumerate(sizes):
        for _ in range(n):
            comps.append(FailedComponent(
                id=f"c{len(comps)}", x=100.0 * k + draw(offset),
                y=draw(offset),
                repair_hours=draw(st.sampled_from([0.0, 0.5, 1.0, 3.5])),
                curtailed_mw=draw(st.one_of(
                    st.just(0.0), st.floats(0.0, 5.0, allow_nan=False)))))
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return DispatchInstance(components=tuple(comps), depots=depots,
                            travel_speed_kmh=draw(st.floats(5.0, 60.0)),
                            gamma=gamma)


@settings(max_examples=80, deadline=None)
@given(separated_instances())
def test_exact_matches_enumeration_property(inst):
    """The pruned search, its last-crew sequence bound included, finds the
    unpruned enumeration's optimum."""
    res = exact_dispatch(inst)
    assert res.optimal
    assert res.objective.value == pytest.approx(brute_force_value(inst),
                                                abs=1e-9)
    check = plan_objective(inst, schedule_plan(inst, res.plan.routes))
    assert check.value == pytest.approx(res.objective.value, abs=1e-9)


def test_exact_stats_count_the_search():
    """nodes counts expansions, pruned the expansions cut by dominance,
    frontier the Pareto points kept; a zero time limit stops the search at
    its first node with only the greedy seed on the frontier."""
    res = exact_dispatch(tiny_instance())
    assert res.stats == {"nodes": 16, "pruned": 8, "frontier": 2,
                         "timed_out": False}
    res = exact_dispatch(tiny_instance(), time_limit_s=0.0)
    assert not res.optimal
    assert res.stats == {"nodes": 1, "pruned": 0, "frontier": 1,
                         "timed_out": True}
    empty = DispatchInstance(components=(), depots=(Depot(id="d1", x=0, y=0),))
    assert exact_dispatch(empty).stats == {"nodes": 0, "pruned": 0,
                                           "frontier": 1, "timed_out": False}


def two_depot_instance():
    """Depot d1 holds 2 components and 1 crew, depot d2 4 components and 3
    crews."""
    comps = tuple(FailedComponent(id=f"c{i}", x=x, y=0.0, repair_hours=1.0,
                                  curtailed_mw=1.0)
                  for i, x in enumerate([1.0, 2.0, 98.0, 99.0, 101.0, 102.0]))
    depots = (Depot(id="d1", x=0.0, y=0.0, crew_count=1),
              Depot(id="d2", x=100.0, y=0.0, crew_count=3))
    return DispatchInstance(components=comps, depots=depots,
                            travel_speed_kmh=10.0)


def test_exact_refuses_over_cap_before_searching(monkeypatch):
    """Depot d1 fits the caps and d2 does not: the refusal comes before d1
    is searched, with the message naming d2."""
    def no_search(*args):
        raise AssertionError("searched a depot of a refused instance")
    monkeypatch.setattr(dispatch_module, "_depot_frontier", no_search)
    inst = two_depot_instance()
    with pytest.raises(LimitError) as err:
        exact_dispatch(inst, max_components_per_depot=3)
    assert str(err.value) == ("depot d2: 4 components exceeds the exact "
                              "solver limit 3")
    with pytest.raises(LimitError) as err:
        exact_dispatch(inst, max_crews_per_depot=2)
    assert str(err.value) == ("depot d2: 3 crews exceeds the exact solver "
                              "limit 2")


@pytest.mark.parametrize("kwargs,rule", [
    ({"time_limit_s": math.nan}, "time limit must be >= 0"),
    ({"time_limit_s": -1.0}, "time limit must be >= 0"),
    ({"max_components_per_depot": 0}, "max_components_per_depot must be >= 1"),
    ({"max_crews_per_depot": 0}, "max_crews_per_depot must be >= 1"),
    ({"max_crews_per_depot": -2}, "max_crews_per_depot must be >= 1")])
def test_exact_rejects_bad_arguments(kwargs, rule):
    """A NaN time limit used to mean no limit, a negative one returned the
    greedy seed, and caps below 1 raised LimitError: all are bad input."""
    with pytest.raises(ConfigError, match=rule):
        exact_dispatch(tiny_instance(), **kwargs)


def test_instance_from_scenario_uses_singleton_curtailment():
    net = builtin_feeder()
    failed = ["c_l1", "c_g1"]
    inst = instance_from_scenario(net, failed)
    assert [c.id for c in inst.components] == failed
    by_id = {c.id: c for c in inst.components}
    # c_l1 alone de-energizes the b2 subtree beyond what g1 can pick up;
    # its curtailment must dominate the generator's
    assert by_id["c_l1"].curtailed_mw >= by_id["c_g1"].curtailed_mw
    assert inst.gamma == pytest.approx(0.5)
    assert inst.travel_speed_kmh == pytest.approx(net.travel_speed_kmh)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_instance_weights_from_a_shared_peak_shed_match_an_oracle(data):
    if data.draw(st.booleans()):
        net = builtin_feeder()
    else:
        net = random_radial_network(data.draw(st.integers(0, 10_000)),
                                    n_buses=data.draw(st.integers(2, 12)))
    p_load = net.loads_at(net.peak_hour())[0]
    peak_shed = PeakShed(net)
    for _ in range(3):
        failed = data.draw(st.lists(st.sampled_from(sorted(net.components)),
                                    unique=True))
        shared = instance_from_scenario(net, failed, peak_shed=peak_shed)
        # the load that each failure alone de-energizes, summed in bus order
        for c in shared.components:
            state = energization_state(net, [c.id])
            assert c.curtailed_mw == sum(p_load[b] for b in net.buses
                                         if not state.energized[b])
        assert shared == instance_from_scenario(net, failed)


def test_crew_ids_are_stable():
    inst = tiny_instance()
    assert inst.crew_ids() == ["d1:1", "d1:2"]


@pytest.mark.parametrize("solver", ["exact", "ga", "policy"])
def test_duplicate_depot_ids_are_rejected_before_any_solver(solver):
    """Two depots named 'd' would give two crews 'd:1'; exact dispatch then
    returned a one-route plan and the GA an IndexError. The instance itself
    refuses them, so no solver sees one."""
    comps = tiny_instance().components[:2]
    depots = (Depot(id="d", x=0.0, y=0.0), Depot(id="d", x=10.0, y=0.0))
    model = PolicyModel.init(PolicyConfig(width=8, heads=2, enc_layers=1,
                                          dec_layers=1, ffn_hidden=12))
    with pytest.raises(ConfigError,
                       match="depots must be unique by id, got 'd'"):
        solve(solver, DispatchInstance(components=comps, depots=depots),
              seed=0, model=model, samples=2, max_components=9, max_crews=3,
              time_limit_s=None, population=10, generations=2)
    inst = tiny_instance()
    with pytest.raises(ConfigError,
                       match="depots must be unique by id, got 'd1'"):
        dataclasses.replace(inst, depots=inst.depots * 2)


def test_compiled_form_is_built_once_and_shared(monkeypatch):
    """exact, the GA and a 16-sample policy decode (17 schedule_plan calls)
    of one instance share one compiled form; it is no field, so equality
    and hashing ignore it."""
    built = []
    init = _Compiled.__init__

    def counting_init(self, instance):
        built.append(instance)
        init(self, instance)
    monkeypatch.setattr(_Compiled, "__init__", counting_init)

    inst = tiny_instance()
    twin = tiny_instance()
    exact_dispatch(inst)
    ga_dispatch(inst, GaConfig(population_size=10, generations=3))
    model = PolicyModel.init(PolicyConfig(width=8, heads=2, enc_layers=1,
                                          dec_layers=1, ffn_hidden=12))
    assert policy_dispatch(model, inst, samples=16).decodes == 17
    assert len(built) == 1 and built[0] is inst
    assert inst == twin and hash(inst) == hash(twin)
    assert "compiled" not in {f.name for f in dataclasses.fields(inst)}
