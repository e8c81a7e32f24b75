"""Scenario sampling, loss distributions, and reduction tests.

Hand oracle values: W1 between point masses at a and b is |a-b|; between
([0,1], [.5,.5]) and ([0,1], [.25,.75]) the CDFs differ by 0.25 on [0,1)
so W1 = 0.25. Return-period case worked out in-line.

`reference_forward_reduce` is the greedy that scores every distinct
candidate loss with `_redistribute` + `wasserstein1`; the closed-form
`forward_reduce` must pick exactly the same scenarios.
"""

import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridquake.powerflow as powerflow
import gridquake.scenarios as scenarios
from gridquake.errors import ConfigError
from gridquake.fixtures import builtin_feeder, default_event
from gridquake.powerflow import PeakShed, shed_at
from gridquake.seismic import (component_failure_probabilities,
                               compute_pga_field)
from gridquake.report import write_json
from gridquake.scenarios import (LossDistribution, ScenarioSet, DamageScenario,
                                 _redistribute, forward_reduce,
                                 generate_scenarios, load_scenario_set,
                                 reduction_distance, return_period_loss,
                                 scenario_set_from_document,
                                 scenario_set_to_document,
                                 select_representatives, system_loss,
                                 wasserstein1)


def make_set(losses, weights=None, magnitude=7.0):
    n = len(losses)
    weights = weights if weights is not None else [1.0 / n] * n
    scenarios = tuple(
        DamageScenario(id=i, failed=(), loss=float(l), ens_mw=0.0,
                       weight=float(w))
        for i, (l, w) in enumerate(zip(losses, weights)))
    return ScenarioSet(scenarios=scenarios, magnitude=magnitude, seed=0,
                       n_generated=n, w1=1.0, w2=1.0)


def test_system_loss_weighted_sum():
    assert system_loss(3, 2.5, w1=1.0, w2=1.0) == pytest.approx(5.5)
    assert system_loss(3, 2.5, w1=2.0, w2=0.5) == pytest.approx(7.25)


def test_wasserstein_point_masses():
    assert wasserstein1([0.0], [1.0], [3.0], [1.0]) == pytest.approx(3.0)


def test_wasserstein_hand_case():
    d = wasserstein1([0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.25, 0.75])
    assert d == pytest.approx(0.25)


def test_wasserstein_identity_and_symmetry():
    v, w = [1.0, 2.0, 4.0], [0.2, 0.3, 0.5]
    assert wasserstein1(v, w, v, w) == pytest.approx(0.0)
    a = wasserstein1(v, w, [0.0, 3.0], [0.4, 0.6])
    b = wasserstein1([0.0, 3.0], [0.4, 0.6], v, w)
    assert a == pytest.approx(b)


def test_loss_distribution_merges_duplicate_support():
    dist = LossDistribution.from_values([2.0, 1.0, 2.0], [0.2, 0.5, 0.3])
    assert dist.support == pytest.approx([1.0, 2.0])
    assert dist.weights == pytest.approx([0.5, 0.5])
    assert dist.exceedance(2.0) == pytest.approx(0.5)


def test_return_period_loss_hand_case():
    dist = LossDistribution.from_values([1.0, 2.0, 3.0], [0.7, 0.2, 0.1])
    # exceedance: 1.0 -> 1.0, 2.0 -> 0.3, 3.0 -> 0.1
    assert return_period_loss(dist, 2.0) == pytest.approx(2.0)
    assert return_period_loss(dist, 10.0) == pytest.approx(3.0)
    assert return_period_loss(dist, 100.0) == pytest.approx(3.0)  # capped


def test_return_period_monotone():
    rng = np.random.default_rng(3)
    dist = LossDistribution.from_values(rng.uniform(0, 10, 50),
                                        np.full(50, 1 / 50))
    losses = [return_period_loss(dist, p) for p in (1.5, 2, 5, 10, 50, 100)]
    assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))


def test_return_period_rejects_nonpositive():
    dist = LossDistribution.from_values([1.0], [1.0])
    with pytest.raises(ConfigError):
        return_period_loss(dist, 0.0)


def test_select_representatives_closest_then_weight_then_id():
    # target for period 2 is the median-ish loss 2.0; ids 1 and 2 tie in
    # distance but 2 is heavier
    sset = make_set([1.0, 1.5, 2.5, 4.0], [0.25, 0.25, 0.3, 0.2])
    dist = LossDistribution.from_scenarios(sset)
    target = return_period_loss(dist, 2.0)
    reps = select_representatives(sset, [2.0])
    want = min(sset.scenarios,
               key=lambda s: (abs(s.loss - target), -s.weight, s.id))
    assert reps == [want.id]


def test_generate_scenarios_deterministic_and_normalized():
    net = builtin_feeder()
    ev = default_event(7.5)
    a = generate_scenarios(net, ev, 40, seed=9)
    b = generate_scenarios(net, ev, 40, seed=9)
    assert [s.failed for s in a.scenarios] == [s.failed for s in b.scenarios]
    assert a.weights().sum() == pytest.approx(1.0, abs=1e-12)
    for s in a.scenarios:
        assert s.loss == pytest.approx(
            system_loss(len(s.failed), s.ens_mw, a.w1, a.w2))


def test_generate_scenarios_loss_scales_with_magnitude():
    net = builtin_feeder()
    low = generate_scenarios(net, default_event(6.0), 60, seed=1)
    high = generate_scenarios(net, default_event(8.5), 60, seed=1)
    assert high.losses().mean() > low.losses().mean()


@pytest.mark.parametrize("exact_ens", [False, True])
def test_generate_scenarios_labels_islands_once_per_set(monkeypatch,
                                                         exact_ens):
    # the sampler draws the whole set in one call, and one island labelling
    # pass answers every scenario's energization; no scenario asks
    # energization_state on its own
    calls = {"sample": 0, "label": 0, "state": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenarios, "sample_damage",
                        counted("sample", scenarios.sample_damage))
    monkeypatch.setattr(powerflow, "island_labels",
                        counted("label", powerflow.island_labels))
    monkeypatch.setattr(powerflow, "energization_state",
                        counted("state", powerflow.energization_state))
    net = builtin_feeder()
    peak_shed = PeakShed(net)
    sset = generate_scenarios(net, default_event(7.5), 300, seed=5,
                              exact_ens=exact_ens, peak_shed=peak_shed)
    assert len(sset.scenarios) == 300
    assert calls == {"sample": 1, "label": 1, "state": 0}


def test_scenario_ens_exact_at_least_connectivity():
    net = builtin_feeder()
    t = net.peak_hour()
    peak_shed = PeakShed(net)
    sets = (["c_l1"], ["c_l2", "c_g1"], ["c_sub"], ["c_l9", "c_l10"])
    for failed, approx in zip(sets, peak_shed.de_energized(sets)):
        exact = shed_at(net, failed, t).total_shed_mw
        assert exact >= approx - 1e-9


def test_forward_reduce_keeps_protected_and_weights():
    sset = make_set(list(np.linspace(0, 10, 12)))
    red = forward_reduce(sset, 5, protected=[7, 11])
    ids = [s.id for s in red.scenarios]
    assert set([7, 11]) <= set(ids)
    assert len(ids) == 5
    assert sum(s.weight for s in red.scenarios) == pytest.approx(1.0, abs=1e-9)
    # retained scenarios keep their original identity and loss
    for s in red.scenarios:
        assert s.loss == sset.by_id(s.id).loss


def test_forward_reduce_k_at_least_n_is_identity():
    sset = make_set([1.0, 2.0, 3.0])
    red = forward_reduce(sset, 5)
    assert [s.id for s in red.scenarios] == [0, 1, 2]
    assert red.weights() == pytest.approx(sset.weights())


def test_forward_reduce_first_pick_is_brute_force_best_singleton():
    rng = np.random.default_rng(17)
    sset = make_set(rng.uniform(0, 5, 9), rng.dirichlet(np.ones(9)))
    red = forward_reduce(sset, 1)
    picked = red.scenarios[0].id
    scores = {s.id: reduction_distance(sset, [s.id]) for s in sset.scenarios}
    best = min(scores.values())
    assert scores[picked] == pytest.approx(best, abs=1e-12)


def test_forward_reduce_distance_agrees_with_public_scorer():
    rng = np.random.default_rng(4)
    sset = make_set(rng.uniform(0, 8, 20))
    red = forward_reduce(sset, 6)
    ids = [s.id for s in red.scenarios]
    d = reduction_distance(sset, ids)
    # the reduced set's redistributed weights realize exactly that distance
    got = wasserstein1(sset.losses(), sset.weights(),
                       red.losses(), red.weights())
    assert got == pytest.approx(d, abs=1e-12)


def test_forward_reduce_beats_most_random_subsets():
    rng = np.random.default_rng(0)
    sset = make_set(rng.uniform(0, 20, 60))
    red = forward_reduce(sset, 8)
    d_greedy = reduction_distance(sset, [s.id for s in red.scenarios])
    wins = 0
    for _ in range(40):
        ids = rng.choice(60, size=8, replace=False).tolist()
        if d_greedy <= reduction_distance(sset, ids) + 1e-12:
            wins += 1
    assert wins >= 36


def loop_frequencies(sset):
    """Each impact record's frequency as a plain loop: the weights of the
    scenarios whose failed set holds its id, added in scenario order."""
    out = []
    for rec in sset.impact:
        total = 0.0
        for s in sset.scenarios:
            if rec.id in s.failed:
                total += s.weight
        out.append(total)
    return out


def with_loop_frequencies(sset):
    """`sset` with each impact frequency taken by `loop_frequencies`."""
    return replace(sset, impact=tuple(
        replace(rec, frequency=f)
        for rec, f in zip(sset.impact, loop_frequencies(sset))))


def reference_forward_reduce(sset, k, protected=()):
    """The greedy that `forward_reduce` replaced: every step scores the
    lowest-index candidate of each distinct loss exactly and keeps the first
    one that beats the running best by more than 1e-15."""
    n = len(sset.scenarios)
    id_to_pos = {s.id: i for i, s in enumerate(sset.scenarios)}
    protected_pos = sorted({id_to_pos[p] for p in protected})
    if k >= n:
        return with_loop_frequencies(replace(sset,
                                             scenarios=list(sset.scenarios)))

    losses = sset.losses()
    weights = sset.weights()
    retained = list(protected_pos)
    candidates = [i for i in range(n) if i not in set(retained)]

    while len(retained) < k:
        base = np.array(retained, dtype=int)
        best = None
        seen_loss = {}
        for cand in candidates:
            key = losses[cand]
            if key in seen_loss:
                continue
            seen_loss[key] = cand
            trial = np.append(base, cand)
            rw = _redistribute(losses, weights, trial)
            d = wasserstein1(losses, weights, losses[trial], rw)
            if best is None or d < best[0] - 1e-15:
                best = (d, cand)
        retained.append(best[1])
        candidates.remove(best[1])

    retained_arr = np.array(sorted(retained), dtype=int)
    new_w = _redistribute(losses, weights, retained_arr)
    out = [replace(sset.scenarios[i], weight=float(new_w[j]))
           for j, i in enumerate(retained_arr)]
    return with_loop_frequencies(ScenarioSet(
        scenarios=out, magnitude=sset.magnitude, seed=sset.seed,
        n_generated=sset.n_generated, w1=sset.w1, w2=sset.w2,
        impact=sset.impact))


@st.composite
def reduction_cases(draw):
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["integer", "lattice", "continuous"]))
    if kind == "integer":
        loss = st.integers(0, 12).map(float)
    elif kind == "lattice":
        loss = st.integers(0, 40).map(lambda i: round(i * 0.1, 1))
    else:
        loss = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
    losses = draw(st.lists(loss, min_size=n, max_size=n))
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                                     max_size=n)))
        weights = (raw / raw.sum()).tolist()
    else:
        weights = None
    protected = draw(st.lists(st.integers(0, n - 1), max_size=min(n, 5)))
    k = draw(st.integers(max(1, len(set(protected))), n + 2))
    return make_set(losses, weights), k, protected


@settings(max_examples=200, deadline=None)
@given(reduction_cases())
def test_forward_reduce_matches_reference_greedy(case):
    sset, k, protected = case
    got = forward_reduce(sset, k, protected=protected)
    want = reference_forward_reduce(sset, k, protected=protected)
    assert scenario_set_to_document(got) == scenario_set_to_document(want)


def test_forward_reduce_matches_reference_on_generated_sets():
    net = builtin_feeder()
    for magnitude, n, k in ((7.5, 300, 20), (8.0, 400, 6)):
        for seed in (1, 2):
            sset = generate_scenarios(net, default_event(magnitude), n,
                                      seed=seed)
            reps = select_representatives(sset, [10, 100])
            got = forward_reduce(sset, k, protected=reps)
            want = reference_forward_reduce(sset, k, protected=reps)
            assert (scenario_set_to_document(got)
                    == scenario_set_to_document(want))


@pytest.mark.parametrize("weighting", ["uniform", "random"])
def test_forward_reduce_scores_exactly_only_a_shortlist(monkeypatch, weighting):
    # 20 000 distinct continuous losses: each step scores exactly only the
    # closed-form near-ties, at most the two middle points of a gap
    rng = np.random.default_rng(11)
    n, k = 20_000, 20
    losses = rng.uniform(0.0, 100.0, n)
    weights = None if weighting == "uniform" else rng.dirichlet(np.ones(n))
    sset = make_set(losses, weights)
    calls = []

    def counting(*args):
        calls.append(1)
        return wasserstein1(*args)

    monkeypatch.setattr("gridquake.scenarios.wasserstein1", counting)
    red = forward_reduce(sset, k)
    ids = [s.id for s in red.scenarios]
    assert len(ids) == k
    d = reduction_distance(sset, ids)
    assert len(calls) <= 2 * k + 1
    kept = losses[ids]
    closed = float(np.sum(sset.weights()
                          * np.abs(losses[:, None] - kept[None, :]).min(axis=1)))
    assert d == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("k", [0, -1])
def test_forward_reduce_rejects_k_below_one(k):
    sset = make_set([1.0, 2.0, 3.0])
    with pytest.raises(ConfigError, match="k must be >= 1"):
        forward_reduce(sset, k)


def test_scenario_set_document_round_trip():
    net = builtin_feeder()
    sset = generate_scenarios(net, default_event(7.0), 15, seed=2)
    doc = scenario_set_to_document(sset)
    back = scenario_set_from_document(doc)
    assert back.magnitude == sset.magnitude
    assert back.seed == sset.seed
    assert [s.failed for s in back.scenarios] == [s.failed for s in sset.scenarios]
    assert back.weights() == pytest.approx(sset.weights())
    assert scenario_set_to_document(back) == doc


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       k=st.integers(1, 12), magnitude=st.sampled_from([6.0, 7.0, 8.0]))
def test_impact_frequency_is_the_weight_of_the_failed_scenarios(
        seed, n, k, magnitude):
    net = builtin_feeder()
    full = generate_scenarios(net, default_event(magnitude), n, seed=seed)
    reduced = forward_reduce(full, k)
    for sset in (full, reduced):
        assert [rec.id for rec in sset.impact] == list(net.components)
        assert [rec.frequency for rec in sset.impact] == loop_frequencies(sset)
    # the reduced map keeps the full map's medians and probabilities
    assert ([replace(rec, frequency=0.0) for rec in reduced.impact]
            == [replace(rec, frequency=0.0) for rec in full.impact])


def test_impact_map_holds_the_median_field_and_its_fragility():
    net, event = builtin_feeder(), default_event(7.5)
    field = compute_pga_field(net, event)
    probability = component_failure_probabilities(net, field)
    sset = generate_scenarios(net, event, 10, seed=4)
    assert [(r.id, r.median_pga_g, r.failure_probability)
            for r in sset.impact] == [(cid, field.pga_g[cid],
                                       probability[cid])
                                      for cid in net.components]
    assert set(scenario_set_to_document(sset)["impact"][0]) == {
        "id", "median_pga_g", "failure_probability", "frequency"}


@pytest.mark.parametrize("reduce_to", [None, 4])
def test_scenario_set_file_round_trip_keeps_the_impact_map(reduce_to,
                                                           tmp_path):
    sset = generate_scenarios(builtin_feeder(), default_event(7.5), 30,
                              seed=8)
    if reduce_to is not None:
        sset = forward_reduce(sset, reduce_to)
    doc = scenario_set_to_document(sset)
    assert len(doc["impact"]) == len(builtin_feeder().components)
    path = str(tmp_path / "set.json")
    write_json(doc, path)
    assert scenario_set_to_document(load_scenario_set(path)) == doc


def test_older_documents_read_without_pga_and_impact():
    doc = scenario_set_to_document(
        generate_scenarios(builtin_feeder(), default_event(7.5), 12, seed=3))
    old = json.loads(json.dumps(doc))
    del old["impact"]
    for rec in old["scenarios"]:
        rec["pga_g"] = {cid: 0.5 for cid in builtin_feeder().components}
    sset = scenario_set_from_document(old)
    assert "pga_g" in old["scenarios"][0]  # the caller's document is kept
    assert sset.impact == ()
    back = scenario_set_to_document(sset)
    assert back["impact"] == []
    assert back["scenarios"] == doc["scenarios"]
    assert scenario_set_to_document(forward_reduce(sset, 5))["impact"] == []


def test_scenario_set_document_refuses_a_bad_impact_record():
    doc = scenario_set_to_document(
        generate_scenarios(builtin_feeder(), default_event(7.5), 3, seed=1))
    doc["impact"][1]["failure_probability"] = 1.5
    with pytest.raises(ConfigError, match=re.escape(
            "impact[1].failure_probability must be in [0, 1], got 1.5")):
        scenario_set_from_document(doc)


def test_scenario_set_document_rejects_garbage():
    with pytest.raises(ConfigError):
        scenario_set_from_document({"scenarios": "nope"})
