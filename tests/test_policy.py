"""Policy network and rollout tests: encoder symmetries, decision masking,
plan validity, checkpoint round trips and validation, reward bookkeeping,
the batched draw against `Generator.choice`, an op-count guard on the
decoding step, one encoding per decode, memory guards on the sampled
decode and the PPO update, and golden plans for the batched decoder."""

import collections
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridquake.policy.autodiff as ad
from gridquake.dispatch import (Depot, DispatchInstance, FailedComponent,
                                cluster_to_depots, exact_dispatch,
                                plan_objective, schedule_plan, travel_hours)
from gridquake.errors import ConfigError
from gridquake.policy.nn import COMP_FEATURES, PolicyConfig, PolicyModel
from gridquake.policy.rollout import (draw, encode_instance, policy_dispatch,
                                      run_batch)
from gridquake.policy.train import (CLIP, ENTROPY_COEF, VALUE_COEF,
                                    InstanceFamily, PpoConfig, _clip,
                                    _minimum, _ppo_loss, ppo_train)

TINY = PolicyConfig(width=8, heads=2, enc_layers=1, dec_layers=1,
                    ffn_hidden=12)


def make_instance(seed=0, n=4, crews=1):
    fam = InstanceFamily(n_min=n, n_max=n, depot_count=2,
                         crews_per_depot=crews)
    return fam.sample_instance(np.random.default_rng(seed))


def routes_of(enc, actions):
    """Crew routes from one batch row's actions (crew * n + component)."""
    comps, crew_ids = enc.instance.components, enc.instance.compiled.crew_ids
    routes = {cid: [] for cid in crew_ids}
    for a in actions:
        i, j = divmod(int(a), len(comps))
        routes[crew_ids[i]].append(comps[j].id)
    return routes


def rewards_of(inst, enc, actions, plan):
    """One row's step rewards from schedule_plan's times: each step pays the
    curtailment-weighted completion of the component it scheduled, and the
    last step also pays the makespan term."""
    curtailed = {c.id: c.curtailed_mw for c in inst.components}
    n = len(inst.components)
    cids = [inst.components[int(a) % n].id for a in actions]
    want = [-(1.0 - inst.gamma) * curtailed[cid] * plan.completion[cid]
            for cid in cids]
    want[-1] -= inst.gamma * plan.makespan_hours
    return want


def test_config_validates_head_divisibility():
    with pytest.raises(ConfigError):
        PolicyConfig(width=10, heads=4)


@pytest.mark.parametrize("field,rule", [
    ({"width": 0}, "width must be >= 1"),
    ({"heads": 0}, "heads must be >= 1"),
    ({"width": -4, "heads": -2}, "width must be >= 1"),
    ({"ffn_hidden": 0}, "ffn_hidden must be >= 1"),
    ({"enc_layers": -1}, "enc_layers must be >= 0"),
    ({"dec_layers": -1}, "dec_layers must be >= 0")])
def test_policy_config_rejects_sizes_with_config_error(field, rule):
    with pytest.raises(ConfigError, match=rule):
        PolicyConfig(**field)


@pytest.mark.parametrize("field,rule", [
    ({"iterations": 0}, "iterations must be >= 1"),
    ({"iterations": -3}, "iterations must be >= 1"),
    ({"batch_size": 1}, "batch_size must be >= 2"),
    ({"lr": 0.0}, "lr must be finite and > 0"),
    ({"lr": -1e-3}, "lr must be finite and > 0"),
    ({"lr": float("inf")}, "lr must be finite and > 0"),
    ({"lr": float("nan")}, "lr must be finite and > 0"),
    ({"lr": float("-inf")}, "lr must be finite and > 0")])
def test_ppo_config_rejects_bad_settings(field, rule):
    with pytest.raises(ConfigError, match=rule):
        PpoConfig(**field)


def test_encoder_permutation_equivariance():
    model = PolicyModel.init(TINY, seed=1)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(5, COMP_FEATURES))
    perm = rng.permutation(5)
    out = model.encode(feats).data
    out_p = model.encode(feats[perm]).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_encoder_duplicate_tokens_match_singleton():
    # attention over identical tokens returns the same mix as over one
    model = PolicyModel.init(TINY, seed=2)
    f = np.random.default_rng(1).normal(size=(1, COMP_FEATURES))
    single = model.encode(f).data
    triple = model.encode(np.repeat(f, 3, axis=0)).data
    for row in triple:
        np.testing.assert_allclose(row, single[0], atol=1e-12)


def test_decode_respects_mask_exactly():
    model = PolicyModel.init(TINY, seed=3)
    rng = np.random.default_rng(2)
    memory = model.encode(rng.normal(size=(4, COMP_FEATURES)))
    crew = rng.normal(size=(2, 6))
    mask = np.zeros(8, dtype=bool)
    mask[[1, 4, 6]] = True
    logp, value = model.step(model.attend(memory), crew, mask)
    p = np.exp(logp.data)
    assert np.all(p[~mask] == 0.0)
    assert p[mask].sum() == pytest.approx(1.0)
    assert value.data.shape == ()


def test_step_on_attended_memory_is_decode_step_bit_for_bit():
    model = PolicyModel.init(SMALL, seed=5)
    rng = np.random.default_rng(3)
    memory = model.encode(rng.normal(size=(3, 6, COMP_FEATURES)))
    crew = rng.normal(size=(3, 2, 6))
    mask = rng.random((3, 12)) < 0.7
    mask[:, 0] = True
    want_lp, want_v = model.step(model.attend(memory), crew, mask)
    # the memory as a plain array, and the graph-free model over the same
    # parameter arrays, give the same bits
    const = model.constant()
    for m in (model, const):
        lp, v = m.step(m.attend(memory.data), crew, mask)
        np.testing.assert_array_equal(lp.data, want_lp.data)
        np.testing.assert_array_equal(v.data, want_v.data)
    assert all(const.params[k].data is t.data
               for k, t in model.params.items())


def test_step_op_count_does_not_grow_with_heads(monkeypatch):
    """Heads are an axis: one decoding step runs the same products and
    softmaxes whatever the head count, so a per-head loop shows here."""
    calls = collections.Counter()
    matmul, softmax = ad.Tensor.__matmul__, ad.softmax

    def counting_matmul(self, other):
        calls["matmul"] += 1
        return matmul(self, other)

    def counting_softmax(*args, **kwargs):
        calls["softmax"] += 1
        return softmax(*args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__matmul__", counting_matmul)
    monkeypatch.setattr(ad, "softmax", counting_softmax)
    rng = np.random.default_rng(9)
    comp = rng.normal(size=(3, 5, COMP_FEATURES))
    crew = rng.normal(size=(3, 2, 6))
    mask = np.ones((3, 10), dtype=bool)
    counts = {}
    for heads in (1, 2, 4):
        model = PolicyModel.init(PolicyConfig(width=8, heads=heads,
                                              enc_layers=1, dec_layers=2,
                                              ffn_hidden=8), seed=0)
        ctx = model.attend(model.encode(comp))
        calls.clear()
        model.step(ctx, crew, mask)
        counts[heads] = dict(calls)
    # embedding 1; per decoder layer self-attention 6, cross-attention 4
    # and the feed-forward 2; pointer 2; value head 2
    assert counts[1] == counts[2] == counts[4] == {"matmul": 29, "softmax": 4}


def test_rollout_builds_no_graph_and_leaves_grads_alone(monkeypatch):
    model = PolicyModel.init(TINY, seed=4)
    inst = make_instance(seed=5, n=5, crews=2)
    outputs = []
    step = PolicyModel.step

    def recording_step(self, ctx, crew_feats, mask):
        out = step(self, ctx, crew_feats, mask)
        outputs.append((ctx, out))
        return out

    monkeypatch.setattr(PolicyModel, "step", recording_step)
    run_batch(model, [encode_instance(inst)], np.random.default_rng(0),
              samples=2)
    assert len(outputs) == 5
    for ctx, (logp, value) in outputs:
        for t in (logp, value, ctx.ptr_keys, ctx.pooled,
                  *[x for kv in ctx.cross for x in kv]):
            assert not t.requires_grad
            assert t._parents == () and t._backward is None
    assert all(t.grad is None and t.requires_grad
               for t in model.params.values())


def test_greedy_episode_is_deterministic_and_valid():
    model = PolicyModel.init(TINY, seed=4)
    inst = make_instance(seed=5, n=5, crews=2)
    enc = encode_instance(inst)
    # the greedy row ignores the generator and the sampled rows beside it
    a = run_batch(model, [enc], np.random.default_rng(0), samples=0)
    b = run_batch(model, [enc], np.random.default_rng(1), samples=2)
    np.testing.assert_array_equal(a.actions[:, 0], b.actions[:, 0])
    plan = schedule_plan(inst, routes_of(enc, a.actions[:, 0]))
    # the rollout times legs from the same travel matrix as schedule_plan,
    # in the same order of operations, so its times are schedule_plan's
    assert a.makespan[0] == plan.makespan_hours
    assert a.rewards[:, 0].tolist() == rewards_of(inst, enc, a.actions[:, 0],
                                                  plan)


@st.composite
def grid_instances(draw):
    """1-4 depots and 0-8 components on a 5 x 5 integer grid, so that
    equidistant and coincident depots are common; depot ids are shuffled
    so that document order is not id order."""
    coord = st.integers(0, 4).map(float)
    n_depots = draw(st.integers(1, 4))
    names = draw(st.permutations(range(n_depots)))
    depots = tuple(Depot(id=f"d{names[k]}", x=draw(coord), y=draw(coord),
                         crew_count=draw(st.integers(1, 2)))
                   for k in range(n_depots))
    comps = tuple(FailedComponent(id=f"c{i}", x=draw(coord), y=draw(coord),
                                  repair_hours=1.0, curtailed_mw=1.0)
                  for i in range(draw(st.integers(0, 8))))
    return DispatchInstance(components=comps, depots=depots)


@settings(max_examples=120, deadline=None)
@given(inst=grid_instances())
def test_cluster_mask_matches_cluster_to_depots(inst):
    """The first step's mask allows exactly the (crew, component) pairs of
    `cluster_to_depots`, and the encoding's nodes are the components' then
    the depots' coordinates, normalized."""
    enc = encode_instance(inst)
    cluster = cluster_to_depots(inst)
    depot_of_crew = [cid.rsplit(":", 1)[0] for cid in inst.crew_ids()]
    want = [cluster[c.id] == did for did in depot_of_crew
            for c in inst.components]
    if inst.components:
        roll = run_batch(PolicyModel.init(TINY, seed=0), [enc],
                         np.random.default_rng(0), samples=0)
        assert roll.masks[0, 0].tolist() == want
    xy = np.array([[c.x, c.y] for c in inst.components]
                  + [[d.x, d.y] for d in inst.depots])
    origin = xy.min(axis=0)
    scale = max(float((xy.max(axis=0) - origin).max()), 1e-9)
    assert enc.node_xy.tolist() == ((xy - origin) / scale).tolist()


def test_rollout_leg_is_travel_hours_bit_for_bit():
    """One crew, one component, no repair time, speed 1: the episode's
    makespan is one leg's travel time. The leg is one on which np.hypot
    and math.hypot differ by an ulp (about one pair in 200), so a rollout
    that timed legs with np.hypot would differ from schedule_plan here."""
    pairs = np.random.default_rng(0).uniform(0.0, 30.0, size=(20000, 2))
    dx, dy = next((p for p in pairs.tolist()
                   if np.hypot(*p) != math.hypot(*p)), pairs[0].tolist())
    inst = DispatchInstance(
        components=(FailedComponent(id="c", x=dx, y=dy, repair_hours=0.0,
                                    curtailed_mw=1.0),),
        depots=(Depot(id="d", x=0.0, y=0.0),), travel_speed_kmh=1.0)
    roll = run_batch(PolicyModel.init(TINY, seed=0), [encode_instance(inst)],
                     np.random.default_rng(0), samples=0)
    want = travel_hours((0.0, 0.0), (dx, dy), 1.0)
    assert roll.makespan[0] == schedule_plan(inst, {"d:1": ["c"]}) \
        .makespan_hours == want


def test_sampled_episodes_only_pick_feasible_pairs():
    model = PolicyModel.init(TINY, seed=6)
    inst = make_instance(seed=7, n=6, crews=1)
    enc = encode_instance(inst)
    roll = run_batch(model, [enc] * 10, np.random.default_rng(3))
    T, B = roll.actions.shape
    assert (T, B) == (6, 10)
    # every action was allowed by the mask of its step
    picked = np.take_along_axis(roll.masks, roll.actions[..., None], axis=-1)
    assert picked.all()
    for b in range(B):
        # validates clusters and coverage
        plan = schedule_plan(inst, routes_of(enc, roll.actions[:, b]))
        assert set(plan.completion) == {c.id for c in inst.components}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 17),
       k=st.integers(1, 40), keep=st.floats(0.05, 1.0))
def test_draw_is_generator_choice_row_by_row(seed, rows, k, keep):
    """The batched draw takes the actions and leaves the generator in the
    state of one `Generator.choice` call per row, with zero-probability
    entries anywhere in a row, its first and last included."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, k)) < keep
    mask[np.arange(rows), rng.integers(k, size=rows)] = True
    probs = np.where(mask, np.exp(rng.normal(scale=3.0, size=(rows, k))),
                     0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    got_rng, want_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    got = draw(probs, got_rng)
    assert got.tolist() == [int(want_rng.choice(k, p=p)) for p in probs]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert mask[np.arange(rows), got].all()


def test_policy_dispatch_best_of_decodes():
    model = PolicyModel.init(TINY, seed=8)
    inst = make_instance(seed=9, n=5, crews=2)
    greedy_only = policy_dispatch(model, inst, samples=0, seed=0)
    sampled = policy_dispatch(model, inst, samples=12, seed=0)
    assert sampled.decodes == 13
    assert sampled.objective.value <= greedy_only.objective.value + 1e-12
    check = plan_objective(inst, schedule_plan(inst, sampled.plan.routes))
    assert check.value == pytest.approx(sampled.objective.value, abs=1e-9)


def test_policy_dispatch_encodes_its_instance_once(monkeypatch):
    """The greedy and sampled rows share one encoding of the instance."""
    shapes = []
    encode = PolicyModel.encode

    def recording_encode(self, comp_feats):
        shapes.append(np.shape(comp_feats))
        return encode(self, comp_feats)

    monkeypatch.setattr(PolicyModel, "encode", recording_encode)
    inst = make_instance(seed=9, n=5, crews=2)
    res = policy_dispatch(PolicyModel.init(TINY, seed=8), inst, samples=4)
    assert res.decodes == 5
    assert shapes == [(1, 5, COMP_FEATURES)]


def test_sampled_decode_memory_stays_near_the_greedy_decode():
    """150 failures, default model, 16 samples beside the greedy row. The
    instance's arrays, encoder and projected memory are held once, not once
    per row, so the traced peak stays within 8x the greedy-only decode's;
    copying them onto every row peaks at about 16x (4.5x here)."""
    model = PolicyModel.init(PolicyConfig(), seed=0)
    inst = InstanceFamily(depot_count=5, crews_per_depot=2).sample_instance(
        np.random.default_rng(0), n=150)
    inst.compiled  # built once, outside both measurements
    peaks = []
    for samples in (0, 16):
        tracemalloc.start()
        try:
            policy_dispatch(model, inst, samples=samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 8 * peaks[0], peaks


def test_policy_dispatch_keeps_the_greedy_plan_on_a_tie():
    """Two identical components at one spot: every order has the same
    objective, bit for bit. The greedy row takes the first; some sampled
    rows, the last among them, take the other order, and still the greedy
    plan is returned."""
    comps = tuple(FailedComponent(id=f"f{k}", x=3.0, y=4.0,
                                  repair_hours=2.0, curtailed_mw=1.5)
                  for k in (1, 2))
    inst = DispatchInstance(components=comps,
                            depots=(Depot(id="d", x=0.0, y=0.0),))
    model = PolicyModel.init(TINY, seed=0)
    enc = encode_instance(inst)
    roll = run_batch(model, [enc], np.random.default_rng(0), samples=8)
    routes = [routes_of(enc, roll.actions[:, b]) for b in range(9)]
    values = {plan_objective(inst, schedule_plan(inst, r)).value
              for r in routes}
    assert len(values) == 1
    assert routes[0] == {"d:1": ["f1", "f2"]}
    assert routes[-1] == {"d:1": ["f2", "f1"]}
    res = policy_dispatch(model, inst, samples=8, seed=0)
    assert res.plan.routes == {"d:1": ("f1", "f2")}
    assert res.objective.value == values.pop()


# Plans recorded from the one-episode-at-a-time decoder that `run_batch`
# replaced: (model config, model seed, depots, crews per depot, instance
# seed, failures, samples) -> (routes as component numbers, objective).
# The dispatch seed is 7 throughout; width 64 is the default PolicyConfig.
SMALL = PolicyConfig(width=16, heads=2, enc_layers=1, dec_layers=1,
                     ffn_hidden=32)
GOLDEN = [
    ((TINY, 4, 2, 2, 5, 5, 0), {
        "d1:1": "002", "d1:2": "", "d2:1": "001 005", "d2:2": "003 004",
    }, 18.02738140640091),
    ((TINY, 4, 2, 2, 5, 5, 1), {
        "d1:1": "002", "d1:2": "", "d2:1": "001 005", "d2:2": "003 004",
    }, 18.02738140640091),
    ((SMALL, 3, 2, 1, 12, 8, 0), {
        "d1:1": "008 007 006 002", "d2:1": "001 005 003 004",
    }, 52.929623607207525),
    ((PolicyConfig(), 0, 3, 2, 71, 50, 0), {
        "d1:1": "022 015 044 014 027 026 030 031 019 048",
        "d1:2": "047 041 011 021 009 013 033 038 046",
        "d2:1": "032 002 034 008 012 042 035 039 003",
        "d2:2": "023 010 024 006 037 049 016 004 007 036",
        "d3:1": "040 025 028 018 020 001",
        "d3:2": "043 050 005 017 045 029",
    }, 634.2640039408739),
    ((PolicyConfig(), 0, 3, 2, 71, 50, 1), {
        "d1:1": "038 009 044 041 013 022 014 048 019",
        "d1:2": "027 030 026 021 047 011 015 033 031 046",
        "d2:1": "037 016 034 002 024 004 007 003 039 036",
        "d2:2": "006 010 012 032 008 023 042 049 035",
        "d3:1": "005 020 017 025 028 029",
        "d3:2": "040 018 050 045 043 001",
    }, 598.1971452189935),
]


@pytest.mark.parametrize("case,routes,objective", GOLDEN,
                         ids=[f"n{c[5]}-s{c[6]}" for c, _, _ in GOLDEN])
def test_batched_decoder_reproduces_recorded_plans(case, routes, objective):
    config, model_seed, depots, crews, inst_seed, n, samples = case
    model = PolicyModel.init(config, seed=model_seed)
    fam = InstanceFamily(depot_count=depots, crews_per_depot=crews)
    inst = fam.sample_instance(np.random.default_rng(inst_seed), n=n)
    res = policy_dispatch(model, inst, samples=samples, seed=7)
    assert res.decodes == samples + 1
    assert res.plan.routes == {
        crew: tuple(f"f{k}" for k in seq.split())
        for crew, seq in routes.items()}
    assert res.objective.value == objective


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 7),
       depots=st.integers(1, 3), crews=st.integers(1, 2),
       samples=st.integers(0, 5))
def test_every_batched_row_is_a_plan_and_best_of_beats_greedy(
        seed, n, depots, crews, samples):
    model = PolicyModel.init(TINY, seed=seed % 5)
    fam = InstanceFamily(n_min=n, n_max=n, depot_count=depots,
                         crews_per_depot=crews)
    inst = fam.sample_instance(np.random.default_rng(seed))
    enc = encode_instance(inst)
    roll = run_batch(model, [enc], np.random.default_rng(seed),
                     samples=samples)
    # schedule_plan raises unless each row routes every component once,
    # from its nearest depot; the rollout's clock is schedule_plan's exactly
    plans = [schedule_plan(inst, routes_of(enc, roll.actions[:, b]))
             for b in range(samples + 1)]
    assert roll.makespan.tolist() == [p.makespan_hours for p in plans]
    for b, plan in enumerate(plans):
        assert roll.rewards[:, b].tolist() == rewards_of(
            inst, enc, roll.actions[:, b], plan)
    values = [plan_objective(inst, p).value for p in plans]
    greedy = policy_dispatch(model, inst, samples=0, seed=seed)
    best = policy_dispatch(model, inst, samples=samples, seed=seed)
    assert greedy.objective.value == values[0]
    assert best.objective.value == min(values)
    assert best.objective.value <= greedy.objective.value
    assert best.decodes == samples + 1


def test_policy_dispatch_without_failures_returns_empty_plan():
    model = PolicyModel.init(TINY, seed=0)
    inst = dataclasses.replace(make_instance(seed=1, crews=2), components=())
    res = policy_dispatch(model, inst, samples=3, seed=0)
    ex = exact_dispatch(inst)
    assert res.plan == ex.plan
    assert res.objective == ex.objective
    assert res.objective.value == 0.0
    assert res.decodes == 0


def test_policy_dispatch_rejects_negative_samples():
    model = PolicyModel.init(TINY, seed=0)
    with pytest.raises(ConfigError, match="samples must be >= 0"):
        policy_dispatch(model, make_instance(seed=2), samples=-1)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = PolicyModel.init(TINY, seed=10)
    path = str(tmp_path / "model.npz")
    model.save(path)
    back = PolicyModel.load(path)
    assert back.config == model.config
    for k, t in model.params.items():
        assert np.array_equal(back.params[k].data, t.data)
    inst = make_instance(seed=11, n=4)
    a = policy_dispatch(model, inst, samples=4, seed=1)
    b = policy_dispatch(back, inst, samples=4, seed=1)
    assert a.plan.routes == b.plan.routes


def old_layout_arrays(model):
    """A model's arrays as checkpoints stored them before heads became an
    axis: Wq, Wk and Wv of each attention as (h, d, d_k), one slice per
    head."""
    h, dk = model.config.heads, model.config.d_head
    arrays = {}
    for k, t in model.params.items():
        a = t.data
        if k.rsplit(".", 1)[-1] in ("Wq", "Wk", "Wv") and not k.startswith(
                "ptr."):
            a = a.reshape(a.shape[0], h, dk).transpose(1, 0, 2)
        arrays[k] = a
    return arrays


def write_checkpoint(path, config, arrays):
    blob = np.frombuffer(json.dumps(dataclasses.asdict(config)).encode(),
                         dtype=np.uint8)
    np.savez(path, __config__=blob, **arrays)


def test_load_reads_the_per_head_checkpoint_layout(tmp_path):
    model = PolicyModel.init(SMALL, seed=3)
    arrays = old_layout_arrays(model)
    assert arrays["dec.0.cross.Wk"].shape == (2, 16, 8)
    # head 1's keys are columns 8..15 of the one matrix
    np.testing.assert_array_equal(arrays["dec.0.cross.Wk"][1],
                                  model.params["dec.0.cross.Wk"].data[:, 8:])
    path = str(tmp_path / "old.npz")
    write_checkpoint(path, SMALL, arrays)
    back = PolicyModel.load(path)
    for k, t in model.params.items():
        assert np.array_equal(back.params[k].data, t.data), k
    inst = make_instance(seed=12, n=8)
    a = policy_dispatch(model, inst, samples=3, seed=7)
    b = policy_dispatch(back, inst, samples=3, seed=7)
    assert a.plan.routes == b.plan.routes
    assert a.objective.value == b.objective.value


@pytest.mark.parametrize("edit,message", [
    (lambda a: a.pop("ptr.Wk"), "missing ptr.Wk"),
    (lambda a: a.update(extra=np.ones(3)), "unknown extra"),
    (lambda a: a.update({"enc.0.ffn.W1": np.ones((8, 8))}),
     r"enc.0.ffn.W1 has shape \(8, 8\), expected \(8, 12\)"),
    (lambda a: a.update({"dec.0.self.Wq": np.ones((4, 8, 2))}),
     r"dec.0.self.Wq has shape \(4, 8, 2\), expected \(8, 8\)"),
])
def test_load_rejects_arrays_that_do_not_match_the_config(tmp_path, edit,
                                                         message):
    arrays = {k: t.data for k, t in PolicyModel.init(TINY).params.items()}
    edit(arrays)
    path = str(tmp_path / "bad.npz")
    write_checkpoint(path, TINY, arrays)
    with pytest.raises(ConfigError, match=message):
        PolicyModel.load(path)


def test_load_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.ones(3))
    with pytest.raises(ConfigError):
        PolicyModel.load(str(path))
    path2 = tmp_path / "junk.txt"
    path2.write_text("hello")
    with pytest.raises(ConfigError):
        PolicyModel.load(str(path2))
    path3 = tmp_path / "unknown_field.npz"
    np.savez(path3, __config__=np.frombuffer(b'{"depth": 3}', dtype=np.uint8))
    with pytest.raises(ConfigError, match="bad model checkpoint"):
        PolicyModel.load(str(path3))
    # config values of the wrong JSON type name their field
    arrays = {k: t.data for k, t in PolicyModel.init(TINY).params.items()}
    for field, value in (("heads", 2.0), ("width", True)):
        blob = np.frombuffer(json.dumps(
            {**dataclasses.asdict(TINY), field: value}).encode(),
            dtype=np.uint8)
        path4 = tmp_path / f"typed_{field}.npz"
        np.savez(path4, __config__=blob, **arrays)
        with pytest.raises(ConfigError,
                           match=f"__config__.{field}: expected an integer"):
            PolicyModel.load(str(path4))


def test_saved_config_blob_is_sorted_json_of_every_field(tmp_path):
    path = str(tmp_path / "m.npz")
    PolicyModel.init(TINY).save(path)
    with np.load(path) as data:
        blob = bytes(data["__config__"])
    assert blob == json.dumps(dataclasses.asdict(TINY),
                              sort_keys=True).encode()


@pytest.mark.parametrize("other", [dict(n=5), dict(gamma=0.2)])
def test_run_batch_refuses_a_mixed_batch(other):
    # one gamma shapes every row's rewards, so the rows must share it
    inst = make_instance(seed=3)
    odd = make_instance(seed=3, n=other.get("n", 4))
    odd = dataclasses.replace(odd, gamma=other.get("gamma", odd.gamma))
    model = PolicyModel.init(TINY, seed=0)
    with pytest.raises(ValueError, match="homogeneous"):
        run_batch(model, [encode_instance(inst), encode_instance(odd)],
                  np.random.default_rng(0))
    # a sampled decode broadcasts one instance over its rows
    for encs in ([encode_instance(inst), encode_instance(odd)],
                 [encode_instance(inst)] * 2):
        with pytest.raises(ValueError, match="one instance"):
            run_batch(model, encs, np.random.default_rng(0), samples=1)


def test_batch_rewards_telescope_to_objective():
    model = PolicyModel.init(TINY, seed=12)
    fam = InstanceFamily(n_min=4, n_max=4, depot_count=2, crews_per_depot=1)
    rng = np.random.default_rng(4)
    instances = [fam.sample_instance(rng) for _ in range(3)]
    encs = [encode_instance(i) for i in instances]
    batch = run_batch(model, encs, np.random.default_rng(5))
    assert batch.rewards.shape == (4, 3)
    returns = batch.rewards.sum(axis=0)
    for b, enc in enumerate(encs):
        # recover the routes this batch row took and score them
        crew_ids = enc.instance.compiled.crew_ids
        comps = enc.instance.components
        routes = {cid: [] for cid in crew_ids}
        n = len(comps)
        for t in range(batch.actions.shape[0]):
            a = int(batch.actions[t, b])
            routes[crew_ids[a // n]].append(comps[a % n].id)
        obj = plan_objective(enc.instance,
                             schedule_plan(enc.instance, routes))
        assert returns[b] == pytest.approx(-obj.value, abs=1e-9)
        assert batch.makespan[b] == pytest.approx(obj.makespan_hours)


def test_model_gradients_match_fd_through_decode():
    model = PolicyModel.init(PolicyConfig(width=8, heads=1, enc_layers=1,
                                          dec_layers=1, ffn_hidden=8), seed=13)
    rng = np.random.default_rng(6)
    comp = rng.normal(size=(3, COMP_FEATURES))
    crew = rng.normal(size=(2, 6))
    mask = np.ones(6, dtype=bool)
    mask[2] = False

    def loss_value():
        logp, value = model.step(model.attend(model.encode(comp)), crew, mask)
        return ad.take_along_last(
            logp.reshape((1, 6)), np.array([[1]])).sum() + value * 0.7

    out = loss_value()
    out.backward()
    rng_probe = np.random.default_rng(7)
    for name in ("enc.embed.W", "dec.0.cross.Wq", "ptr.Wk", "val.W1"):
        t = model.params[name]
        flat = t.data.reshape(-1)
        idx = int(rng_probe.integers(flat.size))
        eps = 1e-6
        orig = flat[idx]
        flat[idx] = orig + eps
        hi = loss_value().item()
        flat[idx] = orig - eps
        lo = loss_value().item()
        flat[idx] = orig
        want = (hi - lo) / (2 * eps)
        got = t.grad.reshape(-1)[idx]
        assert got == pytest.approx(want, rel=1e-5, abs=1e-9), name


def reference_ppo_loss(model, roll, adv, returns):
    """The PPO loss as one graph per decision step, summed and averaged."""
    T, B = roll.actions.shape
    memory = model.encode(roll.comp_feats)
    total = None
    for t in range(T):
        logp_t, v_t = model.step(model.attend(memory), roll.crew_feats[t],
                                 roll.masks[t])
        sel = ad.take_along_last(logp_t, roll.actions[t][:, None]).reshape(B)
        ratio = (sel - ad.Tensor(roll.old_logp[t])).exp()
        adv_t = ad.Tensor(adv[t])
        surrogate = _minimum(ratio * adv_t,
                             _clip(ratio, 1.0 - CLIP, 1.0 + CLIP) * adv_t)
        diff = v_t - ad.Tensor(returns[t])
        safe_logp = ad.where_const(roll.masks[t], logp_t, 0.0)
        entropy = -(logp_t.exp() * safe_logp).sum(axis=-1).mean()
        term = (-surrogate.mean() + VALUE_COEF * (diff * diff).mean()
                - ENTROPY_COEF * entropy)
        total = term if total is None else total + term
    return total * (1.0 / T)


def test_ppo_loss_graph_matches_per_step_reference():
    fam = InstanceFamily(n_min=5, n_max=5, depot_count=2, crews_per_depot=2)
    rng = np.random.default_rng(8)
    encs = [encode_instance(fam.sample_instance(rng)) for _ in range(4)]
    roll = run_batch(PolicyModel.init(TINY, seed=15), encs, rng)
    returns = np.cumsum(roll.rewards[::-1], axis=0)[::-1]
    adv = returns - roll.values
    adv = (adv - adv.mean()) / adv.std()
    # a different model than the one that acted, so ratios leave the clip
    model = PolicyModel.init(TINY, seed=16)
    const = model.constant()
    logp, _ = const.step(const.attend(const.encode(roll.comp_feats)),
                         roll.crew_feats, roll.masks)
    ratio = np.exp(np.take_along_axis(logp.data, roll.actions[..., None],
                                      axis=-1)[..., 0] - roll.old_logp)
    assert np.any(np.abs(ratio - 1.0) > CLIP)  # the clipped branch is taken
    grads = []
    for loss_fn in (_ppo_loss, reference_ppo_loss):
        for t in model.params.values():
            t.grad = None
        loss = loss_fn(model, roll, adv, returns)
        loss.backward()
        grads.append((loss.item(), {k: t.grad for k, t in
                                    model.params.items()}))
    (got, got_g), (want, want_g) = grads
    assert got == pytest.approx(want, rel=1e-12)
    for k in want_g:
        np.testing.assert_allclose(got_g[k], want_g[k], rtol=1e-9,
                                   atol=1e-13, err_msg=k)


def test_ppo_short_run_trains_and_reports():
    fam = InstanceFamily(n_min=3, n_max=3, depot_count=2, crews_per_depot=1)
    model = PolicyModel.init(TINY, seed=14)
    before = model.clone_params()
    trace = ppo_train(model, fam, PpoConfig(iterations=4, batch_size=6,
                                            seed=0))
    assert trace.iterations_run == 4
    assert len(trace.mean_return) == 4
    assert all(np.isfinite(r) for r in trace.mean_return)
    assert len(trace.seconds) == 4 and all(s > 0 for s in trace.seconds)
    assert not trace.aborted
    changed = any(not np.array_equal(before[k], t.data)
                  for k, t in model.params.items())
    assert changed


def test_ppo_update_peak_memory_stays_near_the_live_set(monkeypatch):
    """One PPO iteration on the benchmark's policy config (default model,
    size-7 instances, batch 16, seed 5) under tracemalloc. Backward
    releases the graph as it walks it, so the traced peak stays within
    1.3x of the bytes live when the first backward starts; a graph kept
    alive until the next epoch's loss replaces it peaks at 2.76x."""
    model = PolicyModel.init(PolicyConfig(), seed=5)
    live = []
    backward = ad.Tensor.backward

    def recording_backward(self):
        if not live:
            live.append(tracemalloc.get_traced_memory()[0])
        backward(self)

    monkeypatch.setattr(ad.Tensor, "backward", recording_backward)
    tracemalloc.start()
    try:
        ppo_train(model, InstanceFamily(n_min=7, n_max=7),
                  PpoConfig(iterations=1, batch_size=16, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * live[0], (peak, live[0])


def test_instance_family_sampling_deterministic():
    fam = InstanceFamily(n_min=2, n_max=8)
    a = fam.sample_instance(np.random.default_rng(42))
    b = fam.sample_instance(np.random.default_rng(42))
    assert [c.id for c in a.components] == [c.id for c in b.components]
    assert [(c.x, c.y, c.repair_hours, c.curtailed_mw)
            for c in a.components] == [(c.x, c.y, c.repair_hours,
                                        c.curtailed_mw)
                                       for c in b.components]
    assert 2 <= len(a.components) <= 8
