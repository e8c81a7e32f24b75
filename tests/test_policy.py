"""Policy network and rollout tests: encoder symmetries, decision masking,
plan validity, checkpoint round trips, reward bookkeeping, and golden plans
for the batched decoder."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridquake.policy.autodiff as ad
from gridquake.dispatch import exact_dispatch, plan_objective, schedule_plan
from gridquake.errors import ConfigError
from gridquake.policy.nn import COMP_FEATURES, PolicyConfig, PolicyModel
from gridquake.policy.rollout import (encode_instance, policy_dispatch,
                                      run_batch)
from gridquake.policy.train import (InstanceFamily, PpoConfig, _clip,
                                    _minimum, _ppo_loss, ppo_train)

TINY = PolicyConfig(width=8, heads=2, enc_layers=1, dec_layers=1,
                    ffn_hidden=12)


def make_instance(seed=0, n=4, crews=1):
    fam = InstanceFamily(n_min=n, n_max=n, depot_count=2,
                         crews_per_depot=crews)
    return fam.sample_instance(np.random.default_rng(seed))


def routes_of(enc, actions):
    """Crew routes from one batch row's actions (crew * n + component)."""
    n = len(enc.comp_ids)
    routes = {cid: [] for cid in enc.crew_ids}
    for a in actions:
        i, j = divmod(int(a), n)
        routes[enc.crew_ids[i]].append(enc.comp_ids[j])
    return routes


def test_config_validates_head_divisibility():
    with pytest.raises(ConfigError):
        PolicyConfig(width=10, heads=4)


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
    logp, value = model.decode_step(memory, crew, mask)
    p = np.exp(logp.data)
    assert np.all(p[~mask] == 0.0)
    assert p[mask].sum() == pytest.approx(1.0)
    assert value.data.shape == ()


def test_greedy_episode_is_deterministic_and_valid():
    model = PolicyModel.init(TINY, seed=4)
    inst = make_instance(seed=5, n=5, crews=2)
    enc = encode_instance(inst)
    # the greedy row ignores the generator and the sampled rows beside it
    a = run_batch(model, [enc], np.random.default_rng(0), inst.gamma,
                  greedy_first=True)
    b = run_batch(model, [enc] * 3, np.random.default_rng(1), inst.gamma,
                  greedy_first=True)
    np.testing.assert_array_equal(a.actions[:, 0], b.actions[:, 0])
    plan = schedule_plan(inst, routes_of(enc, a.actions[:, 0]))
    assert plan.makespan_hours == pytest.approx(a.makespan[0])
    # each step's reward carries the completion time of the component it
    # scheduled; the last step also pays the makespan term
    step = a.rewards[:, 0].copy()
    step[-1] += inst.gamma * a.makespan[0]
    curtailed = {c.id: c.curtailed_mw for c in inst.components}
    n = len(enc.comp_ids)
    for t, action in enumerate(a.actions[:, 0]):
        cid = enc.comp_ids[int(action) % n]
        done = -step[t] / ((1.0 - inst.gamma) * curtailed[cid])
        assert plan.completion[cid] == pytest.approx(done)


def test_sampled_episodes_only_pick_feasible_pairs():
    model = PolicyModel.init(TINY, seed=6)
    inst = make_instance(seed=7, n=6, crews=1)
    enc = encode_instance(inst)
    roll = run_batch(model, [enc] * 10, np.random.default_rng(3), inst.gamma)
    T, B = roll.actions.shape
    assert (T, B) == (6, 10)
    # every action was allowed by the mask of its step
    picked = np.take_along_axis(roll.masks, roll.actions[..., None], axis=-1)
    assert picked.all()
    for b in range(B):
        # validates clusters and coverage
        plan = schedule_plan(inst, routes_of(enc, roll.actions[:, b]))
        assert set(plan.completion) == set(enc.comp_ids)


def test_policy_dispatch_best_of_decodes():
    model = PolicyModel.init(TINY, seed=8)
    inst = make_instance(seed=9, n=5, crews=2)
    greedy_only = policy_dispatch(model, inst, samples=0, seed=0)
    sampled = policy_dispatch(model, inst, samples=12, seed=0)
    assert sampled.decodes == 13
    assert sampled.objective.value <= greedy_only.objective.value + 1e-12
    check = plan_objective(inst, schedule_plan(inst, sampled.plan.routes))
    assert check.value == pytest.approx(sampled.objective.value, abs=1e-9)


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
    roll = run_batch(model, [enc] * (samples + 1), np.random.default_rng(seed),
                     inst.gamma, greedy_first=True)
    # schedule_plan raises unless each row routes every component once,
    # from its nearest depot
    values = [plan_objective(inst, schedule_plan(
        inst, routes_of(enc, roll.actions[:, b]))).value
        for b in range(samples + 1)]
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


def test_load_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.ones(3))
    with pytest.raises(ConfigError):
        PolicyModel.load(str(path))
    path2 = tmp_path / "junk.txt"
    path2.write_text("hello")
    with pytest.raises(ConfigError):
        PolicyModel.load(str(path2))


def test_batch_rewards_telescope_to_objective():
    model = PolicyModel.init(TINY, seed=12)
    gamma = 0.5
    fam = InstanceFamily(n_min=4, n_max=4, depot_count=2, crews_per_depot=1,
                         gamma=gamma)
    rng = np.random.default_rng(4)
    instances = [fam.sample_instance(rng) for _ in range(3)]
    encs = [encode_instance(i) for i in instances]
    batch = run_batch(model, encs, np.random.default_rng(5), gamma=gamma)
    assert batch.rewards.shape == (4, 3)
    returns = batch.rewards.sum(axis=0)
    for b, enc in enumerate(encs):
        # recover the routes this batch row took and score them
        routes = {cid: [] for cid in enc.crew_ids}
        m = len(enc.crew_ids)
        n = len(enc.comp_ids)
        for t in range(batch.actions.shape[0]):
            a = int(batch.actions[t, b])
            routes[enc.crew_ids[a // n]].append(enc.comp_ids[a % n])
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
        logp, value = model.decode_step(model.encode(comp), crew, mask)
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


def reference_ppo_loss(model, roll, adv, returns, config):
    """The PPO loss as one graph per decision step, summed and averaged."""
    T, B = roll.actions.shape
    memory = model.encode(roll.comp_feats)
    total = None
    for t in range(T):
        logp_t, v_t = model.decode_step(memory, roll.crew_feats[t],
                                        roll.masks[t])
        sel = ad.take_along_last(logp_t, roll.actions[t][:, None]).reshape(B)
        ratio = (sel - ad.Tensor(roll.old_logp[t])).exp()
        adv_t = ad.Tensor(adv[t])
        surrogate = _minimum(
            ratio * adv_t,
            _clip(ratio, 1.0 - config.clip, 1.0 + config.clip) * adv_t)
        diff = v_t - ad.Tensor(returns[t])
        safe_logp = ad.where_const(roll.masks[t], logp_t, 0.0)
        entropy = -(logp_t.exp() * safe_logp).sum(axis=-1).mean()
        term = (-surrogate.mean() + config.value_coef * (diff * diff).mean()
                - config.entropy_coef * entropy)
        total = term if total is None else total + term
    return total * (1.0 / T)


def test_ppo_loss_graph_matches_per_step_reference():
    fam = InstanceFamily(n_min=5, n_max=5, depot_count=2, crews_per_depot=2)
    rng = np.random.default_rng(8)
    encs = [encode_instance(fam.sample_instance(rng)) for _ in range(4)]
    roll = run_batch(PolicyModel.init(TINY, seed=15), encs, rng, fam.gamma)
    returns = np.cumsum(roll.rewards[::-1], axis=0)[::-1]
    adv = returns - roll.values
    adv = (adv - adv.mean()) / adv.std()
    config = PpoConfig(clip=0.1)
    # a different model than the one that acted, so ratios leave the clip
    model = PolicyModel.init(TINY, seed=16)
    grads = []
    for loss_fn in (_ppo_loss, reference_ppo_loss):
        for t in model.params.values():
            t.grad = None
        loss = loss_fn(model, roll, adv, returns, config)
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
    assert not trace.aborted
    changed = any(not np.array_equal(before[k], t.data)
                  for k, t in model.params.items())
    assert changed


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
