"""Episode simulation for the dispatch policy: instance feature encoding
and one simulator, `run_batch`, that runs B episodes in lockstep.

An episode schedules one failed component per step. Within a round every
crew acts at most once; when no (idle crew, feasible component) pair is
left, the round resets. Components are only feasible for crews of their
nearest depot, and legs take the travel times of the instance's compiled
form, the same clustering and travel matrix the other solvers read.

Training samples every row of a batch of same-size instances. Inference
(`policy_dispatch`) runs one batch over copies of a single instance, with
row 0 decoded greedily and the other rows sampled, and keeps the best plan
(POMO-style shared decoding, Kwon et al., arXiv:2010.16011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dispatch import (DispatchInstance, DispatchPlan, ObjectiveBreakdown,
                        plan_objective, schedule_plan)
from ..errors import ConfigError
from .nn import CREW_FEATURES, PolicyModel


@dataclass
class InstanceEncoding:
    """Normalized features plus the raw geometry needed to simulate."""

    instance: DispatchInstance
    comp_ids: list
    node_xy: np.ndarray  # (n + depots, 2) km, the travel matrix's nodes
    comp_feats: np.ndarray  # (n, COMP_FEATURES)
    crew_ids: tuple
    cluster_mask: np.ndarray  # (m, n) bool
    origin: np.ndarray
    scale: float
    time_scale: float


def encode_instance(instance: DispatchInstance) -> InstanceEncoding:
    compiled = instance.compiled
    comps = instance.components
    comp_ids = [c.id for c in comps]
    n = len(comps)
    comp_xy = np.array([[c.x, c.y] for c in comps], dtype=float).reshape(n, 2)
    repair, cl = compiled.repair, compiled.weight

    depot_xy = np.array([[d.x, d.y] for d in instance.depots], dtype=float)
    node_xy = np.vstack([comp_xy, depot_xy])
    origin = node_xy.min(axis=0)
    span = node_xy.max(axis=0) - origin
    scale = max(float(span.max()), 1e-9)
    diag_hours = math.hypot(*span) / instance.travel_speed_kmh
    time_scale = max(float(repair.sum()) + (n + 1) * diag_hours, 1e-9)

    cluster_mask = compiled.crew_depot[:, None] == compiled.depot_of

    xy_n = (comp_xy - origin) / scale
    depot_dist = np.hypot(*(comp_xy - depot_xy[compiled.depot_of]).T) / scale
    t_norm = repair / max(float(repair.max()), 1e-9) if n else repair
    cl_norm = cl / max(float(cl.max()), 1e-9) if n else cl
    comp_feats = np.column_stack([xy_n[:, 0], xy_n[:, 1], t_norm, cl_norm,
                                  depot_dist]) if n else np.zeros((0, 5))

    return InstanceEncoding(
        instance=instance, comp_ids=comp_ids, node_xy=node_xy,
        comp_feats=comp_feats, crew_ids=compiled.crew_ids,
        cluster_mask=cluster_mask, origin=origin, scale=scale,
        time_scale=time_scale,
    )


@dataclass
class BatchRollout:
    """Stacked episode data for one homogeneous batch (same n and depot
    count). Shapes: comp_feats (B, n, F); per-step arrays indexed [t]."""

    comp_feats: np.ndarray
    crew_feats: np.ndarray  # (T, B, m, CREW_FEATURES)
    masks: np.ndarray  # (T, B, m*n)
    actions: np.ndarray  # (T, B)
    old_logp: np.ndarray  # (T, B)
    values: np.ndarray  # (T, B)
    rewards: np.ndarray  # (T, B)
    makespan: np.ndarray  # (B,)


def draw(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One action per row of probs (B, K), from one uniform per row.

    This is `Generator.choice(K, p=row)`'s own inverse-CDF algorithm run
    on all rows at once: it consumes the stream as B `choice` calls do and
    returns the same actions, bit for bit."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= rng.random(len(probs))[:, None]).sum(axis=1)


def run_batch(model: PolicyModel, encs: list, rng: np.random.Generator,
              greedy_first: bool = False) -> BatchRollout:
    """Rollout of B same-size instances in lockstep. Every row samples its
    action from the policy, except row 0 when `greedy_first`, which takes
    the argmax and draws nothing from `rng`.

    Rewards implement the shaped objective with the instances' shared
    gamma: each step pays -(1-gamma) * cl_j * completion_j, and the final
    step additionally pays -gamma * makespan, so episode return equals
    minus the dispatch objective.
    """
    B = len(encs)
    shapes = {(len(e.comp_ids), len(e.crew_ids), len(e.instance.depots),
               e.instance.gamma) for e in encs}
    if len(shapes) != 1:
        raise ValueError("batch must be homogeneous in n, crews, depots and "
                         "gamma")
    (n, m, _, gamma), = shapes

    comp_feats = np.stack([e.comp_feats for e in encs])  # (B, n, F)
    # nothing is differentiated here, so run on constants: no graph
    model = model.constant()
    ctx = model.attend(model.encode(comp_feats))

    scheduled = np.zeros((B, n), dtype=bool)
    used = np.zeros((B, m), dtype=bool)
    compiled = [e.instance.compiled for e in encs]
    node_xy = np.stack([e.node_xy for e in encs])  # (B, nodes, 2)
    home = n + np.stack([c.crew_depot for c in compiled])  # (B, m) nodes
    crew_loc = home.copy()
    crew_time = np.zeros((B, m))
    cluster = np.stack([e.cluster_mask for e in encs])  # (B, m, n)
    travel = np.stack([c.travel for c in compiled])  # (B, nodes, nodes)
    repair = np.stack([c.repair for c in compiled])  # (B, n)
    curtailed = np.stack([c.weight for c in compiled])  # (B, n)
    origin = np.stack([e.origin for e in encs])[:, None, :]  # (B, 1, 2)
    scale = np.array([e.scale for e in encs])[:, None, None]
    time_scale = np.array([e.time_scale for e in encs])[:, None]
    first = int(greedy_first)
    rows = np.arange(B)

    steps_feats, steps_masks, steps_actions = [], [], []
    steps_logp, steps_value, steps_reward = [], [], []

    for t in range(n):
        feas = (~used[:, :, None]) & (~scheduled[:, None, :]) & cluster
        flat = feas.reshape(B, m * n)
        need_reset = ~flat.any(axis=1)
        if need_reset.any():
            used[need_reset] = False
            feas = (~used[:, :, None]) & (~scheduled[:, None, :]) & cluster
            flat = feas.reshape(B, m * n)

        # crew tokens: depot xy, current xy, elapsed time, share of work left
        feats = np.zeros((B, m, CREW_FEATURES))
        feats[..., 0:2] = (node_xy[rows[:, None], home] - origin) / scale
        feats[..., 2:4] = (node_xy[rows[:, None], crew_loc] - origin) / scale
        feats[..., 4] = crew_time / time_scale
        feats[..., 5] = (cluster & ~scheduled[:, None, :]).sum(axis=2) / n
        logp_t, value_t = model.step(ctx, feats, flat)
        lp = logp_t.data

        probs = np.exp(lp)
        probs = probs / probs.sum(axis=1, keepdims=True)
        actions = np.empty(B, dtype=np.int64)
        actions[:first] = np.argmax(lp[:first], axis=1)
        actions[first:] = draw(probs[first:], rng)
        ii, jj = np.divmod(actions, n)

        leg = travel[rows, crew_loc[rows, ii], jj]
        done = crew_time[rows, ii] + leg + repair[rows, jj]
        crew_time[rows, ii] = done
        crew_loc[rows, ii] = jj
        used[rows, ii] = True
        scheduled[rows, jj] = True

        reward = -(1.0 - gamma) * curtailed[rows, jj] * done

        steps_feats.append(feats)
        steps_masks.append(flat)
        steps_actions.append(actions)
        steps_logp.append(lp[rows, actions])
        steps_value.append(value_t.data)
        steps_reward.append(reward)

    makespan = crew_time.max(axis=1)
    steps_reward[-1] = steps_reward[-1] - gamma * makespan

    return BatchRollout(
        comp_feats=comp_feats,
        crew_feats=np.stack(steps_feats),
        masks=np.stack(steps_masks),
        actions=np.stack(steps_actions),
        old_logp=np.stack(steps_logp),
        values=np.stack(steps_value),
        rewards=np.stack(steps_reward),
        makespan=makespan,
    )


@dataclass(frozen=True)
class PolicyResult:
    plan: DispatchPlan
    objective: ObjectiveBreakdown
    decodes: int  # rollouts evaluated (greedy + samples)


def policy_dispatch(
    model: PolicyModel, instance: DispatchInstance,
    samples: int, seed: int = 0,
) -> PolicyResult:
    """Best plan over one greedy decode plus `samples` stochastic decodes,
    run as one batch. Ties keep the earlier row, so the greedy plan wins
    them. An instance with no failed components gets the empty plan."""
    if samples < 0:
        raise ConfigError("samples must be >= 0")
    if not instance.components:
        plan = schedule_plan(instance, {})
        return PolicyResult(plan=plan, objective=plan_objective(instance, plan),
                            decodes=0)
    enc = encode_instance(instance)
    roll = run_batch(model, [enc] * (samples + 1),
                     np.random.default_rng(seed), greedy_first=True)

    n = len(enc.comp_ids)
    best = None
    for row in roll.actions.T:
        routes = {cid: [] for cid in enc.crew_ids}
        for a in row:
            i, j = divmod(int(a), n)
            routes[enc.crew_ids[i]].append(enc.comp_ids[j])
        plan = schedule_plan(instance, routes)
        obj = plan_objective(instance, plan)
        if best is None or obj.value < best[1].value:
            best = (plan, obj)
    return PolicyResult(plan=best[0], objective=best[1], decodes=samples + 1)
