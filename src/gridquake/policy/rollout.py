"""Episode simulation for the dispatch policy: instance feature encoding
and one simulator, `run_batch`, that runs B episodes in lockstep.

An episode schedules one failed component per step. Within a round every
crew acts at most once; when no (idle crew, feasible component) pair is
left, the round resets. Components are only feasible for crews of their
nearest depot, and legs take the travel times of the instance's compiled
form, the same clustering and travel matrix the other solvers read.

`run_batch` holds each distinct instance once, encodes it once and indexes
its arrays per row. Training samples every row of a batch of same-size
instances, one row each. Inference (`policy_dispatch`) decodes one
instance on 1 + samples rows, with row 0 greedy and the other rows
sampled, and keeps the best plan (POMO-style shared decoding, Kwon et al.,
arXiv:2010.16011).
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
    """What the policy computes from an instance: its normalized features.
    Ids, clusters and travel times are the instance's compiled form."""

    instance: DispatchInstance
    comp_feats: np.ndarray  # (n, COMP_FEATURES)
    node_xy: np.ndarray  # (n + depots, 2) normalized, the travel matrix's nodes
    time_scale: float


def encode_instance(instance: DispatchInstance) -> InstanceEncoding:
    compiled = instance.compiled
    comps = instance.components
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

    xy_n = (node_xy - origin) / scale
    depot_dist = np.hypot(*(comp_xy - depot_xy[compiled.depot_of]).T) / scale
    t_norm = repair / max(float(repair.max()), 1e-9) if n else repair
    cl_norm = cl / max(float(cl.max()), 1e-9) if n else cl
    comp_feats = np.column_stack([xy_n[:n, 0], xy_n[:n, 1], t_norm, cl_norm,
                                  depot_dist]) if n else np.zeros((0, 5))

    return InstanceEncoding(instance=instance, comp_feats=comp_feats,
                            node_xy=xy_n, time_scale=time_scale)


@dataclass
class BatchRollout:
    """Stacked episode data for one homogeneous batch (same n and depot
    count) of I instances on B rows. Shapes: comp_feats (I, n, F), one
    per instance; per-step arrays indexed [t]."""

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
              samples: int | None = None) -> BatchRollout:
    """Rollout of same-size instances in lockstep. Without `samples`, each
    encoding is one row and every row samples its action from the policy.
    With `samples`, `encs` holds one instance, decoded on 1 + samples rows:
    row 0 takes the argmax and draws nothing from `rng`, the others sample.
    Each instance is encoded once and its arrays are held once; row b reads
    instance b % len(encs).

    Rewards implement the shaped objective with the instances' shared
    gamma: each step pays -(1-gamma) * cl_j * completion_j, and the final
    step additionally pays -gamma * makespan, so episode return equals
    minus the dispatch objective.
    """
    shapes = {(len(e.comp_feats), len(e.instance.compiled.crew_ids),
               len(e.instance.depots), e.instance.gamma) for e in encs}
    if len(shapes) != 1 or (samples is not None and len(encs) != 1):
        raise ValueError("batch must be homogeneous in n, crews, depots and "
                         "gamma, and a sampled decode holds one instance")
    (n, m, _, gamma), = shapes
    B = len(encs) if samples is None else 1 + samples
    first = int(samples is not None)
    rows = np.arange(B)
    inst = rows % len(encs)  # each row's instance

    comp_feats = np.stack([e.comp_feats for e in encs])  # (I, n, F)
    # nothing is differentiated here, so run on constants: no graph
    model = model.constant()
    ctx = model.attend(model.encode(comp_feats))

    compiled = [e.instance.compiled for e in encs]
    node_xy = np.stack([e.node_xy for e in encs])  # (I, nodes, 2)
    travel = np.stack([c.travel for c in compiled])  # (I, nodes, nodes)
    repair = np.stack([c.repair for c in compiled])  # (I, n)
    curtailed = np.stack([c.weight for c in compiled])  # (I, n)
    time_scale = np.array([e.time_scale for e in encs])[inst, None]  # (B, 1)
    cluster = np.stack([c.crew_depot[:, None] == c.depot_of
                        for c in compiled])[inst]  # (B, m, n)
    # every crew starts at its depot's node
    crew_loc = n + np.stack([c.crew_depot for c in compiled])[inst]  # (B, m)
    home_xy = node_xy[inst[:, None], crew_loc]  # (B, m, 2)
    crew_time = np.zeros((B, m))
    scheduled = np.zeros((B, n), dtype=bool)
    used = np.zeros((B, m), dtype=bool)

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
        feats[..., 0:2] = home_xy
        feats[..., 2:4] = node_xy[inst[:, None], crew_loc]
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

        leg = travel[inst, crew_loc[rows, ii], jj]
        done = crew_time[rows, ii] + leg + repair[inst, jj]
        crew_time[rows, ii] = done
        crew_loc[rows, ii] = jj
        used[rows, ii] = True
        scheduled[rows, jj] = True

        reward = -(1.0 - gamma) * curtailed[inst, jj] * done

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
    roll = run_batch(model, [encode_instance(instance)],
                     np.random.default_rng(seed), samples=samples)

    n = len(instance.components)
    crew_ids = instance.compiled.crew_ids
    best = None
    for row in roll.actions.T:
        routes = {cid: [] for cid in crew_ids}
        for a in row:
            i, j = divmod(int(a), n)
            routes[crew_ids[i]].append(instance.components[j].id)
        plan = schedule_plan(instance, routes)
        obj = plan_objective(instance, plan)
        if best is None or obj.value < best[1].value:
            best = (plan, obj)
    return PolicyResult(plan=best[0], objective=best[1], decodes=samples + 1)
