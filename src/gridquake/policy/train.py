"""PPO training for the dispatch policy.

Rewards are shaped so an episode's return telescopes to minus the dispatch
objective: each scheduling step pays the curtailment-weighted completion
term, and the last step additionally pays the makespan term. Updates are
clipped-surrogate PPO with a value head and an entropy bonus, full-batch
over a homogeneous batch of same-size instances (one size drawn per
iteration so rollouts stack into rectangular tensors). Each epoch scores
all T steps of the rollout in one graph and one backward: the memory is
encoded and projected once, on (B, n, d), and every step reads it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..dispatch import DispatchInstance, FailedComponent
from ..model import Depot, check
from . import autodiff as ad
from .autodiff import Adam, Tensor
from .nn import PolicyModel
from .rollout import encode_instance, run_batch


# the sampled instances' service area (a square), repair hours and
# curtailed load range; crew speed and gamma are DispatchInstance's defaults
AREA_KM = 30.0
REPAIR_CHOICES = (1.0, 2.0)
CURTAILED_MIN, CURTAILED_MAX = 0.5, 5.0

# PPO's fixed settings (Schulman et al., arXiv:1707.06347): epochs per
# rollout, the ratio clip, and the value and entropy weights of the loss
EPOCHS = 4
CLIP = 0.2
VALUE_COEF = 0.5
ENTROPY_COEF = 0.01
# ppo_train's divergence guard: a window of mean returns, and how many of
# its interquartile ranges below its minimum count as a collapse
DIVERGENCE_WINDOW = 21
DIVERGENCE_IQRS = 5.0


@dataclass(frozen=True)
class InstanceFamily:
    """Random dispatch instances on a square service area."""

    n_min: int = 5
    n_max: int = 8
    depot_count: int = 2
    crews_per_depot: int = 1

    def __post_init__(self):
        check(("n_min", self.n_min, self.n_min >= 1, ">= 1"),
              ("n_max", self.n_max, self.n_max >= self.n_min, ">= n_min"),
              ("depot_count", self.depot_count, self.depot_count >= 1, ">= 1"),
              ("crews_per_depot", self.crews_per_depot,
               self.crews_per_depot >= 1, ">= 1"))

    def sample_instance(self, rng: np.random.Generator,
                        n: int | None = None) -> DispatchInstance:
        if n is None:
            n = int(rng.integers(self.n_min, self.n_max + 1))
        depots = tuple(
            Depot(id=f"d{k + 1}",
                  x=float(rng.uniform(0, AREA_KM)),
                  y=float(rng.uniform(0, AREA_KM)),
                  crew_count=self.crews_per_depot)
            for k in range(self.depot_count))
        comps = tuple(
            FailedComponent(
                id=f"f{k + 1:03d}",
                x=float(rng.uniform(0, AREA_KM)),
                y=float(rng.uniform(0, AREA_KM)),
                repair_hours=float(REPAIR_CHOICES[
                    rng.integers(0, len(REPAIR_CHOICES))]),
                curtailed_mw=float(rng.uniform(CURTAILED_MIN, CURTAILED_MAX)),
            )
            for k in range(n))
        return DispatchInstance(components=comps, depots=depots)


@dataclass(frozen=True)
class PpoConfig:
    iterations: int = 500
    batch_size: int = 64
    lr: float = 3e-4
    seed: int = 0

    def __post_init__(self):
        check(("iterations", self.iterations, self.iterations >= 1, ">= 1"),
              ("batch_size", self.batch_size, self.batch_size >= 2, ">= 2"),
              ("lr", self.lr, math.isfinite(self.lr) and self.lr > 0,
               "finite and > 0"))


@dataclass
class TrainTrace:
    mean_return: list = field(default_factory=list)
    seconds: list = field(default_factory=list)  # wall time per iteration
    aborted: bool = False
    iterations_run: int = 0


def _minimum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data <= b.data
    return ad.where_const(take_a, a, 0.0) + ad.where_const(~take_a, b, 0.0)


def _clip(x: Tensor, lo: float, hi: float) -> Tensor:
    y = ad.where_const(x.data >= lo, x, lo)
    return ad.where_const(y.data <= hi, y, hi)


def _ppo_loss(model: PolicyModel, roll, adv: np.ndarray,
              returns: np.ndarray) -> Tensor:
    """Clipped surrogate, value and entropy loss, averaged over all T steps
    and B rows of a rollout in one graph. The memory is projected on
    (B, n, d) once; matmul broadcasts it over the (T, B) crew features."""
    T, B = roll.actions.shape
    ctx = model.attend(model.encode(roll.comp_feats))
    logp, v = model.step(ctx, roll.crew_feats, roll.masks)
    sel = ad.take_along_last(logp, roll.actions[..., None]).reshape((T, B))
    ratio = (sel - Tensor(roll.old_logp)).exp()
    adv_t = Tensor(adv)
    surrogate = _minimum(ratio * adv_t,
                         _clip(ratio, 1.0 - CLIP, 1.0 + CLIP) * adv_t)
    pi_loss = -surrogate.mean()

    diff = v - Tensor(returns)
    v_loss = (diff * diff).mean()

    safe_logp = ad.where_const(roll.masks, logp, 0.0)
    entropy = -(logp.exp() * safe_logp).sum(axis=-1).mean()
    return pi_loss + VALUE_COEF * v_loss - ENTROPY_COEF * entropy


def ppo_train(model: PolicyModel, family: InstanceFamily,
              config: PpoConfig = PpoConfig()) -> TrainTrace:
    """Train the model in place; returns the per-iteration return and wall
    time trace.

    Training aborts early (trace.aborted) if the mean return collapses more
    than DIVERGENCE_IQRS interquartile ranges below the minimum of the
    trailing window, which catches run-away updates without reacting to
    ordinary noise.
    """
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.params, lr=config.lr)
    trace = TrainTrace()

    for it in range(config.iterations):
        t0 = time.perf_counter()
        n = int(rng.integers(family.n_min, family.n_max + 1))
        encs = [encode_instance(family.sample_instance(rng, n))
                for _ in range(config.batch_size)]
        roll = run_batch(model, encs, rng)

        returns = np.cumsum(roll.rewards[::-1], axis=0)[::-1]  # (T, B)
        adv = returns - roll.values
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        for _ in range(EPOCHS):
            loss = _ppo_loss(model, roll, adv, returns)
            opt.zero_grad()
            loss.backward()
            opt.step()

        mean_ret = float(roll.rewards.sum(axis=0).mean())
        trace.mean_return.append(mean_ret)
        trace.seconds.append(time.perf_counter() - t0)
        trace.iterations_run = it + 1

        w = DIVERGENCE_WINDOW
        if len(trace.mean_return) > w:
            window = np.array(trace.mean_return[-(w + 1):-1])
            q75, q25 = np.percentile(window, [75, 25])
            floor = window.min() - DIVERGENCE_IQRS * (q75 - q25)
            if mean_ret < floor:
                trace.aborted = True
                break

    return trace
