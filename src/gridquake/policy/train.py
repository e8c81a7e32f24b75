"""PPO training for the dispatch policy.

Rewards are shaped so an episode's return telescopes to minus the dispatch
objective: each scheduling step pays the curtailment-weighted completion
term, and the last step additionally pays the makespan term. Updates are
clipped-surrogate PPO with a value head and an entropy bonus, full-batch
over a homogeneous batch of same-size instances (one size drawn per
iteration so rollouts stack into rectangular tensors). Each epoch scores
all T steps of the rollout in one `decode_step` graph and one backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dispatch import DispatchInstance, FailedComponent
from ..errors import ConfigError
from ..model import Depot
from . import autodiff as ad
from .autodiff import Adam, Tensor
from .nn import PolicyModel
from .rollout import encode_instance, run_batch


@dataclass(frozen=True)
class InstanceFamily:
    """Random dispatch instances on a square service area."""

    n_min: int = 5
    n_max: int = 8
    area_km: float = 30.0
    depot_count: int = 2
    crews_per_depot: int = 1
    repair_choices: tuple = (1.0, 2.0)
    curtailed_min: float = 0.5
    curtailed_max: float = 5.0
    travel_speed_kmh: float = 40.0
    gamma: float = 0.5

    def sample_instance(self, rng: np.random.Generator,
                        n: int | None = None) -> DispatchInstance:
        if n is None:
            n = int(rng.integers(self.n_min, self.n_max + 1))
        depots = tuple(
            Depot(id=f"d{k + 1}",
                  x=float(rng.uniform(0, self.area_km)),
                  y=float(rng.uniform(0, self.area_km)),
                  crew_count=self.crews_per_depot)
            for k in range(self.depot_count))
        comps = tuple(
            FailedComponent(
                id=f"f{k + 1:03d}",
                x=float(rng.uniform(0, self.area_km)),
                y=float(rng.uniform(0, self.area_km)),
                repair_hours=float(self.repair_choices[
                    rng.integers(0, len(self.repair_choices))]),
                curtailed_mw=float(rng.uniform(self.curtailed_min,
                                               self.curtailed_max)),
            )
            for k in range(n))
        return DispatchInstance(components=comps, depots=depots,
                                travel_speed_kmh=self.travel_speed_kmh,
                                gamma=self.gamma)


@dataclass(frozen=True)
class PpoConfig:
    iterations: int = 500
    batch_size: int = 64
    epochs: int = 4
    lr: float = 3e-4
    clip: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    seed: int = 0
    divergence_window: int = 21
    divergence_iqrs: float = 5.0


@dataclass
class TrainTrace:
    mean_return: list = field(default_factory=list)
    aborted: bool = False
    iterations_run: int = 0


def _minimum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data <= b.data
    return ad.where_const(take_a, a, 0.0) + ad.where_const(~take_a, b, 0.0)


def _clip(x: Tensor, lo: float, hi: float) -> Tensor:
    y = ad.where_const(x.data >= lo, x, lo)
    return ad.where_const(y.data <= hi, y, hi)


def _ppo_loss(model: PolicyModel, roll, adv: np.ndarray,
              returns: np.ndarray, config: PpoConfig) -> Tensor:
    """Clipped surrogate, value and entropy loss, averaged over all T steps
    and B rows of a rollout in one graph. The encoder output (B, n, d) is
    broadcast to (T, B, n, d) so the value head can pool it per step."""
    T, B = roll.actions.shape
    memory = model.encode(roll.comp_feats) + np.zeros((T, 1, 1, 1))
    logp, v = model.decode_step(memory, roll.crew_feats, roll.masks)
    sel = ad.take_along_last(logp, roll.actions[..., None]).reshape((T, B))
    ratio = (sel - Tensor(roll.old_logp)).exp()
    adv_t = Tensor(adv)
    surrogate = _minimum(
        ratio * adv_t,
        _clip(ratio, 1.0 - config.clip, 1.0 + config.clip) * adv_t)
    pi_loss = -surrogate.mean()

    diff = v - Tensor(returns)
    v_loss = (diff * diff).mean()

    safe_logp = ad.where_const(roll.masks, logp, 0.0)
    entropy = -(logp.exp() * safe_logp).sum(axis=-1).mean()
    return (pi_loss + config.value_coef * v_loss
            - config.entropy_coef * entropy)


def ppo_train(model: PolicyModel, family: InstanceFamily,
              config: PpoConfig = PpoConfig()) -> TrainTrace:
    """Train the model in place; returns the per-iteration return trace.

    Training aborts early (trace.aborted) if the mean return collapses more
    than `divergence_iqrs` interquartile ranges below the minimum of the
    trailing window, which catches run-away updates without reacting to
    ordinary noise.
    """
    if config.batch_size < 2:
        raise ConfigError("batch_size must be >= 2")
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.params, lr=config.lr)
    trace = TrainTrace()

    for it in range(config.iterations):
        n = int(rng.integers(family.n_min, family.n_max + 1))
        encs = [encode_instance(family.sample_instance(rng, n))
                for _ in range(config.batch_size)]
        roll = run_batch(model, encs, rng, family.gamma)

        returns = np.cumsum(roll.rewards[::-1], axis=0)[::-1]  # (T, B)
        adv = returns - roll.values
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        for _ in range(config.epochs):
            loss = _ppo_loss(model, roll, adv, returns, config)
            opt.zero_grad()
            loss.backward()
            opt.step()

        mean_ret = float(roll.rewards.sum(axis=0).mean())
        trace.mean_return.append(mean_ret)
        trace.iterations_run = it + 1

        w = config.divergence_window
        if len(trace.mean_return) > w:
            window = np.array(trace.mean_return[-(w + 1):-1])
            q75, q25 = np.percentile(window, [75, 25])
            floor = window.min() - config.divergence_iqrs * (q75 - q25)
            if mean_ret < floor:
                trace.aborted = True
                break

    return trace
