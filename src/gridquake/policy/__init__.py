"""Learned dispatch policy: numpy autodiff, attention model, PPO training."""

from .nn import PolicyConfig, PolicyModel
from .rollout import (InstanceEncoding, PolicyResult, encode_instance,
                      policy_dispatch)
from .train import InstanceFamily, PpoConfig, TrainTrace, ppo_train

__all__ = [
    "PolicyConfig", "PolicyModel", "InstanceEncoding", "PolicyResult",
    "encode_instance", "policy_dispatch",
    "InstanceFamily", "PpoConfig", "TrainTrace", "ppo_train",
]
