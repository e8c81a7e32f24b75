"""Attention-based dispatch policy network.

Encoder: failed components as an unordered token set (no positional
encoding), embedded from per-instance-normalized features and refined by
post-norm transformer layers. Decoder: one token per crew reflecting its
current position, elapsed time, and remaining cluster work; self-attention
over crews, cross-attention into the encoder memory, then a pointer head
scoring every (crew, component) pair with 10*tanh-clipped logits. A value
head for PPO pools the encoder memory and decoder crew states.

Multi-head attention treats the heads as an axis (Vaswani et al.,
arXiv:1706.03762): `Wq`, `Wk` and `Wv` are each one (d, h*d_k) matrix, so
an attention is one product per projection, one batched score product over
(..., h, L, d_k), one softmax, one `attn @ v` and one `Wo`, whatever the
head count. Layer norm is one fused autodiff op.

The memory is fixed for a whole episode, so its side of the decoder (the
cross-attention keys and values, the pointer keys and the pooled memory)
is projected once by `attend` and read by every `step` (Kool et al.,
arXiv:1803.08475, compute an instance's fixed context the same way).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError
from ..model import read_record, record_document
from . import autodiff as ad
from .autodiff import Tensor

COMP_FEATURES = 5  # x, y, repair, curtailment, depot distance
CREW_FEATURES = 6  # depot x, depot y, cur x, cur y, time, jobs left


@dataclass(frozen=True)
class PolicyConfig:
    width: int = 64
    heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_hidden: int = 128
    score_clip: float = 10.0

    def __post_init__(self):
        for name in ("width", "heads", "ffn_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("enc_layers", "dec_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.width % self.heads != 0:
            raise ConfigError("width must be divisible by heads")

    @property
    def d_head(self) -> int:
        return self.width // self.heads


def _glorot(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _heads_as_columns(w: np.ndarray) -> np.ndarray:
    """Per-head weights (h, d, d_k) as one (d, h*d_k) matrix whose columns
    run head by head."""
    h, d, dk = w.shape
    return w.transpose(1, 0, 2).reshape(d, h * dk)


def _attn_params(rng, d, h, dk, prefix, params):
    for name in ("Wq", "Wk", "Wv"):
        params[f"{prefix}.{name}"] = Tensor(
            _heads_as_columns(_glorot(rng, d, dk, (h, d, dk))),
            requires_grad=True)
    params[f"{prefix}.Wo"] = Tensor(_glorot(rng, h * dk, d, (h * dk, d)), requires_grad=True)


def _ln_params(rng, d, prefix, params):
    params[f"{prefix}.g"] = Tensor(np.ones(d), requires_grad=True)
    params[f"{prefix}.b"] = Tensor(np.zeros(d), requires_grad=True)


def _ffn_params(rng, d, hidden, prefix, params):
    params[f"{prefix}.W1"] = Tensor(_glorot(rng, d, hidden, (d, hidden)), requires_grad=True)
    params[f"{prefix}.b1"] = Tensor(np.zeros(hidden), requires_grad=True)
    params[f"{prefix}.W2"] = Tensor(_glorot(rng, hidden, d, (hidden, d)), requires_grad=True)
    params[f"{prefix}.b2"] = Tensor(np.zeros(d), requires_grad=True)


class Attended(NamedTuple):
    """The memory side of the decoder, projected once per episode.

    cross: per decoder layer, one pair of all heads' transposed keys
    (..., h, d_k, n) and values (..., h, n, d_k); ptr_keys: pointer keys
    transposed (..., d, n); pooled: the memory's mean over components
    (..., d).
    """

    cross: list
    ptr_keys: Tensor
    pooled: Tensor


class PolicyModel:
    """Parameter container plus the differentiable forward passes."""

    def __init__(self, config: PolicyConfig, params: dict):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: PolicyConfig = PolicyConfig(), seed: int = 0) -> "PolicyModel":
        rng = np.random.default_rng(seed)
        d, h, dk, ffn = (config.width, config.heads, config.d_head,
                         config.ffn_hidden)
        p: dict[str, Tensor] = {}
        p["enc.embed.W"] = Tensor(_glorot(rng, COMP_FEATURES, d, (COMP_FEATURES, d)),
                                  requires_grad=True)
        p["enc.embed.b"] = Tensor(np.zeros(d), requires_grad=True)
        for i in range(config.enc_layers):
            _attn_params(rng, d, h, dk, f"enc.{i}.attn", p)
            _ln_params(rng, d, f"enc.{i}.ln1", p)
            _ffn_params(rng, d, ffn, f"enc.{i}.ffn", p)
            _ln_params(rng, d, f"enc.{i}.ln2", p)
        p["dec.embed.W"] = Tensor(_glorot(rng, CREW_FEATURES, d, (CREW_FEATURES, d)),
                                  requires_grad=True)
        p["dec.embed.b"] = Tensor(np.zeros(d), requires_grad=True)
        for i in range(config.dec_layers):
            _attn_params(rng, d, h, dk, f"dec.{i}.self", p)
            _ln_params(rng, d, f"dec.{i}.ln1", p)
            _attn_params(rng, d, h, dk, f"dec.{i}.cross", p)
            _ln_params(rng, d, f"dec.{i}.ln2", p)
            _ffn_params(rng, d, ffn, f"dec.{i}.ffn", p)
            _ln_params(rng, d, f"dec.{i}.ln3", p)
        p["ptr.Wq"] = Tensor(_glorot(rng, d, d, (d, d)), requires_grad=True)
        p["ptr.Wk"] = Tensor(_glorot(rng, d, d, (d, d)), requires_grad=True)
        p["val.W1"] = Tensor(_glorot(rng, 2 * d, ffn, (2 * d, ffn)), requires_grad=True)
        p["val.b1"] = Tensor(np.zeros(ffn), requires_grad=True)
        p["val.W2"] = Tensor(_glorot(rng, ffn, 1, (ffn, 1)), requires_grad=True)
        p["val.b2"] = Tensor(np.zeros(1), requires_grad=True)
        return cls(config, p)

    # --- building blocks ---

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}.g"],
                             self.params[f"{prefix}.b"])

    def _ffn(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        h = (x @ p[f"{prefix}.W1"] + p[f"{prefix}.b1"]).tanh()
        return h @ p[f"{prefix}.W2"] + p[f"{prefix}.b2"]

    def _split_heads(self, x: Tensor) -> Tensor:
        """(..., L, h*d_k) -> (..., h, L, d_k)."""
        c = self.config
        return x.reshape(x.shape[:-1] + (c.heads, c.d_head)).swapaxes(-3, -2)

    def _keys_values(self, kv_in: Tensor, prefix: str) -> tuple:
        """All heads' transposed keys (..., h, d_k, n) and values
        (..., h, n, d_k) of kv_in."""
        p = self.params
        return (self._split_heads(kv_in @ p[f"{prefix}.Wk"]).swapaxes(-1, -2),
                self._split_heads(kv_in @ p[f"{prefix}.Wv"]))

    def _attend(self, q_in: Tensor, kv: tuple, prefix: str) -> Tensor:
        p = self.params
        kt, v = kv
        q = self._split_heads(q_in @ p[f"{prefix}.Wq"])
        attn = ad.softmax((q @ kt) * (1.0 / math.sqrt(self.config.d_head)))
        heads = (attn @ v).swapaxes(-3, -2)  # (..., L, h, d_k)
        merged = heads.reshape(heads.shape[:-2] + (self.config.width,))
        return merged @ p[f"{prefix}.Wo"]

    def _mha(self, q_in: Tensor, kv_in: Tensor, prefix: str) -> Tensor:
        return self._attend(q_in, self._keys_values(kv_in, prefix), prefix)

    # --- forward passes ---

    def encode(self, comp_feats) -> Tensor:
        """Component features (..., n, COMP_FEATURES) -> memory (..., n, d)."""
        x = ad.as_tensor(comp_feats)
        h = x @ self.params["enc.embed.W"] + self.params["enc.embed.b"]
        for i in range(self.config.enc_layers):
            h = self._ln(h + self._mha(h, h, f"enc.{i}.attn"), f"enc.{i}.ln1")
            h = self._ln(h + self._ffn(h, f"enc.{i}.ffn"), f"enc.{i}.ln2")
        return h

    def attend(self, memory) -> Attended:
        """Project the encoder memory (..., n, d) for every decoding step."""
        memory = ad.as_tensor(memory)
        return Attended(
            cross=[self._keys_values(memory, f"dec.{i}.cross")
                   for i in range(self.config.dec_layers)],
            ptr_keys=(memory @ self.params["ptr.Wk"]).swapaxes(-1, -2),
            pooled=memory.mean(axis=-2))

    def step(self, ctx: Attended, crew_feats, mask: np.ndarray):
        """One scheduling decision from the projected memory.

        crew_feats (..., m, CREW_FEATURES), whose leading axes may add axes
        in front of the memory's (one per decision step in PPO); mask
        (..., m*n) boolean over flattened (crew, component) pairs.
        Returns (log_probs (..., m*n), value (...,)).
        """
        c = ad.as_tensor(crew_feats)
        h = c @ self.params["dec.embed.W"] + self.params["dec.embed.b"]
        for i in range(self.config.dec_layers):
            h = self._ln(h + self._mha(h, h, f"dec.{i}.self"), f"dec.{i}.ln1")
            h = self._ln(h + self._attend(h, ctx.cross[i], f"dec.{i}.cross"),
                         f"dec.{i}.ln2")
            h = self._ln(h + self._ffn(h, f"dec.{i}.ffn"), f"dec.{i}.ln3")

        d = self.config.width
        q = h @ self.params["ptr.Wq"]  # (..., m, d)
        raw = (q @ ctx.ptr_keys) * (1.0 / math.sqrt(d))
        scores = raw.tanh() * self.config.score_clip  # (..., m, n)
        m_crews = scores.shape[-2]
        n_comp = scores.shape[-1]
        flat = scores.reshape(scores.shape[:-2] + (m_crews * n_comp,))
        logp = ad.log_softmax(flat, mask)

        crews = h.mean(axis=-2)
        pooled = ad.broadcast_to(ctx.pooled, crews.shape)
        v = (ad.concat([pooled, crews], axis=-1) @ self.params["val.W1"]
             + self.params["val.b1"]).tanh()
        value = (v @ self.params["val.W2"] + self.params["val.b2"])
        value = value.reshape(value.shape[:-1])
        return logp, value

    def constant(self) -> "PolicyModel":
        """The same model over constant Tensors that share the parameter
        arrays: its forward passes record no graph."""
        return PolicyModel(self.config, {k: Tensor(t.data)
                                         for k, t in self.params.items()})

    # --- persistence ---

    def save(self, path: str):
        """Checkpoint: float64 arrays plus the config as a JSON blob.
        Round-trips bit-exactly."""
        arrays = {k: t.data for k, t in self.params.items()}
        config_blob = np.frombuffer(
            json.dumps(record_document(self.config),
                       sort_keys=True).encode("utf-8"),
            dtype=np.uint8).copy()
        with open(path, "wb") as fh:
            np.savez(fh, __config__=config_blob, **arrays)

    @classmethod
    def load(cls, path: str) -> "PolicyModel":
        """Read a `save` checkpoint. Every array must be one that
        `init(config)` makes, with its shape; attention weights stored per
        head as (h, d, d_k), the layout before heads became an axis, are
        read as one (d, h*d_k) matrix."""
        try:
            data = np.load(path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read model checkpoint {path!r}: {e}") from e
        with data:
            if "__config__" not in data.files:
                raise ConfigError(f"{path!r} is not a policy checkpoint")
            try:
                config = read_record(
                    PolicyConfig,
                    json.loads(bytes(data["__config__"]).decode("utf-8")),
                    "__config__")
                arrays = {k: data[k] for k in data.files if k != "__config__"}
            except (ConfigError, ValueError) as e:
                raise ConfigError(f"bad model checkpoint {path!r}: {e}") from e
        want = {k: t.data.shape for k, t in cls.init(config).params.items()}
        per_head = (config.heads, config.width, config.d_head)
        for k, a in arrays.items():
            if a.shape == per_head and k.endswith((".Wq", ".Wk", ".Wv")) \
                    and not k.startswith("ptr."):
                arrays[k] = _heads_as_columns(a)
        problems = [f"missing {k}" for k in want if k not in arrays]
        problems += [f"unknown {k}" for k in arrays if k not in want]
        problems += [f"{k} has shape {arrays[k].shape}, expected {shape}"
                     for k, shape in want.items()
                     if k in arrays and arrays[k].shape != shape]
        if problems:
            raise ConfigError(f"model checkpoint {path!r} does not match its "
                              f"config: {'; '.join(problems)}")
        return cls(config, {k: Tensor(arrays[k], requires_grad=True)
                            for k in want})

    def clone_params(self) -> dict:
        return {k: t.data.copy() for k, t in self.params.items()}
