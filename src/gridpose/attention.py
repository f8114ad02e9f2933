"""Sparse Sinkhorn-attention transformer encoder over flattened voxel sequences.

The encoder never materializes an L x L attention matrix. Each layer:

1. projects the binned sequence to queries/keys/values,
2. scores bin pairs through their query/key means (an N_b x N_b matrix),
3. relaxes that score matrix toward doubly stochastic form with
   log-space Sinkhorn iterations,
4. reorders the key/value bins with the relaxed matrix (soft convex
   mixing while training, hard row-argmax at inference),
5. lets each bin attend to a 2B-element window: its own elements plus
   its matched bin,
6. finishes with the usual residual + layer norm + feed-forward stack.

Score storage per layer is therefore N_b^2 + L*2B elements instead of
L^2; ``ScoreCounter`` instruments exactly that quantity (counting
query-key pairs once, independent of how many heads share them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, as_tensor, concat
from .conv import Conv3dLayer, conv3d_forward, init_conv3d
from .errors import ConfigError, NotDifferentiablePathError
from .grid import flatten_volume, merge_bins, partition_bins, unflatten_volume


@dataclass
class AttentionConfig:
    """Encoder hyperparameters; temperature defaults to sqrt(embed_dim)."""

    embed_dim: int = 256
    n_heads: int = 2
    bin_size: int = 128
    sinkhorn_iters: int = 8
    temperature: float | None = None
    n_layers: int = 1

    def __post_init__(self):
        if self.n_heads < 1:
            raise ConfigError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.embed_dim < 1 or self.embed_dim % self.n_heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} must be a positive multiple of n_heads {self.n_heads}")
        if self.bin_size < 1:
            raise ConfigError(f"bin_size must be >= 1, got {self.bin_size}")
        if self.sinkhorn_iters < 1:
            raise ConfigError(f"sinkhorn_iters must be >= 1, got {self.sinkhorn_iters}")
        if self.n_layers < 0:
            raise ConfigError(f"n_layers must be >= 0, got {self.n_layers}")
        if self.temperature is None:
            self.temperature = float(np.sqrt(self.embed_dim))
        if not self.temperature > 0:  # NaN included
            raise ConfigError(f"temperature must be positive, got {self.temperature}")

    @property
    def head_dim(self):
        return self.embed_dim // self.n_heads


@dataclass
class ScoreCounter:
    """Counts attention score elements (query-key pairs) actually computed."""

    correlation_elements: int = 0
    window_elements: int = 0

    @property
    def total(self):
        return self.correlation_elements + self.window_elements

    def reset(self):
        self.correlation_elements = 0
        self.window_elements = 0


@dataclass
class SinkhornResult:
    """Relaxed doubly-stochastic matrix and its log-space representation."""

    log_s: Tensor
    s: Tensor


def bin_means(bins_q, bins_k):
    """Mean query / key vector per bin: (N_b, B, e) -> two (N_b, e) arrays."""
    bins_q, bins_k = as_tensor(bins_q), as_tensor(bins_k)
    if bins_q.shape != bins_k.shape:
        raise ValueError(f"query bins {bins_q.shape} and key bins {bins_k.shape} disagree")
    return bins_q.mean(axis=1), bins_k.mean(axis=1)


def correlation_matrix(q_mean, k_mean, temperature=1.0, counter: ScoreCounter | None = None):
    """Bin-to-bin correlation R[i, j] = <q_mean[i], k_mean[j]> / temperature."""
    q_mean, k_mean = as_tensor(q_mean), as_tensor(k_mean)
    if q_mean.shape[1] != k_mean.shape[1]:
        raise ValueError("query and key means disagree on embedding size")
    r = (q_mean @ k_mean.transpose((1, 0))) * (1.0 / temperature)
    if counter is not None:
        counter.correlation_elements += q_mean.shape[0] * k_mean.shape[0]
    return r


def sinkhorn_normalize(r, n_iters):
    """Drive exp(r) toward a doubly stochastic matrix by alternating
    log-space row and column normalization.

    Starting from log S = r (S = exp(r)), each iteration subtracts the
    log-sum-exp over rows, then over columns. The fixed point is the same
    as the literal ratio normalization but stays stable for large |r|.
    Gradients flow through the unrolled iterations.
    """
    r = as_tensor(r)
    if r.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r.data)):
        raise ValueError("sinkhorn input must be finite")
    if n_iters < 1:
        raise ValueError(f"need at least one iteration, got {n_iters}")
    log_s = r
    for _ in range(n_iters):
        log_s = log_s - log_s.logsumexp(axis=1, keepdims=True)
        log_s = log_s - log_s.logsumexp(axis=0, keepdims=True)
    return SinkhornResult(log_s=log_s, s=log_s.exp())


def reorder_bins(bins, sink: SinkhornResult, mode="soft"):
    """Reorder a bin tensor with the relaxed permutation.

    soft: out[i] = sum_j S[i, j] * bins[j] (differentiable convex mixing).
    hard: out[i] = bins[argmax_j S[i, j]] (inference shortcut; refuses to
    run inside a graph that is being differentiated).
    """
    bins = as_tensor(bins)
    n_b, b, e = bins.shape
    if sink.s.shape != (n_b, n_b):
        raise ValueError(f"sinkhorn matrix {sink.s.shape} does not match {n_b} bins")
    if mode == "soft":
        mixed = sink.s @ bins.reshape(n_b, b * e)
        return mixed.reshape(n_b, b, e)
    if mode == "hard":
        if bins.requires_grad or sink.s.requires_grad:
            raise NotDifferentiablePathError(
                "hard bin reordering is not differentiable; use soft mode for training"
            )
        order = np.argmax(sink.s.data, axis=1)
        return Tensor(bins.data[order])
    raise ValueError(f"unknown reorder mode {mode!r}")


def windowed_attention(b_q, b_k, b_v, sorted_k, sorted_v, config: AttentionConfig,
                       w_o=None, counter: ScoreCounter | None = None):
    """Per-bin attention over the 2B-element window [local bin, matched bin].

    Multi-head scaled dot-product attention with scores Q K^T / sqrt(d)
    per head (d = head dim); heads are concatenated and, when given,
    mapped through w_o. Output shape (N_b, B, e).
    """
    b_q, b_k, b_v = as_tensor(b_q), as_tensor(b_k), as_tensor(b_v)
    sorted_k, sorted_v = as_tensor(sorted_k), as_tensor(sorted_v)
    n_b, b, e = b_q.shape
    n_h = config.n_heads
    d = config.head_dim
    if e != config.embed_dim:
        raise ValueError(f"bins carry {e} channels but config.embed_dim is {config.embed_dim}")

    k_cat = concat([b_k, sorted_k], axis=1)  # (N_b, 2B, e)
    v_cat = concat([b_v, sorted_v], axis=1)
    window = k_cat.shape[1]

    q = b_q.reshape(n_b, b, n_h, d).transpose((0, 2, 1, 3))  # (N_b, h, B, d)
    k = k_cat.reshape(n_b, window, n_h, d).transpose((0, 2, 3, 1))  # (N_b, h, d, 2B)
    v = v_cat.reshape(n_b, window, n_h, d).transpose((0, 2, 1, 3))  # (N_b, h, 2B, d)

    # a Python float scale keeps f32 scores f32; an np.float64 one promotes them
    scores = (q @ k) * float(1.0 / np.sqrt(d))  # (N_b, h, B, 2B)
    if counter is not None:
        counter.window_elements += n_b * b * window
    attn = scores.softmax(axis=-1)
    out = attn @ v  # (N_b, h, B, d)
    out = out.transpose((0, 2, 1, 3)).reshape(n_b, b, e)
    if w_o is not None:
        out = out @ as_tensor(w_o)
    return out


def dense_attention(seq, w_q, w_k, w_v, w_o, config: AttentionConfig):
    """Reference full attention over all L tokens (materializes L x L scores).

    Independent of the sparse path; used as an oracle and for the
    benchmark's dense side.
    """
    seq = as_tensor(seq)
    length, e = seq.shape
    n_h, d = config.n_heads, config.head_dim
    q = (seq @ as_tensor(w_q)).reshape(length, n_h, d).transpose((1, 0, 2))  # (h, L, d)
    k = (seq @ as_tensor(w_k)).reshape(length, n_h, d).transpose((1, 2, 0))  # (h, d, L)
    v = (seq @ as_tensor(w_v)).reshape(length, n_h, d).transpose((1, 0, 2))  # (h, L, d)
    scores = (q @ k) * float(1.0 / np.sqrt(d))  # (h, L, L)
    out = scores.softmax(axis=-1) @ v  # (h, L, d)
    out = out.transpose((1, 0, 2)).reshape(length, e)
    return out @ as_tensor(w_o)


# -- encoder weights -------------------------------------------------------


def _init_linear(fan_in, fan_out, rng):
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


@dataclass
class EncoderLayerWeights:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    def parameters(self, prefix):
        names = (
            "w_q", "w_k", "w_v", "w_o", "ln1_gain", "ln1_bias",
            "ff_w1", "ff_b1", "ff_w2", "ff_b2", "ln2_gain", "ln2_bias",
        )
        return {f"{prefix}.{n}": getattr(self, n) for n in names}


def init_encoder_layer(config: AttentionConfig, rng):
    e = config.embed_dim
    hidden = 4 * e
    return EncoderLayerWeights(
        w_q=_init_linear(e, e, rng),
        w_k=_init_linear(e, e, rng),
        w_v=_init_linear(e, e, rng),
        w_o=_init_linear(e, e, rng),
        ln1_gain=Tensor(np.ones(e), requires_grad=True),
        ln1_bias=Tensor(np.zeros(e), requires_grad=True),
        ff_w1=_init_linear(e, hidden, rng),
        ff_b1=Tensor(np.zeros(hidden), requires_grad=True),
        ff_w2=_init_linear(hidden, e, rng),
        ff_b2=Tensor(np.zeros(e), requires_grad=True),
        ln2_gain=Tensor(np.ones(e), requires_grad=True),
        ln2_bias=Tensor(np.zeros(e), requires_grad=True),
    )


@dataclass
class EncoderWeights:
    """Branch-(1) weights: embedding conv, positional table, encoder layers."""

    embed_conv: Conv3dLayer  # n_joints -> embed_dim, k=3
    pos_table: Tensor  # (L, embed_dim), learnable
    layers: list[EncoderLayerWeights] = field(default_factory=list)

    def parameters(self, prefix="encoder"):
        params = self.embed_conv.parameters(f"{prefix}.embed_conv")
        params[f"{prefix}.pos_table"] = self.pos_table
        for i, layer in enumerate(self.layers):
            params.update(layer.parameters(f"{prefix}.layer{i}"))
        return params


def init_encoder_weights(n_joints, dims, config: AttentionConfig, rng):
    length = int(np.prod(dims))
    if length % config.bin_size != 0:
        raise ConfigError(
            f"grid {tuple(dims)} flattens to L={length}, not divisible by bin_size {config.bin_size}"
        )
    return EncoderWeights(
        embed_conv=init_conv3d(n_joints, config.embed_dim, 3, rng),
        pos_table=Tensor(rng.normal(0.0, 0.02, size=(length, config.embed_dim)), requires_grad=True),
        layers=[init_encoder_layer(config, rng) for _ in range(config.n_layers)],
    )


# -- forward passes ------------------------------------------------------------


def layer_norm(x, gain, bias, eps=1e-5):
    x = as_tensor(x)
    m = x.mean(axis=-1, keepdims=True)
    centered = x - m
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * as_tensor(gain) + as_tensor(bias)


def feed_forward(x, weights: EncoderLayerWeights):
    hidden = (as_tensor(x) @ weights.ff_w1 + weights.ff_b1).relu()
    return hidden @ weights.ff_w2 + weights.ff_b2


def embed_volume(vol, weights: EncoderWeights, config: AttentionConfig):
    """Conv embedding + positional table + flatten + bin partition."""
    emb = conv3d_forward(vol, weights.embed_conv)  # (e, X, Y, Z)
    seq = flatten_volume(emb)
    if weights.pos_table.shape != seq.shape:
        raise ValueError(
            f"positional table {weights.pos_table.shape} does not match sequence {seq.shape}"
        )
    return partition_bins(seq + weights.pos_table, config.bin_size)


def attention_sublayer(bins, weights: EncoderLayerWeights, config: AttentionConfig,
                       mode="soft", counter: ScoreCounter | None = None):
    q = bins @ weights.w_q
    k = bins @ weights.w_k
    v = bins @ weights.w_v
    q_mean, k_mean = bin_means(q, k)
    r = correlation_matrix(q_mean, k_mean, config.temperature, counter)
    sink = sinkhorn_normalize(r, config.sinkhorn_iters)
    k_sorted = reorder_bins(k, sink, mode)
    v_sorted = reorder_bins(v, sink, mode)
    return windowed_attention(q, k, v, k_sorted, v_sorted, config, w_o=weights.w_o, counter=counter)


def encoder_layer_forward(bins, weights: EncoderLayerWeights, config: AttentionConfig,
                          mode="soft", counter: ScoreCounter | None = None):
    attn = attention_sublayer(bins, weights, config, mode, counter)
    x = layer_norm(bins + attn, weights.ln1_gain, weights.ln1_bias)
    x = layer_norm(x + feed_forward(x, weights), weights.ln2_gain, weights.ln2_bias)
    return x


def encoder_forward(vol, weights: EncoderWeights, config: AttentionConfig,
                    mode="soft", counter: ScoreCounter | None = None):
    """Full branch-(1) pass: volume (j, X, Y, Z) -> features (e, X, Y, Z)."""
    vol = as_tensor(vol)
    dims = vol.shape[1:]
    bins = embed_volume(vol, weights, config)
    for layer in weights.layers:
        bins = encoder_layer_forward(bins, layer, config, mode, counter)
    return unflatten_volume(merge_bins(bins), dims)
