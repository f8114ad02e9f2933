"""Sparse Sinkhorn-attention transformer encoder over flattened voxel sequences.

The encoder never materializes an L x L attention matrix. Each layer:

1. projects the binned sequence to queries/keys/values,
2. scores bin pairs through their query/key means (an N_b x N_b matrix),
3. relaxes that score matrix toward doubly stochastic form with
   log-space Sinkhorn iterations,
4. reorders the key/value bins with the relaxed matrix (soft convex
   mixing while training, hard row-argmax at inference),
5. lets each bin attend to a 2B-element window: its own elements plus
   its matched bin. ``windowed_attention`` is one autodiff node: the local
   and matched bins are scored as two B x B blocks per head that share
   one row max and one softmax denominator, so the window is never
   concatenated,
6. finishes with residual + layer norm + feed-forward + residual + layer
   norm. ``layer_norm`` (which takes the residual add as an operand) and
   ``feed_forward`` are single autodiff nodes with closed-form backwards.
   Their backwards compute every input's gradient (see ``autodiff``).

Score storage per layer is therefore N_b^2 + L*2B elements instead of
L^2; ``ScoreCounter`` instruments exactly that quantity (counting
query-key pairs once, independent of how many heads share them). The
fused nodes run the same code with or without a graph. The window's
blocks are computed a few bins at a time and exponentiated in place; it
keeps only each row's max and softmax denominator, and the backward
recomputes the blocks tile by tile (FlashAttention, Dao et al. 2022). The
feed-forward runs over row tiles in one tile-sized hidden buffer, and its
backward recomputes each tile's hidden rows (checkpointing, Chen et al.
2016).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, as_tensor
from .conv import Conv3dLayer, conv3d_forward, init_conv3d
from .errors import ConfigError, NotDifferentiablePathError, NumericError
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

    Starting from log S = r (S = exp(r)), each iteration takes the
    log-softmax over rows, then over columns: one graph node per
    half-iteration. The fixed point is the same as the literal ratio
    normalization but stays stable for large |r|. Returns the relaxed
    matrix S = exp(log S) as a Tensor; gradients flow through the unrolled
    iterations.
    """
    r = as_tensor(r)
    if r.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r.data)):
        raise NumericError("sinkhorn input must be finite")
    if n_iters < 1:
        raise ValueError(f"need at least one iteration, got {n_iters}")
    log_s = r
    for _ in range(n_iters):
        log_s = log_s.log_softmax(axis=1)
        log_s = log_s.log_softmax(axis=0)
    return log_s.exp()


def reorder_bins(bins, s, mode="soft"):
    """Reorder a bin tensor with the relaxed permutation `s` (N_b, N_b).

    soft: out[i] = sum_j S[i, j] * bins[j] (differentiable convex mixing).
    hard: out[i] = bins[argmax_j S[i, j]] (inference shortcut; refuses to
    run inside a graph that is being differentiated).
    """
    bins, s = as_tensor(bins), as_tensor(s)
    n_b, b, e = bins.shape
    if s.shape != (n_b, n_b):
        raise ValueError(f"sinkhorn matrix {s.shape} does not match {n_b} bins")
    if mode == "soft":
        mixed = s @ bins.reshape(n_b, b * e)
        return mixed.reshape(n_b, b, e)
    if mode == "hard":
        # a forward-pass safety check: argmax has no gradient
        if bins.requires_grad or s.requires_grad:
            raise NotDifferentiablePathError(
                "hard bin reordering is not differentiable; use soft mode for training"
            )
        order = np.argmax(s.data, axis=1)
        return Tensor(bins.data[order])
    raise ValueError(f"unknown reorder mode {mode!r}")


def _split_heads(x, n_heads):
    """(N_b, B, e) array -> (N_b, h, B, d) view: one (B, d) block per bin and head."""
    n_b, b, e = x.shape
    return x.reshape(n_b, b, n_heads, e // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    """(N_b, h, B, d) array -> (N_b, B, h*d) array, the inverse of `_split_heads`."""
    n_b, n_h, b, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n_b, b, n_h * d)


def _swap_last(x):
    """Swap the last two axes (a view)."""
    return x.swapaxes(-1, -2)


# Bins per tile of `windowed_attention`. A tile's two (tile, h, B, B) score
# blocks stay in cache from the scores through the value products, and no
# call, with or without a graph, holds a full-size block; at 108 bins of 128
# (e=128, 2 heads) tiles of 1 or 2 bins were the fastest.
WINDOW_TILE_BINS = 2


def windowed_attention(b_q, b_k, b_v, sorted_k, sorted_v, config: AttentionConfig,
                       w_o, counter: ScoreCounter | None = None):
    """Per-bin attention over the 2B-element window [local bin, matched bin].

    Multi-head scaled dot-product attention with scores Q K^T / sqrt(d)
    per head (d = head dim); heads are concatenated and mapped through
    w_o. All five inputs are (N_b, B, e); output (N_b, B, e).

    One autodiff node up to w_o, computed `WINDOW_TILE_BINS` bins at a
    time. Per tile, the 1/sqrt(d) scale is folded into Q, the local and
    matched bins are scored as two (tile, h, B, B) blocks that share one
    row max and one softmax denominator (the log-sum-exp identity of online
    softmax), and the denominator divides the summed value products in the
    output. Only the (N_b, h, B, 1) row maxima and denominators are kept
    whole: the backward pass (the softmax-attention adjoint with
    1/denominator folded into the output gradient) runs over the same
    tiles, recomputes each tile's scaled queries and exponentiated blocks
    with the forward pass's ops, so they are the same bit for bit
    (FlashAttention, Dao et al. 2022), reads the heads back from the
    output, and writes the input gradients tile by tile.
    """
    b_q, b_k, b_v = as_tensor(b_q), as_tensor(b_k), as_tensor(b_v)
    sorted_k, sorted_v = as_tensor(sorted_k), as_tensor(sorted_v)
    for name, t in (("b_k", b_k), ("b_v", b_v), ("sorted_k", sorted_k), ("sorted_v", sorted_v)):
        if t.shape != b_q.shape:
            raise ValueError(f"{name} has shape {t.shape}, query bins {b_q.shape}")
    n_b, b, e = b_q.shape
    n_h = config.n_heads
    if e != config.embed_dim:
        raise ValueError(f"bins carry {e} channels but config.embed_dim is {config.embed_dim}")

    inputs = (b_q, b_k, b_v, sorted_k, sorted_v)
    dtype = np.result_type(*(t.data for t in inputs))
    tile = WINDOW_TILE_BINS
    # a Python float scale keeps f32 scores f32; an np.float64 one promotes them
    scale = float(1.0 / np.sqrt(config.head_dim))
    q_data = b_q.data
    q_node, k_node, v_node, sorted_k_node, sorted_v_node = (t._node for t in inputs)
    k_loc, k_match = _split_heads(b_k.data, n_h), _split_heads(sorted_k.data, n_h)
    v_loc, v_match = _split_heads(b_v.data, n_h), _split_heads(sorted_v.data, n_h)
    row_max = np.empty((n_b, n_h, b, 1), dtype=dtype)
    denom = np.empty_like(row_max)

    def tiles(fresh):
        """Yield (lo, hi, scaled queries, p_loc, p_match) per tile: the
        two blocks exponentiated in place in one pass's tile-sized buffers.
        A `fresh` pass (the forward) stores the rows' max over both blocks;
        the backward pass subtracts the stored one."""
        p_loc = np.empty((min(tile, n_b), n_h, b, b), dtype=dtype)
        p_match = np.empty_like(p_loc)
        for lo in range(0, n_b, tile):
            hi = min(lo + tile, n_b)
            q_t = _split_heads(q_data[lo:hi] * scale, n_h)  # (tile, h, B, d)
            p_loc_t, p_match_t = p_loc[:hi - lo], p_match[:hi - lo]
            np.matmul(q_t, _swap_last(k_loc[lo:hi]), out=p_loc_t)
            np.matmul(q_t, _swap_last(k_match[lo:hi]), out=p_match_t)
            if fresh:
                np.maximum(p_loc_t.max(axis=-1, keepdims=True), p_match_t.max(axis=-1, keepdims=True),
                           out=row_max[lo:hi])
            for p in (p_loc_t, p_match_t):
                p -= row_max[lo:hi]
                np.exp(p, out=p)
            yield lo, hi, q_t, p_loc_t, p_match_t

    out = np.empty((n_b, b, e), dtype=dtype)
    heads = _split_heads(out, n_h)  # (N_b, h, B, d) view
    for lo, hi, _, p_loc_t, p_match_t in tiles(fresh=True):
        np.add(p_loc_t.sum(axis=-1, keepdims=True), p_match_t.sum(axis=-1, keepdims=True), out=denom[lo:hi])
        # summed in a contiguous temporary: one pass over the strided output
        heads_t = p_loc_t @ v_loc[lo:hi]
        heads_t += p_match_t @ v_match[lo:hi]
        np.divide(heads_t, denom[lo:hi], out=heads[lo:hi])
    if counter is not None:
        counter.window_elements += n_b * b * 2 * b

    def backward(g):
        g_split = _split_heads(g, n_h)
        for lo, hi, q_t, p_loc_t, p_match_t in tiles(fresh=False):
            r = slice(lo, hi)
            g_heads = g_split[lo:hi] / denom[r]
            row_dot = (g_heads * heads[lo:hi]).sum(axis=-1, keepdims=True)
            d_q = None
            for p, k, v, src_k, src_v in ((p_loc_t, k_loc, v_loc, k_node, v_node),
                                          (p_match_t, k_match, v_match, sorted_k_node, sorted_v_node)):
                src_v.accumulate_at(r, _merge_heads(_swap_last(p) @ g_heads))
                d_scores = g_heads @ _swap_last(v[lo:hi])
                d_scores -= row_dot
                d_scores *= p
                src_k.accumulate_at(r, _merge_heads(_swap_last(d_scores) @ q_t))
                if d_q is None:
                    d_q = d_scores @ k[lo:hi]
                else:
                    d_q += d_scores @ k[lo:hi]
            d_q *= scale
            q_node.accumulate_at(r, _merge_heads(d_q))

    return Tensor._make(out, inputs, backward) @ as_tensor(w_o)


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


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, bias, residual):
    """Normalize x + residual (the post-norm residual add) over the last
    axis, then scale by `gain` and shift by `bias`.

    One autodiff node with the closed-form backward (Ba et al. 2016):
    dx = (dy*gain - mean(dy*gain) - xhat * mean(dy*gain * xhat)) / std.
    """
    x, gain, bias, residual = as_tensor(x), as_tensor(gain), as_tensor(bias), as_tensor(residual)
    normed = x.data + residual.data
    normed -= normed.mean(axis=-1, keepdims=True)
    n = normed.shape[-1]
    var = np.einsum("...i,...i->...", normed, normed)[..., None] / n
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normed *= inv_std
    out = normed * gain.data
    out += bias.data
    gain_data = gain.data
    x_node, residual_node, gain_node, bias_node = (t._node for t in (x, residual, gain, bias))

    def backward(g):
        gain_node.accumulate((g * normed).reshape(-1, n).sum(axis=0))
        bias_node.accumulate(g.reshape(-1, n).sum(axis=0))
        dx = g * gain_data
        mean_dx = dx.mean(axis=-1, keepdims=True)
        proj = (dx * normed).mean(axis=-1, keepdims=True)
        dx -= mean_dx
        dx -= normed * proj
        dx *= inv_std
        x_node.accumulate(dx)
        residual_node.accumulate(dx)

    return Tensor._make(out, (x, residual, gain, bias), backward)


# Rows per tile of `feed_forward`: only one tile's (rows, 4e) hidden layer
# is ever held; 2048 rows keep the GEMMs large.
FEED_FORWARD_TILE_ROWS = 2048


def feed_forward(x, weights: EncoderLayerWeights):
    """relu(x W1 + b1) W2 + b2 over the last axis, as one autodiff node,
    computed `FEED_FORWARD_TILE_ROWS` rows at a time in one tile-sized
    hidden buffer, with or without a graph. The backward pass runs over the
    same tiles and recomputes each tile's hidden rows with the forward
    pass's ops, so they are the same bit for bit (checkpointing, Chen et
    al. 2016); the weight gradients sum over the tiles."""
    x, params = as_tensor(x), (weights.ff_w1, weights.ff_b1, weights.ff_w2, weights.ff_b2)
    w1, b1, w2, b2 = (t.data for t in params)
    x_node, w1_node, b1_node, w2_node, b2_node = (t._node for t in (x, *params))
    rows = x.data.reshape(-1, w1.shape[0])
    n, tile = rows.shape[0], FEED_FORWARD_TILE_ROWS
    dtype = np.result_type(rows, w1, w2)

    def tiles():
        """Yield (lo, hi, hidden rows lo..hi) per tile, in one reused buffer."""
        hidden = np.empty((min(tile, n), w1.shape[1]), dtype=dtype)
        for lo in range(0, n, tile):
            hi = min(lo + tile, n)
            h = hidden[:hi - lo]
            np.matmul(rows[lo:hi], w1, out=h)
            h += b1
            np.maximum(h, 0.0, out=h)
            yield lo, hi, h

    out = np.empty((n, w2.shape[1]), dtype=dtype)
    for lo, hi, h in tiles():
        np.matmul(h, w2, out=out[lo:hi])
        out[lo:hi] += b2

    def backward(g):
        g_rows = g.reshape(-1, w2.shape[1])
        b2_node.accumulate(g_rows.sum(axis=0))
        d_rows = np.empty(rows.shape, dtype=dtype)
        for lo, hi, h in tiles():
            g_t = g_rows[lo:hi]
            w2_node.accumulate(h.T @ g_t)
            d_hidden = g_t @ w2.T
            d_hidden *= h > 0  # relu subgradient: 0 at 0
            b1_node.accumulate(d_hidden.sum(axis=0))
            w1_node.accumulate(rows[lo:hi].T @ d_hidden)
            np.matmul(d_hidden, w1.T, out=d_rows[lo:hi])
        x_node.accumulate(d_rows.reshape(x_node.shape))

    return Tensor._make(out.reshape(*x.shape[:-1], w2.shape[1]), (x, *params), backward)


def embed_volume(emb, weights: EncoderWeights, config: AttentionConfig):
    """The embed conv's output (e, X, Y, Z) + positional table, flattened
    and partitioned into bins."""
    seq = flatten_volume(as_tensor(emb))
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
    s = sinkhorn_normalize(r, config.sinkhorn_iters)
    k_sorted = reorder_bins(k, s, mode)
    v_sorted = reorder_bins(v, s, mode)
    return windowed_attention(q, k, v, k_sorted, v_sorted, config, w_o=weights.w_o, counter=counter)


def encoder_layer_forward(bins, weights: EncoderLayerWeights, config: AttentionConfig,
                          mode="soft", counter: ScoreCounter | None = None):
    attn = attention_sublayer(bins, weights, config, mode, counter)
    x = layer_norm(bins, weights.ln1_gain, weights.ln1_bias, residual=attn)
    return layer_norm(x, weights.ln2_gain, weights.ln2_bias, residual=feed_forward(x, weights))


def encode_bins(bins, weights: EncoderWeights, config: AttentionConfig, dims,
                mode="soft", counter: ScoreCounter | None = None):
    """Branch (1) past its embedding: the encoder layers over `embed_volume`'s
    bins, then back to a (e, X, Y, Z) volume of spatial `dims`."""
    for layer in weights.layers:
        bins = encoder_layer_forward(bins, layer, config, mode, counter)
    return unflatten_volume(merge_bins(bins), dims)


def encoder_forward(vol, weights: EncoderWeights, config: AttentionConfig,
                    mode="soft", counter: ScoreCounter | None = None):
    """Full branch-(1) pass: volume (j, X, Y, Z) -> features (e, X, Y, Z)."""
    vol = as_tensor(vol)
    bins = embed_volume(conv3d_forward(vol, weights.embed_conv), weights, config)
    return encode_bins(bins, weights, config, vol.shape[1:], mode, counter)
