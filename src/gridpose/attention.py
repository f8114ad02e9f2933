"""Sparse Sinkhorn-attention transformer encoder over flattened voxel sequences.

The encoder never materializes an L x L attention matrix. Each layer:

1. projects the binned sequence to queries/keys/values,
2. scores bin pairs through their query/key means (an N_b x N_b matrix),
3. relaxes that score matrix toward doubly stochastic form with
   log-space Sinkhorn iterations,
4. matches each bin with the key/value bins that the relaxed matrix
   reorders to it (soft convex mixing while training, hard row-argmax at
   inference). ``MatchedBins`` names the reordered keys or values without
   making them; ``reorder_bins``, which makes them whole, is its oracle,
5. lets each bin attend to a 2B-element window: its own elements plus
   its matched bin. ``windowed_attention`` is one autodiff node: it mixes
   (or gathers) the matched bins a chunk of bins at a time, and the local
   and matched bins are scored as two B x B blocks per head that share
   one row max and one softmax denominator, so the window is never
   concatenated. ``attention_sublayer`` drops q, k and v before it applies
   w_o, so without a graph they are freed first,
6. finishes with residual + layer norm + feed-forward + residual + layer
   norm. ``layer_norm`` (which takes the residual add as an operand) and
   ``feed_forward`` are single autodiff nodes with closed-form backwards.
   Their backwards compute every input's gradient (see ``autodiff``).

Score storage per layer is therefore N_b^2 + L*2B elements instead of
L^2; ``ScoreCounter`` instruments exactly that quantity (counting
query-key pairs once, independent of how many heads share them). The
fused nodes run the same code with or without a graph. No pass makes
the reordered keys or values whole: the window makes each chunk's
matched bins in one chunk buffer, and its backward makes them again and
turns their gradients into rows of S's gradient and into k's and v's.
The window's blocks are computed a few bins at a time and exponentiated
in place; it keeps only each row's max and softmax denominator, and the
backward recomputes the blocks tile by tile (FlashAttention, Dao et al.
2022). The feed-forward runs over row tiles in one tile-sized hidden
buffer, and its backward recomputes each tile's hidden rows
(checkpointing, Chen et al. 2016). Layer norm's forward pass runs over
row tiles too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor, as_tensor
from .conv import Conv3dLayer, conv3d_forward, init_conv3d
from .errors import ConfigError, NotDifferentiablePathError, NumericError
from .grid import flatten_volume, merge_bins, partition_bins, row_blocks, unflatten_volume


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


def _check_reorder(bins, s, mode):
    n_b = bins.shape[0]
    if s.shape != (n_b, n_b):
        raise ValueError(f"sinkhorn matrix {s.shape} does not match {n_b} bins")
    if mode not in ("soft", "hard"):
        raise ValueError(f"unknown reorder mode {mode!r}")
    # a forward-pass safety check: argmax has no gradient
    if mode == "hard" and (bins.requires_grad or s.requires_grad):
        raise NotDifferentiablePathError(
            "hard bin reordering is not differentiable; use soft mode for training"
        )


def reorder_bins(bins, s, mode="soft"):
    """Reorder a bin tensor with the relaxed permutation `s` (N_b, N_b).

    soft: out[i] = sum_j S[i, j] * bins[j] (differentiable convex mixing).
    hard: out[i] = bins[argmax_j S[i, j]] (inference shortcut; refuses to
    run inside a graph that is being differentiated).

    The model does not call it: `MatchedBins` hands the window the same
    bins unmade. It is their oracle.
    """
    bins, s = as_tensor(bins), as_tensor(s)
    _check_reorder(bins, s, mode)
    n_b, b, e = bins.shape
    if mode == "soft":
        mixed = s @ bins.reshape(n_b, b * e)
        return mixed.reshape(n_b, b, e)
    return Tensor(bins.data[np.argmax(s.data, axis=1)])


class MatchedBins:
    """The bins ``reorder_bins(bins, s, mode)`` returns, left unmade: a
    matched input of `windowed_attention`, which mixes (soft) or gathers
    (hard) them `WINDOW_MATCH_CHUNK_BINS` bins at a time. ``shape`` is the
    reordered bins' shape. Hard mode raises `NotDifferentiablePathError`
    here when `bins` or `s` requires grad, as `reorder_bins` does."""

    def __init__(self, bins, s, mode="soft"):
        self.bins, self.s, self.mode = as_tensor(bins), as_tensor(s), mode
        _check_reorder(self.bins, self.s, mode)
        self.shape = self.bins.shape


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
# Bins per chunk of `windowed_attention`'s matched bins, which a
# `MatchedBins` input is mixed or gathered into, one reused chunk buffer per
# input. Each chunk's tiles start at its first bin. The soft mix is one
# (chunk x N_b) @ (N_b x B*e) GEMM per chunk: at 108 bins of 128 (e=128)
# chunks of 36 cost 11.7 ms per input against 9.2 ms for one whole mix, and
# 2-bin chunks 67 ms.
WINDOW_MATCH_CHUNK_BINS = 36


def _window_input(x, bounds):
    """How `windowed_attention` reads a key or value input a chunk of bins
    at a time: (its tensors, its dtype, chunks, adjoint). ``chunks()``
    yields (c0, c1, the input's bins c0..c1); ``adjoint(c0, c1, d)`` adds
    their gradient `d` into the tensors' gradients. A `MatchedBins` is mixed
    with S[c0:c1] (soft) or gathered by the argmax order (hard) into one
    buffer per pass; rows c0..c1 of S's gradient are d @ bins^T and the
    bins' gradient gets S[c0:c1]^T @ d. A tensor is read in place."""
    if not isinstance(x, MatchedBins):
        data, node = x.data, x._node

        def given():
            for c0, c1 in bounds:
                yield c0, c1, data[c0:c1]

        return (x,), data.dtype, given, lambda c0, c1, d: node.accumulate_at(slice(c0, c1), d)
    bins, s, hard = x.bins.data, x.s.data, x.mode == "hard"
    n_b = bins.shape[0]
    flat = bins.reshape(n_b, -1)
    order = np.argmax(s, axis=1) if hard else None
    dtype = bins.dtype if hard else np.result_type(bins, s)
    bins_node, s_node = x.bins._node, x.s._node

    def made():
        buffer = np.empty((max(c1 - c0 for c0, c1 in bounds), *bins.shape[1:]), dtype=dtype)
        for c0, c1 in bounds:
            out = buffer[:c1 - c0]
            if hard:
                np.take(bins, order[c0:c1], axis=0, out=out)
            else:
                np.matmul(s[c0:c1], flat, out=out.reshape(c1 - c0, -1))
            yield c0, c1, out

    def adjoint(c0, c1, d):
        if hard:  # argmax has no gradient, and MatchedBins let in no input that needs one
            return
        d_flat = d.reshape(c1 - c0, -1)
        s_node.accumulate_at(slice(c0, c1), d_flat @ flat.T)
        bins_node.accumulate((s[c0:c1].T @ d_flat).reshape(bins_node.shape))

    return (x.bins, x.s), dtype, made, adjoint


def windowed_attention(b_q, b_k, b_v, sorted_k, sorted_v, config: AttentionConfig,
                       w_o, counter: ScoreCounter | None = None):
    """Per-bin attention over the 2B-element window [local bin, matched bin].

    Multi-head scaled dot-product attention with scores Q K^T / sqrt(d)
    per head (d = head dim); heads are concatenated and mapped through
    w_o, or returned as they are when `w_o` is None. The local bins b_q,
    b_k, b_v are (N_b, B, e); the matched keys and values `sorted_k` and
    `sorted_v` are (N_b, B, e) arrays or `MatchedBins`. Output (N_b, B, e).

    One autodiff node up to w_o, computed `WINDOW_MATCH_CHUNK_BINS` bins
    at a time and, within a chunk, `WINDOW_TILE_BINS` bins at a time. A
    `MatchedBins` input is made a chunk at a time in one chunk buffer (see
    `_window_input`), so no pass holds the whole reordered keys or values.
    Per tile, the 1/sqrt(d) scale is folded into Q, the local and matched
    bins are scored as two (tile, h, B, B) blocks that share one row max
    and one softmax denominator (the log-sum-exp identity of online
    softmax), and the denominator divides the summed value products in the
    output. Only the (N_b, h, B, 1) row maxima and denominators are kept
    whole: the backward pass (the softmax-attention adjoint with
    1/denominator folded into the output gradient) runs over the same
    chunks and tiles, makes each chunk's matched bins again, recomputes
    each tile's scaled queries and exponentiated blocks with the forward
    pass's ops, so they are the same bit for bit (FlashAttention, Dao et
    al. 2022), reads the heads back from the output, and hands each chunk's
    key and value gradients to their inputs.
    """
    b_q, b_k, b_v = as_tensor(b_q), as_tensor(b_k), as_tensor(b_v)
    sorted_k, sorted_v = (x if isinstance(x, MatchedBins) else as_tensor(x) for x in (sorted_k, sorted_v))
    for name, t in (("b_k", b_k), ("b_v", b_v), ("sorted_k", sorted_k), ("sorted_v", sorted_v)):
        if t.shape != b_q.shape:
            raise ValueError(f"{name} has shape {t.shape}, query bins {b_q.shape}")
    n_b, b, e = b_q.shape
    n_h = config.n_heads
    if e != config.embed_dim:
        raise ValueError(f"bins carry {e} channels but config.embed_dim is {config.embed_dim}")

    tile = WINDOW_TILE_BINS
    bounds = row_blocks(n_b, WINDOW_MATCH_CHUNK_BINS)
    # local keys, local values, matched keys, matched values
    tensors, dtypes, makers, adjoints = zip(*(_window_input(x, bounds)
                                              for x in (b_k, b_v, sorted_k, sorted_v)))
    inputs = (b_q, *(t for group in tensors for t in group))
    dtype = np.result_type(b_q.data, *dtypes)
    # a Python float scale keeps f32 scores f32; an np.float64 one promotes them
    scale = float(1.0 / np.sqrt(config.head_dim))
    q_data, q_node = b_q.data, b_q._node
    row_max = np.empty((n_b, n_h, b, 1), dtype=dtype)
    denom = np.empty_like(row_max)

    def chunks(fresh):
        """Yield (c0, c1, (k_loc, v_loc, k_match, v_match), tiles) per chunk
        of bins c0..c1, its keys and values as (c1 - c0, h, B, d) views.
        `tiles` yields (lo, hi, scaled queries, p_loc, p_match) per tile of
        the chunk: the two blocks exponentiated in place in one pass's
        tile-sized buffers. A `fresh` pass (the forward) stores the rows'
        max over both blocks; the backward pass subtracts the stored one."""
        p_loc = np.empty((min(tile, n_b), n_h, b, b), dtype=dtype)
        p_match = np.empty_like(p_loc)

        def tiles(c0, c1, k_loc, k_match):
            for lo in range(c0, c1, tile):
                hi = min(lo + tile, c1)
                m = slice(lo - c0, hi - c0)
                q_t = _split_heads(q_data[lo:hi] * scale, n_h)  # (tile, h, B, d)
                p_loc_t, p_match_t = p_loc[:hi - lo], p_match[:hi - lo]
                np.matmul(q_t, _swap_last(k_loc[m]), out=p_loc_t)
                np.matmul(q_t, _swap_last(k_match[m]), out=p_match_t)
                if fresh:
                    np.maximum(p_loc_t.max(axis=-1, keepdims=True), p_match_t.max(axis=-1, keepdims=True),
                               out=row_max[lo:hi])
                for p in (p_loc_t, p_match_t):
                    p -= row_max[lo:hi]
                    np.exp(p, out=p)
                yield lo, hi, q_t, p_loc_t, p_match_t

        for parts in zip(*(make() for make in makers)):
            (c0, c1, _), kv = parts[0], tuple(_split_heads(chunk, n_h) for _, _, chunk in parts)
            yield c0, c1, kv, tiles(c0, c1, kv[0], kv[2])

    out = np.empty((n_b, b, e), dtype=dtype)
    heads = _split_heads(out, n_h)  # (N_b, h, B, d) view
    for c0, _, (_, v_loc, _, v_match), tiles in chunks(fresh=True):
        for lo, hi, _, p_loc_t, p_match_t in tiles:
            m = slice(lo - c0, hi - c0)
            np.add(p_loc_t.sum(axis=-1, keepdims=True), p_match_t.sum(axis=-1, keepdims=True), out=denom[lo:hi])
            # summed in a contiguous temporary: one pass over the strided output
            heads_t = p_loc_t @ v_loc[m]
            heads_t += p_match_t @ v_match[m]
            np.divide(heads_t, denom[lo:hi], out=heads[lo:hi])
    if counter is not None:
        counter.window_elements += n_b * b * 2 * b

    def backward(g):
        g_split = _split_heads(g, n_h)
        # one chunk's gradients of the local and matched keys and values
        d_chunk = np.empty((4, max(c1 - c0 for c0, c1 in bounds), b, e), dtype=dtype)
        for c0, c1, (k_loc, v_loc, k_match, v_match), tiles in chunks(fresh=False):
            d_k_loc, d_v_loc, d_k_match, d_v_match = (_split_heads(d, n_h) for d in d_chunk[:, :c1 - c0])
            for lo, hi, q_t, p_loc_t, p_match_t in tiles:
                r, m = slice(lo, hi), slice(lo - c0, hi - c0)
                g_heads = g_split[r] / denom[r]
                row_dot = (g_heads * heads[r]).sum(axis=-1, keepdims=True)
                d_q = None
                for p, k, v, d_k, d_v in ((p_loc_t, k_loc, v_loc, d_k_loc, d_v_loc),
                                          (p_match_t, k_match, v_match, d_k_match, d_v_match)):
                    np.matmul(_swap_last(p), g_heads, out=d_v[m])
                    d_scores = g_heads @ _swap_last(v[m])
                    d_scores -= row_dot
                    d_scores *= p
                    np.matmul(_swap_last(d_scores), q_t, out=d_k[m])
                    if d_q is None:
                        d_q = d_scores @ k[m]
                    else:
                        d_q += d_scores @ k[m]
                d_q *= scale
                q_node.accumulate_at(r, _merge_heads(d_q))
            for adjoint, d in zip(adjoints, d_chunk[:, :c1 - c0]):
                adjoint(c0, c1, d)

    heads_node = Tensor._make(out, inputs, backward)
    return heads_node if w_o is None else heads_node @ as_tensor(w_o)


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
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}


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
# Elements per row tile of `layer_norm`'s forward pass (2048 rows at e=32,
# 256 at e=256): a tile stays in cache from the residual add to the output.
LAYER_NORM_TILE_ELEMENTS = 2**16


def layer_norm(x, gain, bias, residual):
    """Normalize x + residual (the post-norm residual add) over the last
    axis, then scale by `gain` and shift by `bias`.

    One autodiff node with the closed-form backward (Ba et al. 2016):
    dx = (dy*gain - mean(dy*gain) - xhat * mean(dy*gain * xhat)) / std.
    The forward pass runs over row tiles of `LAYER_NORM_TILE_ELEMENTS`
    elements and writes the whole normalized rows (which the backward
    reads) and output.
    """
    x, gain, bias, residual = as_tensor(x), as_tensor(gain), as_tensor(bias), as_tensor(residual)
    if x.shape != residual.shape:
        raise ValueError(f"residual {residual.shape} does not match x {x.shape}")
    n = x.shape[-1]
    normed = np.empty(x.shape, dtype=np.result_type(x.data, residual.data))
    out = np.empty(x.shape, dtype=np.result_type(normed, gain.data))
    inv_std = np.empty((*x.shape[:-1], 1), dtype=normed.dtype)
    x_rows, residual_rows = x.data.reshape(-1, n), residual.data.reshape(-1, n)
    normed_rows, out_rows, inv_std_rows = normed.reshape(-1, n), out.reshape(-1, n), inv_std.reshape(-1, 1)
    for lo, hi in row_blocks(len(normed_rows), LAYER_NORM_TILE_ELEMENTS // n):
        t = slice(lo, hi)
        rows, inv_std_t, out_t = normed_rows[t], inv_std_rows[t], out_rows[t]
        np.add(x_rows[t], residual_rows[t], out=rows)
        rows -= rows.mean(axis=-1, keepdims=True)
        var = np.einsum("...i,...i->...", rows, rows)[..., None] / n
        np.divide(1.0, np.sqrt(var + LAYER_NORM_EPS), out=inv_std_t)
        rows *= inv_std_t
        np.multiply(rows, gain.data, out=out_t)
        out_t += bias.data
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
    blocks = row_blocks(rows.shape[0], FEED_FORWARD_TILE_ROWS)
    dtype = np.result_type(rows, w1, w2)

    def tiles():
        """Yield (lo, hi, hidden rows lo..hi) per tile, in one reused buffer."""
        hidden = np.empty((max((hi - lo for lo, hi in blocks), default=0), w1.shape[1]), dtype=dtype)
        for lo, hi in blocks:
            h = hidden[:hi - lo]
            np.matmul(rows[lo:hi], w1, out=h)
            h += b1
            np.maximum(h, 0.0, out=h)
            yield lo, hi, h

    out = np.empty((rows.shape[0], w2.shape[1]), dtype=dtype)
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
    heads = windowed_attention(q, k, v, MatchedBins(k, s, mode), MatchedBins(v, s, mode), config,
                               w_o=None, counter=counter)
    del q, k, v  # without a graph, w_o's product is made after they are freed
    return heads @ weights.w_o


def encoder_layer_forward(bins, weights: EncoderLayerWeights, config: AttentionConfig,
                          mode="soft", counter: ScoreCounter | None = None):
    attn = attention_sublayer(bins, weights, config, mode, counter)
    x = layer_norm(bins, weights.ln1_gain, weights.ln1_bias, residual=attn)
    del attn  # freed before the feed-forward runs: no backward reads it
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
