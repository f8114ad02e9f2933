"""Sparse Sinkhorn attention: bin scoring, normalization, reordering,
windowed attention, and the full encoder stack.

The key oracles: an exhaustive permutation search certifying Sinkhorn's
hard assignment, a scalar per-bin window loop for the attention math,
the dense all-pairs attention that the sparse path must reproduce
when everything fits in a single bin, the op-by-op autodiff
compositions that the fused windowed-attention, layer-norm and
feed-forward nodes replace, the window node that stored its score blocks
for the backward that recomputes them, and each tiled node run as one
whole tile.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from gridpose import (
    AttentionConfig,
    ConfigError,
    MatchedBins,
    NotDifferentiablePathError,
    NumericError,
    ScoreCounter,
    Tensor,
    as_tensor,
    attention_sublayer,
    bin_means,
    concat,
    correlation_matrix,
    dense_attention,
    embed_volume,
    encoder_forward,
    encoder_layer_forward,
    feed_forward,
    finite_diff_check,
    flatten_volume,
    init_encoder_layer,
    init_encoder_weights,
    layer_norm,
    merge_bins,
    partition_bins,
    reorder_bins,
    sinkhorn_normalize,
    unflatten_volume,
    windowed_attention,
)
from gridpose import attention
from gridpose.autodiff import no_grad
from gridpose.conv import conv3d, conv3d_forward
from conftest import assert_tiles_exact


def permutation_matrix(perm):
    n = len(perm)
    p = np.zeros((n, n))
    p[np.arange(n), perm] = 1.0
    return p


def best_assignment_exhaustive(r):
    """argmax over all permutations of sum_i r[i, sigma(i)]."""
    n = r.shape[0]
    best, best_score = None, -np.inf
    for perm in itertools.permutations(range(n)):
        score = sum(r[i, perm[i]] for i in range(n))
        if score > best_score:
            best, best_score = perm, score
    return np.array(best)


def windowed_oracle(bq, bk, bv, sk, sv, n_heads, w_o=None):
    """Scalar reference: per bin, attend over [local bin, matched bin]."""
    n_b, b, e = bq.shape
    d = e // n_heads
    out = np.zeros_like(bq)
    for i in range(n_b):
        k_win = np.concatenate([bk[i], sk[i]], axis=0)
        v_win = np.concatenate([bv[i], sv[i]], axis=0)
        for h in range(n_heads):
            sl = slice(h * d, (h + 1) * d)
            scores = bq[i][:, sl] @ k_win[:, sl].T / np.sqrt(d)
            scores -= scores.max(axis=1, keepdims=True)
            attn = np.exp(scores)
            attn /= attn.sum(axis=1, keepdims=True)
            out[i][:, sl] = attn @ v_win[:, sl]
    if w_o is not None:
        out = out @ w_o
    return out


# -- op-by-op compositions of the fused nodes (autodiff oracles) --------------


def composed_windowed_attention(b_q, b_k, b_v, sorted_k, sorted_v, config, w_o):
    """Windowed attention built from autodiff primitives over a concatenated window."""
    b_q = as_tensor(b_q)
    n_b, b, e = b_q.shape
    n_h, d = config.n_heads, config.head_dim
    k_cat = concat([as_tensor(b_k), as_tensor(sorted_k)], axis=1)  # (N_b, 2B, e)
    v_cat = concat([as_tensor(b_v), as_tensor(sorted_v)], axis=1)
    window = k_cat.shape[1]
    q = b_q.reshape(n_b, b, n_h, d).transpose((0, 2, 1, 3))  # (N_b, h, B, d)
    k = k_cat.reshape(n_b, window, n_h, d).transpose((0, 2, 3, 1))  # (N_b, h, d, 2B)
    v = v_cat.reshape(n_b, window, n_h, d).transpose((0, 2, 1, 3))  # (N_b, h, 2B, d)
    attn = ((q @ k) * float(1.0 / np.sqrt(d))).softmax(axis=-1)
    out = (attn @ v).transpose((0, 2, 1, 3)).reshape(n_b, b, e)
    return out @ as_tensor(w_o)


def stored_blocks_window(b_q, b_k, b_v, sorted_k, sorted_v, config, w_o):
    """The window node as it was while its graph kept the full-size
    exponentiated blocks `p_loc` and `p_match` and its backward read them:
    the oracle of the backward that recomputes them. Same tiles, ops and
    order of accumulation as `windowed_attention`."""
    inputs = tuple(as_tensor(t) for t in (b_q, b_k, b_v, sorted_k, sorted_v))
    b_q, b_k, b_v, sorted_k, sorted_v = inputs
    n_b, b, e = b_q.shape
    n_h, tile = config.n_heads, attention.WINDOW_TILE_BINS
    split = attention._split_heads
    scale = float(1.0 / np.sqrt(config.head_dim))
    k_loc, k_match = split(b_k.data, n_h), split(sorted_k.data, n_h)
    v_loc, v_match = split(b_v.data, n_h), split(sorted_v.data, n_h)
    p_loc = np.empty((n_b, n_h, b, b), dtype=b_q.data.dtype)
    p_match = np.empty_like(p_loc)
    denom = np.empty((n_b, n_h, b, 1), dtype=b_q.data.dtype)
    out = np.empty_like(b_q.data)
    heads = split(out, n_h)
    for lo in range(0, n_b, tile):
        hi = min(lo + tile, n_b)
        q_t = split(b_q.data[lo:hi] * scale, n_h)
        np.matmul(q_t, k_loc[lo:hi].swapaxes(-1, -2), out=p_loc[lo:hi])
        np.matmul(q_t, k_match[lo:hi].swapaxes(-1, -2), out=p_match[lo:hi])
        row_max = np.maximum(p_loc[lo:hi].max(axis=-1, keepdims=True),
                             p_match[lo:hi].max(axis=-1, keepdims=True))
        for p in (p_loc[lo:hi], p_match[lo:hi]):
            p -= row_max
            np.exp(p, out=p)
        np.add(p_loc[lo:hi].sum(axis=-1, keepdims=True), p_match[lo:hi].sum(axis=-1, keepdims=True),
               out=denom[lo:hi])
        heads_t = p_loc[lo:hi] @ v_loc[lo:hi]
        heads_t += p_match[lo:hi] @ v_match[lo:hi]
        np.divide(heads_t, denom[lo:hi], out=heads[lo:hi])

    def backward(g):
        merge = attention._merge_heads
        g_heads = split(g, n_h) / denom
        row_dot = (g_heads * heads).sum(axis=-1, keepdims=True)
        q = split(b_q.data * scale, n_h)
        d_q = None
        for p, k, v, src_k, src_v in ((p_loc, k_loc, v_loc, b_k, b_v),
                                      (p_match, k_match, v_match, sorted_k, sorted_v)):
            if src_v.requires_grad:
                src_v._node.accumulate(merge(p.swapaxes(-1, -2) @ g_heads))
            if not (src_k.requires_grad or b_q.requires_grad):
                continue
            d_scores = g_heads @ v.swapaxes(-1, -2)
            d_scores -= row_dot
            d_scores *= p
            if src_k.requires_grad:
                src_k._node.accumulate(merge(d_scores.swapaxes(-1, -2) @ q))
            if b_q.requires_grad:
                d_q = d_scores @ k if d_q is None else d_q + d_scores @ k
        if b_q.requires_grad:
            d_q *= scale
            b_q._node.accumulate(merge(d_q))

    return Tensor._make(out, inputs, backward) @ as_tensor(w_o)


def composed_logsumexp(x, axis):
    """The log-sum-exp node (keepdims) that Sinkhorn subtracted before
    `Tensor.log_softmax`; its backward reads the softmax it kept."""
    a = x._node
    m = x.data.max(axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    soft = shifted / total

    def backward(g):
        a.accumulate(g * soft)

    return Tensor._make(np.log(total) + m, (x,), backward)


def composed_sinkhorn(r, n_iters):
    """Sinkhorn as three nodes per half-iteration (log-sum-exp, negation and
    a broadcast add): the oracle of the one-node `log_softmax` form."""
    log_s = r
    for _ in range(n_iters):
        log_s = log_s - composed_logsumexp(log_s, axis=1)
        log_s = log_s - composed_logsumexp(log_s, axis=0)
    return log_s.exp()


def graph_size(t):
    """Number of graph nodes reachable from `t`, its own included."""
    seen, stack = {id(t._node)}, [t._node]
    while stack:
        for child in stack.pop().children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


def composed_layer_norm(x, gain, bias, residual, eps=1e-5):
    x = as_tensor(x) + as_tensor(residual)
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * as_tensor(gain) + as_tensor(bias)


def composed_feed_forward(x, weights):
    hidden = (as_tensor(x) @ weights.ff_w1 + weights.ff_b1).relu()
    return hidden @ weights.ff_w2 + weights.ff_b2


def probed_output_and_grads(fn, leaves, probe):
    """fn()'s value and the gradients of sum(fn() * probe) for every leaf."""
    for t in leaves.values():
        t.zero_grad()
    out = fn()
    (out * Tensor(probe)).sum().backward()
    return out.data, {name: t.grad.copy() for name, t in leaves.items()}


def assert_rel_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1e-300)


def assert_frozen_inputs_keep_live_gradients(fn, leaves, probe, frozen, all_live_grads):
    """Rerun `fn` with the `frozen` leaves not requiring grad: every live
    leaf's gradient equals the all-live run's bit for bit, and no frozen
    leaf collects one."""
    for name, t in leaves.items():
        t.zero_grad()
        t.requires_grad = name not in frozen
    live = {name: t for name, t in leaves.items() if name not in frozen}
    _, grads = probed_output_and_grads(fn, live, probe)
    for name in frozen:
        assert leaves[name].grad is None, name
        leaves[name].requires_grad = True
    for name in live:
        assert np.array_equal(grads[name], all_live_grads[name]), name


def window_leaves(rng, n_b=3, b=4, e=6, trained_wo=False):
    names = ["b_q", "b_k", "b_v", "sorted_k", "sorted_v"]
    leaves = {n: Tensor(rng.normal(size=(n_b, b, e)), requires_grad=True) for n in names}
    if trained_wo:
        leaves["w_o"] = Tensor(rng.normal(size=(e, e)), requires_grad=True)
    return leaves


def call_window(fn, leaves, cfg):
    """The window over `leaves`; without a trained w_o it gets a constant
    identity, which leaves its heads exact (x @ I == x bit for bit)."""
    args = [leaves[n] for n in ("b_q", "b_k", "b_v", "sorted_k", "sorted_v")]
    identity = np.eye(cfg.embed_dim, dtype=args[0].data.dtype)
    return fn(*args, cfg, w_o=leaves.get("w_o", identity))

class TestAttentionConfig:
    def test_temperature_defaults_to_sqrt_embed(self):
        assert AttentionConfig().temperature == 16.0  # sqrt(256)
        cfg = AttentionConfig(embed_dim=32, n_heads=2, bin_size=4)
        assert cfg.temperature == pytest.approx(np.sqrt(32.0))

    def test_explicit_temperature_kept(self):
        cfg = AttentionConfig(embed_dim=8, n_heads=2, bin_size=4, temperature=3.0)
        assert cfg.temperature == 3.0

    def test_head_dim(self):
        assert AttentionConfig(embed_dim=8, n_heads=2, bin_size=4).head_dim == 4

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            AttentionConfig(embed_dim=6, n_heads=4)
        with pytest.raises(ConfigError):
            AttentionConfig(bin_size=0)
        with pytest.raises(ConfigError):
            AttentionConfig(sinkhorn_iters=0)
        with pytest.raises(ConfigError):
            AttentionConfig(n_layers=-1)
        with pytest.raises(ConfigError):
            AttentionConfig(temperature=-1.0)


class TestBinMeans:
    def test_identical_rows(self):
        v = np.array([1.0, -2.0, 3.0])
        bins = np.tile(v, (2, 4, 1))
        q_mean, k_mean = bin_means(bins, bins)
        np.testing.assert_allclose(q_mean.data, np.tile(v, (2, 1)))
        np.testing.assert_allclose(k_mean.data, np.tile(v, (2, 1)))

    def test_opposite_rows_cancel(self):
        u = np.array([2.0, -1.0])
        bins = np.stack([np.stack([u, -u])])
        q_mean, _ = bin_means(bins, bins)
        np.testing.assert_allclose(q_mean.data, np.zeros((1, 2)), atol=1e-16)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        bins = rng.normal(size=(3, 4, 5))
        q_mean, _ = bin_means(bins, bins)
        for i in range(3):
            expect = sum(bins[i, r] for r in range(4)) / 4.0
            np.testing.assert_allclose(q_mean.data[i], expect, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bin_means(np.zeros((2, 3, 4)), np.zeros((2, 4, 4)))


class TestCorrelationMatrix:
    def test_orthonormal_means_give_identity(self):
        means = Tensor(np.eye(4))
        r = correlation_matrix(means, means, temperature=1.0)
        np.testing.assert_allclose(r.data, np.eye(4), atol=1e-15)

    def test_single_vector(self):
        v = Tensor(np.array([[1.0, 1.0]]))  # norm sqrt(2)
        r = correlation_matrix(v, v, temperature=1.0)
        np.testing.assert_allclose(r.data, [[2.0]])

    def test_matches_loop_oracle_with_temperature(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(4, 6))
        k = rng.normal(size=(4, 6))
        tau = np.sqrt(6.0)
        r = correlation_matrix(Tensor(q), Tensor(k), temperature=tau)
        expect = np.array([[q[i] @ k[j] / tau for j in range(4)] for i in range(4)])
        np.testing.assert_allclose(r.data, expect, atol=1e-12)

    def test_counter_counts_bin_pairs(self):
        counter = ScoreCounter()
        correlation_matrix(np.zeros((5, 3)), np.zeros((5, 3)), counter=counter)
        assert counter.correlation_elements == 25
        assert counter.window_elements == 0


class TestSinkhorn:
    def test_all_zero_matrix_is_uniform(self):
        for k in (1, 5):
            s = sinkhorn_normalize(Tensor(np.zeros((2, 2))), k).data
            np.testing.assert_allclose(s, np.full((2, 2), 0.5), atol=1e-12)

    def test_one_by_one_normalizes_to_one(self):
        s = sinkhorn_normalize(Tensor(np.array([[3.7]])), 1).data
        np.testing.assert_allclose(s, [[1.0]], atol=1e-15)

    def test_recovers_scaled_permutation(self):
        rng = np.random.default_rng(2)
        perm = rng.permutation(4)
        p = permutation_matrix(perm)
        r = 50.0 * p
        s = sinkhorn_normalize(Tensor(r), 8).data
        assert np.abs(s - p).max() < 1e-6
        np.testing.assert_array_equal(best_assignment_exhaustive(r), perm)

    def test_row_and_column_sums_converge(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-1.0, 1.0, size=(8, 8))
        s = sinkhorn_normalize(Tensor(r), 20).data
        assert np.abs(s.sum(axis=0) - 1.0).max() <= 1e-6
        assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-6
        assert s.min() >= 0.0

    def test_deviation_non_increasing_in_iterations(self):
        rng = np.random.default_rng(4)
        r = rng.uniform(-2.0, 2.0, size=(8, 8))
        devs = []
        for k in (1, 2, 4, 8, 16, 20):
            s = sinkhorn_normalize(Tensor(r), k).data
            devs.append(max(np.abs(s.sum(axis=0) - 1.0).max(),
                            np.abs(s.sum(axis=1) - 1.0).max()))
        assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))

    def test_log_space_handles_large_magnitudes(self):
        r = np.array([[30.0, -30.0], [-30.0, 30.0]])
        s = sinkhorn_normalize(Tensor(r), 10).data
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s.sum(axis=1), [1.0, 1.0], atol=1e-9)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn_normalize(Tensor(np.zeros((2, 2, 2))), 1)
        with pytest.raises(ValueError):
            sinkhorn_normalize(Tensor(np.zeros((2, 2))), 0)
        with pytest.raises(NumericError):
            sinkhorn_normalize(Tensor(np.array([[np.nan, 0.0], [0.0, 0.0]])), 1)

    def test_gradients_flow_through_iterations(self):
        rng = np.random.default_rng(5)
        r = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = rng.normal(size=(3, 3))

        def f():
            return (sinkhorn_normalize(r, 4) * Tensor(w)).sum()

        assert finite_diff_check(f, {"r": r}, eps=1e-5) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_b", [1, 4, 64, 108])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_equals_the_composed_normalisation_bit_for_bit(self, dtype, n_b, scale):
        # scale 1e3 saturates every exp: |r| lies in [990, 1000]
        rng = np.random.default_rng(n_b)
        r = rng.normal(size=(n_b, n_b)) if scale == 1.0 else (
            scale * rng.choice([-1.0, 1.0], size=(n_b, n_b)) * rng.uniform(0.99, 1.0, size=(n_b, n_b)))
        w = Tensor(rng.normal(size=(n_b, n_b)).astype(dtype))
        results = []
        for normalize in (sinkhorn_normalize, composed_sinkhorn):
            leaf = Tensor(r.astype(dtype), requires_grad=True)
            s = normalize(leaf, 8)
            (s * w).sum().backward()
            assert s.data.dtype == leaf.grad.dtype == dtype
            assert np.all(np.isfinite(s.data)) and np.all(np.isfinite(leaf.grad))
            results.append((s.data, leaf.grad))
        (s_got, g_got), (s_want, g_want) = results
        np.testing.assert_array_equal(s_got, s_want)
        np.testing.assert_array_equal(g_got, g_want)

    @pytest.mark.parametrize("n_iters", [1, 8])
    def test_one_node_per_half_iteration(self, n_iters):
        r = Tensor(np.random.default_rng(6).normal(size=(5, 5)), requires_grad=True)
        # beyond r: a log-softmax node per half-iteration and the final exp
        assert graph_size(sinkhorn_normalize(r, n_iters)) - 1 == 2 * n_iters + 1
        assert graph_size(composed_sinkhorn(r, n_iters)) - 1 == 6 * n_iters + 1


class TestReorderBins:
    def identity_sink(self, n):
        return Tensor(np.eye(n))

    def perm_sink(self, perm):
        return Tensor(permutation_matrix(perm))

    def test_identity_matrix_is_noop_in_both_modes(self):
        rng = np.random.default_rng(6)
        bins = rng.normal(size=(3, 2, 4))
        sink = self.identity_sink(3)
        np.testing.assert_allclose(reorder_bins(bins, sink, "soft").data, bins, atol=1e-15)
        np.testing.assert_array_equal(reorder_bins(bins, sink, "hard").data, bins)

    def test_permutation_matrix_permutes_and_modes_agree(self):
        rng = np.random.default_rng(7)
        bins = rng.normal(size=(4, 2, 3))
        perm = np.array([2, 0, 3, 1])
        sink = self.perm_sink(perm)
        soft = reorder_bins(bins, sink, "soft").data
        hard = reorder_bins(bins, sink, "hard").data
        np.testing.assert_allclose(soft, bins[perm], atol=1e-15)
        np.testing.assert_array_equal(hard, bins[perm])

    def test_uniform_mixing_averages_bins(self):
        rng = np.random.default_rng(8)
        bins = rng.normal(size=(2, 3, 2))
        s = np.full((2, 2), 0.5)
        sink = Tensor(s)
        out = reorder_bins(bins, sink, "soft").data
        mean = bins.mean(axis=0)
        np.testing.assert_allclose(out[0], mean, atol=1e-15)
        np.testing.assert_allclose(out[1], mean, atol=1e-15)

    def test_hard_mode_rejected_on_gradient_path(self):
        bins = Tensor(np.zeros((2, 2, 2)), requires_grad=True)
        sink = self.identity_sink(2)
        with pytest.raises(NotDifferentiablePathError):
            reorder_bins(bins, sink, "hard")
        # gradient through the sinkhorn matrix alone is just as forbidden
        sink = Tensor(np.eye(2), requires_grad=True)
        with pytest.raises(NotDifferentiablePathError):
            reorder_bins(np.zeros((2, 2, 2)), sink, "hard")

    def test_soft_mode_is_differentiable(self):
        rng = np.random.default_rng(9)
        bins = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        sink = self.perm_sink(np.array([1, 0]))
        out = reorder_bins(bins, sink, "soft")
        (out * Tensor(rng.normal(size=out.shape))).sum().backward()
        assert bins.grad is not None

    def test_mismatched_sinkhorn_shape_rejected(self):
        sink = self.identity_sink(3)
        with pytest.raises(ValueError):
            reorder_bins(np.zeros((2, 2, 2)), sink, "soft")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            reorder_bins(np.zeros((2, 2, 2)), self.identity_sink(2), "fuzzy")


class TestWindowedAttention:
    def test_saturated_softmax_selects_dominant_value(self):
        cfg = AttentionConfig(embed_dim=2, n_heads=1, bin_size=1)
        # bin 0's query aligns with its local key, bin 1's with its sorted key
        b_q = np.array([[[100.0, 0.0]], [[0.0, 100.0]]])
        b_k = np.array([[[1.0, 0.0]], [[0.0, 0.0]]])
        b_v = np.array([[[1.0, 0.0]], [[0.5, 0.5]]])
        sorted_k = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
        sorted_v = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
        out = windowed_attention(b_q, b_k, b_v, sorted_k, sorted_v, cfg, np.eye(2)).data
        np.testing.assert_allclose(out[0, 0], [1.0, 0.0], atol=1e-9)  # local wins
        np.testing.assert_allclose(out[1, 0], [0.0, 1.0], atol=1e-9)  # sorted wins

    def test_matches_scalar_window_loop_single_head(self):
        rng = np.random.default_rng(10)
        cfg = AttentionConfig(embed_dim=4, n_heads=1, bin_size=2)
        args = [rng.normal(size=(4, 2, 4)) for _ in range(5)]
        out = windowed_attention(*args, cfg, np.eye(4)).data
        np.testing.assert_allclose(out, windowed_oracle(*args, n_heads=1), atol=1e-12)

    def test_matches_scalar_window_loop_two_heads_with_wo(self):
        rng = np.random.default_rng(11)
        cfg = AttentionConfig(embed_dim=6, n_heads=2, bin_size=3)
        args = [rng.normal(size=(3, 3, 6)) for _ in range(5)]
        w_o = rng.normal(size=(6, 6))
        out = windowed_attention(*args, cfg, w_o=Tensor(w_o)).data
        np.testing.assert_allclose(out, windowed_oracle(*args, n_heads=2, w_o=w_o), atol=1e-12)

    def test_counter_counts_query_window_pairs(self):
        rng = np.random.default_rng(12)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2)
        args = [rng.normal(size=(3, 2, 4)) for _ in range(5)]
        counter = ScoreCounter()
        windowed_attention(*args, cfg, np.eye(4), counter=counter)
        assert counter.window_elements == 3 * 2 * 4  # N_b * B * 2B, heads share
        assert counter.correlation_elements == 0

    def test_embed_dim_mismatch_rejected(self):
        cfg = AttentionConfig(embed_dim=8, n_heads=2, bin_size=2)
        with pytest.raises(ValueError):
            windowed_attention(*[np.zeros((2, 2, 4))] * 5, cfg, np.eye(4))


    def test_matched_bin_wider_than_queries_rejected(self):
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2)
        local = np.zeros((3, 2, 4))
        matched = np.zeros((3, 5, 4))
        with pytest.raises(ValueError, match="sorted_k"):
            windowed_attention(local, local, local, matched, matched, cfg, np.eye(4))

    def test_key_value_mismatch_rejected(self):
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2)
        bins = np.zeros((3, 2, 4))
        with pytest.raises(ValueError, match="sorted_v"):
            windowed_attention(bins, bins, bins, bins, np.zeros((3, 3, 4)), cfg, np.eye(4))
        with pytest.raises(ValueError, match="b_v"):
            windowed_attention(bins, bins, np.zeros((3, 2, 2)), bins, bins, cfg, np.eye(4))


# layer_norm's (trained_residual, frozen inputs) cases: all live, every input
# left out once, then only the affine or only the inputs trained; a residual
# is frozen only where it is a leaf
NORM_CASES = [(trained, frozen) for trained in (False, True)
              for frozen in [(), ("x",), ("residual",), ("gain",), ("bias",), ("x", "residual"), ("gain", "bias")]
              if trained or "residual" not in frozen]


class TestFusedNodes:
    """Each fused node against central differences and against its composition."""

    @pytest.mark.parametrize("n_heads,trained_wo", [(1, False), (1, True), (2, False), (2, True)])
    def test_windowed_attention_gradients_match_finite_differences(self, n_heads, trained_wo):
        rng = np.random.default_rng(40 + 2 * n_heads + trained_wo)
        cfg = AttentionConfig(embed_dim=6, n_heads=n_heads, bin_size=4)
        leaves = window_leaves(rng, trained_wo=trained_wo)
        probe = rng.normal(size=(3, 4, 6))

        def f():
            return (call_window(windowed_attention, leaves, cfg) * Tensor(probe)).sum()

        assert finite_diff_check(f, leaves, eps=1e-5) <= 1e-7

    @pytest.mark.parametrize("n_heads,trained_wo", [(1, False), (1, True), (2, False), (2, True)])
    def test_windowed_attention_matches_composition(self, n_heads, trained_wo):
        rng = np.random.default_rng(50 + 2 * n_heads + trained_wo)
        cfg = AttentionConfig(embed_dim=6, n_heads=n_heads, bin_size=4)
        leaves = window_leaves(rng, trained_wo=trained_wo)
        probe = rng.normal(size=(3, 4, 6))
        out, grads = probed_output_and_grads(
            lambda: call_window(windowed_attention, leaves, cfg), leaves, probe)
        want_out, want_grads = probed_output_and_grads(
            lambda: call_window(composed_windowed_attention, leaves, cfg), leaves, probe)
        assert_rel_close(out, want_out)
        for name in leaves:
            assert_rel_close(grads[name], want_grads[name])

    @pytest.mark.parametrize("gap", [700.0, 1000.0])
    def test_saturated_scores_stay_finite(self, gap):
        # head dim 4, so scores are q.k / 2: one logit `gap` above zeros, in
        # the matched bin for bin 0 and in the local bin for bin 1; exp(1000)
        # overflows unless both blocks share the row max
        rng = np.random.default_rng(60)
        cfg = AttentionConfig(embed_dim=4, n_heads=1, bin_size=2)
        leaves = window_leaves(rng, n_b=2, b=2, e=4)
        leaves["b_q"].data[...] = 0.0
        leaves["b_q"].data[:, 0, 0] = 2.0 * gap
        for name in ("b_k", "sorted_k"):
            leaves[name].data[...] = 0.0
        leaves["sorted_k"].data[0, 1, 0] = 1.0
        leaves["b_k"].data[1, 0, 0] = 1.0
        probe = rng.normal(size=(2, 2, 4))
        out, grads = probed_output_and_grads(
            lambda: call_window(windowed_attention, leaves, cfg), leaves, probe)
        want_out, want_grads = probed_output_and_grads(
            lambda: call_window(composed_windowed_attention, leaves, cfg), leaves, probe)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0, 0], leaves["sorted_v"].data[0, 1], atol=1e-12)
        np.testing.assert_allclose(out[1, 0], leaves["b_v"].data[1, 0], atol=1e-12)
        assert_rel_close(out, want_out)
        for name in leaves:
            assert np.all(np.isfinite(grads[name]))
            np.testing.assert_allclose(grads[name], want_grads[name], rtol=1e-12, atol=1e-12)

    @staticmethod
    def norm_leaves(rng, trained_residual):
        """x, gain, bias and, when `trained_residual`, a residual leaf; without
        one, `call_norm` adds a constant zero residual (x + 0 == x exactly)."""
        leaves = {
            "x": Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True),
            "gain": Tensor(rng.normal(size=5), requires_grad=True),
            "bias": Tensor(rng.normal(size=5), requires_grad=True),
        }
        if trained_residual:
            leaves["residual"] = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        return leaves

    @staticmethod
    def call_norm(fn, leaves):
        residual = leaves.get("residual", np.zeros(leaves["x"].shape))
        return fn(leaves["x"], leaves["gain"], leaves["bias"], residual=residual)

    @pytest.mark.parametrize("trained_residual", [False, True])
    def test_layer_norm_gradients_match_finite_differences(self, trained_residual):
        rng = np.random.default_rng(70 + trained_residual)
        leaves = self.norm_leaves(rng, trained_residual)
        probe = rng.normal(size=(2, 3, 5))

        def f():
            return (self.call_norm(layer_norm, leaves) * Tensor(probe)).sum()

        assert finite_diff_check(f, leaves, eps=1e-5) <= 1e-7

    @pytest.mark.parametrize("trained_residual,frozen", NORM_CASES,
                             ids=[f"{t}-frozen_{'+'.join(f)}" if f else str(t) for t, f in NORM_CASES])
    def test_layer_norm_matches_composition(self, trained_residual, frozen):
        rng = np.random.default_rng(80 + trained_residual)
        leaves = self.norm_leaves(rng, trained_residual)
        probe = rng.normal(size=(2, 3, 5))
        results = [
            probed_output_and_grads(lambda fn=fn: self.call_norm(fn, leaves), leaves, probe)
            for fn in (layer_norm, composed_layer_norm)
        ]
        (out, grads), (want_out, want_grads) = results
        assert_rel_close(out, want_out)
        for name in leaves:
            assert_rel_close(grads[name], want_grads[name])
        assert_frozen_inputs_keep_live_gradients(
            lambda: self.call_norm(layer_norm, leaves), leaves, probe, frozen, grads)

    def test_feed_forward_gradients_match_finite_differences(self):
        rng = np.random.default_rng(90)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2)
        layer = init_encoder_layer(cfg, rng)
        layer.ff_b1.data[...] = rng.normal(size=16)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        probe = rng.normal(size=(2, 3, 4))
        leaves = {"x": x, "ff_w1": layer.ff_w1, "ff_b1": layer.ff_b1,
                  "ff_w2": layer.ff_w2, "ff_b2": layer.ff_b2}

        def f():
            return (feed_forward(x, layer) * Tensor(probe)).sum()

        assert finite_diff_check(f, leaves, eps=1e-5) <= 1e-7

    # every input left out once, and only x's gradient (frozen weights)
    FEED_FORWARD_FROZEN = [("x",), ("ff_w1",), ("ff_b1",), ("ff_w2",), ("ff_b2",),
                           ("ff_w1", "ff_b1", "ff_w2", "ff_b2")]

    def test_feed_forward_matches_composition(self, monkeypatch):
        # the 6 rows as one tile and in tiles of 4 (the last one partial),
        # whose backward recomputes each tile's hidden rows; f64 and f32;
        # then each frozen input set against the all-live run
        for dtype, tile in itertools.product((np.float64, np.float32),
                                             (attention.FEED_FORWARD_TILE_ROWS, 4)):
            monkeypatch.setattr(attention, "FEED_FORWARD_TILE_ROWS", tile)
            rng = np.random.default_rng(91)
            cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2)
            layer = init_encoder_layer(cfg, rng)
            layer.ff_b1.data[...] = rng.normal(size=16)
            x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
            probe = rng.normal(size=(2, 3, 4)).astype(dtype)
            leaves = {"x": x, "ff_w1": layer.ff_w1, "ff_b1": layer.ff_b1,
                      "ff_w2": layer.ff_w2, "ff_b2": layer.ff_b2}
            for t in leaves.values():
                t.data = t.data.astype(dtype)
            out, grads = probed_output_and_grads(lambda: feed_forward(x, layer), leaves, probe)
            want_out, want_grads = probed_output_and_grads(
                lambda: composed_feed_forward(x, layer), leaves, probe)
            rtol = 1e-12 if dtype == np.float64 else 1e-5
            assert (out > 0).any() and (out <= 0).any()
            assert out.dtype == dtype
            assert_rel_close(out, want_out, rtol)
            for name in leaves:
                assert grads[name].dtype == dtype, name
                assert_rel_close(grads[name], want_grads[name], rtol)
            for frozen in self.FEED_FORWARD_FROZEN:
                assert_frozen_inputs_keep_live_gradients(
                    lambda: feed_forward(x, layer), leaves, probe, frozen, grads)


def _f32_node_cases():
    """(name, builder) pairs; a builder takes an rng and returns (fn, leaves)."""

    def window(rng):
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=3)
        leaves = window_leaves(rng, n_b=2, b=3, e=4, trained_wo=True)
        return (lambda: call_window(windowed_attention, leaves, cfg)), leaves

    def norm(rng):
        leaves = {"x": Tensor(rng.normal(size=(2, 3, 4))), "residual": Tensor(rng.normal(size=(2, 3, 4))),
                  "gain": Tensor(rng.normal(size=4)), "bias": Tensor(rng.normal(size=4))}
        return (lambda: layer_norm(leaves["x"], leaves["gain"], leaves["bias"],
                                   residual=leaves["residual"])), leaves

    def ffn(rng):
        layer = init_encoder_layer(AttentionConfig(embed_dim=4, n_heads=2, bin_size=2), rng)
        leaves = {"x": Tensor(rng.normal(size=(2, 3, 4))), "ff_w1": layer.ff_w1, "ff_b1": layer.ff_b1,
                  "ff_w2": layer.ff_w2, "ff_b2": layer.ff_b2}
        return (lambda: feed_forward(leaves["x"], layer)), leaves

    def conv(k):
        def build(rng):
            leaves = {"x": Tensor(rng.normal(size=(2, 2, 3, 4))),
                      "w": Tensor(rng.normal(size=(3, 2, k, k, k))), "b": Tensor(rng.normal(size=3))}
            return (lambda: conv3d(leaves["x"], leaves["w"], leaves["b"])), leaves
        return build

    return [("windowed_attention", window), ("layer_norm", norm), ("feed_forward", ffn),
            ("conv3d_k1", conv(1)), ("conv3d_k3", conv(3))]


@pytest.mark.parametrize("name,build", _f32_node_cases(), ids=[c[0] for c in _f32_node_cases()])
def test_float32_nodes_keep_float32(name, build):
    fn, leaves = build(np.random.default_rng(100))
    for t in leaves.values():
        t.data = t.data.astype(np.float32)
        t.requires_grad = True
    with no_grad():
        free = fn()
    graph = fn()
    assert free.data.dtype == np.float32 and graph.data.dtype == np.float32
    assert free.data.tobytes() == graph.data.tobytes()
    (graph * Tensor(np.ones(graph.shape, dtype=np.float32))).sum().backward()
    for leaf_name, t in leaves.items():
        assert t.grad is not None and t.grad.dtype == np.float32, leaf_name


def copies_sublayer(bins, weights, config, mode="soft"):
    """`attention_sublayer` as it was while it made the whole reordered keys
    and values with `reorder_bins` and passed them to the window: the oracle
    of the `MatchedBins` it passes now."""
    q, k, v = (bins @ w for w in (weights.w_q, weights.w_k, weights.w_v))
    s = sinkhorn_normalize(correlation_matrix(*bin_means(q, k), config.temperature), config.sinkhorn_iters)
    return windowed_attention(q, k, v, reorder_bins(k, s, mode), reorder_bins(v, s, mode), config,
                              w_o=weights.w_o)


class TestMatchedBins:
    """The window on `MatchedBins`, which it mixes or gathers a chunk at a
    time, against the window on the `reorder_bins` copies: the same output
    bit for bit in soft and hard mode, and the gradients of q, k, v, w_o and
    S within rounding of the copies' (the chunks split the sums over bins
    that make k's, v's and S's gradients)."""

    RTOL = {np.float64: 1e-12, np.float32: 1e-5}

    @staticmethod
    def leaves(rng, n_b, b=5, e=6, dtype=np.float64):
        leaves = {name: Tensor(rng.normal(size=(n_b, b, e))) for name in ("q", "k", "v")}
        leaves["w_o"] = Tensor(rng.normal(size=(e, e)) / np.sqrt(e))
        leaves["s"] = Tensor(sinkhorn_normalize(Tensor(rng.normal(size=(n_b, n_b))), 4).data)
        for t in leaves.values():
            t.data = t.data.astype(dtype)
            t.requires_grad = True
        return leaves

    @staticmethod
    def window(leaves, cfg, match, mode="soft"):
        q, k, v, s = (leaves[n] for n in ("q", "k", "v", "s"))
        return windowed_attention(q, k, v, match(k, s, mode), match(v, s, mode), cfg, w_o=leaves["w_o"])

    # (N_b, chunk): N_b a multiple of the chunk; chunks of 3 bins, not a
    # multiple of the 2-bin tile, whose last one of 1 bin joins the one before
    # (a one-row mix rounds unlike the whole one); the model's chunk with a
    # partial last chunk
    CHUNKS = [(8, 4), (7, 3), (40, attention.WINDOW_MATCH_CHUNK_BINS)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_b,chunk", CHUNKS)
    def test_soft_equals_reordered_copies(self, monkeypatch, n_b, chunk, dtype):
        monkeypatch.setattr(attention, "WINDOW_MATCH_CHUNK_BINS", chunk)
        assert attention.WINDOW_TILE_BINS == 2
        rng = np.random.default_rng(130 + n_b)
        cfg = AttentionConfig(embed_dim=6, n_heads=2, bin_size=5)
        leaves = self.leaves(rng, n_b, dtype=dtype)
        probe = rng.normal(size=(n_b, 5, 6)).astype(dtype)
        with no_grad():
            free = self.window(leaves, cfg, MatchedBins).data
        out, grads = probed_output_and_grads(lambda: self.window(leaves, cfg, MatchedBins), leaves, probe)
        want_out, want_grads = probed_output_and_grads(
            lambda: self.window(leaves, cfg, reorder_bins), leaves, probe)
        assert out.dtype == dtype
        assert np.array_equal(free, want_out) and np.array_equal(out, want_out)
        for name in leaves:
            assert grads[name].dtype == dtype, name
            assert_rel_close(grads[name], want_grads[name], self.RTOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_b,chunk", CHUNKS)
    def test_hard_equals_reordered_copies(self, monkeypatch, n_b, chunk, dtype):
        monkeypatch.setattr(attention, "WINDOW_MATCH_CHUNK_BINS", chunk)
        rng = np.random.default_rng(140 + n_b)
        cfg = AttentionConfig(embed_dim=6, n_heads=2, bin_size=5)
        leaves = self.leaves(rng, n_b, dtype=dtype)
        for t in leaves.values():
            t.requires_grad = False
        with no_grad():
            out = self.window(leaves, cfg, MatchedBins, "hard").data
            want = self.window(leaves, cfg, reorder_bins, "hard").data
        assert out.dtype == dtype and np.array_equal(out, want)

    def test_hard_mode_rejected_on_gradient_path(self):
        leaves = self.leaves(np.random.default_rng(150), 3)
        with pytest.raises(NotDifferentiablePathError):
            MatchedBins(leaves["k"], leaves["s"], "hard")
        with pytest.raises(ValueError, match="unknown reorder mode"):
            MatchedBins(leaves["k"], leaves["s"], "fuzzy")
        with pytest.raises(ValueError, match="does not match 2 bins"):
            MatchedBins(leaves["k"].data[:2], leaves["s"], "soft")

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_sublayer_equals_the_copies_path(self, mode):
        # the model's sublayer, without a graph, at the toy encoder's shapes
        rng = np.random.default_rng(151)
        cfg = AttentionConfig(embed_dim=32, n_heads=2, bin_size=64, sinkhorn_iters=8)
        weights = init_encoder_layer(cfg, rng)
        bins = Tensor(rng.normal(size=(64, 64, 32)))
        with no_grad():
            got = attention_sublayer(bins, weights, cfg, mode=mode).data
            want = copies_sublayer(bins, weights, cfg, mode=mode).data
        assert np.array_equal(got, want)

    # infer_encoder's encoder: a 24^3 grid in bins of 128, e=128, 2 heads
    N_BINS, BIN, EMBED = 108, 128, 128

    def sublayer_case(self):
        rng = np.random.default_rng(152)
        cfg = AttentionConfig(embed_dim=self.EMBED, n_heads=2, bin_size=self.BIN, sinkhorn_iters=2)
        weights = init_encoder_layer(cfg, rng)
        bins = Tensor(rng.normal(size=(self.N_BINS, self.BIN, self.EMBED)))
        bins_bytes = bins.data.nbytes
        chunk_bytes = bins_bytes * min(attention.WINDOW_MATCH_CHUNK_BINS, self.N_BINS) // self.N_BINS
        return cfg, weights, bins, bins_bytes, chunk_bytes

    def test_no_grad_sublayer_peak(self):
        # without a graph the sublayer's peak is q, k, v, the heads and one
        # chunk of matched keys and values, plus tile-sized buffers (2.6 MB
        # here): w_o's product is made once q, k and v are freed. The copies
        # path held the two whole reordered copies and w_o's product as well
        # (seven arrays)
        cfg, weights, bins, bins_bytes, chunk_bytes = self.sublayer_case()
        with no_grad():
            attention_sublayer(bins, weights, cfg)  # warm-up
            tracemalloc.start()
            try:
                out = attention_sublayer(bins, weights, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.shape == bins.shape
        assert peak < 4 * bins_bytes + 2 * chunk_bytes + bins_bytes / 4

    def test_graph_sublayer_keeps_no_reordered_copy(self):
        # a graph keeps q, k and v (the window's backward remakes the matched
        # bins from them), the heads and the output; the copies path kept the
        # two reordered copies as well
        cfg, weights, bins, bins_bytes, _ = self.sublayer_case()
        tracemalloc.start()
        try:
            out = attention_sublayer(bins, weights, cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained < 5 * bins_bytes + bins_bytes / 8


WINDOW_INPUTS = ("b_q", "b_k", "b_v", "sorted_k", "sorted_v")


class TestRecomputedWindowBackward:
    """The window's backward recomputes each tile's exponentiated blocks
    from the saved row maxima: its output and gradients equal the node that
    stored the blocks bit for bit, with a partial last tile, in f64 and f32,
    whichever of the five inputs require gradients."""

    # every input differentiated, each one left out, and each one alone
    REQUIRE_GRAD = [WINDOW_INPUTS] + [
        tuple(n for n in WINDOW_INPUTS if n != frozen) for frozen in WINDOW_INPUTS
    ] + [(n,) for n in WINDOW_INPUTS]

    @staticmethod
    def check(monkeypatch, tile, dtype, requires_grad, n_b, b, e, n_heads, seed):
        monkeypatch.setattr(attention, "WINDOW_TILE_BINS", tile)
        rng = np.random.default_rng(seed)
        cfg = AttentionConfig(embed_dim=e, n_heads=n_heads, bin_size=b)
        leaves = window_leaves(rng, n_b=n_b, b=b, e=e, trained_wo=True)
        for name, t in leaves.items():
            t.data = t.data.astype(dtype)
            t.requires_grad = name == "w_o" or name in requires_grad
        live = {name: t for name, t in leaves.items() if t.requires_grad}
        probe = rng.normal(size=(n_b, b, e)).astype(dtype)
        out, grads = probed_output_and_grads(
            lambda: call_window(windowed_attention, leaves, cfg), live, probe)
        want_out, want_grads = probed_output_and_grads(
            lambda: call_window(stored_blocks_window, leaves, cfg), live, probe)
        assert out.dtype == dtype and np.array_equal(out, want_out)
        for name in live:
            assert grads[name].dtype == dtype, name
            assert np.array_equal(grads[name], want_grads[name]), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("requires_grad", REQUIRE_GRAD, ids=lambda names: "+".join(names))
    @pytest.mark.parametrize("tile", [2, 4])  # 7 bins: tiles of 2 end in 1 bin, tiles of 4 in 3
    def test_equals_stored_blocks(self, monkeypatch, tile, requires_grad, dtype):
        self.check(monkeypatch, tile, dtype, requires_grad, n_b=7, b=5, e=6, n_heads=2, seed=120)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_stored_blocks_at_blocked_gemm_sizes(self, monkeypatch, dtype):
        # bins of 64 and 32 channels per head: GEMM shapes nearer the model's
        self.check(monkeypatch, attention.WINDOW_TILE_BINS, dtype, WINDOW_INPUTS,
                   n_b=5, b=64, e=64, n_heads=2, seed=121)


class TestTiling:
    """The tiled fused nodes at sizes that span several tiles: exact against
    one whole tile, without a graph exact against graph mode, f32 kept f32,
    and a window that holds no full-size score block, with or without a
    graph."""

    # infer_encoder's encoder: a 24^3 grid in bins of 128, e=128, 2 heads
    N_BINS, BIN, EMBED, HEADS = 108, 128, 128, 2

    def window_case(self, dtype):
        rng = np.random.default_rng(110)
        cfg = AttentionConfig(embed_dim=self.EMBED, n_heads=self.HEADS, bin_size=self.BIN)
        leaves = window_leaves(rng, n_b=self.N_BINS, b=self.BIN, e=self.EMBED, trained_wo=True)
        leaves["w_o"].data *= 1.0 / np.sqrt(self.EMBED)
        for t in leaves.values():
            t.data = t.data.astype(dtype)
        probe = rng.normal(size=(self.N_BINS, self.BIN, self.EMBED))
        return (lambda: call_window(windowed_attention, leaves, cfg)), leaves, probe

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_windowed_attention_tiles_equal_one_tile(self, monkeypatch, dtype):
        assert self.N_BINS > attention.WINDOW_TILE_BINS
        fn, leaves, probe = self.window_case(dtype)
        assert_tiles_exact(monkeypatch, attention, "WINDOW_TILE_BINS", fn, leaves, probe)

    def feed_forward_case(self, dtype):
        rng = np.random.default_rng(111)
        layer = init_encoder_layer(AttentionConfig(embed_dim=16, n_heads=2, bin_size=2), rng)
        layer.ff_b1.data[...] = rng.normal(size=64)
        layer.ff_b2.data[...] = rng.normal(size=16)
        x = Tensor(rng.normal(size=(3, 1700, 16)), requires_grad=True)  # 5100 rows, last tile partial
        leaves = {"x": x, "ff_w1": layer.ff_w1, "ff_b1": layer.ff_b1,
                  "ff_w2": layer.ff_w2, "ff_b2": layer.ff_b2}
        for t in leaves.values():
            t.data = t.data.astype(dtype)
        return (lambda: feed_forward(x, layer)), leaves, rng.normal(size=(3, 1700, 16))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_feed_forward_tiles_equal_one_tile(self, monkeypatch, dtype):
        assert 5100 > 2 * attention.FEED_FORWARD_TILE_ROWS
        fn, leaves, probe = self.feed_forward_case(dtype)
        # the weight gradients sum over the tiles; x's and b2's stay exact
        assert_tiles_exact(monkeypatch, attention, "FEED_FORWARD_TILE_ROWS", fn, leaves, probe,
                           summed=("ff_w1", "ff_b1", "ff_w2"))

    @staticmethod
    def whole_layer_norm(x, gain, bias, residual):
        """`layer_norm`'s forward formula over the whole array at once, as
        it was before its row tiles."""
        normed = x + residual
        normed -= normed.mean(axis=-1, keepdims=True)
        var = np.einsum("...i,...i->...", normed, normed)[..., None] / normed.shape[-1]
        normed *= 1.0 / np.sqrt(var + attention.LAYER_NORM_EPS)
        out = normed * gain
        out += bias
        return out

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layer_norm_tiles_equal_the_whole_formula(self, monkeypatch, dtype):
        rng = np.random.default_rng(112)
        leaves = {name: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                  for name, shape in (("x", (3, 1400, 16)), ("residual", (3, 1400, 16)),
                                      ("gain", 16), ("bias", 16))}
        want = self.whole_layer_norm(*(leaves[n].data for n in ("x", "gain", "bias", "residual")))

        def fn():
            return layer_norm(leaves["x"], leaves["gain"], leaves["bias"], residual=leaves["residual"])

        # 4200 rows of 16: the last tile of 4096 rows (the default's) and of 7 rows is partial
        assert 4200 % (attention.LAYER_NORM_TILE_ELEMENTS // 16) != 0
        for tile in (attention.LAYER_NORM_TILE_ELEMENTS, 7 * 16):
            monkeypatch.setattr(attention, "LAYER_NORM_TILE_ELEMENTS", tile)
            with no_grad():
                out = fn().data
            assert out.dtype == dtype and np.array_equal(out, want)
            assert_tiles_exact(monkeypatch, attention, "LAYER_NORM_TILE_ELEMENTS", fn, leaves,
                               rng.normal(size=(3, 1400, 16)))
        with pytest.raises(ValueError, match="residual"):
            layer_norm(leaves["x"], leaves["gain"], leaves["bias"], residual=np.zeros(16))

    def test_graph_feed_forward_keeps_no_hidden_layer(self):
        # besides the node's output, a graph holds no (n, 4e) hidden layer
        # (2.6 MB here, four times the output): the backward recomputes it
        # tile by tile. Keeping it whole held all of it
        fn, leaves, _ = self.feed_forward_case(np.float64)
        hidden_bytes = leaves["x"].data.nbytes * 4
        tracemalloc.start()
        try:
            out = fn()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained - out.data.nbytes < hidden_bytes / 16

    def test_graph_window_keeps_only_blocks_and_denominators(self):
        # besides the node's output and its product with w_o (two (N_b, B, e)
        # arrays), a graph holds only the (N_b, h, B, 1) row maxima and
        # denominators: 0.44 MB, far below one (N_b, h, B, B) block (28.3
        # MB). Storing the two exponentiated blocks held two blocks more, and
        # storing the scaled queries and unmerged heads as well two more
        # (N_b, B, e) arrays
        fn, _, _ = self.window_case(np.float64)
        block_bytes = self.N_BINS * self.HEADS * self.BIN * self.BIN * 8
        bins_bytes = self.N_BINS * self.BIN * self.EMBED * 8
        tracemalloc.start()
        try:
            out = fn()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained - 2 * bins_bytes < block_bytes / 16

    def test_no_grad_window_holds_no_full_score_block(self):
        fn, leaves, _ = self.window_case(np.float64)
        block_bytes = self.N_BINS * self.HEADS * self.BIN * self.BIN * 8  # 28.3 MB
        with no_grad():
            fn()  # warm-up
            tracemalloc.start()
            try:
                out = fn()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - out.data.nbytes < block_bytes


class TestEmbedVolume:
    def make(self, rng, n_joints=2, dims=(2, 2, 2), e=4, b=2):
        cfg = AttentionConfig(embed_dim=e, n_heads=2, bin_size=b, n_layers=0)
        weights = init_encoder_weights(n_joints, dims, cfg, rng)
        return cfg, weights

    def test_zero_volume_embeds_to_positional_table(self):
        rng = np.random.default_rng(13)
        cfg, weights = self.make(rng)
        emb = conv3d_forward(np.zeros((2, 2, 2, 2)), weights.embed_conv)  # zero-initialized bias
        bins = embed_volume(emb, weights, cfg)
        np.testing.assert_allclose(merge_bins(bins).data, weights.pos_table.data, atol=1e-15)

    def test_zero_positional_table_leaves_conv_output(self):
        rng = np.random.default_rng(14)
        cfg, weights = self.make(rng)
        weights.pos_table.data[...] = 0.0
        emb = conv3d_forward(rng.normal(size=(2, 2, 2, 2)), weights.embed_conv)
        bins = embed_volume(emb, weights, cfg)
        np.testing.assert_allclose(merge_bins(bins).data, flatten_volume(emb.data), atol=1e-15)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(15)
        cfg, weights = self.make(rng)
        emb = conv3d_forward(rng.normal(size=(2, 2, 2, 2)), weights.embed_conv)
        bins = embed_volume(emb, weights, cfg)
        assert bins.shape == (4, 2, 4)
        expect = partition_bins(flatten_volume(emb.data) + weights.pos_table.data, 2)
        np.testing.assert_allclose(bins.data, expect, atol=1e-15)

    def test_positional_table_shape_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        cfg, weights = self.make(rng)
        with pytest.raises(ValueError):
            embed_volume(np.zeros((4, 4, 2, 2)), weights, cfg)

    def test_indivisible_grid_rejected_at_init(self):
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=3)
        with pytest.raises(ConfigError):
            init_encoder_weights(2, (2, 2, 2), cfg, np.random.default_rng(0))


class TestEncoder:
    def test_depth_zero_is_embedding_passthrough(self):
        rng = np.random.default_rng(17)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2, n_layers=0)
        weights = init_encoder_weights(2, (2, 2, 2), cfg, rng)
        vol = rng.normal(size=(2, 2, 2, 2))
        out = encoder_forward(vol, weights, cfg)
        embed = merge_bins(embed_volume(conv3d_forward(vol, weights.embed_conv), weights, cfg))
        np.testing.assert_allclose(out.data, unflatten_volume(embed, (2, 2, 2)).data, atol=1e-15)

    def test_zero_attention_layer_reduces_to_norm_ffn(self):
        rng = np.random.default_rng(18)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2, n_layers=1)
        layer = init_encoder_layer(cfg, rng)
        layer.w_o.data[...] = 0.0  # kills the attention contribution
        bins = Tensor(rng.normal(size=(2, 2, 4)))
        out = encoder_layer_forward(bins, layer, cfg)
        x = layer_norm(bins, layer.ln1_gain, layer.ln1_bias, residual=np.zeros(bins.shape))
        expect = layer_norm(x, layer.ln2_gain, layer.ln2_bias, residual=feed_forward(x, layer))
        np.testing.assert_allclose(out.data, expect.data, atol=1e-14)

    def test_layer_norm_matches_manual_formula(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(3, 5))
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias), residual=np.zeros(x.shape)).data
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expect = (x - mean) / np.sqrt(var + 1e-5) * gain + bias
        np.testing.assert_allclose(out, expect, atol=1e-13)

    def test_feed_forward_matches_manual(self):
        rng = np.random.default_rng(20)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2)
        layer = init_encoder_layer(cfg, rng)
        x = rng.normal(size=(3, 4))
        out = feed_forward(Tensor(x), layer).data
        hidden = np.maximum(x @ layer.ff_w1.data + layer.ff_b1.data, 0.0)
        np.testing.assert_allclose(out, hidden @ layer.ff_w2.data + layer.ff_b2.data, atol=1e-13)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(21)
        cfg = AttentionConfig(embed_dim=32, n_heads=2, bin_size=128, sinkhorn_iters=2, n_layers=1)
        weights = init_encoder_weights(15, (32, 32, 32), cfg, rng)
        vol = rng.uniform(0, 1, size=(15, 32, 32, 32))
        with no_grad():
            out = encoder_forward(vol, weights, cfg, mode="hard")
        assert out.shape == (32, 32, 32, 32)

    def test_single_bin_equals_dense_attention(self):
        rng = np.random.default_rng(22)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=16, sinkhorn_iters=4)
        layer = init_encoder_layer(cfg, rng)
        seq = rng.normal(size=(16, 4))
        bins = partition_bins(Tensor(seq), 16)
        sparse = merge_bins(attention_sublayer(bins, layer, cfg, mode="soft")).data
        dense = dense_attention(Tensor(seq), layer.w_q, layer.w_k, layer.w_v,
                                layer.w_o, cfg).data
        assert np.abs(sparse - dense).max() <= 1e-10

    def test_counter_totals_per_layer(self):
        rng = np.random.default_rng(23)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=8, sinkhorn_iters=2, n_layers=2)
        weights = init_encoder_weights(2, (4, 4, 4), cfg, rng)
        vol = rng.uniform(0, 1, size=(2, 4, 4, 4))
        counter = ScoreCounter()
        with no_grad():
            encoder_forward(vol, weights, cfg, mode="hard", counter=counter)
        n_b, length = 8, 64
        assert counter.correlation_elements == 2 * n_b * n_b
        assert counter.window_elements == 2 * length * 2 * 8
        assert counter.total == 2 * (n_b * n_b + length * 2 * 8)
        counter.reset()
        assert counter.total == 0

    def test_long_sequence_stays_sparse(self):
        # L = 4096 runs comfortably because only N_b^2 + L*2B scores exist
        rng = np.random.default_rng(24)
        cfg = AttentionConfig(embed_dim=8, n_heads=2, bin_size=64, sinkhorn_iters=2, n_layers=1)
        weights = init_encoder_weights(1, (16, 16, 16), cfg, rng)
        vol = rng.uniform(0, 1, size=(1, 16, 16, 16))
        counter = ScoreCounter()
        with no_grad():
            encoder_forward(vol, weights, cfg, mode="hard", counter=counter)
        assert counter.total == 64 ** 2 + 4096 * 128  # 528384
        assert counter.total < 4096 ** 2

    def test_hard_mode_requires_frozen_weights(self):
        rng = np.random.default_rng(25)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2, n_layers=1)
        in_graph = init_encoder_weights(2, (2, 2, 2), cfg, rng)
        frozen = init_encoder_weights(2, (2, 2, 2), cfg, rng)
        vol = rng.uniform(0, 1, size=(2, 2, 2, 2))
        with pytest.raises(NotDifferentiablePathError):
            encoder_forward(vol, in_graph, cfg, mode="hard")
        with no_grad():
            out = encoder_forward(vol, frozen, cfg, mode="hard")
        assert np.all(np.isfinite(out.data))

    def test_encoder_gradients_match_finite_differences(self):
        rng = np.random.default_rng(26)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2, sinkhorn_iters=3, n_layers=1)
        weights = init_encoder_weights(2, (2, 2, 2), cfg, rng)
        vol = Tensor(rng.uniform(0, 1, size=(2, 2, 2, 2)), requires_grad=True)
        probe = rng.normal(size=(4, 2, 2, 2))

        def f():
            return (encoder_forward(vol, weights, cfg, mode="soft") * Tensor(probe)).sum()

        leaves = {"vol": vol, **weights.parameters()}
        err = finite_diff_check(f, leaves, eps=1e-5, max_probes=6,
                                rng=np.random.default_rng(0))
        assert err <= 1e-4

    def test_encoder_mean_gradient_matches(self):
        # mean of a layer-normed output is nearly weight-independent, so most
        # gradients are legitimately ~0; the checker's atol certifies them
        rng = np.random.default_rng(27)
        cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=2, sinkhorn_iters=2, n_layers=1)
        weights = init_encoder_weights(2, (2, 2, 2), cfg, rng)
        vol = rng.uniform(0, 1, size=(2, 2, 2, 2))

        def f():
            return encoder_forward(vol, weights, cfg, mode="soft").mean()

        err = finite_diff_check(f, weights.parameters(), eps=1e-5, max_probes=6,
                                rng=np.random.default_rng(0))
        assert err <= 1e-4
