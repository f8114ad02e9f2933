"""Same-padded 3D convolution and residual blocks vs naive loop oracles."""

import tracemalloc

import numpy as np
import pytest

from gridpose import (
    Conv3dLayer,
    Tensor,
    conv3d_forward,
    finite_diff_check,
    init_conv3d,
    init_residual_block,
    residual_forward,
)
from gridpose import conv
from gridpose.autodiff import concat
from gridpose.conv import conv3d_stacked
from conftest import assert_tiles_exact


def conv3d_oracle(x, w, b):
    """Naive 7-loop same-padded cross-correlation."""
    c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2]
    pad = (k - 1) // 2
    _, sx, sy, sz = x.shape
    out = np.zeros((c_out, sx, sy, sz))
    for o in range(c_out):
        for ix in range(sx):
            for iy in range(sy):
                for iz in range(sz):
                    acc = b[o]
                    for i in range(c_in):
                        for a in range(k):
                            for bb in range(k):
                                for c in range(k):
                                    px = ix + a - pad
                                    py = iy + bb - pad
                                    pz = iz + c - pad
                                    if 0 <= px < sx and 0 <= py < sy and 0 <= pz < sz:
                                        acc += x[i, px, py, pz] * w[o, i, a, bb, c]
                    out[o, ix, iy, iz] = acc
    return out


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 4, 4))
        w = np.eye(3).reshape(3, 3, 1, 1, 1)
        layer = Conv3dLayer(Tensor(w), Tensor(np.zeros(3)))
        np.testing.assert_allclose(conv3d_forward(x, layer).data, x, atol=1e-15)

    def test_all_ones_kernel_counts_neighbors(self):
        x = np.ones((1, 3, 3, 3))
        layer = Conv3dLayer(Tensor(np.ones((1, 1, 3, 3, 3))), Tensor(np.zeros(1)))
        out = conv3d_forward(x, layer).data
        assert out[0, 1, 1, 1] == 27.0  # full neighborhood
        assert out[0, 0, 0, 0] == 8.0  # corner sees a 2x2x2 slab

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        b = rng.normal(size=3)
        layer = Conv3dLayer(Tensor(w), Tensor(b))
        out = conv3d_forward(x, layer).data
        assert np.abs(out - conv3d_oracle(x, w, b)).max() <= 1e-12

    def test_matches_naive_loop_anisotropic_dims(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 3, 4))
        w = rng.normal(size=(2, 1, 3, 3, 3))
        b = rng.normal(size=2)
        out = conv3d_forward(x, Conv3dLayer(Tensor(w), Tensor(b))).data
        assert np.abs(out - conv3d_oracle(x, w, b)).max() <= 1e-12

    def test_pointwise_kernel_matches_naive_loop_anisotropic_dims(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2, 3, 4))
        w = rng.normal(size=(2, 3, 1, 1, 1))
        b = rng.normal(size=2)
        out = conv3d_forward(x, Conv3dLayer(Tensor(w), Tensor(b))).data
        assert np.abs(out - conv3d_oracle(x, w, b)).max() <= 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv3dLayer(Tensor(np.zeros((1, 1, 2, 2, 2))), Tensor(np.zeros(1)))

    def test_channel_mismatch_rejected(self):
        layer = init_conv3d(2, 3, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv3d_forward(np.zeros((4, 2, 2, 2)), layer)

    def test_non_finite_weights_rejected(self):
        w = np.zeros((1, 1, 1, 1, 1))
        w[0] = np.nan
        with pytest.raises(ValueError):
            Conv3dLayer(Tensor(w), Tensor(np.zeros(1)))

    def test_init_bounds_and_zero_bias(self):
        layer = init_conv3d(2, 4, 3, np.random.default_rng(3))
        bound = np.sqrt(1.0 / (2 * 27))
        assert np.abs(layer.w.data).max() <= bound
        np.testing.assert_array_equal(layer.b.data, np.zeros(4))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        layer = init_conv3d(2, 2, 3, rng)
        probe = rng.normal(size=(2, 3, 3, 3))

        def f():
            return (conv3d_forward(x, layer) * Tensor(probe)).sum()

        leaves = {"x": x, **layer.parameters("conv")}
        err = finite_diff_check(f, leaves, eps=1e-5, max_probes=40,
                                rng=np.random.default_rng(0))
        assert err <= 1e-5

    @pytest.mark.parametrize("k", [1, 3])
    def test_input_gradient_is_adjoint_of_conv_matrix(self, k):
        # The conv is linear in x: column j of M is the oracle applied to the
        # j-th basis volume, and d/dx sum(conv(x) * g) must equal M^T g.
        rng = np.random.default_rng(5 + k)
        shape = (2, 2, 3, 4)
        w = rng.normal(size=(3, 2, k, k, k))
        basis = np.eye(int(np.prod(shape))).reshape(-1, *shape)
        m = np.stack([conv3d_oracle(e, w, np.zeros(3)).ravel() for e in basis], axis=1)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        g = rng.normal(size=(3, *shape[1:]))
        (conv3d_forward(x, Conv3dLayer(Tensor(w), Tensor(np.zeros(3)))) * Tensor(g)).sum().backward()
        assert np.abs(x.grad - (m.T @ g.ravel()).reshape(shape)).max() <= 1e-12


    @pytest.mark.parametrize("k", [1, 3])
    def test_weight_gradient_matches_oracle(self, k):
        # The conv is linear in w: d/dw sum(conv(x, w) * g) has, at each kernel
        # entry, the oracle's response to that entry's basis kernel dotted with g.
        rng = np.random.default_rng(11 + k)
        x = rng.normal(size=(2, 2, 3, 4))
        w_shape = (3, 2, k, k, k)
        g = rng.normal(size=(3, 2, 3, 4))
        basis = np.eye(int(np.prod(w_shape))).reshape(-1, *w_shape)
        expect = np.array([(conv3d_oracle(x, e, np.zeros(3)) * g).sum() for e in basis])
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (conv3d_forward(x, Conv3dLayer(w, b)) * Tensor(g)).sum().backward()
        assert np.abs(w.grad - expect.reshape(w_shape)).max() <= 1e-12
        np.testing.assert_allclose(b.grad, g.reshape(3, -1).sum(axis=1), atol=1e-12)

    @pytest.mark.parametrize("input_requires_grad", [False, True])
    def test_constant_input_gets_no_adjoint(self, monkeypatch, input_requires_grad):
        # the feature volume into the first convs requires no grad: the
        # backward computes the weight and bias gradients, and skips the
        # input adjoint's gather and GEMM
        calls = []
        im2col_gemm = conv._im2col_gemm
        monkeypatch.setattr(conv, "_im2col_gemm", lambda *a: calls.append(1) or im2col_gemm(*a))
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=input_requires_grad)
        layer = init_conv3d(2, 3, 3, rng)
        out = conv3d_forward(x, layer)
        assert len(calls) == 1
        (out * Tensor(rng.normal(size=out.shape))).sum().backward()
        assert len(calls) == 1 + input_requires_grad
        assert (x.grad is not None) == input_requires_grad
        assert layer.w.grad is not None and layer.b.grad is not None


class TestResidualBlock:
    def test_all_zero_weights_give_zero_output(self):
        rng = np.random.default_rng(5)
        block = init_residual_block(2, 3, rng)
        for t in block.parameters("b").values():
            t.data[...] = 0.0
        out = residual_forward(rng.normal(size=(2, 3, 3, 3)), block)
        np.testing.assert_array_equal(out.data, np.zeros((3, 3, 3, 3)))

    def test_zero_main_path_identity_skip_is_relu(self):
        rng = np.random.default_rng(6)
        block = init_residual_block(2, 2, rng)
        block.conv1.w.data[...] = 0.0
        block.conv1.b.data[...] = 0.0
        block.conv2.w.data[...] = 0.0
        block.conv2.b.data[...] = 0.0
        block.skip.w.data[...] = np.eye(2).reshape(2, 2, 1, 1, 1)
        block.skip.b.data[...] = 0.0
        x = rng.normal(size=(2, 3, 3, 3))
        np.testing.assert_allclose(residual_forward(x, block).data,
                                   np.maximum(x, 0.0), atol=1e-15)

    def test_matches_composition_of_convs(self):
        rng = np.random.default_rng(7)
        block = init_residual_block(2, 4, rng)
        x = rng.normal(size=(2, 4, 4, 4))
        main = conv3d_forward(conv3d_forward(x, block.conv1), block.conv2)
        skip = conv3d_forward(x, block.skip)
        expect = np.maximum(main.data + skip.data, 0.0)
        np.testing.assert_allclose(residual_forward(x, block).data, expect, atol=1e-13)

    def test_gradients_through_block(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True)
        block = init_residual_block(2, 3, rng)
        probe = rng.normal(size=(3, 2, 2, 2))

        def f():
            return (residual_forward(x, block) * Tensor(probe)).sum()

        leaves = {"x": x, **block.parameters("b")}
        err = finite_diff_check(f, leaves, eps=1e-5, max_probes=30,
                                rng=np.random.default_rng(0))
        assert err <= 1e-5


class TestStackedConv:
    """`conv3d_stacked` runs layers that read one volume as one conv: each
    output equals that layer's own conv bit for bit at person-grid sizes,
    and the gradients of the stacked weights reach each layer."""

    @pytest.mark.parametrize("k, c_outs", [
        (3, (32, 32)), (3, (128, 32)), (3, (5, 2, 7)), (3, (4,)), (1, (3, 2)),
    ])
    def test_outputs_equal_separate_convs(self, k, c_outs):
        rng = np.random.default_rng(40)
        layers = [init_conv3d(15, c, k, rng) for c in c_outs]
        for layer in layers:
            layer.b.data[...] = rng.normal(size=layer.c_out)
        x = rng.uniform(size=(15, 16, 16, 16))
        outs = conv3d_stacked(x, layers)
        assert len(outs) == len(layers)
        for out, layer in zip(outs, layers):
            assert np.array_equal(out.data, conv3d_forward(x, layer).data)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        layers = [init_conv3d(2, c, 3, rng) for c in (3, 2)]
        x = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        probes = [rng.normal(size=(layer.c_out, 3, 3, 3)) for layer in layers]

        def f():
            outs = conv3d_stacked(x, layers)
            return sum((out * Tensor(p)).sum() for out, p in zip(outs, probes))

        leaves = {"x": x}
        for i, layer in enumerate(layers):
            leaves.update(layer.parameters(f"layer{i}"))
        assert finite_diff_check(f, leaves, eps=1e-5) <= 1e-7

    def test_output_gradient_is_laid_out_like_the_output(self, monkeypatch):
        # The stacked output is channels-last, and its pieces' gradients
        # accumulate into one laid out the same, as np.zeros_like(output)
        # would: the bias gradients sum it over the voxels, and a C-order
        # gradient moved them by rounding (1.3e-16 in the toy model).
        rng = np.random.default_rng(42)
        layers = [init_conv3d(15, c, 3, rng) for c in (32, 16)]
        x = rng.uniform(size=(15, 16, 16, 16))
        stacked, gradients = [], []

        def recording_split(out, sizes):
            backward = out._backward

            def hooked(g):
                gradients.append(g)
                backward(g)

            out._backward = hooked
            stacked.append(out.data)
            return split(out, sizes)

        split = conv.split
        monkeypatch.setattr(conv, "split", recording_split)
        outs = conv3d_stacked(x, layers)
        probes = [rng.normal(size=out.shape) for out in outs]
        sum((out * Tensor(p)).sum() for out, p in zip(outs, probes)).backward()
        (value,), (g,) = stacked, gradients
        assert not value.flags.c_contiguous
        want = np.zeros_like(value)
        want[...] = np.concatenate(probes)
        assert g.strides == want.strides
        assert np.array_equal(g, want)
        b_want = want.reshape(want.shape[0], -1).T.sum(axis=0)
        assert np.array_equal(np.concatenate([layer.b.grad for layer in layers]), b_want)


def test_backward_runs_a_wrapper_assigned_to_backward():
    # a benchmark times the conv's backward by wrapping a result's _backward
    rng = np.random.default_rng(43)
    layer = init_conv3d(2, 3, 3, rng)
    x = rng.normal(size=(2, 4, 4, 4))
    probe = Tensor(rng.normal(size=(3, 4, 4, 4)))
    (conv3d_forward(x, layer) * probe).sum().backward()
    want = layer.w.grad.copy()
    layer.w.zero_grad()
    out = conv3d_forward(x, layer)
    backward, calls = out._backward, []

    def wrapper(g):
        calls.append(g.shape)
        backward(g)

    out._backward = wrapper
    assert out._backward is wrapper
    (out * probe).sum().backward()
    assert calls == [out.shape]
    assert np.array_equal(layer.w.grad, want)


class TestSlabTiling:
    """A k=3 conv gathers its im2col matrix one slab of x-planes at a time,
    in the forward pass and for both gradients: the output and the input
    gradient are exact against one whole slab at person-grid sizes, for one
    layer, a narrow layer and a stacked pair; the weight gradient, a sum
    over the slabs, is within rounding of it."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("c_in, c_outs", [(15, (32,)), (32, (2,)), (15, (32, 2))],
                             ids=["single", "narrow", "stacked"])
    @pytest.mark.parametrize("n", [16, 24])
    def test_slabs_equal_one_slab(self, monkeypatch, n, c_in, c_outs, dtype):
        assert n**3 > 2 * conv.CONV_SLAB_ROWS
        rng = np.random.default_rng(50 + n + len(c_outs))
        layers = [init_conv3d(c_in, c, 3, rng) for c in c_outs]
        x = Tensor(rng.uniform(size=(c_in, n, n, n)), requires_grad=True)
        leaves = {"x": x}
        for i, layer in enumerate(layers):
            layer.b.data[...] = rng.normal(size=layer.c_out)
            leaves.update(layer.parameters(f"layer{i}"))
        for t in leaves.values():
            t.data = t.data.astype(dtype)

        def fn():
            if len(layers) == 1:
                return conv3d_forward(x, layers[0])
            return concat(conv3d_stacked(x, layers))

        probe = rng.normal(size=(sum(c_outs), n, n, n))
        summed = [f"layer{i}.w" for i in range(len(layers))]
        assert_tiles_exact(monkeypatch, conv, "CONV_SLAB_ROWS", fn, leaves, probe, summed=summed)


def whole_matrix_weight_gradient(x, g, k):
    """g.T @ im2col(x) with the whole (L, C*k^3) matrix, as (c_out, C, k, k, k):
    the weight gradient before it summed over slabs."""
    c, sx, sy, sz = x.shape
    pad = (k - 1) // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k, k), axis=(1, 2, 3))
    cols = windows.transpose(1, 2, 3, 0, 4, 5, 6).reshape(sx * sy * sz, c * k**3)
    return (g.reshape(g.shape[0], -1) @ cols).reshape(g.shape[0], c, k, k, k)


class TestSlabbedWeightGradient:
    """The weight gradient is a sum over the slabs the forward pass gathers:
    within 1e-12 of its largest entry of the whole-matrix product, with a
    partial last slab, one whole slab and a k=1 conv (always one slab)."""

    # (5, 4, 6) has 24-voxel x-planes: 48 rows are slabs of 2, 2 and 1
    # planes, 50 rows slabs of 3 and 2, 1024 rows one slab
    @pytest.mark.parametrize("k, dims, slab_rows", [
        (3, (5, 4, 6), 48), (3, (5, 4, 6), 50), (3, (5, 4, 6), 1024),
        (3, (16, 16, 16), conv.CONV_SLAB_ROWS), (1, (5, 4, 6), 48),
    ])
    def test_matches_whole_matrix(self, monkeypatch, k, dims, slab_rows):
        monkeypatch.setattr(conv, "CONV_SLAB_ROWS", slab_rows)
        rng = np.random.default_rng(70 + k + dims[0] + slab_rows)
        x = rng.normal(size=(6, *dims))
        g = rng.normal(size=(7, *dims))
        w = Tensor(rng.normal(size=(7, 6, k, k, k)), requires_grad=True)
        (conv.conv3d(x, w, np.zeros(7)) * Tensor(g)).sum().backward()
        want = whole_matrix_weight_gradient(x, g, k)
        assert np.abs(w.grad - want).max() <= 1e-12 * np.abs(want).max()


class TestGraphMemory:
    """A recorded conv keeps no im2col matrix, and its backward never holds
    one: the weight gradient sums over slabs that it regathers from the
    input, and the input gradient gathers the output gradient's slabs."""

    N, C = 16, 32
    COLS_BYTES = N**3 * 27 * C * 8  # 28.3 MB

    def case(self):
        rng = np.random.default_rng(60)
        layer = init_conv3d(self.C, self.C, 3, rng)
        x = Tensor(rng.uniform(size=(self.C, self.N, self.N, self.N)), requires_grad=True)
        return layer, x, Tensor(rng.normal(size=(self.C, self.N, self.N, self.N)))

    def test_graph_conv_keeps_no_im2col_matrix(self):
        # the graph holds the output (1 MB); keeping the matrix held 29.4 MB
        layer, x, _ = self.case()
        tracemalloc.start()
        try:
            out = conv3d_forward(x, layer)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained < self.COLS_BYTES / 2

    def test_backward_holds_one_matrix_at_a_time(self):
        # one slab at a time: 11.3 MB over the start of the backward;
        # regathering the whole matrix for the weight gradient read 30.9 MB
        layer, x, probe = self.case()
        loss = (conv3d_forward(x, layer) * probe).sum()
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and layer.w.grad is not None
        assert peak < self.COLS_BYTES / 2
