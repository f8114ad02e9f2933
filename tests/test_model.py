"""`model_forward` runs the encoder's embed conv and the first residual
block's conv1 as one stacked conv. Its oracle is the separate-branch
composition it replaces: `encoder_forward`, a chain of `residual_forward`
and `fuse_and_head`. The model has the toy shapes (16^3 grid, e=32, 15
joints), at which the stacked GEMM rounds each output like the separate
ones (see `conv3d_stacked`).
"""

import weakref

import numpy as np
import pytest

from gridpose import AttentionConfig, ConfigError, Tensor, encoder_forward, model_forward, residual_forward
from gridpose import attention, conv, posehead
from gridpose.autodiff import as_tensor
from gridpose.autodiff import no_grad
from gridpose.model import init_model
from gridpose.posehead import fuse_and_head

ATTENTION = AttentionConfig(embed_dim=32, n_heads=2, bin_size=64, sinkhorn_iters=8, n_layers=1)
DIMS = (16, 16, 16)
N_JOINTS = 15


def composed_model(vol, weights, attention, mode="soft"):
    x_t = encoder_forward(vol, weights.encoder, attention, mode=mode)
    x_c = vol
    for block in weights.residual_blocks:
        x_c = residual_forward(x_c, block)
    return fuse_and_head(x_t, x_c, weights.head)


def make(residual_channels, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    weights = init_model(N_JOINTS, DIMS, ATTENTION, residual_channels, rng)
    for t in weights.parameters().values():
        t.data = t.data.astype(dtype)
    vol = rng.uniform(0.0, 1.0, size=(N_JOINTS, *DIMS)).astype(dtype)
    return weights, vol


# (2,): a block far narrower than the embedding it is stacked with
RESIDUAL_CHANNELS = [(2,), (32,), (32, 16)]


def test_init_model_rejects_no_residual_block():
    with pytest.raises(ConfigError):
        init_model(N_JOINTS, DIMS, ATTENTION, (), np.random.default_rng(0))


@pytest.mark.parametrize("residual_channels", RESIDUAL_CHANNELS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_no_grad_equals_composition_bit_for_bit(residual_channels, dtype, mode):
    weights, vol = make(residual_channels, dtype)
    with no_grad():
        got = model_forward(vol, weights, ATTENTION, mode=mode)
        want = composed_model(vol, weights, ATTENTION, mode=mode)
    assert got.data.dtype == dtype
    assert np.array_equal(got.data, want.data)


def probed_gradients(forward, weights, vol, probe):
    """Forward value and every gradient (parameters and volume) of sum(out * probe)."""
    leaves = {"vol": vol, **weights.parameters()}
    for t in leaves.values():
        t.zero_grad()
    out = forward(vol, weights, ATTENTION)
    (out * Tensor(probe)).sum().backward()
    return out.data.copy(), {name: t.grad.copy() for name, t in leaves.items()}


@pytest.mark.parametrize("residual_channels", RESIDUAL_CHANNELS)
def test_graph_gradients_match_composition(residual_channels):
    weights, vol = make(residual_channels, seed=1)
    vol = Tensor(vol, requires_grad=True)
    probe = np.random.default_rng(2).normal(size=(N_JOINTS, *DIMS))
    got_out, got = probed_gradients(model_forward, weights, vol, probe)
    want_out, want = probed_gradients(composed_model, weights, vol, probe)
    assert np.array_equal(got_out, want_out)
    assert got.keys() == want.keys()
    for name in want:
        scale = np.abs(want[name]).max()
        assert scale > 0.0, name
        assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("residual_channels", RESIDUAL_CHANNELS)
def test_one_conv_call_fewer_with_the_same_work(residual_channels, monkeypatch):
    """Stacking saves one conv3d call (one im2col of the volume) and no
    multiply-add."""
    weights, vol = make(residual_channels)
    calls = []

    def counting_conv3d(x, w, b):
        calls.append(int(np.prod(x.shape[1:])) * int(np.prod(w.shape)))
        return original(x, w, b)

    original = conv.conv3d
    monkeypatch.setattr(conv, "conv3d", counting_conv3d)
    with no_grad():
        model_forward(vol, weights, ATTENTION)
        stacked = list(calls)
        calls.clear()
        composed_model(vol, weights, ATTENTION)
    assert len(stacked) == len(calls) - 1
    assert sum(stacked) == sum(calls)


def test_biases_that_shift_every_voxel_get_no_gradient():
    # The per-joint softmax over voxels ignores a constant added to all of a
    # joint's logits, so the head has no bias. The last encoder layer's
    # ln2_bias adds one such constant, through the head, and keeps its
    # gradient of rounding noise (about 1e-15 of head.w's). Every other
    # parameter reaches training.
    weights, vol = make((32,))
    probe = np.random.default_rng(1).normal(size=(N_JOINTS, *DIMS))
    (model_forward(vol, weights, ATTENTION) * Tensor(probe)).sum().backward()
    params = weights.parameters()
    assert "head.b" not in params
    scale = np.abs(params["head.w"].grad).max()
    ln2_bias = f"encoder.layer{ATTENTION.n_layers - 1}.ln2_bias"
    assert np.abs(params[ln2_bias].grad).max() <= 1e-12 * scale
    assert np.abs(params["encoder.layer0.ln1_bias"].grad).max() > 1e-3 * scale
    for name, t in params.items():
        if name != ln2_bias:
            assert np.abs(t.grad).max() > 1e-6 * scale, name


def test_graph_keeps_only_the_values_that_backward_passes_read(monkeypatch):
    """A graph node keeps no value of its own, and a backward closure keeps
    an input's value only if it reads it. So once a forward pass drops a
    Tensor that no backward reads, its value is freed at once."""
    weights, vol = make((32,))
    unread, read = [], []

    def record(owner, name, before=None, after=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            for into, values in ((unread, before), (read, after)):
                if values is not None:
                    into.extend(weakref.ref(as_tensor(v).data) for v in values(out, *args, **kwargs))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    # read by no backward: layer norm's residual operand (the attention and
    # the feed-forward outputs), the embedding's flatten, the two convs that
    # the block's + adds, that sum (relu keeps a mask) and fuse_and_head's
    # concat operands
    record(attention, "layer_norm", before=lambda out, x, gain, bias, residual: [residual])
    record(attention, "flatten_volume", before=lambda out, vol: [vol, out])
    record(conv, "conv3d_forward", before=lambda out, vol, layer: [out])
    record(Tensor, "relu", before=lambda out, x: [x])
    record(posehead, "concat", before=lambda out, tensors, axis=0: tensors)
    # read: every conv's input and both operands of every @
    record(conv, "conv3d", after=lambda out, x, w, b: [x])
    record(Tensor, "__matmul__", after=lambda out, a, b: [a, b])
    loss = (model_forward(vol, weights, ATTENTION) * Tensor(np.ones(vol.shape))).sum()
    assert len(unread) == 2 * ATTENTION.n_layers + 2 + 2 + 1 + 2
    assert [r for r in unread if r() is not None] == []
    assert len(read) > 10 and all(r() is not None for r in read)
    loss.backward()
    assert all(t.grad is not None for t in weights.parameters().values())
