"""The full two-branch network over one person-centered voxel grid.

Branch (1): conv embedding + positional table + sparse-attention encoder.
Branch (2): a chain of residual 3D conv blocks on the raw feature volume.
The two k=3 convs that read the raw volume (the embedding and the first
block's conv1) run as one stacked conv.
The branches are concatenated along channels, and the head, a bias-free
linear map over channels applied as one GEMM, gives per-joint voxel
probabilities; integral regression turns those into mm coordinates.

Weight sets are flat {dotted name: tensor} dicts, so they serialize
directly through the raw tensor dump format.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .attention import AttentionConfig, EncoderWeights, embed_volume, encode_bins, init_encoder_weights
from .autodiff import Tensor, as_tensor
from .config import RunConfig
from .conv import conv3d_stacked, init_residual_block, residual_forward, residual_from_conv1
from .errors import ConfigError
from .posehead import fuse_and_head
from .tensorio import load_tensor_set, save_tensor_set


@dataclass
class ModelWeights:
    encoder: EncoderWeights
    residual_blocks: list  # at least one ResidualBlock
    head: Tensor  # (n_joints, embed_dim + the last block's c_out), no bias

    def parameters(self):
        params = self.encoder.parameters("encoder")
        for i, block in enumerate(self.residual_blocks):
            params.update(block.parameters(f"residual{i}"))
        params["head.w"] = self.head
        return params


def init_model(n_joints, grid_dims, attention: AttentionConfig, residual_channels, rng):
    """Seeded weight init; draw order is fixed so a seed pins every tensor."""
    if not residual_channels:
        raise ConfigError("residual_channels must name at least one block")
    encoder = init_encoder_weights(n_joints, grid_dims, attention, rng)
    blocks = []
    c = n_joints
    for c_out in residual_channels:
        blocks.append(init_residual_block(c, int(c_out), rng))
        c = int(c_out)
    c += attention.embed_dim
    bound = float(np.sqrt(1.0 / c))
    head = Tensor(rng.uniform(-bound, bound, size=(n_joints, c)), requires_grad=True)
    return ModelWeights(encoder=encoder, residual_blocks=blocks, head=head)


def init_model_from_config(cfg: RunConfig):
    """Seeded weights for `cfg`, every tensor cast to `cfg.np_dtype`."""
    rng = np.random.default_rng(cfg.seed)
    dims = (cfg.grid_resolution,) * 3
    weights = init_model(cfg.n_joints, dims, cfg.attention, cfg.residual_channels, rng)
    for t in weights.parameters().values():
        t.data = t.data.astype(cfg.np_dtype, copy=False)
    return weights


def model_forward(vol, weights: ModelWeights, attention: AttentionConfig,
                  mode="soft", counter=None):
    """Feature volume (J, X, Y, Z) -> per-joint voxel probabilities (J, X, Y, Z).

    Both branches open with a k=3 conv of `vol`: the encoder's embed conv
    and the first residual block's conv1 (`init_model` gives every model
    at least one block). They run as one `conv3d_stacked` call, so `vol`
    is gathered into im2col columns once (and once more in a backward, for
    the stacked weight gradient). The result equals `encoder_forward` and a
    chain of `residual_forward` fed into `fuse_and_head`, bit for bit wherever
    `conv3d_stacked` rounds like the separate convs. The graph keeps only the
    values its backward passes read, and `Tensor.backward` drops it node by node.
    Opens `counter` around the encoder; perfbench passes it by name.
    """
    vol = as_tensor(vol)
    encoder, blocks = weights.encoder, weights.residual_blocks
    emb, h = conv3d_stacked(vol, (encoder.embed_conv, blocks[0].conv1))
    x_c = residual_from_conv1(vol, h, blocks[0])
    del h
    bins = embed_volume(emb, encoder, attention)
    # emb and h view one array; without a graph, dropping both frees it
    # before the encoder, whose working set is the forward pass's peak
    del emb
    with nullcontext() if counter is None else counter:
        x_t = encode_bins(bins, encoder, attention, vol.shape[1:], mode=mode)
    for block in blocks[1:]:
        x_c = residual_forward(x_c, block)
    return fuse_and_head(x_t, x_c, weights.head)


def save_model(directory, weights: ModelWeights):
    save_tensor_set(directory, weights.parameters())


def load_model(directory, cfg: RunConfig):
    """Rebuild a weight set dumped by `save_model`, shaped per `cfg`.

    The dump must carry exactly the tensors the config implies; extra,
    missing, or mis-shaped entries are rejected (OSError, the CLI's I/O
    exit code) rather than silently partially loaded. Tensors take the
    config's dtype, whatever dtype they were dumped in.
    """
    arrays = load_tensor_set(directory)
    weights = init_model_from_config(cfg)
    params = weights.parameters()
    if set(arrays) != set(params):
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        raise OSError(f"weight set mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in params.items():
        arr = arrays[name]
        if arr.shape != tensor.shape:
            raise OSError(f"tensor {name}: dumped shape {arr.shape} vs expected {tensor.shape}")
        tensor.data = arr.astype(tensor.data.dtype, copy=False)
    return weights
