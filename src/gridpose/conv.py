"""Same-padded 3D convolution (cross-correlation) and the residual block.

Volumes are (C, X, Y, Z). Kernels must be odd so that zero padding of
(k-1)/2 keeps spatial dimensions unchanged. One im2col gather serves the
forward pass and both gradients; the input gradient correlates the output
gradient with the flipped, in/out-transposed kernel (the adjoint).

The im2col gather reads a channels-last padded copy of the volume, so its
columns are ordered (kx, ky, kz, C) and every copied run is C contiguous
values rather than 3-element strides; the weight matrix is permuted to
that order and its gradient permuted back. It gathers one slab of whole
x-planes at a time, and each pass multiplies a slab before the next one
is gathered, so no pass holds a whole im2col matrix and no graph keeps
one: the backward regathers the input's slabs for the weight gradient,
which sums their products over the slabs (a checkpoint, after Chen et al.
2016), then gathers the output gradient's slabs for the input gradient.
A k=1 conv needs no padding or windows: its columns are the volume
itself, channels last, in one slab. The output is
the (L, C) GEMM result viewed as (C, X, Y, Z), so a conv that feeds the
next one hands it channels-last memory. All model-math functions here
accept plain ndarrays or autodiff Tensors and always return a Tensor (use
``.data`` for the raw array).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, concat, split


# Voxels (im2col rows) gathered per GEMM of a k > 1 conv: whole x-planes,
# at least this many, so a conv holds one slab of columns instead of the
# whole (L, k^3*C) matrix, in the forward pass and in both gradients. Slabs
# of 512 rows made OpenBLAS round some GEMM shapes differently (stacked
# layers stopped equaling separate ones); from 1024 rows on the forward
# GEMMs round like the whole product.
CONV_SLAB_ROWS = 1024


def _windows(vol, k):
    """The zero-padded k^3 patches of `vol` (C, X, Y, Z), channels last: an
    (X, Y, Z, kx, ky, kz, C) view of a padded (X, Y, Z, C) copy, so that
    gathering it copies contiguous C-runs."""
    c, sx, sy, sz = vol.shape
    pad = (k - 1) // 2
    padded = np.zeros((sx + 2 * pad, sy + 2 * pad, sz + 2 * pad, c), dtype=vol.dtype)
    padded[pad:pad + sx, pad:pad + sy, pad:pad + sz] = vol.transpose(1, 2, 3, 0)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k, k), axis=(0, 1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 6, 3)


def _im2col_slabs(vol, k):
    """Yield (lo, hi, cols): rows lo..hi of the (X*Y*Z, k^3*C) im2col matrix
    of `vol` (C, X, Y, Z). Rows are voxels in (x, y, z) order, columns the
    zero-padded k^3 patch as (kx, ky, kz, C). For k > 1 a slab is
    `CONV_SLAB_ROWS` or more rows of whole x-planes, gathered into a single
    slab-sized buffer that the next slab overwrites; the whole matrix is
    never held. A k=1 conv's matrix is one slab, the volume itself, channels
    last."""
    c, sx, sy, sz = vol.shape
    plane = sy * sz
    if k == 1:
        yield 0, sx * plane, vol.transpose(1, 2, 3, 0).reshape(-1, c)
        return
    windows = _windows(vol, k)
    planes = -(-CONV_SLAB_ROWS // plane)
    slab = np.empty((min(planes, sx) * plane, k**3 * c), dtype=vol.dtype)
    for x0 in range(0, sx, planes):
        x1 = min(x0 + planes, sx)
        cols = slab[:(x1 - x0) * plane]
        cols.reshape(x1 - x0, sy, sz, k, k, k, c)[...] = windows[x0:x1]
        yield x0 * plane, x1 * plane, cols


def _im2col_gemm(vol, k, w_mat):
    """The (X*Y*Z, c_out) product of `vol`'s im2col matrix with `w_mat`.T,
    slab by slab (see `_im2col_slabs`), where w_mat is (c_out, k^3*C) with
    columns ordered like the matrix."""
    out = np.empty((vol[0].size, w_mat.shape[0]), dtype=np.result_type(vol, w_mat))
    for lo, hi, cols in _im2col_slabs(vol, k):
        np.matmul(cols, w_mat.T, out=out[lo:hi])
    return out


def _weight_matrix(w):
    """(c_out, c_in, k, k, k) kernel -> (c_out, k^3*c_in), columns ordered like the im2col matrix."""
    return w.transpose(0, 2, 3, 4, 1).reshape(w.shape[0], -1)


def conv3d(x, w, b):
    """Same-padded 3D cross-correlation as an autodiff graph node.

    x: (c_in, X, Y, Z), w: (c_out, c_in, k, k, k), b: (c_out,). The node
    keeps no im2col matrix. Its backward regathers the slabs of `x.data`
    and sums each slab's product with its rows of the output gradient into
    the weight gradient, then gathers the output gradient's slabs for the
    input gradient; one slab is held at a time.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    c_out, c_in, k = w.shape[0], w.shape[1], w.shape[2]
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, layer expects {c_in}")
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")

    out_mat = _im2col_gemm(x.data, k, _weight_matrix(w.data))  # (L, c_out)
    out_mat += b.data
    out_data = out_mat.T.reshape(c_out, *x.shape[1:])
    x_data, w_data, x_node, w_node, b_node = x.data, w.data, x._node, w._node, b._node

    def backward(g):
        g_mat = g.reshape(c_out, -1).T  # (L, c_out)
        # g_mat.T @ im2col(x), summed over the slabs: this reorders the sum
        # over voxels, so it rounds like the whole product only for one slab
        w_grad = sum(g_mat[lo:hi].T @ cols for lo, hi, cols in _im2col_slabs(x_data, k))
        w_node.accumulate(w_grad.reshape(c_out, k, k, k, c_in).transpose(0, 4, 1, 2, 3))
        b_node.accumulate(g_mat.sum(axis=0))
        # skipped for a constant input: the feature volume into the first
        # convs would cost one adjoint gather and GEMM per step
        if x_node.requires_grad:
            w_adj = w_data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            dx_mat = _im2col_gemm(g, k, _weight_matrix(w_adj))  # (L, c_in)
            x_node.accumulate(dx_mat.T.reshape(x_data.shape))

    return Tensor._make(out_data, (x, w, b), backward)


@dataclass
class Conv3dLayer:
    """Weights of one same-padded conv layer; padding is (k-1)/2, never stored."""

    w: Tensor  # (c_out, c_in, k, k, k)
    b: Tensor  # (c_out,)

    def __post_init__(self):
        self.w = as_tensor(self.w)
        self.b = as_tensor(self.b)
        if self.w.ndim != 5 or self.w.shape[2] != self.w.shape[3] or self.w.shape[3] != self.w.shape[4]:
            raise ValueError(f"conv weights must be (c_out, c_in, k, k, k), got {self.w.shape}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {self.kernel_size}")
        if self.b.shape != (self.c_out,):
            raise ValueError(f"bias shape {self.b.shape} does not match c_out={self.c_out}")
        if not (np.all(np.isfinite(self.w.data)) and np.all(np.isfinite(self.b.data))):
            raise ValueError("conv weights must be finite")

    @property
    def c_out(self):
        return self.w.shape[0]

    @property
    def c_in(self):
        return self.w.shape[1]

    @property
    def kernel_size(self):
        return self.w.shape[2]

    def parameters(self, prefix):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


def init_conv3d(c_in, c_out, kernel_size, rng):
    """Fan-in scaled uniform init: weights in +-sqrt(1/(c_in*k^3)), zero bias."""
    bound = float(np.sqrt(1.0 / (c_in * kernel_size**3)))
    w = rng.uniform(-bound, bound, size=(c_out, c_in, kernel_size, kernel_size, kernel_size))
    b = np.zeros(c_out)
    return Conv3dLayer(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


def conv3d_forward(vol, layer: Conv3dLayer):
    """Apply one conv layer; output spatial dims equal input dims."""
    return conv3d(vol, layer.w, layer.b)


def conv3d_stacked(vol, layers):
    """Apply conv layers of one kernel size to the same volume as a single
    `conv3d`: one im2col gather of `vol` and one GEMM per slab (in training
    also one weight-gradient gather), with the weights and biases stacked
    along c_out.
    Returns the outputs split back per layer, in the order of `layers`.

    Each output holds the same dot products as that layer's own
    `conv3d_forward`; whether they round alike depends on the BLAS kernel
    each GEMM shape selects. With OpenBLAS they are equal bit for bit at
    person-grid sizes for layers of two or more channels. A one-channel
    layer (which numpy hands to gemv) and volumes of a few hundred voxels
    (OpenBLAS's small-matrix kernel) differ in the last bits."""
    out = conv3d(vol, concat([layer.w for layer in layers]), concat([layer.b for layer in layers]))
    return split(out, [layer.c_out for layer in layers])


@dataclass
class ResidualBlock:
    """Two k=3 convs summed with a k=1 skip projection, then ReLU."""

    conv1: Conv3dLayer  # c_in -> c_out, k=3
    conv2: Conv3dLayer  # c_out -> c_out, k=3
    skip: Conv3dLayer  # c_in -> c_out, k=1

    def __post_init__(self):
        if self.conv1.c_out != self.conv2.c_in:
            raise ValueError("main-path channel mismatch between conv1 and conv2")
        if self.conv2.c_out != self.skip.c_out:
            raise ValueError("main path and skip path must produce the same channels")
        if self.conv1.c_in != self.skip.c_in:
            raise ValueError("main path and skip path must consume the same channels")

    def parameters(self, prefix):
        params = {}
        params.update(self.conv1.parameters(f"{prefix}.conv1"))
        params.update(self.conv2.parameters(f"{prefix}.conv2"))
        params.update(self.skip.parameters(f"{prefix}.skip"))
        return params


def init_residual_block(c_in, c_out, rng):
    return ResidualBlock(
        conv1=init_conv3d(c_in, c_out, 3, rng),
        conv2=init_conv3d(c_out, c_out, 3, rng),
        skip=init_conv3d(c_in, c_out, 1, rng),
    )


def residual_from_conv1(vol, h, block: ResidualBlock):
    """The residual block past its first conv: ReLU(conv2(h) + skip(vol)),
    where h = conv1(vol)."""
    main = conv3d_forward(h, block.conv2)
    shortcut = conv3d_forward(vol, block.skip)
    return (main + shortcut).relu()


def residual_forward(vol, block: ResidualBlock):
    """ReLU(conv2(conv1(vol)) + skip(vol))."""
    return residual_from_conv1(vol, conv3d_forward(vol, block.conv1), block)
