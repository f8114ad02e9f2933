"""Voxel grid bookkeeping: world<->index mapping, sequence flattening, bins.

Conventions used across the package:

* A feature volume is an array of shape (C, X, Y, Z): channels first,
  then the three spatial axes.
* Flattening maps voxel (x, y, z) to sequence index
  ``i = x + X*y + X*Y*z``; the sequence has shape (L, C) with
  ``L = X*Y*Z``. ``GridSpec.voxel_centers()`` returns world coordinates
  in exactly this order so that sequence rows and voxel centers line up.
* A bin sequence has shape (N_b, B, C): the flat sequence split into
  contiguous blocks of B elements.
* A loop over an array's rows a block at a time takes its blocks from
  `row_blocks`, which never makes a one-row block of a longer array.

All shape transforms below work both on plain ndarrays and on autodiff
``Tensor`` objects (they only use ``reshape``/``transpose``, which both
types provide).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _as_vec3(value, dtype=np.float64):
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        arr = np.full(3, float(arr), dtype=dtype)
    if arr.shape != (3,):
        raise ConfigError(f"expected scalar or 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class GridSpec:
    """Uniform voxelization of an axis-aligned box in world millimeters."""

    center: np.ndarray
    extent: np.ndarray
    resolution: tuple[int, int, int]

    def __init__(self, center, extent, resolution):
        object.__setattr__(self, "center", _as_vec3(center))
        object.__setattr__(self, "extent", _as_vec3(extent))
        res = tuple(int(r) for r in np.atleast_1d(resolution))
        if len(res) == 1:
            res = res * 3
        object.__setattr__(self, "resolution", res)
        if len(self.resolution) != 3 or any(r < 1 for r in self.resolution):
            raise ConfigError(f"resolution must be three counts >= 1, got {resolution}")
        if not np.all(self.extent > 0):
            raise ConfigError(f"extent must be positive, got {extent}")
        if not np.all(np.isfinite(self.center)) or not np.all(np.isfinite(self.voxel_edge)):
            raise ConfigError("grid center / voxel edge must be finite")

    @property
    def voxel_edge(self):
        return self.extent / np.asarray(self.resolution, dtype=np.float64)

    @property
    def n_voxels(self):
        rx, ry, rz = self.resolution
        return rx * ry * rz

    @property
    def lower(self):
        return self.center - self.extent / 2.0

    def voxel_center(self, index):
        """World coordinates (mm) of the center of voxel `index` = (x, y, z)."""
        idx = np.asarray(index, dtype=np.int64)
        if idx.shape != (3,):
            raise ValueError(f"index must be a 3-tuple, got {index}")
        if np.any(idx < 0) or np.any(idx >= np.asarray(self.resolution)):
            raise IndexError(f"voxel index {tuple(idx)} outside resolution {self.resolution}")
        return self.lower + (idx + 0.5) * self.voxel_edge

    def voxel_centers(self):
        """All voxel centers, shape (L, 3), ordered to match `flatten_volume`."""
        rx, ry, rz = self.resolution
        x, y, z = (lo + (np.arange(r) + 0.5) * edge
                   for lo, r, edge in zip(self.lower, self.resolution, self.voxel_edge))
        centers = np.empty((rz, ry, rx, 3))
        centers[..., 0] = x
        centers[..., 1] = y[:, None]
        centers[..., 2] = z[:, None, None]
        return centers.reshape(self.n_voxels, 3)


def flatten_volume(vol):
    """(C, X, Y, Z) volume -> (L, C) sequence with index i = x + X*y + X*Y*z."""
    c, x, y, z = vol.shape
    return vol.transpose((3, 2, 1, 0)).reshape(x * y * z, c)


def unflatten_volume(seq, dims):
    """Exact inverse of `flatten_volume`; `dims` is the spatial (X, Y, Z)."""
    x, y, z = dims
    length, c = seq.shape
    if length != x * y * z:
        raise ValueError(f"sequence length {length} does not match dims {dims}")
    return seq.reshape(z, y, x, c).transpose((3, 2, 1, 0))


def partition_bins(seq, bin_size):
    """Split an (L, C) sequence into (N_b, B, C) contiguous bins.

    L must divide evenly; indivisible configurations are rejected rather
    than padded, because padding would distort bin means.
    """
    length, c = seq.shape
    if bin_size < 1:
        raise ConfigError(f"bin size must be >= 1, got {bin_size}")
    if length % bin_size != 0:
        raise ConfigError(f"sequence length {length} not divisible by bin size {bin_size}")
    return seq.reshape(length // bin_size, bin_size, c)


def merge_bins(bins):
    """Inverse of `partition_bins`: (N_b, B, C) -> (L, C)."""
    n_b, b, c = bins.shape
    return bins.reshape(n_b * b, c)


def row_blocks(n, size):
    """(lo, hi) of each block of `size` (at least 2) rows over rows 0..n, in
    order; a last block of one row joins the one before it. So no block has
    one row unless n == 1: numpy rounds a one-row matrix product by gemv."""
    starts = list(range(0, n, max(size, 2)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, [*starts[1:], n]))


def flat_index(dims, x, y, z):
    """Sequence index of voxel (x, y, z) in an (X, Y, Z) grid."""
    rx, ry, _ = dims
    return x + rx * y + rx * ry * z
