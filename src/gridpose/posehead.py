"""Branch fusion, per-joint voxel probability maps, and integral regression.

The two feature volumes (transformer branch and residual conv branch) are
concatenated along channels, mapped to one logit volume per joint by a
1x1x1 conv, and normalized with a per-joint softmax over all voxels. The
joint estimate is the probability-weighted average of voxel centers, which
keeps sub-voxel resolution and stays inside the grid (it is a convex
combination of centers). The average is taken over offsets from the grid
center, which is added back afterwards, so that rounding in the
probabilities scales with the grid's extent rather than with its distance
from the world origin (integral regression in a local frame, after Sun et
al. 2018, arXiv 1711.08229).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, concat
from .conv import Conv3dLayer, conv3d_forward
from .grid import GridSpec, flatten_volume
from .tensorio import write_json_file


@dataclass
class Pose3D:
    """One person's joints in world mm, with optional per-joint confidence.

    joints: (J, 3) finite float array.
    confidence: optional (J,) array.
    skeleton: optional list of (parent, child) joint index pairs.
    """

    joints: np.ndarray
    confidence: np.ndarray | None = None
    skeleton: list | None = None

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.ndim != 2 or self.joints.shape[1] != 3:
            raise ValueError(f"joints must be (J, 3), got {self.joints.shape}")
        if not np.all(np.isfinite(self.joints)):
            raise ValueError("joint coordinates must be finite")
        if self.confidence is not None:
            self.confidence = np.asarray(self.confidence, dtype=np.float64)
            if self.confidence.shape != (self.n_joints,):
                raise ValueError(f"confidence must be ({self.n_joints},), got {self.confidence.shape}")
        if self.skeleton is not None:
            self.skeleton = [(int(a), int(b)) for a, b in self.skeleton]
            for a, b in self.skeleton:
                if not (0 <= a < self.n_joints and 0 <= b < self.n_joints):
                    raise ValueError(f"limb ({a}, {b}) out of range for {self.n_joints} joints")

    @property
    def n_joints(self):
        return self.joints.shape[0]


def fuse_and_head(x_t, x_c, head_conv: Conv3dLayer):
    """Concatenate branch features and produce per-joint voxel probabilities.

    Parameters
    ----------
    x_t : (e, X, Y, Z) transformer-branch features.
    x_c : (f_c, X, Y, Z) conv-branch features.
    head_conv : 1x1x1 conv with c_in = e + f_c, c_out = n_joints.

    Returns
    -------
    Tensor of shape (J, X, Y, Z); each joint's slice is non-negative and
    sums to 1 over all voxels.
    """
    x_t, x_c = as_tensor(x_t), as_tensor(x_c)
    if x_t.shape[1:] != x_c.shape[1:]:
        raise ValueError(f"branch spatial dims disagree: {x_t.shape[1:]} vs {x_c.shape[1:]}")
    if head_conv.c_in != x_t.shape[0] + x_c.shape[0]:
        raise ValueError(
            f"head conv expects {head_conv.c_in} channels, branches provide {x_t.shape[0] + x_c.shape[0]}"
        )
    fused = concat([x_t, x_c], axis=0)
    logits = conv3d_forward(fused, head_conv)  # (J, X, Y, Z)
    j = logits.shape[0]
    dims = logits.shape[1:]
    flat = logits.reshape(j, int(np.prod(dims)))
    return flat.softmax(axis=-1).reshape(j, *dims)


def integral_regression(probs, grid: GridSpec):
    """Probability-weighted average of voxel centers per joint.

    Accepts (J, X, Y, Z) probabilities (Tensor or array) and returns a
    (J, 3) Tensor of world-mm coordinates; differentiable w.r.t. probs.
    Probability volumes must be normalized per joint. The average runs
    over offsets from `grid.center`, added back at the end.
    """
    probs = as_tensor(probs)
    if probs.ndim != 4:
        raise ValueError(f"expected (J, X, Y, Z) probabilities, got shape {probs.shape}")
    if tuple(probs.shape[1:]) != tuple(grid.resolution):
        raise ValueError(f"probability dims {probs.shape[1:]} do not match grid {grid.resolution}")
    sums = probs.data.reshape(probs.shape[0], -1).sum(axis=1)
    # a float32 softmax over a 16^3-24^3 grid sums to 1 only within ~5e-6
    tol = max(1e-6, 1e3 * np.finfo(probs.data.dtype).eps)
    if np.any(probs.data < -1e-12) or np.max(np.abs(sums - 1.0)) > tol:
        raise ValueError("probabilities must be non-negative and sum to 1 per joint")
    flat = flatten_volume(probs)  # (L, J), ordered like voxel_centers()
    offsets = Tensor(grid.voxel_centers() - grid.center)  # (L, 3)
    return flat.transpose((1, 0)) @ offsets + grid.center


def regress_pose(probs, grid: GridSpec):
    """Inference wrapper: probabilities -> Pose3D.

    Confidence per joint is the peak voxel probability, a cheap proxy for
    how concentrated the distribution is.
    """
    probs = as_tensor(probs)
    joints = integral_regression(probs, grid).data
    confidence = probs.data.reshape(probs.shape[0], -1).max(axis=1)
    return Pose3D(joints=joints, confidence=confidence)


# -- pose JSON -----------------------------------------------------------------


def poses_to_json(poses, skeleton=None):
    """Serialize poses to the pose-file dict.

    Layout: {"poses": [{"joints": [[x, y, z] * J], "confidence": [...]}],
    "skeleton": [[a, b], ...]}. Confidence is omitted per pose when absent,
    and the skeleton when `skeleton` is None.
    """
    entries = []
    for pose in poses:
        entry = {"joints": [[float(v) for v in row] for row in pose.joints]}
        if pose.confidence is not None:
            entry["confidence"] = [float(v) for v in pose.confidence]
        entries.append(entry)
    doc = {"poses": entries}
    if skeleton is not None:
        doc["skeleton"] = [[int(a), int(b)] for a, b in skeleton]
    return doc


def poses_from_json(doc):
    """Inverse of `poses_to_json`; returns (list of Pose3D, skeleton or None)."""
    if "poses" not in doc:
        raise ValueError("pose file must contain a 'poses' list")
    skeleton = doc.get("skeleton")
    if skeleton is not None:
        skeleton = [(int(a), int(b)) for a, b in skeleton]
    poses = []
    for entry in doc["poses"]:
        poses.append(Pose3D(
            joints=np.asarray(entry["joints"], dtype=np.float64),
            confidence=np.asarray(entry["confidence"], dtype=np.float64) if "confidence" in entry else None,
            skeleton=skeleton,
        ))
    return poses, skeleton


def save_poses_json(path, poses, skeleton=None):
    write_json_file(path, poses_to_json(poses, skeleton))
