"""Branch fusion, per-joint voxel probability maps, and integral regression.

The two feature volumes (transformer branch and residual conv branch) are
concatenated along channels, mapped to one logit volume per joint by a
bias-free linear map over channels (one GEMM), and normalized with a
per-joint softmax over all voxels. The joint estimate is the
probability-weighted average of voxel centers, which keeps sub-voxel
resolution and stays inside the grid (it is a convex combination of
centers). The average is taken over offsets from the grid center, which
is added back afterwards, so that rounding in the probabilities scales
with the grid's extent rather than with its distance from the world
origin (integral regression in a local frame, after Sun et al. 2018,
arXiv 1711.08229).

A `Pose3D` is joints and confidences only. The skeleton belongs to the
scene, and a pose file stores one skeleton for all of its poses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, concat
from .grid import GridSpec, flatten_volume
from .tensorio import check_json_object, write_json_file


@dataclass
class Pose3D:
    """One person's joints in world mm, with optional per-joint confidence.

    joints: (J, 3) finite float array.
    confidence: optional (J,) array.

    The limbs are not a pose's own: a scene (`SyntheticScene.skeleton`) or
    a pose file carries one skeleton for all of its poses.
    """

    joints: np.ndarray
    confidence: np.ndarray | None = None

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

    @property
    def n_joints(self):
        return self.joints.shape[0]


def fuse_and_head(x_t, x_c, head_w):
    """Concatenate branch features and produce per-joint voxel probabilities.

    Parameters
    ----------
    x_t : (e, X, Y, Z) transformer-branch features.
    x_c : (f_c, X, Y, Z) conv-branch features.
    head_w : (n_joints, e + f_c) head weights, applied to every voxel's
        channels as one GEMM over the (e + f_c, X*Y*Z) fused features.

    Returns
    -------
    Tensor of shape (J, X, Y, Z); each joint's slice is non-negative and
    sums to 1 over all voxels.

    The softmax ignores a constant added to all of a joint's logits, so the
    head has no bias: its gradient would be exactly 0. The last encoder
    layer's ``ln2_bias`` reaches the logits only through this map, as one
    such constant per joint, so its exact gradient is 0 as well. It stays:
    dropping it would give the last layer a weight shape of its own, and
    so a branch in its init, its parameter list, its layer norm and its
    dump, to save one e-vector that moves no output beyond rounding.
    """
    x_t, x_c, head_w = as_tensor(x_t), as_tensor(x_c), as_tensor(head_w)
    if x_t.shape[1:] != x_c.shape[1:]:
        raise ValueError(f"branch spatial dims disagree: {x_t.shape[1:]} vs {x_c.shape[1:]}")
    c = x_t.shape[0] + x_c.shape[0]
    if head_w.shape[1] != c:
        raise ValueError(f"head expects {head_w.shape[1]} channels, branches provide {c}")
    dims = x_t.shape[1:]
    # the concat is contiguous, so the reshape copies nothing
    fused = concat([x_t, x_c], axis=0).reshape(c, int(np.prod(dims)))
    logits = head_w @ fused  # (J, X*Y*Z)
    return logits.softmax(axis=-1).reshape(head_w.shape[0], *dims)


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
    """Inverse of `poses_to_json`; returns (list of Pose3D, skeleton or None).

    The file and each entry follow the JSON object rule of config files
    (`tensorio.check_json_object`): only `poses` and `skeleton` at the top,
    `joints` and `confidence` in an entry, each value of its key's type in
    `_POSE_FILE_TYPES` or `_POSE_ENTRY_TYPES`; a bool or a string is no
    number. Every limb of the skeleton must index a joint of every pose.
    """
    check_json_object("pose file", doc, _POSE_FILE_TYPES, required=("poses",))
    skeleton = doc.get("skeleton")
    if skeleton is not None:
        skeleton = [(a, b) for a, b in skeleton]
    poses = []
    for entry in doc["poses"]:
        check_json_object("pose entry", entry, _POSE_ENTRY_TYPES, required=("joints",))
        pose = Pose3D(
            joints=np.asarray(entry["joints"], dtype=np.float64),
            confidence=np.asarray(entry["confidence"], dtype=np.float64) if "confidence" in entry else None,
        )
        for a, b in skeleton or ():
            if not (0 <= a < pose.n_joints and 0 <= b < pose.n_joints):
                raise ValueError(f"limb ({a}, {b}) out of range for {pose.n_joints} joints")
        poses.append(pose)
    return poses, skeleton


_POSE_FILE_TYPES = {"poses": list, "skeleton": list[list[int]] | None}
_POSE_ENTRY_TYPES = {"joints": list[list[float]], "confidence": list[float]}


def save_poses_json(path, poses, skeleton=None):
    write_json_file(path, poses_to_json(poses, skeleton))
