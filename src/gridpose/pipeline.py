"""The two stages of the method, and toy training on top of them.

Stage one finds person centers (ground truth, or coarse local maxima of
the per-camera minimum score, computed only where its upper bound reaches
the threshold); stage two voxelizes a person grid around each center and
runs the two-branch network, whose two opening convs share one im2col.
Toy training overfits one fixed synthetic scene with per-joint L1 loss
normalized by the grid extent, which is enough to demonstrate sub-voxel
localization end to end.

Inference and training return poses and never score them: evaluation is
a separate step, `metrics.evaluate_frames`, that callers run on them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Adam, Tensor, no_grad, sgd_step, zero_grads
from .config import RunConfig
from .errors import ConfigError, NumericError
from .geometry import aggregate_feature_volume, min_score, min_score_bound
from .grid import GridSpec, flat_index
from .model import ModelWeights, init_model_from_config, model_forward
from .posehead import Pose3D, integral_regression, regress_pose
from .synth import SyntheticScene


# -- stage one: person centers -----------------------------------------------


def neighborhood_max(score):
    """Maximum over each voxel's 3x3x3 neighborhood (itself included) of an
    (X, Y, Z) score, with -inf beyond the border: three separable passes of
    shifted-slice maxima over the padded score."""
    out = np.pad(score, 1, constant_values=-np.inf)
    for axis in range(3):
        out = np.moveaxis(out, axis, 0)
        out = np.moveaxis(np.maximum(np.maximum(out[:-2], out[1:-1]), out[2:]), 0, axis)
    return out


def _centers_from_score(score, exact_score, centers, grid: GridSpec, threshold,
                        min_separation, refine_radius):
    """Peaks, separation suppression and refinement on an (X, Y, Z) score.

    Every voxel whose score exceeds `threshold` must hold its exact score;
    any other voxel may hold any value up to `threshold`, which changes no
    peak and no peak score. `exact_score(index)` returns the exact scores
    of the voxels at ascending flat indices, and `centers` is
    `grid.voxel_centers()`. See `coarse_center_proposal` for the rest.
    """
    if refine_radius is None:
        refine_radius = 0.9 * min_separation
    is_peak = (score >= neighborhood_max(score)) & (score > threshold)
    peak_idx = np.argwhere(is_peak)
    if peak_idx.shape[0] == 0:
        return np.zeros((0, 3)), np.zeros(0)
    peak_scores = score[tuple(peak_idx.T)]
    order = np.argsort(-peak_scores, kind="stable")

    kept = []  # (voxel index, center, score), strongest first
    for i in order:
        pos = centers[flat_index(grid.resolution, *peak_idx[i])]
        if all(np.linalg.norm(pos - k_pos) >= min_separation for _, k_pos, _ in kept):
            kept.append((peak_idx[i], pos, float(peak_scores[i])))

    # Voxels per axis within the refinement radius of a voxel center; the
    # distance test below then picks the ball out of the clipped box.
    reach = np.minimum(np.ceil(refine_radius / grid.voxel_edge), grid.resolution)
    refined = []
    for index, pos, _ in kept:
        x, y, z = (np.arange(max(i - r, 0), min(i + r + 1, n))
                   for i, r, n in zip(index, reach.astype(np.int64), grid.resolution))
        box = flat_index(grid.resolution, x, y[:, None], z[:, None, None]).ravel()
        near = box[np.linalg.norm(centers[box] - pos, axis=1) <= refine_radius]
        mass = exact_score(near)
        total = mass.sum()
        refined.append(centers[near].T @ mass / total if total > 0 else pos)
    return np.asarray(refined), np.asarray([s for _, _, s in kept])


def coarse_center_proposal(volume, grid: GridSpec, threshold=0.3,
                           min_separation=1000.0, refine_radius=None):
    """Person center candidates from a coarse aggregated volume.

    Sums the (J, X, Y, Z) volume over joints, finds strict-or-plateau
    local maxima above `threshold` (26-neighborhood), suppresses peaks
    within `min_separation` mm of a stronger one, then refines each
    survivor to the score-weighted centroid of the voxels within
    `refine_radius` mm (default 0.9 * min_separation), which lands near
    the joint centroid rather than on the strongest single-joint blob.

    Returns (centers (N, 3) mm, scores (N,)), sorted by descending score.
    """
    volume = np.asarray(volume)
    if volume.ndim != 4:
        raise ValueError(f"expected a (J, X, Y, Z) volume, got shape {volume.shape}")
    if tuple(volume.shape[1:]) != tuple(grid.resolution):
        raise ValueError(f"volume dims {volume.shape[1:]} do not match grid {grid.resolution}")
    score = volume.sum(axis=0)
    flat_scores = score.ravel(order="F")  # flat index x + X*y + X*Y*z
    return _centers_from_score(score, lambda index: flat_scores[index], grid.voxel_centers(),
                               grid, threshold, min_separation, refine_radius)


def propose_centers(scene: SyntheticScene, cfg: RunConfig):
    """Score the whole scene space at coarse resolution and propose.

    Scores each voxel by the per-camera minimum response instead of the
    mean: ray-intersection ghosts are bright in some views only, so
    requiring every camera to agree suppresses them, while true joints
    (always visible in the occlusion-free synthetic scenes) survive.

    The centers equal `coarse_center_proposal` on `min_feature_volume` bit
    for bit, but the per-joint score runs only where it can matter:
    `min_score` runs where `min_score_bound` leaves a voxel that may pass
    the threshold (every other voxel scores at most the threshold and is
    read as 0) and, lazily, on the voxels that each kept peak's refinement
    reads.
    """
    scfg = scene.config
    res = tuple(max(2, int(np.ceil(ext / cfg.coarse_voxel_mm))) for ext in scfg.space_extent)
    grid = GridSpec(center=scfg.space_center, extent=scfg.space_extent, resolution=res)
    centers = grid.voxel_centers()
    scored = min_score_bound(scene.cameras, scene.heatmaps, centers, cfg.proposal_threshold)
    flat_scores = np.zeros(grid.n_voxels)
    flat_scores[scored] = min_score(scene.cameras, scene.heatmaps, centers[scored])

    def exact_score(index):
        todo = index[~scored[index]]
        flat_scores[todo] = min_score(scene.cameras, scene.heatmaps, centers[todo])
        scored[todo] = True
        return flat_scores[index]

    found, _ = _centers_from_score(
        flat_scores.reshape(res, order="F"), exact_score, centers, grid,
        cfg.proposal_threshold, scfg.person_extent / 2.0, None,
    )
    return found


# -- stage two: per-person inference -----------------------------------------


def _check_joint_count(scene: SyntheticScene, cfg: RunConfig):
    n_scene = scene.heatmaps[0].n_joints
    if cfg.n_joints != n_scene:
        raise ConfigError(f"run config has n_joints = {cfg.n_joints}, but the scene's heatmaps have {n_scene}")


@dataclass
class InferenceResult:
    poses: list
    centers: np.ndarray


def run_inference(scene: SyntheticScene, weights: ModelWeights, cfg: RunConfig):
    """Centers -> person grids -> network -> poses. Ground truth is read
    only for the centers when `center_source` is "ground_truth"; scoring
    the poses is the caller's step (`metrics.evaluate_frames`). Zero
    centers is valid and yields an empty pose list.

    The network runs under `no_grad`: no autodiff graph is kept, so each
    intermediate is freed once used, and the hard reorder mode runs even
    on weights that require grad."""
    _check_joint_count(scene, cfg)
    if cfg.center_source == "ground_truth":
        centers = np.asarray(scene.centers)
    else:
        centers = propose_centers(scene, cfg)
    poses = []
    for center in centers:
        grid = cfg.grid(center)
        vol = aggregate_feature_volume(scene.cameras, scene.heatmaps, grid, dtype=cfg.np_dtype)
        with no_grad():
            probs = model_forward(vol, weights, cfg.attention, mode=cfg.reorder_mode)
            if not np.all(np.isfinite(probs.data)):
                raise NumericError("network produced non-finite probabilities")
            poses.append(regress_pose(probs, grid))
    return InferenceResult(poses=poses, centers=centers)


# -- toy training ---------------------------------------------------------------


@dataclass
class TrainResult:
    weights: ModelWeights
    losses: list  # losses[k] = loss after k optimizer steps (len steps + 1)
    poses: list  # the regressed training-sample poses at the last step


def train_toy(scene: SyntheticScene, cfg: RunConfig):
    """Overfit the fixed scene with Adam/SGD on normalized per-joint L1.

    Requires ground-truth centers and the soft (differentiable) reorder
    mode. The feature volumes are constant across steps, so they are
    aggregated once up front. A numeric failure in any step, the loss
    turning non-finite included, aborts with a NumericError that names the
    step and the optimizer.
    """
    _check_joint_count(scene, cfg)
    if cfg.center_source != "ground_truth":
        raise ConfigError("toy training requires center_source = 'ground_truth'")
    if cfg.reorder_mode != "soft":
        raise ConfigError("toy training requires the differentiable reorder_mode = 'soft'")

    grids = [cfg.grid(center) for center in scene.centers]
    volumes = [
        aggregate_feature_volume(scene.cameras, scene.heatmaps, g, dtype=cfg.np_dtype)
        for g in grids
    ]
    targets = [Tensor(pose.joints.astype(cfg.np_dtype)) for pose in scene.poses]
    inv_extent = Tensor(1.0 / np.asarray(grids[0].extent, dtype=cfg.np_dtype))

    weights = init_model_from_config(cfg)
    params = weights.parameters()
    param_list = [params[name] for name in sorted(params)]
    adam = Adam(param_list, lr=cfg.lr) if cfg.optimizer == "adam" else None

    def evaluate_loss():
        total = None
        step_poses = []
        for vol, target, grid in zip(volumes, targets, grids):
            probs = model_forward(vol, weights, cfg.attention, mode="soft")
            joints = integral_regression(probs, grid)
            person = ((joints - target).abs() * inv_extent).mean()
            total = person if total is None else total + person
            step_poses.append(joints.data)
        return total * (1.0 / len(volumes)), step_poses

    losses = []
    final_joints = None
    for step in range(cfg.train_steps + 1):
        try:
            # a diverging run fails with one NumericError, not numpy warnings
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                zero_grads(param_list)
                loss, step_joints = evaluate_loss()
                value = float(loss.data)
                if not np.isfinite(value):
                    raise NumericError("training loss became non-finite")
                losses.append(value)
                final_joints = step_joints
                if step == cfg.train_steps:
                    break
                loss.backward()
                if adam is not None:
                    adam.step()
                else:
                    sgd_step(param_list, cfg.lr)
        except NumericError as exc:
            raise NumericError(f"{cfg.optimizer} training (lr {cfg.lr:g}) failed at step {step}: {exc}") from exc

    poses = [Pose3D(joints=j) for j in final_joints]
    return TrainResult(weights=weights, losses=losses, poses=poses)


def write_loss_csv(path, losses):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, value in enumerate(losses):
            writer.writerow([step, repr(float(value))])
