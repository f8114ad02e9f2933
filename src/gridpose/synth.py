"""Synthetic multi-camera scenes: random skeletons, a camera ring, and
Gaussian joint heatmaps.

Substitutes for a pretrained 2D backbone and real capture data. Every
sample is deterministic given the scene seed. People are built limb by
limb from a template: bone lengths jittered by at most 10%, directions
drawn uniformly from a cone around each template direction. A person is
re-sampled until it fits its person grid with margin, then placed so the
grid center coincides with the joint centroid.

Heatmaps are occlusion-free: each visible joint renders as an isotropic
Gaussian (peak 1) at its analytic projection; people combine by
element-wise max; a joint behind a camera contributes nothing to that
camera. Optional Gaussian pixel noise and per-channel dropout are off by
default. Values are clipped to [0, 1].
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import SceneConfig, scene_config_from_json, scene_config_to_json
from .errors import ConfigError
from .geometry import CameraCalib, Heatmap, cameras_to_json, load_cameras_json, project_point
from .posehead import Pose3D, poses_from_json, save_poses_json
from .tensorio import load_json_file, load_tensor_set, save_tensor_set, write_json_file

JOINT_NAMES = (
    "pelvis", "neck", "head",
    "left_shoulder", "left_elbow", "left_wrist",
    "right_shoulder", "right_elbow", "right_wrist",
    "left_hip", "left_knee", "left_ankle",
    "right_hip", "right_knee", "right_ankle",
)


@dataclass(frozen=True)
class SkeletonTemplate:
    """Limb tree with default bone lengths (mm) and rest directions.

    limbs[i] = (parent, child), listed in tree order (parents first), so a
    pose can be built in one pass from the root.
    """

    joint_names: tuple
    limbs: tuple
    bone_lengths: tuple
    base_directions: tuple
    root: int = 0

    @property
    def n_joints(self):
        return len(self.joint_names)


def default_skeleton():
    """15-joint humanoid: spine up, arms hanging, legs down; z is world up."""
    up, down = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    left, right = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)
    limbs = (
        (0, 1, 400.0, up), (1, 2, 180.0, up),
        (1, 3, 160.0, left), (3, 4, 250.0, down), (4, 5, 230.0, down),
        (1, 6, 160.0, right), (6, 7, 250.0, down), (7, 8, 230.0, down),
        (0, 9, 110.0, left), (9, 10, 360.0, down), (10, 11, 350.0, down),
        (0, 12, 110.0, right), (12, 13, 360.0, down), (13, 14, 350.0, down),
    )
    return SkeletonTemplate(
        joint_names=JOINT_NAMES,
        limbs=tuple((a, b) for a, b, _, _ in limbs),
        bone_lengths=tuple(l for _, _, l, _ in limbs),
        base_directions=tuple(d for _, _, _, d in limbs),
    )


def _cone_direction(base, max_tilt_rad, rng):
    """Unit vector uniform over the spherical cap of half-angle max_tilt
    around `base`."""
    base = np.asarray(base, dtype=np.float64)
    cos_t = rng.uniform(np.cos(max_tilt_rad), 1.0)
    sin_t = np.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    psi = rng.uniform(0.0, 2.0 * np.pi)
    helper = np.array([1.0, 0.0, 0.0]) if abs(base[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(base, helper)
    u /= np.linalg.norm(u)
    v = np.cross(base, u)
    return cos_t * base + sin_t * (np.cos(psi) * u + np.sin(psi) * v)


def sample_pose(template: SkeletonTemplate, rng, length_jitter=0.1, max_tilt_deg=25.0):
    """Random plausible skeleton with the root at the origin; (J, 3) mm."""
    joints = np.zeros((template.n_joints, 3))
    max_tilt = np.deg2rad(max_tilt_deg)
    for (parent, child), length, base in zip(
        template.limbs, template.bone_lengths, template.base_directions
    ):
        bone = length * (1.0 + rng.uniform(-length_jitter, length_jitter))
        joints[child] = joints[parent] + bone * _cone_direction(base, max_tilt, rng)
    return joints


def _fitted_person(template, rng, extent, margin, max_attempts=64):
    """Centroid-centered joints guaranteed inside a cube of side `extent`
    shrunk by `margin` per face. Re-samples until the skeleton fits."""
    half = extent / 2.0 - margin
    if half <= 0:
        raise ConfigError(f"person grid extent {extent} too small for margin {margin}")
    for _ in range(max_attempts):
        joints = sample_pose(template, rng)
        centered = joints - joints.mean(axis=0)
        if np.max(np.abs(centered)) <= half:
            return centered
    raise ConfigError(f"could not fit a sampled skeleton into extent {extent} after {max_attempts} tries")


def _sample_centers(cfg: SceneConfig, rng, max_attempts=1000):
    """Person-grid centers: xy inside the safe box, z at the space center,
    pairwise separation at least half a person-grid extent."""
    space_c = np.asarray(cfg.space_center)
    half_free = (np.asarray(cfg.space_extent) - cfg.person_extent) / 2.0
    min_sep = cfg.person_extent / 2.0
    centers = []
    for _ in range(max_attempts):
        if len(centers) == cfg.n_people:
            break
        xy = rng.uniform(-half_free[:2], half_free[:2])
        cand = np.array([space_c[0] + xy[0], space_c[1] + xy[1], space_c[2]])
        if all(np.linalg.norm(cand - c) >= min_sep for c in centers):
            centers.append(cand)
    if len(centers) < cfg.n_people:
        raise ConfigError(
            f"could not place {cfg.n_people} people with separation {min_sep:.0f}mm "
            f"inside extent {cfg.space_extent}"
        )
    return np.asarray(centers)


def camera_ring(n, radius, height, target, image_size, focal_px):
    """Evenly spaced look-at cameras on a circle around `target`.

    Rows of each rotation are the camera axes (x, y, z-forward), built
    right-handed from the world up vector, so R is orthonormal by
    construction.
    """
    target = np.asarray(target, dtype=np.float64)
    up = np.array([0.0, 0.0, 1.0])
    width, height_px = image_size
    cams = []
    for i in range(n):
        ang = 2.0 * np.pi * i / n
        pos = target + np.array([radius * np.cos(ang), radius * np.sin(ang), height])
        z = target - pos
        z /= np.linalg.norm(z)
        x = np.cross(up, z)
        x /= np.linalg.norm(x)
        y = np.cross(z, x)
        rot = np.stack([x, y, z])
        cams.append(CameraCalib(
            fx=focal_px, fy=focal_px, cx=width / 2.0, cy=height_px / 2.0,
            rotation=rot, translation=-rot @ pos,
            image_width=width, image_height=height_px,
        ))
    return cams


def render_heatmaps(cam: CameraCalib, poses, sigma, rng=None, noise_std=0.0, dropout_prob=0.0):
    """Per-joint Gaussian heatmaps for one camera over all people.

    People merge by element-wise max. A joint behind the camera leaves
    its channel untouched (all zeros when nobody projects).
    """
    if not poses:
        raise ValueError("need at least one pose to render")
    n_joints = poses[0].n_joints
    h, w = cam.image_height, cam.image_width
    canvas = np.zeros((n_joints, h, w))
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    inv = 1.0 / (2.0 * sigma * sigma)
    for pose in poses:
        for j in range(n_joints):
            uv = project_point(cam, pose.joints[j])
            if uv is None:
                continue
            u, v = uv
            g = np.exp(-((xs - u) ** 2)[None, :] * inv) * np.exp(-((ys - v) ** 2)[:, None] * inv)
            np.maximum(canvas[j], g, out=canvas[j])
    if dropout_prob > 0.0:
        keep = rng.random(n_joints) >= dropout_prob
        canvas *= keep[:, None, None]
    if noise_std > 0.0:
        canvas += rng.normal(0.0, noise_std, size=canvas.shape)
    np.clip(canvas, 0.0, 1.0, out=canvas)
    return Heatmap(values=canvas)


@dataclass
class SyntheticScene:
    """Ground truth plus everything the network consumes."""

    config: SceneConfig
    cameras: list
    poses: list
    centers: np.ndarray  # (P, 3) person-grid centers = joint centroids
    heatmaps: list  # one Heatmap per camera
    skeleton: list  # (parent, child) joint index pairs shared by all poses


def synth_scene(cfg: SceneConfig):
    """Deterministic scene synthesis from a SceneConfig (seeded)."""
    rng = np.random.default_rng(cfg.seed)
    template = default_skeleton()
    cameras = cfg.cameras if cfg.cameras is not None else camera_ring(
        cfg.n_cameras, cfg.camera_radius, cfg.camera_height,
        cfg.space_center, cfg.image_size, cfg.focal_px,
    )
    if not cameras:
        raise ConfigError("camera list is empty")
    centers = _sample_centers(cfg, rng)
    margin = 0.05 * cfg.person_extent
    poses = []
    for center in centers:
        local = _fitted_person(template, rng, cfg.person_extent, margin)
        poses.append(Pose3D(joints=local + center))
    heatmaps = [
        render_heatmaps(cam, poses, cfg.heatmap_sigma, rng, cfg.noise_std, cfg.dropout_prob)
        for cam in cameras
    ]
    return SyntheticScene(config=cfg, cameras=cameras, poses=poses, centers=centers,
                          heatmaps=heatmaps, skeleton=list(template.limbs))


# -- scene directory layout ------------------------------------------------------


def save_scene(scene: SyntheticScene, directory):
    """Write scene_config.json, cameras.json, ground_truth.json, and the
    heatmap tensor set under `directory`."""
    os.makedirs(directory, exist_ok=True)
    write_json_file(os.path.join(directory, "scene_config.json"), scene_config_to_json(scene.config))
    write_json_file(os.path.join(directory, "cameras.json"), cameras_to_json(scene.cameras))
    save_poses_json(os.path.join(directory, "ground_truth.json"), scene.poses, scene.skeleton)
    tensors = {f"view{i:02d}": hm.values for i, hm in enumerate(scene.heatmaps)}
    save_tensor_set(os.path.join(directory, "heatmaps"), tensors)


def load_scene(directory):
    """Inverse of `save_scene`. Person centers are joint centroids. Camera i
    reads the heatmap dump view{i:02d}, which must have its image size."""
    cfg = load_json_file(os.path.join(directory, "scene_config.json"), scene_config_from_json)
    cameras = load_json_file(os.path.join(directory, "cameras.json"), load_cameras_json)
    poses, skeleton = load_json_file(os.path.join(directory, "ground_truth.json"), poses_from_json)
    if skeleton is None:
        raise OSError(f"ground-truth poses in {directory} carry no skeleton; PCP needs limb pairs")
    arrays = load_tensor_set(os.path.join(directory, "heatmaps"))
    names = [f"view{i:02d}" for i in range(len(cameras))]
    if not cameras or set(arrays) != set(names):
        raise OSError(f"{len(arrays)} heatmap dumps for {len(cameras)} cameras in {directory}; camera i "
                      f"reads view{{i:02d}}, missing or extra: {sorted(set(arrays) ^ set(names))}")
    heatmaps = []
    for name, cam in zip(names, cameras):
        try:
            hm = Heatmap(values=arrays[name])
        except ValueError as exc:
            raise OSError(f"heatmap dump {name!r} in {directory}: {exc}") from exc
        if heatmaps and hm.n_joints != heatmaps[0].n_joints:
            raise OSError(f"heatmap dump {name!r} in {directory} has {hm.n_joints} joints, "
                          f"the first dump has {heatmaps[0].n_joints}")
        if (hm.height, hm.width) != (cam.image_height, cam.image_width):
            raise OSError(f"heatmap dump {name!r} in {directory} is {hm.height}x{hm.width} (HxW), "
                          f"its camera is {cam.image_height}x{cam.image_width}")
        heatmaps.append(hm)
    gt_joints = {pose.n_joints for pose in poses}
    if gt_joints - {heatmaps[0].n_joints}:
        raise OSError(f"ground-truth poses in {directory} have {sorted(gt_joints)} joints, "
                      f"its heatmaps have {heatmaps[0].n_joints}")
    centers = np.asarray([pose.joints.mean(axis=0) for pose in poses])
    return SyntheticScene(config=cfg, cameras=cameras, poses=poses, centers=centers,
                          heatmaps=heatmaps, skeleton=skeleton)
