"""Workload definitions, output checks and the committed reference outputs.

A workload is a (scene config, run config) pair built from the benchmark's
``--seed`` plus the operation the closed loop repeats on it. Scene seeds
are ``seed % REFERENCE_SEEDS``: every scene the benchmark can build has
its expected outputs committed in ``reference.json`` (regenerate it with
``make_reference.py`` only when a change is meant to alter the numbers).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from gridpose.attention import AttentionConfig
from gridpose.config import RunConfig, SceneConfig

REFERENCE_SEEDS = 16
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Optimizer steps per train_toy call; train_step_s divides a call's wall time by this.
TRAIN_STEPS = 5

# Every ground-truth center must have a proposal this close. Proposals land
# within ~200 mm of the joint centroid on all reference scenes; a coarse
# voxel is 80 mm and two people are at least 800 mm apart.
CENTER_TOL_MM = 300.0
# Reordering f64 reductions (GEMM operand order, camera order) moved poses
# by <= 5e-12 mm and losses by <= 7e-16 (relative); wrong kernels tried
# (attention scale 1/d, layer-norm eps 1e-3, aggregation count +1%, a
# missing conv-backward tap) moved poses by >= 1e-3 mm or losses by >= 3e-4.
# With seeded, untrained weights the Sinkhorn matrix is near-uniform, so its
# iteration count barely reaches the outputs (one iteration fewer: 3e-13 mm);
# the test suite's Sinkhorn oracles guard it instead.
POSE_TOL_MM = 1e-6
LOSS_RTOL = 1e-9


def toy_scene_config(seed):
    """The test suite's toy scene: one person seen by 3 ring cameras."""
    return SceneConfig(
        seed=seed, n_people=1, space_extent=(2400.0, 2400.0, 2000.0),
        person_extent=1600.0, person_resolution=16, n_cameras=3,
        camera_radius=4000.0, camera_height=800.0, image_size=(128, 128),
        focal_px=100.0, heatmap_sigma=2.0,
    )


def toy_run_config(**overrides):
    """The test suite's toy model: 16^3 grid, e=32, bin 64, residual (32,)."""
    attention = AttentionConfig(embed_dim=32, n_heads=2, bin_size=64, sinkhorn_iters=8, n_layers=1)
    cfg = RunConfig(
        attention=attention, n_joints=15, grid_extent=1600.0, grid_resolution=16,
        residual_channels=(32,), train_steps=TRAIN_STEPS, lr=1e-3, optimizer="adam", seed=0,
    )
    return replace(cfg, **overrides)


def crowd_scene_config(seed):
    """Six people in an 8 x 8 m space seen by a ring of eight cameras."""
    return SceneConfig(
        seed=seed, n_people=6, space_extent=(8000.0, 8000.0, 2400.0),
        person_extent=1600.0, person_resolution=16, n_cameras=8,
        camera_radius=7000.0, camera_height=1200.0, image_size=(256, 256),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "infer": the loop repeats run_inference; "train": train_toy, then run_inference
    make_scene_config: Callable[[int], SceneConfig]
    run_config: Callable[[], RunConfig]

    def scene_config(self, seed):
        return self.make_scene_config(seed % REFERENCE_SEEDS)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "infer_encoder", "infer", lambda seed: SceneConfig(seed=seed),
            lambda: RunConfig(attention=AttentionConfig(embed_dim=128), grid_resolution=24),
        ),
        Workload(
            "infer_crowd", "infer", crowd_scene_config,
            lambda: toy_run_config(center_source="coarse_proposal"),
        ),
        Workload("train_toy", "train", toy_scene_config, toy_run_config),
    )
}


# -- output checks -------------------------------------------------------------


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def scene_reference(reference, workload, seed):
    return reference[workload.name][str(seed % REFERENCE_SEEDS)]


def inference_record(result):
    return {"poses": [pose.joints.tolist() for pose in result.poses]}


def check_inference(result, scene, expected):
    """Problems with one run_inference result; an empty list means it passed."""
    problems = []
    centers = np.asarray(result.centers).reshape(-1, 3)
    for i, truth in enumerate(np.asarray(scene.centers)):
        nearest = np.linalg.norm(centers - truth, axis=1).min() if len(centers) else np.inf
        if nearest > CENTER_TOL_MM:
            problems.append(f"person {i}: nearest proposal {nearest:.1f} mm away")
    want = np.asarray(expected["poses"])
    got = np.asarray([pose.joints for pose in result.poses])
    if got.shape != want.shape:
        problems.append(f"pose array {got.shape}, reference {want.shape}")
    else:
        err = float(np.abs(got - want).max())
        if not err <= POSE_TOL_MM:
            problems.append(f"poses differ from the reference by {err:.3g} mm")
    return problems


def check_losses(losses, expected):
    want = np.asarray(expected)
    got = np.asarray(losses)
    if got.shape != want.shape:
        return [f"{got.size} losses, reference has {want.size}"]
    err = float((np.abs(got - want) / np.abs(want)).max())
    return [] if err <= LOSS_RTOL else [f"losses differ from the reference by {err:.3g} (relative)"]

