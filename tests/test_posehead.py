"""Fusion head, per-joint softmax volumes, and integral joint regression."""

import numpy as np
import pytest

from gridpose import (
    GridSpec,
    Pose3D,
    Tensor,
    finite_diff_check,
    flat_index,
    fuse_and_head,
    init_conv3d,
    integral_regression,
    poses_from_json,
    poses_to_json,
    regress_pose,
    save_poses_json,
)
from gridpose.tensorio import load_json_file


def delta_probs(n_joints, dims, voxels):
    """One unit of probability mass per joint at the given (x, y, z) voxels."""
    probs = np.zeros((n_joints, *dims))
    for j, (x, y, z) in enumerate(voxels):
        probs[j, x, y, z] = 1.0
    return probs


class TestFuseAndHead:
    def make_head(self, rng, e=4, f_c=3, n_joints=2):
        return init_conv3d(e + f_c, n_joints, 1, rng)

    def test_constant_logits_give_uniform_probabilities(self):
        rng = np.random.default_rng(0)
        head = self.make_head(rng)
        head.w.data[...] = 0.0  # logits collapse to the (zero) bias
        x_t = rng.normal(size=(4, 2, 2, 2))
        x_c = rng.normal(size=(3, 2, 2, 2))
        probs = fuse_and_head(x_t, x_c, head).data
        np.testing.assert_allclose(probs, np.full((2, 2, 2, 2), 1.0 / 8.0), atol=1e-15)

    def test_dominant_logit_saturates(self):
        rng = np.random.default_rng(1)
        head = self.make_head(rng, e=1, f_c=1, n_joints=1)
        head.w.data[...] = 0.0
        head.b.data[...] = 0.0
        x_t = np.zeros((1, 2, 2, 2))
        x_t[0, 1, 0, 1] = 50.0
        head.w.data[0, 0, 0, 0, 0] = 1.0
        probs = fuse_and_head(x_t, np.zeros((1, 2, 2, 2)), head).data
        assert probs[0, 1, 0, 1] > 1.0 - 1e-15

    def test_per_joint_normalization(self):
        rng = np.random.default_rng(2)
        head = self.make_head(rng, n_joints=3)
        probs = fuse_and_head(rng.normal(size=(4, 3, 3, 3)),
                              rng.normal(size=(3, 3, 3, 3)), head).data
        assert probs.min() >= 0.0
        np.testing.assert_allclose(probs.reshape(3, -1).sum(axis=1), np.ones(3), atol=1e-9)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        head = self.make_head(rng, e=4, f_c=3)
        with pytest.raises(ValueError):
            fuse_and_head(np.zeros((4, 2, 2, 2)), np.zeros((2, 2, 2, 2)), head)

    def test_spatial_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        head = self.make_head(rng)
        with pytest.raises(ValueError):
            fuse_and_head(np.zeros((4, 2, 2, 2)), np.zeros((3, 2, 2, 3)), head)


class TestIntegralRegression:
    def test_delta_gives_exact_voxel_center(self):
        grid = GridSpec(center=(0, 0, 0), extent=2000.0, resolution=(4, 4, 4))
        voxels = [(0, 0, 0), (1, 2, 3), (3, 3, 3)]
        probs = delta_probs(3, (4, 4, 4), voxels)
        joints = integral_regression(probs, grid).data
        for j, v in enumerate(voxels):
            assert np.abs(joints[j] - grid.voxel_center(v)).max() < 1e-9

    def test_two_voxel_mass_gives_midpoint(self):
        grid = GridSpec(center=(0, 0, 0), extent=400.0, resolution=(4, 4, 4))
        probs = np.zeros((1, 4, 4, 4))
        probs[0, 0, 1, 2] = 0.5
        probs[0, 2, 1, 2] = 0.5
        joints = integral_regression(probs, grid).data
        expect = 0.5 * (grid.voxel_center((0, 1, 2)) + grid.voxel_center((2, 1, 2)))
        np.testing.assert_allclose(joints[0], expect, atol=1e-12)

    def test_uniform_mass_gives_grid_center(self):
        grid = GridSpec(center=(7.0, -3.0, 12.0), extent=500.0, resolution=(3, 4, 5))
        probs = np.full((2, 3, 4, 5), 1.0 / 60.0)
        joints = integral_regression(probs, grid).data
        np.testing.assert_allclose(joints, np.tile([7.0, -3.0, 12.0], (2, 1)), atol=1e-10)

    def test_output_stays_inside_grid(self):
        rng = np.random.default_rng(5)
        grid = GridSpec(center=(0, 0, 0), extent=1000.0, resolution=(4, 4, 4))
        logits = rng.normal(size=(5, 64)) * 5
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        joints = integral_regression(probs.reshape(5, 4, 4, 4), grid).data
        # convex combination of voxel centers cannot leave the center hull
        assert np.abs(joints).max() <= 500.0 - 0.5 * 250.0 + 1e-9

    def test_probability_pairing_follows_flatten_order(self):
        # the probability at flat index i must weight voxel_centers()[i]
        grid = GridSpec(center=(0, 0, 0), extent=(400, 600, 800), resolution=(2, 3, 4))
        idx = (1, 2, 3)
        probs = delta_probs(1, (2, 3, 4), [idx])
        joints = integral_regression(probs, grid).data
        np.testing.assert_allclose(
            joints[0], grid.voxel_centers()[flat_index((2, 3, 4), *idx)], atol=1e-12
        )

    def test_translation_equivariance(self):
        rng = np.random.default_rng(6)
        grid = GridSpec(center=(0, 0, 0), extent=2000.0, resolution=(8, 8, 8))
        logits = rng.normal(size=(3, 512))
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        probs = probs.reshape(3, 8, 8, 8)
        delta = np.array([100.0, -50.0, 25.0])
        a = integral_regression(probs, grid).data
        moved = GridSpec(grid.center + delta, grid.extent, grid.resolution)
        b = integral_regression(probs, moved).data
        np.testing.assert_allclose(b - a, np.tile(delta, (3, 1)), atol=1e-9)

    def test_unnormalized_probabilities_rejected(self):
        grid = GridSpec(center=0.0, extent=100.0, resolution=2)
        with pytest.raises(ValueError):
            integral_regression(np.full((1, 2, 2, 2), 0.2), grid)
        with pytest.raises(ValueError):
            integral_regression(np.full((1, 2, 2, 2), -0.125), grid)

    def test_dims_mismatch_rejected(self):
        grid = GridSpec(center=0.0, extent=100.0, resolution=2)
        with pytest.raises(ValueError):
            integral_regression(np.full((1, 3, 2, 2), 1.0 / 12.0), grid)

    def test_gradients_through_softmax_and_regression(self):
        rng = np.random.default_rng(7)
        grid = GridSpec(center=(0, 0, 0), extent=200.0, resolution=2)
        logits = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        target = rng.uniform(-80, 80, size=(2, 3))

        def f():
            probs = logits.softmax(axis=-1).reshape(2, 2, 2, 2)
            joints = integral_regression(probs, grid)
            return ((joints - Tensor(target)).abs() * (1.0 / 200.0)).mean()

        assert finite_diff_check(f, {"logits": logits}, eps=1e-5) <= 1e-5


class TestRegressPose:
    def test_confidence_is_peak_probability(self):
        grid = GridSpec(center=0.0, extent=100.0, resolution=2)
        probs = np.zeros((2, 2, 2, 2))
        probs[0, 0, 0, 0] = 1.0
        probs[1] = 1.0 / 8.0
        pose = regress_pose(Tensor(probs), grid)
        np.testing.assert_allclose(pose.confidence, [1.0, 1.0 / 8.0])

    def test_joints_match_integral_regression(self):
        rng = np.random.default_rng(8)
        grid = GridSpec(center=(5, 5, 5), extent=300.0, resolution=(2, 3, 2))
        logits = rng.normal(size=(4, 12))
        probs = (np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)).reshape(4, 2, 3, 2)
        pose = regress_pose(Tensor(probs), grid)
        np.testing.assert_array_equal(pose.joints, integral_regression(probs, grid).data)


class TestPose3D:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            Pose3D(joints=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Pose3D(joints=np.full((3, 3), np.nan))
        with pytest.raises(ValueError):
            Pose3D(joints=np.zeros((3, 3)), confidence=np.zeros(2))
        with pytest.raises(ValueError):
            Pose3D(joints=np.zeros((3, 3)), skeleton=[(0, 5)])

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        skeleton = [(0, 1), (1, 2)]
        poses = [
            Pose3D(joints=rng.normal(size=(3, 3)) * 100,
                   confidence=rng.uniform(0, 1, size=3), skeleton=skeleton)
            for _ in range(2)
        ]
        doc = poses_to_json(poses, skeleton)
        back, skel = poses_from_json(doc)
        assert skel == skeleton
        for a, b in zip(poses, back):
            np.testing.assert_allclose(b.joints, a.joints, atol=1e-12)
            np.testing.assert_allclose(b.confidence, a.confidence, atol=1e-12)

        path = tmp_path / "poses.json"
        save_poses_json(path, poses, skeleton)
        loaded, skel2 = load_json_file(path, poses_from_json)
        assert skel2 == skeleton
        np.testing.assert_allclose(loaded[0].joints, poses[0].joints, atol=1e-12)

    def test_malformed_pose_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not_poses": []}')
        with pytest.raises(OSError, match="malformed data file"):
            load_json_file(path, poses_from_json)
