"""Synthetic scene generation: determinism, projection consistency,
placement guarantees, and the scene directory round trip."""

import numpy as np
import pytest

from gridpose import (
    JOINT_NAMES,
    CameraCalib,
    ConfigError,
    Pose3D,
    SceneConfig,
    camera_ring,
    default_skeleton,
    load_scene,
    load_tensor_set,
    project_point,
    render_heatmaps,
    sample_pose,
    save_scene,
    save_tensor_set,
    synth_scene,
)


def scene_cfg(**overrides):
    base = dict(
        seed=4, n_people=1,
        space_extent=(2400.0, 2400.0, 2000.0), person_extent=1600.0,
        person_resolution=16, n_cameras=3, camera_radius=4000.0,
        camera_height=800.0, image_size=(128, 128), focal_px=100.0,
        heatmap_sigma=2.0,
    )
    base.update(overrides)
    return SceneConfig(**base)


class TestSkeletonTemplate:
    def test_default_shape(self):
        template = default_skeleton()
        assert template.n_joints == 15
        assert len(template.limbs) == 14
        assert template.joint_names == JOINT_NAMES

    def test_limbs_listed_parents_first(self):
        template = default_skeleton()
        seen = {template.root}
        for parent, child in template.limbs:
            assert parent in seen
            assert child not in seen
            seen.add(child)
        assert seen == set(range(template.n_joints))

    def test_sample_pose_root_at_origin(self):
        template = default_skeleton()
        joints = sample_pose(template, np.random.default_rng(0))
        assert np.array_equal(joints[template.root], np.zeros(3))

    def test_bone_lengths_within_jitter(self):
        template = default_skeleton()
        rng = np.random.default_rng(1)
        for _ in range(10):
            joints = sample_pose(template, rng, length_jitter=0.1)
            for (parent, child), length in zip(template.limbs, template.bone_lengths):
                bone = np.linalg.norm(joints[child] - joints[parent])
                assert 0.9 * length - 1e-9 <= bone <= 1.1 * length + 1e-9

    def test_zero_tilt_reproduces_base_directions(self):
        template = default_skeleton()
        joints = sample_pose(template, np.random.default_rng(2),
                             length_jitter=0.0, max_tilt_deg=0.0)
        for (parent, child), length, base in zip(
            template.limbs, template.bone_lengths, template.base_directions
        ):
            expect = joints[parent] + length * np.asarray(base)
            np.testing.assert_allclose(joints[child], expect, atol=1e-9)


class TestCameraRing:
    def test_rotations_orthonormal(self):
        cams = camera_ring(5, 4000.0, 800.0, (0.0, 0.0, 1000.0), (128, 96), 100.0)
        assert len(cams) == 5
        for cam in cams:
            np.testing.assert_allclose(cam.rotation @ cam.rotation.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(cam.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_positions_on_ring(self):
        target = np.array([100.0, -200.0, 1000.0])
        cams = camera_ring(4, 4000.0, 800.0, target, (128, 96), 100.0)
        for cam in cams:
            pos = -cam.rotation.T @ cam.translation
            assert np.linalg.norm(pos[:2] - target[:2]) == pytest.approx(4000.0, abs=1e-9)
            assert pos[2] == pytest.approx(target[2] + 800.0, abs=1e-9)

    @pytest.mark.parametrize("radius, height", [(1e-300, 500.0), (1e300, 500.0), (3000.0, 1e300)])
    def test_non_finite_axis_names_radius_and_height(self, radius, height):
        # 1e-300: the horizontal axis underflows to 0; 1e300: the look-at norm overflows
        with pytest.raises(ConfigError, match="camera_radius .* and camera_height .* not finite"):
            camera_ring(2, radius, height, (0.0, 0.0, 0.0), (64, 64), 100.0)

    def test_target_projects_to_principal_point(self):
        target = (50.0, 75.0, 900.0)
        cams = camera_ring(6, 3000.0, 500.0, target, (128, 96), 120.0)
        for cam in cams:
            uv = project_point(cam, np.asarray(target))
            assert uv is not None
            assert uv[0] == pytest.approx(64.0, abs=1e-9)
            assert uv[1] == pytest.approx(48.0, abs=1e-9)


class TestRenderHeatmaps:
    def behind_camera_pose(self):
        joints = np.zeros((2, 3))
        joints[0] = (0.0, 0.0, -500.0)  # behind an identity camera
        joints[1] = (0.0, 0.0, 500.0)
        return Pose3D(joints=joints)

    def identity_cam(self):
        return CameraCalib(fx=100.0, fy=100.0, cx=32.0, cy=32.0,
                           rotation=np.eye(3), translation=np.zeros(3),
                           image_width=64, image_height=64)

    def test_joint_behind_camera_leaves_channel_zero(self):
        hm = render_heatmaps(self.identity_cam(), [self.behind_camera_pose()], sigma=2.0)
        assert np.all(hm.values[0] == 0.0)
        assert hm.values[1].max() == pytest.approx(1.0, abs=1e-12)

    def test_peak_at_projection(self):
        cam = self.identity_cam()
        joints = np.array([[96.0, -64.0, 800.0]])  # projects to (44, 24)
        hm = render_heatmaps(cam, [Pose3D(joints=joints)], sigma=1.5)
        v, u = np.unravel_index(np.argmax(hm.values[0]), hm.values[0].shape)
        assert (u, v) == (44, 24)
        assert hm.values[0][v, u] == pytest.approx(1.0, abs=1e-12)

    def test_people_merge_by_max(self):
        cam = self.identity_cam()
        a = Pose3D(joints=np.array([[0.0, 0.0, 1000.0]]))
        b = Pose3D(joints=np.array([[200.0, 0.0, 1000.0]]))
        merged = render_heatmaps(cam, [a, b], sigma=3.0)
        ha = render_heatmaps(cam, [a], sigma=3.0)
        hb = render_heatmaps(cam, [b], sigma=3.0)
        np.testing.assert_array_equal(merged.values, np.maximum(ha.values, hb.values))

    def test_noise_clipped_to_unit_interval(self):
        cam = self.identity_cam()
        poses = [Pose3D(joints=np.array([[0.0, 0.0, 1000.0]]))]
        rng = np.random.default_rng(0)
        hm = render_heatmaps(cam, poses, sigma=2.0, rng=rng, noise_std=0.5)
        assert hm.values.min() >= 0.0 and hm.values.max() <= 1.0
        clean = render_heatmaps(cam, poses, sigma=2.0)
        assert not np.array_equal(hm.values, clean.values)

    def test_full_dropout_blanks_all_channels(self):
        cam = self.identity_cam()
        poses = [Pose3D(joints=np.array([[0.0, 0.0, 1000.0]]))]
        hm = render_heatmaps(cam, poses, sigma=2.0,
                             rng=np.random.default_rng(0), dropout_prob=1.0)
        assert np.all(hm.values == 0.0)

    def test_empty_pose_list_rejected(self):
        with pytest.raises(ValueError):
            render_heatmaps(self.identity_cam(), [], sigma=2.0)


class TestSynthScene:
    def test_deterministic_given_seed(self):
        a = synth_scene(scene_cfg())
        b = synth_scene(scene_cfg())
        for pa, pb in zip(a.poses, b.poses):
            assert pa.joints.tobytes() == pb.joints.tobytes()
        for ha, hb in zip(a.heatmaps, b.heatmaps):
            assert ha.values.tobytes() == hb.values.tobytes()

    def test_seed_changes_scene(self):
        a = synth_scene(scene_cfg())
        b = synth_scene(scene_cfg(seed=5))
        assert a.poses[0].joints.tobytes() != b.poses[0].joints.tobytes()

    def test_heatmap_argmax_tracks_projection(self):
        scene = synth_scene(scene_cfg())
        checked = 0
        for cam, hm in zip(scene.cameras, scene.heatmaps):
            for j in range(15):
                uv = project_point(cam, scene.poses[0].joints[j])
                assert uv is not None
                v, u = np.unravel_index(np.argmax(hm.values[j]), hm.values[j].shape)
                assert abs(u - uv[0]) <= 1.0 and abs(v - uv[1]) <= 1.0
                checked += 1
        assert checked == 45

    def test_joints_stay_inside_person_grid(self):
        scene = synth_scene(scene_cfg(n_people=2, space_extent=(6000.0, 6000.0, 2000.0)))
        for pose, center in zip(scene.poses, scene.centers):
            offsets = np.abs(pose.joints - center)
            assert offsets.max() <= scene.config.person_extent / 2.0

    def test_centers_are_joint_centroids(self):
        scene = synth_scene(scene_cfg(n_people=2, space_extent=(6000.0, 6000.0, 2000.0)))
        for pose, center in zip(scene.poses, scene.centers):
            np.testing.assert_allclose(pose.joints.mean(axis=0), center, atol=1e-9)

    def test_scene_carries_template_skeleton(self):
        scene = synth_scene(scene_cfg(n_people=2, space_extent=(6000.0, 6000.0, 2000.0)))
        assert scene.skeleton == list(default_skeleton().limbs)

    def test_centers_pairwise_separated(self):
        scene = synth_scene(scene_cfg(n_people=3, space_extent=(8000.0, 8000.0, 2000.0)))
        min_sep = scene.config.person_extent / 2.0
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(scene.centers[i] - scene.centers[j]) >= min_sep

    def test_heatmap_values_in_unit_interval(self):
        scene = synth_scene(scene_cfg(noise_std=0.1, seed=7))
        for hm in scene.heatmaps:
            assert hm.values.min() >= 0.0 and hm.values.max() <= 1.0

    def test_camera_count_and_shapes(self):
        scene = synth_scene(scene_cfg())
        assert len(scene.cameras) == 3 and len(scene.heatmaps) == 3
        for hm in scene.heatmaps:
            assert hm.values.shape == (15, 128, 128)


class TestSceneRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        scene = synth_scene(scene_cfg(n_people=2, space_extent=(6000.0, 6000.0, 2000.0)))
        save_scene(scene, tmp_path / "scene")
        loaded = load_scene(tmp_path / "scene")
        assert loaded.config == scene.config
        assert len(loaded.cameras) == len(scene.cameras)
        for ca, cb in zip(scene.cameras, loaded.cameras):
            np.testing.assert_array_equal(ca.rotation, cb.rotation)
            np.testing.assert_array_equal(ca.translation, cb.translation)
            assert (ca.fx, ca.fy, ca.cx, ca.cy) == (cb.fx, cb.fy, cb.cx, cb.cy)
        for pa, pb in zip(scene.poses, loaded.poses):
            np.testing.assert_array_equal(pa.joints, pb.joints)
        assert loaded.skeleton == scene.skeleton
        for ha, hb in zip(scene.heatmaps, loaded.heatmaps):
            np.testing.assert_array_equal(ha.values, hb.values)
        np.testing.assert_allclose(loaded.centers, scene.centers, atol=1e-9)

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scene(tmp_path / "nope")

    def test_heatmaps_pair_with_cameras_by_index_past_100_views(self, tmp_path):
        # "view100" sorts before "view11", so pairing by sorted name would
        # give most of 101 cameras another camera's heatmap of the same size
        scene = synth_scene(scene_cfg(n_cameras=101, image_size=(16, 16)))
        assert len({hm.values.tobytes() for hm in scene.heatmaps}) == 101
        save_scene(scene, tmp_path / "scene")
        loaded = load_scene(tmp_path / "scene")
        for ha, hb in zip(scene.heatmaps, loaded.heatmaps, strict=True):
            np.testing.assert_array_equal(ha.values, hb.values)

    @pytest.mark.parametrize("rename", [{"view01": "view1"}, {"view02": "view03"}])
    def test_missing_or_extra_dump_name_raises_oserror(self, tmp_path, rename):
        save_scene(synth_scene(scene_cfg(image_size=(16, 16))), tmp_path / "scene")
        heatmaps = load_tensor_set(tmp_path / "scene" / "heatmaps")
        # the new manifest lists the renamed set; the old dumps stay unread
        save_tensor_set(tmp_path / "scene" / "heatmaps", {rename.get(k, k): v for k, v in heatmaps.items()})
        with pytest.raises(OSError, match="missing or extra"):
            load_scene(tmp_path / "scene")
