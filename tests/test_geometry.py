"""Pinhole cameras, bilinear heatmap sampling, and voxel aggregation.

The aggregation test compares the vectorized multi-camera average
against a scalar triple loop built only from project_point and
sample_heatmap, which is the semantic definition of a feature volume.
"""

import numpy as np
import pytest

from gridpose import (
    CameraCalib,
    ConfigError,
    GridSpec,
    Heatmap,
    SceneConfig,
    aggregate_feature_volume,
    camera_ring,
    cameras_to_json,
    load_cameras_json,
    project_point,
    sample_heatmap,
    synth_scene,
)
from gridpose import geometry
from conftest import toy_run_config, toy_scene_config
from gridpose.geometry import (
    SCORE_BOUND_RTOL, VOXEL_BLOCK, _camera_samples, min_feature_volume, min_score, min_score_bound,
)


def identity_camera(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0, size=(1000, 1000)):
    return CameraCalib(
        fx=fx, fy=fy, cx=cx, cy=cy,
        rotation=np.eye(3), translation=np.zeros(3),
        image_width=size[0], image_height=size[1],
    )


def aggregate_oracle(cams, heatmaps, grid):
    """Scalar reference: project every voxel into every camera, sample,
    and average over the cameras that observe it."""
    n_joints = heatmaps[0].n_joints
    rx, ry, rz = grid.resolution
    vol = np.zeros((n_joints, rx, ry, rz))
    for x in range(rx):
        for y in range(ry):
            for z in range(rz):
                center = grid.voxel_center((x, y, z))
                scores = np.zeros(n_joints)
                observed = 0
                for cam, hm in zip(cams, heatmaps):
                    uv = project_point(cam, center)
                    if uv is None:
                        continue
                    u, v = uv
                    if not (0.0 <= u <= hm.width - 1 and 0.0 <= v <= hm.height - 1):
                        continue
                    observed += 1
                    for j in range(n_joints):
                        scores[j] += sample_heatmap(hm, j, (u, v))
                if observed:
                    vol[:, x, y, z] = scores / observed
    return vol


@pytest.fixture(scope="module")
def multi_block_views():
    """Three narrow-view cameras around a 23 x 19 x 21 grid (9177 voxels: one
    full voxel block and a partial one). The grid's corners fall outside
    some cameras' images. 15 joints, as many as the skeleton has."""
    rng = np.random.default_rng(21)
    grid = GridSpec(center=(0, 0, 0), extent=(2300.0, 1900.0, 2100.0), resolution=(23, 19, 21))
    cams = camera_ring(3, radius=2600, height=400, target=(0, 0, 0),
                       image_size=(48, 40), focal_px=36)
    heatmaps = [Heatmap(values=rng.uniform(0, 1, size=(15, 40, 48))) for _ in cams]
    return cams, heatmaps, grid


@pytest.fixture(scope="module")
def multi_block_oracle(multi_block_views):
    return aggregate_oracle(*multi_block_views)


class TestCameraCalib:
    def test_non_orthonormal_rotation_rejected(self):
        with pytest.raises(ConfigError):
            CameraCalib(fx=1, fy=1, cx=0, cy=0, rotation=np.eye(3) * 2,
                        translation=np.zeros(3), image_width=8, image_height=8)

    def test_non_positive_focal_rejected(self):
        with pytest.raises(ConfigError):
            CameraCalib(fx=0, fy=1, cx=0, cy=0, rotation=np.eye(3),
                        translation=np.zeros(3), image_width=8, image_height=8)

    def test_json_round_trip(self):
        cams = camera_ring(3, radius=4000, height=1000, target=(0, 0, 0),
                           image_size=(128, 96), focal_px=100)
        back = load_cameras_json(cameras_to_json(cams))
        for a, b in zip(cams, back):
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.translation, b.translation)
            assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
            assert (a.image_width, a.image_height) == (b.image_width, b.image_height)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            CameraCalib.from_json({"fx": 1.0})


class TestProjectPoint:
    def test_principal_point_ray(self):
        cam = identity_camera()
        assert project_point(cam, (0, 0, 2000)) == (500.0, 500.0)

    def test_offset_point(self):
        cam = identity_camera()
        assert project_point(cam, (200, 0, 2000)) == (600.0, 500.0)

    def test_behind_camera_returns_none(self):
        cam = identity_camera()
        assert project_point(cam, (0, 0, -10)) is None
        assert project_point(cam, (0, 0, 0)) is None  # on the camera plane

    def test_out_of_image_still_projects(self):
        # bounds are the sampler's concern, not the projector's
        cam = identity_camera()
        u, v = project_point(cam, (10000, 0, 1000))
        assert u > cam.image_width

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError):
            project_point(identity_camera(), (np.nan, 0, 1))


class TestSampleHeatmap:
    def make_delta(self, u=10, v=20, size=(32, 32)):
        values = np.zeros((1, size[1], size[0]))
        values[0, v, u] = 1.0
        return Heatmap(values=values)

    def test_exact_grid_point(self):
        assert sample_heatmap(self.make_delta(), 0, (10.0, 20.0)) == 1.0

    def test_bilinear_midpoint(self):
        assert sample_heatmap(self.make_delta(), 0, (10.5, 20.0)) == 0.5

    def test_out_of_bounds_is_zero(self):
        hm = self.make_delta()
        assert sample_heatmap(hm, 0, (-3.0, 5.0)) == 0.0
        assert sample_heatmap(hm, 0, (31.5, 5.0)) == 0.0

    def test_corner_pixel_in_bounds(self):
        values = np.ones((1, 4, 4))
        assert sample_heatmap(Heatmap(values=values), 0, (3.0, 3.0)) == 1.0

    def test_matches_scalar_bilinear_formula(self):
        rng = np.random.default_rng(0)
        hm = Heatmap(values=rng.uniform(0, 1, size=(2, 8, 8)))
        for _ in range(50):
            u = rng.uniform(0, 7)
            v = rng.uniform(0, 7)
            j = int(rng.integers(0, 2))
            x0, y0 = int(np.floor(u)), int(np.floor(v))
            x1, y1 = min(x0 + 1, 7), min(y0 + 1, 7)
            wx, wy = u - x0, v - y0
            plane = hm.values[j]
            expect = (
                (1 - wy) * ((1 - wx) * plane[y0, x0] + wx * plane[y0, x1])
                + wy * ((1 - wx) * plane[y1, x0] + wx * plane[y1, x1])
            )
            assert sample_heatmap(hm, j, (u, v)) == pytest.approx(expect, abs=1e-14)

    def test_bad_joint_index_rejected(self):
        with pytest.raises(IndexError):
            sample_heatmap(self.make_delta(), 5, (0.0, 0.0))

    def test_heatmap_value_range_enforced(self):
        with pytest.raises(ValueError):
            Heatmap(values=np.full((1, 4, 4), 1.5))
        with pytest.raises(ValueError):
            Heatmap(values=np.full((1, 4, 4), np.nan))


class TestAggregateFeatureVolume:
    def test_delta_heatmap_marks_projected_voxel(self):
        grid = GridSpec(center=(0, 0, 3000), extent=400.0, resolution=4)
        cam = identity_camera(size=(1024, 1024))
        target_idx = (1, 2, 3)
        uv = project_point(cam, grid.voxel_center(target_idx))
        values = np.zeros((1, 1024, 1024))
        # delta at the nearest integer pixel of that voxel's projection
        values[0, round(uv[1]), round(uv[0])] = 1.0
        vol = aggregate_feature_volume([cam], [Heatmap(values=values)], grid)
        oracle = aggregate_oracle([cam], [Heatmap(values=values)], grid)
        np.testing.assert_allclose(vol, oracle, atol=1e-12)
        assert vol[0][target_idx] == pytest.approx(
            sample_heatmap(Heatmap(values=values), 0, uv), abs=1e-12
        )
        assert vol[0][target_idx] > 0.9 * vol[0].max()

    def test_two_view_mean(self):
        # one camera scores 1.0 everywhere, the other 0.0: mean is 0.5
        grid = GridSpec(center=(0, 0, 0), extent=200.0, resolution=2)
        cams = camera_ring(2, radius=3000, height=0, target=(0, 0, 0),
                           image_size=(256, 256), focal_px=200)
        ones = Heatmap(values=np.ones((1, 256, 256)))
        zeros = Heatmap(values=np.zeros((1, 256, 256)))
        vol = aggregate_feature_volume(cams, [ones, zeros], grid)
        np.testing.assert_allclose(vol, 0.5)

    def test_unobserved_voxels_are_zero_without_nan(self):
        # both cameras look along +x from the origin; the grid sits behind them
        rot = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        cam = CameraCalib(fx=100, fy=100, cx=32, cy=32, rotation=rot,
                          translation=np.zeros(3), image_width=64, image_height=64)
        grid = GridSpec(center=(-5000, 0, 0), extent=100.0, resolution=2)
        vol = aggregate_feature_volume([cam, cam], [Heatmap(values=np.ones((1, 64, 64)))] * 2, grid)
        assert np.all(vol == 0.0)
        assert np.all(np.isfinite(vol))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        grid = GridSpec(center=(0, 0, 0), extent=1000.0, resolution=8)
        cams = camera_ring(2, radius=2500, height=600, target=(0, 0, 0),
                           image_size=(64, 48), focal_px=60)
        heatmaps = [Heatmap(values=rng.uniform(0, 1, size=(3, 48, 64))) for _ in cams]
        vol = aggregate_feature_volume(cams, heatmaps, grid)
        oracle = aggregate_oracle(cams, heatmaps, grid)
        assert np.abs(vol - oracle).max() <= 1e-12

    def test_partial_visibility_divisor(self):
        # voxels seen by one camera only must divide by 1, not 2
        grid = GridSpec(center=(0, 0, 0), extent=3000.0, resolution=6)
        cams = camera_ring(2, radius=2000, height=0, target=(0, 0, 0),
                           image_size=(32, 32), focal_px=40)
        rng = np.random.default_rng(5)
        heatmaps = [Heatmap(values=rng.uniform(0, 1, size=(2, 32, 32))) for _ in cams]
        vol = aggregate_feature_volume(cams, heatmaps, grid)
        oracle = aggregate_oracle(cams, heatmaps, grid)
        assert np.abs(vol - oracle).max() <= 1e-12

    def test_camera_heatmap_count_mismatch(self):
        grid = GridSpec(center=0.0, extent=10.0, resolution=2)
        cam = identity_camera()
        with pytest.raises(ValueError):
            aggregate_feature_volume([cam], [], grid)

    def test_translated_grid_equivariance(self):
        # moving grid and scene content together leaves the volume unchanged
        rng = np.random.default_rng(8)
        hm = Heatmap(values=rng.uniform(0, 1, size=(2, 64, 64)))
        cam = identity_camera(fx=80, fy=80, cx=32, cy=32, size=(64, 64))
        grid = GridSpec(center=(0, 0, 2000), extent=500.0, resolution=4)
        delta = np.array([40.0, -30.0, 100.0])
        moved_cam = CameraCalib(
            fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
            rotation=cam.rotation,
            translation=cam.translation - cam.rotation @ delta,
            image_width=64, image_height=64,
        )
        vol = aggregate_feature_volume([cam], [hm], grid)
        moved_grid = GridSpec(grid.center + delta, grid.extent, grid.resolution)
        moved = aggregate_feature_volume([moved_cam], [hm], moved_grid)
        np.testing.assert_allclose(moved, vol, atol=1e-9)


class TestBlockedSampling:
    """The camera loop runs over blocks of VOXEL_BLOCK voxels; these grids
    cross a block boundary and end in a partial block."""

    def test_grid_spans_a_partial_block(self, multi_block_views):
        n_voxels = multi_block_views[2].n_voxels
        assert n_voxels > VOXEL_BLOCK and n_voxels % VOXEL_BLOCK != 0

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 2.0 ** -24)])
    def test_mean_matches_scalar_oracle(self, multi_block_views, multi_block_oracle, dtype, tol):
        # f32 is the f64 volume rounded once, which moves values in [0, 1]
        # by at most 2**-25, half an f32 ulp at 1, and flushes values below
        # 2**-126; the bound leaves a factor 2 for the f64 sampler's rounding
        vol = aggregate_feature_volume(*multi_block_views, dtype=dtype)
        assert vol.dtype == dtype
        assert vol.shape == multi_block_oracle.shape
        assert np.abs(vol - multi_block_oracle).max() <= tol

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_min_equals_minimum_of_single_camera_volumes(self, multi_block_views, dtype):
        cams, heatmaps, grid = multi_block_views
        singles = [aggregate_feature_volume([cam], [hm], grid, dtype=dtype)
                   for cam, hm in zip(cams, heatmaps)]
        unseen = np.array([np.all(single == 0.0, axis=0) for single in singles])
        assert np.any(unseen.any(axis=0) & ~unseen.all(axis=0))  # seen by some cameras only
        assert np.any(~unseen.any(axis=0))  # seen by all cameras

        expected = np.minimum.reduce(singles)
        vol = min_feature_volume(cams, heatmaps, grid, dtype=dtype)
        assert vol.dtype == dtype
        assert np.array_equal(vol, expected)
        assert np.all(vol[:, unseen.any(axis=0)] == 0.0)
        # the joint sum that scores center proposals adds in the same order
        assert np.array_equal(vol.sum(axis=0), expected.sum(axis=0))

    @pytest.mark.parametrize("volume", [aggregate_feature_volume, min_feature_volume])
    def test_f32_volume_is_the_f64_volume_rounded_once(self, multi_block_views, volume):
        # the sampler runs in float64 whatever dtype the volume is asked in
        f64 = volume(*multi_block_views, dtype=np.float64)
        f32 = volume(*multi_block_views, dtype=np.float32)
        assert f32.dtype == np.float32
        expected = f64.astype(np.float32)
        expected[np.abs(expected) < np.finfo(np.float32).tiny] = 0.0
        assert np.array_equal(f32, expected)

    @pytest.mark.parametrize("volume", [aggregate_feature_volume, min_feature_volume])
    def test_f32_volume_holds_no_subnormals(self, volume):
        # the toy scene's Gaussian heatmap tails round to f32 subnormals,
        # which slow every conv on the volume; they are set to 0
        scene = synth_scene(toy_scene_config())
        grid = toy_run_config().grid(scene.centers[0])
        tiny = np.finfo(np.float32).tiny
        f64 = volume(scene.cameras, scene.heatmaps, grid, dtype=np.float64)
        assert np.any((f64 > 0.0) & (f64.astype(np.float32) < tiny))
        f32 = volume(scene.cameras, scene.heatmaps, grid, dtype=np.float32)
        assert not np.any((f32 != 0.0) & (np.abs(f32) < tiny))

    def test_min_rejects_mismatched_views(self, multi_block_views):
        cams, heatmaps, grid = multi_block_views
        with pytest.raises(ValueError):
            min_feature_volume(cams, heatmaps[:2], grid)


def joint_sum_samples(cams, heatmaps, centers):
    """Each camera's joint-summed heatmap sampled at every (n, 3) point,
    shape (n_cameras, n): the dense pass that `min_score_bound` sieves.
    Its minimum over cameras is the upper bound on `min_score`."""
    return np.array([
        _camera_samples(cam, hm.values.sum(axis=0, dtype=np.float64).reshape(1, -1),
                        hm.height, hm.width, centers)[0][0]
        for cam, hm in zip(cams, heatmaps)
    ])


class TestScoreBound:
    """The minimum over cameras of the joint-summed samples must bound the
    15-joint `min_score` on every voxel as computed, so that center proposal
    can skip every voxel whose bound stays below the threshold."""

    @pytest.fixture(scope="class")
    def sparse_views(self, multi_block_views):
        """The multi-block cameras and grid with heatmaps that are 0 on 30%
        of their pixels, so that some observed voxels score exactly 0."""
        cams, heatmaps, grid = multi_block_views
        rng = np.random.default_rng(5)
        values = [hm.values * (rng.uniform(size=hm.values.shape) >= 0.3) for hm in heatmaps]
        return cams, [Heatmap(values=v) for v in values], grid

    @pytest.mark.parametrize("n_cameras", [1, 3])
    def test_bound_covers_score(self, sparse_views, n_cameras):
        cams, heatmaps, grid = sparse_views
        cams, heatmaps = cams[:n_cameras], heatmaps[:n_cameras]
        centers = grid.voxel_centers()
        score = min_score(cams, heatmaps, centers)
        bound = joint_sum_samples(cams, heatmaps, centers).min(axis=0)
        assert np.all(score >= 0.0) and np.any(bound > 0.0)
        assert np.all(score <= bound * (1.0 + SCORE_BOUND_RTOL))
        assert np.all(score[bound == 0.0] == 0.0)
        if n_cameras == 1:
            # one camera: bound and score agree in exact arithmetic, so the
            # slack is all that absorbs rounding, and the bound is tight
            assert np.any(score > bound)
            np.testing.assert_allclose(bound, score, rtol=1e-13, atol=0.0)
        # the mask keeps every voxel that scores above the threshold
        for threshold in (0.0, 0.5 * score.max()):
            mask = min_score_bound(cams, heatmaps, centers, threshold)
            assert np.all(mask[score > threshold])

    def test_min_score_equals_dense_joint_sum_at_any_points(self, sparse_views):
        cams, heatmaps, grid = sparse_views
        dense = min_feature_volume(cams, heatmaps, grid).sum(axis=0).ravel(order="F")
        centers = grid.voxel_centers()
        assert np.array_equal(min_score(cams, heatmaps, centers), dense)
        # a point's score does not depend on the points that share its blocks
        perm = np.random.default_rng(8).permutation(grid.n_voxels)
        subset = perm[:VOXEL_BLOCK + 100]
        assert np.array_equal(min_score(cams, heatmaps, centers[subset]), dense[subset])
        assert min_score(cams, heatmaps, centers[:0]).shape == (0,)
        # nor at a lone point, or one past a whole block: numpy hands a
        # one-row projection to gemv and sums a lone point's (J, 1) minima
        # pairwise, which moved 36 % of the lone scores in the last bits
        for i in np.flatnonzero(dense)[:12]:
            assert np.array_equal(min_score(cams, heatmaps, centers[[i]]), dense[[i]]), i
            subset = np.append(perm[perm != i][:VOXEL_BLOCK], i)
            assert np.array_equal(min_score(cams, heatmaps, centers[subset]), dense[subset]), i

    def test_sieve_that_leaves_one_point_returns_the_dense_mask(self, sparse_views, monkeypatch):
        cams, heatmaps, grid = sparse_views
        centers = grid.voxel_centers()
        samples = joint_sum_samples(cams, heatmaps, centers)
        bound = samples.min(axis=0)
        # the first camera drops `gone` and keeps `p`: every later camera
        # samples p alone. With no slack the floor is the threshold, which
        # sits at p's dense bound and one step below it
        gone = np.flatnonzero(samples[0] == 0.0)[0]
        monkeypatch.setattr(geometry, "SCORE_BOUND_RTOL", 0.0)
        for p in np.flatnonzero(bound)[:40]:
            for threshold in (bound[p], np.nextafter(bound[p], 0.0)):
                mask = min_score_bound(cams, heatmaps, centers[[gone, p]], threshold)
                assert np.array_equal(mask, [False, bound[p] > threshold]), (p, threshold)


class TestSievedBound:
    """`min_score_bound` samples the first camera at every point and each
    later camera only where all earlier ones exceed the floor, the threshold
    less its relative slack. Its mask must equal the dense minimum over
    cameras compared with that floor, with exactly the sieve's samples."""

    @pytest.fixture(scope="class", params=[0, 3])
    def crowd_views(self, request):
        """A four-person scene seen by five ring cameras and its 80 mm coarse
        grid (70 x 70 x 25 voxels, 15 blocks and a partial one)."""
        scene = synth_scene(SceneConfig(
            seed=request.param, n_people=4, space_extent=(5600.0, 5600.0, 2000.0),
            person_extent=1600.0, n_cameras=5, camera_radius=5600.0, camera_height=1000.0,
            image_size=(128, 128), focal_px=70.0, heatmap_sigma=2.0,
        ))
        grid = GridSpec(center=scene.config.space_center, extent=scene.config.space_extent,
                        resolution=(70, 70, 25))
        cams, heatmaps, centers = scene.cameras, scene.heatmaps, grid.voxel_centers()
        return cams, heatmaps, centers, joint_sum_samples(cams, heatmaps, centers)

    @pytest.mark.parametrize("threshold", ["zero", "threshold", "above_every_voxel"])
    def test_mask_equals_dense_minimum(self, crowd_views, threshold, monkeypatch):
        cams, heatmaps, centers, samples = crowd_views
        bound = samples.min(axis=0)
        threshold = {"zero": 0.0, "threshold": 0.3, "above_every_voxel": bound.max() + 1.0}[threshold]
        floor = threshold * (1.0 - SCORE_BOUND_RTOL)
        # the sieve's sample count: each camera samples the points that every
        # earlier camera put above the floor
        alive = np.ones(centers.shape[0], dtype=bool)
        sieved = 0
        for camera_samples in samples:
            sieved += int(alive.sum())
            alive &= camera_samples > floor
        taken = []

        def counting_samples(cam, plane, height, width, points):
            taken.append(plane.shape[0] * points.shape[0])
            return _camera_samples(cam, plane, height, width, points)

        monkeypatch.setattr(geometry, "_camera_samples", counting_samples)
        mask = min_score_bound(cams, heatmaps, centers, threshold)
        assert mask.dtype == bool and mask.shape == (centers.shape[0],)
        assert np.array_equal(mask, bound > floor)
        assert sum(taken) == sieved
        if floor > 0.0:
            assert sieved < 0.5 * samples.size  # a dense pass would take samples.size
        if floor > bound.max():
            assert not mask.any()
