"""Two-stage pipeline: coarse center proposal, per-person inference, toy
training, the attention benchmark, and the built-in check suite."""

import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import gridpose.pipeline as pipeline_mod
from gridpose import (
    ConfigError,
    GridSpec,
    Heatmap,
    NumericError,
    bench_attention,
    coarse_center_proposal,
    evaluate_frames,
    init_model_from_config,
    load_model,
    model_forward,
    propose_centers,
    run_checks,
    run_inference,
    save_model,
    synth_scene,
    train_toy,
    write_bench_csv,
    write_loss_csv,
)
from gridpose.autodiff import Adam, Tensor, no_grad
from gridpose.geometry import aggregate_feature_volume, min_feature_volume
from gridpose.pipeline import neighborhood_max
from gridpose.posehead import integral_regression
from conftest import toy_run_config, toy_scene_config


def zeroed_heatmaps(scene):
    return [Heatmap(values=np.zeros_like(hm.values)) for hm in scene.heatmaps]


def windowed_max(score):
    """Reference 3x3x3 neighborhood max: one window view of the padded score."""
    padded = np.pad(score, 1, constant_values=-np.inf)
    return sliding_window_view(padded, (3, 3, 3)).max(axis=(3, 4, 5))


def border_peaks(dims):
    """Zero score with one peak on each face, edge and corner of the grid."""
    score = np.zeros(dims)
    value = 1.0
    for position in np.ndindex(3, 3, 3):
        if position == (1, 1, 1):
            continue
        index = tuple((0, r // 2, r - 1)[p] for p, r in zip(position, dims))
        score[index] = value
        value += 1.0
    return score


def whole_grid_proposal(volume, grid, threshold, min_separation, refine_radius=None):
    """Reference center proposal: the same peaks and suppression, with each
    refinement ball picked out of every voxel of the grid."""
    if refine_radius is None:
        refine_radius = 0.9 * min_separation
    score = volume.sum(axis=0)
    peak_idx = np.argwhere((score >= windowed_max(score)) & (score > threshold))
    flat_centers = grid.voxel_centers()
    flat_scores = score.ravel(order="F")
    kept = []
    for i in np.argsort(-score[tuple(peak_idx.T)], kind="stable"):
        pos = grid.voxel_center(peak_idx[i])
        if all(np.linalg.norm(pos - k) >= min_separation for k, _ in kept):
            kept.append((pos, score[tuple(peak_idx[i])]))
    refined = []
    for pos, _ in kept:
        near = np.linalg.norm(flat_centers - pos, axis=1) <= refine_radius
        mass = flat_scores[near]
        refined.append(flat_centers[near].T @ mass / mass.sum() if mass.sum() > 0 else pos)
    return np.asarray(refined).reshape(-1, 3), np.asarray([s for _, s in kept])


def proposal_grid(scene, cfg):
    """The coarse grid `propose_centers` scores."""
    res = tuple(max(2, int(np.ceil(ext / cfg.coarse_voxel_mm))) for ext in scene.config.space_extent)
    return GridSpec(center=scene.config.space_center, extent=scene.config.space_extent, resolution=res)


def crowd_scene_config(seed, **overrides):
    """Four people in a 5.6 x 5.6 m space seen by five ring cameras."""
    base = dict(n_people=4, space_extent=(5600.0, 5600.0, 2000.0), n_cameras=5,
                camera_radius=5600.0, camera_height=1000.0, image_size=(128, 128), focal_px=70.0)
    return toy_scene_config(seed=seed, **dict(base, **overrides))


def spread_scene_config(n_people):
    """`n_people` toy people in a 5 x 5 m space, so that their grids differ."""
    return toy_scene_config(seed=11, n_people=n_people, space_extent=(5000.0, 5000.0, 2000.0))


def summed_graph_training(scene, cfg):
    """Reference Adam training: each step builds one graph of every person's
    loss, scales their sum by 1/P and runs one backward pass."""
    grids = [cfg.grid(center) for center in scene.centers]
    volumes = [aggregate_feature_volume(scene.cameras, scene.heatmaps, g, dtype=cfg.np_dtype) for g in grids]
    targets = [Tensor(pose.joints.astype(cfg.np_dtype)) for pose in scene.poses]
    inv_extent = Tensor(1.0 / np.asarray(cfg.grid_extent, dtype=cfg.np_dtype))
    weights = init_model_from_config(cfg)
    params = weights.parameters()
    adam = Adam([params[name] for name in sorted(params)], lr=cfg.lr)
    losses = []
    for step in range(cfg.train_steps + 1):
        adam.zero_grad()
        total = None
        for volume, target, grid in zip(volumes, targets, grids):
            joints = integral_regression(model_forward(volume, weights, cfg.attention, mode="soft"), grid)
            person = ((joints - target).abs() * inv_extent).mean()
            total = person if total is None else total + person
        loss = total * (1.0 / len(volumes))
        losses.append(float(loss.data))
        if step < cfg.train_steps:
            loss.backward()
            adam.step()
    return losses, weights


def traced_peak(scene, steps):
    """Peak traced memory of a toy `train_toy` run, in bytes."""
    tracemalloc.start()
    try:
        train_toy(scene, toy_run_config(steps=steps))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNeighborhoodMax:
    """The separable 3x3x3 max must equal the windowed reference exactly."""

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 5, 3), (7, 4, 9), (12, 9, 5)])
    def test_random_scores(self, dims):
        score = np.random.default_rng(sum(dims)).normal(size=dims)
        assert np.array_equal(neighborhood_max(score), windowed_max(score))

    @pytest.mark.parametrize("dims", [(3, 4, 5), (6, 2, 7)])
    def test_plateaus(self, dims):
        score = np.full(dims, 0.5)
        score[: dims[0] // 2, :, 1:] = 2.0  # a plateau touching three faces
        assert np.array_equal(neighborhood_max(score), windowed_max(score))
        assert np.array_equal(neighborhood_max(np.zeros(dims)), np.zeros(dims))

    @pytest.mark.parametrize("dims", [(5, 7, 6), (9, 5, 3), (4, 11, 8)])
    def test_peaks_on_faces_edges_and_corners(self, dims):
        score = border_peaks(dims)
        assert np.array_equal(neighborhood_max(score), windowed_max(score))


class TestCoarseCenterProposal:
    def test_single_delta_peak(self):
        grid = GridSpec(center=(0.0, 0.0, 0.0), extent=800.0, resolution=8)
        volume = np.zeros((2, 8, 8, 8))
        volume[:, 2, 3, 4] = 1.0
        centers, scores = coarse_center_proposal(volume, grid, threshold=0.3,
                                                 min_separation=100.0, refine_radius=1.0)
        assert centers.shape == (1, 3)
        expect = grid.voxel_center((2, 3, 4))
        np.testing.assert_allclose(centers[0], expect, atol=1e-9)
        assert scores[0] == pytest.approx(2.0)

    def test_close_peaks_suppressed_to_strongest(self):
        grid = GridSpec(center=(0.0, 0.0, 0.0), extent=800.0, resolution=8)
        volume = np.zeros((1, 8, 8, 8))
        volume[0, 2, 2, 2] = 1.0
        volume[0, 4, 2, 2] = 0.8  # 200mm away, inside the separation radius
        centers, scores = coarse_center_proposal(volume, grid, threshold=0.3,
                                                 min_separation=500.0, refine_radius=1.0)
        assert len(centers) == 1
        np.testing.assert_allclose(centers[0], grid.voxel_center((2, 2, 2)), atol=1e-9)

    def test_refinement_finds_mass_centroid(self):
        grid = GridSpec(center=(0.0, 0.0, 0.0), extent=800.0, resolution=8)
        volume = np.zeros((1, 8, 8, 8))
        volume[0, 3, 4, 4] = 1.0
        volume[0, 4, 4, 4] = 1.0  # symmetric plateau along x
        centers, _ = coarse_center_proposal(volume, grid, threshold=0.3,
                                            min_separation=500.0, refine_radius=150.0)
        assert len(centers) == 1
        mid = 0.5 * (grid.voxel_center((3, 4, 4)) + grid.voxel_center((4, 4, 4)))
        np.testing.assert_allclose(centers[0], mid, atol=1e-9)

    def test_all_zero_volume_empty(self):
        grid = GridSpec(center=(0.0, 0.0, 0.0), extent=800.0, resolution=8)
        centers, scores = coarse_center_proposal(np.zeros((3, 8, 8, 8)), grid)
        assert centers.shape == (0, 3) and scores.shape == (0,)

    def test_results_sorted_by_score(self):
        grid = GridSpec(center=(0.0, 0.0, 0.0), extent=1600.0, resolution=8)
        volume = np.zeros((1, 8, 8, 8))
        volume[0, 1, 1, 1] = 0.7
        volume[0, 6, 6, 6] = 0.9
        centers, scores = coarse_center_proposal(volume, grid, threshold=0.3,
                                                 min_separation=100.0, refine_radius=1.0)
        assert list(scores) == sorted(scores, reverse=True)
        np.testing.assert_allclose(centers[0], grid.voxel_center((6, 6, 6)), atol=1e-9)

    @pytest.mark.parametrize("dims, radius", [
        ((12, 9, 7), 300.0),   # 3 voxel edges: the box's outer layer lies on the ball
        ((12, 9, 7), 250.0),
        ((5, 11, 8), 430.0),
        ((9, 9, 9), 5000.0),   # the ball holds the whole grid
        ((7, 6, 5), None),     # default radius, 0.9 of the separation
    ])
    def test_matches_whole_grid_refinement_oracle(self, dims, radius):
        # peaks on every face, edge and corner, so the boxes clip on every side
        grid = GridSpec(center=(40.0, -30.0, 10.0), extent=100.0 * np.asarray(dims), resolution=dims)
        rng = np.random.default_rng(sum(dims))
        volume = rng.uniform(0.0, 0.2, size=(3, *dims)) * (rng.uniform(size=(3, *dims)) < 0.5)
        volume[0] += border_peaks(dims)
        for min_separation in (150.0, 400.0):
            centers, scores = coarse_center_proposal(volume, grid, threshold=0.3, min_separation=min_separation,
                                                     refine_radius=radius)
            want_centers, want_scores = whole_grid_proposal(volume, grid, 0.3, min_separation, radius)
            assert len(centers) > 1
            assert np.array_equal(centers, want_centers) and np.array_equal(scores, want_scores)

    def test_shape_validation(self):
        grid = GridSpec(center=(0.0, 0.0, 0.0), extent=800.0, resolution=8)
        with pytest.raises(ValueError):
            coarse_center_proposal(np.zeros((8, 8, 8)), grid)
        with pytest.raises(ValueError):
            coarse_center_proposal(np.zeros((1, 4, 8, 8)), grid)


class TestProposeCenters:
    def test_single_person_within_one_coarse_voxel(self):
        scene = synth_scene(toy_scene_config())
        cfg = toy_run_config(steps=0)
        centers = propose_centers(scene, cfg)
        assert centers.shape == (1, 3)
        assert np.linalg.norm(centers[0] - scene.centers[0]) <= cfg.coarse_voxel_mm

    def test_two_people_two_candidates(self):
        scene = synth_scene(toy_scene_config(
            n_people=2, space_extent=(6000.0, 6000.0, 2000.0), seed=6, n_cameras=4))
        cfg = toy_run_config(steps=0)
        centers = propose_centers(scene, cfg)
        assert centers.shape == (2, 3)
        # each candidate pairs with a distinct true center, well inside
        # that person's grid
        dists = np.linalg.norm(centers[:, None] - scene.centers[None, :], axis=2)
        assert dists.min(axis=1).max() <= 0.25 * scene.config.person_extent
        assert set(np.argmin(dists, axis=1)) == {0, 1}

    @pytest.mark.parametrize("seed, threshold, voxel_mm, overrides", [
        (1, 0.3, 80.0, {}),
        (2, 0.3, 80.0, {}),
        (3, 0.3, 80.0, {"n_cameras": 3}),
        (7, 0.0, 80.0, {}),  # every voxel with a positive bound is scored
        (8, 1e6, 80.0, {}),  # no voxel passes: no centers
        # the space is one person high and the coarse grid 18 voxels high,
        # twice the refinement reach of ceil(720 / 88.9) = 9 voxels, so
        # every refinement box is clipped in z
        (5, 0.3, 90.0, {"space_extent": (5600.0, 5600.0, 1600.0)}),
    ])
    def test_equals_dense_proposal(self, seed, threshold, voxel_mm, overrides):
        cfg = dataclasses.replace(toy_run_config(steps=0), proposal_threshold=threshold, coarse_voxel_mm=voxel_mm)
        scene = synth_scene(crowd_scene_config(seed, **overrides))
        grid = proposal_grid(scene, cfg)
        volume = min_feature_volume(scene.cameras, scene.heatmaps, grid)
        want, _ = whole_grid_proposal(volume, grid, threshold, scene.config.person_extent / 2.0)
        dense, _ = coarse_center_proposal(volume, grid, threshold, scene.config.person_extent / 2.0)
        centers = propose_centers(scene, cfg)
        assert np.array_equal(centers, want) and np.array_equal(centers, dense)
        assert (len(centers) == 0) == (threshold > volume.sum(axis=0).max())

    def test_zero_heatmaps_propose_nothing(self):
        scene = synth_scene(toy_scene_config())
        scene.heatmaps = zeroed_heatmaps(scene)
        centers = propose_centers(scene, toy_run_config(steps=0))
        assert centers.shape == (0, 3)


class TestRunInference:
    def test_random_weights_stay_inside_person_grid(self):
        scene = synth_scene(toy_scene_config())
        cfg = toy_run_config(steps=0)
        weights = init_model_from_config(cfg)
        result = run_inference(scene, weights, cfg)
        assert len(result.poses) == 1
        np.testing.assert_array_equal(result.centers, scene.centers)
        half = cfg.grid_extent / 2.0
        offsets = np.abs(result.poses[0].joints - scene.centers[0])
        assert offsets.max() <= half
        # the stage returns predictions only; scoring them is evaluate_frames' step
        assert [f.name for f in dataclasses.fields(result)] == ["poses", "centers"]

    def test_no_centers_yields_empty_report(self):
        scene = synth_scene(toy_scene_config())
        scene.heatmaps = zeroed_heatmaps(scene)
        cfg = toy_run_config(steps=0)
        cfg.center_source = "coarse_proposal"
        weights = init_model_from_config(cfg)
        result = run_inference(scene, weights, cfg)
        assert result.poses == []
        report = evaluate_frames([result.poses], [scene.poses], scene.skeleton)
        assert report.mpjpe is None
        assert all(v == 0.0 for v in report.ap.values())

    def test_nan_weights_raise_numeric_error(self):
        scene = synth_scene(toy_scene_config())
        cfg = toy_run_config(steps=0)
        weights = init_model_from_config(cfg)
        # poison past the encoder so the damage only surfaces in the output
        weights.parameters()["head.w"].data[...] = np.nan
        with pytest.raises(NumericError):
            run_inference(scene, weights, cfg)

    def test_hard_reorder_yields_one_pose_per_center(self):
        scene = synth_scene(toy_scene_config())
        cfg = toy_run_config(steps=0)
        cfg.reorder_mode = "hard"
        weights = init_model_from_config(cfg)  # trainable weights: requires_grad=True
        result = run_inference(scene, weights, cfg)
        assert len(result.poses) == len(scene.centers) == 1
        offsets = np.abs(result.poses[0].joints - scene.centers[0])
        assert offsets.max() <= cfg.grid_extent / 2.0

    def test_f32_config_runs_the_network_in_f32(self, tmp_path):
        cfg = toy_run_config(steps=0)
        save_model(tmp_path / "w", init_model_from_config(cfg))
        cfg.dtype = "f32"
        weights = load_model(tmp_path / "w", cfg)
        assert {t.data.dtype for t in weights.parameters().values()} == {np.dtype(np.float32)}
        n = cfg.grid_resolution
        vol = np.random.default_rng(3).uniform(0.0, 1.0, size=(cfg.n_joints, n, n, n))
        with no_grad():
            probs = model_forward(vol.astype(np.float32), weights, cfg.attention)
        assert probs.data.dtype == np.float32

    def test_f32_poses_stay_close_to_f64(self):
        scene = synth_scene(toy_scene_config())
        cfg = toy_run_config(steps=0)
        f64 = run_inference(scene, init_model_from_config(cfg), cfg)
        cfg.dtype = "f32"
        f32 = run_inference(scene, init_model_from_config(cfg), cfg)
        assert len(f32.poses) == len(f64.poses) == 1
        for a, b in zip(f32.poses, f64.poses):
            assert np.abs(a.joints - b.joints).max() <= 1e-3

    @pytest.mark.parametrize("shift_mm", [0.0, 5000.0, 20000.0])
    def test_f32_drift_does_not_grow_away_from_the_origin(self, shift_mm):
        """Integral regression averages offsets from the grid center, so the
        f32 rounding of the probabilities is not scaled by the scene's
        distance from the world origin."""
        scene = synth_scene(toy_scene_config(space_center=(shift_mm, 0.0, 0.0)))
        cfg = toy_run_config(steps=0)
        f64 = run_inference(scene, init_model_from_config(cfg), cfg)
        cfg.dtype = "f32"
        f32 = run_inference(scene, init_model_from_config(cfg), cfg)
        assert len(f32.poses) == len(f64.poses) == 1
        assert np.abs(f32.poses[0].joints - f64.poses[0].joints).max() <= 1e-3


class TestTrainToy:
    def test_zero_lr_keeps_loss_constant(self):
        scene = synth_scene(toy_scene_config())
        cfg = toy_run_config(steps=3)
        cfg.lr = 0.0
        cfg.optimizer = "sgd"
        result = train_toy(scene, cfg)
        assert len(result.losses) == 4
        assert all(v == result.losses[0] for v in result.losses)

    def test_loss_curve_reproducible(self):
        scene = synth_scene(toy_scene_config())
        a = train_toy(scene, toy_run_config(steps=2))
        b = train_toy(scene, toy_run_config(steps=2))
        assert a.losses == b.losses

    def test_requires_soft_reorder_and_gt_centers(self):
        scene = synth_scene(toy_scene_config())
        cfg = toy_run_config(steps=1)
        cfg.reorder_mode = "hard"
        with pytest.raises(ConfigError):
            train_toy(scene, cfg)
        cfg = toy_run_config(steps=1)
        cfg.center_source = "coarse_proposal"
        with pytest.raises(ConfigError):
            train_toy(scene, cfg)

    # A 1-step 1-person run peaks at 61 MiB traced, during its backward pass:
    # one graph plus conv2's regathered im2col matrix. The last evaluation
    # records no graph. Neither a step nor a person adds a graph to that
    # peak. Keeping each graph after its backward pass, and so step k's graph
    # through step k+1's forward pass, read 106 MiB for 1 step, 115 MiB for
    # 3 steps and 117 MiB for 3 people; one graph of all people's losses
    # read 136 MiB for 3 people.
    def test_steps_do_not_hold_two_graphs(self):
        scene = synth_scene(spread_scene_config(1))
        assert traced_peak(scene, steps=3) < traced_peak(scene, steps=1) + 4 * 2**20

    def test_people_do_not_hold_two_graphs(self):
        one_person = traced_peak(synth_scene(spread_scene_config(1)), steps=1)
        assert traced_peak(synth_scene(spread_scene_config(3)), steps=1) < one_person + 4 * 2**20

    @pytest.mark.parametrize("n_people", [2, 3])
    def test_per_person_backward_matches_one_summed_graph(self, n_people):
        scene = synth_scene(spread_scene_config(n_people))
        cfg = toy_run_config(steps=3)
        result = train_toy(scene, cfg)
        losses, weights = summed_graph_training(scene, cfg)
        assert result.losses == losses
        want = weights.parameters()
        for name, param in result.weights.parameters().items():
            if n_people == 2:  # two contributions per gradient entry add in either order alike
                assert np.array_equal(param.data, want[name].data), name
            else:
                assert np.abs(param.data - want[name].data).max() <= 1e-12 * np.abs(want[name].data).max(), name

    def test_nan_loss_aborts_with_diagnostic(self, monkeypatch):
        scene = synth_scene(toy_scene_config())
        real_init = pipeline_mod.init_model_from_config

        def poisoned(cfg):
            weights = real_init(cfg)
            weights.parameters()["head.w"].data[...] = np.nan
            return weights

        monkeypatch.setattr(pipeline_mod, "init_model_from_config", poisoned)
        with pytest.raises(NumericError):
            train_toy(scene, toy_run_config(steps=1))

    @pytest.mark.slow
    def test_overfit_regression_baseline(self, toy_overfit):
        result = toy_overfit["result"]
        assert len(result.losses) == toy_overfit["cfg"].train_steps + 1
        # measured decrease is ~136x on this scene
        assert result.losses[-1] < 0.01 * result.losses[0]
        scene = toy_overfit["scene"]
        assert evaluate_frames([result.poses], [scene.poses], scene.skeleton).mpjpe is not None

    @pytest.mark.slow
    def test_second_seed_also_converges(self, toy_overfit):
        scene = synth_scene(toy_scene_config(seed=9))
        result = train_toy(scene, toy_run_config())
        first = toy_overfit["result"]
        assert result.losses[0] != first.losses[0]
        assert result.losses[-1] < 0.05 * result.losses[0]

    @pytest.mark.slow
    def test_trained_weights_reproduce_mpjpe_through_inference(self, toy_overfit):
        scene, trained = toy_overfit["scene"], toy_overfit["result"]
        result = run_inference(scene, trained.weights, toy_overfit["cfg"])
        # the last training evaluation and inference run the same no-grad
        # forward pass on the same volumes
        assert len(result.poses) == len(trained.poses)
        for inferred, trained_pose in zip(result.poses, trained.poses):
            assert np.array_equal(inferred.joints, trained_pose.joints)

    def test_write_loss_csv(self, tmp_path):
        losses = [0.5, 0.25, 0.125]
        path = tmp_path / "loss.csv"
        write_loss_csv(path, losses)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss"]
        assert [int(r[0]) for r in rows[1:]] == [0, 1, 2]
        assert [float(r[1]) for r in rows[1:]] == losses


class TestBenchAttention:
    def test_closed_form_score_elements(self):
        rows = bench_attention([1024, 4096], bin_size=64, embed_dim=32, n_heads=2)
        by_len = {r.length: r for r in rows}
        assert by_len[1024].n_bins == 16
        assert by_len[1024].sparse_elements == 16 ** 2 + 1024 * 128  # 131,328
        assert by_len[1024].dense_elements == 1024 ** 2
        assert by_len[4096].sparse_elements == 64 ** 2 + 4096 * 128  # 528,384
        assert by_len[4096].dense_elements == 4096 ** 2  # 16,777,216

    def test_dense_guard_skips_long_rows(self):
        rows = bench_attention([1024, 16384], bin_size=64, embed_dim=16, n_heads=1)
        by_len = {r.length: r for r in rows}
        assert by_len[1024].dense_seconds is not None
        assert by_len[16384].dense_seconds is None
        assert by_len[16384].dense_elements == 16384 ** 2
        assert by_len[16384].sparse_seconds > 0.0

    def test_indivisible_length_rejected(self):
        with pytest.raises(ConfigError):
            bench_attention([1000], bin_size=64, embed_dim=16)

    @pytest.mark.parametrize("length", [0, -128])
    def test_non_positive_length_rejected(self, length):
        with pytest.raises(ConfigError, match="positive multiples"):
            bench_attention([64, length], bin_size=64, embed_dim=16)

    def test_write_bench_csv(self, tmp_path):
        rows = bench_attention([1024, 16384], bin_size=64, embed_dim=16, n_heads=1)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, rows)
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["L", "n_bins", "sparse_score_elements",
                             "dense_score_elements", "sparse_seconds", "dense_seconds"]
        assert parsed[1][0] == "1024" and parsed[2][0] == "16384"
        assert parsed[2][5] == ""  # dense skipped above the guard


class TestRunChecks:
    def test_all_checks_pass(self):
        report = run_checks(seed=0)
        assert report.all_passed
        assert len(report.checks) >= 5
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))

    def test_check_names_and_order(self):
        assert [c.name for c in run_checks(0).checks] == [
            "sinkhorn_doubly_stochastic",
            "sinkhorn_permutation_recovery",
            "single_bin_matches_dense_attention",
            "composed_pipeline_gradient",
            "aggregation_matches_scalar_loop",
            "integral_regression_delta_exact",
            "flatten_unflatten_roundtrip",
            "metrics_match_brute_force",
        ]

    def test_deterministic_given_seed(self):
        a = run_checks(seed=0).to_dict()
        b = run_checks(seed=0).to_dict()
        assert a == b
        json.dumps(a)  # report must be JSON-serializable
