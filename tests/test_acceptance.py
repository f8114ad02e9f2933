"""End-to-end acceptance suite.

Ten numbered criteria covering Sinkhorn convergence, permutation
recovery, the dense-attention oracle, whole-model gradient checks,
integral-regression exactness, the aggregation oracle, metrics oracles,
the toy overfit run, complexity accounting, and CLI determinism. Each
test appends one pass/fail line that the terminal summary reprints.
"""

import itertools
import json
import time

import numpy as np
import pytest

from gridpose import (
    AttentionConfig,
    EvalConfig,
    GridSpec,
    Pose3D,
    RunConfig,
    Tensor,
    aggregate_feature_volume,
    as_tensor,
    attention_sublayer,
    bench_attention,
    dense_attention,
    evaluate_frames,
    finite_diff_check,
    init_encoder_layer,
    init_model_from_config,
    integral_regression,
    match_poses,
    merge_bins,
    model_forward,
    partition_bins,
    project_point,
    run_config_to_json,
    sample_heatmap,
    scene_config_to_json,
    sinkhorn_normalize,
    unflatten_volume,
)
from conftest import toy_scene_config, toy_run_config
from gridpose.cli import main as cli_main


def _record(log, num, name, ok, detail):
    line = f"{'pass' if ok else 'FAIL'}  criterion {num:2d}  {name}: {detail}"
    log.append(line)
    print(line)
    assert ok, line


def _row_col_deviation(s):
    return max(np.abs(s.sum(axis=1) - 1.0).max(), np.abs(s.sum(axis=0) - 1.0).max())


def test_criterion_01_sinkhorn_convergence(criterion_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    iters = (1, 2, 4, 8, 16, 20)
    worst_final = 0.0
    monotone = True
    for _ in range(100):
        r = rng.uniform(-2.0, 2.0, size=(8, 8))
        devs = [_row_col_deviation(sinkhorn_normalize(as_tensor(r), k).data)
                for k in iters]
        worst_final = max(worst_final, devs[-1])
        monotone &= all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    seconds = time.perf_counter() - t0
    ok = worst_final <= 1e-6 and monotone and seconds < 1.0
    _record(criterion_log, 1, "sinkhorn row/col sums converge",
            ok, f"worst deviation {worst_final:.2e} after 20 iters, "
                f"non-increasing {monotone}, {seconds:.2f}s")


def test_criterion_02_permutation_recovery(criterion_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    all_match = True
    for _ in range(50):
        perm = rng.permutation(4)
        p = np.zeros((4, 4))
        p[np.arange(4), perm] = 1.0
        r = 50.0 * p + rng.uniform(-0.1, 0.1, size=(4, 4))
        s = sinkhorn_normalize(as_tensor(r), 8).data
        assignment = np.argmax(s, axis=1)
        brute = max(itertools.permutations(range(4)),
                    key=lambda sig: sum(r[i, sig[i]] for i in range(4)))
        all_match &= np.array_equal(assignment, perm)
        all_match &= np.array_equal(np.asarray(brute), perm)
    seconds = time.perf_counter() - t0
    ok = all_match and seconds < 1.0
    _record(criterion_log, 2, "hard assignment recovers planted permutations",
            ok, f"50/50 against exhaustive enumeration, {seconds:.2f}s")


def test_criterion_03_dense_attention_oracle(criterion_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    cases = list(itertools.product((4, 16, 64), (4, 8), (1, 2)))
    worst = 0.0
    for i in range(20):
        length, embed, heads = cases[i % len(cases)]
        cfg = AttentionConfig(embed_dim=embed, n_heads=heads, bin_size=length,
                              sinkhorn_iters=4)
        layer = init_encoder_layer(cfg, rng)
        seq = rng.normal(size=(length, embed))
        bins = partition_bins(Tensor(seq), length)  # N_b = 1
        sparse = merge_bins(attention_sublayer(bins, layer, cfg, mode="soft")).data
        dense = dense_attention(Tensor(seq), layer.w_q, layer.w_k, layer.w_v,
                                layer.w_o, cfg).data
        worst = max(worst, float(np.abs(sparse - dense).max()))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-10 and seconds < 5.0
    _record(criterion_log, 3, "single-bin sparse equals dense attention",
            ok, f"max abs error {worst:.2e} over 20 cases, {seconds:.2f}s")


def test_criterion_04_whole_model_gradient_check(criterion_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    cfg = RunConfig(
        attention=AttentionConfig(embed_dim=4, n_heads=2, bin_size=2,
                                  sinkhorn_iters=4, n_layers=1),
        n_joints=3, grid_extent=200.0, grid_resolution=2,
        residual_channels=(3,), seed=0,
    )
    weights = init_model_from_config(cfg)
    grid = cfg.grid()
    volume = rng.uniform(0.0, 1.0, size=(3, 2, 2, 2))
    target = Tensor(rng.uniform(-80.0, 80.0, size=(3, 3)))

    def loss_fn():
        probs = model_forward(volume, weights, cfg.attention, mode="soft")
        joints = integral_regression(probs, grid)
        return (joints - target).abs().mean() * (1.0 / cfg.grid_extent)

    params = weights.parameters()
    n_params = sum(t.data.size for t in params.values())
    worst = finite_diff_check(loss_fn, params, eps=1e-5, max_probes=None)
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-4 and seconds < 60.0
    _record(criterion_log, 4, "whole-model gradients match central differences",
            ok, f"max rel error {worst:.2e} over all {n_params} weights, {seconds:.1f}s")


def test_criterion_05_integral_regression_exactness(criterion_log):
    t0 = time.perf_counter()
    grid = GridSpec(center=(0.0, 0.0, 0.0), extent=800.0, resolution=8)
    edge = 100.0
    centers = grid.voxel_centers()
    n = centers.shape[0]

    worst_delta = 0.0
    for flat in (0, 13, 97, 300, 511):
        seq = np.zeros((n, 2))
        seq[flat] = 1.0
        joints = integral_regression(Tensor(unflatten_volume(seq, (8, 8, 8))), grid).data
        worst_delta = max(worst_delta, float(np.abs(joints - centers[flat]).max()))

    rng = np.random.default_rng(4)
    worst_gauss = 0.0
    for _ in range(10):
        # blob centered between voxel centers, well inside the grid
        mu = rng.uniform(-50.0, 50.0, size=3)
        w = np.exp(-np.sum((centers - mu) ** 2, axis=1) / (2.0 * edge ** 2))
        probs = Tensor(unflatten_volume((w / w.sum())[:, None], (8, 8, 8)))
        joints = integral_regression(probs, grid).data
        worst_gauss = max(worst_gauss, float(np.linalg.norm(joints[0] - mu)))
    seconds = time.perf_counter() - t0
    ok = worst_delta < 1e-9 and worst_gauss < edge / 10.0 and seconds < 1.0
    _record(criterion_log, 5, "integral regression hits voxel centers",
            ok, f"delta error {worst_delta:.2e}mm, gaussian error "
                f"{worst_gauss:.2f}mm < {edge / 10:.0f}mm, {seconds:.2f}s")


def test_criterion_06_aggregation_oracle(criterion_log):
    from gridpose import Heatmap, camera_ring

    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    cams = camera_ring(2, 3000.0, 600.0, (0.0, 0.0, 800.0), (64, 48), 90.0)
    heatmaps = [Heatmap(values=rng.uniform(0.0, 1.0, size=(2, 48, 64)))
                for _ in cams]
    grid = GridSpec(center=(0.0, 0.0, 800.0), extent=1600.0, resolution=8)

    batched = aggregate_feature_volume(cams, heatmaps, grid)
    oracle = np.zeros((2, 8, 8, 8))
    for j in range(2):
        for x in range(8):
            for y in range(8):
                for z in range(8):
                    point = grid.voxel_center((x, y, z))
                    total, seen = 0.0, 0
                    for cam, hm in zip(cams, heatmaps):
                        uv = project_point(cam, point)
                        # observed only when the projection lands inside the image
                        if uv is None or not (0.0 <= uv[0] <= 63.0 and 0.0 <= uv[1] <= 47.0):
                            continue
                        seen += 1
                        total += sample_heatmap(hm, j, uv)
                    oracle[j, x, y, z] = total / seen if seen else 0.0
    worst = float(np.abs(batched - oracle).max())
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-12 and seconds < 5.0
    _record(criterion_log, 6, "vectorized aggregation equals scalar triple loop",
            ok, f"max abs error {worst:.2e} on 8^3 x 2 cameras, {seconds:.2f}s")


def test_criterion_07_metrics_oracles(criterion_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    skeleton = [(0, 1), (1, 2), (1, 3)]
    alpha = 0.5
    exact = True

    for _ in range(20):
        gts = [Pose3D(joints=rng.uniform(-900.0, 900.0, size=(4, 3))) for _ in range(2)]
        preds = [Pose3D(joints=g.joints + rng.normal(size=(4, 3)) * rng.uniform(5, 300))
                 for g in gts]
        rng.shuffle(preds)
        match = match_poses(preds, gts)

        assign = {}
        free_g, free_p = set(range(2)), set(range(2))
        while free_g and free_p:
            best = min(
                ((float(np.mean(np.linalg.norm(preds[p].joints - gts[g].joints, axis=1))), g, p)
                 for g in sorted(free_g) for p in sorted(free_p)))
            assign[best[1]] = best[2]
            free_g.discard(best[1])
            free_p.discard(best[2])
        exact &= {g: p for g, p in enumerate(match.gt_to_pred) if p is not None} == assign

        per_actor = {}
        for g, gt in enumerate(gts):
            correct = total = 0
            p = assign.get(g)
            for a, b in skeleton:
                limb = np.linalg.norm(gt.joints[a] - gt.joints[b])
                if limb == 0.0:
                    continue
                total += 1
                da = np.linalg.norm(preds[p].joints[a] - gt.joints[a])
                db = np.linalg.norm(preds[p].joints[b] - gt.joints[b])
                correct += 0.5 * (da + db) <= alpha * limb
            per_actor[g] = correct / total
        report = evaluate_frames([preds], [gts], skeleton,
                                 EvalConfig(alpha=alpha, ap_thresholds=(150.0,)))
        exact &= report.pcp_per_actor == per_actor

        errs = [float(np.mean(np.linalg.norm(preds[assign[g]].joints - gts[g].joints, axis=1)))
                for g in range(2)]
        exact &= report.mpjpe == sum(errs) / 2.0
        exact &= report.ap[150.0] == sum(e < 150.0 for e in errs) / 2.0

    # both endpoints displaced by exactly alpha * |limb| still count correct
    gt = Pose3D(joints=np.array([[0.0, 0, 0], [1000.0, 0, 0]]))
    pred = Pose3D(joints=gt.joints + np.array([0.0, 500.0, 0.0]))
    boundary = evaluate_frames([[pred]], [[gt]], [(0, 1)]).pcp_per_actor == {0: 1.0}
    seconds = time.perf_counter() - t0
    ok = exact and boundary and seconds < 1.0
    _record(criterion_log, 7, "metrics equal scalar brute force",
            ok, f"20 two-person frames exact, boundary displacement correct, {seconds:.2f}s")


@pytest.mark.slow
def test_criterion_08_toy_overfit(criterion_log, toy_overfit):
    result, scene = toy_overfit["result"], toy_overfit["scene"]
    seconds = toy_overfit["seconds"]
    ratio = result.losses[-1] / result.losses[0]
    mpjpe = evaluate_frames([result.poses], [scene.poses], scene.skeleton).mpjpe
    ok = mpjpe is not None and mpjpe < 100.0 and ratio < 0.05 and seconds < 600.0
    _record(criterion_log, 8, "toy scene overfits to sub-voxel error",
            ok, f"mpjpe {mpjpe:.1f}mm < 100mm, final/initial loss "
                f"{ratio:.4f} < 0.05 over {len(result.losses) - 1} steps, {seconds:.0f}s")


def test_criterion_09_complexity_accounting(criterion_log):
    t0 = time.perf_counter()
    row = bench_attention([32768], bin_size=128, embed_dim=8, n_heads=2)[0]
    n_b = 32768 // 128
    expected = n_b * n_b + 32768 * 2 * 128
    ratio = row.dense_elements / row.sparse_elements
    seconds = time.perf_counter() - t0
    ok = (row.sparse_elements == expected == 8_454_144
          and row.dense_elements == 32768 ** 2 and ratio >= 100.0 and seconds < 30.0)
    _record(criterion_log, 9, "score-element counter matches closed form",
            ok, f"counted {row.sparse_elements} == N_b^2 + L*2B, dense/sparse "
                f"ratio {ratio:.1f}x >= 100x at L=32768, {seconds:.1f}s")


def test_criterion_10_cli_determinism(criterion_log, tmp_path):
    t0 = time.perf_counter()
    scene_cfg = tmp_path / "scene.json"
    run_cfg = tmp_path / "run.json"
    scene_cfg.write_text(json.dumps(scene_config_to_json(toy_scene_config())))
    run_cfg.write_text(json.dumps(run_config_to_json(toy_run_config(steps=10))))

    identical = True
    for rep in ("a", "b"):
        assert cli_main(["synth", "--config", str(scene_cfg),
                         "--out", str(tmp_path / rep / "scene")]) == 0
        assert cli_main(["train-toy", "--scene", str(tmp_path / rep / "scene"),
                         "--config", str(run_cfg),
                         "--out", str(tmp_path / rep / "train")]) == 0
        assert cli_main(["check", "--seed", "0",
                         "--out", str(tmp_path / rep / "checks.json")]) == 0
    for rel in ("checks.json", "train/loss.csv", "train/train_report.json",
                "train/weights/head.w.bin", "train/weights/encoder.embed_conv.w.bin",
                "scene/heatmaps/view00.bin"):
        identical &= (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    seconds = time.perf_counter() - t0
    ok = identical and bool(json.loads((tmp_path / "a" / "checks.json").read_text())["all_passed"])
    _record(criterion_log, 10, "check and train-toy are byte-reproducible",
            ok, f"two seeded runs byte-identical across 6 artifacts, {seconds:.0f}s")
