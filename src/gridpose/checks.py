"""The deterministic check suite behind `gridpose check`.

Eight seeded, timing-free invariants, each against an independent oracle:
Sinkhorn normalization and permutation recovery, single-bin sparse
attention against dense attention, the whole model's gradient against
finite differences, aggregation against a scalar loop, integral
regression on a delta, the flatten round trip, and the metrics against a
brute-force 2x2 matching. The report is byte-stable for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionConfig,
    attention_sublayer,
    dense_attention,
    init_encoder_layer,
    sinkhorn_normalize,
)
from .autodiff import Tensor, finite_diff_check
from .config import RunConfig
from .geometry import Heatmap, aggregate_feature_volume, project_point, sample_heatmap
from .grid import GridSpec, flatten_volume, partition_bins, unflatten_volume
from .metrics import EvalConfig, evaluate_frames
from .model import init_model_from_config, model_forward
from .posehead import Pose3D, integral_regression
from .synth import camera_ring


@dataclass
class CheckItem:
    name: str
    passed: bool
    value: float


@dataclass
class CheckReport:
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "value": c.value}
                for c in self.checks
            ],
        }


def _check_sinkhorn(rng):
    worst = 0.0
    for _ in range(10):
        r = rng.uniform(-2.0, 2.0, size=(8, 8))
        s = sinkhorn_normalize(Tensor(r), 20).data
        dev = max(np.abs(s.sum(axis=1) - 1.0).max(), np.abs(s.sum(axis=0) - 1.0).max())
        worst = max(worst, float(dev))
    return CheckItem("sinkhorn_doubly_stochastic", worst <= 1e-6, worst)


def _check_permutation_recovery(rng):
    hits = 0
    for _ in range(10):
        perm = rng.permutation(4)
        p = np.eye(4)[perm]
        r = 50.0 * p + rng.uniform(-0.1, 0.1, size=(4, 4))
        s = sinkhorn_normalize(Tensor(r), 10).data
        if np.array_equal(np.argmax(s, axis=1), perm):
            hits += 1
    return CheckItem("sinkhorn_permutation_recovery", hits == 10, float(hits) / 10.0)


def _check_dense_oracle(rng):
    cfg = AttentionConfig(embed_dim=4, n_heads=2, bin_size=16, sinkhorn_iters=6, n_layers=1)
    seq = rng.normal(size=(16, 4))
    layer = init_encoder_layer(cfg, rng)
    bins = partition_bins(Tensor(seq), 16)
    sparse = attention_sublayer(bins, layer, cfg, mode="soft")
    dense = dense_attention(Tensor(seq), layer.w_q, layer.w_k, layer.w_v, layer.w_o, cfg)
    diff = float(np.abs(sparse.data.reshape(16, 4) - dense.data).max())
    return CheckItem("single_bin_matches_dense_attention", diff <= 1e-10, diff)


def _check_composed_gradient(rng):
    cfg = RunConfig(
        attention=AttentionConfig(embed_dim=4, n_heads=2, bin_size=2, sinkhorn_iters=3, n_layers=1),
        n_joints=2, grid_extent=200.0, grid_resolution=2, residual_channels=(3,),
        train_steps=0, seed=5,
    )
    weights = init_model_from_config(cfg)
    grid = cfg.grid()
    vol = rng.uniform(0.0, 1.0, size=(2, 2, 2, 2))
    target = Tensor(rng.uniform(-80.0, 80.0, size=(2, 3)))
    params = weights.parameters()
    leaves = [params[k] for k in sorted(params)]

    def loss_fn():
        probs = model_forward(vol, weights, cfg.attention, mode="soft")
        joints = integral_regression(probs, grid)
        return ((joints - target).abs() * (1.0 / 200.0)).mean()

    err = finite_diff_check(loss_fn, leaves, max_probes=4, rng=np.random.default_rng(11))
    return CheckItem("composed_pipeline_gradient", err <= 1e-4, float(err))


def _check_aggregation_oracle(rng):
    cams = camera_ring(2, 900.0, 250.0, (0.0, 0.0, 0.0), (32, 24), 30.0)
    heatmaps = [Heatmap(values=rng.uniform(0.0, 1.0, size=(2, 24, 32))) for _ in cams]
    grid = GridSpec(center=(0.0, 0.0, 0.0), extent=500.0, resolution=4)
    fast = aggregate_feature_volume(cams, heatmaps, grid)
    slow = np.zeros_like(fast)
    for j in range(2):
        for ix in range(4):
            for iy in range(4):
                for iz in range(4):
                    acc, count = 0.0, 0
                    center = grid.voxel_center((ix, iy, iz))
                    for cam, hm in zip(cams, heatmaps):
                        uv = project_point(cam, center)
                        if uv is None:
                            continue
                        u, v = uv
                        if not (0 <= u <= cam.image_width - 1 and 0 <= v <= cam.image_height - 1):
                            continue
                        acc += sample_heatmap(hm, j, (u, v))
                        count += 1
                    slow[j, ix, iy, iz] = acc / count if count else 0.0
    diff = float(np.abs(fast - slow).max())
    return CheckItem("aggregation_matches_scalar_loop", diff <= 1e-12, diff)


def _check_integral_delta():
    grid = GridSpec(center=(10.0, -5.0, 3.0), extent=400.0, resolution=4)
    probs = np.zeros((1, 4, 4, 4))
    probs[0, 1, 2, 3] = 1.0
    joint = integral_regression(probs, grid).data[0]
    err = float(np.abs(joint - grid.voxel_center((1, 2, 3))).max())
    return CheckItem("integral_regression_delta_exact", err <= 1e-9, err)


def _check_flatten_roundtrip(rng):
    vol = rng.normal(size=(3, 4, 5, 6))
    back = unflatten_volume(flatten_volume(vol), (4, 5, 6))
    same = bool(np.array_equal(back, vol))
    return CheckItem("flatten_unflatten_roundtrip", same, 0.0 if same else 1.0)


def _check_metrics_brute_force(rng):
    skeleton = [(0, 1), (1, 2)]
    worst = 0.0
    for _ in range(5):
        gts = [Pose3D(joints=rng.normal(scale=400.0, size=(3, 3))) for _ in range(2)]
        preds = [Pose3D(joints=g.joints + rng.normal(scale=60.0, size=(3, 3))) for g in gts]
        report = evaluate_frames([preds], [gts], skeleton, EvalConfig(ap_thresholds=(100.0,)))
        costs = np.array([
            [np.mean(np.linalg.norm(p.joints - g.joints, axis=1)) for p in preds]
            for g in gts
        ])
        # greedy on a 2x2 cost matrix: global minimum first, remainder second
        g0, p0 = np.unravel_index(np.argmin(costs), costs.shape)
        pairs = [(int(g0), int(p0)), (1 - int(g0), 1 - int(p0))]
        accs = []
        for g, p in pairs:
            ok = total = 0
            for a, b in skeleton:
                limb = np.linalg.norm(gts[g].joints[a] - gts[g].joints[b])
                if limb == 0:
                    continue
                total += 1
                ea = np.linalg.norm(preds[p].joints[a] - gts[g].joints[a])
                eb = np.linalg.norm(preds[p].joints[b] - gts[g].joints[b])
                ok += (ea + eb) / 2.0 <= 0.5 * limb
            accs.append(ok / total)
        worst = max(worst, abs(report.pcp_average - float(np.mean(accs))))
        errs = [costs[g, p] for g, p in pairs]
        expect_ap = float(np.mean([e < 100.0 for e in errs]))
        worst = max(worst, abs(report.ap[100.0] - expect_ap))
    return CheckItem("metrics_match_brute_force", worst == 0.0, worst)


def run_checks(seed=0):
    """Seeded, timing-free invariant suite; byte-stable across runs."""
    rng = np.random.default_rng(seed)
    checks = [
        _check_sinkhorn(rng),
        _check_permutation_recovery(rng),
        _check_dense_oracle(rng),
        _check_composed_gradient(rng),
        _check_aggregation_oracle(rng),
        _check_integral_delta(),
        _check_flatten_roundtrip(rng),
        _check_metrics_brute_force(rng),
    ]
    return CheckReport(checks=checks)
