"""Matching, and PCP3D, MPJPE and AP_K through `evaluate_frames`, against
scalar brute-force oracles."""

import itertools
import json

import numpy as np
import pytest

from gridpose import (
    ConfigError,
    EvalConfig,
    Pose3D,
    evaluate_frames,
    match_poses,
    pose_error,
)

SKELETON3 = [(0, 1), (1, 2), (1, 3)]  # 3 limbs over 4 joints


def pose(joints):
    return Pose3D(joints=np.asarray(joints, dtype=np.float64))


def one_frame(preds, gts, skeleton=SKELETON3):
    """The report of one frame at the default alpha (0.5)."""
    return evaluate_frames([preds], [gts], skeleton)


def random_pose(rng, n_joints=4, scale=1000.0):
    return pose(rng.uniform(-scale, scale, size=(n_joints, 3)))


def greedy_match_oracle(preds, gts):
    """Independent restatement of the matching rule: repeatedly take the
    globally cheapest (gt, pred) pair among the still-free ones."""
    free_g = set(range(len(gts)))
    free_p = set(range(len(preds)))
    assign = {}
    while free_g and free_p:
        best = None
        for g in sorted(free_g):
            for p in sorted(free_p):
                cost = float(np.mean(np.linalg.norm(preds[p].joints - gts[g].joints, axis=1)))
                if best is None or cost < best[0]:
                    best = (cost, g, p)
        _, g, p = best
        assign[g] = p
        free_g.remove(g)
        free_p.remove(p)
    return assign


def pcp_oracle(preds, gts, assign, alpha, skeleton):
    """Scalar per-limb correctness; unmatched gts count limbs as wrong."""
    per_actor = {}
    for g, gt in enumerate(gts):
        correct = total = 0
        p = assign.get(g)
        for a, b in skeleton:
            limb = np.linalg.norm(gt.joints[a] - gt.joints[b])
            if limb == 0.0:
                continue
            total += 1
            if p is None:
                continue
            da = np.linalg.norm(preds[p].joints[a] - gt.joints[a])
            db = np.linalg.norm(preds[p].joints[b] - gt.joints[b])
            if 0.5 * (da + db) <= alpha * limb:
                correct += 1
        per_actor[g] = correct / total if total else None
    return per_actor


class TestMatching:
    def test_single_pair_matches(self):
        gt = pose([[0, 0, 0], [1, 0, 0]])
        pred = pose([[0, 0, 1], [1, 0, 1]])
        match = match_poses([pred], [gt])
        assert match.gt_to_pred == [0]
        assert match.errors[0] == pytest.approx(1.0)

    def test_crossed_assignment(self):
        # pred 1 sits nearest gt 0 and pred 0 nearest gt 1
        gts = [pose([[0.0, 0, 0]]), pose([[100.0, 0, 0]])]
        preds = [pose([[99.0, 0, 0]]), pose([[2.0, 0, 0]])]
        match = match_poses(preds, gts)
        assert match.gt_to_pred == [1, 0]
        # brute force over both possible complete assignments
        direct = pose_error(preds[0], gts[0]) + pose_error(preds[1], gts[1])
        crossed = pose_error(preds[1], gts[0]) + pose_error(preds[0], gts[1])
        assert crossed < direct

    def test_more_gts_than_preds_leaves_one_unmatched(self):
        gts = [pose([[0.0, 0, 0]]), pose([[50.0, 0, 0]])]
        preds = [pose([[49.0, 0, 0]])]
        match = match_poses(preds, gts)
        assert match.gt_to_pred == [None, 0]
        assert match.errors == [None, pytest.approx(1.0)]

    def test_spurious_pred_stays_unmatched(self):
        gts = [pose([[0.0, 0, 0]])]
        preds = [pose([[1.0, 0, 0]]), pose([[500.0, 0, 0]])]
        match = match_poses(preds, gts)
        assert match.gt_to_pred == [0]  # prediction 1 is left unmatched

    def test_ties_break_by_lower_gt_then_pred_index(self):
        gts = [pose([[0.0, 0, 0]]), pose([[0.0, 0, 0]])]
        preds = [pose([[1.0, 0, 0]]), pose([[1.0, 0, 0]])]
        match = match_poses(preds, gts)
        assert match.gt_to_pred == [0, 1]

    def test_matches_greedy_oracle_on_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n_gt = int(rng.integers(1, 4))
            n_pred = int(rng.integers(0, 4))
            gts = [random_pose(rng) for _ in range(n_gt)]
            preds = [random_pose(rng) for _ in range(n_pred)]
            match = match_poses(preds, gts)
            expect = greedy_match_oracle(preds, gts)
            got = {g: p for g, p in enumerate(match.gt_to_pred) if p is not None}
            assert got == expect


class TestPcp3d:
    def test_exact_prediction_is_all_correct(self):
        rng = np.random.default_rng(1)
        gt = random_pose(rng)
        report = one_frame([gt], [gt])
        assert report.pcp_per_actor == {0: 1.0}
        assert report.pcp_average == 1.0
        assert report.defects == []

    def test_boundary_displacement_counts_correct(self):
        # both endpoints off by exactly alpha * |limb|: <= holds with equality
        gt = pose([[0.0, 0, 0], [1000.0, 0, 0]])
        pred = pose([[0.0, 500.0, 0], [1000.0, 500.0, 0]])
        assert one_frame([pred], [gt], skeleton=[(0, 1)]).pcp_per_actor == {0: 1.0}
        # one epsilon past the boundary flips to incorrect
        pred_out = pose([[0.0, 500.0000001, 0], [1000.0, 500.0000001, 0]])
        assert one_frame([pred_out], [gt], skeleton=[(0, 1)]).pcp_per_actor == {0: 0.0}

    def test_unmatched_gt_counts_limbs_incorrect(self):
        rng = np.random.default_rng(2)
        gts = [random_pose(rng), random_pose(rng)]
        report = one_frame([gts[0]], gts)
        assert report.pcp_per_actor[0] == 1.0
        assert report.pcp_per_actor[1] == 0.0
        assert report.pcp_average == 0.5

    def test_zero_length_limb_skipped_and_reported(self):
        joints = np.array([[0.0, 0, 0], [0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0]])
        gt = pose(joints)
        report = one_frame([gt], [gt])
        assert report.pcp_per_actor == {0: 1.0}  # 2 usable limbs, both correct
        assert len(report.defects) == 1
        assert report.defects[0] == {"actor": 0, "limb": 0}

    def test_matches_scalar_oracle_on_random_frames(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gts = [random_pose(rng) for _ in range(2)]
            preds = [pose(g.joints + rng.normal(size=(4, 3)) * 300) for g in gts]
            rng.shuffle(preds)
            report = one_frame(preds, gts)
            match = match_poses(preds, gts)
            assign = {g: p for g, p in enumerate(match.gt_to_pred) if p is not None}
            expect = pcp_oracle(preds, gts, assign, 0.5, SKELETON3)
            assert report.pcp_per_actor == expect

    def test_pcp_monotone_in_noise(self):
        rng = np.random.default_rng(4)
        gt = random_pose(rng, n_joints=4, scale=500)
        values = []
        for noise in (10.0, 2000.0):
            pred = pose(gt.joints + rng.normal(size=(4, 3)) * noise)
            values.append(one_frame([pred], [gt]).pcp_average)
        assert values[0] >= values[1]


class TestMpjpe:
    def test_exact_prediction_is_zero(self):
        rng = np.random.default_rng(5)
        gt = random_pose(rng)
        assert one_frame([gt], [gt]).mpjpe == 0.0

    def test_constant_offset_345(self):
        rng = np.random.default_rng(6)
        gt = random_pose(rng)
        pred = pose(gt.joints + np.array([3.0, 4.0, 0.0]))
        assert one_frame([pred], [gt]).mpjpe == pytest.approx(5.0, abs=1e-12)

    def test_no_matches_is_none(self):
        rng = np.random.default_rng(7)
        assert one_frame([], [random_pose(rng)]).mpjpe is None

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        gts = [random_pose(rng) for _ in range(2)]
        preds = [pose(g.joints + rng.normal(size=(4, 3)) * 100) for g in gts]
        match = match_poses(preds, gts)
        per_gt = []
        for g, p in enumerate(match.gt_to_pred):
            errs = [float(np.linalg.norm(preds[p].joints[j] - gts[g].joints[j]))
                    for j in range(4)]
            per_gt.append(sum(errs) / len(errs))
        assert one_frame(preds, gts).mpjpe == pytest.approx(sum(per_gt) / len(per_gt), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        gt = random_pose(rng)
        pred = pose(gt.joints + rng.normal(size=(4, 3)) * 50)
        base = one_frame([pred], [gt]).mpjpe
        shift = np.array([123.0, -45.0, 67.0])
        moved = one_frame([pose(pred.joints + shift)], [pose(gt.joints + shift)]).mpjpe
        assert moved == pytest.approx(base, abs=1e-9)


def ap_at(pred_frames, gt_frames, k):
    """AP at one threshold `k`, pooled over the frames; AP needs no limbs."""
    return evaluate_frames(pred_frames, gt_frames, (), EvalConfig(ap_thresholds=(k,))).ap[k]


class TestApK:
    def test_all_exact_is_one(self):
        rng = np.random.default_rng(10)
        gts = [random_pose(rng) for _ in range(2)]
        assert ap_at([gts], [gts], 25.0) == 1.0

    def test_spurious_pred_halves_score(self):
        rng = np.random.default_rng(11)
        gt = random_pose(rng)
        preds = [gt, pose(gt.joints + 5000.0)]
        assert ap_at([preds], [[gt]], 25.0) == 0.5

    def test_threshold_is_strict(self):
        gt = pose([[0.0, 0, 0]])
        pred = pose([[25.0, 0, 0]])
        assert ap_at([[pred]], [[gt]], 25.0) == 0.0  # error == threshold does not count
        assert ap_at([[pred]], [[gt]], 25.0000001) == 1.0

    def test_no_predictions_is_zero(self):
        rng = np.random.default_rng(12)
        assert ap_at([[]], [[random_pose(rng)]], 25.0) == 0.0

    def test_pools_over_frames(self):
        rng = np.random.default_rng(13)
        gt1, gt2 = random_pose(rng), random_pose(rng)
        pred_frames = [
            [gt1],  # 1 correct of 1
            [gt2, pose(gt2.joints + 9000.0)],  # 1 of 2
        ]
        assert ap_at(pred_frames, [[gt1], [gt2]], 25.0) == pytest.approx(2.0 / 3.0)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(14)
        pred_frames, gt_frames = [], []
        expected_correct = 0
        expected_total = 0
        for _ in range(10):
            gts = [random_pose(rng) for _ in range(2)]
            preds = [pose(g.joints + rng.normal(size=(4, 3)) * rng.uniform(5, 60))
                     for g in gts]
            pred_frames.append(preds)
            gt_frames.append(gts)
            expected_total += len(preds)
            match = match_poses(preds, gts)
            for g, p in enumerate(match.gt_to_pred):
                if p is None:
                    continue
                err = float(np.mean(np.linalg.norm(preds[p].joints - gts[g].joints, axis=1)))
                if err < 50.0:
                    expected_correct += 1
        assert ap_at(pred_frames, gt_frames, 50.0) == expected_correct / expected_total

    def test_non_positive_threshold_rejected(self):
        with pytest.raises(ConfigError):
            EvalConfig(ap_thresholds=(0.0,))


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.alpha == 0.5
        assert cfg.ap_thresholds == (25.0, 50.0, 100.0, 150.0)

    def test_thresholds_must_ascend(self):
        with pytest.raises(ValueError):
            EvalConfig(ap_thresholds=(50.0, 25.0))
        with pytest.raises(ValueError):
            EvalConfig(ap_thresholds=(-1.0, 25.0))
        with pytest.raises(ValueError):
            EvalConfig(alpha=0.0)

    def test_negative_excluded_actor_rejected(self):
        with pytest.raises(ConfigError):
            EvalConfig(exclude_actors=(0, -1))


class TestEvaluateFrames:
    def make_frames(self, rng, n_frames=3, noise=20.0):
        gt_frames, pred_frames = [], []
        for _ in range(n_frames):
            gts = [random_pose(rng) for _ in range(2)]
            preds = [pose(g.joints + rng.normal(size=(4, 3)) * noise) for g in gts]
            gt_frames.append(gts)
            pred_frames.append(preds)
        return pred_frames, gt_frames

    def test_report_structure_and_ranges(self):
        rng = np.random.default_rng(15)
        pred_frames, gt_frames = self.make_frames(rng)
        report = evaluate_frames(pred_frames, gt_frames, SKELETON3)
        assert report.n_frames == 3
        assert report.n_gt_poses == 6 and report.n_pred_poses == 6
        assert set(report.ap) == {25.0, 50.0, 100.0, 150.0}
        assert all(0.0 <= v <= 1.0 for v in report.ap.values())
        assert report.mpjpe > 0.0
        assert 0.0 <= report.pcp_average <= 1.0
        # AP must be monotone in the threshold
        aps = [report.ap[k] for k in sorted(report.ap)]
        assert all(b >= a for a, b in zip(aps, aps[1:]))

    def test_perfect_predictions(self):
        rng = np.random.default_rng(16)
        gt_frames = [[random_pose(rng) for _ in range(2)]]
        report = evaluate_frames(gt_frames, gt_frames, SKELETON3)
        assert report.mpjpe == 0.0
        assert report.pcp_average == 1.0
        assert all(v == 1.0 for v in report.ap.values())

    def test_empty_predictions(self):
        rng = np.random.default_rng(17)
        gt_frames = [[random_pose(rng)]]
        report = evaluate_frames([[]], gt_frames, SKELETON3)
        assert report.mpjpe is None
        assert all(v == 0.0 for v in report.ap.values())
        assert report.pcp_average == 0.0

    def test_excluded_actor_dropped_from_pools_but_still_matchable(self):
        rng = np.random.default_rng(18)
        gts = [random_pose(rng), random_pose(rng)]
        preds = [pose(g.joints + 1.0) for g in gts]
        cfg = EvalConfig(exclude_actors=(1,))
        report = evaluate_frames([preds], [gts], SKELETON3, cfg)
        # actor 1 exists but contributes nothing to the aggregates
        assert set(report.pcp_per_actor) == {0}
        # its matched prediction is also removed from the AP denominator
        assert all(v == 1.0 for v in report.ap.values())
        assert report.n_pred_poses == 2

    def test_mpjpe_averages_over_frames_with_matches(self):
        rng = np.random.default_rng(19)
        gt1, gt2 = random_pose(rng), random_pose(rng)
        pred1 = pose(gt1.joints + np.array([3.0, 4.0, 0.0]))
        report = evaluate_frames([[pred1], []], [[gt1], [gt2]], SKELETON3)
        # frame 2 has no matches and must not dilute the average
        assert report.mpjpe == pytest.approx(5.0, abs=1e-12)

    def test_json_and_csv_writers(self, tmp_path):
        rng = np.random.default_rng(20)
        pred_frames, gt_frames = self.make_frames(rng, n_frames=2)
        report = evaluate_frames(pred_frames, gt_frames, SKELETON3)
        jpath = tmp_path / "metrics.json"
        cpath = tmp_path / "metrics.csv"
        report.write_json(jpath)
        report.write_csv(cpath)
        doc = json.loads(jpath.read_text())
        assert doc["mpjpe_mm"] == pytest.approx(report.mpjpe)
        assert doc["n_frames"] == 2
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("mpjpe_mm,") for line in lines)

    def test_matches_brute_force_over_frames_with_exclusions(self):
        """Multi-frame reports against an oracle built from the greedy
        matching oracle and scalar per-limb, per-pose and per-threshold
        counts, with some actors excluded."""
        rng = np.random.default_rng(21)
        for trial in range(20):
            cfg = EvalConfig(exclude_actors=((), (1,), (0, 2))[trial % 3])
            pred_frames, gt_frames = [], []
            for _ in range(int(rng.integers(1, 5))):
                gts = [random_pose(rng) for _ in range(rng.integers(1, 4))]
                preds = [pose(g.joints + rng.normal(size=(4, 3)) * rng.uniform(5, 400)) for g in gts]
                preds = preds[:rng.integers(0, len(preds) + 1)]  # some ground truths unmatched
                preds += [random_pose(rng) for _ in range(rng.integers(0, 2))]  # false positives
                rng.shuffle(preds)
                pred_frames.append(preds)
                gt_frames.append(gts)
            report = evaluate_frames(pred_frames, gt_frames, SKELETON3, cfg)

            limbs = {}  # actor -> [correct, usable]
            frame_mpjpe, hits = [], dict.fromkeys(cfg.ap_thresholds, 0)
            n_preds = 0
            for preds, gts in zip(pred_frames, gt_frames):
                assign = greedy_match_oracle(preds, gts)
                n_preds += len(preds) - sum(1 for g in assign if g in cfg.exclude_actors)
                errs = []
                for g, gt in enumerate(gts):
                    if g in cfg.exclude_actors:
                        continue
                    counts = limbs.setdefault(g, [0, 0])
                    for a, b in SKELETON3:
                        counts[1] += 1
                        if g in assign:
                            da = np.linalg.norm(preds[assign[g]].joints[a] - gt.joints[a])
                            db = np.linalg.norm(preds[assign[g]].joints[b] - gt.joints[b])
                            counts[0] += 0.5 * (da + db) <= cfg.alpha * np.linalg.norm(gt.joints[a] - gt.joints[b])
                    if g in assign:
                        joint_errs = [np.linalg.norm(preds[assign[g]].joints[j] - gt.joints[j])
                                      for j in range(4)]
                        errs.append(sum(joint_errs) / 4)
                if errs:
                    frame_mpjpe.append(sum(errs) / len(errs))
                for k in hits:
                    hits[k] += sum(1 for e in errs if e < k)

            per_actor = {g: c / t for g, (c, t) in limbs.items()}
            assert report.pcp_per_actor == per_actor
            if per_actor:
                assert report.pcp_average == pytest.approx(sum(per_actor.values()) / len(per_actor),
                                                           rel=1e-12)
            else:
                assert report.pcp_average is None
            if frame_mpjpe:
                assert report.mpjpe == pytest.approx(sum(frame_mpjpe) / len(frame_mpjpe), rel=1e-12)
            else:
                assert report.mpjpe is None
            assert report.ap == {k: (h / n_preds if n_preds else 0.0) for k, h in hits.items()}
            assert report.n_frames == len(gt_frames)
            assert report.n_gt_poses == sum(len(g) for g in gt_frames)
            assert report.n_pred_poses == sum(len(p) for p in pred_frames)

    def test_repeated_threshold_counts_once(self):
        rng = np.random.default_rng(22)
        gt_frames = [[random_pose(rng) for _ in range(2)]]
        report = evaluate_frames(gt_frames, gt_frames, SKELETON3, EvalConfig(ap_thresholds=(25.0, 25.0)))
        assert report.ap == {25.0: 1.0}

    def test_frame_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_frames([[]], [[], []], SKELETON3)
