"""Pose evaluation: greedy matching, limb PCP, MPJPE, and AP at mm thresholds.

Conventions:

- Matching is one-to-one and greedy by ascending mean joint error (ties
  broken toward lower indices), so a single prediction cannot absorb
  several ground truths.
- A limb is counted correct when the mean endpoint error is at most
  alpha times the ground-truth limb length (boundary inclusive).
- AP_K is the fraction of predictions that matched some ground truth
  with per-pose MPJPE strictly below K mm; unmatched predictions are
  false positives and stay in the denominator.
- Zero-length ground-truth limbs are data defects: skipped and reported,
  never silently counted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .posehead import Pose3D
from .tensorio import write_json_file


@dataclass(frozen=True)
class EvalConfig:
    """alpha: PCP limb threshold; ap_thresholds: mm cutoffs, ascending."""

    alpha: float = 0.5
    ap_thresholds: tuple = (25.0, 50.0, 100.0, 150.0)
    exclude_actors: tuple = ()

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        ks = tuple(float(k) for k in self.ap_thresholds)
        if not all(0 < k < math.inf for k in ks) or list(ks) != sorted(ks):
            raise ConfigError(f"ap_thresholds must be positive, finite and ascending, got {self.ap_thresholds}")
        object.__setattr__(self, "ap_thresholds", ks)
        actors = tuple(int(a) for a in self.exclude_actors)
        if any(a < 0 for a in actors):
            raise ConfigError(f"excluded actor indices must be non-negative, got {self.exclude_actors}")
        object.__setattr__(self, "exclude_actors", actors)


def pose_error(pred: Pose3D, gt: Pose3D):
    """Mean Euclidean joint distance between two poses, in mm."""
    if pred.joints.shape != gt.joints.shape:
        raise ValueError(f"joint counts disagree: {pred.joints.shape} vs {gt.joints.shape}")
    return float(np.mean(np.linalg.norm(pred.joints - gt.joints, axis=1)))


@dataclass
class MatchResult:
    """Assignment of one frame's predictions to its ground truths.

    gt_to_pred[i] is the matched prediction index for ground truth i, or
    None; errors[i] is that pair's mean joint error.
    """

    preds: list
    gts: list
    gt_to_pred: list
    errors: list


def match_poses(preds, gts):
    """Greedily pair ground truths with their most similar predictions.

    All (gt, pred) pairs are ranked by ascending mean joint error (ties
    by lower gt index, then lower pred index); pairs are accepted while
    both sides are still free.
    """
    n_gt, n_pred = len(gts), len(preds)
    pairs = []
    for g in range(n_gt):
        for p in range(n_pred):
            pairs.append((pose_error(preds[p], gts[g]), g, p))
    pairs.sort()
    gt_to_pred = [None] * n_gt
    errors = [None] * n_gt
    used_preds = set()
    for cost, g, p in pairs:
        if gt_to_pred[g] is None and p not in used_preds:
            gt_to_pred[g] = p
            errors[g] = cost
            used_preds.add(p)
    return MatchResult(preds=list(preds), gts=list(gts), gt_to_pred=gt_to_pred, errors=errors)


@dataclass
class PcpResult:
    per_actor: dict
    average: float | None
    defects: list = field(default_factory=list)


def pcp3d(match: MatchResult, alpha, skeleton):
    """Percentage (as a fraction in [0, 1]) of correct limbs per actor.

    Actors are ground-truth positions within the frame. The average is
    over actors that have at least one usable limb.
    """
    report = _tally([match], skeleton, alpha)
    return PcpResult(per_actor=report.pcp_per_actor, average=report.pcp_average, defects=report.defects)


def mpjpe(match: MatchResult):
    """Mean joint error over this frame's matched poses, or None when
    nothing matched (undefined, deliberately not 0)."""
    return _tally([match]).mpjpe


def ap_k(matches, k):
    """Fraction of predictions matched with per-pose error < k mm.

    Accepts one MatchResult or a list (pooled over frames). Unmatched
    predictions count against the score; 0 predictions yields 0.0.
    """
    if isinstance(matches, MatchResult):
        matches = [matches]
    if k <= 0:
        raise ValueError(f"threshold must be positive, got {k}")
    return _tally(matches, ap_thresholds=(k,)).ap[k]


# -- frame-set evaluation ----------------------------------------------------


@dataclass
class MetricsReport:
    pcp_per_actor: dict
    pcp_average: float | None
    mpjpe: float | None
    ap: dict
    n_frames: int
    n_gt_poses: int
    n_pred_poses: int
    defects: list = field(default_factory=list)

    def to_dict(self):
        return {
            "pcp_per_actor": {str(k): v for k, v in sorted(self.pcp_per_actor.items())},
            "pcp_average": self.pcp_average,
            "mpjpe_mm": self.mpjpe,
            "ap": {f"{k:g}mm": v for k, v in sorted(self.ap.items())},
            "n_frames": self.n_frames,
            "n_gt_poses": self.n_gt_poses,
            "n_pred_poses": self.n_pred_poses,
            "limb_defects": self.defects,
        }

    def write_json(self, path):
        write_json_file(path, self.to_dict())

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for actor in sorted(self.pcp_per_actor):
                writer.writerow([f"pcp_actor_{actor}", _fmt(self.pcp_per_actor[actor])])
            writer.writerow(["pcp_average", _fmt(self.pcp_average)])
            writer.writerow(["mpjpe_mm", _fmt(self.mpjpe)])
            for k in sorted(self.ap):
                writer.writerow([f"ap_{k:g}mm", _fmt(self.ap[k])])
            writer.writerow(["n_frames", self.n_frames])
            writer.writerow(["n_gt_poses", self.n_gt_poses])
            writer.writerow(["n_pred_poses", self.n_pred_poses])


def _fmt(v):
    return "" if v is None else repr(float(v))


def _tally(matches, skeleton=(), alpha=0.5, ap_thresholds=(), exclude=()):
    """PCP, MPJPE and AP over matched frames, pooled; the one place they
    are computed.

    PCP pools each actor's limb counts over the frames. Unmatched ground
    truths count every usable limb as incorrect. MPJPE is the mean over
    frames of each frame's mean matched error. AP_K divides the matches
    below K mm by the predictions. Excluded actors are dropped from all
    three, and so are the predictions matched to them.
    """
    limb_counts = {}
    defects = []
    frame_errs = []
    ap_total_preds = 0
    ap_correct = dict.fromkeys(ap_thresholds, 0)
    for match in matches:
        ap_total_preds += len(match.preds)
        kept_errs = []
        for actor, (gt, p, err) in enumerate(zip(match.gts, match.gt_to_pred, match.errors)):
            if actor in exclude:
                ap_total_preds -= p is not None
                continue
            if err is not None:
                kept_errs.append(err)
            counts = limb_counts.setdefault(actor, [0, 0])
            for limb_idx, (a, b) in enumerate(skeleton):
                length = float(np.linalg.norm(gt.joints[a] - gt.joints[b]))
                if length == 0.0:
                    defects.append({"actor": actor, "limb": limb_idx})
                    continue
                counts[1] += 1
                if p is None:
                    continue
                err_a = np.linalg.norm(match.preds[p].joints[a] - gt.joints[a])
                err_b = np.linalg.norm(match.preds[p].joints[b] - gt.joints[b])
                if (err_a + err_b) / 2.0 <= alpha * length:
                    counts[0] += 1
        if kept_errs:
            frame_errs.append(float(np.mean(kept_errs)))
        for k in ap_correct:  # a repeated threshold counts once
            ap_correct[k] += sum(1 for e in kept_errs if e < k)

    pcp_per_actor = {a: (c / t if t > 0 else None) for a, (c, t) in limb_counts.items()}
    valid = [v for v in pcp_per_actor.values() if v is not None]
    return MetricsReport(
        pcp_per_actor=pcp_per_actor,
        pcp_average=float(np.mean(valid)) if valid else None,
        mpjpe=float(np.mean(frame_errs)) if frame_errs else None,
        ap={k: (c / ap_total_preds if ap_total_preds else 0.0) for k, c in ap_correct.items()},
        n_frames=len(matches),
        n_gt_poses=sum(len(m.gts) for m in matches),
        n_pred_poses=sum(len(m.preds) for m in matches),
        defects=defects,
    )


def evaluate_frames(pred_frames, gt_frames, skeleton, config: EvalConfig = EvalConfig()):
    """Evaluate prediction lists against ground-truth lists frame by frame.

    Actor identity is the ground-truth position within its frame (frames
    must list actors consistently). Excluded actors stay in the matching
    pool, so their predictions are not mislabeled as false positives, but
    they are dropped from PCP, MPJPE, and the AP prediction pool.
    """
    if len(pred_frames) != len(gt_frames):
        raise ValueError(f"{len(pred_frames)} prediction frames vs {len(gt_frames)} ground-truth frames")
    matches = [match_poses(preds, gts) for preds, gts in zip(pred_frames, gt_frames)]
    return _tally(matches, skeleton, config.alpha, config.ap_thresholds, set(config.exclude_actors))
