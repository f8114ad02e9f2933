"""Command line entry point.

Subcommands: synth, train-toy, infer, eval, bench, check. Exit codes:
0 success, 2 configuration error, 3 numeric failure (non-finite values or
a failed check), 4 I/O error (missing or malformed data files). Outputs
carry no timestamps or timings except the benchmark CSV, so fixed-seed
runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import bench_attention, write_bench_csv
from .checks import run_checks
from .config import (
    RunConfig,
    SceneConfig,
    load_json_config,
    run_config_from_json,
    run_config_to_json,
    scene_config_from_json,
)
from .errors import ConfigError, NumericError
from .metrics import EvalConfig, evaluate_frames
from .model import load_model, save_model
from .pipeline import run_inference, train_toy, write_loss_csv
from .posehead import poses_from_json, save_poses_json
from .synth import load_scene, save_scene, synth_scene
from .tensorio import load_json_file, write_json_file


def _cmd_synth(args):
    cfg = load_json_config(args.config, scene_config_from_json) if args.config else SceneConfig()
    if args.seed is not None:
        cfg.seed = int(args.seed)
    scene = synth_scene(cfg)
    save_scene(scene, args.out)
    print(f"scene with {len(scene.poses)} people, {len(scene.cameras)} cameras -> {args.out}")
    return 0


def _load_run_config(path):
    return load_json_config(path, run_config_from_json) if path else RunConfig()


def _cmd_train_toy(args):
    scene = load_scene(args.scene)
    cfg = _load_run_config(args.config)
    result = train_toy(scene, cfg)
    final_mpjpe = evaluate_frames([result.poses], [scene.poses], scene.skeleton).mpjpe
    os.makedirs(args.out, exist_ok=True)
    save_model(os.path.join(args.out, "weights"), result.weights)
    write_loss_csv(os.path.join(args.out, "loss.csv"), result.losses)
    save_poses_json(os.path.join(args.out, "train_poses.json"), result.poses, scene.skeleton)
    write_json_file(os.path.join(args.out, "run_config.json"), run_config_to_json(cfg))
    summary = {
        "steps": cfg.train_steps,
        "initial_loss": result.losses[0],
        "final_loss": result.losses[-1],
        "final_mpjpe_mm": final_mpjpe,
    }
    write_json_file(os.path.join(args.out, "train_report.json"), summary)
    print(
        f"loss {result.losses[0]:.6f} -> {result.losses[-1]:.6f} over {cfg.train_steps} steps, "
        f"training-sample mean joint error {final_mpjpe:.2f}mm"
    )
    return 0


def _cmd_infer(args):
    scene = load_scene(args.scene)
    cfg = _load_run_config(args.config)
    weights = load_model(args.weights, cfg)
    result = run_inference(scene, weights, cfg)
    report = evaluate_frames([result.poses], [scene.poses], scene.skeleton)
    os.makedirs(args.out, exist_ok=True)
    save_poses_json(os.path.join(args.out, "poses.json"), result.poses, scene.skeleton)
    report.write_json(os.path.join(args.out, "metrics.json"))
    report.write_csv(os.path.join(args.out, "metrics.csv"))
    mp = report.mpjpe
    print(
        f"{len(result.poses)} poses; mean joint error "
        + (f"{mp:.2f}mm" if mp is not None else "undefined (no matches)")
    )
    return 0


def _cmd_eval(args):
    preds, _ = load_json_file(args.pred, poses_from_json)
    gts, skeleton = load_json_file(args.gt, poses_from_json)
    if skeleton is None:
        raise ConfigError("ground-truth pose file carries no skeleton; PCP needs limb pairs")
    pred_n, gt_n = {p.joints.shape[0] for p in preds}, {p.joints.shape[0] for p in gts}
    if preds and gts and len(pred_n | gt_n) > 1:
        raise OSError(f"joint counts disagree: {args.pred} has {sorted(pred_n)}, {args.gt} has {sorted(gt_n)}")
    eval_cfg = EvalConfig(alpha=args.alpha, ap_thresholds=args.thresholds, exclude_actors=args.exclude)
    report = evaluate_frames([preds], [gts], skeleton, eval_cfg)
    report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)
    mp = report.mpjpe
    print(
        f"pcp {report.pcp_average if report.pcp_average is not None else 'n/a'}; "
        f"mpjpe " + (f"{mp:.2f}mm" if mp is not None else "undefined")
    )
    return 0


def _cmd_bench(args):
    rows = bench_attention(
        args.lengths, bin_size=args.bin_size, embed_dim=args.embed_dim,
        n_heads=args.heads, seed=args.seed,
    )
    write_bench_csv(args.out, rows)
    for r in rows:
        ratio = r.dense_elements / r.sparse_elements
        print(
            f"L={r.length}: sparse {r.sparse_elements} vs dense {r.dense_elements} "
            f"score elements ({ratio:.1f}x fewer)"
        )
    return 0


def _cmd_check(args):
    report = run_checks(seed=args.seed)
    for item in report.checks:
        status = "pass" if item.passed else "FAIL"
        print(f"{status}  {item.name}  ({item.value:.3e})")
    if args.out:
        write_json_file(args.out, report.to_dict())
    if not report.all_passed:
        raise NumericError("one or more checks failed")
    return 0


def _comma_list(convert):
    """argparse type: "a,b,c" -> tuple of `convert` values ("" -> ()); a rejected value exits 2."""
    def parse(text):
        return tuple(convert(v) for v in text.split(",")) if text else ()
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


def non_negative_int(text):
    """argparse type for seeds: numpy rejects a negative one; a rejected value exits 2."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridpose",
        description="Multi-view voxel pose estimation with sparse Sinkhorn attention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene directory")
    p.add_argument("--config", help="scene config JSON (defaults apply when omitted)")
    p.add_argument("--seed", type=non_negative_int, help="override the config seed")
    p.add_argument("--out", required=True, help="output scene directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-toy", help="overfit the model on one synthetic scene")
    p.add_argument("--scene", required=True, help="scene directory from `synth`")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--out", required=True, help="output directory (weights/, loss.csv, reports)")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("infer", help="run inference on a scene and score it")
    p.add_argument("--scene", required=True)
    p.add_argument("--weights", required=True, help="weights directory from `train-toy`")
    p.add_argument("--config", help="run config JSON (must match the weights)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="score a pose file against ground truth")
    p.add_argument("--pred", required=True, help="predicted poses JSON")
    p.add_argument("--gt", required=True, help="ground-truth poses JSON (with skeleton)")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--thresholds", type=_comma_list(float), default="25,50,100,150", help="AP cutoffs in mm")
    p.add_argument("--exclude", type=_comma_list(int), default="",
                   help="comma-separated actor indices to exclude")
    p.add_argument("--out", required=True, help="metrics report JSON")
    p.add_argument("--csv", help="optional metrics report CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="sparse vs dense attention cost table")
    p.add_argument("--lengths", type=_comma_list(int), default="1024,4096,32768",
                   help="comma-separated L values")
    p.add_argument("--bin-size", type=int, default=128)
    p.add_argument("--embed-dim", type=int, default=256)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True, help="benchmark CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check", help="run the deterministic invariant suite")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
