"""Command line interface, exercised in-process through cli.main(argv)."""

import json
import re
import warnings

import numpy as np
import pytest

import gridpose.pipeline as pipeline_mod
from gridpose import (
    Pose3D,
    RunConfig,
    init_model_from_config,
    run_config_to_json,
    save_model,
    save_poses_json,
    save_scene,
    scene_config_to_json,
    load_scene,
    load_tensor_set,
    save_tensor_set,
)
from gridpose.cli import main
from conftest import toy_run_config, toy_scene_config

TRAIN_STEPS = 5


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> train-toy -> infer chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    scene_cfg = root / "scene_config.json"
    run_cfg = root / "run_config.json"
    scene_cfg.write_text(json.dumps(scene_config_to_json(toy_scene_config())))
    run_cfg.write_text(json.dumps(run_config_to_json(toy_run_config(steps=TRAIN_STEPS))))

    assert main(["synth", "--config", str(scene_cfg), "--out", str(root / "scene")]) == 0
    assert main(["train-toy", "--scene", str(root / "scene"), "--config", str(run_cfg),
                 "--out", str(root / "train")]) == 0
    assert main(["infer", "--scene", str(root / "scene"),
                 "--weights", str(root / "train" / "weights"),
                 "--config", str(run_cfg), "--out", str(root / "infer")]) == 0
    return root


class TestSynth:
    def test_writes_scene_directory(self, workdir):
        scene_dir = workdir / "scene"
        for name in ("scene_config.json", "cameras.json", "ground_truth.json"):
            assert (scene_dir / name).is_file()
        assert (scene_dir / "heatmaps" / "manifest.json").is_file()
        scene = load_scene(scene_dir)
        assert len(scene.poses) == 1 and len(scene.cameras) == 3

    def test_seed_flag_overrides_config(self, workdir, tmp_path):
        assert main(["synth", "--config", str(workdir / "scene_config.json"),
                     "--seed", "99", "--out", str(tmp_path / "scene99")]) == 0
        cfg = json.loads((tmp_path / "scene99" / "scene_config.json").read_text())
        assert cfg["seed"] == 99
        a = (workdir / "scene" / "heatmaps" / "view00.bin").read_bytes()
        b = (tmp_path / "scene99" / "heatmaps" / "view00.bin").read_bytes()
        assert a != b

    def test_repeat_run_is_byte_identical(self, workdir, tmp_path):
        assert main(["synth", "--config", str(workdir / "scene_config.json"),
                     "--out", str(tmp_path / "again")]) == 0
        for rel in ("heatmaps/view00.bin", "ground_truth.json", "cameras.json"):
            assert (tmp_path / "again" / rel).read_bytes() == \
                (workdir / "scene" / rel).read_bytes()

    def test_default_config_when_omitted(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "default_scene")]) == 0
        cfg = json.loads((tmp_path / "default_scene" / "scene_config.json").read_text())
        assert cfg["n_people"] == 2

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"seed\": }")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        doc = scene_config_to_json(toy_scene_config())
        doc["n_persons"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


class TestTrainToy:
    def test_outputs(self, workdir):
        train = workdir / "train"
        assert (train / "weights" / "manifest.json").is_file()
        report = json.loads((train / "train_report.json").read_text())
        assert report["steps"] == TRAIN_STEPS
        assert report["final_mpjpe_mm"] > 0.0
        lines = (train / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == TRAIN_STEPS + 2  # header + steps + 1 evaluations

    def test_repeat_run_is_byte_identical(self, workdir, tmp_path):
        assert main(["train-toy", "--scene", str(workdir / "scene"),
                     "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "train2")]) == 0
        assert (tmp_path / "train2" / "loss.csv").read_bytes() == \
            (workdir / "train" / "loss.csv").read_bytes()
        assert (tmp_path / "train2" / "weights" / "head.w.bin").read_bytes() == \
            (workdir / "train" / "weights" / "head.w.bin").read_bytes()

    def test_missing_scene_exits_4(self, workdir, tmp_path):
        assert main(["train-toy", "--scene", str(tmp_path / "absent"),
                     "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "x")]) == 4

    def test_hard_reorder_config_exits_2(self, workdir, tmp_path):
        doc = run_config_to_json(toy_run_config(steps=1))
        doc["reorder_mode"] = "hard"
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train-toy", "--scene", str(workdir / "scene"),
                     "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_nan_loss_exits_3(self, workdir, tmp_path, monkeypatch):
        real_init = pipeline_mod.init_model_from_config

        def poisoned(cfg):
            weights = real_init(cfg)
            weights.parameters()["head.w"].data[...] = np.nan
            return weights

        monkeypatch.setattr(pipeline_mod, "init_model_from_config", poisoned)
        assert main(["train-toy", "--scene", str(workdir / "scene"),
                     "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "x")]) == 3


    def test_joint_count_mismatch_exits_2(self, workdir, tmp_path, capsys):
        assert main(_train_bad_config(workdir, tmp_path, n_joints=10)) == 2
        err = capsys.readouterr().err
        assert "n_joints = 10" in err and "have 15" in err

    def test_diverging_sgd_exits_3(self, workdir, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(_train_bad_config(workdir, tmp_path, optimizer="sgd", lr=1e300)) == 3
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numeric failure: sgd training")
        assert re.search(r"failed at step [0-9]+: ", lines[0])


class TestInfer:
    def test_outputs(self, workdir):
        infer = workdir / "infer"
        poses = json.loads((infer / "poses.json").read_text())
        assert len(poses["poses"]) == 1
        metrics = json.loads((infer / "metrics.json").read_text())
        assert metrics["n_frames"] == 1
        assert (infer / "metrics.csv").is_file()

    def test_missing_weights_exits_4(self, workdir, tmp_path):
        assert main(["infer", "--scene", str(workdir / "scene"),
                     "--weights", str(tmp_path / "absent"),
                     "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "x")]) == 4

    def test_mismatched_weights_exit_4(self, workdir, tmp_path):
        other = RunConfig(attention=toy_run_config(steps=0).attention,
                          n_joints=15, grid_extent=1600.0, grid_resolution=16,
                          residual_channels=(8, 8))
        save_model(tmp_path / "w", init_model_from_config(other))
        assert main(["infer", "--scene", str(workdir / "scene"),
                     "--weights", str(tmp_path / "w"),
                     "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "x")]) == 4

    def test_nan_weights_exit_3(self, workdir, tmp_path):
        weights = init_model_from_config(toy_run_config(steps=0))
        weights.parameters()["head.w"].data[...] = np.nan
        save_model(tmp_path / "w", weights)
        assert main(["infer", "--scene", str(workdir / "scene"),
                     "--weights", str(tmp_path / "w"),
                     "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "x")]) == 3

    def test_nan_encoder_weight_exits_3(self, workdir, tmp_path, capsys):
        weights = init_model_from_config(toy_run_config(steps=0))
        weights.parameters()["encoder.layer0.w_q"].data[0, 0] = np.nan
        save_model(tmp_path / "w", weights)
        assert main(["infer", "--scene", str(workdir / "scene"),
                     "--weights", str(tmp_path / "w"),
                     "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "x")]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_joint_count_mismatch_exits_2(self, workdir, tmp_path, capsys):
        config = _config_with(workdir, tmp_path, "run_config.json", n_joints=10)
        cfg = toy_run_config(steps=0)
        cfg.n_joints = 10
        save_model(tmp_path / "w", init_model_from_config(cfg))
        assert main(["infer", "--scene", str(workdir / "scene"), "--weights", str(tmp_path / "w"),
                     "--config", config, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "n_joints = 10" in err and "have 15" in err

    def test_hard_reorder_config_exits_0(self, workdir, tmp_path):
        doc = run_config_to_json(toy_run_config(steps=TRAIN_STEPS))
        doc["reorder_mode"] = "hard"
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps(doc))
        assert main(["infer", "--scene", str(workdir / "scene"),
                     "--weights", str(workdir / "train" / "weights"),
                     "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        assert len(json.loads((tmp_path / "x" / "poses.json").read_text())["poses"]) == 1

    @pytest.mark.parametrize("bad_value", [np.nan, 1.5])
    def test_corrupt_heatmap_dump_exits_4(self, workdir, tmp_path, bad_value):
        scene = load_scene(workdir / "scene")
        save_scene(scene, tmp_path / "scene")
        heatmaps = load_tensor_set(tmp_path / "scene" / "heatmaps")
        heatmaps["view01"][0, 5, 5] = bad_value
        save_tensor_set(tmp_path / "scene" / "heatmaps", heatmaps)
        assert main(["infer", "--scene", str(tmp_path / "scene"),
                     "--weights", str(workdir / "train" / "weights"),
                     "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "x")]) == 4


class TestInconsistentScene:
    """A scene directory whose files disagree on the joint count or on an
    image size, that has no cameras, or whose ground truth has no skeleton
    is an I/O error that names the directory."""

    @staticmethod
    def copy_scene(workdir, tmp_path, view01_joints=15, gt_joints=15):
        scene = load_scene(workdir / "scene")
        save_scene(scene, tmp_path / "scene")
        heatmaps = load_tensor_set(tmp_path / "scene" / "heatmaps")
        heatmaps["view01"] = heatmaps["view01"][:view01_joints]
        save_tensor_set(tmp_path / "scene" / "heatmaps", heatmaps)
        skeleton = [(a, b) for a, b in scene.skeleton if max(a, b) < gt_joints]
        save_poses_json(tmp_path / "scene" / "ground_truth.json",
                        [Pose3D(joints=p.joints[:gt_joints]) for p in scene.poses], skeleton)
        return str(tmp_path / "scene")

    def infer(self, workdir, tmp_path, scene):
        return main(["infer", "--scene", scene, "--weights", str(workdir / "train" / "weights"),
                     "--config", str(workdir / "run_config.json"), "--out", str(tmp_path / "x")])

    def test_heatmaps_disagree_exits_4(self, workdir, tmp_path, capsys):
        scene = self.copy_scene(workdir, tmp_path, view01_joints=14)
        assert self.infer(workdir, tmp_path, scene) == 4
        err = capsys.readouterr().err
        assert scene in err and "'view01'" in err and "has 14 joints" in err and "has 15" in err

    def test_ground_truth_disagrees_exits_4(self, workdir, tmp_path, capsys):
        scene = self.copy_scene(workdir, tmp_path, gt_joints=14)
        assert self.infer(workdir, tmp_path, scene) == 4
        err = capsys.readouterr().err
        assert scene in err and "[14] joints" in err and "have 15" in err
        assert main(["train-toy", "--scene", scene, "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "y")]) == 4

    def test_heatmap_size_disagrees_with_camera_exits_4(self, workdir, tmp_path, capsys):
        scene = self.copy_scene(workdir, tmp_path)
        cameras_path = tmp_path / "scene" / "cameras.json"
        cameras = json.loads(cameras_path.read_text())
        cameras["cameras"][0].update(width=128, height=100)  # its heatmap stays 128x128
        cameras_path.write_text(json.dumps(cameras))
        assert main(["train-toy", "--scene", scene, "--config", str(workdir / "run_config.json"),
                     "--out", str(tmp_path / "y")]) == 4
        err = capsys.readouterr().err
        assert scene in err and "'view00'" in err and "is 128x128" in err and "camera is 100x128" in err
        assert self.infer(workdir, tmp_path, scene) == 4

    def test_ground_truth_without_skeleton_exits_4(self, workdir, tmp_path, capsys):
        scene = self.copy_scene(workdir, tmp_path)
        save_poses_json(tmp_path / "scene" / "ground_truth.json", load_scene(workdir / "scene").poses, None)
        assert self.infer(workdir, tmp_path, scene) == 4
        assert "carry no skeleton" in capsys.readouterr().err

    def test_no_cameras_exits_4(self, workdir, tmp_path, capsys):
        scene = self.copy_scene(workdir, tmp_path)
        (tmp_path / "scene" / "cameras.json").write_text('{"cameras": []}')
        save_tensor_set(tmp_path / "scene" / "heatmaps", {})
        assert self.infer(workdir, tmp_path, scene) == 4
        assert "0 heatmap dumps for 0 cameras" in capsys.readouterr().err

    def test_consistent_copy_exits_0(self, workdir, tmp_path):
        assert self.infer(workdir, tmp_path, self.copy_scene(workdir, tmp_path)) == 0


class TestEval:
    def test_scores_predictions(self, workdir, tmp_path):
        out = tmp_path / "metrics.json"
        csv_out = tmp_path / "metrics.csv"
        assert main(["eval", "--pred", str(workdir / "infer" / "poses.json"),
                     "--gt", str(workdir / "scene" / "ground_truth.json"),
                     "--out", str(out), "--csv", str(csv_out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["ap"]) == {"25mm", "50mm", "100mm", "150mm"}
        assert doc["n_gt_poses"] == 1
        assert csv_out.is_file()

    def test_perfect_predictions_score_one(self, workdir, tmp_path):
        out = tmp_path / "perfect.json"
        gt = str(workdir / "scene" / "ground_truth.json")
        assert main(["eval", "--pred", gt, "--gt", gt, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mpjpe_mm"] == 0.0
        assert all(v == 1.0 for v in doc["ap"].values())

    def test_custom_thresholds_and_alpha(self, workdir, tmp_path):
        out = tmp_path / "custom.json"
        gt = str(workdir / "scene" / "ground_truth.json")
        assert main(["eval", "--pred", gt, "--gt", gt, "--alpha", "0.25",
                     "--thresholds", "10,20", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["ap"]) == {"10mm", "20mm"}

    def test_gt_without_skeleton_exits_2(self, workdir, tmp_path):
        scene = load_scene(workdir / "scene")
        bare = tmp_path / "bare_gt.json"
        save_poses_json(bare, scene.poses, None)
        assert main(["eval", "--pred", str(workdir / "infer" / "poses.json"),
                     "--gt", str(bare), "--out", str(tmp_path / "x.json")]) == 2

    def test_descending_thresholds_exit_2(self, workdir, tmp_path):
        gt = str(workdir / "scene" / "ground_truth.json")
        assert main(["eval", "--pred", gt, "--gt", gt,
                     "--thresholds", "50,25", "--out", str(tmp_path / "x.json")]) == 2

    def test_joint_count_mismatch_exits_4(self, workdir, tmp_path, capsys):
        gt = workdir / "scene" / "ground_truth.json"
        pred = tmp_path / "pred10.json"
        save_poses_json(pred, [Pose3D(joints=p.joints[:10]) for p in load_scene(workdir / "scene").poses])
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "x.json")]) == 4
        err = capsys.readouterr().err
        assert f"{pred} has [10]" in err and f"{gt} has [15]" in err

    def test_missing_pred_file_exits_4(self, workdir, tmp_path):
        assert main(["eval", "--pred", str(tmp_path / "absent.json"),
                     "--gt", str(workdir / "scene" / "ground_truth.json"),
                     "--out", str(tmp_path / "x.json")]) == 4


class TestBench:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--lengths", "256,512", "--bin-size", "64",
                     "--embed-dim", "16", "--heads", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("256,4,")

    def test_indivisible_length_exits_2(self, tmp_path):
        assert main(["bench", "--lengths", "100", "--bin-size", "64",
                     "--embed-dim", "16", "--out", str(tmp_path / "x.csv")]) == 2


class TestCheck:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "checks.json"
        assert main(["check", "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert len(doc["checks"]) >= 5

    def test_repeat_run_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", "--seed", "0", "--out", str(a)]) == 0
        assert main(["check", "--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _eval_pred(workdir, tmp_path, text):
    pred = tmp_path / "pred.json"
    pred.write_text(text)
    return ["eval", "--pred", str(pred), "--gt", str(workdir / "scene" / "ground_truth.json"),
            "--out", str(tmp_path / "x.json")]


def _eval_flag(workdir, tmp_path, flag, value):
    gt = str(workdir / "scene" / "ground_truth.json")
    return ["eval", "--pred", gt, "--gt", gt, flag, value, "--out", str(tmp_path / "x.json")]


def _corrupt_scene(workdir, tmp_path, name, text):
    """Path of a copy of the shared scene whose file `name` holds `text`."""
    save_scene(load_scene(workdir / "scene"), tmp_path / "scene")
    (tmp_path / "scene" / name).write_text(text)
    return str(tmp_path / "scene")


def _infer_corrupt_scene(workdir, tmp_path, name, text):
    return ["infer", "--scene", _corrupt_scene(workdir, tmp_path, name, text),
            "--weights", str(workdir / "train" / "weights"),
            "--config", str(workdir / "run_config.json"), "--out", str(tmp_path / "x")]


def _train_corrupt_scene(workdir, tmp_path, name, text):
    return ["train-toy", "--scene", _corrupt_scene(workdir, tmp_path, name, text),
            "--config", str(workdir / "run_config.json"), "--out", str(tmp_path / "x")]


def _ground_truth_without_people(workdir):
    """Text of the shared scene's ground_truth.json with an empty pose list."""
    doc = json.loads((workdir / "scene" / "ground_truth.json").read_text())
    return json.dumps(dict(doc, poses=[]))


def _config_with(workdir, tmp_path, name, **overrides):
    """Path of a copy of the shared config `name` with `overrides`; json.dumps
    writes a non-finite float as NaN / Infinity, which json.load reads."""
    doc = json.loads((workdir / name).read_text())
    doc.update(overrides)
    config = tmp_path / name
    config.write_text(json.dumps(doc))
    return str(config)


def _infer_bad_config(workdir, tmp_path, **overrides):
    """infer with the shared run config plus coarse proposals and `overrides`."""
    config = _config_with(workdir, tmp_path, "run_config.json", center_source="coarse_proposal", **overrides)
    return ["infer", "--scene", str(workdir / "scene"), "--weights", str(workdir / "train" / "weights"),
            "--config", config, "--out", str(tmp_path / "x")]


def _attention(workdir, **changes):
    """The shared run config's attention object with `changes` applied."""
    return dict(json.loads((workdir / "run_config.json").read_text())["attention"], **changes)


def _camera_list(workdir, **changes):
    """The shared scene's camera entries, each with `changes` applied."""
    doc = json.loads((workdir / "scene" / "cameras.json").read_text())
    return [dict(entry, **changes) for entry in doc["cameras"]]


def _cameras_with(workdir, **changes):
    """Text of the shared scene's cameras.json with `changes` in every entry."""
    return json.dumps({"cameras": _camera_list(workdir, **changes)})


def _synth_bad_config(workdir, tmp_path, **overrides):
    config = _config_with(workdir, tmp_path, "scene_config.json", **overrides)
    return ["synth", "--config", config, "--out", str(tmp_path / "scene")]


def _train_bad_config(workdir, tmp_path, **overrides):
    config = _config_with(workdir, tmp_path, "run_config.json", **overrides)
    return ["train-toy", "--scene", str(workdir / "scene"), "--config", config, "--out", str(tmp_path / "x")]


class TestExitCodes:
    @pytest.mark.parametrize("make_argv, code", [
        pytest.param(lambda w, t: _eval_pred(w, t, "{not json"), 4, id="eval-pred-invalid-json"),
        pytest.param(lambda w, t: _eval_pred(w, t, '{"people": []}'), 4, id="eval-pred-no-poses"),
        pytest.param(lambda w, t: _eval_pred(w, t, '{"poses": [{"joints": [[0, 0], [1, 1]]}]}'),
                     4, id="eval-pred-2d-joints"),
        pytest.param(lambda w, t: _eval_flag(w, t, "--thresholds", "25,abc"), 2,
                     id="eval-bad-threshold"),
        pytest.param(lambda w, t: _eval_flag(w, t, "--exclude", "x"), 2, id="eval-bad-exclude"),
        pytest.param(lambda w, t: _eval_flag(w, t, "--exclude", "-1"), 2, id="eval-exclude-negative"),
        pytest.param(lambda w, t: _eval_flag(w, t, "--alpha", "nan"), 2, id="eval-alpha-nan"),
        pytest.param(lambda w, t: _eval_flag(w, t, "--alpha", "inf"), 2, id="eval-alpha-inf"),
        pytest.param(lambda w, t: _eval_flag(w, t, "--thresholds", "nan"), 2, id="eval-threshold-nan"),
        pytest.param(lambda w, t: _eval_flag(w, t, "--thresholds", "25,inf"), 2, id="eval-threshold-inf"),
        pytest.param(lambda w, t: ["bench", "--lengths", "100,abc", "--out", str(t / "x.csv")], 2,
                     id="bench-bad-length"),
        pytest.param(lambda w, t: ["bench", "--lengths", "0", "--out", str(t / "x.csv")], 2,
                     id="bench-zero-length"),
        pytest.param(lambda w, t: ["bench", "--lengths=-128", "--out", str(t / "x.csv")], 2,
                     id="bench-negative-length"),
        pytest.param(lambda w, t: ["synth", "--seed", "-1", "--out", str(t / "scene")], 2,
                     id="synth-seed-flag-negative"),
        pytest.param(lambda w, t: ["bench", "--seed", "-1", "--out", str(t / "x.csv")], 2,
                     id="bench-seed-negative"),
        pytest.param(lambda w, t: ["check", "--seed", "-1"], 2, id="check-seed-negative"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, seed=-1), 2, id="synth-seed-negative"),
        pytest.param(lambda w, t: _train_bad_config(w, t, seed=-3), 2, id="train-toy-seed-negative"),
        pytest.param(lambda w, t: _infer_corrupt_scene(w, t, "cameras.json", "{not json"), 4,
                     id="infer-cameras-invalid-json"),
        pytest.param(lambda w, t: _infer_corrupt_scene(w, t, "ground_truth.json", "{not json"), 4,
                     id="infer-ground-truth-invalid-json"),
        pytest.param(lambda w, t: _infer_corrupt_scene(w, t, "ground_truth.json", '{"poses": 3}'),
                     4, id="infer-ground-truth-poses-not-a-list"),
        pytest.param(lambda w, t: _train_corrupt_scene(w, t, "ground_truth.json", _ground_truth_without_people(w)),
                     2, id="train-toy-scene-without-people"),
        pytest.param(lambda w, t: _infer_corrupt_scene(w, t, "ground_truth.json", _ground_truth_without_people(w)),
                     0, id="infer-scene-without-people"),
        pytest.param(lambda w, t: _infer_corrupt_scene(w, t, "heatmaps/view00.json",
                                                       '{"name": "view00", "dtype": "f64", "shape": ["a"]}'),
                     4, id="infer-heatmap-sidecar-bad-shape"),
        pytest.param(lambda w, t: _infer_corrupt_scene(w, t, "cameras.json", _cameras_with(w, fx="100")), 4,
                     id="infer-camera-fx-string"),
        pytest.param(lambda w, t: _infer_corrupt_scene(w, t, "cameras.json", _cameras_with(w, width=64.7)), 4,
                     id="infer-camera-width-float"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, cameras=_camera_list(w, fx="100")), 2,
                     id="synth-camera-fx-string"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, cameras=_camera_list(w, width=64.7)), 2,
                     id="synth-camera-width-float"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, coarse_voxel_mm=float("nan")), 2,
                     id="infer-coarse-voxel-nan"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, coarse_voxel_mm=float("inf")), 2,
                     id="infer-coarse-voxel-inf"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, proposal_threshold=float("nan")), 2,
                     id="infer-threshold-nan"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, proposal_threshold=float("inf")), 2,
                     id="infer-threshold-inf"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, proposal_threshold=-0.1), 2,
                     id="infer-threshold-negative"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, lr=float("nan")), 2, id="infer-lr-nan"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, seed="a"), 2, id="synth-seed-string"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, seed=1.5), 2, id="synth-seed-float"),
        pytest.param(lambda w, t: _train_bad_config(w, t, seed=1.5), 2, id="train-toy-seed-float"),
        pytest.param(lambda w, t: _train_bad_config(w, t, train_steps=1.5), 2, id="train-toy-steps-float"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, n_cameras=2.5), 2, id="synth-n-cameras-float"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, camera_radius="far"), 2,
                     id="synth-camera-radius-string"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, attention=_attention(w, n_layers=1.5)), 2,
                     id="infer-n-layers-float"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, attention=_attention(w, embed_dim="x")), 2,
                     id="infer-embed-dim-string"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, camera_radius=float("nan")), 2,
                     id="synth-camera-radius-nan"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, focal_px=float("nan")), 2, id="synth-focal-nan"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, heatmap_sigma=float("nan")), 2,
                     id="synth-sigma-nan"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, person_extent=float("nan")), 2,
                     id="synth-person-extent-nan"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, space_center=[float("nan"), 0.0, 0.0]), 2,
                     id="synth-space-center-nan"),
        pytest.param(lambda w, t: _synth_bad_config(w, t, noise_std=float("nan")), 2, id="synth-noise-nan"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, attention=_attention(w, temperature=float("nan"))),
                     2, id="infer-temperature-nan"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, attention=_attention(w, n_heads=0)), 2,
                     id="infer-n-heads-zero"),
        pytest.param(lambda w, t: _infer_bad_config(w, t, attention=_attention(w, n_heads=-2)), 2,
                     id="infer-n-heads-negative"),
    ])
    def test_bad_input_exits_with_documented_code(self, workdir, tmp_path, make_argv, code):
        try:
            exit_code = main(make_argv(workdir, tmp_path))
        except SystemExit as exc:  # argparse reports argument errors this way
            exit_code = exc.code
        assert exit_code == code


class TestArgParsing:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])  # --out is required
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
