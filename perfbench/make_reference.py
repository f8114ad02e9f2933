"""Regenerate reference.json, the expected outputs of every benchmark scene.

Run from the repository root, only when a change is meant to alter the
numbers (the benchmark fails on any drift beyond its tolerances):

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from gridpose import model, pipeline, synth  # noqa: E402

import workloads  # noqa: E402


def scene_outputs(workload, seed):
    scene = synth.synth_scene(workload.scene_config(seed))
    cfg = workload.run_config()
    if workload.kind == "infer":
        weights = model.init_model_from_config(cfg)
        return workloads.inference_record(pipeline.run_inference(scene, weights, cfg))
    trained = pipeline.train_toy(scene, cfg)
    return {
        "losses": trained.losses,
        "inference": workloads.inference_record(pipeline.run_inference(scene, trained.weights, cfg)),
    }


def main():
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            reference[name][str(seed)] = scene_outputs(workload, seed)
            print(name, seed, flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
