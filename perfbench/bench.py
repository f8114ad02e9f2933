"""The benchmark proper: set-up, the closed loop, checks and metrics.

run.py imports this module only after pinning the BLAS thread count, and
times importing it (numpy and gridpose included) as part of set-up.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time

import numpy as np

from gridpose import model, pipeline, synth

import workloads
from spans import Tracer

SETUP_REPS = 5
# Share of --seconds the traced run spends on untraced calls, for the overhead.
UNTRACED_SHARE = 1.0 / 3.0

END_TO_END_UNITS = {"scene_s": "s", "train_step_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics are per timed operation (one run_inference call, or one
# train_toy call of workloads.TRAIN_STEPS steps), except the set-up ones,
# which are per set-up repetition. A ".s" metric is a span's self time.
SELF_TIME_SPANS = (
    "pipeline.run_inference", "pipeline.train_toy",
    "geometry.aggregate_feature_volume", "pipeline.propose_centers",
    "pipeline.coarse_center_proposal",
    "attention.embed_volume", "attention.attention_sublayer", "attention.sinkhorn_normalize",
    "attention.reorder_bins", "attention.windowed_attention", "attention.feed_forward",
    "attention.layer_norm", "attention.encoder_layer_forward",
    "conv.conv3d", "conv.residual_forward",
    "posehead.fuse_and_head", "posehead.regress_pose",
    "model.model_forward", "metrics.evaluate_frames",
)
COUNTS = (
    "geometry.aggregate_feature_volume.calls", "geometry.voxel_views", "pipeline.proposals",
    "attention.score_elements", "attention.macs", "conv.conv3d.calls", "conv.conv3d.macs",
)
BACKWARD = ("conv.conv3d.backward_s", "autodiff.backward_s", "autodiff.backward_other_s",
            "autodiff.adam_step_s")
SETUP_SPANS = ("synth.synth_scene", "tensorio.load_tensor_set")
SETUP_COUNTS = ("tensorio.bytes_read",)


def per_layer_units():
    units = {f"{name}.s": "s" for name in SELF_TIME_SPANS}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "s" for name in BACKWARD})
    units.update({f"{name}.s": "s" for name in SETUP_SPANS})
    units.update({name: "count" for name in SETUP_COUNTS})
    units["trace.overhead_s"] = "s"
    return units


def environment(settings):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        **settings,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "memory_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def summarise(name, values, unit):
    """Print median, quartiles and sample count; return the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    print(f"{name:30s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    return median


def closed_loop(fn, seconds):
    """Call fn back to back until `seconds` have passed (at least once);
    returns the values it returned that are not None."""
    samples = []
    start = time.perf_counter()
    while True:
        value = fn()
        if value is not None:
            samples.append(value)
        if time.perf_counter() - start >= seconds:
            return samples


class Bench:
    """One workload on one seed: inputs, references, tracer and failure tally."""

    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer()
        reference = workloads.load_reference()
        self.reference = workloads.scene_reference(reference, workload, seed)
        self.toy = workloads.WORKLOADS["train_toy"]
        self.toy_reference = workloads.scene_reference(reference, self.toy, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def set_up(self, rep):
        """Synthesize the scene and round-trip the seeded weights through disk."""
        scene = synth.synth_scene(self.w.scene_config(self.seed))
        cfg = self.w.run_config()
        weights = model.init_model_from_config(cfg)
        path = os.path.join(self.workdir, f"weights{rep}")
        model.save_model(path, weights)
        loaded = model.load_model(path, cfg)
        saved, back = weights.parameters(), loaded.parameters()
        same = all(np.array_equal(saved[k].data, back[k].data) for k in saved)
        self.record([] if same else ["weights changed in the save/load round trip"])
        return scene, cfg, loaded

    # Each operation returns (result or None, wall seconds, problems). A call
    # that raises, or whose output fails its check, is a failed operation.

    def _call(self, name, fn, *args):
        try:
            result, seconds = self.tracer.span(name, fn, *args)
        except Exception as exc:  # noqa: BLE001 -- counted and reported, not fatal
            return None, None, [f"{name}: {type(exc).__name__}: {exc}"]
        return result, seconds, []

    def infer(self, scene, weights, cfg, expected):
        result, seconds, problems = self._call(
            "pipeline.run_inference", pipeline.run_inference, scene, weights, cfg)
        if result is not None:
            problems = workloads.check_inference(result, scene, expected)
        return result, seconds, problems

    def train(self, scene, cfg, expected):
        result, seconds, problems = self._call("pipeline.train_toy", pipeline.train_toy, scene, cfg)
        if result is not None:
            problems = workloads.check_losses(result.losses, expected["losses"])
        return result, seconds, problems

    def primary(self, scene, weights, cfg):
        """The workload's operation: run_inference, or one train_toy call."""
        if self.w.kind == "infer":
            return self.infer(scene, weights, cfg, self.reference)
        return self.train(scene, cfg, self.reference)

    def checked(self, op, *args):
        """Run an operation and record it; returns (result, seconds) or (None, None)."""
        result, seconds, problems = op(*args)
        self.record(problems)
        return (None, None) if problems else (result, seconds)

    # -- the untraced run: end-to-end metrics ------------------------------------------

    def run_untraced(self, seconds, import_s):
        setup = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            scene, cfg, weights = self.set_up(rep)
            setup.append(time.perf_counter() - start)

        scene_samples, step_samples = [], []

        def keep(infer_s, call_s, steps):
            if infer_s is not None:
                scene_samples.append(infer_s)
            if call_s is not None:
                step_samples.append(call_s / steps)

        if self.w.kind == "infer":
            # Each run_inference call is followed by a toy train_toy call, so
            # train_step_s is measured over the same window as scene_s.
            toy_scene = synth.synth_scene(self.toy.scene_config(self.seed))
            toy_cfg = self.toy.run_config()

            def op():
                infer_s = self.checked(self.infer, scene, weights, cfg, self.reference)[1]
                call_s = self.checked(self.train, toy_scene, toy_cfg, self.toy_reference)[1]
                keep(infer_s, call_s, toy_cfg.train_steps)
        else:
            def op():
                trained, call_s = self.checked(self.train, scene, cfg, self.reference)
                infer_s = None if trained is None else self.checked(
                    self.infer, scene, trained.weights, cfg, self.reference["inference"])[1]
                keep(infer_s, call_s, cfg.train_steps)

        op()  # warm-up, discarded
        # High-water memory of set-up plus one operation, read before the loop
        # so that it does not depend on how many calls fit in the run.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scene_samples.clear()
        step_samples.clear()
        closed_loop(op, seconds)

        if not (scene_samples and step_samples):
            return {}
        print(f"{'imports (median)':30s} {import_s:.6g} s")
        print(f"{'peak_rss_mb':30s} {peak_mb:.6g} MB")
        metrics = {
            "scene_s": summarise("scene_s", scene_samples, "s"),
            "train_step_s": summarise("train_step_s", step_samples, "s"),
            "peak_rss_mb": peak_mb,
            "setup_s": import_s + summarise("setup_s without imports", setup, "s"),
        }
        return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}

    # -- the traced run: per-layer metrics ---------------------------------------------

    def run_traced(self, seconds):
        tracer = self.tracer
        setup = []
        tracer.install()
        try:
            for rep in range(SETUP_REPS):
                tracer.begin()
                scene, cfg, weights = tracer.span("setup", self.set_up, rep)[0]
                setup.append({
                    **{f"{name}.s": tracer.self_s[name] for name in SETUP_SPANS},
                    **{name: tracer.counts[name] for name in SETUP_COUNTS},
                })
        finally:
            tracer.uninstall()

        steps = 1 if self.w.kind == "infer" else cfg.train_steps

        def untraced_op():
            return self.checked(self.primary, scene, weights, cfg)[1]

        untraced_op()  # warm-up, discarded
        untraced = closed_loop(untraced_op, seconds * UNTRACED_SHARE)

        ops = []

        def traced_op():
            tracer.begin()
            _, op_s, problems = self.primary(scene, weights, cfg)
            if op_s is not None:
                row, trace_problems = self.layer_row(op_s)
                problems = problems + trace_problems
                ops.append(row)
            self.record(problems)
            return None if problems else op_s

        tracer.install()
        try:
            traced = closed_loop(traced_op, seconds * (1.0 - UNTRACED_SHARE))
        finally:
            tracer.uninstall()
        if not (ops and untraced and traced):
            return {}

        units = per_layer_units()
        metrics = {}
        for name in units:
            if name == "trace.overhead_s":
                metrics[name] = (statistics.median(traced) - statistics.median(untraced)) / steps
            else:
                rows = setup if name in setup[0] else ops
                median = statistics.median_low if units[name] == "count" else statistics.median
                metrics[name] = median([row[name] for row in rows])

        primary = "scene_s" if self.w.kind == "infer" else "train_step_s"
        untraced_op_s = summarise(f"untraced op ({primary} x {steps})", untraced, "s")
        traced_op_s = summarise(f"traced op ({primary} x {steps})", traced, "s")
        layer_sum = sum(metrics[f"{name}.s"] for name in SELF_TIME_SPANS)
        layer_sum += sum(metrics[name] for name in BACKWARD if name != "autodiff.backward_s")
        print(f"{'sum of layer self times':30s} {layer_sum:.6g} s per op "
              f"({layer_sum / untraced_op_s:.3f} of the untraced op, "
              f"{layer_sum / traced_op_s:.3f} of the traced op)")
        for name, value in metrics.items():
            print(f"  {name:44s} {value:.6g} {units[name]}")
        return {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}

    def layer_row(self, op_s):
        """Per-layer figures of the operation just traced, and its trace checks."""
        tr = self.tracer
        row = {f"{name}.s": tr.self_s[name] for name in SELF_TIME_SPANS}
        row.update({name: tr.counts[name] for name in COUNTS})
        row["attention.score_elements"] = tr.scores.total
        row["conv.conv3d.backward_s"] = tr.self_s["conv.conv3d.backward"]
        row["autodiff.backward_s"] = tr.total_s["autodiff.backward"]
        row["autodiff.backward_other_s"] = tr.self_s["autodiff.backward"]
        row["autodiff.adam_step_s"] = tr.self_s["autodiff.adam_step"]

        problems = []
        closed_form = tr.counts["attention.score_elements_closed_form"]
        if tr.scores.total != closed_form:
            problems.append(f"score elements {tr.scores.total} != closed form {closed_form}")
        span_sum = sum(tr.self_s.values())
        if abs(span_sum - op_s) > 1e-6 * op_s:
            problems.append(f"self times add up to {span_sum:.6f} s, the operation took {op_s:.6f} s")
        return row, problems


def run(workload_name, seed, seconds, trace, workdir, import_s, settings):
    """Run one workload; print the report and, last, the result line."""
    workload = workloads.WORKLOADS[workload_name]
    print(json.dumps({
        "workload": workload.name, "seed": seed,
        "scene_seed": seed % workloads.REFERENCE_SEEDS, "seconds": seconds, "trace": trace,
        "environment": environment(settings),
    }))
    bench = Bench(workload, seed, workdir)
    metrics = bench.run_traced(seconds) if trace else bench.run_untraced(seconds, import_s)
    for problem in bench.problems[:20]:
        print(f"FAILED: {problem}")
    print(f"{'error_rate':30s} {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed} failed / {bench.attempted} attempted)")
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }))
