"""Outside-in tracing of gridpose's layers for the benchmark's traced run.

``Tracer.install`` replaces public functions with timing wrappers in every
loaded ``gridpose`` module that binds them, so a call is caught where its
caller looks the name up (``gridpose.pipeline.aggregate_feature_volume``,
``gridpose.model.residual_forward``, ...), not only in the defining module.
Nothing under ``src/`` changes and ``uninstall`` restores the originals.

Spans nest: a span's self time is its duration minus the durations of the
spans opened inside it, so the self times of all spans in one operation,
the benchmark's root span included, add up to the operation's wall time.
Counts (calls, multiply-adds, score elements, bytes) are exact and are
computed from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from gridpose.attention import ScoreCounter


def _prod(values):
    return int(np.prod([int(v) for v in values]))


# -- per-call counting hooks: hook(tracer, arguments, result) ------------------


def _aggregate(tr, a, result):
    tr.count("geometry.aggregate_feature_volume.calls", 1)
    tr.count("geometry.voxel_views", _prod(a["grid"].resolution) * len(a["cams"]))


def _propose(tr, a, result):
    tr.count("pipeline.proposals", len(result))


def _conv3d(tr, a, result):
    c_out, c_in, k = a["w"].shape[:3]
    tr.count("conv.conv3d.calls", 1)
    tr.count("conv.conv3d.macs", _prod(a["x"].shape[1:]) * c_out * c_in * k**3)
    if result._backward is not None:
        result._backward = tr.timed("conv.conv3d.backward", result._backward)


def _sublayer(tr, a, result):
    n_b, b, e = a["bins"].shape
    # q, k, v projections plus the N_b x N_b bin-mean correlation
    tr.count("attention.macs", 3 * n_b * b * e * e + n_b * n_b * e)


def _reorder(tr, a, result):
    if a["mode"] == "soft":
        n_b, b, e = a["bins"].shape
        tr.count("attention.macs", n_b * n_b * b * e)


def _window(tr, a, result):
    n_b, b, e = a["b_q"].shape
    window = a["b_k"].shape[1] + a["sorted_k"].shape[1]
    macs = 2 * n_b * b * window * e  # scores and the weighted sum of values
    if a["w_o"] is not None:
        macs += n_b * b * e * e
    tr.count("attention.macs", macs)


def _feed_forward(tr, a, result):
    rows = a["x"].size // a["weights"].ff_w1.shape[0]
    tr.count("attention.macs", 2 * rows * a["weights"].ff_w1.shape[0] * a["weights"].ff_w1.shape[1])


def _model_forward(tr, a, result):
    """Closed form of the score elements: N_b^2 + L*2B per encoder layer."""
    length = _prod(a["vol"].shape[1:])
    cfg = a["attention"]
    n_b = length // cfg.bin_size
    tr.count("attention.score_elements_closed_form",
             cfg.n_layers * (n_b * n_b + length * 2 * cfg.bin_size))


def _load_tensor_set(tr, a, result):
    tr.count("tensorio.bytes_read", sum(arr.nbytes for arr in result.values()))


# (defining module, name, span name, hook). Layers that the benchmark's root
# span does not reach on a workload report 0.
TRACED_FUNCTIONS = (
    ("gridpose.synth", "synth_scene", "synth.synth_scene", None),
    ("gridpose.tensorio", "load_tensor_set", "tensorio.load_tensor_set", _load_tensor_set),
    ("gridpose.geometry", "aggregate_feature_volume", "geometry.aggregate_feature_volume", _aggregate),
    ("gridpose.pipeline", "propose_centers", "pipeline.propose_centers", _propose),
    ("gridpose.pipeline", "coarse_center_proposal", "pipeline.coarse_center_proposal", None),
    ("gridpose.model", "model_forward", "model.model_forward", _model_forward),
    ("gridpose.attention", "embed_volume", "attention.embed_volume", None),
    ("gridpose.attention", "encoder_layer_forward", "attention.encoder_layer_forward", None),
    ("gridpose.attention", "attention_sublayer", "attention.attention_sublayer", _sublayer),
    ("gridpose.attention", "sinkhorn_normalize", "attention.sinkhorn_normalize", None),
    ("gridpose.attention", "reorder_bins", "attention.reorder_bins", _reorder),
    ("gridpose.attention", "windowed_attention", "attention.windowed_attention", _window),
    ("gridpose.attention", "feed_forward", "attention.feed_forward", _feed_forward),
    ("gridpose.attention", "layer_norm", "attention.layer_norm", None),
    ("gridpose.conv", "conv3d", "conv.conv3d", _conv3d),
    ("gridpose.conv", "residual_forward", "conv.residual_forward", None),
    ("gridpose.posehead", "fuse_and_head", "posehead.fuse_and_head", None),
    ("gridpose.posehead", "regress_pose", "posehead.regress_pose", None),
    ("gridpose.metrics", "evaluate_frames", "metrics.evaluate_frames", None),
)
# (module, class, method, span name)
TRACED_METHODS = (
    ("gridpose.autodiff", "Tensor", "backward", "autodiff.backward"),
    ("gridpose.autodiff", "Adam", "step", "autodiff.adam_step"),
)


class Tracer:
    """Span stack plus per-operation accumulators of self time and counts."""

    def __init__(self):
        self._stack = []  # open spans: [name, seconds spent in child spans]
        self._patches = []  # (owner, attribute, original)
        self.scores = ScoreCounter()
        self.begin()

    # -- spans and counts --------------------------------------------------

    def begin(self):
        """Start a new operation: clear the accumulators."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.scores.reset()

    def count(self, name, value):
        self.counts[name] += int(value)

    def timed(self, name, fn, hook=None):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([name, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(start)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a root span; returns (result, seconds)."""
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = self._close(start)
        return result, seconds

    def _close(self, start):
        seconds = time.perf_counter() - start
        name, children = self._stack.pop()
        self.self_s[name] += seconds - children
        self.total_s[name] += seconds
        if self._stack:
            self._stack[-1][1] += seconds
        return seconds

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "gridpose" or n.startswith("gridpose.")]
        for module_name, attr, span_name, hook in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            inner = self._with_score_counter(original) if attr == "model_forward" else original
            wrapper = self.timed(span_name, inner, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for module_name, cls_name, attr, span_name in TRACED_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self.timed(span_name, getattr(cls, attr)))

    def _with_score_counter(self, model_forward):
        """model_forward that counts score elements in this tracer's ScoreCounter."""

        @functools.wraps(model_forward)
        def forward(vol, weights, attention, mode="soft", counter=None):
            counter = self.scores if counter is None else counter
            return model_forward(vol, weights, attention, mode=mode, counter=counter)

        return forward

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
