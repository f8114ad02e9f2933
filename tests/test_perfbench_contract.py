"""The benchmark's traced run (`perfbench/run.py --trace 1`) against the
current source.

perfbench's `Tracer` patches gridpose functions by name and its counting
hooks read their arguments by name (`w_o`, `sorted_k`, `bins`, `mode`,
...), and it passes its own `ScoreCounter` to `model_forward` as
`counter`. A source change that renames one of them breaks the traced run
only; these tests run a toy training step and a toy inference under the
tracer, so such a change fails here. perfbench is read, not changed.
"""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gridpose import ScoreCounter, init_model_from_config, run_inference, synth_scene, train_toy
from conftest import toy_run_config, toy_scene_config

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_attributes(spans):
    """(owner, attribute) of every function and method the tracer may patch."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "gridpose" or n.startswith("gridpose.")]
    pairs = [(m, attr) for _, attr, _, _ in spans.TRACED_FUNCTIONS for m in modules if hasattr(m, attr)]
    pairs += [(getattr(importlib.import_module(m), cls), attr) for m, cls, attr, _ in spans.TRACED_METHODS]
    return pairs


@pytest.mark.parametrize("operation", ["train_toy", "run_inference"])
def test_traced_operation_counts_its_closed_form(spans, operation):
    scene = synth_scene(toy_scene_config())
    cfg = toy_run_config(steps=1)
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in traced_attributes(spans)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin()
        if operation == "train_toy":
            tracer.span("pipeline.train_toy", train_toy, scene, cfg)
        else:
            tracer.span("pipeline.run_inference", run_inference, scene, init_model_from_config(cfg),
                        replace(cfg, center_source="coarse_proposal"))
        assert any(getattr(owner, attr) is not fn for (owner, attr), fn in originals.items())
    finally:
        tracer.uninstall()
    assert tracer.scores.total > 0
    assert tracer.scores.total == tracer.counts["attention.score_elements_closed_form"]
    assert tracer.counts["attention.macs"] > 0
    assert ScoreCounter._open == []
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())
