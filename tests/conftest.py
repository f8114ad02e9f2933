"""Shared fixtures.

The toy overfit run is the one genuinely expensive artifact in the
suite (a few hundred Adam steps on a 16^3 person grid), so it is built
once per session and shared between the pipeline regression tests and
the acceptance suite. The acceptance tests also register one summary
line each, printed at the end of the run. `assert_tiles_exact` is the
oracle of the tiled nodes: their result as one whole tile.
"""

import time

import numpy as np
import pytest

from gridpose import AttentionConfig, RunConfig, SceneConfig, Tensor, synth_scene, train_toy
from gridpose.autodiff import no_grad

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion_log():
    """Append one 'pass criterion N ...' line per acceptance criterion."""
    return ACCEPTANCE_LINES


def toy_scene_config(seed=4, **overrides):
    """Single person seen by 3 ring cameras; 1600mm person volume."""
    base = dict(
        seed=seed,
        n_people=1,
        space_extent=(2400.0, 2400.0, 2000.0),
        person_extent=1600.0,
        person_resolution=16,
        n_cameras=3,
        camera_radius=4000.0,
        camera_height=800.0,
        image_size=(128, 128),
        focal_px=100.0,
        heatmap_sigma=2.0,
    )
    base.update(overrides)
    return SceneConfig(**base)


def toy_run_config(steps=300, seed=0):
    attention = AttentionConfig(
        embed_dim=32, n_heads=2, bin_size=64, sinkhorn_iters=8, n_layers=1
    )
    return RunConfig(
        attention=attention,
        n_joints=15,
        grid_extent=1600.0,
        grid_resolution=16,
        residual_channels=(32,),
        train_steps=steps,
        lr=1e-3,
        optimizer="adam",
        seed=seed,
    )


@pytest.fixture(scope="session")
def toy_overfit():
    """300-step Adam overfit of the single-person scene (built once)."""
    scene = synth_scene(toy_scene_config())
    cfg = toy_run_config()
    t0 = time.perf_counter()
    result = train_toy(scene, cfg)
    seconds = time.perf_counter() - t0
    return {"scene": scene, "cfg": cfg, "result": result, "seconds": seconds}


# How far a gradient that sums over tiles may move when the tiles change,
# relative to its largest entry: splitting the sum reorders it. The conv
# weight gradient moved by at most 9.3e-16 in f64 and 9.1e-7 in f32 between
# 1024-row slabs and one slab at 16^3 and 24^3.
SUMMED_RTOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}


def assert_tiles_exact(monkeypatch, module, tile_constant, fn, leaves, probe, summed=()):
    """A tiled node equals the same node run as one tile, bit for bit.

    `fn()` builds the node's output from `leaves` (all float32 or all
    float64). It runs with `module.<tile_constant>` as it is and again with
    the constant raised to cover the whole input, each time without a graph
    and with one whose backward gets sum(out * probe). Within each run the
    no-grad and graph outputs must be byte-equal and keep the leaves'
    dtype; across the runs the outputs and every leaf gradient must be
    equal, except the gradients of the leaves named in `summed`, which are
    sums over the tiles: they must agree within `SUMMED_RTOL` of their
    largest entry.
    """
    dtype = next(iter(leaves.values())).data.dtype
    runs = []
    for tile in (getattr(module, tile_constant), 2**62):
        monkeypatch.setattr(module, tile_constant, tile)
        with no_grad():
            free = fn()
        for t in leaves.values():
            t.zero_grad()
        graph = fn()
        (graph * Tensor(probe.astype(dtype))).sum().backward()
        assert free.data.dtype == dtype and graph.data.dtype == dtype
        assert free.data.tobytes() == graph.data.tobytes()
        runs.append((graph.data, {name: t.grad for name, t in leaves.items()}))
    (tiled, tiled_grads), (whole, whole_grads) = runs
    assert np.array_equal(tiled, whole)
    for name in leaves:
        assert tiled_grads[name].dtype == dtype, name
        if name in summed:
            bound = SUMMED_RTOL[dtype] * np.abs(whole_grads[name]).max()
            assert np.abs(tiled_grads[name] - whole_grads[name]).max() <= bound, name
        else:
            assert np.array_equal(tiled_grads[name], whole_grads[name]), name
