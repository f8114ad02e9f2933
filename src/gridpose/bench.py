"""Sparse vs dense attention cost, the table behind `gridpose bench`.

For each sequence length one hard-mode encoder layer runs on random
float32 input and its score elements are counted; dense attention runs
on the same input up to a memory guard. Wall times go to the CSV only.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionConfig,
    ScoreCounter,
    dense_attention,
    encoder_layer_forward,
    init_encoder_layer,
)
from .autodiff import as_tensor, no_grad
from .errors import ConfigError
from .grid import partition_bins


@dataclass
class BenchRow:
    length: int
    n_bins: int
    sparse_elements: int
    dense_elements: int
    sparse_seconds: float
    dense_seconds: float | None


DENSE_GUARD = 8192


def bench_attention(lengths, bin_size=128, embed_dim=256, n_heads=2, seed=0):
    """Sparse vs dense score-element counts and wall times per length.

    Every length must be a positive multiple of `bin_size`. The dense pass
    only runs up to `DENSE_GUARD`; its element count L^2 is always reported
    analytically. Inputs are float32 to keep the long-sequence rows cheap.
    """
    cfg = AttentionConfig(embed_dim=embed_dim, n_heads=n_heads, bin_size=bin_size, n_layers=1)
    bad = [length for length in lengths if length < 1 or length % bin_size != 0]
    if bad:
        raise ConfigError(f"lengths {bad} are not positive multiples of bin_size {bin_size}")
    rows = []
    for length in lengths:
        rng = np.random.default_rng(seed)
        seq = rng.normal(size=(length, embed_dim)).astype(np.float32)
        layer = init_encoder_layer(cfg, rng)
        for t in layer.parameters("w").values():
            t.data = t.data.astype(np.float32)

        counter = ScoreCounter()
        bins = partition_bins(as_tensor(seq), bin_size)
        with no_grad():
            t0 = time.perf_counter()
            encoder_layer_forward(bins, layer, cfg, mode="hard", counter=counter)
            sparse_seconds = time.perf_counter() - t0

            dense_seconds = None
            if length <= DENSE_GUARD:
                t0 = time.perf_counter()
                dense_attention(as_tensor(seq), layer.w_q, layer.w_k, layer.w_v, layer.w_o, cfg)
                dense_seconds = time.perf_counter() - t0
        rows.append(BenchRow(
            length=length,
            n_bins=length // bin_size,
            sparse_elements=counter.total,
            dense_elements=length * length,
            sparse_seconds=sparse_seconds,
            dense_seconds=dense_seconds,
        ))
    return rows


def write_bench_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "L", "n_bins", "sparse_score_elements", "dense_score_elements",
            "sparse_seconds", "dense_seconds",
        ])
        for r in rows:
            writer.writerow([
                r.length, r.n_bins, r.sparse_elements, r.dense_elements,
                f"{r.sparse_seconds:.6f}",
                "" if r.dense_seconds is None else f"{r.dense_seconds:.6f}",
            ])
