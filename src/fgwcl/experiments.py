"""Interpolation-weight sweeps and phase-timing benchmarks.

Both drive the regular training loop: the sweep retrains per (alpha,
seed) pair and probes each run once, the benchmark times epochs on
generated two-block graphs whose expected degree stays constant as the
node count grows.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import TrainConfig
from .evaluate import embed, linear_probe
from .graph import CsbmParams, Graph, generate_csbm, make_splits
from .model import prepare_graph
from .train import PHASES, train

log = logging.getLogger(__name__)


def sweep_alpha(cfg: TrainConfig, g: Graph, grid: Sequence[float], out_dir,
                seeds: int = 5,
                split_mode: str = "fractional") -> list[dict]:
    """Train and probe per grid value; one row per alpha."""
    grid = [float(a) for a in grid]
    if not grid:
        raise ValueError("alpha grid must be non-empty")
    if any(not 0.0 <= a <= 1.0 for a in grid):
        raise ValueError("alpha grid values must lie in [0, 1]")
    if g.labels is None:
        raise ValueError("the sweep needs labels to probe accuracy")
    if seeds < 1:
        raise ValueError("need at least one seed per alpha")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    rows = []
    for alpha in grid:
        per_seed = []
        for seed in range(seeds):
            trial_cfg = dataclasses.replace(cfg, alpha=alpha, seed=seed)
            run_dir = out / f"alpha_{alpha:.2f}" / f"seed_{seed}"
            result = train(trial_cfg, g, run_dir)
            features = embed(result.model, gt)
            spec = make_splits(g, split_mode, seed)
            per_seed.append(linear_probe(features, g.labels,
                                         spec.train_mask, spec.test_mask))
        rows.append({
            "alpha": alpha,
            "per_seed": [round(a, 6) for a in per_seed],
            "mean_accuracy": float(np.mean(per_seed)),
            "std_accuracy": float(np.std(per_seed)),
        })
        log.info("alpha=%.2f mean accuracy %.4f", alpha,
                 rows[-1]["mean_accuracy"])
    (out / "sweep.json").write_text(json.dumps(rows, indent=2) + "\n")
    return rows


def bench_graph_params(n: int, feature_dim: int = 32,
                       within_degree: float = 10.0,
                       across_degree: float = 1.0,
                       seed: int = 0) -> CsbmParams:
    """Two-block parameters with N-independent expected degrees."""
    half = max(n // 2, 1)
    return CsbmParams(n=n, feature_dim=feature_dim,
                      p=min(1.0, within_degree / half),
                      q=min(1.0, across_degree / half), seed=seed)


def bench_timing(sizes: Sequence[int], cfg: TrainConfig, out_dir,
                 iters: int = 3, warmup: int = 1,
                 feature_dim: int = 32) -> list[dict]:
    """Mean per-phase epoch times, transport solve time (on its worker
    thread, beside the node phase) and epoch time for each graph size.

    cfg.seed seeds both the generated graphs and training. Warm-up epochs
    (allocator effects) are excluded from the means.
    """
    if iters < 1 or warmup < 0:
        raise ValueError("need iters >= 1 and warmup >= 0")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in sizes:
        g = generate_csbm(bench_graph_params(n, feature_dim=feature_dim,
                                             seed=cfg.seed))
        run_cfg = dataclasses.replace(cfg, epochs=warmup + iters)
        result = train(run_cfg, g, out / f"n_{n}")
        timed = result.records[warmup:]
        if len(timed) < iters:
            raise ArithmeticError(f"benchmark run at n={n} diverged")
        row = {"n": int(n), "num_edges": int(g.num_edges),
               "iters": len(timed)}
        for phase in (*PHASES, "solve", "epoch"):
            key = f"time_{phase}_ms"
            row[key] = float(np.mean([rec[key] for rec in timed]))
        rows.append(row)
        log.info("n=%d: ot %.1f ms, epoch %.1f ms", n, row["time_ot_ms"],
                 row["time_epoch_ms"])
    (out / "bench.json").write_text(json.dumps(rows, indent=2) + "\n")
    return rows
