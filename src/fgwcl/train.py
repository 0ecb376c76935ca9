"""Training orchestration: phase-timed epochs, a crash-safe metrics
stream, divergence handling, and checkpoint output.

Each epoch runs encode -> generate/fuse -> sample -> transport costs ->
node and fusion losses, beside the transport solve on one worker thread
-> transport loss -> backward and two Adam updates (one state for
encoder+generator weights, one for the shared fusion MLP). No thread
outlives the epoch. One JSON metrics line is appended and flushed per
epoch, so every prefix of the stream is valid line-delimited JSON. Each
line carries the losses, the solver telemetry, the node loss's index
count and distinct rows, the fusion gate's range and the channels' mean
row norms, the phase times of the calling thread, the worker's solve
time and the process's peak RSS so far.
"""

from __future__ import annotations

import json
import logging
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from .config import TrainConfig, config_hash
from .graph import Graph
from .kernels import KernelBackend
from .losses import (LossBreakdown, _stacked_costs, batch_indices,
                     distinct_nodes, loss_fusion, loss_node, loss_node_v2,
                     loss_ot, solve_batch_plans, solve_costs, total_loss)
from .model import GraphTensors, Model, prepare_graph, save_checkpoint
from .optim import AdamState, adam_step, zero_grads
from .ot import FgwConfig, TransportPlans
from .sampling import default_anchor_count, sample_contrast_batch

log = logging.getLogger(__name__)

PHASES = ("encode", "generate", "sample", "ot", "node", "backward")


def fgw_config(cfg: TrainConfig) -> FgwConfig:
    return FgwConfig(alpha=cfg.alpha, beta=cfg.beta,
                     max_iters=cfg.bapg_iters, tol=cfg.bapg_tol,
                     tau=cfg.tau, seed=cfg.seed)


def build_model(cfg: TrainConfig, g: Graph) -> Model:
    return Model(g.num_features, hidden_dim=cfg.hidden_dim,
                 out_dim=cfg.out_dim, dropout=cfg.dropout,
                 fusion_dropout=cfg.fusion_dropout, seed=cfg.seed)


def epoch_seed(base: int, epoch: int, stream: int = 0) -> int:
    seq = np.random.SeedSequence((base, epoch, stream))
    return int(seq.generate_state(1)[0])


def _scalar(t) -> Optional[float]:
    return None if t is None else t.item


def _channel_stats(lam: ad.Tensor, h_f: ad.Tensor, h_s: ad.Tensor) -> dict:
    """The fusion gate's mean, min and max, and the mean row norms of the
    feature and structure channels."""
    gate = lam.data
    return {
        "lam_mean": float(gate.mean()),
        "lam_min": float(gate.min()),
        "lam_max": float(gate.max()),
        "h_f_norm_mean": float(np.linalg.norm(h_f.data, axis=1).mean()),
        "h_s_norm_mean": float(np.linalg.norm(h_s.data, axis=1).mean()),
    }


def _epoch_views(model: Model, gt: GraphTensors, cfg: TrainConfig,
                 epoch: int):
    """Encode, generate, fuse, and sample with the epoch's seeds.

    Returns (h, lam, h_f, h_s, h_hat, batch, excluded, times). Sampling
    indices depend only on the graph and the seed, so repeated calls at
    perturbed parameters select the same subgraphs."""
    g = gt.graph
    anchors = cfg.num_anchors or default_anchor_count(g.n)
    rng = np.random.default_rng(epoch_seed(cfg.seed, epoch, 1))
    times: dict[str, float] = {}
    ad.reset_tape()

    t0 = time.perf_counter()
    h_f, h_s = model.encode(gt, training=True, rng=rng)
    times["encode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    h_hat_f, h_hat_s = model.generate(gt, h_f, h_s)
    h, lam = model.fuse(h_f, h_s, gt.scores, training=True, rng=rng)
    h_hat, _ = model.fuse(h_hat_f, h_hat_s, gt.scores, training=True,
                          rng=rng)
    times["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    batch, excluded = sample_contrast_batch(
        g, h, h_hat, k=cfg.k, num_anchors=anchors,
        num_negatives=cfg.num_negatives,
        seed=epoch_seed(cfg.seed, epoch, 0),
        shuffle_frontier=cfg.bfs_shuffle)
    times["sample"] = time.perf_counter() - t0
    return h, lam, h_f, h_s, h_hat, batch, excluded, times


def epoch_plans(model: Model, gt: GraphTensors, cfg: TrainConfig,
                fgw: FgwConfig, backend: Optional[KernelBackend] = None,
                epoch: int = 0, threads: int = 1) -> TransportPlans | list:
    """Transport plans the epoch's contrastive loss would solve, or []
    when the epoch samples no batch.

    Feeding these back through run_epoch(..., plans=...) re-evaluates the
    loss with the couplings held fixed, which is the differentiated
    function: plans are constants of the objective. `threads` has no
    effect; no thread is started."""
    _, _, _, _, _, batch, _, _ = _epoch_views(model, gt, cfg, epoch)
    if batch is None:
        return []
    return solve_batch_plans(batch, fgw, backend)


def _timed(f, *args) -> tuple:
    """f(*args) and the wall time it took."""
    t0 = time.perf_counter()
    return f(*args), time.perf_counter() - t0


def run_epoch(model: Model, gt: GraphTensors, cfg: TrainConfig,
              fgw: FgwConfig, backend: KernelBackend, epoch: int,
              plans=None) -> tuple[LossBreakdown, dict]:
    """Forward pass and losses for one epoch; no parameter update.

    The transport plans are constants of the objective: the node and
    fusion losses need nothing from them, nor they from those losses. So
    the taped transport costs are built once, and unless `plans` are
    given, one worker thread solves the plans from their arrays while this
    thread computes the node and fusion losses. The worker is joined
    whether or not those raise, and the transport loss is then evaluated
    on the same taped costs at the solved plans. With `plans` given no
    solve thread is started; a node loss over two or more row blocks
    still runs half of them on a worker of its own (ad.info_nce). The
    "ot" time is the cost build, the wait for the worker and that
    evaluation; "solve" is the worker's own solve time."""
    h, lam, h_f, h_s, h_hat, batch, excluded, times = _epoch_views(
        model, gt, cfg, epoch)

    t0 = time.perf_counter()
    costs = solve = None
    # the pool starts its thread at the first submit and joins it on exit
    with ThreadPoolExecutor(1) as worker:
        if batch is not None:
            try:
                costs = _stacked_costs(batch, fgw.tau)
            except ArithmeticError as exc:
                raise ArithmeticError(f"transport costs: {exc}") from exc
            if plans is None:
                solve = worker.submit(_timed, solve_costs,
                                      *(t.data for t in costs), fgw, backend)
        cost_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        if cfg.node_loss == "v2":
            idx = batch_indices(batch)
            l_node = loss_node_v2(h, h_hat, idx, cfg.tau)
            rows = (idx.size, distinct_nodes(idx)[0].size)
        else:
            l_node = loss_node(h, h_hat, cfg.tau)
            rows = (gt.graph.n, gt.graph.n)
        l_fusion = loss_fusion(lam, h_s, h_f, cfg.alpha, cfg.beta1,
                               cfg.beta2)
        times["node"] = time.perf_counter() - t0
        t0 = time.perf_counter()  # the wait for the worker is "ot" time
    if solve is not None:
        plans, times["solve"] = solve.result()
    l_ot = loss_ot(batch, fgw, plans=plans, costs=costs)
    used = 0 if batch is None else int(batch.anchors.size)
    breakdown = total_loss(l_ot, l_node, l_fusion, anchors_used=used,
                           anchors_excluded=excluded, plans=plans)
    times["ot"] = cost_s + time.perf_counter() - t0
    breakdown.node_rows = {"node_rows": rows[0],
                           "node_rows_distinct": rows[1]}
    breakdown.channels = _channel_stats(lam, h_f, h_s)
    return breakdown, times


def apply_update(model: Model, breakdown: LossBreakdown,
                 enc_state: AdamState, fus_state: AdamState) -> None:
    """Backward pass and both Adam steps; parameters that received no
    gradient this step (a loss part was skipped) are left unchanged."""
    ad.backward(breakdown.total)
    enc = model.encoder_generator_params()
    fus = model.fusion_params()
    adam_step({k: p for k, p in enc.items() if p.grad is not None},
              enc_state)
    adam_step({k: p for k, p in fus.items() if p.grad is not None},
              fus_state)
    zero_grads(enc)
    zero_grads(fus)


def _record(epoch: int, breakdown: LossBreakdown, times: dict) -> dict:
    rec = {
        "epoch": epoch,
        "l_ot": _scalar(breakdown.l_ot),
        "l_node": _scalar(breakdown.l_node),
        "l_fusion": _scalar(breakdown.l_fusion),
        "total": _scalar(breakdown.total),
        "anchors_used": breakdown.anchors_used,
        "anchors_excluded": breakdown.anchors_excluded,
        "skipped": list(breakdown.skipped),
        **breakdown.solver,
        **breakdown.node_rows,
        **breakdown.channels,
    }
    for phase in PHASES:
        rec[f"time_{phase}_ms"] = round(times.get(phase, 0.0) * 1e3, 4)
    rec["time_solve_ms"] = round(times.get("solve", 0.0) * 1e3, 4)
    rec["time_epoch_ms"] = round(times.get("epoch", 0.0) * 1e3, 4)
    # the process's peak resident set so far; ru_maxrss is in KiB on Linux
    rec["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return rec


@dataclass
class TrainResult:
    model: Model
    records: list[dict]
    diverged: bool
    checkpoint_path: Path
    metrics_path: Path
    summary_path: Path


def train(cfg: TrainConfig, g: Graph, out_dir, threads: int = 1,
          backend: Optional[KernelBackend] = None) -> TrainResult:
    """Train for cfg.epochs, writing metrics.jsonl, summary.json and a
    checkpoint to out_dir. `threads` has no effect."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    model = build_model(cfg, g)
    enc_state = AdamState(model.encoder_generator_params(), cfg.lr)
    fus_state = AdamState(model.fusion_params(), cfg.lr_fusion)
    fgw = fgw_config(cfg)

    metrics_path = out / "metrics.jsonl"
    records: list[dict] = []
    divergence = None
    last_good = {k: v.data.copy() for k, v in model.params.items()}
    with open(metrics_path, "w") as stream:
        for epoch in range(cfg.epochs):
            try:
                t_epoch = time.perf_counter()
                breakdown, times = run_epoch(model, gt, cfg, fgw, backend,
                                             epoch)
                total = breakdown.total.item
                if not np.isfinite(total):
                    raise ArithmeticError(f"total loss is {total}")
                t0 = time.perf_counter()
                apply_update(model, breakdown, enc_state, fus_state)
                times["backward"] = time.perf_counter() - t0
                times["epoch"] = time.perf_counter() - t_epoch
            except ArithmeticError as exc:
                log.error("diverged at epoch %d (%s); keeping the last "
                          "good weights", epoch, exc)
                divergence = {"epoch": epoch, "error": str(exc)}
                break
            rec = _record(epoch, breakdown, times)
            stream.write(json.dumps(rec) + "\n")
            stream.flush()
            records.append(rec)
            last_good = {k: v.data.copy() for k, v in model.params.items()}
    ad.reset_tape()  # frees the last step's tape
    diverged = divergence is not None
    if diverged:
        for name, tensor in model.params.items():
            tensor.data = last_good[name]

    checkpoint_path = out / "checkpoint.bin"
    save_checkpoint(checkpoint_path, model,
                    extra={"config_hash": config_hash(cfg),
                           "epochs_run": len(records),
                           "diverged": diverged})
    summary = {
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "epochs_run": len(records),
        "diverged": diverged,
        "divergence": divergence,
        "final": records[-1] if records else None,
        "checkpoint": checkpoint_path.name,
        "metrics": metrics_path.name,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return TrainResult(model=model, records=records, diverged=diverged,
                       checkpoint_path=checkpoint_path,
                       metrics_path=metrics_path, summary_path=summary_path)
