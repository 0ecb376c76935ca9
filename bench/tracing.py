"""Span recording, the traced training epoch (a chain of calls into the
package's public functions with a span around every call) and the
fixed-budget solver microbenchmark.

Spans live in the benchmark, never inside src/. The training epoch makes
the calls train.run_epoch and train.apply_update make, in their order, so
its total loss equals run_epoch's at the same parameters and epoch.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from fgwcl import autodiff as ad
from fgwcl import kernels, losses, ot, sampling, train
from fgwcl.optim import adam_step, zero_grads

MB = 1024.0 * 1024.0


class Spans:
    """Busy time per span name, and with memory=True the tracemalloc peak
    each span reaches above the memory held when it began."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.seconds: dict[str, float] = defaultdict(float)
        self.peak_mb: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        if self.memory:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0
            if self.memory:
                peak = tracemalloc.get_traced_memory()[1] - held
                self.peak_mb[name] = max(self.peak_mb[name], peak / MB)


def epoch_views(model, gt, cfg, epoch: int, spans: Spans):
    """Encode, generate, fuse and sample with the seeds train uses for
    this epoch. Returns (h, lam, h_f, h_s, h_hat, batch, excluded)."""
    ad.reset_tape()
    rng = np.random.default_rng(train.epoch_seed(cfg.seed, epoch, 1))
    with spans.span("model.encode"):
        h_f, h_s = model.encode(gt, training=True, rng=rng)
    with spans.span("model.generate"):
        h_hat_f, h_hat_s = model.generate(gt, h_f, h_s)
    with spans.span("model.fuse"):
        h, lam = model.fuse(h_f, h_s, gt.scores, training=True, rng=rng)
        h_hat, _ = model.fuse(h_hat_f, h_hat_s, gt.scores, training=True,
                              rng=rng)
    anchors = cfg.num_anchors or sampling.default_anchor_count(gt.graph.n)
    with spans.span("sampling.sample"):
        batch, excluded = sampling.sample_contrast_batch(
            gt.graph, h, h_hat, k=cfg.k, num_anchors=anchors,
            num_negatives=cfg.num_negatives,
            seed=train.epoch_seed(cfg.seed, epoch, 0),
            shuffle_frontier=cfg.bfs_shuffle)
    if batch is None:
        raise RuntimeError(f"epoch {epoch}: fewer than 2 usable anchors")
    return h, lam, h_f, h_s, h_hat, batch, excluded


def batch_pairs(batch) -> list:
    """(anchor view, partner view) in the order the subgraph loss consumes
    them: each anchor's positive, then its negatives."""
    pairs = []
    for orig, pert, negs in zip(batch.originals, batch.perturbed,
                                batch.negatives):
        pairs.append((orig, pert))
        pairs.extend((orig, neg) for neg in negs)
    return pairs


def traced_epoch(model, gt, cfg, fgw, backend, enc_state, fus_state,
                 epoch: int, spans: Spans) -> dict:
    """One training epoch with a span per public call; updates the model.
    Returns the epoch's loss parts, solver statistics and tape size."""
    t0 = time.perf_counter()
    h, lam, h_f, h_s, h_hat, batch, excluded = epoch_views(
        model, gt, cfg, epoch, spans)
    with spans.span("ot.solve"):
        plans = losses.solve_batch_plans(batch, fgw, backend, threads=1)
    with spans.span("ot.objective"):
        l_ot = losses.loss_ot(batch, fgw, backend, threads=1, plans=plans)
    with spans.span("losses.node"):
        if cfg.node_loss == "v2":
            l_node = losses.loss_node_v2(h, h_hat,
                                         losses.batch_indices(batch), cfg.tau)
        else:
            l_node = losses.loss_node(h, h_hat, cfg.tau)
    with spans.span("losses.fusion"):
        l_fusion = losses.loss_fusion(lam, h_s, h_f, cfg.alpha, cfg.beta1,
                                      cfg.beta2)
    breakdown = losses.total_loss(l_ot, l_node, l_fusion,
                                  anchors_used=int(batch.anchors.size),
                                  anchors_excluded=excluded)
    tape_ops = len(ad.active_tape())
    with spans.span("autodiff.backward"):
        ad.backward(breakdown.total)
    with spans.span("optim.adam"):
        enc = model.encoder_generator_params()
        fus = model.fusion_params()
        adam_step({k: p for k, p in enc.items() if p.grad is not None},
                  enc_state)
        adam_step({k: p for k, p in fus.items() if p.grad is not None},
                  fus_state)
        zero_grads(enc)
        zero_grads(fus)
    wall = time.perf_counter() - t0
    # timed outside the epoch: solve_batch_plans and loss_ot each build
    # the cost matrices inside their own spans, so this shows that share
    with spans.span("ot.cost"):
        for a, b in batch_pairs(batch):
            ot.build_cost_matrices(a.a_slice, b.a_slice, a.h_slice,
                                   b.h_slice, cfg.tau)
    return {
        "total": breakdown.total.item,
        "l_ot": l_ot.item,
        "l_node": l_node.item,
        "anchors_used": int(batch.anchors.size),
        "iterations": [p.iterations for p in plans],
        "residuals": [p.residual for p in plans],
        "tape_ops": tape_ops,
        "wall": wall,
    }


def bapg_us_per_iter(k: int, instances: int = 16, iters: int = 100,
                     repeats: int = 3, seed: int = 0) -> float:
    """Fixed-budget solver microbenchmark: the selected kernel backend run
    for exactly `iters` iterations (the stopping test can never pass) on
    random k x k problems; median over repeats of time per iteration."""
    rng = np.random.default_rng((seed, k))
    backend = kernels.get_backend()
    mu = np.full(k, 1.0 / k)
    problems = []
    for _ in range(instances):
        h1, h2 = rng.standard_normal((2, k, 4)) / 2.0
        a1, a2 = (rng.random((2, k, k)) < 0.3).astype(float)
        problems.append((np.exp(-h1 @ h2.T), np.exp(-(a1 + a1.T) / 2),
                         np.exp(-(a2 + a2.T) / 2), np.outer(mu, mu)))
    per_iter = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for M, C1, C2, P0 in problems:
            _, done, status = backend.bapg(M, C1, C2, mu, mu, 0.5, 5.0, iters,
                                           -1.0, P0, True)
            if done != iters or status != kernels.STATUS_MAX_ITERS:
                raise RuntimeError(f"k={k}: solve stopped after {done} of "
                                   f"{iters} iterations (status {status})")
        per_iter.append((time.perf_counter() - t0) / (instances * iters))
    return float(np.median(per_iter)) * 1e6
