"""The benchmark's workloads: inputs made from a seed, the timed closed
loop, and the checks of every output against independent computations.

Every run attempts whole rounds of identical operations. A training
round is one train() call from a fresh model, of the workload's epoch
count; a distance round is one pass over the run's fixed set of graph
pairs.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
from fgwcl import autodiff as ad
from fgwcl import evaluate, losses, ot, train
from fgwcl.config import TrainConfig
from fgwcl.experiments import bench_graph_params
from fgwcl.graph import CsbmParams, generate_csbm, make_graph, make_splits
from fgwcl.kernels import get_backend
from fgwcl.model import prepare_graph
from fgwcl.optim import AdamState, zero_grads
from tracing import MB, Spans, batch_pairs, bapg_us_per_iter, epoch_views, \
    traced_epoch

MODEL_SEED = 0
PROBE_SPLIT_SEEDS = range(5)
FD_DIRECTIONS = 2
FD_STEPS = (1e-6, 1e-7)
FD_TOL = 1e-5
SAMPLED_PAIRS = 8
MEMORY_STEPS = 2
MICRO_K = (4, 12, 30)

TRAIN_WORKLOADS = {
    # criterion-09 config: ~900 tiny solves and ~27k tape ops per epoch;
    # one epoch a round, so four rounds fit in a run
    "train-v2-n10000": (
        dict(n=10000),
        dict(lr=1e-4, alpha=0.5, beta=5.0, k=12, tau=1.0, num_anchors=300,
             num_negatives=2, hidden_dim=16, out_dim=8, bapg_iters=20,
             node_loss="v2", epochs=1)),
    # paper widths and the full N x N node loss on a Cora-sized graph with
    # within-class degree ~2 and cross-class degree ~8 (heterophilic); two
    # epochs a round, so the first epoch's tape is still held in the second
    "train-full-hetero-n2708": (
        dict(n=2708, feature_dim=100, within_degree=2.0, across_degree=8.0),
        dict(lr=2.3e-3, lr_fusion=9e-4, alpha=0.1, beta=1.0, k=10, tau=2.0,
             dropout=0.4, fusion_dropout=0.1, num_anchors=64,
             num_negatives=2, hidden_dim=256, out_dim=128, bapg_iters=30,
             node_loss="full", epochs=2)),
}

# distance-pairs: `fgwcl distance` defaults
DISTANCE_FGW = dict(alpha=0.5, beta=0.1, tau=1.0, max_iters=50, tol=1e-6)
DISTANCE_SIZES = (60, 80, 100, 120, 140, 160, 180, 200) * 2
DISTANCE_FEATURES = 16
KEEP_SHARE = 0.85  # share of graph A's nodes that graph B keeps
EDGE_DROP = 0.10  # share of kept edges graph B loses
FEATURE_NOISE = 0.2


class Report:
    """Faults found by the checks; a run is correct when there are none."""

    def __init__(self):
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_state() -> None:
    """Drop the last tape and collect cycles, so every round starts from
    the memory state of a fresh process. Never inside a timed region."""
    ad.reset_tape()
    gc.collect()


def closed_loop(seconds: float, one_round, min_rounds: int = 1) -> int:
    """Run whole rounds back to back until `seconds` have passed."""
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        one_round(rounds)
        rounds += 1
    return rounds


# ---------------------------------------------------------------------------
# training workloads

def train_inputs(name: str, seed: int):
    """The graph comes from the run's seed; the model's own seed (weights,
    anchors, dropout) stays at the config's 0, so runs differ only in
    their input graph."""
    graph_args, cfg_args = TRAIN_WORKLOADS[name]
    g = generate_csbm(bench_graph_params(seed=seed, **graph_args))
    cfg = TrainConfig(seed=MODEL_SEED, **cfg_args)
    return g, cfg


def check_losses(report: Report, where: str, cfg, g, l_ot: float,
                 l_node: float, anchors_used: int) -> None:
    lo, hi = checks.l_ot_range(cfg.num_negatives)
    report.expect(lo <= l_ot <= hi,
                  f"{where}: l_ot {l_ot!r} outside [{lo:.6f}, {hi:.6f}]")
    rows = anchors_used * cfg.k if cfg.node_loss == "v2" else g.n
    bound = checks.node_loss_bound(rows, cfg.tau)
    report.expect(0.0 < l_node <= bound,
                  f"{where}: node loss {l_node!r} outside (0, {bound:.4f}]")


def check_records(report: Report, r: int, result, cfg, g, first) -> None:
    report.expect(not result.diverged, f"round {r}: training diverged")
    report.expect(len(result.records) == cfg.epochs,
                  f"round {r}: {len(result.records)} of {cfg.epochs} epochs")
    for rec in result.records:
        where = f"round {r} epoch {rec['epoch']}"
        if rec["skipped"] or not np.isfinite(rec["total"]):
            report.fail(f"{where}: total {rec['total']}, "
                        f"skipped {rec['skipped']}")
            continue
        check_losses(report, where, cfg, g, rec["l_ot"], rec["l_node"],
                     rec["anchors_used"])
    if first is not None:
        same = [(a["total"], a["l_ot"]) == (b["total"], b["l_ot"])
                for a, b in zip(first, result.records)]
        report.expect(all(same), f"round {r}: losses differ from round 0 "
                                 f"at equal seeds")


def check_pairs(report: Report, model, gt, cfg, fgw, backend, epoch: int):
    """The epoch's plans are feasible, the loss the tape records equals the
    loss rebuilt from 4-index FGW values at those plans, and sampled taped
    distances equal their 4-index values. Returns the plans."""
    plans = train.epoch_plans(model, gt, cfg, fgw, backend, epoch=epoch,
                              threads=1)
    *_, batch, _ = epoch_views(model, gt, cfg, epoch, Spans())
    pairs = batch_pairs(batch)
    if len(plans) != len(pairs):
        report.fail(f"{len(plans)} plans for {len(pairs)} pairs")
        return plans
    own = []
    for i, ((a, b), plan) in enumerate(zip(pairs, plans)):
        for fault in checks.plan_problems(plan.P, b.mu, 1e-12):
            report.fail(f"epoch {epoch} pair {i}: {fault}")
        M, C1, C2 = checks.exp_costs(a.a_slice.data, b.a_slice.data,
                                     a.h_slice.data, b.h_slice.data, cfg.tau)
        own.append(checks.fgw_4index(M, C1, C2, plan.P, cfg.alpha))
    d = np.asarray(own).reshape(len(batch.originals), -1)
    own_loss = checks.l_ot_from_distances(d[:, 0], d[:, 1:], cfg.tau)
    taped_loss = losses.loss_ot(batch, fgw, backend, threads=1,
                                plans=plans).item
    report.expect(checks.close(taped_loss, own_loss, 1e-10),
                  f"epoch {epoch}: taped l_ot {taped_loss!r} vs 4-index "
                  f"{own_loss!r}")
    for i in np.linspace(0, len(pairs) - 1, SAMPLED_PAIRS).astype(int):
        a, b = pairs[i]
        costs = ot.build_cost_matrices(a.a_slice, b.a_slice, a.h_slice,
                                       b.h_slice, cfg.tau)
        taped = ot.fgw_objective(costs, plans[i].P, cfg.alpha).item
        report.expect(checks.close(taped, own[i], 1e-10),
                      f"epoch {epoch} pair {i}: taped distance {taped!r} vs "
                      f"4-index {own[i]!r}")
    return plans


def check_gradient(report: Report, model, gt, cfg, fgw, backend, epoch: int,
                   plans, seed: int) -> None:
    """Taped gradient against central differences of run_epoch's total
    along random unit directions in parameter space, plans held fixed.

    The model has a million or more PReLU and LeakyReLU kinks, and a
    difference interval that straddles one was seen off by 2e-5 relative;
    a smaller step rarely straddles the same kink, while a gradient fault
    disagrees at every step. So a direction passes when any step agrees."""
    def total() -> float:
        breakdown, _ = train.run_epoch(model, gt, cfg, fgw, backend, epoch,
                                       plans=plans)
        return breakdown.total.item

    params = model.params
    breakdown, _ = train.run_epoch(model, gt, cfg, fgw, backend, epoch,
                                   plans=plans)
    ad.backward(breakdown.total)
    grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for k, p in params.items()}
    zero_grads(params)
    del breakdown
    base = {k: p.data.copy() for k, p in params.items()}
    rng = np.random.default_rng((seed, 1))
    try:
        for d in range(FD_DIRECTIONS):
            v = {k: rng.standard_normal(x.shape) for k, x in base.items()}
            norm = np.sqrt(sum(float((x * x).sum()) for x in v.values()))
            taped = sum(float((grads[k] * v[k]).sum()) for k in v) / norm
            for step in FD_STEPS:
                ends = []
                for sign in (1.0, -1.0):
                    for k, p in params.items():
                        p.data = base[k] + sign * step / norm * v[k]
                    ends.append(total())
                numeric = (ends[0] - ends[1]) / (2.0 * step)
                scale = max(abs(taped), abs(numeric), 1e-3)
                if abs(taped - numeric) <= FD_TOL * scale:
                    break
            else:
                report.fail(f"direction {d}: taped derivative {taped!r}, "
                            f"central difference {numeric!r}")
    finally:
        for k, p in params.items():
            p.data = base[k]


def probe(report: Report, model, g, gt, spans: Spans) -> float:
    with spans.span("evaluate.embed"):
        features = evaluate.embed(model, gt)
    accs, majorities = [], []
    for split_seed in PROBE_SPLIT_SEEDS:
        split = make_splits(g, "fractional", split_seed)
        with spans.span("evaluate.probe"):
            accs.append(evaluate.linear_probe(features, g.labels,
                                              split.train_mask,
                                              split.test_mask))
        majorities.append(evaluate.majority_rate(g.labels, split.train_mask,
                                                 split.test_mask))
    acc, majority = float(np.mean(accs)), float(np.mean(majorities))
    report.expect(acc > majority, f"probe accuracy {acc:.4f} does not beat "
                                  f"the majority rate {majority:.4f}")
    return acc


def after_training(report: Report, model, g, cfg, fgw, backend, seed: int,
                   spans: Spans) -> float:
    """Checks made once per run, off the clock, on the trained model at
    the epoch after the last one trained. Returns the probe accuracy."""
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    acc = probe(report, model, g, gt, spans)
    plans = check_pairs(report, model, gt, cfg, fgw, backend, cfg.epochs)
    check_gradient(report, model, gt, cfg, fgw, backend, cfg.epochs, plans,
                   seed)
    fresh_state()
    return acc


def run_train(name: str, seed: int, seconds: float, out: Path,
              t_start: float) -> dict:
    g, cfg = train_inputs(name, seed)
    fgw = train.fgw_config(cfg)
    backend = get_backend()
    report = Report()
    out_dir = out / name
    walls: list[float] = []
    cpu: list[tuple] = []
    state = {"first": None, "result": None, "failed": 0}

    def one_round(r: int):
        fresh_state()
        if r == 0:
            state["setup_s"] = time.perf_counter() - t_start
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = train.train(cfg, g, out_dir, threads=1, backend=backend)
        walls.append(time.perf_counter() - t0)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu.append((ru1.ru_utime - ru0.ru_utime, ru1.ru_stime - ru0.ru_stime))
        check_records(report, r, result, cfg, g, state["first"])
        state["failed"] += cfg.epochs - len(result.records)
        state["first"] = state["first"] or result.records
        state["result"] = result

    # warm-up: the first round in a process runs slower while the heap
    # grows to its working size
    fresh_state()
    train.train(cfg, g, out_dir, threads=1, backend=backend)
    rounds = closed_loop(seconds, one_round)
    rss = peak_rss_mb()
    model = state.pop("result").model
    acc = after_training(report, model, g, cfg, fgw, backend, seed, Spans())
    epoch_walls = [w / cfg.epochs for w in walls]
    pairs_per_round = sum(rec["anchors_used"] * (1 + cfg.num_negatives)
                          for rec in state["first"])
    return {
        "report": report,
        "attempted": rounds * cfg.epochs,
        "failed": state["failed"],
        "metrics": {
            "setup_s": state["setup_s"],
            "epoch_s": statistics.median(epoch_walls),
            "peak_rss_mb": rss,
            "probe_acc": acc,
            "distances_per_s": pairs_per_round / statistics.median(walls),
        },
        "details": {"epoch_walls_s": epoch_walls, "rounds": rounds,
                    "round_user_sys_s": cpu,
                    "records": state["first"]},
    }


def check_traced_total(report: Report, model, g, cfg, fgw, backend) -> None:
    """The traced driver's total equals run_epoch's at the trained
    parameters and the next epoch."""
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    breakdown, _ = train.run_epoch(model, gt, cfg, fgw, backend, cfg.epochs)
    reference = breakdown.total.item
    del breakdown
    enc = AdamState(model.encoder_generator_params(), cfg.lr)
    fus = AdamState(model.fusion_params(), cfg.lr_fusion)
    traced = traced_epoch(model, gt, cfg, fgw, backend, enc, fus, cfg.epochs,
                          Spans())["total"]
    report.expect(abs(traced - reference) <= 1e-12,
                  f"traced total {traced!r} vs run_epoch {reference!r}")
    fresh_state()


def trace_train(name: str, seed: int, seconds: float, out: Path,
                t_start: float) -> dict:
    g, cfg = train_inputs(name, seed)
    fgw = train.fgw_config(cfg)
    backend = get_backend()
    report = Report()

    spans = Spans()
    epochs: list[dict] = []
    untraced: list[float] = []
    state = {}

    def one_round(r: int):
        fresh_state()
        if r % 2:
            # untraced rounds alternate with traced ones, so the tracing
            # overhead compares rounds run under the same conditions
            t0 = time.perf_counter()
            train.train(cfg, g, out / name, threads=1, backend=backend)
            untraced.append((time.perf_counter() - t0) / cfg.epochs)
            return
        with spans.span("graph.prepare"):
            gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
        model = train.build_model(cfg, g)
        enc = AdamState(model.encoder_generator_params(), cfg.lr)
        fus = AdamState(model.fusion_params(), cfg.lr_fusion)
        for epoch in range(cfg.epochs):
            rec = traced_epoch(model, gt, cfg, fgw, backend, enc, fus, epoch,
                               spans)
            check_losses(report, f"round {r} epoch {epoch}", cfg, g,
                         rec["l_ot"], rec["l_node"], rec["anchors_used"])
            epochs.append(rec)
        state["model"] = model

    rounds = closed_loop(seconds, one_round, min_rounds=2)
    model = state.pop("model")

    # memory pass: tracemalloc slows allocation, so its times are not used;
    # two steps, so what the first step leaves held shows in the second
    fresh_state()
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    mem_model = train.build_model(cfg, g)
    enc = AdamState(mem_model.encoder_generator_params(), cfg.lr)
    fus = AdamState(mem_model.fusion_params(), cfg.lr_fusion)
    mem = Spans(memory=True)
    retained = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for epoch in range(MEMORY_STEPS):
            traced_epoch(mem_model, gt, cfg, fgw, backend, enc, fus, epoch,
                         mem)
            retained.append((tracemalloc.get_traced_memory()[0] - base) / MB)
    finally:
        tracemalloc.stop()
    del mem_model, enc, fus
    fresh_state()

    acc_spans = Spans()
    after_training(report, model, g, cfg, fgw, backend, seed, acc_spans)
    check_traced_total(report, model, g, cfg, fgw, backend)
    n = len(epochs)
    iters = np.concatenate([e["iterations"] for e in epochs])
    resid = np.concatenate([e["residuals"] for e in epochs])
    per_epoch = {k: v / n * 1e3 for k, v in spans.seconds.items()}
    epoch_ms = statistics.median(e["wall"] for e in epochs) * 1e3
    metrics = {
        "ot.solve_ms": per_epoch["ot.solve"],
        "ot.objective_ms": per_epoch["ot.objective"],
        "ot.cost_ms": per_epoch["ot.cost"],
        "ot.pairs": iters.size / n,
        "ot.iters_mean": float(iters.mean()),
        "ot.converged_ratio": float((iters < cfg.bapg_iters).mean()),
        "ot.row_residual_max": float(resid.max()),
        "kernels.bapg_us_per_iter": spans.seconds["ot.solve"] / iters.sum()
        * 1e6,
        "autodiff.tape_ops": float(np.mean([e["tape_ops"] for e in epochs])),
        "autodiff.backward_ms": per_epoch["autodiff.backward"],
        "autodiff.backward_peak_mb": mem.peak_mb["autodiff.backward"],
        "autodiff.retained_mb": max(retained),
        "losses.node_ms": per_epoch["losses.node"],
        "losses.node_peak_mb": mem.peak_mb["losses.node"],
        "losses.fusion_ms": per_epoch["losses.fusion"],
        "sampling.sample_ms": per_epoch["sampling.sample"],
        "sampling.anchors_used": float(np.mean([e["anchors_used"]
                                                for e in epochs])),
        "model.encode_ms": per_epoch["model.encode"],
        "model.generate_ms": per_epoch["model.generate"],
        "model.fuse_ms": per_epoch["model.fuse"],
        "optim.adam_ms": per_epoch["optim.adam"],
        "graph.prepare_ms": spans.seconds["graph.prepare"]
        / ((rounds + 1) // 2) * 1e3,
        "evaluate.embed_ms": acc_spans.seconds["evaluate.embed"] * 1e3,
        "evaluate.probe_ms": acc_spans.seconds["evaluate.probe"]
        / len(PROBE_SPLIT_SEEDS) * 1e3,
        "train.epoch_ms": epoch_ms,
        "train.trace_overhead_ms": epoch_ms
        - statistics.median(untraced) * 1e3,
        **micro_metrics(seed),
    }
    return {"report": report, "attempted": n + len(untraced) * cfg.epochs,
            "failed": 0, "metrics": metrics,
            "details": {"retained_mb": retained, "rounds": rounds,
                        "untraced_epoch_s": untraced}}


# ---------------------------------------------------------------------------
# distance-pairs

def distance_inputs(seed: int) -> list:
    """Graph pairs (A, B, source): B keeps KEEP_SHARE of A's nodes in a
    random order (B's node j is A's node source[j]), loses EDGE_DROP of the
    kept edges, and gets Gaussian feature noise."""
    pairs = []
    for i, n in enumerate(DISTANCE_SIZES):
        rng = np.random.default_rng((seed, i))
        half = n // 2
        a = generate_csbm(CsbmParams(
            n=n, feature_dim=DISTANCE_FEATURES, p=min(1.0, 6.0 / half),
            q=min(1.0, 1.0 / half), seed=int(rng.integers(2 ** 31))))
        ga = make_graph(a.edges, a.x / np.sqrt(DISTANCE_FEATURES), a.labels)
        m = int(round(KEEP_SHARE * n))
        source = rng.permutation(n)[:m]
        where = np.full(n, -1)
        where[source] = np.arange(m)
        edges = where[ga.edges]
        edges = edges[(edges >= 0).all(axis=1)]
        edges = edges[rng.random(len(edges)) >= EDGE_DROP]
        xb = ga.x[source] + FEATURE_NOISE * rng.standard_normal(
            (m, DISTANCE_FEATURES))
        pairs.append((ga, make_graph(edges, xb), source))
    return pairs


def distance(ga, gb, cfg, spans: Spans):
    """One distance as `fgwcl distance` computes it: dense adjacencies,
    ot.build_cost_matrices, ot.bapg_fgwd. Returns (costs, plan)."""
    with spans.span("graph.prepare"):
        a1, a2 = ga.adjacency.toarray(), gb.adjacency.toarray()
    with spans.span("ot.cost"):
        costs = ot.build_cost_matrices(a1, a2, ga.x, gb.x, cfg.tau)
    with spans.span("ot.solve"):
        plan = ot.bapg_fgwd(costs, np.full(ga.n, 1.0 / ga.n),
                            np.full(gb.n, 1.0 / gb.n), cfg)
    return costs, plan


def check_distance(report: Report, where: str, ga, gb, plan, cfg) -> None:
    for fault in checks.plan_problems(plan.P, plan.nu, 1e-12):
        report.fail(f"{where}: {fault}")
    M, C1, C2 = checks.exp_costs(ga.adjacency.toarray(),
                                 gb.adjacency.toarray(), ga.x, gb.x, cfg.tau)
    own = checks.fgw_quadratic(M, C1, C2, plan.P, cfg.alpha)
    report.expect(plan.objective >= 0.0,
                  f"{where}: negative distance {plan.objective!r}")
    report.expect(checks.close(plan.objective, own, 1e-10),
                  f"{where}: distance {plan.objective!r} vs own evaluation "
                  f"{own!r}")


def distance_rounds(pairs, cfg, seconds: float, report: Report,
                    t_start: float, spans=None, on_plan=None) -> dict:
    """Closed loop of passes over the pair set; every distance is checked
    off the clock, and every pass must reproduce the first pass.

    With spans given, even passes are traced (spans around each call and
    on_plan after each solve) and odd passes run untraced, so the two are
    timed under the same conditions."""
    values: list[float] = []
    passes = {True: [], False: []}
    hits = 0
    state = {}

    def one_round(r: int):
        nonlocal hits
        if r == 0:
            state["setup_s"] = time.perf_counter() - t_start
        traced = spans is not None and r % 2 == 0
        busy = 0.0
        for i, (ga, gb, source) in enumerate(pairs):
            ad.reset_tape()
            t0 = time.perf_counter()
            costs, plan = distance(ga, gb, cfg, spans if traced else Spans())
            if traced:
                on_plan(costs, plan)
            busy += time.perf_counter() - t0
            check_distance(report, f"round {r} pair {i}", ga, gb, plan, cfg)
            if r == 0:
                values.append(plan.objective)
                hits += int((plan.P.argmax(axis=0) == source).sum())
            elif plan.objective != values[i]:
                report.fail(f"round {r} pair {i}: distance differs from "
                            f"round 0 at equal inputs")
        passes[traced].append(busy)

    rounds = closed_loop(seconds, one_round,
                         min_rounds=1 if spans is None else 2)
    return {"rounds": rounds, "traced_s": passes[True],
            "untraced_s": passes[False], "values": values, "hits": hits,
            "setup_s": state["setup_s"]}


def run_distance(seed: int, seconds: float, t_start: float) -> dict:
    pairs = distance_inputs(seed)
    cfg = ot.FgwConfig(**DISTANCE_FGW)
    report = Report()
    loop = distance_rounds(pairs, cfg, seconds, report, t_start)
    rss = peak_rss_mb()
    pass_s = loop["untraced_s"]
    return {
        "report": report,
        "attempted": loop["rounds"] * len(pairs),
        "failed": 0,
        "metrics": {
            "setup_s": loop["setup_s"],
            "epoch_s": statistics.median(pass_s),
            "peak_rss_mb": rss,
            "probe_acc": loop["hits"] / sum(gb.n for _, gb, _ in pairs),
            "distances_per_s": len(pairs) / statistics.median(pass_s),
        },
        "details": {"pass_s": pass_s, "values": loop["values"]},
    }


# per-layer metrics of layers a distance never calls; they read 0
NOT_CALLED_BY_DISTANCE = (
    "autodiff.backward_ms", "autodiff.backward_peak_mb", "losses.node_ms",
    "losses.node_peak_mb", "losses.fusion_ms", "sampling.sample_ms",
    "sampling.anchors_used", "model.encode_ms", "model.generate_ms",
    "model.fuse_ms", "optim.adam_ms", "evaluate.embed_ms",
    "evaluate.probe_ms")


def trace_distance(seed: int, seconds: float, t_start: float) -> dict:
    pairs = distance_inputs(seed)
    cfg = ot.FgwConfig(**DISTANCE_FGW)
    report = Report()

    spans = Spans()
    solves = []

    def on_plan(costs, plan):
        # the objective at the solved plan, as bapg_fgwd's last step
        # evaluates it, timed as a call of its own
        with spans.span("ot.objective"):
            lp = ot.tensor_product(costs.C1.data, costs.C2.data, plan.P)
            value = float(((cfg.alpha * costs.M.data
                            + (1.0 - cfg.alpha) * lp) * plan.P).sum())
        report.expect(checks.close(value, plan.objective, 1e-12),
                      f"objective {value!r} vs bapg_fgwd {plan.objective!r}")
        solves.append((plan.iterations, plan.residual,
                       len(ad.active_tape())))

    loop = distance_rounds(pairs, cfg, seconds, report, t_start, spans,
                           on_plan)

    # memory pass: what one distance leaves held once its results are gone
    retained = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for ga, gb, _ in pairs:
            ad.reset_tape()
            distance(ga, gb, cfg, Spans())
            retained.append((tracemalloc.get_traced_memory()[0] - base) / MB)
    finally:
        tracemalloc.stop()

    done = len(solves)
    iters, resid, tape = (np.asarray(c, dtype=float) for c in zip(*solves))
    per_op = {k: v / done * 1e3 for k, v in spans.seconds.items()}
    pass_ms = statistics.median(loop["traced_s"]) * 1e3
    untraced_ms = statistics.median(loop["untraced_s"]) * 1e3
    metrics = {name: 0.0 for name in NOT_CALLED_BY_DISTANCE}
    metrics.update({
        "ot.solve_ms": per_op["ot.solve"],
        "ot.objective_ms": per_op["ot.objective"],
        "ot.cost_ms": per_op["ot.cost"],
        "ot.pairs": 1.0,
        "ot.iters_mean": float(iters.mean()),
        "ot.converged_ratio": float((iters < cfg.max_iters).mean()),
        "ot.row_residual_max": float(resid.max()),
        "kernels.bapg_us_per_iter": spans.seconds["ot.solve"] / iters.sum()
        * 1e6,
        "autodiff.tape_ops": float(tape.mean()),
        "autodiff.retained_mb": max(retained),
        "graph.prepare_ms": per_op["graph.prepare"],
        "train.epoch_ms": pass_ms,
        "train.trace_overhead_ms": pass_ms - untraced_ms,
        **micro_metrics(seed),
    })
    return {"report": report, "attempted": loop["rounds"] * len(pairs),
            "failed": 0, "metrics": metrics,
            "details": {"retained_mb": retained, "rounds": loop["rounds"],
                        "traced_s": loop["traced_s"],
                        "untraced_s": loop["untraced_s"]}}


def micro_metrics(seed: int) -> dict:
    return {f"kernels.bapg_us_per_iter.k{k}": bapg_us_per_iter(k, seed=seed)
            for k in MICRO_K}
