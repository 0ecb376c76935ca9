"""Command-line interface.

Commands: train, eval, sweep-alpha, bench, distance. Every command
accepts --config (JSON with exact TrainConfig field names), --seed
(overrides the config seed) and --out (artifact directory).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import TrainConfig, load_config
from .evaluate import evaluate
from .experiments import bench_timing, sweep_alpha
from .graph import load_graph
from .model import restore_model
from .ot import FgwConfig, bapg_fgwd, build_cost_matrices
from .train import train

log = logging.getLogger(__name__)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _default_grid() -> list[float]:
    return [round(0.1 * i, 1) for i in range(11)]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--out", default="out", help="artifact directory")


def _add_graph_args(parser: argparse.ArgumentParser,
                    labels_required: bool) -> None:
    parser.add_argument("--edges", required=True, help="edge list file")
    parser.add_argument("--features", required=True,
                        help="node feature file")
    parser.add_argument("--labels", required=labels_required,
                        help="node label file")


def _load_cfg(args) -> TrainConfig:
    cfg = load_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = TrainConfig(**{**cfg.to_dict(), "seed": args.seed})
    return cfg


def _load_graph(args):
    return load_graph(args.edges, args.features, args.labels)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgwcl",
        description="Graph self-supervised learning with fused "
                    "Gromov-Wasserstein subgraph contrast")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run self-supervised training")
    _add_common(p)
    _add_graph_args(p, labels_required=False)

    p = sub.add_parser("eval", help="probe a checkpoint's embeddings")
    _add_common(p)
    _add_graph_args(p, labels_required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split-mode", default="fractional",
                   choices=["fractional", "planetoid"])
    p.add_argument("--eval-seeds", type=int, default=10)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--train-fraction", type=float, default=0.6)

    p = sub.add_parser("sweep-alpha",
                       help="train and probe across interpolation weights")
    _add_common(p)
    _add_graph_args(p, labels_required=True)
    p.add_argument("--grid", type=_float_list, default=None,
                   help="comma-separated alpha values (default 0,0.1,..,1)")
    p.add_argument("--sweep-seeds", type=int, default=5)
    p.add_argument("--split-mode", default="fractional",
                   choices=["fractional", "planetoid"])

    p = sub.add_parser("bench", help="time training phases across sizes")
    _add_common(p)
    p.add_argument("--sizes", type=_int_list, required=True,
                   help="comma-separated node counts")
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--feature-dim", type=int, default=32)

    p = sub.add_parser("distance",
                       help="transport distance between two graphs")
    _add_common(p)
    p.add_argument("--edges-a", required=True)
    p.add_argument("--features-a", required=True)
    p.add_argument("--edges-b", required=True)
    p.add_argument("--features-b", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--bapg-iters", type=int, default=50)
    p.add_argument("--bapg-tol", type=float, default=1e-6)
    return parser


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    g = _load_graph(args)
    result = train(cfg, g, args.out)
    print(result.summary_path.read_text(), end="")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    g = _load_graph(args)
    model = restore_model(args.checkpoint)
    report = evaluate(model, g, cfg, split_mode=args.split_mode,
                      seeds=args.eval_seeds, per_class=args.per_class,
                      train_fraction=args.train_fraction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    g = _load_graph(args)
    grid = args.grid if args.grid is not None else _default_grid()
    rows = sweep_alpha(cfg, g, grid, args.out, seeds=args.sweep_seeds,
                       split_mode=args.split_mode)
    print(json.dumps(rows, indent=2))
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    rows = bench_timing(args.sizes, cfg, args.out, iters=args.iters,
                        warmup=args.warmup, feature_dim=args.feature_dim)
    print(json.dumps(rows, indent=2))
    return 0


def _cmd_distance(args) -> int:
    g_a = load_graph(args.edges_a, args.features_a)
    g_b = load_graph(args.edges_b, args.features_b)
    if g_a.num_features != g_b.num_features:
        raise ValueError(
            f"feature dimensions differ: {g_a.num_features} vs "
            f"{g_b.num_features}")
    cfg = FgwConfig(alpha=args.alpha, beta=args.beta, tau=args.tau,
                    max_iters=args.bapg_iters, tol=args.bapg_tol)
    costs = build_cost_matrices(g_a.adjacency.toarray(),
                                g_b.adjacency.toarray(), g_a.x, g_b.x,
                                cfg.tau)
    mu = np.full(g_a.n, 1.0 / g_a.n)
    nu = np.full(g_b.n, 1.0 / g_b.n)
    plan = bapg_fgwd(costs, mu, nu, cfg)
    print(json.dumps({
        "value": plan.objective,
        "plan": plan.P.tolist(),
        "iterations": plan.iterations,
        "residual": plan.residual,
        "status": plan.status,
    }, indent=2))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep-alpha": _cmd_sweep,
    "bench": _cmd_bench,
    "distance": _cmd_distance,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
