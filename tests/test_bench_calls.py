"""The calls the benchmark under bench/ makes into the package, run at toy
size, so a signature change that would break the benchmark fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

from fgwcl import ot, train
from fgwcl.kernels import get_backend
from fgwcl.model import prepare_graph
from fgwcl.optim import AdamState
from conftest import tiny_config, tiny_graph

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, filename: str):
    """A bench/ module by path; its own imports of sibling modules
    (checks, tracing) resolve while it loads."""
    spec = importlib.util.spec_from_file_location(name, _BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(_BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH))
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("bench_tracing", "tracing.py")


@pytest.fixture(scope="module")
def workloads():
    return _load("bench_workloads", "workloads.py")


def test_bapg_microbenchmark_runs_its_full_budget(tracing):
    assert tracing.bapg_us_per_iter(4, instances=2, iters=3, repeats=1) > 0.0


def test_traced_epoch_total_matches_run_epoch(tracing):
    g = tiny_graph()
    cfg = tiny_config()
    fgw = train.fgw_config(cfg)
    backend = get_backend()
    model = train.build_model(cfg, g)
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    breakdown, _ = train.run_epoch(model, gt, cfg, fgw, backend, 0)
    reference = breakdown.total.item
    enc = AdamState(model.encoder_generator_params(), cfg.lr)
    fus = AdamState(model.fusion_params(), cfg.lr_fusion)
    traced = tracing.traced_epoch(model, gt, cfg, fgw, backend, enc, fus, 0,
                                  tracing.Spans())
    assert traced["total"] == pytest.approx(reference, abs=1e-12, rel=0)


def test_check_pairs_finds_no_problems(workloads):
    # reads the batch's originals/perturbed/negatives views, checks every
    # plan's feasibility and the taped l_ot against 4-index FGW values
    g = tiny_graph()
    cfg = tiny_config()
    fgw = train.fgw_config(cfg)
    model = train.build_model(cfg, g)
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    report = workloads.Report()
    plans = workloads.check_pairs(report, model, gt, cfg, fgw, get_backend(),
                                  0)
    assert len(plans) == 18
    assert report.problems == []


@pytest.mark.parametrize("node_loss", ["full", "v2"])
def test_check_gradient_finds_no_problems(workloads, node_loss):
    # central differences of the run_epoch total along random directions,
    # plans held fixed, against the taped gradient
    g = tiny_graph()
    cfg = tiny_config(node_loss=node_loss)
    fgw = train.fgw_config(cfg)
    backend = get_backend()
    model = train.build_model(cfg, g)
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    plans = train.epoch_plans(model, gt, cfg, fgw, backend, 0)
    report = workloads.Report()
    workloads.check_gradient(report, model, gt, cfg, fgw, backend, 0, plans,
                             seed=0)
    assert report.problems == []


def test_distance_pair_passes_its_checks(workloads):
    # the first, smallest distance-pairs instance: ot.FgwConfig,
    # build_cost_matrices and bapg_fgwd, checked against the 4-index value
    ga, gb, _ = workloads.distance_inputs(0)[0]
    cfg = ot.FgwConfig(**workloads.DISTANCE_FGW)
    _, plan = workloads.distance(ga, gb, cfg, workloads.Spans())
    report = workloads.Report()
    workloads.check_distance(report, "pair 0", ga, gb, plan, cfg)
    assert report.problems == []


def test_probe_beats_majority(workloads):
    # evaluate.embed and linear_probe over the bench's split seeds
    g = tiny_graph()
    cfg = tiny_config()
    model = train.build_model(cfg, g)
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    report = workloads.Report()
    workloads.probe(report, model, g, gt, workloads.Spans())
    assert report.problems == []
