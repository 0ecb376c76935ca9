"""The calls the benchmark under bench/ makes into the package, run at toy
size, so a signature change that would break the benchmark fails here."""

import importlib.util
from pathlib import Path

import pytest

from fgwcl import train
from fgwcl.kernels import get_backend
from fgwcl.model import prepare_graph
from fgwcl.optim import AdamState
from conftest import tiny_config, tiny_graph

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
