import gc
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgwcl import autodiff as ad
from fgwcl.model import load_checkpoint
from fgwcl.train import (PHASES, build_model, epoch_seed, fgw_config,
                         run_epoch, train)
from conftest import tiny_config, tiny_graph


def load_metrics(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTrainLoop:
    def test_artifacts_and_stream_shape(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, tiny_graph(), tmp_path / "run")
        assert result.checkpoint_path.exists()
        assert result.summary_path.exists()
        records = load_metrics(result.metrics_path)
        assert len(records) == cfg.epochs
        for rec in records:
            for key in ("epoch", "l_ot", "l_node", "l_fusion", "total",
                        "anchors_used", "anchors_excluded"):
                assert key in rec
            for phase in PHASES:
                assert rec[f"time_{phase}_ms"] >= 0.0
            assert np.isfinite(rec["total"])
        summary = json.loads(result.summary_path.read_text())
        assert summary["epochs_run"] == cfg.epochs
        assert summary["diverged"] is False
        assert summary["config"]["alpha"] == cfg.alpha

    def test_deterministic_loss_stream(self, tmp_path):
        g = tiny_graph()
        r1 = train(tiny_config(), g, tmp_path / "a")
        r2 = train(tiny_config(), g, tmp_path / "b")
        for m1, m2 in zip(load_metrics(r1.metrics_path),
                          load_metrics(r2.metrics_path)):
            for key in ("l_ot", "l_node", "l_fusion", "total"):
                assert m1[key] == m2[key]

    def test_different_seed_changes_stream(self, tmp_path):
        g = tiny_graph()
        r1 = train(tiny_config(seed=0), g, tmp_path / "a")
        r2 = train(tiny_config(seed=1), g, tmp_path / "b")
        t1 = [m["total"] for m in load_metrics(r1.metrics_path)]
        t2 = [m["total"] for m in load_metrics(r2.metrics_path)]
        assert t1 != t2

    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path):
        g = tiny_graph()
        cfg = tiny_config(epochs=0)
        result = train(cfg, g, tmp_path / "run")
        assert result.records == []
        _, arrays = load_checkpoint(result.checkpoint_path)
        fresh = build_model(cfg, g)
        for name, tensor in fresh.params.items():
            assert_allclose(arrays[name], tensor.data)

    def test_loss_trends_down(self, tmp_path):
        cfg = tiny_config(epochs=12, lr=5e-3, lr_fusion=5e-3)
        result = train(cfg, tiny_graph(), tmp_path / "run")
        totals = [m["total"] for m in result.records]
        assert totals[-1] < totals[0]

    def test_single_anchor_skips_ot_but_trains(self, tmp_path):
        cfg = tiny_config(num_anchors=1, epochs=2)
        result = train(cfg, tiny_graph(), tmp_path / "run")
        for rec in result.records:
            assert rec["l_ot"] is None
            assert "ot" in rec["skipped"]
            assert np.isfinite(rec["total"])

    def test_v2_node_loss_runs(self, tmp_path):
        cfg = tiny_config(node_loss="v2", epochs=2)
        result = train(cfg, tiny_graph(), tmp_path / "run")
        for rec in result.records:
            assert rec["l_node"] is not None and np.isfinite(rec["l_node"])

    def test_divergence_keeps_last_good_weights(self, tmp_path):
        cfg = tiny_config(lr=1e8, lr_fusion=1e8, epochs=6)
        result = train(cfg, tiny_graph(), tmp_path / "run")
        assert result.diverged
        assert 0 < len(result.records) < cfg.epochs
        summary = json.loads(result.summary_path.read_text())
        assert summary["diverged"] is True
        # the checkpoint must hold the retained (finite) weights
        _, arrays = load_checkpoint(result.checkpoint_path)
        for name, arr in arrays.items():
            assert np.all(np.isfinite(arr)), name
            assert_allclose(arr, result.model.params[name].data)

    def test_no_tape_outlives_training(self, tmp_path):
        g = tiny_graph()
        gc.collect()
        gc.disable()
        try:
            train(tiny_config(), g, tmp_path / "run")
            held = [o for o in gc.get_objects()
                    if isinstance(o, ad.Tape) and len(o)]
        finally:
            gc.enable()
        assert held == []

    def test_solver_telemetry_in_every_record(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, tiny_graph(), tmp_path / "run")
        summary = json.loads(result.summary_path.read_text())
        lines = result.metrics_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == cfg.epochs
        for rec in records + [summary["final"]]:
            assert 1.0 <= rec["ot_iters_mean"] <= rec["ot_iters_max"]
            assert isinstance(rec["ot_iters_max"], int)
            assert rec["ot_iters_max"] <= cfg.bapg_iters
            assert 0.0 <= rec["ot_capped_share"] <= 1.0
            assert 0.0 <= rec["ot_infeasible_share"] <= 1.0
            assert 0.0 <= rec["ot_row_residual_max"] <= 1.0

    def test_peak_rss_in_every_record(self, tmp_path):
        cfg = tiny_config(epochs=3)
        result = train(cfg, tiny_graph(), tmp_path / "run")
        summary = json.loads(result.summary_path.read_text())
        records = load_metrics(result.metrics_path)
        peaks = [rec["peak_rss_mb"] for rec in records]
        assert len(peaks) == cfg.epochs
        assert all(p > 0.0 for p in peaks)
        assert peaks == sorted(peaks)
        assert summary["final"]["peak_rss_mb"] == peaks[-1]


class TestHelpers:
    def test_epoch_seed_distinct_streams(self):
        seen = {epoch_seed(0, e, s) for e in range(10) for s in range(2)}
        assert len(seen) == 20
        assert epoch_seed(3, 5, 0) == epoch_seed(3, 5, 0)

    def test_fgw_config_maps_fields(self):
        cfg = tiny_config(alpha=0.3, beta=0.7, bapg_iters=33,
                          bapg_tol=1e-4, tau=0.9)
        fgw = fgw_config(cfg)
        assert fgw.alpha == 0.3 and fgw.beta == 0.7
        assert fgw.max_iters == 33 and fgw.tol == 1e-4 and fgw.tau == 0.9

    def test_run_epoch_standalone(self):
        g = tiny_graph()
        cfg = tiny_config()
        model = build_model(cfg, g)
        from fgwcl.kernels import get_backend
        from fgwcl.model import prepare_graph
        gt = prepare_graph(g)
        breakdown, times = run_epoch(model, gt, cfg, fgw_config(cfg),
                                     get_backend(), epoch=0)
        assert np.isfinite(breakdown.total.item)
        assert set(times) == {"encode", "generate", "sample", "ot", "node"}
