import gc
import json
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgwcl import autodiff as ad
from fgwcl import train as train_module
from fgwcl.kernels import STATUS_NON_FINITE, KernelBackend, get_backend
from fgwcl.losses import batch_indices
from fgwcl.model import load_checkpoint, prepare_graph
from fgwcl.optim import AdamState, zero_grads
from fgwcl.train import (PHASES, _epoch_views, _record, apply_update,
                         build_model, epoch_plans, epoch_seed, fgw_config,
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
        assert summary["divergence"] is None
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
            assert rec["ot_plan_zero_share"] is None
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
        assert summary["divergence"]["epoch"] == len(result.records)
        assert summary["divergence"]["error"]
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
            assert 0.0 <= rec["ot_plan_zero_share"] <= 1.0

    def test_gate_and_channel_fields_in_every_record(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, tiny_graph(), tmp_path / "run")
        summary = json.loads(result.summary_path.read_text())
        records = load_metrics(result.metrics_path)
        assert len(records) == cfg.epochs
        for rec in records + [summary["final"]]:
            fields = [rec[k] for k in ("lam_mean", "lam_min", "lam_max",
                                       "h_f_norm_mean", "h_s_norm_mean")]
            assert np.isfinite(fields).all()
            assert 0.0 <= rec["lam_min"] <= rec["lam_mean"] \
                <= rec["lam_max"] <= 1.0
            assert rec["h_f_norm_mean"] > 0.0 and rec["h_s_norm_mean"] > 0.0

    @pytest.mark.parametrize("node_loss", ["full", "v2"])
    def test_node_rows_in_every_record(self, tmp_path, node_loss):
        # the index count and the distinct rows the node loss ran over:
        # N and N for the full loss; for v2 the batch's k slots per anchor
        # and the distinct nodes among them, which the epoch's sampling
        # alone fixes
        g = tiny_graph()
        cfg = tiny_config(node_loss=node_loss)
        result = train(cfg, g, tmp_path / "run")
        summary = json.loads(result.summary_path.read_text())
        records = load_metrics(result.metrics_path)
        assert len(records) == cfg.epochs
        assert summary["final"] == records[-1]
        model = build_model(cfg, g)
        gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
        for rec in records:
            if node_loss == "full":
                want = (g.n, g.n)
            else:
                batch = _epoch_views(model, gt, cfg, rec["epoch"])[5]
                idx = batch_indices(batch)
                assert idx.size == rec["anchors_used"] * cfg.k
                want = (idx.size, np.unique(idx).size)
            assert (rec["node_rows"], rec["node_rows_distinct"]) == want
        if node_loss == "v2":
            assert any(rec["node_rows_distinct"] < rec["node_rows"]
                       for rec in records)

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
        assert set(times) == {"encode", "generate", "sample", "ot", "node",
                              "solve"}

    @pytest.mark.parametrize("node_loss", ["full", "v2"])
    def test_apply_update_consumes_the_tape(self, node_loss):
        g = tiny_graph()
        cfg = tiny_config(node_loss=node_loss)
        model = build_model(cfg, g)
        before = {k: p.data.copy() for k, p in model.params.items()}
        breakdown, _ = run_epoch(model, prepare_graph(g), cfg,
                                 fgw_config(cfg), get_backend(), epoch=0)
        assert len(ad.active_tape()) > 0
        apply_update(model, breakdown,
                     AdamState(model.encoder_generator_params(), cfg.lr),
                     AdamState(model.fusion_params(), cfg.lr_fusion))
        assert len(ad.active_tape()) == 0
        assert all(p.grad is None for p in model.params.values())
        assert any(not np.array_equal(p.data, before[k])
                   for k, p in model.params.items())


def _params_and_grads(model, breakdown):
    """The model's gradients after backward from the breakdown's total;
    leaves the gradients zeroed."""
    ad.backward(breakdown.total)
    grads = {k: np.copy(p.grad) for k, p in model.params.items()
             if p.grad is not None}
    zero_grads(model.params)
    return grads


def _slow_backend(seconds, done):
    """The kernel backend, with each stacked solve held `seconds` longer
    and counted in `done` once it returns."""
    real = get_backend()

    def bapg_batch(*args):
        time.sleep(seconds)
        out = real.bapg_batch(*args)
        done.append(True)
        return out

    return KernelBackend(real.bapg, bapg_batch)


class TestOverlappedSolve:
    @pytest.mark.parametrize("node_loss", ["full", "v2"])
    def test_matches_the_epoch_at_given_plans(self, node_loss):
        # the worker's plans are those epoch_plans solves, and the loss,
        # its gradients and every non-time record field come out the same
        g = tiny_graph()
        cfg = tiny_config(node_loss=node_loss)
        fgw = fgw_config(cfg)
        model = build_model(cfg, g)
        gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
        for epoch in range(2):
            plans = epoch_plans(model, gt, cfg, fgw, None, epoch)
            given, given_times = run_epoch(model, gt, cfg, fgw, None, epoch,
                                           plans=plans)
            given_rec = _record(epoch, given, given_times)
            given_grads = _params_and_grads(model, given)
            solved, times = run_epoch(model, gt, cfg, fgw, None, epoch)
            rec = _record(epoch, solved, times)
            grads = _params_and_grads(model, solved)
            assert solved.total.item == given.total.item
            assert grads.keys() == given_grads.keys()
            for name, grad in grads.items():
                assert np.array_equal(grad, given_grads[name]), name
            assert "solve" not in given_times and times["solve"] > 0.0
            assert given_rec["time_solve_ms"] == 0.0
            same = [k for k in rec if not k.startswith("time_")
                    and k != "peak_rss_mb"]
            assert {k: rec[k] for k in same} == {k: given_rec[k]
                                                 for k in same}

    def test_solve_error_reaches_train_as_a_divergence(self, tmp_path):
        # a non-finite plan in the second epoch's stack, raised on the
        # worker, stops training there with the solve's own message
        real = get_backend()
        calls = []

        def bapg_batch(*args):
            P, iters, status, residual = real.bapg_batch(*args)
            calls.append(True)
            if len(calls) == 2:
                status[1] = STATUS_NON_FINITE
            return P, iters, status, residual

        cfg = tiny_config(epochs=3)
        result = train(cfg, tiny_graph(), tmp_path / "run",
                       backend=KernelBackend(real.bapg, bapg_batch))
        summary = json.loads(result.summary_path.read_text())
        assert result.diverged and len(result.records) == 1
        assert summary["divergence"]["epoch"] == 1
        assert summary["divergence"]["error"].startswith(
            "bapg_fgwd: non-finite plan in problem 1")

    def test_calling_thread_error_still_joins_the_worker(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("fusion failed")

        monkeypatch.setattr(train_module, "loss_fusion", fail)
        g = tiny_graph()
        cfg = tiny_config()
        done = []
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fusion failed"):
            run_epoch(build_model(cfg, g), prepare_graph(g), cfg,
                      fgw_config(cfg), _slow_backend(0.2, done), 0)
        assert done == [True]
        assert threading.active_count() == before

    def test_train_leaves_no_thread(self, tmp_path):
        before = threading.active_count()
        result = train(tiny_config(epochs=2), tiny_graph(), tmp_path / "run")
        assert [rec["time_solve_ms"] > 0.0 for rec in result.records] == [
            True, True]
        assert threading.active_count() == before

    def test_given_plans_start_no_thread(self, monkeypatch):
        g = tiny_graph()
        cfg = tiny_config()
        fgw = fgw_config(cfg)
        model = build_model(cfg, g)
        gt = prepare_graph(g)
        plans = epoch_plans(model, gt, cfg, fgw, None, 0)

        def no_thread(*args, **kw):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        breakdown, times = run_epoch(model, gt, cfg, fgw, None, 0,
                                     plans=plans)
        assert np.isfinite(breakdown.total.item)
        assert "solve" not in times
