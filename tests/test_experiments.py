import json

import numpy as np
import pytest

from fgwcl.config import TrainConfig
from fgwcl.experiments import bench_graph_params, bench_timing, sweep_alpha
from fgwcl.graph import CsbmParams, generate_csbm
from fgwcl.train import PHASES


def tiny_cfg(**kw):
    base = dict(lr=2e-3, alpha=0.5, beta=5.0, k=4, num_anchors=5,
                epochs=1, hidden_dim=6, out_dim=4, bapg_iters=8)
    base.update(kw)
    return TrainConfig(**base)


def tiny_graph(seed=0):
    return generate_csbm(CsbmParams(n=50, feature_dim=6, p=0.3, q=0.05,
                                    seed=seed))


class TestSweep:
    def test_row_per_grid_value(self, tmp_path):
        rows = sweep_alpha(tiny_cfg(), tiny_graph(), [0.0, 0.5, 1.0],
                           tmp_path, seeds=1)
        assert [r["alpha"] for r in rows] == [0.0, 0.5, 1.0]
        for row in rows:
            assert len(row["per_seed"]) == 1
            assert 0.0 <= row["mean_accuracy"] <= 1.0
            assert row["std_accuracy"] >= 0.0
        saved = json.loads((tmp_path / "sweep.json").read_text())
        assert saved == rows

    def test_single_value_grid(self, tmp_path):
        rows = sweep_alpha(tiny_cfg(), tiny_graph(), [0.5], tmp_path,
                           seeds=2)
        assert len(rows) == 1
        assert len(rows[0]["per_seed"]) == 2

    def test_bad_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_alpha(tiny_cfg(), tiny_graph(), [], tmp_path)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            sweep_alpha(tiny_cfg(), tiny_graph(), [1.2], tmp_path)

    def test_no_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one seed"):
            sweep_alpha(tiny_cfg(), tiny_graph(), [0.5], tmp_path, seeds=0)
        assert not (tmp_path / "sweep.json").exists()

    def test_needs_labels(self, tmp_path, rng):
        from fgwcl.graph import make_graph
        g = make_graph([(0, 1)], rng.standard_normal((4, 6)))
        with pytest.raises(ValueError, match="labels"):
            sweep_alpha(tiny_cfg(), g, [0.5], tmp_path)


class TestBench:
    def test_rows_and_accounting(self, tmp_path):
        rows = bench_timing([50, 80], tiny_cfg(), tmp_path, iters=2,
                            warmup=1, feature_dim=6)
        assert [r["n"] for r in rows] == [50, 80]
        for row in rows:
            phase_sum = sum(row[f"time_{p}_ms"] for p in PHASES)
            assert all(row[f"time_{p}_ms"] >= 0.0 for p in PHASES)
            assert row["time_solve_ms"] > 0.0
            # phases account for the epoch wall time
            assert phase_sum <= row["time_epoch_ms"] * 1.10
            assert phase_sum >= row["time_epoch_ms"] * 0.90
        saved = json.loads((tmp_path / "bench.json").read_text())
        assert [r["n"] for r in saved] == [50, 80]

    def test_same_seed_same_graphs(self, tmp_path):
        r1 = bench_timing([60], tiny_cfg(), tmp_path / "a", iters=1,
                          warmup=0, feature_dim=6)
        r2 = bench_timing([60], tiny_cfg(), tmp_path / "b", iters=1,
                          warmup=0, feature_dim=6)
        assert r1[0]["num_edges"] == r2[0]["num_edges"]

    def test_degree_stays_constant_across_sizes(self):
        small = bench_graph_params(1000)
        large = bench_graph_params(10000)
        assert small.p * (1000 // 2) == pytest.approx(
            large.p * (10000 // 2))

    def test_bad_iteration_counts_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="iters"):
            bench_timing([50], tiny_cfg(), tmp_path, iters=0)
