"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with its measured numbers (run with -s to see
them).  Oracles are computed inside the tests with plain loops or
exhaustive enumeration, independent of the library kernels.
"""

import itertools
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from fgwcl import autodiff as ad
from fgwcl.config import TrainConfig
from fgwcl.evaluate import embed, linear_probe, majority_rate
from fgwcl.experiments import bench_graph_params, bench_timing
from fgwcl.graph import CsbmParams, generate_csbm, load_graph, make_splits
from fgwcl.kernels import get_backend
from fgwcl.losses import (batch_indices, loss_fusion, loss_node,
                          loss_node_v2)
from fgwcl.model import prepare_graph
from fgwcl.ot import CostMatrices, FgwConfig, bapg_fgwd, tensor_product
from fgwcl.sampling import sample_contrast_batch
from fgwcl.train import (build_model, epoch_plans, fgw_config, run_epoch,
                         train)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    return ok


def binary_sym_adjacency(rng, n, p=0.5):
    a = (rng.random((n, n)) < p).astype(np.float64)
    a = np.triu(a, 1)
    return a + a.T


def raw_costs(M, C1, C2, tau=1.0):
    return CostMatrices(M=ad.constant(M), C1=ad.constant(C1),
                        C2=ad.constant(C2), tau=tau)


def uniform(n):
    return np.full(n, 1.0 / n)


class TestTransportSolver:
    def test_01_tensor_product_matches_naive_sum(self):
        t0 = time.perf_counter()
        worst = 0.0
        for i in range(50):
            rng = np.random.default_rng(1000 + i)
            n, m = (int(v) for v in rng.integers(2, 7, size=2))
            C1 = rng.uniform(0.0, 1.0, (n, n))
            C2 = rng.uniform(0.0, 1.0, (m, m))
            P = rng.uniform(0.0, 1.0, (n, m))
            P /= P.sum()
            got = tensor_product(C1, C2, P)
            naive = np.zeros((n, m))
            for a in range(n):
                for b in range(m):
                    acc = 0.0
                    for c in range(n):
                        for d in range(m):
                            acc += (C1[a, c] - C2[b, d]) ** 2 * P[c, d]
                    naive[a, b] = acc
            worst = max(worst, float(np.abs(got - naive).max()))
        dt = time.perf_counter() - t0
        ok = worst <= 1e-10 and dt < 5.0
        assert report("criterion 01 tensor-product oracle", ok,
                      f"50 instances, max abs diff {worst:.2e}, {dt:.2f}s")

    def test_02_bapg_plans_are_feasible(self):
        t0 = time.perf_counter()
        worst_col = worst_row = 0.0
        min_obj = np.inf
        negatives = 0
        cfg_tol = 1e-3
        for i in range(100):
            rng = np.random.default_rng(2000 + i)
            n, m = (int(v) for v in rng.integers(2, 9, size=2))
            M = rng.uniform(0.0, 1.0, (n, m)) + 1e-12
            C1 = np.exp(-binary_sym_adjacency(rng, n))
            C2 = np.exp(-binary_sym_adjacency(rng, m))
            cfg = FgwConfig(alpha=float(rng.uniform()), beta=100.0,
                            max_iters=5000, tol=cfg_tol, seed=i)
            plan = bapg_fgwd(raw_costs(M, C1, C2), uniform(n), uniform(m),
                            cfg)
            worst_col = max(worst_col,
                            float(np.abs(plan.P.sum(0) - uniform(m)).max()))
            worst_row = max(worst_row,
                            float(np.abs(plan.P.sum(1) - uniform(n)).max()))
            min_obj = min(min_obj, plan.objective)
            negatives += int((plan.P < 0).sum())
        dt = time.perf_counter() - t0
        ok = (worst_col <= 1e-12 and worst_row <= cfg_tol
              and min_obj >= 0.0 and negatives == 0)
        assert report(
            "criterion 02 BAPG feasibility", ok,
            f"100 instances, col {worst_col:.2e}, row {worst_row:.2e} "
            f"(eps {cfg_tol:.0e}), min objective {min_obj:.2e}, "
            f"{negatives} negative entries, {dt:.2f}s")

    def test_03_pure_feature_endpoint_matches_permutation_optimum(self):
        t0 = time.perf_counter()
        worst_rel = 0.0
        for i in range(20):
            rng = np.random.default_rng(3000 + i)
            n = 3 + i % 6
            M = rng.uniform(0.0, 1.0, (n, n))
            C = np.exp(-binary_sym_adjacency(rng, n))
            cfg = FgwConfig(alpha=1.0, beta=10.0, max_iters=200000,
                            tol=1e-9, seed=i)
            plan = bapg_fgwd(raw_costs(M, C, C), uniform(n), uniform(n),
                            cfg)
            # alpha=1 makes the objective linear, so some permutation
            # matrix / n attains the polytope optimum
            best = min(M[np.arange(n), list(perm)].sum() / n
                       for perm in itertools.permutations(range(n)))
            gap = abs(plan.objective - best)
            if gap > 1e-3:
                worst_rel = max(worst_rel, gap / best)
        dt = time.perf_counter() - t0
        ok = worst_rel <= 0.05
        assert report(
            "criterion 03 pure-feature endpoint", ok,
            f"20 instances n=3..8, worst rel gap {worst_rel:.2%}, "
            f"{dt:.1f}s")

    def test_04_structure_endpoint_self_distance_is_zero(self):
        t0 = time.perf_counter()
        hits = 0
        worst = 0.0
        for i in range(20):
            rng = np.random.default_rng(4000 + i)
            n = int(rng.integers(2, 5))
            M = rng.uniform(0.0, 1.0, (n, n))
            C = np.exp(-binary_sym_adjacency(rng, n))
            cfg = FgwConfig(alpha=0.0, beta=1.0, max_iters=50000,
                            tol=1e-12, seed=i)
            plan = bapg_fgwd(raw_costs(M, C, C), uniform(n), uniform(n),
                            cfg)
            hits += plan.objective <= 1e-4
            worst = max(worst, plan.objective)
        dt = time.perf_counter() - t0
        ok = hits >= 18
        assert report(
            "criterion 04 self-distance identity", ok,
            f"{hits}/20 instances at or below 1e-4 "
            f"(worst {worst:.2e}), {dt:.2f}s")

    def test_05_two_node_instances_match_grid_search(self):
        t0 = time.perf_counter()
        worst_rel = 0.0
        ts = np.linspace(0.0, 0.5, 4001)
        for i in range(50):
            rng = np.random.default_rng(5000 + i)
            M = rng.uniform(0.0, 1.0, (2, 2))
            C1 = rng.uniform(0.0, 1.0, (2, 2))
            C1 = (C1 + C1.T) / 2
            C2 = rng.uniform(0.0, 1.0, (2, 2))
            C2 = (C2 + C2.T) / 2
            alpha = float(rng.uniform())
            cfg = FgwConfig(alpha=alpha, beta=5.0, max_iters=100000,
                            tol=1e-12, seed=i)
            plan = bapg_fgwd(raw_costs(M, C1, C2), uniform(2), uniform(2),
                            cfg)
            # uniform 2x2 couplings form a one-parameter family; evaluate
            # the objective on a fine grid with plain loops
            best = np.inf
            for t in ts:
                P = np.array([[t, 0.5 - t], [0.5 - t, t]])
                quad = 0.0
                for a in range(2):
                    for b in range(2):
                        for c in range(2):
                            for d in range(2):
                                quad += ((C1[a, c] - C2[b, d]) ** 2
                                         * P[a, b] * P[c, d])
                best = min(best, alpha * (M * P).sum()
                           + (1 - alpha) * quad)
            rel = (plan.objective - best) / max(best, 1e-12)
            worst_rel = max(worst_rel, rel)
        dt = time.perf_counter() - t0
        ok = worst_rel <= 0.05
        assert report(
            "criterion 05 two-node brute force", ok,
            f"50 instances, worst rel excess {worst_rel:.2%}, {dt:.1f}s")


class TestGradientSuite:
    def test_06_every_parameter_matches_finite_differences(self):
        t0 = time.perf_counter()
        g = generate_csbm(CsbmParams(n=12, feature_dim=5, p=0.6, q=0.3,
                                     mu_sig=1.0, seed=0))
        cfg = TrainConfig(lr=1e-3, alpha=0.4, beta=5.0, k=3, tau=1.0,
                          dropout=0.0, fusion_dropout=0.0, num_anchors=4,
                          num_negatives=2, epochs=1, hidden_dim=6,
                          out_dim=4, bapg_iters=60, bapg_tol=1e-10,
                          seed=3, node_loss="full")
        model = build_model(cfg, g)
        gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
        fgw = fgw_config(cfg)
        backend = get_backend()
        # the differentiated function holds the transport plans constant,
        # so finite differences must re-evaluate at those same plans
        plans = epoch_plans(model, gt, cfg, fgw, backend, epoch=0)

        def total():
            bd, _ = run_epoch(model, gt, cfg, fgw, backend, epoch=0,
                              plans=plans)
            return bd

        bd = total()
        ad.backward(bd.total)
        grads = {k: p.grad.copy() for k, p in model.params.items()}
        h = 1e-5
        worst_name, worst_rel = "", 0.0
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            g_fd = np.zeros_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                f_plus = total().total.item
                flat[j] = orig - h
                f_minus = total().total.item
                flat[j] = orig
                g_fd[j] = (f_plus - f_minus) / (2 * h)
            g_ad = grads[name].reshape(-1)
            rel = (np.abs(g_ad - g_fd).max()
                   / max(np.abs(g_fd).max(), 1e-8))
            if rel > worst_rel:
                worst_name, worst_rel = name, rel
        dt = time.perf_counter() - t0
        n_elems = sum(p.data.size for p in model.params.values())
        ok = worst_rel < 1e-4 and dt < 120.0
        assert report(
            "criterion 06 gradient suite", ok,
            f"{len(model.params)} parameters ({n_elems} elements), "
            f"worst rel err {worst_rel:.2e} ({worst_name}), {dt:.1f}s")


class TestLossConsistency:
    def test_07_restricted_loss_single_node_and_zero_gate(self):
        rng = np.random.default_rng(7)
        a = ad.constant(rng.normal(size=(9, 5)))
        b = ad.constant(rng.normal(size=(9, 5)))
        full = loss_node(a, b, tau=0.7).item
        restricted = loss_node_v2(a, b, np.arange(9), tau=0.7).item
        d_full = abs(full - restricted)

        c = ad.constant(rng.normal(size=(1, 5)))
        single = loss_node(c, c, tau=0.7).item

        h_s = ad.constant(rng.normal(size=(6, 4)))
        h_f = ad.constant(rng.normal(size=(6, 4)))
        lam0 = ad.constant(np.zeros((6, 1)))
        got = loss_fusion(lam0, h_s, h_f, alpha=0.25, beta1=0.5,
                          beta2=1.5).item
        want = 1.5 * (1.0 - 0.25)

        ok = d_full <= 1e-12 and single == 0.0 and got == want
        assert report(
            "criterion 07 loss consistency", ok,
            f"full-vs-restricted diff {d_full:.2e}, single-node loss "
            f"{single!r}, zero-gate loss {got!r} (want {want!r})")


class TestEndToEnd:
    def test_08_training_beats_untrained_and_majority_baselines(self):
        t0 = time.perf_counter()
        trained, untrained, majority = [], [], []
        for seed in range(5):
            g = generate_csbm(CsbmParams(n=500, feature_dim=50, p=0.05,
                                         q=0.005, mu_sig=0.2, seed=seed))
            split = make_splits(g, "fractional", seed)
            cfg = TrainConfig(lr=5e-3, lr_fusion=9e-4, alpha=0.1,
                              beta=1.0, k=10, tau=2.0, dropout=0.4,
                              fusion_dropout=0.1, num_anchors=64,
                              num_negatives=2, epochs=50, hidden_dim=64,
                              out_dim=32, bapg_iters=30, seed=seed,
                              degree_feature="raw",
                              normalize_features=False)
            gt = prepare_graph(g, cfg.degree_feature,
                               cfg.normalize_features)
            untrained.append(linear_probe(embed(build_model(cfg, g), gt),
                                          g.labels, split.train_mask,
                                          split.test_mask))
            with tempfile.TemporaryDirectory() as out:
                result = train(cfg, g, out, threads=4)
            trained.append(linear_probe(embed(result.model, gt), g.labels,
                                        split.train_mask,
                                        split.test_mask))
            majority.append(majority_rate(g.labels, split.train_mask,
                                          split.test_mask))
        dt = time.perf_counter() - t0
        tr, un, mj = (float(np.mean(v))
                      for v in (trained, untrained, majority))
        gap = tr - max(un, mj)
        ok = gap >= 0.10 - 1e-9 and dt < 600.0
        assert report(
            "criterion 08 end-to-end learning signal", ok,
            f"5-seed means: trained {tr:.3f}, untrained {un:.3f}, "
            f"majority {mj:.3f}, gap {gap:+.3f} (need +0.100), "
            f"{dt:.0f}s")


class TestScalingShape:
    def test_09_transport_phase_time_stays_flat_in_graph_size(self):
        t0 = time.perf_counter()
        cfg = TrainConfig(lr=1e-4, alpha=0.5, beta=5.0, k=12, tau=1.0,
                          dropout=0.0, num_anchors=300, num_negatives=2,
                          epochs=1, hidden_dim=16, out_dim=8,
                          bapg_iters=20, seed=0, node_loss="v2")
        sides = []
        for n in (1000, 10000):
            g = generate_csbm(bench_graph_params(n))
            z = ad.constant(np.zeros((g.n, 2)))
            batch, _ = sample_contrast_batch(g, z, z, k=cfg.k,
                                             num_anchors=cfg.num_anchors,
                                             num_negatives=2, seed=0)
            sides.append(int(batch_indices(batch).size))
        with tempfile.TemporaryDirectory() as out:
            rows = bench_timing([1000, 10000], cfg, out, iters=3,
                                warmup=1)
        ratio = rows[1]["time_ot_ms"] / rows[0]["time_ot_ms"]
        dt = time.perf_counter() - t0
        ok = ratio < 2.0 and sides[0] == sides[1] == 300 * 12
        assert report(
            "criterion 09 scaling shape", ok,
            f"transport phase {rows[0]['time_ot_ms']:.0f}ms at N=1000 vs "
            f"{rows[1]['time_ot_ms']:.0f}ms at N=10000 (ratio "
            f"{ratio:.2f}, need < 2), similarity buffer sides "
            f"{sides[0]} vs {sides[1]}, {dt:.0f}s")


class TestCitationDataset:
    def test_10_stretch_citation_accuracy(self):
        root = Path(os.environ.get("FGWCL_CORA_DIR", "data/cora"))
        names = ("edges.csv", "features.csv", "labels.csv")
        if not all((root / n).exists() for n in names):
            report("criterion 10 citation stretch", True,
                   f"skipped, supply {', '.join(names)} under {root} "
                   f"(or set FGWCL_CORA_DIR) to run it")
            pytest.skip("citation dataset files not present")
        g = load_graph(root / names[0], root / names[1], root / names[2])
        cfg = TrainConfig(lr=2.3e-3, lr_fusion=9e-4, alpha=0.1, beta=1.0,
                          k=10, tau=2.0, dropout=0.4, fusion_dropout=0.1,
                          num_anchors=300, num_negatives=2, epochs=300,
                          hidden_dim=256, out_dim=128, bapg_iters=30,
                          seed=0, node_loss="v2")
        gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
        with tempfile.TemporaryDirectory() as out:
            result = train(cfg, g, out, threads=4)
        accs = [linear_probe(embed(result.model, gt), g.labels,
                             s.train_mask, s.test_mask)
                for s in (make_splits(g, "planetoid", seed)
                          for seed in range(5))]
        acc = float(np.mean(accs))
        ok = acc >= 0.7702
        assert report("criterion 10 citation stretch", ok,
                      f"mean probe accuracy {acc:.4f} over 5 splits "
                      f"(need >= 0.7702)")
