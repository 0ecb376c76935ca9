import json
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import check_grad
from fgwcl import autodiff as ad
from fgwcl.graph import make_graph
from fgwcl.model import (PRELU_INIT, Model, _glorot, combine_channels,
                         load_checkpoint, prepare_graph, restore_model,
                         save_checkpoint)


def small_graph(rng, n=10, num_features=4, p=0.35):
    a = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j]]
    x = rng.standard_normal((n, num_features))
    return make_graph(edges, x)


def small_model(num_features=4, hidden=6, out=5, seed=0, **kw):
    return Model(num_features, hidden_dim=hidden, out_dim=out, seed=seed,
                 **kw)


# -- independent dense recomputation ----------------------------------------

def np_prelu(x, slope):
    return np.where(x > 0, x, slope * x)


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_psi(p, prefix, h_f, h_s, scores):
    pre = (h_f @ p[prefix + "wf"] + h_s @ p[prefix + "ws"]
           + scores @ p[prefix + "wd"] + p[prefix + "b1"])
    hidden = np_prelu(pre, p[prefix + "slope"])
    return np_sigmoid(hidden @ p[prefix + "w2"] + p[prefix + "b2"])


def np_encode(model, adj_dense, x, scores):
    p = {k: v.data for k, v in model.params.items()}
    t1 = x @ p["enc_w1"]
    f1 = np_prelu(t1, p["enc_slope1"])
    s1 = np_prelu(adj_dense @ t1, p["enc_slope1"])
    lam1 = np_psi(p, "enc_fuse_", f1, s1, scores)
    z1 = f1 + lam1 * s1
    t2 = z1 @ p["enc_w2"]
    return np_prelu(t2, p["enc_slope2"]), np_prelu(adj_dense @ t2,
                                                   p["enc_slope2"])


def np_gat(z, w, a_src, a_dst, mask, slope=0.2):
    proj = z @ w
    e = np_prelu(proj @ a_src + (proj @ a_dst).T, slope)
    e = np.where(mask, e, -np.inf)
    e -= e.max(axis=1, keepdims=True)
    alpha = np.exp(e) * mask
    alpha /= alpha.sum(axis=1, keepdims=True)
    return alpha @ proj


class TestEncode:
    def setup_method(self):
        ad.reset_tape()

    def test_matches_dense_recomputation(self, rng):
        g = small_graph(rng)
        gt = prepare_graph(g)
        model = small_model()
        h_f, h_s = model.encode(gt)
        want_f, want_s = np_encode(model, gt.adj_norm.toarray(), gt.x.data,
                                   gt.scores.data)
        assert_allclose(h_f.data, want_f, atol=1e-12)
        assert_allclose(h_s.data, want_s, atol=1e-12)

    def test_zero_lambda_gives_pure_mlp_path(self, rng):
        g = small_graph(rng)
        gt = prepare_graph(g)
        model = small_model()
        # force the layer-1 gate shut: psi -> sigmoid(-40) ~ 4e-18
        model.params["enc_fuse_w2"].data[:] = 0.0
        model.params["enc_fuse_b2"].data[:] = -40.0
        h_f, _ = model.encode(gt)
        p = {k: v.data for k, v in model.params.items()}
        z1 = np_prelu(gt.x.data @ p["enc_w1"], p["enc_slope1"])
        want = np_prelu(z1 @ p["enc_w2"], p["enc_slope2"])
        assert_allclose(h_f.data, want, atol=1e-12)

    def test_zero_edge_graph_structure_channel_zero(self, rng):
        x = rng.standard_normal((6, 4))
        g = make_graph([], x)
        gt = prepare_graph(g)
        model = small_model()
        _, h_s = model.encode(gt)
        assert_allclose(h_s.data, np.zeros((6, 5)))

    def test_shared_projection_feeds_both_channels(self, rng):
        g = small_graph(rng)
        gt = prepare_graph(g)
        model = small_model()
        for channel in range(2):
            ad.reset_tape()
            for t in model.params.values():
                t.zero_grad()
            out = model.encode(gt)[channel]
            ad.backward(ad.mean_all(out))
            w1 = model.params["enc_w1"]
            assert w1.grad is not None and np.any(w1.grad != 0.0)

    def test_feature_dim_mismatch_rejected(self, rng):
        g = small_graph(rng, num_features=7)
        gt = prepare_graph(g)
        model = small_model(num_features=4)
        with pytest.raises(ValueError, match="features"):
            model.encode(gt)

    def test_permutation_consistency(self, rng):
        g = small_graph(rng, n=12)
        perm = rng.permutation(12)
        edges_p = [(perm[u], perm[v]) for u, v in g.edges]
        x_p = np.empty_like(g.x)
        x_p[perm] = g.x
        g_p = make_graph(edges_p, x_p)
        model = small_model()
        h_f, h_s = model.encode(prepare_graph(g))
        ad.reset_tape()
        h_f_p, h_s_p = model.encode(prepare_graph(g_p))
        assert_allclose(h_f_p.data[perm], h_f.data, atol=1e-12)
        assert_allclose(h_s_p.data[perm], h_s.data, atol=1e-12)


class TestGenerate:
    def setup_method(self):
        ad.reset_tape()

    def test_matches_dense_attention(self, rng):
        g = small_graph(rng)
        gt = prepare_graph(g)
        model = small_model()
        h_f, h_s = model.encode(gt)
        h_hat_f, h_hat_s = model.generate(gt, h_f, h_s)
        p = {k: v.data for k, v in model.params.items()}
        mask = (gt.adj_norm.toarray() != 0.0) | np.eye(g.n, dtype=bool)
        want_s = np_gat(h_s.data, p["gat_w"], p["gat_a_src"], p["gat_a_dst"],
                        mask)
        assert_allclose(h_hat_s.data, want_s, atol=1e-12)
        # identity support: per-node self attention is just the projection
        assert_allclose(h_hat_f.data, h_f.data @ p["gat_w"], atol=1e-12)

    def test_identity_channel_is_rowwise(self, rng):
        g = small_graph(rng)
        gt = prepare_graph(g)
        model = small_model()
        h_f, h_s = model.encode(gt)
        base = model.generate(gt, h_f, h_s)[0].data.copy()
        bumped = h_f.data.copy()
        bumped[3] += 1.0
        ad.reset_tape()
        out = model.generate(gt, ad.constant(bumped), h_s)[0].data
        assert_allclose(out[np.arange(10) != 3], base[np.arange(10) != 3])
        assert np.any(out[3] != base[3])

    def test_isolated_nodes_attend_to_themselves(self, rng):
        x = rng.standard_normal((5, 4))
        g = make_graph([], x)
        gt = prepare_graph(g)
        model = small_model()
        h_f, h_s = model.encode(gt)
        _, h_hat_s = model.generate(gt, h_f, h_s)
        assert_allclose(h_hat_s.data,
                        h_s.data @ model.params["gat_w"].data, atol=1e-12)

    def test_records_projection_and_attention_ops(self, rng):
        # the attention layer is one tape record
        gt = prepare_graph(small_graph(rng))
        model = small_model()
        h_f = ad.Tensor(rng.standard_normal((10, 5)), requires_grad=True)
        h_s = ad.Tensor(rng.standard_normal((10, 5)), requires_grad=True)
        ad.reset_tape()
        model.generate(gt, h_f, h_s)
        kinds = [op.kind for op in ad.active_tape().ops]
        assert kinds == ["matmul", "gat_layer"]


class TestFuse:
    def setup_method(self):
        ad.reset_tape()

    def _channels(self, rng, model, g):
        gt = prepare_graph(g)
        h_f, h_s = model.encode(gt)
        return gt, h_f, h_s

    def test_lambda_in_unit_interval(self, rng):
        g = small_graph(rng)
        model = small_model(seed=3)
        gt, h_f, h_s = self._channels(rng, model, g)
        _, lam = model.fuse(h_f, h_s, gt.scores)
        assert lam.shape == (10, 1)
        assert np.all(lam.data > 0.0) and np.all(lam.data < 1.0)

    def test_injected_gate_limits(self, rng):
        g = small_graph(rng)
        model = small_model()
        gt, h_f, h_s = self._channels(rng, model, g)
        closed = combine_channels(h_f, h_s, ad.constant(np.zeros((10, 1))))
        assert_allclose(closed.data, h_f.data)
        open_ = combine_channels(h_f, h_s, ad.constant(np.ones((10, 1))))
        assert_allclose(open_.data, h_f.data + h_s.data)

    def test_combine_channels_gradient(self, rng):
        check_grad(lambda p: ad.sum_all(ad.mul(
            combine_channels(p["h_f"], p["h_s"], p["lam"]),
            ad.constant(np.arange(12.0).reshape(4, 3)))),
            {"h_f": rng.standard_normal((4, 3)),
             "h_s": rng.standard_normal((4, 3)),
             "lam": rng.random((4, 1))})

    def test_training_psi_records_two_dense_ops(self, rng):
        # dropout lives inside the dense op: one tape record per layer
        model = small_model(fusion_dropout=0.3)
        h_f = ad.Tensor(rng.standard_normal((10, 5)), requires_grad=True)
        h_s = ad.Tensor(rng.standard_normal((10, 5)), requires_grad=True)
        scores = ad.constant(rng.random((10, 1)))
        ad.reset_tape()
        model.fuse(h_f, h_s, scores, training=True, rng=rng)
        kinds = [op.kind for op in ad.active_tape().ops]
        assert kinds == ["dense", "prelu", "dense", "sigmoid",
                         "combine_channels"]

    def test_gate_is_deterministic(self, rng):
        g = small_graph(rng)
        model = small_model()
        gt, h_f, h_s = self._channels(rng, model, g)
        _, lam1 = model.fuse(h_f, h_s, gt.scores)
        _, lam2 = model.fuse(h_f, h_s, gt.scores)
        assert_allclose(lam1.data, lam2.data)

    def test_matches_dense_recomputation(self, rng):
        g = small_graph(rng)
        model = small_model()
        gt, h_f, h_s = self._channels(rng, model, g)
        h, lam = model.fuse(h_f, h_s, gt.scores)
        p = {k: v.data for k, v in model.params.items()}
        want_lam = np_psi(p, "fuse_", h_f.data, h_s.data, gt.scores.data)
        assert_allclose(lam.data, want_lam, atol=1e-12)
        assert_allclose(h.data, h_f.data + want_lam * h_s.data, atol=1e-12)


class TestForward:
    def setup_method(self):
        ad.reset_tape()

    def test_shapes_and_shared_psi(self, rng):
        g = small_graph(rng)
        gt = prepare_graph(g)
        model = small_model()
        out = model.forward(gt)
        assert out.h.shape == (10, 5) and out.h_hat.shape == (10, 5)
        assert out.lam.shape == (10, 1) and out.lam_hat.shape == (10, 1)
        # both fusions run through the same psi parameters
        ad.backward(ad.mean_all(out.h_hat))
        assert model.params["fuse_wf"].grad is not None

    def test_dropout_perturbs_training_only(self, rng):
        g = small_graph(rng)
        gt = prepare_graph(g)
        model = small_model(dropout=0.4, fusion_dropout=0.3)
        ref = model.forward(gt).h.data.copy()
        ad.reset_tape()
        again = model.forward(gt).h.data
        assert_allclose(again, ref)
        ad.reset_tape()
        trained = model.forward(gt, training=True,
                                rng=np.random.default_rng(5)).h.data
        assert not np.allclose(trained, ref)

    def test_parameter_groups_partition(self):
        model = small_model()
        enc = model.encoder_generator_params()
        fus = model.fusion_params()
        assert set(enc) | set(fus) == set(model.params)
        assert not set(enc) & set(fus)
        assert {"gat_w", "enc_w1", "enc_fuse_wf"} <= set(enc)
        assert {"fuse_wf", "fuse_b2", "fuse_slope"} <= set(fus)


class TestGradients:
    def test_full_model_matches_finite_differences(self, rng):
        g = small_graph(rng, n=10, num_features=3)
        gt = prepare_graph(g)
        model = Model(3, hidden_dim=4, out_dim=3, seed=1)
        params = {k: v.data.copy() for k, v in model.params.items()}

        def build(leaves):
            for k, t in leaves.items():
                model.params[k] = t
            out = model.forward(gt)
            mix = ad.add(ad.add(ad.mean_all(out.h), ad.mean_all(out.h_hat)),
                         ad.mean_all(out.lam))
            return mix

        check_grad(build, params, h=1e-5, tol=1e-4)

    def test_training_forward_matches_finite_differences(self, rng):
        # every build draws the dropout masks from a fresh rng of one
        # seed, so each perturbed forward pass sees the same masks
        g = small_graph(rng, n=10, num_features=3)
        gt = prepare_graph(g)
        model = Model(3, hidden_dim=4, out_dim=3, dropout=0.4,
                      fusion_dropout=0.1, seed=1)
        params = {k: v.data.copy() for k, v in model.params.items()}

        def build(leaves):
            for k, t in leaves.items():
                model.params[k] = t
            out = model.forward(gt, training=True,
                                rng=np.random.default_rng(2))
            return ad.add(ad.add(ad.mean_all(out.h), ad.mean_all(out.h_hat)),
                          ad.mean_all(out.lam))

        check_grad(build, params, h=1e-5, tol=1e-4)


def spelled_out_params(f, hd, d, seed):
    """Model's parameters declared one by one, psi's block written out for
    each of its two widths: the rng draws and the order a checkpoint's
    bytes depend on."""
    rng = np.random.default_rng(seed)
    p = {"enc_w1": _glorot(rng, f, hd, (f, hd)),
         "enc_slope1": np.full((1, 1), PRELU_INIT),
         "enc_w2": _glorot(rng, hd, d, (hd, d)),
         "enc_slope2": np.full((1, 1), PRELU_INIT)}
    inner = _glorot(rng, 2 * hd + 1, hd, (2 * hd + 1, hd))
    p.update(enc_fuse_wf=inner[:hd], enc_fuse_ws=inner[hd:2 * hd],
             enc_fuse_wd=inner[2 * hd:], enc_fuse_b1=np.zeros((1, hd)),
             enc_fuse_slope=np.full((1, 1), PRELU_INIT),
             enc_fuse_w2=_glorot(rng, hd, 1, (hd, 1)),
             enc_fuse_b2=np.zeros((1, 1)))
    p["gat_w"] = _glorot(rng, d, d, (d, d))
    att = _glorot(rng, 2 * d, 1, (2 * d, 1))
    p.update(gat_a_src=att[:d], gat_a_dst=att[d:])
    outer = _glorot(rng, 2 * d + 1, d, (2 * d + 1, d))
    p.update(fuse_wf=outer[:d], fuse_ws=outer[d:2 * d], fuse_wd=outer[2 * d:],
             fuse_b1=np.zeros((1, d)), fuse_slope=np.full((1, 1), PRELU_INIT),
             fuse_w2=_glorot(rng, d, 1, (d, 1)), fuse_b2=np.zeros((1, 1)))
    return p


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = small_model(seed=7, dropout=0.1)
        path = tmp_path / "weights.bin"
        save_checkpoint(path, model, extra={"config_hash": "abc123"})
        header, arrays = load_checkpoint(path)
        assert header["config_hash"] == "abc123"
        assert header["seed"] == 7
        restored = restore_model(path)
        for name, tensor in model.params.items():
            assert_allclose(restored.params[name].data, tensor.data)
        assert restored.dropout == 0.1

    def test_bytes_match_the_spelled_out_declaration(self, tmp_path):
        model = Model(5, hidden_dim=6, out_dim=4, seed=3)
        spelled = Model(5, hidden_dim=6, out_dim=4, seed=3)
        spelled.params = {name: ad.Tensor(data, requires_grad=True)
                          for name, data in spelled_out_params(5, 6, 4,
                                                               3).items()}
        save_checkpoint(tmp_path / "model.bin", model)
        save_checkpoint(tmp_path / "spelled.bin", spelled)
        assert ((tmp_path / "model.bin").read_bytes()
                == (tmp_path / "spelled.bin").read_bytes())

    def test_restored_model_reproduces_outputs(self, tmp_path, rng):
        g = small_graph(rng)
        gt = prepare_graph(g)
        model = small_model(seed=2)
        ad.reset_tape()
        want = model.forward(gt).h.data.copy()
        path = tmp_path / "weights.bin"
        save_checkpoint(path, model)
        # clobber the live model to prove the file carries the state
        for t in model.params.values():
            t.data = t.data * 0.0
        restored = restore_model(path)
        ad.reset_tape()
        assert_allclose(restored.forward(gt).h.data, want)

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "weights.bin"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "weights.bin"
        hb = json.dumps({"format": "other"}).encode()
        path.write_bytes(struct.pack("<Q", len(hb)) + hb)
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)


    @pytest.mark.parametrize("edit, message", [
        (lambda h: {k: v for k, v in h.items() if k != "num_features"},
         "lacks num_features"),
        (lambda h: [h], "not a JSON object"),
        (lambda h: {k: v for k, v in h.items() if k != "params"},
         "lacks params"),
        (lambda h: {**h, "params": [["w", 3]]},
         r"params are not \[name, shape\] pairs"),
    ], ids=["no_num_features", "list", "no_params", "bad_params"])
    def test_malformed_header_rejected(self, tmp_path, edit, message):
        path = tmp_path / "weights.bin"
        save_checkpoint(path, small_model())
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = edit(json.loads(blob[8:8 + hlen]))
        hb = json.dumps(header).encode()
        path.write_bytes(struct.pack("<Q", len(hb)) + hb + blob[8 + hlen:])
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)


class TestValidation:
    def test_bad_dropout_rejected(self):
        with pytest.raises(ValueError, match="dropout"):
            Model(4, dropout=1.0)
        with pytest.raises(ValueError, match="dropout"):
            Model(4, fusion_dropout=-0.1)

    def test_normalized_features(self, rng):
        x = np.abs(rng.standard_normal((6, 4))) + 0.1
        x[2] = 0.0
        g = make_graph([(0, 1)], x)
        gt = prepare_graph(g, normalize_features=True)
        sums = np.abs(gt.x.data).sum(axis=1)
        assert_allclose(sums[[0, 1, 3, 4, 5]], np.ones(5))
        assert_allclose(gt.x.data[2], np.zeros(4))

    def test_score_variants_change_psi_input(self, rng):
        g = small_graph(rng)
        raw = prepare_graph(g, degree_feature="raw")
        pr = prepare_graph(g, degree_feature="pagerank")
        none = prepare_graph(g, degree_feature="none")
        assert_allclose(raw.scores.data.ravel(), g.degrees())
        assert not np.allclose(pr.scores.data, raw.scores.data)
        assert_allclose(none.scores.data, np.zeros((10, 1)))
