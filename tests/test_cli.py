import json
import struct

import numpy as np
import pytest

from fgwcl import cli
from fgwcl import ot
from fgwcl.graph import CsbmParams, generate_csbm, make_graph, save_graph
from fgwcl.kernels import STATUS_CONVERGED

TINY_CFG = dict(lr=2e-3, beta=5.0, k=4, num_anchors=5, epochs=2,
                hidden_dim=8, out_dim=6, bapg_iters=8)


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("graph")
    g = generate_csbm(CsbmParams(n=40, feature_dim=6, p=0.3, q=0.05))
    save_graph(g, d / "edges.txt", d / "feats.txt", d / "labels.txt")
    return {"edges": str(d / "edges.txt"), "features": str(d / "feats.txt"),
            "labels": str(d / "labels.txt")}


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(TINY_CFG))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, graph_files, config_file):
    out = tmp_path_factory.mktemp("run")
    rc = cli.main(["train", "--config", config_file,
                   "--out", str(out), "--edges", graph_files["edges"],
                   "--features", graph_files["features"],
                   "--labels", graph_files["labels"]])
    assert rc == 0
    return out


def graph_args(files):
    return ["--edges", files["edges"], "--features", files["features"],
            "--labels", files["labels"]]


class TestTrain:
    def test_writes_artifacts_and_prints_summary(self, trained, capsys):
        for name in ("checkpoint.bin", "metrics.jsonl", "summary.json"):
            assert (trained / name).exists()
        summary = json.loads((trained / "summary.json").read_text())
        assert summary["epochs_run"] == TINY_CFG["epochs"]
        assert not summary["diverged"]

    def test_seed_override_lands_in_summary(self, tmp_path, graph_files,
                                            config_file):
        rc = cli.main(["train", "--config", config_file, "--seed", "7",
                       "--out", str(tmp_path)]
                      + graph_args(graph_files))
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["seed"] == 7

    def test_unknown_config_key_fails(self, tmp_path, graph_files, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": 0.01}))
        rc = cli.main(["train", "--config", str(bad), "--out",
                       str(tmp_path / "out")] + graph_args(graph_files))
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_non_numeric_config_value_fails(self, tmp_path, graph_files,
                                            capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"lr": "0.1"}))
        rc = cli.main(["train", "--config", str(bad), "--out",
                       str(tmp_path / "out")] + graph_args(graph_files))
        assert rc == 1
        assert "'lr' must be a number" in capsys.readouterr().err

    def test_missing_graph_file_fails(self, tmp_path, graph_files, capsys):
        rc = cli.main(["train", "--out", str(tmp_path), "--edges",
                       str(tmp_path / "absent.txt"), "--features",
                       graph_files["features"]])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_report_written_and_printed(self, trained, tmp_path,
                                        graph_files, config_file, capsys):
        rc = cli.main(["eval", "--config", config_file, "--out",
                       str(tmp_path), "--checkpoint",
                       str(trained / "checkpoint.bin"), "--eval-seeds", "2"]
                      + graph_args(graph_files))
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seeds"] == 2
        assert 0.0 <= report["mean_accuracy"] <= 1.0
        assert report["ci_low"] <= report["mean_accuracy"] <= report["ci_high"]
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    @pytest.mark.parametrize("flag, value, field", [
        ("--train-fraction", "1.5", "train_fraction"),
        ("--per-class", "0", "per_class"),
    ])
    def test_bad_split_setting_fails_by_name(self, trained, tmp_path,
                                             graph_files, config_file,
                                             capsys, flag, value, field):
        rc = cli.main(["eval", "--config", config_file, "--out",
                       str(tmp_path), "--checkpoint",
                       str(trained / "checkpoint.bin"), flag, value]
                      + graph_args(graph_files))
        assert rc == 1
        assert f"error: {field} must" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_bad_checkpoint_fails(self, tmp_path, graph_files, capsys):
        stub = tmp_path / "stub.bin"
        stub.write_bytes(b"\x00" * 4)
        rc = cli.main(["eval", "--out", str(tmp_path), "--checkpoint",
                       str(stub)] + graph_args(graph_files))
        assert rc == 1

    def test_malformed_header_fails_with_error(self, trained, tmp_path,
                                               graph_files, capsys):
        blob = (trained / "checkpoint.bin").read_bytes()
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8:8 + hlen])
        del header["num_features"]
        hb = json.dumps(header).encode()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(struct.pack("<Q", len(hb)) + hb + blob[8 + hlen:])
        rc = cli.main(["eval", "--out", str(tmp_path), "--checkpoint",
                       str(bad)] + graph_args(graph_files))
        assert rc == 1
        assert "error: checkpoint header lacks num_features" in (
            capsys.readouterr().err)


class TestSweep:
    def test_single_point_grid(self, tmp_path, graph_files, config_file,
                               capsys):
        rc = cli.main(["sweep-alpha", "--config", config_file, "--grid",
                       "0.5", "--sweep-seeds", "1",
                       "--out", str(tmp_path)] + graph_args(graph_files))
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["alpha"] == 0.5
        assert (tmp_path / "sweep.json").exists()

    def test_out_of_range_grid_fails(self, tmp_path, graph_files,
                                     config_file, capsys):
        rc = cli.main(["sweep-alpha", "--config", config_file, "--grid",
                       "1.5", "--out", str(tmp_path)]
                      + graph_args(graph_files))
        assert rc == 1

    def test_no_seeds_fails(self, tmp_path, graph_files, config_file,
                            capsys):
        rc = cli.main(["sweep-alpha", "--config", config_file, "--grid",
                       "0.5", "--sweep-seeds", "0", "--out", str(tmp_path)]
                      + graph_args(graph_files))
        assert rc == 1
        assert "error: need at least one seed" in capsys.readouterr().err


class TestBench:
    def test_rows_printed(self, tmp_path, config_file, capsys):
        rc = cli.main(["bench", "--config", config_file, "--sizes", "50",
                       "--iters", "1", "--warmup", "0", "--feature-dim",
                       "6", "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["n"] == 50
        assert rows[0]["time_ot_ms"] >= 0.0
        assert rows[0]["time_epoch_ms"] > 0.0

    def test_seed_override_reaches_the_runs(self, tmp_path, config_file):
        rc = cli.main(["bench", "--config", config_file, "--seed", "7",
                       "--sizes", "50", "--iters", "1", "--warmup", "0",
                       "--feature-dim", "6", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "n_50" / "summary.json").read_text())
        assert summary["config"]["seed"] == 7


class TestDistance:
    def write_pair(self, tmp_path, name, edges, x):
        g = make_graph(edges, np.asarray(x, dtype=float))
        save_graph(g, tmp_path / f"{name}_e.txt", tmp_path / f"{name}_f.txt")
        return ["--edges-" + name[0], str(tmp_path / f"{name}_e.txt"),
                "--features-" + name[0], str(tmp_path / f"{name}_f.txt")]

    def test_single_node_feature_endpoint_exact(self, tmp_path, capsys):
        # one node, alpha=1: the plan is forced, value = exp(-x.x / tau)
        a = self.write_pair(tmp_path, "a", [], [[0.5]])
        b = self.write_pair(tmp_path, "b", [], [[0.5]])
        rc = cli.main(["distance", *a, *b, "--alpha", "1.0", "--tau", "2.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(np.exp(-0.125), rel=1e-12)
        assert out["plan"] == [[1.0]]
        assert out["status"] == STATUS_CONVERGED

    def test_structure_self_distance_near_zero(self, tmp_path, capsys):
        x = [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2], [0.0, 0.6]]
        a = self.write_pair(tmp_path, "a", [(0, 1), (1, 2), (2, 3)], x)
        b = self.write_pair(tmp_path, "b", [(0, 1), (1, 2), (2, 3)], x)
        rc = cli.main(["distance", *a, *b, "--alpha", "0.0", "--beta", "1",
                       "--bapg-iters", "50000", "--bapg-tol", "1e-12"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] <= 1e-4
        plan = np.asarray(out["plan"])
        np.testing.assert_allclose(plan.sum(axis=0), 0.25, atol=1e-10)

    def test_non_finite_feature_names_file_and_line(self, tmp_path, capsys):
        a = self.write_pair(tmp_path, "a", [], [[0.5]])
        b = self.write_pair(tmp_path, "b", [(0, 1)], [[0.5], [0.1]])
        (tmp_path / "b_f.txt").write_text("0.5\nnan\n")
        rc = cli.main(["distance", *a, *b, "--alpha", "0.5"])
        assert rc == 1
        assert "b_f.txt:2: non-finite feature value" in capsys.readouterr().err

    def test_feature_dim_mismatch_fails(self, tmp_path, capsys):
        a = self.write_pair(tmp_path, "a", [], [[0.5]])
        b = self.write_pair(tmp_path, "b", [], [[0.5, 0.1]])
        rc = cli.main(["distance", *a, *b, "--alpha", "0.5"])
        assert rc == 1
        assert "feature dimensions differ" in capsys.readouterr().err

    def test_seed_reaches_the_initial_plan(self, tmp_path, capsys):
        # an 8-cycle against itself: the seeded jitter on the initial plan
        # breaks the symmetric stationary point, so the value depends on
        # the seed, given as --seed or as the --config seed
        edges = [(i, (i + 1) % 8) for i in range(8)]
        x = np.linspace(-1.0, 1.0, 16).reshape(8, 2)
        pair = (self.write_pair(tmp_path, "a", edges, x)
                + self.write_pair(tmp_path, "b", edges, x))
        config = tmp_path / "seed5.json"
        config.write_text(json.dumps({"seed": 5}))
        values = {}
        for name, flags in [("0", ["--seed", "0"]), ("5", ["--seed", "5"]),
                            ("config", ["--config", str(config)])]:
            assert cli.main(["distance", *pair, "--alpha", "0.5",
                             *flags]) == 0
            values[name] = json.loads(capsys.readouterr().out)["value"]
        g = make_graph(edges, x)
        A = g.adjacency.toarray()
        expected = ot.bapg_fgwd(ot.build_cost_matrices(A, A, g.x, g.x, 1.0),
                                np.full(8, 0.125), np.full(8, 0.125),
                                ot.FgwConfig(alpha=0.5, seed=5)).objective
        assert values["5"] == values["config"] == expected
        assert values["0"] != values["5"]

    def test_non_finite_tolerance_fails(self, tmp_path, capsys):
        a = self.write_pair(tmp_path, "a", [(0, 1)], [[0.5], [0.1]])
        b = self.write_pair(tmp_path, "b", [(0, 1)], [[0.4], [0.2]])
        rc = cli.main(["distance", *a, *b, "--alpha", "0.5",
                       "--bapg-tol", "nan"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tol must be positive" in err


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        cli.main([])
