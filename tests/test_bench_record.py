"""The checked-in BENCH_*.json files and the recorder that writes them."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _recorder():
    path = ROOT / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_bench_file_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_record_names_every_benchmark_metric_with_its_unit(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wrong = _recorder().WRONG_TRACED
    doc = json.loads(path.read_text())
    number = int(path.stem.split("_")[1])
    assert doc["records"]
    for rec in doc["records"]:
        seen = set()
        for run in rec["runs"]:
            assert {"correct", "attempted", "failed"} <= set(run)
            for name, metric in run["metrics"].items():
                assert metric["unit"] == units[name], name
                assert ("wrong" in metric) == (name in wrong)
                seen.add(name)
        assert seen == set(units), rec["label"]
        assert {"rev", "src_sha256", "machine", "tier1"} <= set(rec)
        assert {"cpu_count", "numpy", "blas", "blas_threads"} <= set(
            rec["machine"])
        assert len(rec["tier1"]["slowest"]) == 10
        if "cold_start" in rec:  # files before BENCH_18.json lack it
            check_cold_start(rec["cold_start"])
        if number >= 23:  # earlier files lack it
            assert type(rec["src_lines"]) is int and rec["src_lines"] > 0


def check_cold_start(block):
    assert block["runs"] >= 1
    import_s = block["import_s"]
    assert import_s["unit"] == "s"
    assert 0 < import_s["q1"] <= import_s["median"] <= import_s["q3"]
    assert block["maxrss_mb"]["unit"] == "MB"
    assert block["maxrss_mb"]["median"] > 0
    modules = block["scipy_modules"]
    assert modules == sorted(modules)
    assert all(m.startswith("scipy.") for m in modules)


def test_cold_start_block_of_this_checkout():
    block = _recorder().cold_start(ROOT, runs=1)
    check_cold_start(block)
    assert block["runs"] == 1


def test_tier1_summary_is_parsed_from_pytest_output():
    text = "\n".join([
        "=== slowest 10 durations ===",
        "13.55s call     tests/test_a.py::test_slow",
        "0.20s setup    tests/test_b.py::test_fixture",
        "=== short test summary info ===",
        "FAILED tests/test_a.py::test_slow",
        "1 failed, 448 passed, 1 skipped in 47.30s"])
    tier1 = _recorder().parse_tier1(text)
    assert tier1["outcome"] == "1 failed, 448 passed, 1 skipped"
    assert tier1["wall_s"] == 47.30
    assert tier1["slowest"] == [
        {"seconds": 13.55, "test": "tests/test_a.py::test_slow"},
        {"seconds": 0.20, "test": "tests/test_b.py::test_fixture"}]


def test_user_sys_seconds_per_epoch_from_saved_round_times():
    # three rounds of two epochs each: 0.15, 0.3 and 0.2 s per epoch
    details = {"rounds": 3,
               "round_user_sys_s": [[0.2, 0.1], [0.5, 0.1], [0.3, 0.1]]}
    per_epoch = _recorder().user_sys_per_epoch(details, attempted=6)
    assert per_epoch == pytest.approx(0.2)
    assert _recorder().user_sys_per_epoch({"rounds": 2}, 2) is None


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\n")
    assert _recorder().src_lines(tmp_path) == 3


def test_trajectory_of_the_checked_in_files():
    recorder = _recorder()
    paths = recorder.bench_files()
    assert set(paths) == set(BENCH_FILES)
    rows = recorder.change_trajectory(paths)
    stems = [p.stem for p in paths]
    for workload in ("train-v2-n10000", "train-full-hetero-n2708"):
        epochs = rows[(workload, "epoch_s")]
        assert [stem for stem, _ in epochs] == stems
        # the records of BENCH_22-25 still carry the calibration block
        # that later files drop; it must not stop them being read
        for stem, median in epochs:
            assert median == pytest.approx(np.median([
                run["metrics"]["epoch_s"]["value"]
                for run in recorder.record_of(ROOT / f"{stem}.json",
                                              "change")["runs"]
                if run["workload"] == workload and run["trace"] == 0]))
    pairs = {(a, b): (metrics, probes)
             for a, b, metrics, probes in recorder.same_src_pairs(paths)}
    assert ("BENCH_18", "BENCH_19") in pairs
    assert ("BENCH_19", "BENCH_20") not in pairs  # src/ differs
    metrics, probes = pairs[("BENCH_18", "BENCH_19")]
    change, parent = metrics["train-v2-n10000"]["epoch_s"]
    assert change > 0 and parent > 0
    assert set(probes) == {"tier1_wall_s"}
    assert set(pairs[("BENCH_24", "BENCH_25")][1]) == {"tier1_wall_s"}


def test_trajectory_mode_prints_the_same_src_pairs(capsys):
    assert _recorder().main(["--trajectory"]) == 0
    out = capsys.readouterr().out
    assert "train-v2-n10000 epoch_s [s]" in out
    assert "BENCH_18 change -> BENCH_19 parent" in out
    assert "BENCH_24 change -> BENCH_25 parent" in out
    assert "  tier1_wall_s: " in out
    assert "calibrated" not in out
