"""Fast tests of the benchmark's own arithmetic and output format.

    python3 -m pytest bench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def test_4index_matches_hand_computed_2x2():
    # C1 (resp. C2) is 1 (resp. 3) off the diagonal, so (C1_ik - C2_jl)^2
    # is 0, 9, 1 or 4 as i = k and/or j = l; weighting by P_ij P_kl gives
    # 9 * 0.24 + 1 * 0.24 + 4 * 0.26 = 3.44, and sum(M * P) = 2.5
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    C1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    C2 = np.array([[0.0, 3.0], [3.0, 0.0]])
    P = np.array([[0.3, 0.2], [0.2, 0.3]])
    assert checks.fgw_4index(M, C1, C2, P, 0.0) == pytest.approx(3.44,
                                                                 abs=1e-12)
    assert checks.fgw_4index(M, C1, C2, P, 1.0) == pytest.approx(2.5,
                                                                 abs=1e-12)
    assert checks.fgw_4index(M, C1, C2, P, 0.25) == pytest.approx(
        0.25 * 2.5 + 0.75 * 3.44, abs=1e-12)


def test_quadratic_form_matches_4index_on_rectangular_problems():
    rng = np.random.default_rng(0)
    for n, m in ((2, 2), (3, 5), (6, 4)):
        M = rng.random((n, m))
        C1 = rng.random((n, n))  # asymmetric on purpose
        C2 = rng.random((m, m))
        P = rng.random((n, m))
        P /= P.sum()
        assert checks.fgw_quadratic(M, C1, C2, P, 0.3) == pytest.approx(
            checks.fgw_4index(M, C1, C2, P, 0.3), rel=1e-12)


def test_l_ot_range_is_reached_at_the_extreme_distances():
    for negatives in (1, 2, 5):
        lo, hi = checks.l_ot_range(negatives)
        far = np.full((3, negatives), 1e6)
        near = np.zeros((3, negatives))
        assert checks.l_ot_from_distances(np.zeros(3), far, 1.0) == \
            pytest.approx(lo, abs=1e-12)
        assert checks.l_ot_from_distances(np.full(3, 1e6), near, 1.0) == \
            pytest.approx(hi, abs=1e-12)
    lo, hi = checks.l_ot_range(2)
    assert lo == pytest.approx((0.3133 + 2 * 0.6931) / 3, abs=1e-4)
    assert hi == pytest.approx((0.6931 + 2 * 1.3133) / 3, abs=1e-4)


def test_l_ot_of_nonnegative_distances_stays_in_range():
    rng = np.random.default_rng(1)
    lo, hi = checks.l_ot_range(2)
    for tau in (0.5, 1.0, 2.0):
        d = rng.exponential(1.0, size=(50, 3))
        value = checks.l_ot_from_distances(d[:, 0], d[:, 1:], tau)
        assert lo <= value <= hi


def test_result_line_carries_every_metric_with_its_unit():
    for key in ("end_to_end", "per_layer"):
        specs = SPEC[key]
        values = {m["name"]: 1.0 + i for i, m in enumerate(specs)}
        out = json.loads(run.result_line(True, 10, 0, values, specs))
        assert list(out) == ["correct", "attempted", "failed", "metrics"]
        assert out["correct"] is True
        assert (out["attempted"], out["failed"]) == (10, 0)
        assert list(out["metrics"]) == [m["name"] for m in specs]
        for m in specs:
            assert out["metrics"][m["name"]] == {"value": values[m["name"]],
                                                 "unit": m["unit"]}


def test_result_line_refuses_incomplete_or_bad_metrics():
    specs = SPEC["end_to_end"]
    values = {m["name"]: 1.0 for m in specs}
    with pytest.raises(ValueError):
        run.result_line(True, 1, 0, {**values, "extra": 1.0}, specs)
    with pytest.raises(ValueError):
        run.result_line(True, 1, 0, dict(list(values.items())[1:]), specs)
    with pytest.raises(ValueError):
        run.result_line(True, 1, 0, {**values, "setup_s": math.nan}, specs)
    with pytest.raises(ValueError):
        run.result_line(True, 0, 0, values, specs)


def test_setup_time_is_an_end_to_end_metric():
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
