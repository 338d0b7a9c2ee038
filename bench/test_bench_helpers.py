"""Tests for the benchmark's own helpers: tail percentile, self time,
per-layer arithmetic, generator determinism, and BENCHMARK.json."""
import json
import math
from collections import Counter
from pathlib import Path

import pytest

import metrics
import workloads
from spans import Span, Tracer, covered_length, self_times

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_tail_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(25, 0, -1)]
    value, name = metrics.tail(samples)
    assert (value, name) == (15.0, "p60")
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_grows_with_samples():
    assert metrics.tail([float(v) for v in range(100)]) == (89.0, "p90")
    assert metrics.tail([float(v) for v in range(11)]) == (0.0, "p9")


def test_tail_with_too_few_samples_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, "max")


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_children_only():
    spans = [
        Span(0, None, 1, "job", "job", 0.0, 10.0),
        Span(1, 0, 1, "pointset", "check_meyerian", 1.0, 6.0),
        Span(2, 1, 1, "pointset", "minkowski", 2.0, 4.0),
        Span(3, 0, 1, "ring", "silver_points", 7.0, 9.0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
    assert sum(own.values()) == 10.0


def test_tracer_records_nesting_and_job():
    tr = Tracer()

    def outer():
        return tr.call("pointset", "minkowski", lambda: 7) + 1

    with tr.job(4):
        assert tr.call("pointset", "check_meyerian", outer) == 8
        tr.add("ring.points", 3)
    by_call = {s.call: s for s in tr.spans}
    assert by_call["minkowski"].parent == by_call["check_meyerian"].sid
    assert by_call["check_meyerian"].parent == by_call["job"].sid
    assert {s.job for s in tr.spans} == {4}
    assert tr.counts[4]["ring.points"] == 3
    own = self_times(tr.spans)
    outer_span = by_call["check_meyerian"]
    inner_span = by_call["minkowski"]
    assert math.isclose(own[outer_span.sid], (outer_span.end - outer_span.start) - (inner_span.end - inner_span.start))


def test_per_layer_medians_ratios_and_totals():
    spans = [
        Span(0, None, 1, "ring", "silver_points", 0.0, 1.0),
        Span(1, None, 2, "ring", "silver_points", 0.0, 3.0),
        Span(2, None, 3, "ring", "silver_points", 0.0, 2.0),
        Span(3, None, 3, "pisot", "dilation_invariance", 2.0, 2.5),
    ]
    counts = {
        1: Counter({"pointset.rows_in": 10, "pointset.rows_out": 5, "ring.points": 4}),
        2: Counter({"pointset.rows_in": 10, "pointset.rows_out": 10, "ring.points": 8}),
        3: Counter({"ring.points": 6}),
    }
    out = metrics.per_layer(spans, counts, [1, 2, 3], refusals=3, unexpected=0, overhead_frac=0.01)
    assert set(out) == set(metrics.PER_LAYER)
    assert out["ring.busy_s"] == 2.0
    assert out["ring.points"] == 6
    assert out["pointset.dedupe_ratio"] == 0.75
    assert out["pisot.calls"] == 0
    assert out["pisot.busy_s"] == 0.0
    assert out["errors.refusals"] == 3
    assert out["cli.bytes_per_point"] == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = [workloads.job_params(name, 11, i) for i in range(20)]
    again = [workloads.job_params(name, 11, i) for i in range(20)]
    other = [workloads.job_params(name, 12, i) for i in range(20)]
    assert first == again
    assert first != other


def test_generator_covers_every_stratum_each_cycle():
    d = [workloads._Draw("silver-flat", 5, i) for i in range(workloads.STRATA)]
    strata = sorted(int(x.unit("T_enum") * workloads.STRATA) for x in d)
    assert strata == list(range(workloads.STRATA))


def test_generator_stays_in_the_stated_ranges():
    for i in range(40):
        s = workloads.job_params("silver-flat", 3, i)
        assert 4000 <= s["T_enum"] <= 8000 and 45 <= s["ac_range"] <= 90
        assert s["ac_T"] + s["ac_range"] <= s["T_enum"] and s["palm_T"] <= s["T_enum"]
        h = workloads.job_params("heisenberg-fibered", 3, i)
        assert 3.0 <= h["ac_T"] <= 4.0 and 4.0 <= h["ac_range"] <= 5.0
        c = workloads.job_params("cli-roundtrip", 3, i)
        assert c["refuse_factor"] > 1.0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
