"""Unit tests for the evaluation metrics."""

import time

import numpy as np
import pytest

from repro.baselines.htree import HTree
from repro.core.range_cubing import range_cubing
from repro.core.range_trie import RangeTrie
from repro.cube.full_cube import full_cube_size
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.ratios import (
    compression_report,
    node_ratio,
    node_ratio_from_counts,
    tuple_ratio,
)
from repro.metrics.timing import Timer, time_call

from tests.conftest import make_paper_table


def test_tuple_ratio_against_oracle_count():
    table = make_paper_table()
    cube = range_cubing(table)
    assert tuple_ratio(cube) == pytest.approx(33 / 69)
    assert tuple_ratio(cube, full_cube_size(table)) == pytest.approx(33 / 69)


def test_node_ratio_paper_example():
    table = make_paper_table()
    trie = RangeTrie.build(table)
    htree = HTree.build(table)
    # 8 trie nodes vs 20 H-tree nodes (Figures 3(c) vs 3(d))
    assert node_ratio(trie, htree) == pytest.approx(8 / 20)
    assert node_ratio_from_counts(8, 20) == pytest.approx(0.4)


def test_node_ratio_handles_empty():
    assert node_ratio_from_counts(0, 0) == 1.0


def test_compression_report_on_paper_table():
    table = make_paper_table()
    report = compression_report(table)
    assert report.full_cube_cells == 69
    assert report.range_cube_tuples == 33
    assert report.quotient_cube_classes <= report.range_cube_tuples
    assert report.quotient_cube_classes <= report.condensed_cube_tuples
    assert 0 < report.tuple_ratio <= 1
    assert 0 < report.quotient_ratio <= report.tuple_ratio
    rows = report.rows()
    assert rows[0][1] == 69
    assert len(rows) == 4


def test_compression_report_respects_order():
    table = make_paper_table()
    plain = compression_report(table)
    reordered = compression_report(table, order=(3, 2, 1, 0))
    assert reordered.full_cube_cells == plain.full_cube_cells


def test_timer_measures_elapsed():
    with Timer() as t:
        time.sleep(0.01)
    assert t.seconds >= 0.009


def test_time_call_returns_result_and_seconds():
    result, seconds = time_call(sum, [1, 2, 3])
    assert result == 6
    assert seconds >= 0


def test_latency_histogram_counts_and_mean():
    h = LatencyHistogram()
    for s in (0.001, 0.002, 0.003, 0.010):
        h.record(s)
    assert h.count == 4
    assert h.mean == pytest.approx(0.004)
    assert h.min == 0.001 and h.max == 0.010


def test_latency_histogram_percentiles_bracket_the_samples():
    h = LatencyHistogram()
    samples = [i / 1000 for i in range(1, 101)]  # 1ms..100ms uniform
    for s in samples:
        h.record(s)
    # Geometric buckets with growth 1.25: within ~12% of the exact value.
    assert h.percentile(50) == pytest.approx(0.050, rel=0.13)
    assert h.percentile(95) == pytest.approx(0.095, rel=0.13)
    assert h.percentile(99) == pytest.approx(0.099, rel=0.13)
    assert h.percentile(0) == pytest.approx(h.min, rel=0.13)
    assert h.percentile(100) == pytest.approx(h.max, rel=0.13)
    assert h.percentile(100) <= h.max  # clamped: never overstates the extreme
    assert h.percentile(50) <= h.percentile(95) <= h.percentile(99)


def test_latency_histogram_tracks_numpy_and_a_sub_bucket_shift():
    """A 12% latency shift, smaller than one 1.25x bucket, must show."""
    rng = np.random.default_rng(0)
    base = rng.lognormal(np.log(0.55e-3), 0.5, 20_000)
    reported = {}
    for scale in (1.00, 1.12):
        samples = base * scale
        h = LatencyHistogram()
        for s in samples.tolist():
            h.record(s)
        for q in (50, 99):
            exact = float(np.percentile(samples, q, method="inverted_cdf"))
            assert h.percentile(q) == pytest.approx(exact, rel=0.03)
            reported[scale, q] = h.percentile(q)
    for q in (50, 99):
        assert reported[1.12, q] / reported[1.00, q] > 1.06


def test_latency_histogram_merge_equals_combined_recording():
    a, b, combined = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    for i, s in enumerate(x / 997 for x in range(1, 60)):
        (a if i % 2 else b).record(s)
        combined.record(s)
    a.merge(b)
    assert a.count == combined.count
    assert a.mean == pytest.approx(combined.mean)
    assert (a.min, a.max) == (combined.min, combined.max)
    for p in (50, 90, 95, 99):
        assert a.percentile(p) == combined.percentile(p)


def test_latency_histogram_merge_rejects_different_layouts():
    a = LatencyHistogram()
    b = LatencyHistogram(growth=1.5)
    with pytest.raises(ValueError):
        a.merge(b)


def test_latency_histogram_summary_and_empty_behaviour():
    h = LatencyHistogram()
    assert h.percentile(99) == 0.0
    assert h.mean == 0.0
    assert h.summary() == {
        "count": 0, "mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0,
        "p99_s": 0.0, "max_s": 0.0,
    }
    h.record(0.005)
    summary = h.summary()
    assert summary["count"] == 1
    assert summary["p50_s"] == summary["p99_s"] == 0.005  # clamped to max


def test_latency_histogram_validates_inputs():
    with pytest.raises(ValueError):
        LatencyHistogram(min_latency=0)
    with pytest.raises(ValueError):
        LatencyHistogram(growth=1.0)
    h = LatencyHistogram()
    with pytest.raises(ValueError):
        h.record(-0.001)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_latency_histogram_tiny_samples_land_in_bucket_zero():
    h = LatencyHistogram(min_latency=1e-6)
    h.record(0.0)
    h.record(1e-9)
    assert h.count == 2
    assert h.percentile(99) == h.max  # clamped: never overstates the extreme
