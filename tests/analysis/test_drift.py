"""Tests for generation-drift analysis."""

import pytest

from repro.analysis import (
    GENERATION_PAIRS,
    benchmark_centroid,
    benchmark_drift,
    generation_drift,
    typical_benchmark_distance,
)


def test_centroid_shape(small_result):
    c = benchmark_centroid(small_result, "SPECint2006", "astar")
    assert c.shape == (small_result.space.shape[1],)


def test_centroid_unknown_benchmark(small_result):
    with pytest.raises(KeyError):
        benchmark_centroid(small_result, "BMW", "retina")


def test_drift_is_symmetric_and_nonnegative(small_result):
    d1 = benchmark_drift(
        small_result, ("SPECint2000", "bzip2"), ("SPECint2006", "bzip2")
    )
    d2 = benchmark_drift(
        small_result, ("SPECint2006", "bzip2"), ("SPECint2000", "bzip2")
    )
    assert d1 == pytest.approx(d2)
    assert d1 >= 0


def test_self_drift_is_zero(small_result):
    d = benchmark_drift(
        small_result, ("SPECint2006", "astar"), ("SPECint2006", "astar")
    )
    assert d == 0.0


def test_generation_drift_covers_all_pairs(small_result):
    drift = generation_drift(small_result)
    assert len(drift) == len(GENERATION_PAIRS)
    assert "SPECint2006/bzip2" in drift
    assert all(v >= 0 for v in drift.values())


def test_successors_drift_less_than_unrelated_benchmarks(small_result):
    # bzip2-2006 is still closer to bzip2-2000 than random pairs are to
    # each other: a successor is a drifted version, not a new workload.
    drift = generation_drift(small_result)
    yardstick = typical_benchmark_distance(
        small_result, suites=("SPECint2000", "SPECint2006")
    )
    assert drift["SPECint2006/bzip2"] < yardstick
    assert drift["SPECint2006/perlbench"] < yardstick


def test_typical_distance_requires_two_benchmarks(small_result):
    with pytest.raises(ValueError):
        typical_benchmark_distance(small_result, suites=("NoSuchSuite",))
