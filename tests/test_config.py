"""Tests for AnalysisConfig."""

import pytest

from repro.config import AnalysisConfig


def test_presets_are_valid():
    for preset in (AnalysisConfig.paper(), AnalysisConfig.small(), AnalysisConfig.tiny()):
        assert preset.interval_instructions > 0
        assert preset.n_prominent <= preset.n_clusters


def test_presets_scale_down():
    paper, small, tiny = (
        AnalysisConfig.paper(),
        AnalysisConfig.small(),
        AnalysisConfig.tiny(),
    )
    assert paper.interval_instructions > small.interval_instructions > tiny.interval_instructions
    assert paper.n_clusters > small.n_clusters > tiny.n_clusters


def test_replace_creates_modified_copy():
    cfg = AnalysisConfig.tiny()
    other = cfg.replace(n_clusters=99, n_prominent=50)
    assert other.n_clusters == 99
    assert cfg.n_clusters != 99


def test_config_is_frozen():
    cfg = AnalysisConfig.tiny()
    with pytest.raises(Exception):
        cfg.n_clusters = 5


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        AnalysisConfig(interval_instructions=0)
    with pytest.raises(ValueError):
        AnalysisConfig(intervals_per_benchmark=0)
    with pytest.raises(ValueError):
        AnalysisConfig(n_clusters=10, n_prominent=20)
    with pytest.raises(ValueError):
        AnalysisConfig(n_key_characteristics=0)
    with pytest.raises(ValueError):
        AnalysisConfig(n_key_characteristics=100)


def test_cache_key_is_stable():
    assert AnalysisConfig.paper().cache_key() == AnalysisConfig.paper().cache_key()


def test_cache_key_sensitive_to_seed():
    a = AnalysisConfig.tiny()
    b = a.replace(seed=a.seed + 1)
    assert a.cache_key() != b.cache_key()


def test_kmeans_engine_validated():
    assert AnalysisConfig(kmeans_engine="reference").kmeans_engine == "reference"
    assert AnalysisConfig(kmeans_engine="accelerated").kmeans_engine == "accelerated"
    with pytest.raises(ValueError):
        AnalysisConfig(kmeans_engine="fast")


def test_execution_knobs_excluded_from_full_key():
    base = AnalysisConfig.tiny()
    assert base.full_key() == base.replace(kmeans_engine="reference").full_key()
    assert base.full_key() == base.replace(n_jobs=4).full_key()
