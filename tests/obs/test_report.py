"""Run report: build → write → load → validate round-trip, rendering."""

import json

import pytest

from repro.config import AnalysisConfig
from repro.obs import (
    REQUIRED_KEYS,
    SCHEMA_VERSION,
    STAGES,
    Observation,
    build_report,
    load_report,
    missing_stages,
    render_report,
    validate_report,
    write_report,
)


def _observation_with_stages():
    ob = Observation(run_id="r1")
    with ob.span("characterize"):
        for stage in STAGES:
            with ob.span(stage):
                pass
    ob.metrics.counter_add("kmeans.restarts", 10)
    ob.metrics.gauge_set("kmeans.skipped_row_ratio", 0.5)
    ob.metrics.histogram_observe("kmeans.restart_bic", -120.0)
    return ob


def test_round_trip_is_valid(tmp_path):
    ob = _observation_with_stages()
    report = build_report(ob, config=AnalysisConfig.tiny(), command="characterize")
    path = write_report(tmp_path / "run.json", report)
    loaded = load_report(path)
    assert validate_report(loaded) == []
    assert missing_stages(loaded) == []
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert loaded["run_id"] == "r1"
    assert loaded["config"]["digest"] == AnalysisConfig.tiny().full_key()
    assert (
        loaded["config"]["fields"]["intervals_per_benchmark"]
        == AnalysisConfig.tiny().intervals_per_benchmark
    )
    assert loaded["metrics"]["counters"]["kmeans.restarts"] == 10


def test_report_is_plain_json(tmp_path):
    ob = _observation_with_stages()
    report = build_report(ob, config=AnalysisConfig.tiny())
    text = json.dumps(report)  # raises if anything non-serializable leaked
    assert "kmeans.restart_bic" in text


def test_build_report_closes_the_observation():
    ob = Observation(run_id="r2")
    report = build_report(ob)
    assert report["spans"]["wall_s"] >= 0.0
    assert report["environment"]["python"]


def test_validate_flags_missing_keys():
    problems = validate_report({"run_id": "x"})
    missing = {p for p in problems if p.startswith("missing required key")}
    assert len(missing) == len(REQUIRED_KEYS) - 1


def test_validate_flags_bad_shapes():
    ob = _observation_with_stages()
    report = build_report(ob, config=AnalysisConfig.tiny())
    report["schema_version"] = 99
    report["spans"] = []
    report["metrics"] = {"counters": {}}
    report["config"] = {}
    problems = validate_report(report)
    assert any("schema_version" in p for p in problems)
    assert any("span tree" in p for p in problems)
    assert any("gauges" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_missing_stages_reports_absent_names():
    ob = Observation(run_id="r3")
    with ob.span("pca"):
        pass
    report = build_report(ob)
    assert missing_stages(report) == [
        s for s in STAGES if s != "pca"
    ]


def test_render_report_shows_tree_and_metrics():
    ob = _observation_with_stages()
    text = render_report(build_report(ob, config=AnalysisConfig.tiny()))
    assert "run report r1" in text
    assert "characterize" in text
    for stage in STAGES:
        assert stage in text
    assert "kmeans.restarts" in text
    assert "kmeans.restart_bic" in text
    assert "missing methodology stages" not in text


def test_render_elides_excess_siblings():
    ob = Observation(run_id="r4")
    with ob.span("fanout"):
        for i in range(10):
            with ob.span("task", index=i):
                pass
    text = render_report(build_report(ob), max_children=3)
    assert "... 7 more spans elided" in text


def test_render_notes_missing_stages():
    ob = Observation(run_id="r5")
    text = render_report(build_report(ob))
    assert "missing methodology stages" in text
    assert "mica" in text


@pytest.mark.parametrize("key", REQUIRED_KEYS)
def test_every_required_key_is_required(key):
    ob = _observation_with_stages()
    report = build_report(ob, config=AnalysisConfig.tiny())
    del report[key]
    assert any(key in p for p in validate_report(report))
