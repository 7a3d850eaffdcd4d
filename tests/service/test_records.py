"""Unit tests for the generic append-only record log."""

import json
import os

from repro.io.artifacts import quarantine
from repro.io.records import RECORD_SCHEMA_VERSION, RecordLog, canonical_digest


def _log(tmp_path, **kwargs):
    return RecordLog(tmp_path / "log", schema="test:rec", **kwargs)


class TestAppendRead:
    def test_round_trip_and_ordering(self, tmp_path):
        log = _log(tmp_path)
        for i in range(3):
            log.append({"i": i}, tag=f"t{i}")
        envelopes = log.read()
        assert [e["seq"] for e in envelopes] == [1, 2, 3]
        assert [e["record"]["i"] for e in envelopes] == [0, 1, 2]
        for e in envelopes:
            assert e["schema"] == "test:rec"
            assert e["version"] == RECORD_SCHEMA_VERSION
            assert e["sha256"] == canonical_digest(e["record"])

    def test_empty_log_reads_empty(self, tmp_path):
        assert _log(tmp_path).read() == []

    def test_tag_is_sanitized_into_the_filename(self, tmp_path):
        log = _log(tmp_path)
        envelope = log.append({"x": 1}, tag="a/b c!")
        assert "a_b_c_" in envelope["path"]

    def test_seq_survives_lost_counter(self, tmp_path):
        log = _log(tmp_path)
        log.append({"i": 0})
        log.append({"i": 1})
        (log.root / "COUNTER").unlink()
        envelope = log.append({"i": 2})
        # Scanning the record files themselves prevents seq reuse.
        assert envelope["seq"] == 3
        # Compacted: every record is archived, the snapshot is the only
        # live file holding a seq.
        log.snapshot({"n": 3}, 3)
        (log.root / "COUNTER").unlink()
        assert log.append({"i": 3})["seq"] == 4
        # Snapshot quarantined: its renamed copy still holds the seq.
        log.snapshot({"n": 4}, 4)
        quarantine(log.root / "snapshot-000004.json")
        (log.root / "COUNTER").unlink()
        assert log.append({"i": 4})["seq"] == 5
        # Nothing live at all: only archive/ knows the seqs.
        log.snapshot({"n": 5}, 5)
        for path in log.root.glob("snapshot-*"):
            os.replace(path, log.archive / path.name)
        (log.root / "COUNTER").unlink()
        assert log.append({"i": 5})["seq"] == 6


class TestVerification:
    def test_tampered_record_is_quarantined_and_skipped(self, tmp_path):
        log = _log(tmp_path)
        log.append({"i": 0})
        bad = log.append({"i": 1})
        log.append({"i": 2})
        path = bad["path"]
        doc = json.loads(open(path).read())
        doc["record"]["i"] = 999  # digest no longer matches
        with open(path, "w") as fh:
            json.dump(doc, fh)
        envelopes = log.read()
        assert [e["record"]["i"] for e in envelopes] == [0, 2]
        assert list(log.root.glob("*.corrupt-*"))

    def test_truncated_record_is_quarantined(self, tmp_path):
        log = _log(tmp_path)
        envelope = log.append({"payload": "x" * 100})
        raw = open(envelope["path"]).read()
        with open(envelope["path"], "w") as fh:
            fh.write(raw[: len(raw) // 2])
        assert log.read() == []
        assert list(log.root.glob("*.corrupt-*"))

    def test_wrong_schema_is_rejected(self, tmp_path):
        a = RecordLog(tmp_path / "log", schema="schema:a", prefix="rec")
        b = RecordLog(tmp_path / "log", schema="schema:b", prefix="rec")
        a.append({"x": 1})
        assert b.read() == []  # quarantined as schema-mismatched


class TestConcurrency:
    def test_threaded_appends_yield_gap_free_unique_seqs(self, tmp_path):
        import threading

        log = _log(tmp_path)
        errors = []

        def appender(k):
            try:
                for i in range(5):
                    log.append({"writer": k, "i": i})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=appender, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        seqs = [e["seq"] for e in log.read()]
        assert seqs == list(range(1, 21))
