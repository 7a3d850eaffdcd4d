"""Job-queue snapshots: the fold of snapshot + tail equals the full fold.

Every test shrinks the snapshot interval so a handful of operations
crosses several snapshot boundaries, then checks the queue's fold
against the reference full fold in ``fold_oracle``, and that nothing
was deleted: every allocated seq still has its record file, live or in
``archive/``.
"""

import dataclasses
import json
import os
import re
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.io import records
from repro.service import JobQueue
from tests.io.faults import bit_flip, crash_queue_compaction, sigkill_rc, truncate_file
from tests.service.fold_oracle import full_fold

CFG = AnalysisConfig.tiny()
INTERVAL = 6


@pytest.fixture
def small_interval():
    with mock.patch.object(records, "SNAPSHOT_INTERVAL", INTERVAL):
        yield INTERVAL


def _docs(views):
    return [dataclasses.asdict(v) for v in views.values()]


def _assert_folds_like_the_oracle(root):
    assert _docs(JobQueue(root).jobs()) == _docs(full_fold(root))


def _assert_nothing_deleted(root):
    queue = Path(root) / "queue"
    last = int((queue / "COUNTER").read_text())
    archive = queue / "archive"
    names = os.listdir(queue) + (os.listdir(archive) if archive.is_dir() else [])
    seqs = sorted(int(m.group(1)) for n in names if (m := re.match(r"^job-(\d+)-", n)))
    assert seqs == list(range(1, last + 1))


def _drive(queue, n, start=0):
    """A deterministic mix of submits, attaches, claims, completes, fails."""
    for i in range(start, start + n):
        queue.submit(suites=["BMW"], config=CFG.replace(seed=i % 5))
        view = queue.claim("w")
        if view is not None:
            if i % 4 == 0:
                queue.fail(view.job_id, "w", "boom")
            else:
                queue.complete(view.job_id, "w", {"i": i})


def _tamper(path):
    """Valid JSON, wrong content: only the digest can tell."""
    doc = json.loads(path.read_text())
    doc["record"]["state"]["jobs"][0]["submissions"] += 1
    path.write_text(json.dumps(doc))


def _snapshots(root, where=""):
    return sorted((Path(root) / "queue" / where).glob("snapshot-*.json"))


class TestCompaction:
    def test_fold_reads_snapshot_plus_bounded_tail(self, tmp_path, small_interval):
        root = tmp_path / "svc"
        queue = JobQueue(root)
        _drive(queue, 12)
        assert len(_snapshots(root)) == 1  # older ones were moved aside
        assert len(_snapshots(root, "archive")) >= 2
        snapshot, tail = queue.log.load()
        assert snapshot is not None
        assert len(tail) < small_interval
        assert all(e["seq"] > snapshot["seq"] for e in tail)
        _assert_folds_like_the_oracle(root)
        _assert_nothing_deleted(root)

    def test_one_fold_per_transaction(self, tmp_path, small_interval):
        queue = JobQueue(tmp_path / "svc")
        with mock.patch.object(JobQueue, "jobs", autospec=True, side_effect=JobQueue.jobs) as jobs:
            view, _ = queue.submit(suites=["BMW"], config=CFG)
            queue.submit(suites=["BMW"], config=CFG)
            queue.claim("w")
            queue.complete(view.job_id, "w", {})
        assert jobs.call_count == 4

    def test_returned_views_match_a_refold(self, tmp_path, small_interval):
        root = tmp_path / "svc"
        queue = JobQueue(root)
        for i in range(3 * small_interval):
            view, _ = queue.submit(suites=["BMW"], config=CFG.replace(seed=i % 4))
            assert view == queue.get(view.job_id)
            claimed = queue.claim("w")
            if claimed is not None:
                assert claimed == queue.get(claimed.job_id)

    def test_read_skips_covered_names_without_opening_them(self, tmp_path):
        log = records.RecordLog(tmp_path / "log", schema="test:rec")
        for i in range(4):
            log.append({"i": i})
        log.snapshot({"n": 4}, 4)
        # A garbage file at the covered seq: opening it would quarantine it.
        (log.root / "rec-000004-stray.json").write_text("not json")
        log.append({"i": 4})
        snapshot, tail = log.load()
        assert snapshot["record"] == {"seq": 4, "state": {"n": 4}}
        assert [e["record"]["i"] for e in tail] == [4]
        assert (log.root / "rec-000004-stray.json").exists()
        assert not list(log.root.glob("*.corrupt-*"))


class TestConcurrentReaders:
    def test_readers_racing_compaction_never_lose_a_job(self, tmp_path, small_interval):
        # A reader that folded an old snapshot with a tail read after a
        # newer snapshot moved records aside would see jobs vanish.
        queue = JobQueue(tmp_path / "svc")
        submitted = [0]
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for i in range(10 * small_interval):
                    queue.submit(suites=["BMW"], config=CFG.replace(seed=i))
                    submitted[0] = i + 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    floor = submitted[0]
                    seen = len(JobQueue(tmp_path / "svc").jobs())
                    if seen < floor:
                        errors.append(f"read {seen} jobs after {floor} were submitted")
                        return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        assert submitted[0] == 10 * small_interval


class TestCorruptSnapshot:
    @pytest.mark.parametrize("damage", [bit_flip, truncate_file, _tamper])
    def test_damaged_snapshot_is_quarantined_and_state_rebuilt(
        self, tmp_path, small_interval, damage
    ):
        root = tmp_path / "svc"
        queue = JobQueue(root)
        _drive(queue, 10)
        expected = _docs(full_fold(root))
        (newest,) = _snapshots(root)
        damage(newest)
        assert _docs(queue.jobs()) == expected
        assert not newest.exists()
        assert list(newest.parent.glob(newest.name + ".corrupt-*"))
        # The next transition writes a fresh snapshot; nothing was lost.
        _drive(queue, 2, start=10)
        assert _snapshots(root)
        _assert_folds_like_the_oracle(root)
        _assert_nothing_deleted(root)

    def test_older_live_snapshot_is_the_fallback(self, tmp_path):
        log = records.RecordLog(tmp_path / "log", schema="test:rec")
        for i in range(3):
            log.append({"i": i})
        log.snapshot({"n": 3}, 3)
        log.append({"i": 3})
        # A crash right after publishing the next snapshot: nothing
        # was moved aside yet, so the older snapshot is still live.
        newer = log.root / "snapshot-000004.json"
        records.write_json_atomic(newer, {"schema": "test:rec:snapshot"})
        snapshot, tail = log.load()
        assert snapshot["seq"] == 3
        assert [e["record"]["i"] for e in tail] == [3]
        assert not newer.exists()


class TestCrashDuringCompaction:
    @pytest.mark.parametrize("when", ["after_snapshot", "mid_archive"])
    def test_sigkill_inside_compaction_folds_the_same(self, tmp_path, when):
        root = tmp_path / "svc"
        assert crash_queue_compaction(root, when, interval=8) == sigkill_rc()
        assert _snapshots(root)
        archive = root / "queue" / "archive"
        moved = len(os.listdir(archive)) if archive.is_dir() else 0
        assert moved == (0 if when == "after_snapshot" else 4)
        _assert_folds_like_the_oracle(root)
        # Carry on past the next snapshot: it sweeps the leftovers.
        with mock.patch.object(records, "SNAPSHOT_INTERVAL", 8):
            _drive(JobQueue(root), 8, start=100)
            (newest,) = _snapshots(root)
            covered = int(newest.name[len("snapshot-") : -len(".json")])
            live = [n for n in os.listdir(root / "queue") if n.startswith("job-")]
            assert all(int(n.split("-")[1]) > covered for n in live)
        _assert_folds_like_the_oracle(root)
        _assert_nothing_deleted(root)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["submit", "claim", "complete", "fail"]),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=10,
    max_size=40,
)


@settings(max_examples=25, deadline=None)
@given(ops=_OPS)
def test_random_histories_fold_like_the_oracle(ops):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        records, "SNAPSHOT_INTERVAL", 4
    ):
        root = Path(tmp) / "svc"
        queue = JobQueue(root)
        queue.submit(suites=["BMW"], config=CFG)
        for op, arg in ops:
            running = sorted(j for j, v in queue.jobs().items() if v.state == "running")
            if op == "submit":
                # Seeds repeat, so some submissions attach (or revive).
                queue.submit(suites=["BMW"], config=CFG.replace(seed=arg), priority=arg % 2)
            elif op == "claim":
                queue.claim(f"w{arg}")
            elif running:
                job_id = running[arg % len(running)]
                if op == "complete":
                    queue.complete(job_id, "w", {"arg": arg})
                else:
                    queue.fail(job_id, "w", f"error {arg}")
        _assert_folds_like_the_oracle(root)
        _assert_nothing_deleted(root)
