"""Unit tests for the crash-safe artifact store."""

import json
import threading
import time

import numpy as np
import pytest

from repro.io import artifacts as A
from repro.obs import observe

from .faults import bit_flip, crash_writer, dead_pid, sigkill_rc, truncate_file


@pytest.fixture
def arrays():
    return {"a": np.arange(20, dtype=np.int64), "b": np.eye(3)}


class TestWriteRead:
    def test_round_trip(self, tmp_path, arrays):
        path = tmp_path / "x.npz"
        A.write_artifact(path, arrays, schema="t", meta={"k": 1, "s": "v"})
        loaded, meta = A.read_artifact(path, schema="t")
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"], arrays["a"])
        assert np.array_equal(loaded["b"], arrays["b"])
        assert meta == {"k": 1, "s": "v"}

    def test_reserved_header_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            A.write_artifact(
                tmp_path / "x.npz", {A.HEADER_KEY: np.arange(3)}, schema="t"
            )

    def test_no_tmp_residue_after_write(self, tmp_path, arrays):
        A.write_artifact(tmp_path / "x.npz", arrays, schema="t")
        assert [p.name for p in tmp_path.iterdir()] == ["x.npz"]

    def test_schema_mismatch(self, tmp_path, arrays):
        path = tmp_path / "x.npz"
        A.write_artifact(path, arrays, schema="t")
        with pytest.raises(A.SchemaMismatch):
            A.read_artifact(path, schema="other")

    def test_version_mismatch(self, tmp_path, arrays):
        path = tmp_path / "x.npz"
        A.write_artifact(path, arrays, schema="t", version=A.ARTIFACT_VERSION + 1)
        with pytest.raises(A.SchemaMismatch):
            A.read_artifact(path, schema="t")

    def test_truncation_detected(self, tmp_path, arrays):
        path = tmp_path / "x.npz"
        A.write_artifact(path, arrays, schema="t")
        truncate_file(path)
        with pytest.raises(A.CorruptArtifact):
            A.read_artifact(path, schema="t")

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "x.npz"
        # Incompressible payload so a mid-file flip lands in array data.
        rng = np.random.default_rng(0)
        A.write_artifact(path, {"a": rng.random(4096)}, schema="t")
        bit_flip(path)
        with pytest.raises(A.CorruptArtifact):
            A.read_artifact(path, schema="t")

    def test_not_an_npz_detected(self, tmp_path):
        path = tmp_path / "x.npz"
        path.write_bytes(b"definitely not a zip file")
        with pytest.raises(A.CorruptArtifact):
            A.read_artifact(path, schema="t")

    def test_array_set_mismatch_detected(self, tmp_path, arrays):
        path = tmp_path / "x.npz"
        A.write_artifact(path, arrays, schema="t")
        loaded, _ = A.read_artifact(path, schema="t")
        header = json.loads(
            str(np.load(path, allow_pickle=False)[A.HEADER_KEY])
        )
        # Re-save with an extra array the header does not declare.
        np.savez(
            path,
            **loaded,
            extra=np.arange(2),
            **{A.HEADER_KEY: np.array(json.dumps(header))},
        )
        with pytest.raises(A.CorruptArtifact):
            A.read_artifact(path, schema="t")


class TestLegacy:
    def test_headerless_npz_loads_as_legacy(self, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez(path, a=np.arange(4), meta=np.array(json.dumps({"n": 7})))
        arrays, meta = A.read_artifact(path, schema="t")
        assert np.array_equal(arrays["a"], np.arange(4))
        assert meta == {"n": 7}

    def test_headerless_rejected_when_legacy_disallowed(self, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez(path, a=np.arange(4))
        with pytest.raises(A.SchemaMismatch):
            A.read_artifact(path, schema="t", allow_legacy=False)


class TestQuarantine:
    def test_quarantine_moves_file(self, tmp_path):
        path = tmp_path / "x.npz"
        path.write_bytes(b"junk")
        dest = A.quarantine(path)
        assert dest is not None and dest.exists() and not path.exists()
        assert dest.name.startswith("x.npz.corrupt-")

    def test_quarantine_missing_file_returns_none(self, tmp_path):
        assert A.quarantine(tmp_path / "gone.npz") is None

    def test_load_or_quarantine_counts_and_misses(self, tmp_path):
        path = tmp_path / "x.npz"
        path.write_bytes(b"junk")
        with observe(run_id="q") as ob:
            out = A.load_or_quarantine(
                path, lambda p: A.read_artifact(p, schema="t")
            )
        assert out is None
        assert not path.exists()
        assert list(tmp_path.glob("x.npz.corrupt-*"))
        counters = ob.metrics.snapshot()["counters"]
        assert counters["artifact_cache.corrupt"] == 1
        assert counters["artifact_cache.quarantined"] == 1

    def test_load_or_quarantine_passes_through_good_artifact(self, tmp_path):
        path = tmp_path / "x.npz"
        A.write_artifact(path, {"a": np.arange(3)}, schema="t")
        out = A.load_or_quarantine(path, lambda p: A.read_artifact(p, schema="t"))
        assert out is not None
        arrays, _ = out
        assert np.array_equal(arrays["a"], np.arange(3))

    def test_missing_file_is_plain_miss(self, tmp_path):
        assert (
            A.load_or_quarantine(
                tmp_path / "absent.npz",
                lambda p: A.read_artifact(p, schema="t"),
            )
            is None
        )

    def test_read_missing_file_raises_missing_not_corrupt(self, tmp_path):
        with pytest.raises(A.MissingArtifact) as exc:
            A.read_artifact(tmp_path / "absent.npz", schema="t")
        assert not isinstance(exc.value, A.CorruptArtifact)
        assert "absent.npz" in str(exc.value)

    def test_file_vanishing_mid_load_is_plain_miss(self, tmp_path):
        # The file exists when checked but is gone when the loader runs
        # (another process removed it): a miss, not corruption.
        path = tmp_path / "x.npz"
        A.write_artifact(path, {"a": np.arange(3)}, schema="t")

        def loader(p):
            p.unlink()
            return A.read_artifact(p, schema="t")

        with observe(run_id="gone") as ob:
            assert A.load_or_quarantine(path, loader) is None
        counters = ob.metrics.snapshot()["counters"]
        assert "artifact_cache.corrupt" not in counters
        assert "artifact_cache.quarantined" not in counters
        assert not list(tmp_path.glob("x.npz.corrupt-*"))

    def test_corrupt_file_still_quarantined_unchanged(self, tmp_path):
        path = tmp_path / "x.npz"
        A.write_artifact(path, {"a": np.arange(3)}, schema="t")
        truncate_file(path, 0.5)
        damaged = path.read_bytes()
        with pytest.raises(A.CorruptArtifact):
            A.read_artifact(path, schema="t")
        with observe(run_id="bad") as ob:
            assert A.load_or_quarantine(path, lambda p: A.read_artifact(p, schema="t")) is None
        counters = ob.metrics.snapshot()["counters"]
        assert counters["artifact_cache.corrupt"] == 1
        assert counters["artifact_cache.quarantined"] == 1
        (moved,) = tmp_path.glob("x.npz.corrupt-*")
        assert moved.read_bytes() == damaged


class TestAtomicity:
    def test_kill_before_replace_leaves_no_artifact(self, tmp_path):
        path = tmp_path / "x.npz"
        assert crash_writer(path, when="before_replace") == sigkill_rc()
        assert not path.exists()

    def test_kill_after_replace_leaves_valid_artifact(self, tmp_path):
        path = tmp_path / "x.npz"
        assert crash_writer(path, when="after_replace") == sigkill_rc()
        arrays, _ = A.read_artifact(path, schema="fault-test")
        assert np.array_equal(arrays["payload"], np.arange(10_000))

    def test_kill_mid_write_never_clobbers_previous_version(self, tmp_path):
        path = tmp_path / "x.npz"
        A.write_artifact(path, {"v": np.array([1])}, schema="fault-test")
        assert crash_writer(path, when="before_replace") == sigkill_rc()
        arrays, _ = A.read_artifact(path, schema="fault-test")
        assert np.array_equal(arrays["v"], np.array([1]))


class TestLocking:
    def test_lock_path_is_in_locks_subdir(self, tmp_path):
        lp = A.lock_path_for(tmp_path / "x.npz")
        assert lp == tmp_path / ".locks" / "x.npz.lock"

    @pytest.mark.parametrize("backend", ["auto", "pidfile"])
    def test_mutual_exclusion_across_threads(self, tmp_path, monkeypatch, backend):
        monkeypatch.setenv("REPRO_ARTIFACT_LOCK", backend)
        target = tmp_path / "x.npz"
        active = []
        overlaps = []

        def worker():
            with A.artifact_lock(target, timeout=30, poll=0.005):
                active.append(1)
                if len(active) > 1:
                    overlaps.append(True)
                time.sleep(0.02)
                active.pop()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not overlaps

    def test_pidfile_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_LOCK", "pidfile")
        target = tmp_path / "x.npz"
        lock_path = A.lock_path_for(target)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        # A live-owner lock (our own pid) that never goes away.
        lock_path.write_text(
            json.dumps({"pid": __import__("os").getpid(),
                        "host": __import__("socket").gethostname(),
                        "time": time.time()})
        )
        with pytest.raises(A.LockTimeout):
            with A.artifact_lock(target, timeout=0.3, poll=0.02):
                pass

    def test_pidfile_stale_dead_owner_taken_over(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_LOCK", "pidfile")
        target = tmp_path / "x.npz"
        lock_path = A.lock_path_for(target)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text(
            json.dumps({"pid": dead_pid(),
                        "host": __import__("socket").gethostname(),
                        "time": 0})
        )
        with observe(run_id="stale") as ob:
            with A.artifact_lock(target, timeout=5):
                pass
        assert ob.metrics.snapshot()["counters"]["artifact_cache.stale_locks"] >= 1

    def test_pidfile_unparseable_old_lock_taken_over(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_LOCK", "pidfile")
        target = tmp_path / "x.npz"
        lock_path = A.lock_path_for(target)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text("garbage")
        old = time.time() - 10_000
        __import__("os").utime(lock_path, (old, old))
        with A.artifact_lock(target, timeout=5, stale_after=60):
            pass

    def _stale_lock(self, tmp_path):
        import os

        lock_path = A.lock_path_for(tmp_path / "x.npz")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text(
            json.dumps({"pid": dead_pid(),
                        "host": __import__("socket").gethostname(),
                        "time": 0})
        )
        os.utime(lock_path, (0, 0))
        return lock_path

    def test_pidfile_takeover_replaces_never_unlinks(self, tmp_path, monkeypatch):
        """A stealer must swap the stale stamp atomically, not unlink it.

        The old unlink + re-create takeover had a window with no lock
        file at all, during which a second stealer could also "win" —
        and its unlink could delete the first winner's fresh lock.
        """
        import os

        lock_path = self._stale_lock(tmp_path)
        unlinked = []
        real_unlink = os.unlink

        def spying_unlink(path, *args, **kwargs):
            unlinked.append(str(path))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(A.os, "unlink", spying_unlink)
        lock = A._PidFileLock(lock_path, timeout=5, poll=0.01, stale_after=60)
        lock.acquire()
        assert str(lock_path) not in unlinked  # takeover was a replace
        assert json.loads(lock_path.read_text()) == lock._stamp
        lock.release()  # normal release does unlink our own file
        assert str(lock_path) in unlinked

    def test_pidfile_second_stealer_aborts_on_changed_content(self, tmp_path):
        """Once one waiter takes a stale lock over, a rival must back off.

        The rival re-reads immediately before publishing and finds the
        winner's fresh stamp instead of the stale one it judged, so its
        takeover aborts instead of clobbering the winner.
        """
        lock_path = self._stale_lock(tmp_path)
        winner = A._PidFileLock(lock_path, timeout=5, poll=0.01, stale_after=60)
        rival = A._PidFileLock(lock_path, timeout=5, poll=0.01, stale_after=60)
        winner.acquire()
        rival._stamp = {"pid": 1, "host": "h", "time": 0, "nonce": "rival"}
        assert rival._steal_if_stale() is False
        assert json.loads(lock_path.read_text()) == winner._stamp
        winner.release()
        assert not lock_path.exists()

    def test_pidfile_readback_detects_lost_takeover(self, tmp_path, monkeypatch):
        """A clobbered acquisition is detected, counted, and retried.

        Simulate a rival replacing the lock inside the settle window:
        the read-back sees a foreign stamp, the acquirer backs off
        (bumping ``lock_steal_races``) and, with the rival alive and
        fresh, times out instead of proceeding as a second holder.
        """
        lock_path = self._stale_lock(tmp_path)
        rival_stamp = {"pid": __import__("os").getpid(),
                       "host": __import__("socket").gethostname(),
                       "time": time.time(), "nonce": "rival"}
        real_sleep = time.sleep

        def clobbering_sleep(seconds):
            # The settle sleep: the rival's replace lands right here.
            if json.loads(lock_path.read_text()).get("nonce") != "rival":
                lock_path.write_text(json.dumps(rival_stamp))
            real_sleep(min(seconds, 0.001))

        monkeypatch.setattr(A.time, "sleep", clobbering_sleep)
        lock = A._PidFileLock(lock_path, timeout=0.3, poll=0.01, stale_after=60)
        with observe(run_id="race") as ob:
            with pytest.raises(A.LockTimeout):
                lock.acquire()
        counters = ob.metrics.snapshot()["counters"]
        assert counters["artifact_cache.lock_steal_races"] >= 1
        assert not lock._held
        # The rival's lock survived the loser's exit untouched.
        assert json.loads(lock_path.read_text()) == rival_stamp

    def test_pidfile_release_leaves_foreign_lock_alone(self, tmp_path):
        """A holder whose lock was taken over must not unlink the new owner's."""
        lock_path = A.lock_path_for(tmp_path / "x.npz")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock = A._PidFileLock(lock_path, timeout=5, poll=0.01, stale_after=60)
        lock.acquire()
        foreign = {"pid": 1, "host": "elsewhere", "time": time.time(), "nonce": "f"}
        lock_path.write_text(json.dumps(foreign))  # taken over while held
        lock.release()
        assert json.loads(lock_path.read_text()) == foreign


class TestStageCheckpoint:
    def test_save_then_load(self, tmp_path):
        cp = A.StageCheckpoint(tmp_path, "key1")
        cp.save("analysis", {"x": np.arange(5)}, meta={"n": 3})
        loaded = cp.load("analysis", require_arrays=("x",), require_meta=("n",))
        assert loaded is not None
        arrays, meta = loaded
        assert np.array_equal(arrays["x"], np.arange(5))
        assert meta["n"] == 3

    def test_different_run_key_misses(self, tmp_path):
        A.StageCheckpoint(tmp_path, "key1").save("analysis", {"x": np.arange(5)})
        assert A.StageCheckpoint(tmp_path, "key2").load("analysis") is None

    def test_resume_false_never_loads_but_still_saves(self, tmp_path):
        cp = A.StageCheckpoint(tmp_path, "key1", resume=False)
        cp.save("analysis", {"x": np.arange(5)})
        assert cp.load("analysis") is None
        assert A.StageCheckpoint(tmp_path, "key1").load("analysis") is not None

    def test_missing_required_key_quarantines(self, tmp_path):
        cp = A.StageCheckpoint(tmp_path, "key1")
        cp.save("analysis", {"x": np.arange(5)}, meta={})
        assert cp.load("analysis", require_meta=("bic",)) is None
        assert not cp.path("analysis").exists()
        assert list(tmp_path.glob("stage_analysis_key1.npz.corrupt-*"))

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        cp = A.StageCheckpoint(tmp_path, "key1")
        cp.save("ga", {"mask": np.ones(4, dtype=bool)})
        truncate_file(cp.path("ga"))
        with observe(run_id="cc") as ob:
            assert cp.load("ga") is None
        assert ob.metrics.snapshot()["counters"]["artifact_cache.corrupt"] == 1

    def test_wrong_stage_schema_rejected(self, tmp_path):
        cp = A.StageCheckpoint(tmp_path, "key1")
        cp.save("analysis", {"x": np.arange(5)})
        # Rename the analysis checkpoint over the ga slot: schema differs.
        cp.path("analysis").rename(cp.path("ga"))
        assert cp.load("ga") is None
