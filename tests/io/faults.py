"""Fault injectors for the crash-safety test suite.

Shared by ``tests/io/test_faults.py``, ``tests/core/test_resume.py`` and
``tests/service/test_snapshots.py``: byte-level corruption of on-disk
artifacts (truncation, bit flips, torn writes), subprocess writers
SIGKILLed at chosen points inside the atomic-write protocol or inside a
job-queue snapshot, and lock holders that die while holding an
advisory lock.  Everything is deterministic — no timing-based kills.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parents[2] / "src"


def env_with_src(**extra: str) -> dict:
    """A subprocess environment that can ``import repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def truncate_file(path: Path, keep: float = 0.5) -> None:
    """Truncate a file to ``keep`` of its size — a partial/torn write."""
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[: max(1, int(len(data) * keep))])


def bit_flip(path: Path, offset: Optional[int] = None) -> None:
    """Flip one byte (default: the middle of the file) — silent bit rot."""
    raw = bytearray(Path(path).read_bytes())
    i = len(raw) // 2 if offset is None else offset
    raw[i] ^= 0xFF
    Path(path).write_bytes(bytes(raw))


_WRITER_CODE = """
import os, signal, sys
import numpy as np
from repro.io import artifacts

when = sys.argv[2]
real_replace = os.replace

def killing_replace(src, dst):
    if when == "before_replace":
        os.kill(os.getpid(), signal.SIGKILL)
    real_replace(src, dst)
    if when == "after_replace":
        os.kill(os.getpid(), signal.SIGKILL)

os.replace = killing_replace
artifacts.write_artifact(
    sys.argv[1], {"payload": np.arange(10_000)}, schema="fault-test"
)
"""


def crash_writer(path: Path, when: str = "before_replace") -> int:
    """Run ``write_artifact`` in a subprocess SIGKILLed at ``when``.

    ``before_replace`` dies with the payload fully written to the temp
    file but not yet published; ``after_replace`` dies immediately after
    publication.  Returns the subprocess's return code (-SIGKILL).
    """
    proc = subprocess.run(
        [sys.executable, "-c", _WRITER_CODE, str(path), when],
        env=env_with_src(),
        capture_output=True,
    )
    return proc.returncode


_COMPACTOR_CODE = """
import os, signal, sys
from repro.config import AnalysisConfig
from repro.io import records
from repro.service import JobQueue

root, when, interval = sys.argv[1], sys.argv[2], int(sys.argv[3])
records.SNAPSHOT_INTERVAL = interval
real_replace = os.replace
archived = 0

def killing_replace(src, dst):
    global archived
    real_replace(src, dst)
    parent, name = os.path.split(os.fspath(dst))
    if os.path.basename(parent) == "archive":
        archived += 1
        if when == "mid_archive" and archived == interval // 2:
            os.kill(os.getpid(), signal.SIGKILL)
    elif when == "after_snapshot" and name.startswith("snapshot-"):
        os.kill(os.getpid(), signal.SIGKILL)

os.replace = killing_replace
queue = JobQueue(root)
cfg = AnalysisConfig.tiny()
for i in range(4 * interval):
    queue.submit(suites=["BMW"], config=cfg.replace(seed=i % 7))
    view = queue.claim("crasher")
    if view is not None and i % 3 == 0:
        queue.fail(view.job_id, "crasher", "boom")
    elif view is not None:
        queue.complete(view.job_id, "crasher", {"i": i})
print("NO-CRASH", flush=True)
"""


def crash_queue_compaction(service_root: Path, when: str, interval: int) -> int:
    """Drive a job queue in a subprocess SIGKILLed inside its first snapshot.

    The child sets the snapshot interval to ``interval`` and mixes
    submits, dedup attaches, claims, completions and failures until
    the first snapshot: ``after_snapshot`` dies right after the
    snapshot's ``os.replace`` publishes it, before any superseded file
    moves into ``archive/``; ``mid_archive`` dies after ``interval // 2``
    of those moves.  Returns the subprocess's return code (-SIGKILL).
    """
    proc = subprocess.run(
        [sys.executable, "-c", _COMPACTOR_CODE, str(service_root), when, str(interval)],
        env=env_with_src(),
        capture_output=True,
    )
    return proc.returncode


_HOLDER_CODE = """
import sys, time
from repro.io.artifacts import artifact_lock

with artifact_lock(sys.argv[1], timeout=60):
    print("HELD", flush=True)
    time.sleep(600)
"""


def spawn_lock_holder(target: Path, backend: str = "auto") -> subprocess.Popen:
    """Start a subprocess holding ``artifact_lock(target)``.

    Blocks until the child confirms acquisition.  Kill it with
    :func:`kill_process` to simulate lock-holder death.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLDER_CODE, str(target)],
        env=env_with_src(REPRO_ARTIFACT_LOCK=backend),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if line.strip() != "HELD":
        proc.kill()
        raise RuntimeError(f"lock holder failed to start: {line!r}")
    return proc


_TAKEOVER_RACER_CODE = """
import os, sys, time
from repro.io.artifacts import artifact_lock

target, ledger, go, name = sys.argv[1:5]
print("READY", flush=True)
while not os.path.exists(go):
    time.sleep(0.001)
with artifact_lock(target, timeout=60, poll=0.002, stale_after=0.1):
    with open(ledger, "a") as fh:
        fh.write(f"enter {name}\\n")
        fh.flush()
        os.fsync(fh.fileno())
    time.sleep(0.05)
    with open(ledger, "a") as fh:
        fh.write(f"exit {name}\\n")
        fh.flush()
        os.fsync(fh.fileno())
print("DONE", flush=True)
"""


def spawn_takeover_racers(
    target: Path, ledger: Path, go: Path, n: int = 2
) -> "list[subprocess.Popen]":
    """Start ``n`` pidfile-backend waiters racing to take over one lock.

    Each process blocks until the ``go`` file appears (the start
    barrier), then tries ``artifact_lock(target)`` with a short
    ``stale_after`` — point them at a pre-staled lock file and they all
    judge it stale together, which is exactly the schedule where the
    old unlink-based takeover let several "winners" through.  Inside
    the lock each appends ``enter <name>`` / ``exit <name>`` lines to
    ``ledger``; mutual exclusion holds iff the lines strictly
    alternate.
    """
    procs = []
    for i in range(n):
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _TAKEOVER_RACER_CODE,
                str(target),
                str(ledger),
                str(go),
                f"r{i}",
            ],
            env=env_with_src(REPRO_ARTIFACT_LOCK="pidfile"),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        if line.strip() != "READY":
            for p in procs + [proc]:
                p.kill()
            raise RuntimeError(f"takeover racer failed to start: {line!r}")
        procs.append(proc)
    return procs


def kill_process(proc: subprocess.Popen) -> None:
    """SIGKILL a subprocess and reap it."""
    proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def dead_pid() -> int:
    """A pid guaranteed not to be alive (a reaped child's)."""
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True)
    return int(child.stdout.strip())


def sigkill_rc() -> int:
    """The return code a SIGKILLed subprocess reports."""
    return -signal.SIGKILL
