"""Append-only, checksummed JSON record logs with snapshots.

The run-history store (:mod:`repro.obs.history`) established the
envelope discipline for durable JSON records: one file per record,
written with tmp + fsync + ``os.replace``, stamped with a monotonic
sequence number allocated under the artifact store's cross-process
advisory lock, and carrying a SHA-256 digest of its canonical payload
that is re-verified on every read (failures are quarantined, never
silently deleted).  :class:`RecordLog` generalizes that discipline so
other subsystems — first of all the service job queue
(:mod:`repro.service.queue`) — can append durable facts without
re-implementing it.

Layout::

    <root>/
      COUNTER                     # last allocated sequence number
      .locks/                     # artifact_lock residue
      <prefix>-000001-<tag>.json  # one envelope per record
      snapshot-000128.json        # folded state through seq 128
      archive/                    # records and snapshots a newer
                                  # snapshot superseded (moved, never deleted)

Envelope::

    {"schema": <schema>, "version": 1, "seq": 1,
     "created": <unix time>, "sha256": <digest of canonical record>,
     "record": {...}}

A snapshot is the same envelope with schema ``<schema>:snapshot``,
whose record is ``{"seq": <last seq folded>, "state": {...}}``.

A log is *append-only*: records are never rewritten in place.  State
machines layered on top (the job queue) model transitions as new
records and fold the log by sequence number, so a crash at any point
leaves a prefix that still tells the whole story.  So that a fold costs
the records since the last snapshot and not the whole history, the
owner periodically publishes its folded state with :meth:`RecordLog.snapshot`;
:meth:`RecordLog.load` then returns the newest verified snapshot plus
the records after it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs import get_logger

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "SNAPSHOT_INTERVAL",
    "RecordLog",
    "canonical_digest",
    "write_json_atomic",
]

PathLike = Union[str, Path]

#: Bump when the envelope layout changes incompatibly.
RECORD_SCHEMA_VERSION = 1

#: Records appended past the newest snapshot before the next one is due.
SNAPSHOT_INTERVAL = 128

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d+)\.json$")

log = get_logger(__name__)


def canonical_digest(record: Any) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON form of a record."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_json_atomic(path: PathLike, document: Dict[str, Any]) -> None:
    """tmp + fsync + ``os.replace``: the artifact-store write discipline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _safe_tag(tag: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]", "_", tag)[:80] or "record"


class RecordLog:
    """One append-only directory of checksummed, seq-stamped JSON records."""

    def __init__(self, root: PathLike, *, schema: str, prefix: str = "rec") -> None:
        self.root = Path(root)
        self.archive = self.root / "archive"
        self.schema = schema
        self.prefix = prefix
        self._record_name = re.compile(rf"^{re.escape(prefix)}-(\d+)-.*\.json$")
        # Any name holding an allocated seq, quarantined copies included.
        self._seq_name = re.compile(rf"^(?:{re.escape(prefix)}-(\d+)-|snapshot-(\d+))")

    def _counter_path(self) -> Path:
        return self.root / "COUNTER"

    def _next_seq_locked(self) -> int:
        """Allocate the next sequence number; caller holds the counter lock.

        A lost COUNTER never reuses a number: the live directory
        (records, snapshots, quarantined copies) is scanned and
        allocation continues past the highest seq on disk.  Without a
        readable COUNTER, ``archive/`` is scanned as well.
        """
        counter = self._counter_path()
        try:
            last = int(counter.read_text().strip() or 0)
            directories = [self.root]
        except (OSError, ValueError):
            last = 0
            directories = [self.root, self.archive]
        for directory in directories:
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                match = self._seq_name.match(name)
                if match:
                    last = max(last, int(match.group(1) or match.group(2)))
        seq = last + 1
        fd, tmp = tempfile.mkstemp(dir=str(self.root), prefix="COUNTER.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(str(seq))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, counter)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return seq

    def append(self, record: Dict[str, Any], *, tag: str = "record") -> Dict[str, Any]:
        """Append one record; returns its envelope (with ``path`` added).

        The sequence number is allocated and the file published under
        the artifact store's advisory lock, so concurrent appenders from
        any process interleave into one gap-free, totally ordered log.
        """
        # Lazy import: artifacts imports from repro.obs at module scope;
        # importing it here keeps the io package import-order agnostic.
        from .artifacts import artifact_lock

        self.root.mkdir(parents=True, exist_ok=True)
        with artifact_lock(self._counter_path()):
            seq = self._next_seq_locked()
            envelope = {
                "schema": self.schema,
                "version": RECORD_SCHEMA_VERSION,
                "seq": seq,
                "created": time.time(),
                "sha256": canonical_digest(record),
                "record": record,
            }
            path = self.root / f"{self.prefix}-{seq:06d}-{_safe_tag(tag)}.json"
            write_json_atomic(path, envelope)
        envelope["path"] = str(path)
        return envelope

    def _verify(self, path: Path, schema: str, seq: int) -> Optional[Dict[str, Any]]:
        """The envelope at ``path`` if it verifies, else None (quarantined).

        Raises FileNotFoundError when the file vanished after it was
        listed — moved aside by a snapshot or a concurrent quarantine —
        so the caller can list the directory again.
        """
        from .artifacts import quarantine

        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            if not os.path.lexists(path):
                raise
            envelope = None  # a dangling link: corrupt, not moved
        except (OSError, ValueError):
            envelope = None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != schema
            or envelope.get("version") != RECORD_SCHEMA_VERSION
            or envelope.get("seq") != seq
            or canonical_digest(envelope.get("record")) != envelope.get("sha256")
        ):
            dest = quarantine(path)
            log.warning(
                "record %s failed verification; quarantined to %s",
                path,
                dest.name if dest else "(already removed)",
            )
            return None
        envelope["path"] = str(path)
        return envelope

    def _scan(self, directory: Path, after: int) -> List[Dict[str, Any]]:
        """Verified records in ``directory`` with seq > ``after``, by seq.

        Names at or below ``after`` are skipped without being opened.
        """
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        out: List[Dict[str, Any]] = []
        for name in names:
            match = self._record_name.match(name)
            if match is None or int(match.group(1)) <= after:
                continue
            envelope = self._verify(directory / name, self.schema, int(match.group(1)))
            if envelope is not None:
                out.append(envelope)
        out.sort(key=lambda e: e["seq"])
        return out

    def read(self, after: int = 0) -> List[Dict[str, Any]]:
        """Verified live records with seq > ``after``, ordered by seq.

        A record that fails verification (truncated, bit-flipped,
        wrong schema) is quarantined aside and skipped; the rest of the
        log remains usable.  Records a snapshot moved into ``archive/``
        are not live; :meth:`load` is the full view of the log.
        """
        while True:
            try:
                return self._scan(self.root, after)
            except FileNotFoundError:
                continue  # a listed record was moved aside: list again

    def _snapshots(self) -> List[Tuple[int, Path]]:
        """Live snapshot files as ``(seq, path)``, newest first."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        found = []
        for name in names:
            match = _SNAPSHOT_NAME.match(name)
            if match:
                found.append((int(match.group(1)), self.root / name))
        return sorted(found, reverse=True)

    def load(self) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
        """The newest verified snapshot (or None) and the records after it.

        Folding the snapshot's state with the returned records gives the
        same state as folding every record ever appended.  A snapshot
        that fails verification is quarantined and the next older live
        one is tried; with none left, the records come from
        ``archive/`` plus the live directory — the whole history.
        """
        schema = f"{self.schema}:snapshot"
        while True:
            try:
                for seq, path in self._snapshots():
                    snapshot = self._verify(path, schema, seq)
                    if snapshot is None:
                        continue
                    tail = self.read(after=seq)
                    # While a snapshot is live, no record after it has
                    # been moved aside (see snapshot()), so the tail read
                    # above is complete.  Otherwise a newer snapshot
                    # landed meanwhile: start over.
                    if os.path.exists(path):
                        return snapshot, tail
                    break
                else:
                    by_seq = {e["seq"]: e for e in self.read()}
                    for envelope in self._scan(self.archive, 0):
                        by_seq.setdefault(envelope["seq"], envelope)
                    return None, [by_seq[seq] for seq in sorted(by_seq)]
            except FileNotFoundError:
                continue  # a snapshot or archived record moved: start over

    def snapshot_due(self, seq: int) -> bool:
        """Whether ``seq`` is :data:`SNAPSHOT_INTERVAL` past the newest snapshot."""
        newest = self._snapshots()
        return seq - (newest[0][0] if newest else 0) >= SNAPSHOT_INTERVAL

    def snapshot(self, state: Dict[str, Any], seq: int) -> Dict[str, Any]:
        """Publish ``state``, the fold of every record through ``seq``.

        Then move what the snapshot supersedes — older snapshots first,
        then the records at or below ``seq`` — into ``archive/`` with
        ``os.replace``.  That order keeps the invariant :meth:`load`
        relies on: while a snapshot is live, every record after it is
        live too.  A crash anywhere in between leaves a log that loads
        the same state; the next snapshot moves the leftovers.  The
        caller serializes snapshots with its appends (the job queue
        holds its transaction lock), so ``state`` really is the fold
        through ``seq``.
        """
        record = {"seq": seq, "state": state}
        envelope = {
            "schema": f"{self.schema}:snapshot",
            "version": RECORD_SCHEMA_VERSION,
            "seq": seq,
            "created": time.time(),
            "sha256": canonical_digest(record),
            "record": record,
        }
        path = self.root / f"snapshot-{seq:06d}.json"
        write_json_atomic(path, envelope)
        self.archive.mkdir(exist_ok=True)
        superseded = [p for s, p in self._snapshots() if s < seq]
        superseded += sorted(
            self.root / name
            for name in os.listdir(self.root)
            if (match := self._record_name.match(name)) and int(match.group(1)) <= seq
        )
        for old in superseded:
            os.replace(old, self.archive / old.name)
        envelope["path"] = str(path)
        return envelope
