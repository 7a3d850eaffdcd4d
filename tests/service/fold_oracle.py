"""Reference fold of a job queue: every record, no snapshots.

The queue folds its newest snapshot plus the records after it; this
oracle folds the whole history the slow way — every ``job-*.json`` in
``queue/`` and ``queue/archive/``, digest-checked, in seq order — so a
test can assert the two agree.  It only reads: a record that fails its
digest is skipped, never moved.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

from repro.io.records import canonical_digest
from repro.service.queue import JobView


def record_envelopes(service_root) -> List[dict]:
    """Every verifiable job record, live or archived, ordered by seq."""
    queue = Path(service_root) / "queue"
    out = {}
    for directory in (queue, queue / "archive"):
        if not directory.is_dir():
            continue
        for name in os.listdir(directory):
            if not (name.startswith("job-") and name.endswith(".json")):
                continue
            try:
                envelope = json.loads((directory / name).read_text(encoding="utf-8"))
            except ValueError:
                continue
            if canonical_digest(envelope.get("record")) != envelope.get("sha256"):
                continue
            out[envelope["seq"]] = envelope
    return [out[seq] for seq in sorted(out)]


def full_fold(service_root) -> Dict[str, JobView]:
    """Each job's state from a fold over the queue's entire history."""
    out: Dict[str, JobView] = {}
    for envelope in record_envelopes(service_root):
        record = envelope.get("record") or {}
        job_id = record.get("job")
        if not isinstance(job_id, str):
            continue
        kind = record.get("state")
        seq = int(envelope.get("seq", 0))
        created = float(envelope.get("created", 0.0))
        view = out.get(job_id)
        if kind == "queued":
            if view is None or view.state in ("done", "failed"):
                out[job_id] = JobView(
                    job_id=job_id,
                    state="queued",
                    priority=int(record.get("priority", 0)),
                    seq=seq,
                    updated_seq=seq,
                    attempt=view.attempt if view else 0,
                    submissions=(view.submissions if view else 0) + 1,
                    created=view.created if view else created,
                    updated=created,
                    payload=dict(record.get("payload") or {}),
                )
            continue
        if view is None:
            view = out[job_id] = JobView(job_id=job_id, state="queued", seq=seq)
        view.updated_seq = seq
        view.updated = created
        if kind == "attach":
            view.submissions += 1
        elif kind == "running":
            view.state = "running"
            view.attempt = int(record.get("attempt", view.attempt + 1))
            view.owner = dict(record.get("owner") or {})
            if record.get("priority") is not None:
                view.priority = int(record["priority"])
        elif kind == "done":
            view.state = "done"
            view.owner = None
            view.result = dict(record.get("result") or {})
        elif kind == "failed":
            view.state = "failed"
            view.owner = None
            view.error = str(record.get("error") or "unknown error")
    return out
