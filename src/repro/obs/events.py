"""The live telemetry event bus: ordered JSONL events while a run executes.

Run reports (:mod:`repro.obs.report`) answer "what happened" *after* a
run; this module answers "what is happening" *during* one.  An
:class:`EventBus` turns span open/close, stage checkpoints, progress
updates, worker heartbeats, and metric deltas into a totally ordered
stream of JSON events written line-by-line to a sink the moment they
occur — ``repro characterize --telemetry PATH`` attaches one, ``repro
watch PATH`` follows it, and ``repro report --from-events PATH``
reconstructs a (partial) run report from whatever made it to disk.

**Event schema** (version :data:`EVENT_SCHEMA_VERSION`, one JSON object
per line).  Every event carries ``v`` (schema version), ``seq`` (bus-
assigned, strictly monotonic), ``ts`` (unix time), ``run_id``, and
``type``; the remaining fields depend on the type:

``run.start``
    ``command``, ``preset``, ``benchmarks``, ``config`` (the run
    report's digest document), ``environment`` (same document as the
    run report's), ``pid``.
``span.open`` / ``span.close``
    ``span`` (name), ``depth``; close adds ``wall_s``, ``cpu_s`` and
    the span's final ``attrs``.
``stage``
    ``stage`` (checkpoint name) and ``action`` — ``"completed"`` when a
    stage checkpoint lands, ``"resumed"`` when one is loaded instead of
    recomputed.
``progress``
    ``stage``, ``done``, ``total``, ``fraction``, ``elapsed_s`` and
    ``eta_s`` — derived from the sampling plan / restart count / batch
    ledger by the per-stage :class:`ProgressEstimator`.
``heartbeat``
    one per completed executor task, emitted by the parent as the
    task's telemetry merges: ``label``, ``completed``, ``total``.
``metric``
    ``counters`` (deltas since the previous metric event) and
    ``gauges`` (current values); emitted at stage boundaries.
``run.end``
    ``ok`` and, when events were discarded by a bounded worker buffer,
    ``dropped_events``.

**Crash tolerance.**  The sink flushes after every line, so a
SIGKILL'd run leaves a parseable prefix (at worst one truncated final
line, which :func:`read_events` tolerates).  Nothing is buffered for
later: the log on disk *is* the live state.

**Workers.**  Executor tasks never write to the sink.  A worker task's
events collect into a bounded :class:`EventBuffer` that rides back
with the task's telemetry snapshot and is replayed into the bus by
:meth:`repro.obs.Observation.merge_snapshot` — exactly once per task,
in submission order, under the same discipline as span/metric merging.
The stream is therefore identical for the serial, thread, and process
backends, and a failed task's events are discarded with its snapshot.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventBuffer",
    "EventBus",
    "JsonlSink",
    "ProgressEstimator",
    "emit_event",
    "emit_progress",
    "read_events",
]

#: Bump when the event layout changes incompatibly (mirrors the
#: run-report ``SCHEMA_VERSION`` discipline).
EVENT_SCHEMA_VERSION = 1

#: Events a worker task may buffer before older ones are dropped
#: (oldest first; the drop count is reported in ``run.end``).
MAX_WORKER_EVENTS = 10_000

PathLike = Union[str, Path]


def _json_default(value: Any) -> Any:
    return str(value)


class JsonlSink:
    """Line-per-event JSON sink over a path or ``-`` (stdout).

    Every line is flushed as soon as it is written — the crash-
    tolerance contract — so a reader (or a post-mortem) always sees a
    valid prefix of the stream.
    """

    def __init__(self, target: Union[PathLike, TextIO]) -> None:
        self._owns = False
        if hasattr(target, "write"):
            self._fh: TextIO = target  # type: ignore[assignment]
        elif str(target) == "-":
            self._fh = sys.stdout
        else:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._owns = True

    def write_event(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, default=_json_default) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owns:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - best-effort close
                pass


class ProgressEstimator:
    """Fraction-complete and ETA for one stage's unit stream.

    The totals come from quantities the pipeline already knows before
    the stage starts — benchmarks in the sampling plan, k-means restart
    count, GA generations — so the estimate needs no model: with
    ``done`` of ``total`` units finished in ``elapsed`` seconds, the
    remaining ``total - done`` units cost ``elapsed * (total - done) /
    done`` more.
    """

    def __init__(self, stage: str, total: int, *, clock=time.monotonic) -> None:
        self.stage = stage
        self.total = max(int(total), 0)
        self.done = 0
        self._clock = clock
        self._start = clock()

    def update(self, done: int) -> Dict[str, Any]:
        """Advance to ``done`` finished units; returns the progress fields."""
        self.done = max(0, min(int(done), self.total) if self.total else int(done))
        elapsed = self._clock() - self._start
        fraction = (self.done / self.total) if self.total else 0.0
        eta: Optional[float] = None
        if self.done > 0 and self.total:
            eta = elapsed * (self.total - self.done) / self.done
        return {
            "stage": self.stage,
            "done": self.done,
            "total": self.total,
            "fraction": round(fraction, 6),
            "elapsed_s": round(elapsed, 6),
            "eta_s": round(eta, 6) if eta is not None else None,
        }


class EventBuffer:
    """Bounded worker-side event collector (the bus's travel form).

    Executor tasks emit into one of these instead of the sink; the
    buffered events ride back inside the task's telemetry snapshot and
    are replayed by the parent's bus when — and only when — the
    snapshot merges.  Bounded so a runaway task cannot grow the
    snapshot without limit: past ``max_events`` the oldest events are
    dropped and the drop count travels along.
    """

    def __init__(self, max_events: int = MAX_WORKER_EVENTS) -> None:
        self.max_events = max_events
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0

    def emit(self, type: str, **fields: Any) -> Dict[str, Any]:
        event = {"ts": time.time(), "type": type, **fields}
        self.events.append(event)
        if len(self.events) > self.max_events:
            overflow = len(self.events) - self.max_events
            del self.events[:overflow]
            self.dropped += overflow
        return event

    # -- the span-layer emitter protocol ----------------------------------

    def span_open(self, span, depth: int) -> None:
        self.emit("span.open", span=span.name, depth=depth, attrs=dict(span.attrs))

    def span_close(self, span, depth: int) -> None:
        self.emit(
            "span.close",
            span=span.name,
            depth=depth,
            wall_s=span.wall_s,
            cpu_s=span.cpu_s,
            attrs=dict(span.attrs),
        )

    def progress(self, stage: str, done: int, total: int) -> None:
        # Worker-side progress is rare (stages report from the parent),
        # but the protocol stays uniform.
        self.emit("progress", stage=stage, done=int(done), total=int(total))

    def drain(self) -> Tuple[List[Dict[str, Any]], int]:
        """Hand over the buffered events (and drop count), emptying self."""
        events, dropped = self.events, self.dropped
        self.events, self.dropped = [], 0
        return events, dropped


class EventBus:
    """Thread-safe, ordered telemetry event stream over one sink.

    One bus serves one run: :meth:`emit` assigns the next sequence
    number and writes the line under a single lock, so events from any
    thread interleave into one strictly monotonic stream.  The span
    layer calls :meth:`span_open` / :meth:`span_close` (the same
    protocol :class:`EventBuffer` implements worker-side);
    :meth:`progress` tracks one :class:`ProgressEstimator` per stage;
    :meth:`emit_metric_deltas` publishes counter movement since the
    previous metric event.
    """

    def __init__(self, sink: JsonlSink, run_id: str, *, clock=time.time) -> None:
        self.sink = sink
        self.run_id = run_id
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._dropped = 0
        self._estimators: Dict[str, ProgressEstimator] = {}
        self._last_counters: Dict[str, float] = {}

    def emit(self, type: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Write one event; returns it (or None after close)."""
        with self._lock:
            if self._closed:
                return None
            event = {
                "v": EVENT_SCHEMA_VERSION,
                "seq": self._seq,
                "ts": fields.pop("ts", None) or self._clock(),
                "run_id": self.run_id,
                "type": type,
                **fields,
            }
            self._seq += 1
            self.sink.write_event(event)
            return event

    # -- the span-layer emitter protocol ----------------------------------

    def span_open(self, span, depth: int) -> None:
        self.emit("span.open", span=span.name, depth=depth, attrs=dict(span.attrs))

    def span_close(self, span, depth: int) -> None:
        self.emit(
            "span.close",
            span=span.name,
            depth=depth,
            wall_s=span.wall_s,
            cpu_s=span.cpu_s,
            attrs=dict(span.attrs),
        )

    # -- progress ----------------------------------------------------------

    def progress(self, stage: str, done: int, total: int) -> None:
        """Emit a ``progress`` event with fraction and ETA for ``stage``.

        The first call for a stage starts its clock; ``total`` may be
        updated by later calls.
        """
        with self._lock:
            estimator = self._estimators.get(stage)
            if estimator is None:
                estimator = ProgressEstimator(stage, total)
                self._estimators[stage] = estimator
            else:
                estimator.total = int(total)
        fields = estimator.update(done)
        self.emit("progress", **fields)

    # -- replay (worker forwarding) ----------------------------------------

    def replay(self, events: List[Dict[str, Any]], dropped: int = 0) -> None:
        """Re-emit a worker buffer's events in order, with fresh seqs.

        Called from :meth:`repro.obs.Observation.merge_snapshot` —
        exactly once per completed task, in submission order — so the
        global stream stays totally ordered regardless of executor
        backend.  Worker timestamps are preserved (they are
        informational; ``seq`` is the order authority).
        """
        for event in events:
            fields = {k: v for k, v in event.items() if k != "type"}
            self.emit(event.get("type", "event"), **fields)
        if dropped:
            with self._lock:
                self._dropped += dropped

    def heartbeat(self, label: str, completed: int, total: int) -> None:
        """One completed executor task: the run's liveness signal."""
        self.emit(
            "heartbeat", label=str(label), completed=int(completed), total=int(total)
        )

    # -- metrics -----------------------------------------------------------

    def emit_metric_deltas(self, registry) -> None:
        """Publish counter deltas (and current gauges) since the last call."""
        snap = registry.snapshot()
        counters = snap.get("counters", {})
        with self._lock:
            deltas = {
                name: value - self._last_counters.get(name, 0.0)
                for name, value in counters.items()
                if value != self._last_counters.get(name, 0.0)
            }
            self._last_counters = dict(counters)
        self.emit("metric", counters=deltas, gauges=snap.get("gauges", {}))

    # -- lifecycle ---------------------------------------------------------

    def start(self, **fields: Any) -> None:
        """Emit ``run.start`` (command, preset, config digest, environment)."""
        self.emit("run.start", **fields)

    def close(self, ok: bool = True) -> None:
        """Emit ``run.end`` and close the sink; idempotent."""
        fields: Dict[str, Any] = {"ok": bool(ok)}
        if self._dropped:
            fields["dropped_events"] = self._dropped
        self.emit("run.end", **fields)
        with self._lock:
            self._closed = True
        self.sink.close()


# --- emitting from library code ------------------------------------------


def _current_emitter():
    from .spans import current

    ob = current()
    if ob is None:
        return None
    return ob.emitter


def emit_event(type: str, **fields: Any) -> None:
    """Emit one event through the active observation's bus or buffer.

    A no-op when no observation is active or the observation has no
    emitter attached — library code can call this unconditionally, just
    like :func:`repro.obs.span`.
    """
    emitter = _current_emitter()
    if emitter is not None:
        emitter.emit(type, **fields)


def emit_progress(stage: str, done: int, total: int) -> None:
    """Emit a ``progress`` event for ``stage`` (no-op when inert)."""
    emitter = _current_emitter()
    if emitter is not None:
        emitter.progress(stage, done, total)


# --- reading --------------------------------------------------------------


def read_events(path: PathLike) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse a (possibly truncated) event log.

    Returns ``(events, truncated)``: every leading line that parses as
    a JSON object, and whether the log ended mid-line — the expected
    residue of a SIGKILL'd writer.  Parsing stops at the first bad
    line, so a reader never acts on bytes written after corruption.
    """
    events: List[Dict[str, Any]] = []
    truncated = False
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return events, False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            truncated = True
            break
        if not isinstance(event, dict):
            truncated = True
            break
        events.append(event)
    return events, truncated
