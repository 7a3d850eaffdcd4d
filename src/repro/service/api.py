"""The service's HTTP/JSON surface, as a pure handler object.

:class:`ServiceAPI` maps ``(method, path, query, body)`` to an
:class:`ApiResponse` with no sockets involved — unit tests exercise
every route and error path as plain function calls; the stdlib server
in :mod:`repro.service.server` is a thin transport over it.

Routes::

    GET  /health                     queue stats, always 200
    GET  /jobs                       all jobs, folded state
    POST /jobs                       submit (or dedup onto) a job
    GET  /jobs/<id>                  one job's state
    GET  /jobs/<id>/progress         live progress from the event log
    GET  /jobs/<id>/events[?attempt=N]   raw telemetry JSONL
    GET  /jobs/<id>/report           the finished run report
    GET  /jobs/<id>/artifact         the finished .npz bytes

Submission body::

    {"preset": "tiny", "suites": ["SPECint2006"],
     "config": {"seed": 7}, "priority": 5}

Every field is optional; ``config`` overrides are validated against
:class:`~repro.config.AnalysisConfig` (unknown fields and invalid
values are a 400, never a crashed worker).  Errors are JSON:
``{"error": "..."}`` with 400/404/405/413 as appropriate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .. import obs
from ..config import AnalysisConfig
from ..suites import get_suite
from .queue import JobQueue, JobView, artifact_path, events_path, job_dir

__all__ = ["MAX_BODY_BYTES", "ApiResponse", "ServiceAPI"]

PathLike = Union[str, Path]

log = obs.get_logger(__name__)

#: Request bodies beyond this are refused with 413 before parsing.
MAX_BODY_BYTES = 1_000_000

_PRESETS = {
    "paper": AnalysisConfig.paper,
    "small": AnalysisConfig.small,
    "tiny": AnalysisConfig.tiny,
}


@dataclass
class ApiResponse:
    """One response: status, body, and how to serialize it."""

    status: int
    body: Any
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def payload(self) -> bytes:
        """The response body as bytes (JSON-encodes dict/list bodies)."""
        if isinstance(self.body, bytes):
            return self.body
        return (json.dumps(self.body, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _error(status: int, message: str) -> ApiResponse:
    return ApiResponse(status, {"error": message})


class ServiceAPI:
    """Route requests against one service root."""

    def __init__(self, root: PathLike, *, default_preset: str = "tiny") -> None:
        self.root = Path(root)
        self.queue = JobQueue(self.root)
        if default_preset not in _PRESETS:
            raise ValueError(
                f"unknown preset {default_preset!r} (choose from {sorted(_PRESETS)})"
            )
        self.default_preset = default_preset

    # -- dispatch ----------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        body: bytes = b"",
    ) -> ApiResponse:
        """Serve one request; never raises for client errors."""
        query = query or {}
        parts = [p for p in path.split("/") if p]
        if len(body) > MAX_BODY_BYTES:
            return _error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        if parts == ["health"]:
            if method != "GET":
                return _error(405, "method not allowed")
            return ApiResponse(200, {"ok": True, **self.queue.stats()})
        if parts == ["jobs"]:
            if method == "GET":
                return self._list_jobs()
            if method == "POST":
                return self._submit(body)
            return _error(405, "method not allowed")
        if len(parts) in (2, 3) and parts[0] == "jobs":
            if method != "GET":
                return _error(405, "method not allowed")
            job_id = parts[1]
            view = self.queue.get(job_id)
            if view is None:
                return _error(404, f"no job {job_id!r}")
            if len(parts) == 2:
                return ApiResponse(200, view.to_doc())
            sub = parts[2]
            if sub == "progress":
                return self._progress(view, query)
            if sub == "events":
                return self._events(view, query)
            if sub == "report":
                return self._report(view)
            if sub == "artifact":
                return self._artifact(view)
        return _error(404, f"no route for {method} {path}")

    # -- submission --------------------------------------------------------

    def _parse_submission(
        self, body: bytes
    ) -> Tuple[Optional[Dict[str, Any]], Optional[ApiResponse]]:
        if not body.strip():
            return {}, None
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return None, _error(400, f"malformed JSON body: {exc}")
        if not isinstance(doc, dict):
            return None, _error(400, "submission body must be a JSON object")
        return doc, None

    def _build_config(
        self, doc: Dict[str, Any]
    ) -> Tuple[Optional[AnalysisConfig], Optional[ApiResponse]]:
        preset = doc.get("preset", self.default_preset)
        if preset not in _PRESETS:
            return None, _error(
                400, f"unknown preset {preset!r} (choose from {sorted(_PRESETS)})"
            )
        config = _PRESETS[preset]()
        overrides = doc.get("config") or {}
        if not isinstance(overrides, dict):
            return None, _error(400, "'config' must be an object of field overrides")
        for knob in AnalysisConfig.EXECUTION_KNOBS:
            if knob in overrides:
                return None, _error(
                    400,
                    f"config field {knob!r} is an execution knob: it belongs to "
                    "the worker, not the submission (it never changes the result)",
                )
        if overrides:
            try:
                config = config.replace(**overrides)
            except TypeError:
                unknown = sorted(
                    set(overrides) - {f.name for f in _config_dataclass_fields()}
                )
                return None, _error(
                    400,
                    f"unknown config field(s): {', '.join(unknown) or 'bad types'}",
                )
            except ValueError as exc:
                return None, _error(400, f"invalid config: {exc}")
        return config, None

    def _submit(self, body: bytes) -> ApiResponse:
        doc, err = self._parse_submission(body)
        if err is not None:
            return err
        suites = doc.get("suites")
        if suites is not None:
            if not isinstance(suites, list) or not all(
                isinstance(s, str) for s in suites
            ):
                return _error(400, "'suites' must be a list of suite names")
            for name in suites:
                try:
                    get_suite(name)
                except KeyError:
                    return _error(400, f"unknown suite {name!r}")
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            return _error(400, "'priority' must be an integer")
        config, err = self._build_config(doc)
        if err is not None:
            return err
        view, deduped = self.queue.submit(
            suites=suites, config=config, priority=priority
        )
        return ApiResponse(
            202 if not deduped else 200, {"deduped": deduped, "job": view.to_doc()}
        )

    # -- reads -------------------------------------------------------------

    def _list_jobs(self) -> ApiResponse:
        jobs = sorted(self.queue.jobs().values(), key=lambda v: v.seq)
        return ApiResponse(200, {"jobs": [v.to_doc() for v in jobs]})

    def _attempt_events(self, view: JobView, query: Dict[str, str]) -> Optional[Path]:
        """The event log to read: the requested attempt or the latest."""
        raw = query.get("attempt")
        if raw is not None:
            try:
                return events_path(self.root, view.job_id, int(raw))
            except ValueError:
                return None
        for attempt in range(max(view.attempt, 1), 0, -1):
            path = events_path(self.root, view.job_id, attempt)
            if path.exists():
                return path
        return events_path(self.root, view.job_id, max(view.attempt, 1))

    def _progress(self, view: JobView, query: Dict[str, str]) -> ApiResponse:
        path = self._attempt_events(view, query)
        if path is None:
            return _error(400, "'attempt' must be an integer")
        doc: Dict[str, Any] = {"job": view.to_doc()}
        if path.exists():
            events, truncated = obs.read_events(path)
            summary = obs.summarize_events(events)
            summary["truncated"] = truncated
            summary["events_path"] = str(path)
            doc["live"] = summary
        else:
            doc["live"] = None
        return ApiResponse(200, doc)

    def _events(self, view: JobView, query: Dict[str, str]) -> ApiResponse:
        path = self._attempt_events(view, query)
        if path is None:
            return _error(400, "'attempt' must be an integer")
        if not path.exists():
            return _error(404, f"no event log for job {view.job_id!r}")
        return ApiResponse(
            200, path.read_bytes(), content_type="application/x-ndjson"
        )

    def _report(self, view: JobView) -> ApiResponse:
        path = job_dir(self.root, view.job_id) / "report.json"
        if not path.exists():
            return _error(404, f"no run report for job {view.job_id!r} (not done?)")
        return ApiResponse(200, path.read_bytes())

    def _artifact(self, view: JobView) -> ApiResponse:
        path = artifact_path(self.root, view.job_id)
        if view.state != "done" or not path.exists():
            return _error(
                404, f"job {view.job_id!r} has no finished artifact (state: {view.state})"
            )
        return ApiResponse(
            200,
            path.read_bytes(),
            content_type="application/octet-stream",
            headers={"X-Artifact-Sha256": (view.result or {}).get("sha256", "")},
        )


def _config_dataclass_fields():
    import dataclasses

    return dataclasses.fields(AnalysisConfig)
