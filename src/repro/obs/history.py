"""The run-history store: the perf trajectory as a first-class artifact.

Run reports and BENCH payloads used to evaporate — one JSON file per
run, overwritten or scattered, nothing to compare against.  A
:class:`HistoryStore` gives them a home: an append-only directory
(``--history-dir``, default ``~/.repro/history`` or
``$REPRO_HISTORY_DIR``) where every completed run report and every
:func:`repro.obs.bench.emit_bench` result lands as one checksummed JSON
record, stamped with the git SHA, a wall-clock timestamp, and a
monotonic sequence number allocated under the artifact store's
cross-process advisory lock.  ``repro runs list|show|diff`` reads it
back; :func:`diff_records` compares two runs' per-stage wall times,
metric gauges, and bench numbers and flags movements beyond a
tolerance as regressions.

Layout::

    <root>/
      COUNTER                 # last allocated sequence number
      .locks/                 # artifact_lock residue
      runs/run-000007-<run_id>.json
      bench/bench-000008-<name>.json

Every record file is one JSON *envelope*::

    {"schema": "history:run" | "history:bench",
     "version": 1,
     "seq": 7, "run_id": "...", "name": null | "e2e_wall",
     "created": <unix time>, "git_sha": "..." | null,
     "sha256": <hex digest of the canonical record payload>,
     "record": {...}}            # the run report / bench payload itself

Records are written with the same tmp + fsync + ``os.replace``
discipline as ``.npz`` artifacts, verified against their embedded
digest on every read, and quarantined (never silently deleted) when
they fail — the :mod:`repro.io.artifacts` guarantees, applied to JSON.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "HistoryStore",
    "default_history_dir",
    "diff_records",
    "flatten_span_walls",
    "render_diff",
]

PathLike = Union[str, Path]

#: Bump when the record envelope layout changes incompatibly.
HISTORY_SCHEMA_VERSION = 1

#: Environment override for the store root (CI jobs, tests).
ENV_HISTORY_DIR = "REPRO_HISTORY_DIR"

_KINDS = {"run": "runs", "bench": "bench"}


#: Cached headless fallback: one temp dir per process, not per call,
#: so every record of the run lands in the same store.
_FALLBACK_HISTORY_DIR: Optional[Path] = None


def default_history_dir() -> Path:
    """``$REPRO_HISTORY_DIR`` when set, else ``~/.repro/history``.

    Headless environments (CI containers, service workers dropped into
    a scrubbed env) may have no usable home: ``$HOME`` unset or
    pointing nowhere makes ``Path.home()`` raise or yield an unwritable
    root.  Rather than crash the run at the *history append* — the very
    last step — fall back to a per-process temporary directory and say
    so once at WARNING, so the records still land somewhere inspectable.
    """
    env = os.environ.get(ENV_HISTORY_DIR)
    if env:
        return Path(env)
    try:
        home = Path.home()
        if str(home) and home.is_dir():
            return home / ".repro" / "history"
    except (RuntimeError, OSError):
        pass
    global _FALLBACK_HISTORY_DIR
    if _FALLBACK_HISTORY_DIR is None:
        _FALLBACK_HISTORY_DIR = Path(tempfile.mkdtemp(prefix="repro-history-"))
        # Lazy import: repro.obs.log is a sibling; binding at call time
        # keeps this module import-order agnostic.
        from .log import get_logger

        get_logger(__name__).warning(
            "no usable home directory ($HOME unset or missing); recording "
            "run history in temporary %s — set %s for a durable store",
            _FALLBACK_HISTORY_DIR,
            ENV_HISTORY_DIR,
        )
    return _FALLBACK_HISTORY_DIR


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]", "_", name)[:64] or "record"


class HistoryStore:
    """Append-only, checksummed store of run reports and bench results."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_history_dir()

    # -- appending ---------------------------------------------------------

    def _counter_path(self) -> Path:
        return self.root / "COUNTER"

    def _next_seq_locked(self) -> int:
        counter = self._counter_path()
        try:
            last = int(counter.read_text().strip() or 0)
        except (OSError, ValueError):
            last = 0
        # Never reuse a sequence number even if COUNTER was lost: scan
        # the record files and continue past the highest one on disk.
        for kind_dir in _KINDS.values():
            directory = self.root / kind_dir
            if not directory.is_dir():
                continue
            for name in os.listdir(directory):
                match = re.match(r"^(?:run|bench)-(\d+)-", name)
                if match:
                    last = max(last, int(match.group(1)))
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

    def _append(
        self,
        kind: str,
        record: Any,
        *,
        run_id: Optional[str],
        name: Optional[str],
        git_sha: Optional[str],
    ) -> Path:
        # Lazy import: io.artifacts and io.records import from repro.obs
        # at module scope, so importing them while repro.obs is still
        # initializing (this module is part of it) would cycle.
        from ..io.artifacts import artifact_lock
        from ..io.records import canonical_digest, write_json_atomic

        self.root.mkdir(parents=True, exist_ok=True)
        if git_sha is None:
            from .report import git_sha as _git_sha

            git_sha = _git_sha()
        with artifact_lock(self._counter_path()):
            seq = self._next_seq_locked()
            suffix = _safe_name(name if name else (run_id or "run"))
            path = self.root / _KINDS[kind] / f"{kind}-{seq:06d}-{suffix}.json"
            envelope = {
                "schema": f"history:{kind}",
                "version": HISTORY_SCHEMA_VERSION,
                "seq": seq,
                "run_id": run_id,
                "name": name,
                "created": time.time(),
                "git_sha": git_sha,
                "sha256": canonical_digest(record),
                "record": record,
            }
            write_json_atomic(path, envelope)
        return path

    def append_run(self, report: Dict[str, Any]) -> Path:
        """Append one completed run report; returns the record path."""
        env = report.get("environment") or {}
        return self._append(
            "run",
            report,
            run_id=report.get("run_id"),
            name=None,
            git_sha=env.get("git_sha"),
        )

    def append_bench(
        self,
        name: str,
        payload: Dict[str, Any],
        *,
        run_id: Optional[str] = None,
    ) -> Path:
        """Append one ``emit_bench`` payload; returns the record path."""
        return self._append("bench", payload, run_id=run_id, name=name, git_sha=None)

    # -- reading -----------------------------------------------------------

    def _verify(self, path: Path) -> Optional[Dict[str, Any]]:
        from ..io.artifacts import quarantine
        from ..io.records import canonical_digest

        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            envelope = None
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != HISTORY_SCHEMA_VERSION
            or not str(envelope.get("schema", "")).startswith("history:")
            or canonical_digest(envelope.get("record")) != envelope.get("sha256")
        ):
            from .log import get_logger

            dest = quarantine(path)
            get_logger(__name__).warning(
                "history record %s failed verification; quarantined to %s",
                path,
                dest.name if dest else "(already removed)",
            )
            return None
        envelope["path"] = str(path)
        return envelope

    def records(self, kind: str = "run", *, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All verified records of one kind, oldest first (by ``seq``)."""
        directory = self.root / _KINDS[kind]
        if not directory.is_dir():
            return []
        out = []
        for filename in sorted(os.listdir(directory)):
            if not filename.endswith(".json"):
                continue
            envelope = self._verify(directory / filename)
            if envelope is None:
                continue
            if name is not None and envelope.get("name") != name:
                continue
            out.append(envelope)
        out.sort(key=lambda e: e.get("seq", 0))
        return out

    def get(self, ref: str, kind: str = "run") -> Optional[Dict[str, Any]]:
        """Resolve one record by ``latest``, sequence number, or run-id prefix."""
        records = self.records(kind)
        if not records:
            return None
        if ref in ("latest", "-1", ""):
            return records[-1]
        if re.fullmatch(r"\d+", ref):
            seq = int(ref)
            for envelope in records:
                if envelope.get("seq") == seq:
                    return envelope
        for envelope in reversed(records):
            run_id = envelope.get("run_id") or ""
            if run_id.startswith(ref):
                return envelope
        return None

    def bench_baseline(
        self, name: str, *, current: Optional[Dict[str, Any]] = None
    ) -> Optional[Dict[str, Any]]:
        """The newest bench record for ``name`` that is not ``current``.

        A gate script appends its own result before checking, so the
        record matching the just-appended payload is skipped and the
        previous run becomes the baseline.
        """
        from ..io.records import canonical_digest

        current_digest = canonical_digest(current) if current is not None else None
        for envelope in reversed(self.records("bench", name=name)):
            if current_digest is not None and envelope.get("sha256") == current_digest:
                continue
            return envelope
        return None


# --- diffing ---------------------------------------------------------------


def flatten_span_walls(span_dict: Dict[str, Any]) -> Dict[str, float]:
    """Total wall seconds per span name over a ``to_dict`` span tree."""
    walls: Dict[str, float] = {}

    def visit(node: Dict[str, Any]) -> None:
        name = str(node.get("name", ""))
        walls[name] = walls.get(name, 0.0) + float(node.get("wall_s", 0.0))
        for child in node.get("children") or []:
            visit(child)

    visit(span_dict)
    return walls


#: Substrings marking a number where *smaller* is better (times, memory).
_LOWER_BETTER = ("wall", "time", "_s", "seconds", "rss", "bytes", "overhead", "_mb")
#: Substrings marking a number where *bigger* is better.
_HIGHER_BETTER = ("speedup", "throughput", "hit", "coverage", "variance", "rows_per")


def _is_regression(
    name: str, old: float, new: float, tolerance: float, default: Optional[str] = None
) -> bool:
    """Whether ``old -> new`` moved in the bad direction beyond tolerance.

    Direction comes from the value's name when it is telling
    (throughput up is good, wall time up is bad) and otherwise from
    ``default`` — e.g. every entry in a stage-wall section is a
    duration, whatever the stage is called.
    """
    lowered = name.lower()
    if any(tag in lowered for tag in _HIGHER_BETTER):
        direction = "higher"
    elif any(tag in lowered for tag in _LOWER_BETTER):
        direction = "lower"
    else:
        direction = default
    if direction == "higher":
        return new < old * (1.0 - tolerance)
    if direction == "lower":
        return new > old * (1.0 + tolerance)
    return False


def _numeric_items(mapping: Any) -> Dict[str, float]:
    if not isinstance(mapping, dict):
        return {}
    out = {}
    for key, value in mapping.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[str(key)] = float(value)
    return out


def _compare(
    section: str,
    a: Dict[str, float],
    b: Dict[str, float],
    tolerance: float,
    default: Optional[str] = None,
) -> List[Dict[str, Any]]:
    entries = []
    for name in sorted(set(a) & set(b)):
        old, new = a[name], b[name]
        delta = new - old
        ratio = (new / old) if old else None
        entries.append(
            {
                "section": section,
                "name": name,
                "a": old,
                "b": new,
                "delta": delta,
                "ratio": ratio,
                "regression": _is_regression(name, old, new, tolerance, default),
            }
        )
    return entries


def diff_records(
    a: Dict[str, Any], b: Dict[str, Any], *, tolerance: float = 0.10
) -> Dict[str, Any]:
    """Compare two history records (older ``a`` vs newer ``b``).

    For run records: per-stage wall seconds from the span trees plus
    metric gauges.  For bench records: the numeric payload fields.  A
    value that moved in the *bad* direction (direction inferred from
    the name: times/memory up, throughput/speedup down) by more than
    ``tolerance`` (relative) is flagged as a regression.
    """
    entries: List[Dict[str, Any]] = []
    kind_a = str(a.get("schema", ""))
    if kind_a == "history:run":
        report_a, report_b = a.get("record") or {}, b.get("record") or {}
        walls_a = flatten_span_walls(report_a.get("spans") or {})
        walls_b = flatten_span_walls(report_b.get("spans") or {})
        entries += _compare("stage wall_s", walls_a, walls_b, tolerance, default="lower")
        gauges_a = _numeric_items((report_a.get("metrics") or {}).get("gauges"))
        gauges_b = _numeric_items((report_b.get("metrics") or {}).get("gauges"))
        entries += _compare("gauge", gauges_a, gauges_b, tolerance)
    else:
        entries += _compare(
            "bench",
            _numeric_items(a.get("record")),
            _numeric_items(b.get("record")),
            tolerance,
        )
    return {
        "a": {k: a.get(k) for k in ("seq", "run_id", "name", "created", "git_sha")},
        "b": {k: b.get(k) for k in ("seq", "run_id", "name", "created", "git_sha")},
        "tolerance": tolerance,
        "entries": entries,
        "regressions": [e["name"] for e in entries if e["regression"]],
    }


def render_diff(diff: Dict[str, Any]) -> str:
    """Terminal-friendly rendering of a :func:`diff_records` result."""
    a, b = diff["a"], diff["b"]
    lines = [
        f"history diff: #{a.get('seq')} ({a.get('git_sha') or '-'}) -> "
        f"#{b.get('seq')} ({b.get('git_sha') or '-'})",
        f"{'section':<14} {'name':<40} {'a':>12} {'b':>12} {'delta':>12}  flag",
    ]
    for entry in diff["entries"]:
        flag = "REGRESSION" if entry["regression"] else ""
        lines.append(
            f"{entry['section']:<14} {entry['name'][:40]:<40} "
            f"{entry['a']:>12.6g} {entry['b']:>12.6g} {entry['delta']:>+12.6g}  {flag}"
        )
    if diff["regressions"]:
        lines.append(
            f"{len(diff['regressions'])} regression(s) beyond "
            f"{diff['tolerance']:.0%}: " + ", ".join(diff["regressions"])
        )
    else:
        lines.append(f"no regressions beyond {diff['tolerance']:.0%}")
    return "\n".join(lines) + "\n"
