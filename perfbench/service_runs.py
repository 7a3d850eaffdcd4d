"""The ``service-queue`` workload.

Set-up starts ``repro serve ROOT --workers 0 --port 0``, waits for its
readiness line and pre-fills the job log with ``PREFILL_JOBS`` distinct
``tiny`` jobs through the HTTP API.  The measured part is one client in
a closed loop, one request in flight at a time, running a fixed mix per
round:

* ``POST /jobs`` with a new job (write; expects 202, ``deduped`` false),
* ``POST /jobs`` repeating an earlier submission (write; expects 200,
  ``deduped`` true and the same job id),
* ``GET /jobs/<new id>`` (read; expects state ``queued``),
* ``GET /jobs`` (read; expects every job submitted so far),
* a stand-in worker's ``JobQueue.claim`` (write; expects a ``running``
  job owned by it) and ``JobQueue.complete`` (write; expects ``done``),
* ``GET /jobs/<completed id>`` (read; expects state ``done``),
* ``GET /jobs/<earlier id>`` (read).

The stand-in worker calls the queue in this process and runs no
builds.  The loop is closed because every queue operation re-reads the
whole record log: cost follows log size, not offered load.  The number
of rounds is fixed by ``--seconds`` (``ROUNDS_PER_SECOND`` of them per
second asked for), so every commit measures the same log growth.

``--serve ROOT TRACE_OUT`` runs the traced server: the same ``repro
serve`` command with the timing wrappers installed; on SIGTERM it
shuts down and writes its accumulated layer times to ``TRACE_OUT``.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import benchutil
from benchutil import log, metric

#: Distinct jobs in the log before the loop starts.
PREFILL_JOBS = 200
#: Loop rounds per second of ``--seconds``.
ROUNDS_PER_SECOND = 6
#: Set-ups per run (start, readiness, pre-fill); ``setup_s`` is their median.
SETUPS = 3
WORKER = "perfbench-stand-in"


class Op:
    """One operation: read or write, latency, and whether it was right."""

    __slots__ = ("kind", "latency_s", "ok", "why")

    def __init__(self, kind: str, latency_s: float, ok: bool, why: str = ""):
        self.kind = kind
        self.latency_s = latency_s
        self.ok = ok
        self.why = why


class Client:
    """One request in flight, one connection per request.

    This is what ``repro.service.client.ServiceClient`` (urllib) does.
    A keep-alive connection would instead wait about 40 ms per response
    on this server, which sends headers and body in two writes (Nagle's
    algorithm against delayed ACKs); see README.md.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.http_s = 0.0  # summed request latency, for transport time

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """``(status, decoded body, latency)``; a transport error is status 0."""
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Connection": "close"}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            return 0, str(exc), time.perf_counter() - start
        finally:
            conn.close()
        latency = time.perf_counter() - start
        self.http_s += latency
        try:
            doc = json.loads(data.decode())
        except ValueError:
            doc = None
        return status, doc, latency


def http_op(
    client: Client, kind: str, method: str, path: str, body=None, check=None
) -> Tuple[Op, Optional[dict]]:
    """Send one request; a non-2xx status or a failed ``check`` fails it."""
    status, doc, latency = client.request(method, path, body)
    if not 200 <= status < 300:
        return Op(kind, latency, False, f"{method} {path}: status {status}"), None
    why = check(status, doc) if check is not None else ""
    return Op(kind, latency, not why, why), doc


def submission(config_seed: int) -> dict:
    return {"preset": "tiny", "config": {"seed": config_seed}}


class Server:
    """A running ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: Path, trace_out: Optional[Path]) -> None:
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", str(root)]
        else:
            launcher = str(Path(__file__).resolve())
            cmd = [sys.executable, launcher, "--serve", str(root), str(trace_out)]
        cmd += ["--workers", "0", "--port", "0"]
        self.stderr = open(root.parent / f"{root.name}.stderr", "w")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
            cwd=str(benchutil.ROOT),
            env=benchutil.scrub_environment(),
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not become ready: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> Optional[float]:
        return benchutil.read_vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started in the background
        # inherits an ignored SIGINT.
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Session:
    """Set-up plus the closed loop against one fresh service root."""

    def __init__(self, seed: int, name: str) -> None:
        self.rng = random.Random(seed)
        self.root = benchutil.WORK_DIR / name
        self.trace_out = benchutil.WORK_DIR / f"{name}.trace.json"
        self.server: Optional[Server] = None
        self.client: Optional[Client] = None
        self.submitted: List[Tuple[dict, str]] = []  # (body, job id)
        self.next_config_seed = self.rng.randrange(1, 2**30)
        self.ops: List[Op] = []
        self.round_s: List[float] = []
        self.loop_s = 0.0

    def _new_body(self) -> dict:
        self.next_config_seed += 1
        return submission(self.next_config_seed)

    def _submit_new(self) -> Op:
        body = self._new_body()

        def check(status, doc):
            if status != 202 or doc.get("deduped") is not False:
                return f"new submission: status {status}, deduped {doc.get('deduped')}"
            if doc["job"]["state"] != "queued":
                return f"new job in state {doc['job']['state']}"
            return ""

        op, doc = http_op(self.client, "write", "POST", "/jobs", body, check)
        if doc is not None and op.ok:
            self.submitted.append((body, doc["job"]["job_id"]))
        return op

    def setup(self) -> float:
        """Start the service and pre-fill its log; returns seconds taken."""
        start = time.perf_counter()
        self.server = Server(self.root, None)
        self.client = Client(self.server.port)
        for _ in range(PREFILL_JOBS):
            op = self._submit_new()
            if not op.ok:
                raise RuntimeError(f"pre-fill failed: {op.why}")
        return time.perf_counter() - start

    def restart_traced(self) -> None:
        """Serve the pre-filled root from a traced server, so the layer
        times cover the loop and not the pre-fill."""
        self.server.stop()
        self.server = Server(self.root, self.trace_out)
        self.client = Client(self.server.port)

    def loop(self, rounds: int) -> None:
        from repro.service.queue import JobQueue

        queue = JobQueue(self.root)
        start = time.perf_counter()
        for _ in range(rounds):
            round_start = time.perf_counter()
            self._round(queue)
            self.round_s.append(time.perf_counter() - round_start)
        # Final state: every distinct submission is one job.
        expected = len(self.submitted)
        op, _ = http_op(
            self.client,
            "read",
            "GET",
            "/jobs",
            check=lambda s, d: ""
            if len(d["jobs"]) == expected
            else f"final job count {len(d['jobs'])} != {expected}",
        )
        self.ops.append(op)
        self.loop_s = time.perf_counter() - start

    def _round(self, queue) -> None:
        ops = self.ops
        ops.append(self._submit_new())
        new_id = self.submitted[-1][1]

        body, dup_id = self.submitted[self.rng.randrange(len(self.submitted) - 1)]
        ops.append(
            http_op(
                self.client,
                "write",
                "POST",
                "/jobs",
                body,
                lambda s, d: ""
                if s == 200 and d.get("deduped") is True and d["job"]["job_id"] == dup_id
                else f"duplicate submission: status {s}, deduped {d.get('deduped')}",
            )[0]
        )
        ops.append(
            http_op(
                self.client,
                "read",
                "GET",
                f"/jobs/{new_id}",
                check=lambda s, d: "" if d["state"] == "queued" else f"state {d['state']}",
            )[0]
        )
        expected = len(self.submitted)
        ops.append(
            http_op(
                self.client,
                "read",
                "GET",
                "/jobs",
                check=lambda s, d: ""
                if len(d["jobs"]) == expected
                else f"{len(d['jobs'])} jobs listed, {expected} submitted",
            )[0]
        )

        start = time.perf_counter()
        view = queue.claim(WORKER)
        latency = time.perf_counter() - start
        ok = (
            view is not None
            and view.state == "running"
            and (view.owner or {}).get("worker") == WORKER
        )
        ops.append(Op("write", latency, ok, "" if ok else f"claim returned {view}"))
        if view is None:
            return
        start = time.perf_counter()
        done = queue.complete(view.job_id, WORKER, {"stand_in": True})
        latency = time.perf_counter() - start
        ok = done.state == "done"
        ops.append(Op("write", latency, ok, "" if ok else f"complete left {done.state}"))

        ops.append(
            http_op(
                self.client,
                "read",
                "GET",
                f"/jobs/{view.job_id}",
                check=lambda s, d: "" if d["state"] == "done" else f"state {d['state']}",
            )[0]
        )
        _, old_id = self.submitted[self.rng.randrange(len(self.submitted))]
        ops.append(
            http_op(
                self.client,
                "read",
                "GET",
                f"/jobs/{old_id}",
                check=lambda s, d: "" if d["job_id"] == old_id else "wrong job",
            )[0]
        )

    def close(self) -> Optional[float]:
        """Stop the service; returns its peak RSS in MB."""
        peak = None
        if self.server is not None:
            peak = self.server.peak_rss_mb()
            self.server.stop()
        return peak

    def server_trace(self) -> Dict[str, Dict[str, float]]:
        return json.loads(self.trace_out.read_text())


def latency_summary(ops: List[Op]) -> Dict[str, float]:
    out = {}
    for kind in ("read", "write"):
        ms = [op.latency_s * 1000 for op in ops if op.kind == kind]
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        out[f"{kind}_p50_ms"] = deciles[4]
        out[f"{kind}_p90_ms"] = deciles[8]
    return out


def run(seed: int, seconds: float, trace: bool, per_layer) -> dict:
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    setups: List[float] = []
    # Extra set-ups only time start-up and pre-fill; the last one is measured.
    for i in range(SETUPS - 1):
        session = Session(seed, f"setup-{i}")
        try:
            setups.append(session.setup())
        finally:
            session.close()
    session = Session(seed, "measured")
    try:
        setups.append(session.setup())
        session.loop(rounds)
    finally:
        peak = session.close()
    attempted = len(session.ops)
    failed = [op for op in session.ops if not op.ok]
    for op in failed[:5]:
        log(f"service op failed: {op.why}")
    log(
        f"service-queue seed {seed}: {rounds} rounds, {attempted} ops in "
        f"{session.loop_s:.2f} s, setups {[round(s, 3) for s in setups]}"
    )
    if not trace:
        metrics = {
            "wall_s": metric(statistics.median(session.round_s), "s"),
            "peak_rss_mb": metric(peak, "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
        return {"attempted": attempted, "failed": len(failed), "metrics": metrics}

    traced = Session(seed, "traced")
    from tracing import Tracer, install_service

    tracer = Tracer()
    try:
        traced.setup()
        traced.restart_traced()
        install_service(tracer)
        traced.loop(rounds)
    finally:
        tracer.restore()
        traced.close()
    server = traced.server_trace()
    client = tracer.snapshot()
    traced_failed = [op for op in traced.ops if not op.ok]
    attempted += len(traced.ops)
    metrics = layer_metrics(session, traced, server, client, per_layer)
    return {
        "attempted": attempted,
        "failed": len(failed) + len(traced_failed),
        "metrics": metrics,
    }


def layer_metrics(session: Session, traced: Session, server, client, per_layer) -> dict:
    out = {name: metric(0.0, unit) for name, unit in per_layer}
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for snap in (server, client):
        for name, value in snap["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    units = dict(per_layer)
    for name, value in list(self_s.items()) + list(counts.items()):
        if name in units:
            out[name] = metric(value, units[name])
    # Server-side inclusive handle time during the loop only.
    transport = traced.client.http_s - server["total_s"].get("service.api_s", 0.0)
    out["service.transport_s"] = metric(transport, "s")
    ops = len(traced.ops)
    out["io.records.records_read_per_op"] = metric(
        counts.get("io.records.records_read", 0.0) / ops, "count"
    )
    out["unattributed_s"] = metric(traced.loop_s - sum(self_s.values()) - transport, "s")
    out["trace.overhead_s"] = metric(traced.loop_s - session.loop_s, "s")
    for name, value in latency_summary(session.ops).items():
        out[f"service.{name}"] = metric(value, "ms")
    out["service.ops_per_s"] = metric(len(session.ops) / session.loop_s, "1/s")
    return out


def serve_traced(root: str, trace_out: str, argv: List[str]) -> int:
    """``repro serve`` with the service timing wrappers installed."""
    sys.path.insert(0, str(benchutil.SRC))
    from repro.cli import main as repro_main
    from tracing import Tracer, install_service

    def interrupt(signum, frame):
        raise KeyboardInterrupt  # serve() shuts down cleanly on it

    signal.signal(signal.SIGTERM, interrupt)
    tracer = Tracer()
    install_service(tracer)
    try:
        return repro_main(["serve", root, *argv])
    finally:
        Path(trace_out).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    if len(sys.argv) > 3 and sys.argv[1] == "--serve":
        sys.exit(serve_traced(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit("usage: run through perfbench/run.py")
