"""Stdlib HTTP transport over :class:`~repro.service.api.ServiceAPI`.

``make_server`` builds a :class:`ThreadingHTTPServer` whose handler
delegates every request to the pure API object; ``serve`` is the
``repro serve`` entry point, which additionally spawns N worker
subprocesses (``python -m repro work ROOT``) so one command stands up
the whole service.  No third-party dependency anywhere: transport is
``http.server``, workers are ``subprocess``.
"""

from __future__ import annotations

import subprocess
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import List, Optional, Union
from urllib.parse import parse_qsl, urlsplit

from .. import obs
from .api import MAX_BODY_BYTES, ServiceAPI

__all__ = ["make_server", "serve"]

PathLike = Union[str, Path]

log = obs.get_logger(__name__)


class _Handler(BaseHTTPRequestHandler):
    """Transport-only: framing, body limits, and logging live here."""

    api: ServiceAPI  # set by make_server on the subclass
    protocol_version = "HTTP/1.1"
    # _respond sends headers and body in two writes; with Nagle's
    # algorithm on, a keep-alive client's delayed ACK holds the body
    # back about 40 ms per response.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        log.info("%s - %s", self.address_string(), fmt % args)

    def _respond(self, response) -> None:
        payload = response.payload()
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            if value:
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self, method: str, body: bytes = b"") -> None:
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query))
        try:
            response = self.api.handle(method, split.path, query, body)
        except Exception:  # noqa: BLE001 - a handler bug must not kill the server
            log.exception("unhandled error serving %s %s", method, self.path)
            from .api import ApiResponse

            response = ApiResponse(500, {"error": "internal server error"})
        self._respond(response)

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        length = self.headers.get("Content-Length")
        if length is None:
            from .api import ApiResponse

            self._respond(ApiResponse(411, {"error": "Content-Length required"}))
            return
        try:
            n = int(length)
        except ValueError:
            from .api import ApiResponse

            self._respond(ApiResponse(400, {"error": "bad Content-Length"}))
            return
        if n > MAX_BODY_BYTES:
            # Refuse before reading: an oversized upload costs one
            # header, not a megabyte of buffering.
            from .api import ApiResponse

            self._respond(
                ApiResponse(
                    413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"}
                )
            )
            return
        body = self.rfile.read(n) if n else b""
        self._dispatch("POST", body)

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def make_server(
    root: PathLike,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    default_preset: str = "tiny",
) -> ThreadingHTTPServer:
    """A ready-to-run HTTP server bound to ``host:port`` (0 = ephemeral).

    The caller owns the lifecycle: ``serve_forever()`` it (often on a
    thread, as the tests do) and ``shutdown()`` + ``server_close()``
    when done.  The bound port is ``server.server_address[1]``.
    """
    api = ServiceAPI(root, default_preset=default_preset)
    handler = type("Handler", (_Handler,), {"api": api})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def _spawn_workers(
    root: PathLike, n: int, poll_interval: float
) -> List[subprocess.Popen]:
    workers = []
    for i in range(n):
        workers.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "work",
                    str(root),
                    "--name",
                    f"serve-w{i}",
                    "--poll-interval",
                    str(poll_interval),
                ]
            )
        )
    return workers


def serve(
    root: PathLike,
    *,
    host: str = "127.0.0.1",
    port: int = 8760,
    workers: int = 1,
    default_preset: str = "tiny",
    poll_interval: float = 0.5,
    ready_line: Optional[bool] = True,
) -> int:
    """``repro serve``: API plus N worker subprocesses, until interrupted."""
    server = make_server(root, host, port, default_preset=default_preset)
    bound_host, bound_port = server.server_address[:2]
    procs = _spawn_workers(root, workers, poll_interval)
    if ready_line:
        # A parseable readiness line: the CI smoke job (and any script)
        # waits for it instead of polling the port.
        print(f"repro-serve listening on http://{bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.shutdown()
        server.server_close()
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                proc.kill()
    return 0
