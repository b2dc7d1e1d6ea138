"""HTTP transport for the advisor service (stdlib only).

A deliberately thin adapter: :class:`_Handler` parses the request
line, reads the JSON body, and hands ``(method, path, body)`` to
:meth:`repro.server.api.AdvisorService.handle`, which owns every
routing and status-code decision.  ``ThreadingHTTPServer`` gives one
thread per connection — fine for an advisory control-plane service
whose hot path (cache hit) is microseconds and whose slow path is
bounded by the worker pool, not by the transport.

Use :func:`make_server` to bind (port 0 picks a free port — the test
suite and the load bench rely on this), then ``serve_forever()`` on
the returned server, or :func:`run` for the CLI's blocking loop with
signal-driven graceful shutdown.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.server.api import AdvisorService

log = logging.getLogger("repro.server")

#: Refuse request bodies beyond this many bytes (a catalog upload for
#: a large schema is ~1 MiB; 64 MiB is far past any legitimate use).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One request: decode JSON in, delegate, encode JSON out."""

    # Keep connections alive across a poll loop.
    protocol_version = "HTTP/1.1"
    server_version = "repro-advisor"
    # A response leaves in two sends (headers, then body).  With
    # Nagle's algorithm the body waits for the client's delayed ACK of
    # the headers, about 40 ms on Linux, on every request.
    disable_nagle_algorithm = True

    def _dispatch(self) -> None:
        service: AdvisorService = self.server.service  # type: ignore
        try:
            body = self._read_body()
        except ValueError as exc:
            self._reply(400, {"error": str(exc)},
                        {"Content-Type": "application/json"})
            return
        try:
            status, payload, headers = service.handle(
                self.command, self.path.split("?", 1)[0], body)
        except Exception:  # noqa: BLE001 - transport backstop
            log.exception("unhandled error serving %s %s",
                          self.command, self.path)
            self._reply(500, {"error": "internal server error"},
                        {"Content-Type": "application/json"})
            return
        self._reply(status, payload, headers)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # rfile.read(-1) would block until the client hangs up.
            raise ValueError(f"negative Content-Length ({length})")
        if length == 0:
            return None
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: "
                             f"{exc}") from None

    def _reply(self, status: int, payload, headers) -> None:
        if isinstance(payload, str):
            data = payload.encode("utf-8")
        else:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        for key in sorted(headers):
            self.send_header(key, headers[key])
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = _dispatch
    do_POST = _dispatch
    do_PUT = _dispatch
    do_DELETE = _dispatch

    def log_message(self, fmt: str, *args) -> None:
        # Route access logs through logging instead of stderr noise.
        log.debug("%s - %s", self.address_string(), fmt % args)


class AdvisorHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its :class:`AdvisorService`."""

    # Request threads die with the process; shutdown still drains the
    # *job* queue explicitly via service.close().
    daemon_threads = True
    # Fast restart across CI runs.
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 service: AdvisorService):
        super().__init__(address, _Handler)
        self.service = service


def make_server(service: AdvisorService, host: str = "127.0.0.1",
                port: int = 0) -> AdvisorHTTPServer:
    """Bind the service; ``port=0`` picks a free ephemeral port."""
    return AdvisorHTTPServer((host, port), service)


def run(service: AdvisorService, host: str = "127.0.0.1",
        port: int = 8734,
        ready: threading.Event | None = None) -> AdvisorHTTPServer:
    """Serve until :meth:`AdvisorHTTPServer.shutdown` is called.

    Blocks.  ``ready`` (when given) is set once the socket is bound
    and the address is known — callers on another thread can wait on
    it instead of polling the port.
    """
    server = make_server(service, host, port)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        service.close(drain=True)
    return server
