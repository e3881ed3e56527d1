"""The HTTP facade of the simulation service (``repro serve``).

Pure standard library: a :class:`http.server.ThreadingHTTPServer`
speaking JSON, wrapping one :class:`~repro.serve.service.
SimulationService`.  The wire protocol (all bodies JSON):

==========================  ==========================================
endpoint                    behavior
==========================  ==========================================
``GET  /v1/health``         liveness + package version
``POST /v1/submit``         body ``{"request": <RunRequest.to_dict()>,
                            "priority": 0}`` → ``{"job": id,
                            "state": <state at admission>}``;
                            **429** when the queue is full, 400 for a
                            malformed request
``GET  /v1/status/<job>``   the job's state snapshot; 404 unknown
``GET  /v1/result/<job>``   blocks up to ``?wait=<seconds>`` (default
                            0) for the response; 200 carries
                            ``{"source", "request", "result",
                            "profile"}``; **408** not done in time,
                            **500** when the job failed
``GET  /v1/stats``          service + cache counters
``POST /v1/shutdown``       graceful drain and exit
==========================  ==========================================

Every error body is ``{"error": <type>, "detail": <message>}``.
Results travel as :func:`repro.sim.serialize.result_to_dict` payloads,
so a served result round-trips bit-identically through the client.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigError, QueueFullError, ReproError, ServeError
from repro.serve.service import SimulationService
from repro.sim.serialize import result_to_dict
from repro.spec import RunRequest

__all__ = ["ServiceDaemon", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"

#: Default listening port of ``repro serve`` (and the client's default).
DEFAULT_PORT = 8357

#: Longest ``?wait=`` a single result poll may hold a connection open.
MAX_WAIT_SECONDS = 600.0


class _Handler(BaseHTTPRequestHandler):
    """One request; the service lives on the server object."""

    protocol_version = "HTTP/1.1"
    server: "_Server"

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass   # the event log is the observability channel, not stderr

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, exc: Exception) -> None:
        self._send(status, {"error": type(exc).__name__,
                            "detail": str(exc)})

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ServeError(f"request body is not valid JSON ({exc})") \
                from None
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        return body

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server's contract
        service = self.server.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "health"]:
                import repro

                self._send(200, {"ok": True,
                                 "version": repro.__version__})
            elif len(parts) == 3 and parts[:2] == ["v1", "status"]:
                self._send(200, service.status(parts[2]))
            elif len(parts) == 3 and parts[:2] == ["v1", "result"]:
                self._result(service, parts[2],
                             parse_qs(url.query))
            elif parts == ["v1", "stats"]:
                self._send(200, service.stats())
            else:
                self._send(404, {"error": "NotFound",
                                 "detail": f"no route {url.path!r}"})
        except ServeError as exc:
            status = 404 if "unknown job" in str(exc) else 400
            self._error(status, exc)
        except ReproError as exc:
            self._error(400, exc)

    def do_POST(self) -> None:  # noqa: N802 — http.server's contract
        service = self.server.service
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if parts == ["v1", "submit"]:
                body = self._body()
                request = RunRequest.from_dict(body.get("request"))
                priority = body.get("priority", 0)
                job_id, state = service._admit(request, priority)
                self._send(202, {"job": job_id, "state": state})
            elif parts == ["v1", "shutdown"]:
                self._send(200, {"ok": True})
                self.server.request_shutdown()
            else:
                self._send(404, {"error": "NotFound",
                                 "detail": f"no route {self.path!r}"})
        except QueueFullError as exc:
            self._error(429, exc)
        except (ConfigError, ServeError) as exc:
            self._error(400, exc)
        except ReproError as exc:
            self._error(400, exc)

    def _result(self, service: SimulationService, job_id: str,
                query: dict) -> None:
        try:
            wait = float(query.get("wait", ["0"])[0])
        except ValueError:
            raise ServeError(
                f"wait must be a number of seconds, "
                f"got {query.get('wait')[0]!r}") from None
        wait = max(0.0, min(wait, MAX_WAIT_SECONDS))
        job = service.wait(job_id, timeout=wait)
        if job.state == "failed":
            self._send(500, {"error": "JobFailed", "detail": job.error,
                             "status": job.snapshot()})
            return
        if not job.done:
            self._send(408, {"error": "NotReady",
                             "detail": f"job {job_id} still "
                                       f"{job.state} after {wait:g}s",
                             "status": job.snapshot()})
            return
        response = job.response
        assert response is not None
        self._send(200, {
            "job": job_id,
            "source": response.source,
            "request": response.request.to_dict(),
            "result": result_to_dict(response.result),
            "profile": response.profile,
        })


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: SimulationService):
        super().__init__(address, _Handler)
        self.service = service
        self._shutdown_requested = threading.Event()

    def request_shutdown(self) -> None:
        self._shutdown_requested.set()
        # shutdown() must come from another thread; serve_forever()'s
        # own thread would deadlock joining itself.
        threading.Thread(target=self.shutdown, daemon=True).start()


class ServiceDaemon:
    """One service bound to one listening socket.

    ``port=0`` binds an ephemeral port (the bound address is on
    :attr:`address` immediately after construction — how the smoke
    test and the CLI's startup line discover it).  :meth:`serve_forever`
    blocks until a ``POST /v1/shutdown`` or :meth:`stop`;
    :meth:`start_background` runs the accept loop on a daemon thread
    for in-process tests.
    """

    def __init__(self, service: SimulationService | None = None, *,
                 host: str = DEFAULT_HOST, port: int = 0, **kwargs):
        self.service = service or SimulationService(**kwargs)
        self._server = _Server((host, port), self.service)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Run the accept loop on this thread until shut down."""
        self.service.start()
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._server.server_close()
            self.service.shutdown(wait=True)

    def start_background(self) -> None:
        """Run the accept loop on a daemon thread (tests, tooling)."""
        self.service.start()
        def loop() -> None:
            try:
                self._server.serve_forever(poll_interval=0.1)
            finally:
                # A remote /v1/shutdown lands here too: release the
                # socket and drain the service exactly like the
                # foreground path does.
                self._server.server_close()
                self.service.shutdown(wait=True)

        self._thread = threading.Thread(
            target=loop, name="repro-serve-http", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, drain the service, release the socket."""
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._server.server_close()
        self.service.shutdown(wait=True)
