"""The experiment service's HTTP front: a ``ThreadingHTTPServer``
speaking a small JSON protocol, plus an SSE event stream.

:meth:`ExperimentService.start_http
<repro.serve.server.ExperimentService.start_http>` imports this module
the first time it binds, so :mod:`http.server`, :mod:`socketserver` and
the :mod:`email` parser load in a process that serves HTTP and in no
other — not in one that runs cells or drives a service in-process.

====================  ======================================================
``POST /submit``      body ``{"configs": [...], "priority": 0,
                      "cell_timeout_s": null}`` → ``{"job_id",
                      "deduplicated", "state"}``; **400** for any other
                      key or a bad value, **429** with a backpressure
                      error once ``--queue-capacity`` jobs are
                      queued.
``GET /jobs``         every job's public view, submission order.
``GET /status/<id>``  one job's public view.
``GET /result/<id>``  per-cell summaries (``cell_dict`` shape) of a
                      finished job; 409 while it is still active.
``POST /cancel/<id>`` cancel a queued job; 409 once one of its cells
                      has reached a worker.
``GET /healthz``      liveness: queue depth, cell worker processes
                      alive, process pools spawned and
                      ``cells_in_flight`` (cells submitted to the held
                      pool and not yet finished).
``GET /metrics``      counters in JSON (jobs by state, completed/failed,
                      queue depth, cache size, cell workers, pool
                      spawns and ``cells_in_flight``) and queue-wait /
                      run time p50 and p90 over the jobs that ran.
``GET /events``       ``text/event-stream`` of job lifecycle + telemetry
                      events (optionally ``?job_id=`` filtered), with
                      keep-alive comments so proxies do not reap it.
====================  ======================================================

Connections are HTTP/1.1 keep-alive: a client may send any number of
requests over one (``ServiceClient`` holds one per thread), and the
server closes one that stays idle for :data:`IDLE_TIMEOUT_S`, so a
silent client cannot pin a handler thread.  ``/events`` streams until
the watched job ends or the client goes.
"""

from __future__ import annotations

import json
import queue as _queue
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import cell_dict
from repro.serve.queue import QueueFull
from repro.serve.state import ACTIVE_STATES, DONE, FAILED, UnknownJob

if TYPE_CHECKING:
    from repro.serve.server import ExperimentService

#: Seconds a keep-alive connection may sit idle before the server
#: closes it.
IDLE_TIMEOUT_S = 60.0

#: Every key a ``POST /submit`` body may carry.
_SUBMIT_KEYS = frozenset({"configs", "priority", "cell_timeout_s"})


class _KeepAliveServer(ThreadingHTTPServer):
    """A thread per connection, and a register of the open ones: a
    keep-alive connection outlives the request that opened it, so
    stopping the server has to close them too."""

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection: its handler thread reads EOF and
        exits, and its client's next request reconnects."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto one shared :class:`ExperimentService`."""

    service: ExperimentService  # installed by start_http
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two sends; with Nagle's algorithm on,
    # the second waits for the peer's delayed ACK (~40 ms) on a reused
    # connection.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    # -------------------------- plumbing ------------------------------ #

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        pass  # the service publishes events; access logs are noise

    def _json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", "0"))
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except ValueError:
            raise ValueError("request body is not valid JSON") from None
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    # --------------------------- routes ------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path, _, query = self.path.partition("?")
        try:
            if path == "/healthz":
                health = self.service.health()
                self._json(200 if health["ok"] else 503, health)
            elif path == "/metrics":
                self._json(200, self.service.metrics())
            elif path == "/jobs":
                self._json(200, {"jobs": self.service.table.snapshot()})
            elif path.startswith("/status/"):
                job_id = path[len("/status/"):]
                self._json(200, self.service.table.get(job_id).to_dict())
            elif path.startswith("/result/"):
                self._get_result(path[len("/result/"):])
            elif path == "/events":
                self._stream_events(query)
            else:
                self._error(404, f"unknown path {path!r}")
        except UnknownJob as exc:
            self._error(404, f"unknown job {exc.args[0]!r}")
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 — handler bulkhead
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except Exception:
                pass

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        try:
            # Read first, whatever the route: an unread body would be
            # parsed as the connection's next request.
            doc = self._read_body()
            if self.path == "/submit":
                self._post_submit(doc)
            elif self.path.startswith("/cancel/"):
                self._post_cancel(self.path[len("/cancel/"):])
            else:
                self._error(404, f"unknown path {self.path!r}")
        except UnknownJob as exc:
            self._error(404, f"unknown job {exc.args[0]!r}")
        except ValueError as exc:
            self._error(400, str(exc))
        except BrokenPipeError:
            pass
        except Exception as exc:  # noqa: BLE001 — handler bulkhead
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except Exception:
                pass

    def _post_submit(self, doc: Dict[str, Any]) -> None:
        unknown = sorted(set(doc) - _SUBMIT_KEYS)
        if unknown:
            raise ValueError(f"unknown submit keys: {unknown}")
        raw_configs = doc.get("configs")
        if not isinstance(raw_configs, list) or not raw_configs:
            raise ValueError("'configs' must be a non-empty list")
        configs = [ExperimentConfig.from_dict(c) for c in raw_configs]
        try:
            submission = self.service.submit(
                configs,
                priority=doc.get("priority", 0),
                cell_timeout_s=doc.get("cell_timeout_s"),
            )
        except QueueFull as exc:
            # 429: the canonical "shed load, retry later" status.
            self._json(429, {"error": str(exc), "backpressure": True})
            return
        self._json(
            202 if not submission.deduplicated else 200,
            {
                "job_id": submission.job.job_id,
                "state": submission.state,
                "deduplicated": submission.deduplicated,
            },
        )

    def _post_cancel(self, job_id: str) -> None:
        if self.service.cancel(job_id):
            self._json(200, {"job_id": job_id, "state": "cancelled"})
        else:
            self._error(
                409, f"{job_id} has started or ended; cannot cancel"
            )

    def _get_result(self, job_id: str) -> None:
        job = self.service.table.get(job_id)
        if job.state in ACTIVE_STATES:
            self._error(409, f"{job_id} is still {job.state}")
            return
        if job.results is None:
            self._error(409, f"{job_id} produced no results ({job.state})")
            return
        cells = [cell_dict(summary) for summary in job.results]
        self._json(
            200,
            {
                "job_id": job_id,
                "state": job.state,
                "error": job.error,
                "cells": cells,
            },
        )

    # ----------------------------- SSE -------------------------------- #

    def _stream_events(self, query: str) -> None:
        """Server-sent events: every broker event (optionally filtered
        to one job), 15s keep-alive comments between them."""
        job_filter: Optional[str] = None
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key == "job_id" and value:
                job_filter = value
        sub = self.service.broker.subscribe()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            while True:
                try:
                    event = sub.get(timeout=15.0)
                except _queue.Empty:
                    # SSE comment line: keeps proxies/clients from
                    # reaping an idle stream.
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                if job_filter and event.get("job_id") != job_filter:
                    continue
                data = json.dumps(event, sort_keys=True)
                kind = event.get("kind", "event")
                payload = f"event: {kind}\ndata: {data}\n\n".encode()
                self.wfile.write(payload)
                self.wfile.flush()
                if (
                    job_filter
                    and event.get("kind") == "job"
                    and event.get("state") in (DONE, FAILED, "cancelled")
                ):
                    return  # the watched job is over; end the stream
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client disconnected; normal SSE termination
        finally:
            self.service.broker.unsubscribe(sub)
