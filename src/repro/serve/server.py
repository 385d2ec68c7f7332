"""Always-on experiment service: stdlib HTTP JSON API + SSE.

One :class:`ExperimentService` object owns the whole stack — job table,
bounded queue, worker pool, event broker, and a
``ThreadingHTTPServer`` speaking a small JSON protocol:

====================  ======================================================
``POST /submit``      body ``{"configs": [...], "priority": 0, ...}`` →
                      ``{"job_id", "deduplicated", "state"}``; **429** with
                      a backpressure error once the queue is full.
``GET /jobs``         every job's public view, submission order.
``GET /status/<id>``  one job's public view.
``GET /result/<id>``  per-cell summaries (``cell_dict`` shape) of a
                      finished job; 409 while it is still active.
``POST /cancel/<id>`` cancel a queued job; 409 if it already left the queue.
``GET /healthz``      liveness: queue depth, worker threads alive
                      (respawning any that died), restart counter, cell
                      worker processes alive, process pools spawned and
                      ``cells_in_flight`` (cells submitted to the held
                      pools and not yet finished).
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

Everything is stdlib — the service adds no dependency, just like the
rest of the repo.  The in-process surface (``service.submit(...)``)
is the exact same code path the HTTP layer calls, so tests and
notebooks can drive a service without sockets.
"""

from __future__ import annotations

import json
import queue as _queue
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import cell_dict
from repro.experiments.parallel import ResultCache, cache_enabled
from repro.serve.queue import JobQueue, QueueFull, Submission
from repro.serve.state import (
    ACTIVE_STATES,
    DONE,
    FAILED,
    JobTable,
    UnknownJob,
)
from repro.serve.workers import WorkerPool

__all__ = ["EventBroker", "ExperimentService", "serve"]

#: Seconds a keep-alive connection may sit idle before the server
#: closes it.
IDLE_TIMEOUT_S = 60.0


class EventBroker:
    """Fan-out of service events to any number of SSE subscribers.

    Subscribers get a bounded queue; a subscriber that stops draining
    (dead connection, slow client) overflows *its own* queue and loses
    events — never blocking publishers or other subscribers.
    """

    def __init__(self, buffer: int = 256) -> None:
        self._lock = threading.Lock()
        self._subscribers: List[_queue.Queue] = []
        self._buffer = buffer
        #: Monotone event counter (metrics).
        self.published = 0

    def subscribe(self) -> _queue.Queue:
        sub: _queue.Queue = _queue.Queue(maxsize=self._buffer)
        with self._lock:
            self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: _queue.Queue) -> None:
        with self._lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass

    def publish(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self.published += 1
            subscribers = list(self._subscribers)
        for sub in subscribers:
            try:
                sub.put_nowait(event)
            except _queue.Full:
                pass  # slow subscriber sheds; publishers never block


class ExperimentService:
    """The assembled service (queue + pool + broker + job table).

    Usable entirely in-process — :meth:`submit` / :meth:`wait` /
    :meth:`result` — or over HTTP via :meth:`start_http`.

    Args:
        n_workers: cell pools, one per worker thread; each runs the
            cells of as many jobs as it has free processes.
        queue_capacity: queued-job bound (backpressure past it).
        use_cache / cache_dir: result-cache knobs for ``run_cells``.
        default_cell_timeout_s: per-cell budget for jobs that set none.
    """

    def __init__(
        self,
        n_workers: int = 2,
        queue_capacity: int = 64,
        use_cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
        default_cell_timeout_s: Optional[float] = None,
    ) -> None:
        self.broker = EventBroker()
        self.table = JobTable(publish=self.broker.publish)
        self.queue = JobQueue(self.table, capacity=queue_capacity)
        self.pool = WorkerPool(
            self.queue,
            self.table,
            n_workers=n_workers,
            use_cache=use_cache,
            cache_dir=cache_dir,
            default_cell_timeout_s=default_cell_timeout_s,
            publish=self.broker.publish,
        )
        self._cache_dir = cache_dir
        self._use_cache = use_cache
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # In-process surface
    # ------------------------------------------------------------------ #

    def start(self) -> "ExperimentService":
        self.pool.start()
        return self

    def submit(
        self,
        configs: Sequence[ExperimentConfig],
        priority: int = 0,
        jobs_per_cell: Optional[int] = None,
        cell_timeout_s: Optional[float] = None,
    ) -> Submission:
        """Enqueue a grid; see :meth:`JobQueue.submit` for semantics
        (raises :class:`QueueFull` under backpressure)."""
        self.pool.ensure_workers()
        return self.queue.submit(
            configs,
            priority=priority,
            jobs_per_cell=jobs_per_cell,
            cell_timeout_s=cell_timeout_s,
        )

    def wait(self, job_id: str, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Block until the job leaves the active states (or timeout);
        returns its public view either way."""
        return self.table.wait(job_id, timeout_s).to_dict()

    def result(self, job_id: str) -> List[Any]:
        """The finished job's :class:`ResultSummary` list (input order).

        Raises ``RuntimeError`` while the job is still active or was
        cancelled without producing results.
        """
        job = self.table.get(job_id)
        if job.state in ACTIVE_STATES or job.results is None:
            raise RuntimeError(
                f"{job_id} has no results (state: {job.state})"
            )
        return job.results

    def cancel(self, job_id: str) -> bool:
        self.table.get(job_id)  # raises UnknownJob for bad ids
        return self.queue.cancel(job_id)

    def health(self) -> Dict[str, Any]:
        """Liveness view; also self-heals the pool (respawn-on-probe)."""
        alive = self.pool.ensure_workers()
        return {
            "ok": alive > 0,
            "workers_alive": alive,
            "worker_restarts": self.pool.restarts,
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.capacity,
            **self.pool.cell_counters(),
        }

    def metrics(self) -> Dict[str, Any]:
        cache_entries = None
        cache_bytes = None
        caching = (
            self._use_cache if self._use_cache is not None else cache_enabled()
        )
        if caching:
            cache = ResultCache(self._cache_dir)
            cache_entries = cache.size()
            cache_bytes = cache.total_bytes()
        out = {
            "jobs": self.table.counts(),
            "jobs_completed": self.pool.completed,
            "jobs_failed": self.pool.failed,
            "queue_depth": self.queue.depth,
            "worker_restarts": self.pool.restarts,
            "events_published": self.broker.published,
            "cache_entries": cache_entries,
            "cache_bytes": cache_bytes,
            **self.pool.cell_counters(),
            **self.table.phase_quantiles(),
        }
        return out

    def stop(self) -> None:
        self.stop_http()
        self.pool.stop()

    # ------------------------------------------------------------------ #
    # HTTP surface
    # ------------------------------------------------------------------ #

    def start_http(
        self, host: str = "127.0.0.1", port: int = 8642
    ) -> ThreadingHTTPServer:
        """Bind and serve on a daemon thread; returns the server (its
        ``server_address`` carries the actual port when ``port=0``)."""
        service = self

        class Handler(_ServiceHandler):
            pass

        Handler.service = service
        httpd = _KeepAliveServer((host, port), Handler)
        self._httpd = httpd
        self._http_thread = threading.Thread(
            target=httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._http_thread.start()
        return httpd

    def stop_http(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd.close_connections()
            self._httpd = None

    @property
    def http_address(self) -> Optional[tuple]:
        return self._httpd.server_address if self._httpd else None


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
        raw_configs = doc.get("configs")
        if not isinstance(raw_configs, list) or not raw_configs:
            raise ValueError("'configs' must be a non-empty list")
        configs = [ExperimentConfig.from_dict(c) for c in raw_configs]
        try:
            submission = self.service.submit(
                configs,
                priority=int(doc.get("priority", 0)),
                jobs_per_cell=doc.get("jobs_per_cell"),
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
                "state": submission.job.state,
                "deduplicated": submission.deduplicated,
            },
        )

    def _post_cancel(self, job_id: str) -> None:
        if self.service.cancel(job_id):
            self._json(200, {"job_id": job_id, "state": "cancelled"})
        else:
            self._error(
                409, f"{job_id} already left the queue; cannot cancel"
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


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    n_workers: int = 2,
    queue_capacity: int = 64,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    default_cell_timeout_s: Optional[float] = None,
) -> ExperimentService:
    """Build, start and HTTP-bind an :class:`ExperimentService`.

    Returns the running service; callers own its lifetime
    (``service.stop()``).  ``port=0`` binds an ephemeral port —
    ``service.http_address`` tells you which.
    """
    service = ExperimentService(
        n_workers=n_workers,
        queue_capacity=queue_capacity,
        use_cache=use_cache,
        cache_dir=cache_dir,
        default_cell_timeout_s=default_cell_timeout_s,
    )
    service.start()
    service.start_http(host=host, port=port)
    return service
