"""Client for the experiment service — HTTP (``http.client``, stdlib-only).

The in-process client is :class:`~repro.serve.server.ExperimentService`
itself (``submit``/``wait``/``result`` are its methods); this module is
the *remote* half: the same verbs against a running ``repro serve``
daemon, plus an SSE reader for the event stream.

A client keeps one HTTP/1.1 connection per thread that uses it
(``TCP_NODELAY`` on, as ``http.client`` sets it), so a poll costs a
request, not a TCP handshake and a server thread; one client may be
shared by any number of threads.  When the server has closed a held
connection (idle timeout, restart), the request is sent once more on a
new one — safe for ``POST /submit`` too, which deduplicates by content.
``events()`` opens a connection of its own for the stream.

What loads when: :mod:`http.client` (and with it the :mod:`email`
parser and :mod:`ssl`) is imported when the client opens its first
connection, not with this module, so importing :mod:`repro.api` — which
re-exports :class:`ServiceClient` — costs a process that never talks to
a service nothing.

    client = ServiceClient("http://127.0.0.1:8642")
    job = client.submit([config.to_dict() for config in grid])
    client.wait(job["job_id"])
    rows = client.result(job["job_id"])["cells"]
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Union,
)

from repro.experiments.config import ExperimentConfig

if TYPE_CHECKING:
    import http.client

__all__ = ["ServiceClient", "ServiceError", "BackpressureError"]


class ServiceError(RuntimeError):
    """The service answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class BackpressureError(ServiceError):
    """429 — the queue is full; retry later or shed the work."""


class ServiceClient:
    """Talks the service's JSON protocol over one connection per thread.

    Args:
        base_url: e.g. ``http://127.0.0.1:8642`` (no trailing slash
            needed).
        timeout_s: per-request socket timeout.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urllib.parse.urlsplit(self.base_url)
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()
        #: Every connection a thread holds, for close().
        self._connections: List[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #

    def submit(
        self,
        configs: Sequence[Union[ExperimentConfig, Dict[str, Any]]],
        priority: int = 0,
        jobs_per_cell: Optional[int] = None,
        cell_timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit a grid; returns ``{"job_id", "state", "deduplicated"}``.

        Raises :class:`BackpressureError` on a 429 (queue full).
        ``jobs_per_cell``: ignored; deleted with ROADMAP item 1 (never
        sent — the service's ``--jobs`` is the only width).
        """
        payload = {
            "configs": [
                c.to_dict() if isinstance(c, ExperimentConfig) else c
                for c in configs
            ],
            "priority": priority,
            "cell_timeout_s": cell_timeout_s,
        }
        return self._request("POST", "/submit", payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/status/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str) -> Dict[str, Any]:
        """Finished job's per-cell summaries; raises :class:`ServiceError`
        (409) while it is still running."""
        return self._request("GET", f"/result/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/cancel/{job_id}")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def wait(
        self,
        job_id: str,
        timeout_s: float = 120.0,
        poll_s: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the last
        status either way (check ``state``)."""
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status["state"] not in ("queued", "running"):
                return status
            if time.monotonic() >= deadline:
                return status
            time.sleep(poll_s)

    # ------------------------------------------------------------------ #
    # SSE
    # ------------------------------------------------------------------ #

    def events(
        self,
        job_id: Optional[str] = None,
        timeout_s: float = 60.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield decoded events from ``/events`` (optionally one job's).

        Ends when the server closes the stream (watched job finished)
        or the socket timeout expires with no traffic — keep-alive
        comments reset the timer, so an idle-but-healthy stream keeps
        yielding nothing rather than dying.
        """
        path = self._prefix + "/events"
        if job_id:
            path += f"?job_id={job_id}"
        stream = self._connect(timeout_s)
        try:
            stream.request("GET", path)
            response = stream.getresponse()
            if response.status >= 400:
                self._raise_for(response.status, response.read())
            data_lines: List[str] = []
            while True:
                raw = response.readline()
                if not raw:
                    return  # server closed the stream
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith(":"):
                    continue  # keep-alive comment
                if line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                    continue
                if line == "" and data_lines:
                    yield json.loads("\n".join(data_lines))
                    data_lines = []
        finally:
            stream.close()

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the connections the client's threads hold (a thread
        that uses the client afterwards opens a new one)."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()

    def _connect(self, timeout_s: float) -> http.client.HTTPConnection:
        import http.client

        return http.client.HTTPConnection(self._netloc, timeout=timeout_s)

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        for attempt in range(2):
            connection = getattr(self._local, "connection", None)
            if connection is None:
                connection = self._local.connection = self._connect(
                    self.timeout_s
                )
                with self._connections_lock:
                    self._connections.append(connection)
            try:
                connection.request(
                    method, self._prefix + path, body=body, headers=headers
                )
                response = connection.getresponse()
                raw = response.read()
                break
            except (ConnectionResetError, ConnectionAbortedError,
                    BrokenPipeError):
                # The server closed the held connection (idle timeout,
                # restart): once more on a new one.  RemoteDisconnected
                # is a ConnectionResetError.
                self._drop(connection)
                if attempt:
                    raise
            except BaseException:
                # A timeout or a half-read reply leaves the connection
                # in an unknown state; the next request opens a new one.
                self._drop(connection)
                raise
        if response.status >= 400:
            self._raise_for(response.status, raw)
        return json.loads(raw)

    def _drop(self, connection: http.client.HTTPConnection) -> None:
        connection.close()
        self._local.connection = None
        with self._connections_lock:
            if connection in self._connections:
                self._connections.remove(connection)

    @staticmethod
    def _raise_for(status: int, raw: bytes) -> None:
        try:
            message = json.loads(raw).get("error", raw.decode())
        except Exception:  # noqa: BLE001 — error body is best-effort
            message = raw.decode("utf-8", "replace")
        if status == 429:
            raise BackpressureError(status, message)
        raise ServiceError(status, message)
