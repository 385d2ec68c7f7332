"""The always-on experiment service: queue, pool, HTTP API, SSE.

The centrepiece is the crash e2e: a job whose cell deterministically
kills its worker *process* (``REPRO_TEST_CRASH_SEED``) must still
complete — the grid runner restarts its pool, falls back to serial, and
the service's ``/healthz`` stays green throughout.  Around it: admission
backpressure and dedup, the job lifecycle state machine, one queue of
cells ordered by job priority, cancel taking a queued job's cells back,
one pool whatever the jobs, keep-alive connections, and the SSE stream
delivering job lifecycle + telemetry events.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.result import ResultSummary
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.serve import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    ExperimentService,
    JobQueue,
    JobTable,
    QueueFull,
    ServiceClient,
    ServiceError,
)
from repro.serve.httpd import _ServiceHandler
from repro.serve.state import InvalidTransition, UnknownJob
from tests.conftest import child_env

TOPO = bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2)


def _config(seed=1, load=0.5, n_flows=10):
    return ExperimentConfig(
        topology=TOPO,
        lb="ecmp",
        load=load,
        n_flows=n_flows,
        seed=seed,
        size_scale=0.05,
        time_scale=0.05,
    )


def _wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture
def service():
    svc = ExperimentService(jobs=2, queue_capacity=4, use_cache=False)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def http_service(service):
    httpd = service.start_http(port=0)
    port = httpd.server_address[1]
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=30.0)
    yield service, client
    client.close()


class TestJobTable:
    def test_lifecycle_happy_path(self):
        table = JobTable()
        job = table.new_job([_config()], job_key="k")
        assert job.state == QUEUED
        table.transition(job.job_id, RUNNING)
        table.transition(job.job_id, DONE, results=[])
        final = table.get(job.job_id)
        assert final.state == DONE
        assert final.started_s is not None
        assert final.finished_s is not None

    def test_illegal_transitions_rejected(self):
        table = JobTable()
        job = table.new_job([_config()], job_key="k")
        with pytest.raises(InvalidTransition):
            table.transition(job.job_id, DONE)  # queued -> done skips running
        table.transition(job.job_id, RUNNING)
        with pytest.raises(InvalidTransition):
            table.transition(job.job_id, QUEUED)
        table.transition(job.job_id, FAILED, error="boom")
        with pytest.raises(InvalidTransition):
            table.transition(job.job_id, RUNNING)  # terminal is terminal

    def test_unknown_job(self):
        with pytest.raises(UnknownJob):
            JobTable().get("job-999999")


class TestJobQueue:
    """The admission gate: capacity counts queued jobs, identical work
    dedups."""

    def test_backpressure_rejects_past_capacity(self):
        table = JobTable()
        queue = JobQueue(table, capacity=2)
        first = queue.submit([_config(seed=1)])
        queue.submit([_config(seed=2)])
        with pytest.raises(QueueFull, match="capacity"):
            queue.submit([_config(seed=3)])
        # A job that starts running no longer counts: the door reopens.
        table.transition(first.job.job_id, RUNNING)
        queue.submit([_config(seed=3)])

    def test_dedup_joins_live_job(self):
        table = JobTable()
        queue = JobQueue(table, capacity=10)
        first = queue.submit([_config(seed=1)])
        second = queue.submit([_config(seed=1)])
        assert not first.deduplicated
        assert second.deduplicated
        assert second.job.job_id == first.job.job_id
        assert queue.depth == 1
        # A genuinely different grid is new work.
        third = queue.submit([_config(seed=2)])
        assert not third.deduplicated

    def test_dedup_returns_finished_job(self):
        table = JobTable()
        queue = JobQueue(table, capacity=10)
        first = queue.submit([_config(seed=1)])
        table.transition(first.job.job_id, RUNNING)
        table.transition(first.job.job_id, DONE, results=[])
        again = queue.submit([_config(seed=1)])
        assert again.deduplicated
        assert again.job.job_id == first.job.job_id
        assert queue.depth == 0

    def test_cancel_queued_only(self, service, monkeypatch):
        """Cancel takes back a job whose cells all wait, and refuses one
        with a cell on a worker."""
        monkeypatch.setenv("REPRO_TEST_SLEEP", "1:1")
        running = service.submit([_config(seed=1), _config(seed=1, load=0.6)])
        queued = service.submit([_config(seed=2)])
        assert service.cancel(queued.job.job_id)
        assert service.table.get(queued.job.job_id).state == "cancelled"
        assert not service.cancel(queued.job.job_id)
        assert not service.cancel(running.job.job_id)
        assert service.wait(running.job.job_id, timeout_s=60.0)["state"] == DONE


class TestServiceInProcess:
    def test_submit_runs_to_done(self, service):
        submission = service.submit(
            [_config(seed=1), _config(seed=2)]
        )
        status = service.wait(submission.job.job_id, timeout_s=60.0)
        assert status["state"] == DONE
        results = service.result(submission.job.job_id)
        assert len(results) == 2
        assert all(r.error is None for r in results)
        assert results[0].stats.count == 10

    def test_result_before_done_raises(self, service):
        submission = service.submit([_config(seed=1)])
        try:
            service.result(submission.job.job_id)
        except RuntimeError:
            pass  # still queued/running — expected when we beat the worker
        service.wait(submission.job.job_id, timeout_s=60.0)

    def test_wait_blocks_instead_of_polling(self, service, monkeypatch):
        """``wait`` blocks on the job table's condition; it does not
        poll."""
        submission = service.submit(
            [_config(seed=4), _config(seed=5)]
        )

        def no_sleep(_seconds):
            raise AssertionError("wait polled")

        monkeypatch.setattr(time, "sleep", no_sleep)
        status = service.wait(submission.job.job_id, timeout_s=60.0)
        assert status["state"] == DONE

    def test_all_cached_job_is_done_when_submit_returns(self, tmp_path):
        svc = ExperimentService(
            jobs=2, use_cache=True, cache_dir=str(tmp_path)
        ).start()
        try:
            configs = [_config(seed=5), _config(seed=6)]
            first = svc.submit(configs)
            assert svc.wait(first.job.job_id, timeout_s=60.0)["state"] == DONE
            again = svc.submit(list(reversed(configs)))
            assert again.state == again.job.state == DONE
            assert [r.config.seed for r in svc.result(again.job.job_id)] == [
                6, 5,
            ]
        finally:
            svc.stop()

    def test_stopped_service_refuses_submissions(self):
        svc = ExperimentService(jobs=1, use_cache=False).start()
        svc.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            svc.submit([_config(seed=7)])
        assert not svc.health()["ok"]


class TestCrashTolerance:
    def test_job_survives_worker_process_crash(self, service, monkeypatch):
        """The e2e acceptance: a cell that kills its worker process on
        every pool attempt still completes (pool restart, then serial
        fallback), the job reports done, and healthz stays green."""
        monkeypatch.setenv("REPRO_TEST_CRASH_SEED", "1")
        submission = service.submit(
            [_config(seed=1), _config(seed=2)]
        )
        status = service.wait(submission.job.job_id, timeout_s=120.0)
        assert status["state"] == DONE, status
        results = service.result(submission.job.job_id)
        assert [r.config.seed for r in results] == [1, 2]
        assert all(r.error is None for r in results)
        assert all(r.stats.finished_count > 0 for r in results)
        assert service.health()["ok"]

    def test_failed_job_is_bulkheaded(self, service):
        """A job that raises inside run_cells marks itself failed; the
        worker thread survives to run the next job."""
        bad = _config(seed=1)
        object.__setattr__(bad, "n_flows", 0)  # invalid at run time
        submission = service.submit([bad])
        status = service.wait(submission.job.job_id, timeout_s=60.0)
        assert status["state"] == FAILED
        assert status["error"]
        follow_up = service.submit([_config(seed=2)])
        assert (
            service.wait(follow_up.job.job_id, timeout_s=60.0)["state"] == DONE
        )


class TestHeldCellPool:
    """The service keeps one pool of cell processes between jobs; every
    miss runs in one of them, whatever the pool's width."""

    def _hung_job_times_out(self, svc, configs):
        started = time.monotonic()
        hung = svc.submit(configs, cell_timeout_s=0.5)
        status = svc.wait(hung.job.job_id, timeout_s=30.0)
        assert status["state"] == FAILED, status
        assert "cell_timeout_s=0.5" in status["error"]
        assert time.monotonic() - started < 3.0
        follow_up = svc.submit(
            [_config(seed=31), _config(seed=32)]
        )
        assert svc.wait(follow_up.job.job_id, timeout_s=60.0)["state"] == DONE
        assert svc.health()["ok"]

    def test_one_cell_job_is_isolated_and_timed(self, service, monkeypatch):
        """At the parent commit a lone miss ran on the worker thread
        inside the daemon: the hook never fired, the budget was ignored
        and the job read ``done``."""
        monkeypatch.setenv("REPRO_TEST_SLEEP", "30:5")
        self._hung_job_times_out(service, [_config(seed=30)])

    def test_half_cached_job_is_isolated_and_timed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SLEEP", "30:5")
        svc = ExperimentService(
            jobs=2, use_cache=True, cache_dir=str(tmp_path)
        ).start()
        try:
            warm = svc.submit([_config(seed=29)])
            assert svc.wait(warm.job.job_id, timeout_s=60.0)["state"] == DONE
            self._hung_job_times_out(
                svc, [_config(seed=29), _config(seed=30)]
            )
        finally:
            svc.stop()

    def test_width_one_runs_in_a_worker_too(self, monkeypatch):
        """A one-process pool is a pool like any other: the job's cell
        runs in a worker, under its budget, never inside the daemon
        (where the hook is inert and the job would read ``done``)."""
        monkeypatch.setenv("REPRO_TEST_SLEEP", "30:5")
        svc = ExperimentService(jobs=1, use_cache=False).start()
        try:
            self._hung_job_times_out(svc, [_config(seed=30)])
            assert svc.health()["cell_workers_alive"] == 1
        finally:
            svc.stop()

    def test_pool_is_spawned_once_and_again_after_a_timeout(
        self, http_service, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_SLEEP", "50:5")
        service, client = http_service
        for k in range(5):
            job = client.submit(
                [_config(seed=40 + 2 * k), _config(seed=41 + 2 * k)],
            )
            assert client.wait(job["job_id"], timeout_s=60.0)["state"] == DONE
        metrics = client.metrics()
        assert metrics["cell_pool_spawns"] == 1
        assert metrics["cell_workers_alive"] == 2
        assert client.healthz()["cell_pool_spawns"] == 1
        for phase in ("queue_wait_ms", "run_ms"):
            assert 0 <= metrics[f"{phase}_p50"] <= metrics[f"{phase}_p90"]
        assert metrics["run_ms_p50"] > 0

        hung = client.submit(
            [_config(seed=50), _config(seed=51)], cell_timeout_s=0.5,
        )
        assert client.wait(hung["job_id"], timeout_s=30.0)["state"] == FAILED
        after = client.submit(
            [_config(seed=52), _config(seed=53)]
        )
        assert client.wait(after["job_id"], timeout_s=60.0)["state"] == DONE
        assert client.metrics()["cell_pool_spawns"] == 2
        assert client.healthz()["cell_workers_alive"] == 2

    def test_metrics_before_any_job(self, service):
        metrics = service.metrics()
        assert metrics["cell_pool_spawns"] == 0
        assert metrics["cell_workers_alive"] == 0
        assert metrics["run_ms_p50"] is None

    def test_stop_leaves_no_child(self):
        svc = ExperimentService(jobs=2, use_cache=False).start()
        jobs = [
            svc.submit(
                [_config(seed=60 + 2 * k), _config(seed=61 + 2 * k)],
            )
            for k in range(2)
        ]
        for job in jobs:
            assert svc.wait(job.job.job_id, timeout_s=60.0)["state"] == DONE
        assert multiprocessing.active_children()
        svc.stop()
        assert multiprocessing.active_children() == []


class TestAdmission:
    """One queue of cells, not of jobs: a job's cells wait in the pool's
    queue by the job's priority, the next job's cells start the moment a
    process of the pool is free, and clients poll over one held
    connection per thread.  One pool, two processes."""

    def _finish(self, svc, *submissions):
        return [
            svc.wait(sub.job.job_id, timeout_s=60.0) for sub in submissions
        ]

    def test_next_job_runs_beside_a_slow_cell(self, service, monkeypatch):
        """B runs beside A's slow cell instead of waiting for it while
        A's other process idles."""
        monkeypatch.setenv("REPRO_TEST_SLEEP", "70:1")
        a = service.submit([_config(seed=70), _config(seed=71)])
        b = service.submit([_config(seed=72), _config(seed=73)])
        a_end, b_end = self._finish(service, a, b)
        assert a_end["state"] == b_end["state"] == DONE
        assert b_end["started_s"] < a_end["finished_s"]
        assert b_end["finished_s"] < a_end["finished_s"]
        assert service.health()["cells_in_flight"] == 0

    def test_priority_decides_who_gets_the_free_process(
        self, service, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_SLEEP", "74:1")
        busy = service.submit(
            [_config(seed=74), _config(seed=74, load=0.6)]
        )
        assert _wait_until(lambda: service.health()["cells_in_flight"] == 2)
        low = service.submit([_config(seed=75), _config(seed=76)])
        high = service.submit(
            [_config(seed=77), _config(seed=78)], priority=5
        )
        ends = self._finish(service, busy, low, high)
        assert [end["state"] for end in ends] == [DONE] * 3
        assert ends[2]["started_s"] < ends[1]["started_s"]

    def test_higher_priority_overtakes_cells_already_waiting(
        self, service, monkeypatch
    ):
        """The low job's cells are already in the pool's queue when the
        high job arrives; the high job's cells still reach a worker
        first, and the low job stays queued until one of its own does."""
        monkeypatch.setenv("REPRO_TEST_SLEEP", "74:1")
        busy = service.submit(
            [_config(seed=74), _config(seed=74, load=0.6)]
        )
        assert _wait_until(
            lambda: service.table.get(busy.job.job_id).state == RUNNING
        )
        low = service.submit([_config(seed=75), _config(seed=76)])
        assert service.health()["cells_in_flight"] == 4
        high = service.submit(
            [_config(seed=77), _config(seed=78)], priority=5
        )
        assert service.health()["cells_in_flight"] == 6
        assert service.table.get(low.job.job_id).state == QUEUED
        assert service.health()["queue_depth"] == 2
        ends = self._finish(service, busy, low, high)
        assert [end["state"] for end in ends] == [DONE] * 3
        assert ends[2]["started_s"] < ends[1]["started_s"]

    def test_cancel_withdraws_the_waiting_cells(self, service, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SLEEP", "79:1")
        busy = service.submit(
            [_config(seed=79), _config(seed=79, load=0.6)]
        )
        assert _wait_until(lambda: service.health()["cells_in_flight"] == 2)
        queued = service.submit([_config(seed=80), _config(seed=81)])
        assert service.health()["cells_in_flight"] == 4
        assert service.cancel(queued.job.job_id)
        assert service.health()["cells_in_flight"] == 2
        assert service.wait(busy.job.job_id, timeout_s=60.0)["state"] == DONE
        assert service.health()["cells_in_flight"] == 0
        job = service.table.get(queued.job.job_id)
        assert (job.state, job.started_s, job.results) == (
            "cancelled", None, None,
        )

    def test_one_pool_bounds_the_processes(self, service):
        """Three two-cell jobs at once share the one pool: never more
        than its two processes, and no respawn."""
        subs = [
            service.submit([_config(seed=90 + 2 * k), _config(seed=91 + 2 * k)])
            for k in range(3)
        ]
        peak = []

        def over():
            health = service.health()
            peak.append(max(health["cell_workers_alive"],
                            len(multiprocessing.active_children())))
            return service.table.counts().get(DONE, 0) == 3

        assert _wait_until(over, timeout_s=60.0)
        ends = self._finish(service, *subs)
        assert [end["state"] for end in ends] == [DONE] * 3
        assert max(peak) <= 2
        assert service.health()["cell_pool_spawns"] == 1

    def test_timeout_in_a_neighbour_is_retried_not_failed(
        self, service, monkeypatch
    ):
        """A's hung cell gets the workers killed while B's cells run on
        them; B's cells come back broken, run again, and B ends done
        with the records of a direct run."""
        monkeypatch.setenv("REPRO_TEST_SLEEP", "83:1.5")
        a = service.submit(
            [_config(seed=83), _config(seed=84)], cell_timeout_s=0.5,
        )
        b_configs = [_config(seed=83, load=0.6), _config(seed=85)]
        b = service.submit(b_configs)
        a_end, b_end = self._finish(service, a, b)
        assert a_end["state"] == FAILED
        assert "cell_timeout_s=0.5" in a_end["error"]
        assert b_end["state"] == DONE, b_end
        assert b_end["started_s"] < a_end["finished_s"]
        # The kill hit B mid-cell, and the pool respawned for B.
        assert service.health()["cell_pool_spawns"] == 2
        for served, config in zip(service.result(b.job.job_id), b_configs):
            direct = ResultSummary.from_result(run_experiment(config))
            assert served.stats.records == direct.stats.records
            assert served.sim_time_ns == direct.sim_time_ns
            assert served.events == direct.events

    def test_cancel_races_dispatch_without_a_stuck_job(self):
        """Threads submit and at once cancel, with a tiny switch
        interval: each job ends cancelled exactly when its cancel said
        so, else done, and no cell is left in flight."""
        service = ExperimentService(jobs=2, use_cache=False)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        outcomes = []
        try:

            def churn(first_seed):
                for seed in range(first_seed, first_seed + 3):
                    job = service.submit([_config(seed=seed, n_flows=2)]).job
                    outcomes.append((job.job_id, service.cancel(job.job_id)))

            threads = [
                threading.Thread(target=churn, args=(100 + 3 * n,))
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(outcomes) == 12
            for job_id, cancelled in outcomes:
                end = service.wait(job_id, timeout_s=60.0)
                assert end["state"] == (
                    "cancelled" if cancelled else DONE
                ), end
            assert _wait_until(
                lambda: service.health()["cells_in_flight"] == 0
            )
        finally:
            sys.setswitchinterval(switch)
            service.stop()

    def test_one_client_shared_by_threads(self, http_service):
        _, client = http_service
        job_id = client.submit([_config(seed=86)])["job_id"]
        errors = []

        def poll():
            try:
                for _ in range(50):
                    assert client.status(job_id)["job_id"] == job_id
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert client.wait(job_id, timeout_s=60.0)["state"] == DONE

    def test_client_reconnects_after_a_restart(self, http_service):
        service, client = http_service
        port = service.http_address[1]
        other = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=30.0)
        assert client.healthz()["ok"] and other.healthz()["ok"]
        service.stop_http()
        # Stopping closed the held connections: nothing answers on them.
        with pytest.raises(OSError):
            other.healthz()
        service.start_http(port=port)
        assert client.healthz()["ok"]
        other.close()


class TestKeepAlive:
    """The server answers on a reused connection without stalling and
    closes it when idle."""

    def test_reused_connection_does_not_stall(self, http_service):
        """With Nagle's algorithm on, each reply on a reused connection
        waited ~40 ms for a delayed ACK (headers and body go out in two
        sends)."""
        service, _ = http_service
        host, port = service.http_address
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        started = time.perf_counter()
        try:
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
        finally:
            connection.close()
        assert time.perf_counter() - started < 0.3

    def test_server_closes_an_idle_connection(self, service, monkeypatch):
        monkeypatch.setattr(_ServiceHandler, "timeout", 0.2)
        httpd = service.start_http(port=0)
        client = ServiceClient(
            f"http://127.0.0.1:{httpd.server_address[1]}", timeout_s=30.0
        )
        try:
            assert client.healthz()["ok"]
            assert httpd._connections
            assert _wait_until(lambda: not httpd._connections, timeout_s=5.0)
            assert client.healthz()["ok"]
        finally:
            client.close()


def test_daemon_stops_on_sigterm(tmp_path):
    """``kill`` of ``repro serve`` is Ctrl-C: exit 0, no worker process
    left, and the port — which forked workers inherit — free at once."""
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2"],
        stdout=subprocess.PIPE, text=True,
        env=child_env(REPRO_CACHE_DIR=str(tmp_path)),
    )
    try:
        banner = daemon.stdout.readline()
        port = int(banner.rsplit(":", 1)[1])
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=30.0)
        job = client.submit([_config(seed=1), _config(seed=2)])
        assert client.wait(job["job_id"], timeout_s=60.0)["state"] == DONE
        assert client.healthz()["cell_workers_alive"] == 2
        children = subprocess.run(
            ["pgrep", "-P", str(daemon.pid)], capture_output=True, text=True
        ).stdout.split()
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=5.0) == 0
    finally:
        daemon.kill()
        daemon.wait(timeout=5.0)
    for pid in children:
        assert not os.path.exists(f"/proc/{pid}")
    with socket.socket() as sock:
        # As a restarted daemon binds (http.server sets SO_REUSEADDR, so
        # connections in TIME_WAIT do not count): EADDRINUSE only if a
        # worker still holds the listening socket.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", port))
        sock.listen()


class TestHttpApi:
    def test_submit_status_result_roundtrip(self, http_service):
        service, client = http_service
        job = client.submit([_config(seed=1)])
        assert job["state"] == QUEUED
        final = client.wait(job["job_id"], timeout_s=60.0)
        assert final["state"] == DONE
        result = client.result(job["job_id"])
        assert len(result["cells"]) == 1
        cell = result["cells"][0]
        assert cell["flows"]["total"] == 10
        assert cell["percentile_estimators"]["p99"] == "exact"
        assert any(j["job_id"] == job["job_id"] for j in client.jobs())

    def test_dedup_over_http(self, http_service):
        _, client = http_service
        first = client.submit([_config(seed=1)])
        client.wait(first["job_id"], timeout_s=60.0)
        second = client.submit([_config(seed=1)])
        assert second["deduplicated"]
        assert second["job_id"] == first["job_id"]

    def test_backpressure_is_429(self, http_service, monkeypatch):
        from repro.serve import BackpressureError

        service, client = http_service
        # Wedge both cell processes on sleeping cells, then overfill.
        monkeypatch.setenv("REPRO_TEST_SLEEP", "901:3")
        client.submit([_config(seed=901), _config(seed=901, load=0.6)])
        with pytest.raises(BackpressureError) as excinfo:
            for seed in range(903, 903 + 8):
                client.submit([_config(seed=seed)])
        assert excinfo.value.status == 429

    def test_unknown_job_404(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-424242")
        assert excinfo.value.status == 404

    def test_unknown_key_inside_topology_is_400(self, http_service):
        """A stale key inside a section is a bad request that names the
        key, not a 500."""
        _, client = http_service
        config = _config().to_dict()
        config["topology"]["kind"] = "leaf-spine"
        with pytest.raises(ServiceError) as excinfo:
            client.submit([config])
        assert excinfo.value.status == 400
        assert "unknown topology keys: ['kind']" in excinfo.value.message

    @pytest.mark.parametrize("key, value, message", [
        ("lb", "no-such-scheme", "unknown load balancer 'no-such-scheme'"),
        ("scheduler", "heap", "unknown config keys: ['scheduler']"),
        ("n_flows", 2.5, "n_flows must be an integer, got 2.5"),
        ("load", "0.5", "load must be a number, got '0.5'"),
    ])
    def test_unknown_lb_or_config_key_is_400(self, http_service, key, value,
                                             message):
        """A scheme the service does not know, the engine key a config
        no longer has, or a field of the wrong type is refused at
        submit, not accepted and failed when the cell runs (nor answered
        with a 500)."""
        _, client = http_service
        config = _config().to_dict()
        config[key] = value
        with pytest.raises(ServiceError) as excinfo:
            client.submit([config])
        assert excinfo.value.status == 400
        assert message in excinfo.value.message

    @pytest.mark.parametrize("extra, message", [
        ({"bogus_key": 1}, "unknown submit keys: ['bogus_key']"),
        ({"jobs_per_cell": "two"}, "unknown submit keys: ['jobs_per_cell']"),
        ({"cell_timeout_s": -1}, "cell_timeout_s must be a positive number"),
        ({"cell_timeout_s": "soon"},
         "cell_timeout_s must be a positive number"),
        ({"priority": 1.7}, "priority must be an integer"),
    ])
    def test_malformed_submission_is_400(self, http_service, extra, message):
        """A body the service could not run is refused at the door, and
        no job is made."""
        service, _ = http_service
        host, port = service.http_address
        body = json.dumps({"configs": [_config().to_dict()], **extra})
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request("POST", "/submit", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            reply = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert message in reply["error"]
        assert service.table.snapshot() == []

    def test_healthz_and_metrics(self, http_service):
        _, client = http_service
        health = client.healthz()
        assert health["ok"]
        assert health["cells_in_flight"] == health["queue_depth"] == 0
        metrics = client.metrics()
        assert "jobs" in metrics
        assert metrics["queue_depth"] >= 0

    def test_sse_delivers_lifecycle_and_telemetry(self, http_service):
        """The SSE acceptance: a watched job's stream carries its
        lifecycle transitions and per-cell telemetry events, then ends
        when the job does."""
        service, client = http_service
        events = []
        started = threading.Event()

        def listen():
            # Unfiltered subscription must exist before the submit so
            # the 'submitted' event is not lost.
            for event in client.events(timeout_s=30.0):
                events.append(event)
                if event.get("kind") == "job" and event.get("state") in (
                    DONE,
                    FAILED,
                ):
                    return

        listener = threading.Thread(target=listen, daemon=True)
        listener.start()
        time.sleep(0.3)  # let the subscription attach
        job = client.submit([_config(seed=11)])
        client.wait(job["job_id"], timeout_s=60.0)
        listener.join(timeout=30.0)
        assert not listener.is_alive()
        kinds = {(e.get("kind"), e.get("event")) for e in events}
        assert ("job", "submitted") in kinds
        assert ("job", RUNNING) in kinds
        assert ("job", DONE) in kinds
        assert ("telemetry", "cell") in kinds
        cell = next(e for e in events if e.get("kind") == "telemetry")
        assert cell["job_id"] == job["job_id"]
        assert cell["mean_fct_ms"] is not None
