"""Tests for parallel grid execution and the on-disk result cache.

The contracts under test (see ``repro/experiments/pool.py`` and
``repro/experiments/parallel.py``):
determinism (parallel == serial, bit for bit), cache identity (a hit
returns exactly what the miss computed), cache-key sensitivity (any
config change means a different key), and cross-process RNG independence
(worker processes cannot perturb each other's seeded streams).
"""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import parallel, pool as cellpool
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ResultCache, cell_timeout, config_key
from repro.experiments.pool import CellPool, resolve_jobs, run_cell, run_cells
from repro.experiments.result import ResultSummary
from repro.faults.spec import link_down, link_up, schedule
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.sim.rng import RngStreams
from tests.conftest import child_env


def tiny_config(**overrides):
    defaults = dict(
        topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
        lb="ecmp",
        workload="web-search",
        load=0.4,
        n_flows=25,
        seed=1,
        size_scale=0.05,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def tiny_grid():
    return [
        tiny_config(lb=lb, seed=seed)
        for lb in ("ecmp", "letflow")
        for seed in (1, 2)
    ]


def _summaries_equal(a: ResultSummary, b: ResultSummary) -> bool:
    return (
        a.stats.records == b.stats.records
        and a.sim_time_ns == b.sim_time_ns
        and a.events == b.events
        and a.total_reroutes == b.total_reroutes
        and a.visibility_switch_pair == b.visibility_switch_pair
        and a.visibility_host_pair == b.visibility_host_pair
    )


def _rng_draws(seed: int):
    """Worker helper: a deterministic sample from two named streams.
    Module-level so the process pool can pickle it by reference."""
    streams = RngStreams(seed)
    return (
        [streams.get("workload").random() for _ in range(5)],
        [streams.get("letflow").random() for _ in range(5)],
    )


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        grid = tiny_grid()
        serial = run_cells(grid, jobs=1, use_cache=False)
        parallel_ = run_cells(grid, jobs=2, use_cache=False)
        for s, p in zip(serial, parallel_):
            assert s.stats.records == p.stats.records  # per-flow FCTs
            assert _summaries_equal(s, p)

    def test_summary_matches_in_process_run(self):
        config = tiny_config(seed=7)
        direct = run_experiment(config)
        summary = run_cells([config], jobs=2, use_cache=False)[0]
        assert summary.stats.records == direct.stats.records
        assert summary.events == direct.events
        assert summary.sim_time_ns == direct.sim_time_ns

    def test_results_in_input_order(self):
        grid = tiny_grid()
        results = run_cells(grid, jobs=2, use_cache=False)
        for config, summary in zip(grid, results):
            assert summary.config.lb == config.lb
            assert summary.config.seed == config.seed

    def test_summary_is_picklable(self):
        summary = run_cell(tiny_config(), use_cache=False)
        clone = pickle.loads(pickle.dumps(summary))
        assert _summaries_equal(summary, clone)


class TestCache:
    def test_hit_returns_identical_summary(self, tmp_path):
        config = tiny_config(seed=3)
        cold = run_cell(config, cache_dir=str(tmp_path))
        warm = run_cell(config, cache_dir=str(tmp_path))
        assert _summaries_equal(cold, warm)

    def test_hit_skips_simulation(self, tmp_path, monkeypatch):
        grid = tiny_grid()
        run_cells(grid, jobs=1, cache_dir=str(tmp_path))

        def boom(config):
            raise AssertionError("cache miss: simulation re-ran")

        monkeypatch.setattr(cellpool, "_run_cell", boom)
        run_cells(grid, jobs=1, cache_dir=str(tmp_path))  # must not raise

    def test_disabled_cache_writes_nothing(self, tmp_path):
        run_cell(tiny_config(), use_cache=False, cache_dir=str(tmp_path))
        assert ResultCache(str(tmp_path)).size() == 0

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05"],
        ids=["text", "pickle-opcode-prefix", "empty", "truncated"],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        config = tiny_config()
        cache = ResultCache(str(tmp_path))
        cold = run_cell(config, cache_dir=str(tmp_path))
        path = cache._path(config_key(config))
        with open(path, "wb") as fh:
            fh.write(garbage)
        again = run_cell(config, cache_dir=str(tmp_path))
        assert _summaries_equal(cold, again)

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_cell(tiny_config(), cache_dir=str(tmp_path))
        assert cache.size() == 1
        assert cache.clear() == 1
        assert cache.size() == 0

    def test_visibility_fields_survive_the_cache(self, tmp_path):
        config = tiny_config(visibility_sampling=True)
        cold = run_cell(config, cache_dir=str(tmp_path))
        warm = run_cell(config, cache_dir=str(tmp_path))
        assert cold.visibility_switch_pair is not None
        assert warm.visibility_switch_pair == cold.visibility_switch_pair
        assert warm.visibility_host_pair == cold.visibility_host_pair


class TestCachePrune:
    @staticmethod
    def _plant(cache, name, n_bytes, mtime):
        path = os.path.join(cache.directory, f"{name}.pkl")
        with open(path, "wb") as fh:
            fh.write(b"\0" * n_bytes)
        os.utime(path, (mtime, mtime))
        return path

    def test_total_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.total_bytes() == 0
        self._plant(cache, "a", 100, 1_000.0)
        self._plant(cache, "b", 250, 2_000.0)
        assert cache.total_bytes() == 350

    def test_prune_by_age(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._plant(cache, "old", 100, 1_000.0)
        self._plant(cache, "new", 200, 9_000.0)
        removed, reclaimed = cache.prune(max_age_s=5_000.0, now=10_000.0)
        assert (removed, reclaimed) == (1, 100)
        assert cache.size() == 1
        assert cache.total_bytes() == 200

    def test_prune_by_size_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._plant(cache, "oldest", 100, 1_000.0)
        self._plant(cache, "middle", 100, 2_000.0)
        self._plant(cache, "newest", 100, 3_000.0)
        removed, reclaimed = cache.prune(max_bytes=150)
        assert (removed, reclaimed) == (2, 200)
        survivors = [n for n in os.listdir(str(tmp_path)) if n.endswith(".pkl")]
        assert survivors == ["newest.pkl"]

    def test_prune_both_policies(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._plant(cache, "stale", 50, 1_000.0)
        self._plant(cache, "big", 400, 8_000.0)
        self._plant(cache, "keep", 100, 9_000.0)
        removed, reclaimed = cache.prune(
            max_bytes=100, max_age_s=5_000.0, now=10_000.0
        )
        assert (removed, reclaimed) == (2, 450)
        survivors = [n for n in os.listdir(str(tmp_path)) if n.endswith(".pkl")]
        assert survivors == ["keep.pkl"]

    def test_prune_noop_within_budget(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._plant(cache, "a", 100, 9_000.0)
        assert cache.prune(max_bytes=1_000, max_age_s=10_000.0, now=9_500.0) == (
            0,
            0,
        )
        assert cache.size() == 1

    def test_prune_real_entries_then_rerun_repopulates(self, tmp_path):
        config = tiny_config(seed=5)
        cache = ResultCache(str(tmp_path))
        cold = run_cell(config, cache_dir=str(tmp_path))
        assert cache.total_bytes() > 0
        removed, reclaimed = cache.prune(max_bytes=0)
        assert removed == 1 and reclaimed > 0
        assert cache.size() == 0
        warm = run_cell(config, cache_dir=str(tmp_path))
        assert _summaries_equal(cold, warm)
        assert cache.size() == 1


class TestCacheKey:
    def test_stable_across_identical_configs(self):
        assert config_key(tiny_config()) == config_key(tiny_config())

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2},
            {"load": 0.5},
            {"n_flows": 26},
            {"lb": "letflow"},
            {"workload": "data-mining"},
            {"size_scale": 0.06},
            {"time_scale": 0.5},
            {"transport": "tcp"},
            {"max_cwnd": 400.0},
            {"reorder_mask_us": 100.0},
            {"lb_params": {"flowlet_timeout_ns": 123}},
            {"hermes_overrides": {"probing_enabled": False}},
            {"extra_drain_ns": 1_000_000_000},
            {"visibility_sampling": True},
            {
                "faults": schedule(
                    link_down(1_000_000, leaf=0, spine=0),
                    link_up(2_000_000, leaf=0, spine=0),
                )
            },
            {
                "topology": bench_topology(
                    n_leaves=2, n_spines=2, hosts_per_leaf=3
                )
            },
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_any_field_change_changes_key(self, change):
        assert config_key(tiny_config(**change)) != config_key(tiny_config())

    def test_dict_order_does_not_change_key(self):
        a = tiny_config(lb_params={"a": 1, "b": 2})
        b = tiny_config(lb_params={"b": 2, "a": 1})
        assert config_key(a) == config_key(b)

    def test_key_embeds_code_version(self):
        assert config_key(tiny_config()).endswith(parallel.code_version())


class TestRngAcrossProcesses:
    def test_worker_streams_match_in_process_streams(self):
        seeds = [1, 2, 3, 4]
        with ProcessPoolExecutor(max_workers=2) as pool:
            worker = list(pool.map(_rng_draws, seeds))
        local = [_rng_draws(seed) for seed in seeds]
        assert worker == local

    def test_streams_independent_across_seeds(self):
        a, b = _rng_draws(1), _rng_draws(2)
        assert a[0] != b[0]
        assert a[1] != b[1]

    def test_named_streams_independent_of_each_other(self):
        workload, letflow = _rng_draws(1)
        assert workload != letflow


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestCellTimeoutParsing:
    def test_unset_means_no_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        assert cell_timeout() is None

    def test_seconds_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert cell_timeout() == 2.5

    @pytest.mark.parametrize("bad", ["soon", "-1", "0"])
    def test_garbage_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", bad)
        with pytest.raises(ValueError):
            cell_timeout()


class TestCrashTolerance:
    """A worker dying mid-cell (simulated with the ``REPRO_TEST_*``
    hooks, which only fire inside pool workers) must cost the grid
    nothing: the pool restarts, the poisoned cells re-run serially
    in-process, and every result matches a plain serial run."""

    def test_worker_crash_reruns_cell(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_SEED", "2")
        grid = tiny_grid()  # two cells carry seed 2 and kill their worker
        results = run_cells(grid, jobs=2, use_cache=False)
        assert all(r.error is None for r in results)
        monkeypatch.delenv("REPRO_TEST_CRASH_SEED")
        serial = run_cells(grid, jobs=1, use_cache=False)
        assert all(map(_summaries_equal, results, serial))

    def test_hung_cell_marked_failed_with_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SLEEP", "2:30")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2")
        configs = [tiny_config(seed=seed) for seed in (1, 2, 3)]
        results = run_cells(configs, jobs=2, use_cache=False)
        assert results[1].error is not None
        assert "REPRO_CELL_TIMEOUT=2" in results[1].error
        assert results[1].stats.records == []
        for healthy in (results[0], results[2]):
            assert healthy.error is None
            assert healthy.stats.records

    def test_budget_counts_from_the_cells_own_start(self, monkeypatch):
        """A slow sibling collected first lends the next cell none of
        its time: the hung cell's workers are killed within its budget
        (plus slack) of its own start, not of the collector reaching it
        (that used to be 1 s later here)."""
        monkeypatch.setenv("REPRO_TEST_SLEEP", "1:1,2:30")
        with CellPool(2) as pool:
            run_cells([tiny_config(seed=3)], use_cache=False, pool=pool)
            started = time.monotonic()  # both cells start at submit
            slow, hung = run_cells(
                [tiny_config(seed=1), tiny_config(seed=2)],
                use_cache=False, cell_timeout_s=1.5, pool=pool,
            )
            killed = time.monotonic() - started
        assert slow.error is None
        assert "cell_timeout_s=1.5" in hung.error
        assert killed < 1.5 + 0.5

    def test_failed_cells_never_cached(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TEST_SLEEP", "2:30")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2")
        configs = [tiny_config(seed=seed) for seed in (1, 2, 3)]
        run_cells(configs, jobs=2, cache_dir=str(tmp_path))
        cache = ResultCache(str(tmp_path))
        assert cache.size() == 2
        assert cache.get(configs[1]) is None


class TestCacheSelfHealing:
    def _poison(self, cache, config):
        path = cache._path(config_key(config))
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        return path

    def test_corrupt_entry_deleted_and_counted(self, tmp_path):
        config = tiny_config()
        cache = ResultCache(str(tmp_path))
        run_cell(config, cache_dir=str(tmp_path))
        path = self._poison(cache, config)
        assert cache.get(config) is None  # decode failure -> miss
        assert not os.path.exists(path), "corrupt entry must be evicted"
        assert cache.corruption_count() == 1
        # The next lookup is a clean miss, not another decode failure.
        assert cache.get(config) is None
        assert cache.corruption_count() == 1

    def test_healed_entry_recaches(self, tmp_path):
        config = tiny_config()
        cache = ResultCache(str(tmp_path))
        cold = run_cell(config, cache_dir=str(tmp_path))
        self._poison(cache, config)
        again = run_cell(config, cache_dir=str(tmp_path))  # heals + refills
        assert _summaries_equal(cold, again)
        assert cache.corruption_count() == 1
        assert cache.get(config) is not None

    def test_clear_resets_corruption_ledger(self, tmp_path):
        config = tiny_config()
        cache = ResultCache(str(tmp_path))
        run_cell(config, cache_dir=str(tmp_path))
        self._poison(cache, config)
        cache.get(config)
        assert cache.corruption_count() == 1
        cache.clear()
        assert cache.corruption_count() == 0

    def test_fresh_directory_counts_zero(self, tmp_path):
        assert ResultCache(str(tmp_path)).corruption_count() == 0


def _pid_running(pid: int) -> bool:
    """Alive and not a zombie, by ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _wait_until(predicate, timeout_s: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def _worker_pids(pool: CellPool):
    return [proc.pid for proc in pool._workers()]


class TestCellPool:
    """Workers that outlive a ``run_cells`` call: reuse must leak
    nothing between cells, and every way a held pool can go bad (a hung
    cell, a worker dying while idle) must end in a respawn, not in an
    error."""

    def test_reuse_is_bit_identical_to_serial(self):
        grids = [
            tiny_grid(),
            [tiny_config(lb="hermes", seed=seed) for seed in (3, 4, 5)],
            [tiny_config(lb="letflow", seed=6, load=0.6)],  # a lone miss
        ]
        with CellPool(2) as pool:
            for grid in grids:
                pooled = run_cells(grid, use_cache=False, pool=pool)
                serial = run_cells(grid, jobs=1, use_cache=False)
                assert all(map(_summaries_equal, pooled, serial))
            assert pool.spawns == 1
            assert pool.alive() == 2
        assert pool.alive() == 0

    def test_lone_miss_runs_in_a_worker_only_on_a_held_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SLEEP", "7:30")
        config = tiny_config(seed=7)
        # One-shot: a fork would buy nothing, the cell runs in-process
        # (where the hook is inert).
        assert run_cells([config], jobs=2, use_cache=False)[0].error is None
        with CellPool(2) as pool:
            # A held pool takes every miss, whatever ``jobs`` says: the
            # pool's width is the only one.
            for jobs in (None, 1, 2):
                held = run_cells(
                    [config], jobs=jobs, use_cache=False, cell_timeout_s=0.5,
                    pool=pool,
                )
                assert "cell_timeout_s=0.5" in held[0].error
            # Each timeout killed the workers; each next call respawned.
            assert pool.spawns == 3

    def test_all_cached_call_leaves_a_held_pool_alone(self, tmp_path):
        grid = tiny_grid()
        with CellPool(2) as pool:
            first = run_cells(grid, cache_dir=str(tmp_path), pool=pool)
            spawns = pool.spawns
            again = run_cells(grid, cache_dir=str(tmp_path), pool=pool)
            assert all(map(_summaries_equal, first, again))
            assert (pool.spawns, pool.in_flight) == (spawns, 0)

    @pytest.mark.parametrize("width", [0, -1])
    def test_width_is_checked_when_the_pool_is_built(self, width):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            CellPool(width)

    def test_discard_then_reuse(self):
        with CellPool(2) as pool:
            first = run_cells(tiny_grid(), use_cache=False, pool=pool)
            pool.discard()
            assert pool.alive() == 0
            pool.discard()  # nothing left to kill: a no-op
            again = run_cells(tiny_grid(), use_cache=False, pool=pool)
            assert all(map(_summaries_equal, first, again))
            assert pool.spawns == 2

    def test_idle_worker_death_costs_no_retry_round(self, monkeypatch):
        """A worker killed *between* calls: the next call finds the pool
        broken at submit time, respawns it on the spot and still has
        both retry rounds — which the crash-seed cell of that same call
        then uses up before completing in-process."""
        rounds = []
        real_round = cellpool.CellRun._submit

        def counting_round(*args):
            rounds.append(1)
            return real_round(*args)

        in_process = []

        def recording_run(config):
            # Workers are forked with this wrapper in place, but their
            # appends land in their own memory: the list shows only the
            # cells this process simulated itself.
            in_process.append(config.seed)
            return run_experiment(config)

        monkeypatch.setattr(cellpool.CellRun, "_submit", counting_round)
        monkeypatch.setattr(cellpool, "run_experiment", recording_run)
        with CellPool(2) as pool:
            run_cells(tiny_grid(), use_cache=False, pool=pool)
            os.kill(_worker_pids(pool)[0], signal.SIGKILL)
            # The executor notices on its own; the survivor goes too.
            assert _wait_until(lambda: pool.alive() == 0)
            del rounds[:], in_process[:]

            grid = [tiny_config(seed=seed) for seed in (11, 12, 13)]
            results = run_cells(grid, use_cache=False, pool=pool)
            assert all(r.error is None for r in results)
            assert (len(rounds), in_process, pool.spawns) == (1, [], 2)

            del rounds[:]
            monkeypatch.setenv("REPRO_TEST_CRASH_SEED", "22")
            os.kill(_worker_pids(pool)[0], signal.SIGKILL)
            assert _wait_until(lambda: pool.alive() == 0)
            grid = [tiny_config(seed=seed) for seed in (21, 22, 23)]
            results = run_cells(grid, use_cache=False, pool=pool)
            assert all(r.error is None and r.stats.records for r in results)
            assert len(rounds) == cellpool.MAX_POOL_ROUNDS
            assert 22 in in_process  # the serial fallback, and only then
            # Idle death, then one respawn per round the crash broke.
            assert pool.spawns == 2 + 1 + cellpool.MAX_POOL_ROUNDS - 1

    def test_in_flight_is_exact_when_threads_share_the_pool(self):
        """Eight threads submit to and collect from one pool with a
        tiny switch interval: a lost update to the count of cells in
        flight would leave it off zero, and dispatch stuck."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        low = []
        try:
            with CellPool(2) as pool:

                def hammer(seed):
                    for _ in range(10):
                        futures = pool.submit(_rng_draws, [seed, seed + 1])
                        for future in futures:
                            assert future.result(timeout=30.0)
                        low.append(pool.in_flight)

                threads = [
                    threading.Thread(target=hammer, args=(seed,))
                    for seed in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert len(low) == 80 and min(low) >= 0
                assert pool.in_flight == 0
                assert pool.spawns == 1
        finally:
            sys.setswitchinterval(switch)

    def test_priority_order_fifo_within(self):
        """Waiting cells leave the pool's queue highest priority first,
        and in submission order within a priority."""
        with CellPool(1) as pool:
            pool.submit(time.sleep, [0.5])  # holds the one worker
            low1 = pool.submit(_rng_draws, [1])[0]
            high = pool.submit(_rng_draws, [2], priority=5)[0]
            low2 = pool.submit(_rng_draws, [3])[0]
            assert pool.in_flight == 4
            for cell in (low1, high, low2):
                assert cell.result(timeout=30.0)
            assert high.started_at < low1.started_at < low2.started_at

    def test_close_is_idempotent_and_final(self):
        pool = CellPool(2)
        run_cells(tiny_grid(), use_cache=False, pool=pool)
        pids = _worker_pids(pool)
        pool.close()
        pool.close()
        assert pool.alive() == 0
        assert not any(map(_pid_running, pids))
        with pytest.raises(RuntimeError, match="closed"):
            run_cells(tiny_grid(), use_cache=False, pool=pool)
        CellPool(2).close()  # never used: nothing to shut down

    def test_one_shot_call_leaves_no_child_behind(self):
        run_cells(tiny_grid(), jobs=2, use_cache=False)
        assert multiprocessing.active_children() == []


_ORPHAN_SCRIPT = """
import multiprocessing, threading, time
from repro.experiments import pool
from tests.test_parallel import tiny_config

def report():
    time.sleep(1.0)  # run_cells has spawned its workers by now
    print(*[p.pid for p in multiprocessing.active_children()], flush=True)

threading.Thread(target=report, daemon=True).start()
pool.run_cells(
    [tiny_config(seed=s) for s in (1, 2)], jobs=2, use_cache=False
)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_die_with_a_sigkilled_parent():
    """``kill -9`` of a process inside ``run_cells(jobs=2)`` used to
    leave both workers asleep on their call queue forever, holding every
    descriptor they inherited."""
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        stdout=subprocess.PIPE, text=True,
        env=child_env(REPRO_TEST_SLEEP="1:60"),
    )
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(workers) == 2 and all(map(_pid_running, workers))
    finally:
        parent.kill()
        parent.wait(timeout=5)
    try:
        assert _wait_until(lambda: not any(map(_pid_running, workers)))
    finally:
        for pid in workers:  # at the parent commit they would outlive us
            if _pid_running(pid):
                os.kill(pid, signal.SIGKILL)
