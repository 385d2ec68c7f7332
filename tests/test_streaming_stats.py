"""StreamingFctStats: collector semantics + experiment integration.

Two layers under test:

* the collector itself — exact counters, the percentile path (kept
  FCTs up to ``EXACT_LIMIT`` finished flows, equal to ``FctStats``; a
  t-digest fed the same FCTs in the same order beyond), JSON round
  trip, and the bounded-memory guarantee at million-flow scale;
* the runner wiring — ``streaming_stats=True`` runs the same simulation
  (bit-identical aggregate results on the golden grid) while retaining
  no per-flow records, auto-mode flips at ``STREAMING_AUTO_FLOWS``, and
  ``save_result``/``load_result`` round-trip the streaming state.
"""

from __future__ import annotations

import dataclasses
import io
import math
import random

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ResultSummary, run_cells
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.metrics.fct import FctStats, FlowRecord
from repro.metrics.streaming import (
    EXACT_LIMIT,
    STREAMING_AUTO_FLOWS,
    StreamingFctStats,
)
from repro.metrics.tdigest import COMPRESSION, TDigest


def _records(n, seed=1, unfinished_every=50):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        size = rng.choice([2_000, 50_000, 500_000, 20_000_000])
        fct = (
            None
            if unfinished_every and i % unfinished_every == 7
            else int(rng.lognormvariate(13.0, 1.5))
        )
        records.append(
            FlowRecord(
                flow_id=i,
                src=0,
                dst=1,
                size_bytes=size,
                start_ns=i,
                fct_ns=fct,
                retransmissions=rng.randrange(3),
                timeouts=rng.randrange(2),
            )
        )
    return records


class TestCollector:
    def test_exact_aggregates_match_fctstats(self):
        records = _records(3_000)
        exact = FctStats(records)
        streaming = StreamingFctStats()
        for record in records:
            streaming.add_record(record)
        assert streaming.count == exact.count
        assert streaming.finished_count == exact.finished_count
        assert streaming.unfinished_count == exact.unfinished_count
        assert streaming.unfinished_fraction == exact.unfinished_fraction
        assert streaming.mean_ms(10**9) == exact.mean_ms(10**9)
        # Below EXACT_LIMIT every bucket keeps its FCTs: means (exact
        # sums) and percentiles (the same function) are equal, not
        # approximate.
        for mine, theirs in (
            (streaming, exact),
            (streaming.small, exact.small),
            (streaming.large, exact.large),
        ):
            assert mine.finished_count <= EXACT_LIMIT
            assert mine.estimators() == {"p50": "exact", "p99": "exact"}
            assert mine.mean_ms() == theirs.mean_ms()
            assert mine.median_ms() == theirs.median_ms()
            assert mine.p99_ms() == theirs.p99_ms()
        assert (
            streaming.total_retransmissions() == exact.total_retransmissions()
        )

    def test_estimator_of_record_switches(self):
        streaming = StreamingFctStats()
        for record in _records(100, unfinished_every=0):
            streaming.add_record(record)
        # 100 finished flows: the collector still keeps every FCT.
        assert streaming.estimators() == {"p50": "exact", "p99": "exact"}
        exact = FctStats(_records(100, unfinished_every=0))
        assert streaming.median_ms() == exact.median_ms()
        assert streaming.p99_ms() == exact.p99_ms()
        for record in _records(EXACT_LIMIT + 100, seed=2):
            streaming.add_record(record)
        assert streaming.estimators() == {"p50": "tdigest", "p99": "tdigest"}

    def test_handover_at_exact_limit(self):
        """Exact through the EXACT_LIMIT-th finished flow, t-digest from
        the next one on — and the digest is the one a TDigest fed the
        same FCTs in the same order builds, whatever bucket it is."""
        rng = random.Random(5)
        fcts = [int(rng.lognormvariate(13.0, 1.5)) for _ in range(EXACT_LIMIT + 600)]
        streaming = StreamingFctStats()
        for i, fct in enumerate(fcts[:EXACT_LIMIT]):
            streaming.add(2_000, fct)
            if i % 97 == 0:
                streaming.add(2_000, None)  # unfinished: not counted
        assert streaming.small.finished_count == EXACT_LIMIT
        assert streaming.estimators() == {"p50": "exact", "p99": "exact"}
        assert streaming.small.estimators() == {"p50": "exact", "p99": "exact"}
        assert streaming.large.estimators() == {"p50": "none", "p99": "none"}
        truth = FctStats(
            FlowRecord(i, 0, 1, 2_000, i, fct)
            for i, fct in enumerate(fcts[:EXACT_LIMIT])
        )
        assert streaming.p99_ms() == truth.p99_ms()
        assert streaming.small.median_ms() == truth.median_ms()

        streaming.add(2_000, fcts[EXACT_LIMIT])
        assert streaming.estimators() == {"p50": "tdigest", "p99": "tdigest"}
        assert streaming.small.estimators() == {"p50": "tdigest", "p99": "tdigest"}
        for fct in fcts[EXACT_LIMIT + 1:]:
            streaming.add(2_000, fct)
        reference = TDigest()
        reference.extend(float(fct) for fct in fcts)
        assert streaming._digest.to_dict() == reference.to_dict()
        assert streaming.small._digest.to_dict() == reference.to_dict()
        assert streaming.p99_ms() == reference.quantile(0.99) / 1e6

    def test_percentiles_within_one_percent_at_scale(self):
        records = _records(60_000, unfinished_every=0)
        exact = FctStats(records)
        streaming = StreamingFctStats()
        for record in records:
            streaming.add_record(record)
        for estimate, truth in (
            (streaming.median_ms(), exact.median_ms()),
            (streaming.p99_ms(), exact.p99_ms()),
        ):
            assert abs(estimate - truth) / truth < 0.01

    def test_empty_collector(self):
        streaming = StreamingFctStats()
        assert math.isnan(streaming.mean_ms())
        assert math.isnan(streaming.median_ms())
        assert streaming.quantile_ns(50.0) == (None, "none")
        assert streaming.estimators() == {"p50": "none", "p99": "none"}
        assert streaming.records == ()

    def test_subset_unsupported(self):
        with pytest.raises(NotImplementedError):
            StreamingFctStats().subset(lambda r: True)

    def test_json_round_trip(self):
        import json

        streaming = StreamingFctStats()
        for record in _records(5_000):
            streaming.add_record(record)
        doc = json.loads(json.dumps(streaming.to_dict()))
        restored = StreamingFctStats.from_dict(doc)
        assert restored.to_dict() == streaming.to_dict()
        assert restored.count == streaming.count
        assert restored.mean_ms() == streaming.mean_ms()
        assert restored.p99_ms() == streaming.p99_ms()
        assert restored.small.mean_ms() == streaming.small.mean_ms()

    def test_million_flows_bounded_memory(self):
        """The acceptance bar: a million FCTs stream through in
        O(centroids) retained items — about four decades below the
        flow count — with p50/p99 within 1% of exact."""
        rng = random.Random(1)
        streaming = StreamingFctStats()
        values = []
        for _ in range(1_000_000):
            fct = int(rng.lognormvariate(13.0, 1.6))
            values.append(fct)
            streaming.add(50_000, fct)
        assert streaming.count == 1_000_000
        # 3 collectors x digest (buffer + centroids), both capped.
        budget = 3 * (4 * COMPRESSION + 2 * COMPRESSION)
        assert streaming.memory_items() <= budget
        from repro.metrics.fct import percentile

        values.sort()
        for q, estimate in (
            (50.0, streaming.median_ms()),
            (99.0, streaming.p99_ms()),
        ):
            truth = percentile(values, q) / 1e6
            assert abs(estimate - truth) / truth < 0.01


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def topo(self):
        return bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4)

    def _config(self, topo, **kwargs):
        base = dict(
            topology=topo,
            lb="hermes",
            workload="web-search",
            load=0.5,
            n_flows=40,
            seed=1,
            size_scale=0.05,
            time_scale=0.05,
        )
        base.update(kwargs)
        return ExperimentConfig(**base)

    def test_streaming_run_matches_exact_run(self, topo):
        """Same simulation either way: aggregate statistics identical to
        the exact collector's (the golden-grid guarantee, one cell)."""
        exact = run_experiment(self._config(topo, streaming_stats=False))
        streaming = run_experiment(self._config(topo, streaming_stats=True))
        assert streaming.stats.is_streaming
        assert not exact.stats.is_streaming
        assert streaming.events == exact.events
        assert streaming.sim_time_ns == exact.sim_time_ns
        assert streaming.stats.count == exact.stats.count
        assert streaming.stats.finished_count == exact.stats.finished_count
        assert streaming.stats.mean_ms() == exact.stats.mean_ms()
        # 40 flows → every FCT is kept → percentiles equal too.
        assert streaming.stats.p99_ms() == exact.stats.p99_ms()
        # No per-flow state retained anywhere.
        assert streaming.stats.records == ()
        assert streaming.fabric is not None
        assert len(streaming.fabric.flows) == 0

    def test_eviction_defers_until_stragglers_drain(self, topo):
        """Regression: at higher load and flow counts, finished hermes
        flows still receive stragglers (a retransmitted segment must
        elicit its dup ACK).  Naive evict-on-finish swallowed those and
        changed the event count; quiescence-aware eviction must not."""
        config = self._config(
            topo, load=0.7, n_flows=200, size_scale=0.1, time_scale=0.1
        )
        exact = run_experiment(dataclasses.replace(config, streaming_stats=False))
        stream = run_experiment(dataclasses.replace(config, streaming_stats=True))
        assert stream.events == exact.events
        assert stream.sim_time_ns == exact.sim_time_ns
        assert stream.stats.count == exact.stats.count
        assert stream.stats.finished_count == exact.stats.finished_count
        assert stream.stats.mean_ms() == pytest.approx(
            exact.stats.mean_ms(), rel=1e-12
        )
        assert len(stream.fabric.flows) == 0

    def test_auto_mode_thresholds(self, topo):
        below = self._config(topo, n_flows=100)
        at = dataclasses.replace(below, n_flows=STREAMING_AUTO_FLOWS)
        assert not below.streaming_enabled()
        assert at.streaming_enabled()
        assert self._config(
            topo, n_flows=100, streaming_stats=True
        ).streaming_enabled()
        assert not dataclasses.replace(
            at, streaming_stats=False
        ).streaming_enabled()

    def test_summary_records_estimators(self, topo):
        streaming, exact = run_cells(
            [
                self._config(topo, streaming_stats=True),
                self._config(topo, streaming_stats=False),
            ],
            jobs=1,
            use_cache=False,
        )
        assert streaming.percentile_estimators == {
            "p50": "exact",
            "p99": "exact",
        }
        assert exact.percentile_estimators == {"p50": "exact", "p99": "exact"}

    def test_save_load_round_trip(self, topo):
        from repro.api import load_result, save_result

        result = run_experiment(self._config(topo, streaming_stats=True))
        buffer = io.StringIO()
        save_result(ResultSummary.from_result(result), buffer)
        buffer.seek(0)
        loaded = load_result(buffer)
        assert loaded.stats.is_streaming
        assert loaded.stats.count == result.stats.count
        assert loaded.stats.mean_ms() == result.stats.mean_ms()
        assert loaded.stats.p99_ms() == result.stats.p99_ms()
        assert loaded.percentile_estimators["p99"] == "exact"
        assert loaded.config == result.config

    def test_streaming_is_part_of_cache_key(self, topo):
        from repro.experiments.parallel import config_key

        exact_cfg = self._config(topo, streaming_stats=False)
        stream_cfg = self._config(topo, streaming_stats=True)
        assert config_key(exact_cfg) != config_key(stream_cfg)
