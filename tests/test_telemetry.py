"""Tests for the repro.telemetry observability layer."""

from __future__ import annotations

import json
import os

import pytest

from repro.hooks import attach
from repro.lb.factory import install_lb
from repro.net.packet import Packet, PacketKind
from repro.telemetry import Telemetry
from repro.telemetry.audit import DecisionAudit
from repro.telemetry.export import (
    explain_flow,
    perfetto_trace,
    read_jsonl,
    summarize_audit,
    summarize_events,
    write_csv,
    write_jsonl,
    write_perfetto,
)
from repro.telemetry.series import LoopProfiler, PeriodicSampler, QueueSampler
from repro.telemetry.tracer import EventTracer
from repro.transport.dctcp import DctcpFlow
from repro.transport.tcp import MSS
from tests.conftest import make_fabric


def attach_telemetry(fabric, scheme=None):
    """Wire a fresh :class:`Telemetry` into ``fabric``, as a traced run
    does once its scheme is installed."""
    telemetry = Telemetry(fabric.sim)
    attach(
        fabric,
        tracer=telemetry.tracer,
        audit=telemetry.audit,
        profiler=telemetry.profiler,
        scheme=scheme,
    )
    return telemetry


def traced_fabric(lb=None):
    fabric = make_fabric()
    scheme = install_lb(fabric, lb) if lb is not None else None
    return fabric, attach_telemetry(fabric, scheme)


class TestEventTracer:
    def test_records_full_packet_lifecycle(self):
        fabric, telemetry = traced_fabric("ecmp")
        flow = DctcpFlow(fabric, 0, 2, MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=10_000_000)
        kinds = telemetry.tracer.counts_by_kind()
        assert kinds["flow_start"] == 1
        assert kinds["flow_finish"] == 1
        assert kinds["send"] >= 2  # data + ack
        assert kinds["hop"] >= 2
        assert kinds["deliver"] >= 2
        finish = [
            r for r in telemetry.tracer.events if r.kind == "flow_finish"
        ]
        assert finish[0].note.startswith("fct_ns=")

    def test_drop_records_carry_reason_and_port(self):
        fabric, telemetry = traced_fabric()
        port = fabric.topology.all_ports()[0]
        port.add_drop_predicate(lambda packet, now: True)
        packet = Packet(0, 0, 2, 0, 1500, PacketKind.DATA, path_id=0)
        fabric.send(packet)
        drops = [r for r in telemetry.tracer.events if r.kind == "drop"]
        assert len(drops) == 1
        assert drops[0].note == "injected"
        assert drops[0].port == port.name

    def test_ring_buffer_bounds_memory(self, sim):
        tracer = EventTracer(sim, capacity=5)

        class FakeFlow:
            flow_id = 9
            src = 0
            dst = 1
            size_bytes = 100
            fct_ns = None

        for _ in range(12):
            tracer.on_flow_start(FakeFlow())
        assert len(tracer.events) == 5
        assert tracer.recorded == 12
        assert tracer.evicted == 7
        assert tracer.truncated
        # Eviction-independent counts still see everything.
        assert tracer.counts_by_kind()["flow_start"] == 12

    def test_paths_used_and_deliveries(self):
        fabric, telemetry = traced_fabric("drb")
        flow = DctcpFlow(fabric, 0, 2, 20 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=10_000_000)
        assert sorted(telemetry.tracer.paths_used(flow.flow_id)) == [0, 1]
        assert telemetry.tracer.deliveries(flow.flow_id) > 0


class TestPeriodicSampler:
    def test_stop_cancels_pending_tick(self, sim):
        sampler = QueueSampler(sim, [], period_ns=1_000)
        sampler.start()
        assert sim.pending == 1
        sampler.stop()
        # The cancelled tick is skipped, never fired, and the queue
        # drains completely — the old sampler left a live event behind.
        assert sim.run() == 0
        assert sim.pending == 0

    def test_start_after_stop_single_tick_chain(self, sim):
        ticks = []

        class Counting(PeriodicSampler):
            def sample(self, now):
                ticks.append(now)

        sampler = Counting(sim, 1_000)
        sampler.start()
        sampler.stop()
        sampler.start()
        sampler.start()  # idempotent while running
        sim.run(until=5_500)
        assert ticks == [1_000, 2_000, 3_000, 4_000, 5_000]

    def test_queue_sampler_statistics(self, sim):
        class FakePort:
            name = "p"
            backlog_bytes = 0

        port = FakePort()
        sampler = QueueSampler(sim, [port], period_ns=100)
        sampler.start()

        def load(value):
            port.backlog_bytes = value

        for i, value in enumerate((100, 300, 200)):
            sim.schedule(50 + i * 100, load, value)
        sim.run(until=350)
        assert sampler.max_backlog("p") == 300
        assert sampler.mean_backlog("p") == pytest.approx(200.0)
        assert sampler.stddev_backlog("p") == pytest.approx(100.0)

    def test_collector_shim_import_is_hard_error(self):
        """The PR-6 compatibility shim is gone: importing
        ``repro.metrics.collector`` is a plain ImportError (the samplers
        live in telemetry.series; in-repo callers are all migrated)."""
        import importlib
        import sys

        sys.modules.pop("repro.metrics.collector", None)
        with pytest.raises(ImportError):
            importlib.import_module("repro.metrics.collector")

    def test_loop_profiler_counts_by_kind(self, sim):
        profiler = LoopProfiler(sim, slab_ns=1_000)
        sim._profiler = profiler

        def noop():
            pass

        for i in range(6):
            sim.schedule(100 * (i + 1), noop)
        sim.run()
        assert profiler.events == 6
        (name, count), = profiler.top_kinds(1)
        assert "noop" in name
        assert count == 6
        assert profiler.summary()["events"] == 6

    def test_loop_profiler_follows_posted_events_and_times_them(self):
        """Posted callbacks have no Event; the profiler is handed the
        callable.  Kinds keep their names, the count is the engine's, and
        the sampled nanoseconds are a share of the wall clock."""
        fabric, telemetry = traced_fabric("ecmp")
        flow = DctcpFlow(fabric, 0, 2, 300 * MSS)
        fabric.register_flow(flow)
        # Lose the tail segment once: nothing follows it to raise
        # duplicate ACKs, so only the retransmission timer recovers it.
        fabric.topology.host_up[0].add_drop_predicate(
            lambda packet, now: packet.seq == 299 and now < 1_000_000
        )
        flow.start()
        fabric.sim.run(until=100_000_000)
        assert flow.finished and flow.timeout_count == 1
        profiler = telemetry.profiler
        summary = profiler.summary()
        assert summary["events"] == profiler.events == fabric.sim.events_fired
        by_kind = profiler.by_kind
        assert sum(by_kind.values()) == profiler.events
        assert by_kind["OutputPort._tx_done"] == by_kind["Fabric.forward"] > 1_000
        assert by_kind["TcpFlow._on_rto"] == 1
        ns_by_kind = summary["ns_by_kind"]
        assert set(ns_by_kind) <= set(by_kind)
        assert {"OutputPort._tx_done", "Fabric.forward"} <= set(ns_by_kind)
        assert all(ns > 0 for ns in ns_by_kind.values())
        # Sample windows are disjoint stretches of the profiler's own
        # lifetime, one event in SAMPLE_EVERY: they cannot add up to more
        # than wall_s (the test's setup and idle time are in there too),
        # and scaled up they should not be a vanishing part of it.
        wall_ns = summary["wall_s"] * 1e9
        sampled_ns = sum(ns_by_kind.values())
        assert sampled_ns <= wall_ns
        assert sampled_ns * summary["sample_every"] >= 0.05 * wall_ns


class TestDecisionAudit:
    def run_hermes(self, n_flows=8):
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        telemetry = attach_telemetry(fabric, shared)
        flows = []
        for i in range(n_flows):
            flow = DctcpFlow(fabric, i % 2, 2 + i % 2, 10 * MSS)
            fabric.register_flow(flow)
            flows.append(flow)
            flow.start()
        fabric.sim.run(until=50_000_000)
        return fabric, telemetry, flows

    def test_every_flow_gets_a_new_flow_decision(self):
        _, telemetry, flows = self.run_hermes()
        for flow in flows:
            decisions = telemetry.audit.decisions(flow.flow_id)
            assert decisions
            assert decisions[0].reason == "new-flow"
            assert decisions[0].path == -1

    def test_why_left_names_reason_and_thresholds(self):
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        telemetry = attach_telemetry(fabric, shared)
        flow = DctcpFlow(fabric, 0, 2, 400 * MSS)
        fabric.register_flow(flow)
        flow.start()
        # Force a failure evacuation: fail the flow's first path mid-run.
        def fail_current():
            state = shared.leaf_states[0]
            state.mark_failed(1, flow.current_path)

        fabric.sim.schedule(30_000, fail_current)
        fabric.sim.run(until=50_000_000)
        moved = telemetry.audit.why_left(flow.flow_id, 0) or \
            telemetry.audit.why_left(flow.flow_id, 1)
        assert moved
        assert moved[0].reason in ("failed-path", "timeout", "congested-moved")
        # The mark itself was audited as a verdict flip, with its hold time.
        failures = [
            r for r in telemetry.audit.path_events() if r.category == "verdict"
        ]
        assert failures and failures[0].reason == "up->down (explicit)"
        assert failures[0].detail["detector"] == "hermes"
        assert "hold_ns" in failures[0].detail["note"]

    def test_path_class_transitions_carry_thresholds(self):
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        telemetry = attach_telemetry(fabric, shared)
        state = shared.leaf_states[0]
        # Drive one path's EWMAs into congested territory by hand.
        for _ in range(60):
            state.record_signal(1, 0, True, 1_000_000)
        state.classify(1, 0)
        transitions = [
            r
            for r in telemetry.audit.path_events(dst_leaf=1, path=0)
            if r.category == "path_class"
        ]
        assert transitions
        last = transitions[-1]
        assert last.reason.endswith("->congested")
        for key in ("f_ecn", "rtt_ns", "t_ecn", "t_rtt_low_ns", "t_rtt_high_ns"):
            assert key in last.detail

    def test_explain_flow_renders_lines(self):
        _, telemetry, flows = self.run_hermes()
        lines = telemetry.audit.explain_flow(flows[0].flow_id)
        assert lines
        assert "new-flow" in lines[0]

    def test_audit_ring_is_bounded(self, sim):
        audit = DecisionAudit(sim, capacity=3)
        for i in range(10):
            audit.on_decision(i, 0, 1, "new-flow", -1, 0)
        assert len(audit.records) == 3
        assert audit.evicted == 7
        assert audit.summary()["decisions_by_reason"]["new-flow"] == 10


class TestExport:
    def run_traced(self):
        fabric, telemetry = traced_fabric("ecmp")
        flow = DctcpFlow(fabric, 0, 2, 10 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=10_000_000)
        return telemetry

    def test_jsonl_roundtrip(self, tmp_path):
        telemetry = self.run_traced()
        path = str(tmp_path / "events.jsonl")
        written = write_jsonl(path, telemetry.tracer.iter_dicts())
        back = list(read_jsonl(path))
        assert written == len(back) == len(telemetry.tracer.events)
        assert back[0] == telemetry.tracer.events[0].to_dict()

    def test_csv_export(self, tmp_path):
        telemetry = self.run_traced()
        path = str(tmp_path / "events.csv")
        rows = write_csv(path, telemetry.tracer.iter_dicts())
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == rows + 1  # header
        assert lines[0].startswith("t,kind,flow")

    def test_perfetto_structure(self, tmp_path):
        telemetry = self.run_traced()
        path = str(tmp_path / "trace.json")
        write_perfetto(
            path,
            telemetry.tracer.iter_dicts(),
            telemetry.audit.iter_dicts(),
            meta={"lb": "ecmp"},
        )
        doc = json.load(open(path))
        assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        # Metadata, instants and flow spans; no counter tracks.
        assert phases == {"M", "i", "b", "e"}
        spans_b = [e for e in events if e["ph"] == "b"]
        spans_e = [e for e in events if e["ph"] == "e"]
        assert len(spans_b) == len(spans_e) == 1
        assert spans_b[0]["id"] == spans_e[0]["id"]
        for event in events:
            if event["ph"] != "M":
                assert isinstance(event["ts"], float)

    def test_summaries_and_explain_over_dicts(self):
        telemetry = self.run_traced()
        events = summarize_events(telemetry.tracer.iter_dicts())
        assert events["records"] == len(telemetry.tracer.events)
        assert events["flows_seen"] >= 1
        audit = summarize_audit(
            [{"category": "decision", "reason": "new-flow"}]
        )
        assert audit["decisions_by_reason"] == {"new-flow": 1}
        lines = explain_flow(
            [
                {
                    "category": "decision",
                    "flow": 3,
                    "t": 10,
                    "path": 0,
                    "new_path": 1,
                    "reason": "congested-moved",
                    "detail": {"delta_ecn": 0.05},
                }
            ],
            3,
        )
        assert lines == [
            "t=10ns flow 3: congested-moved: path 0 -> 1 (delta_ecn=0.05)"
        ]

    def test_summary_counts_detector_verdict_flips(self):
        """``repro trace summarize`` used to skip ``verdict`` rows: a
        traced BFD run had its flips in the JSONL and none in the
        summary."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment
        from repro.experiments.scenarios import bench_topology
        from repro.faults.spec import link_down, schedule

        result = run_experiment(ExperimentConfig(
            topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4),
            lb="ecmp", detector="bfd", trace=True, n_flows=20, seed=2,
            size_scale=0.2,
            faults=schedule(link_down(1_000_000, leaf=0, spine=0)),
        ))
        flips = summarize_audit(result.telemetry.audit.iter_dicts())[
            "verdict_flips"
        ]
        assert flips.get("up->down (bfd-timeout)", 0) >= 1


class TestCli:
    def test_trace_run_summarize_export(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "trace")
        assert main([
            "trace", "run", "--lb", "ecmp", "--flows", "10",
            "--size-scale", "0.05", "--time-scale", "0.05",
            "--out", out, "--flow", "0",
        ]) == 0
        for name in ("events.jsonl", "audit.jsonl", "perfetto.json",
                     "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        doc = json.load(open(os.path.join(out, "perfetto.json")))
        assert doc["traceEvents"]

        assert main(["trace", "summarize", "--dir", out]) == 0
        report = capsys.readouterr().out
        assert '"flows_seen": 10' in report

        csv_out = str(tmp_path / "events.csv")
        assert main([
            "trace", "export", "--dir", out, "--format", "csv",
            "--out", csv_out,
        ]) == 0
        assert os.path.exists(csv_out)
