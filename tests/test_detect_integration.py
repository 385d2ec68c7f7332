"""End-to-end tests for the detection plane through the experiment
runner: detection-latency ordering, passive bit-identity, probe-loss
accounting, flap suppression under a real fault schedule, and
serial/parallel determinism with a detector attached.

Shapes are kept small (2x2 fabric, 60 flows) with *unscaled* time
(``time_scale=1.0``) so detection timers keep their literal meaning:
the transport RTO floor is 10 ms and the default BFD session detects
in 300 us — the latency gap under test is physical, not an artifact of
scaling.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.detect import Detector
from repro.detect.base import HERMES_PROBE_FLOW_ID
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.faults.spec import (
    blackhole_off,
    blackhole_on,
    flap,
    link_down,
    link_up,
    random_drop_start,
    schedule,
)
from repro.lb.factory import install_lb
from repro.net.packet import PacketKind
from tests.conftest import make_fabric

MS = 1_000_000

FAULTS = schedule(
    link_down(5 * MS, leaf=0, spine=0),
    link_up(20 * MS, leaf=0, spine=0),
)


def _config(**overrides) -> ExperimentConfig:
    defaults = dict(
        topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4),
        lb="ecmp",
        workload="web-search",
        load=0.5,
        n_flows=60,
        seed=2,
        size_scale=0.2,
        extra_drain_ns=15 * MS,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestDetectionLatency:
    def test_bfd_detects_an_order_of_magnitude_before_transport(self):
        transport = run_experiment(_config(detector="transport",
                                           faults=FAULTS))
        bfd = run_experiment(_config(detector="bfd", faults=FAULTS))
        t_ns = transport.detector_metrics["detection_ns"]
        b_ns = bfd.detector_metrics["detection_ns"]
        assert t_ns is not None and b_ns is not None
        # The ISSUE's acceptance bar: BFD >= 10x faster on link_down.
        assert b_ns * 10 <= t_ns
        assert bfd.detector_metrics["false_positive_count"] == 0
        assert transport.detector_metrics["false_positive_count"] == 0
        # Heartbeats really died on the admin-down link.
        assert bfd.probe_losses > 0

    def test_detector_times_feed_summary_detection_ns(self):
        result = run_experiment(_config(detector="bfd", faults=FAULTS))
        assert result.detection_ns is not None
        assert result.detection_ns <= result.detector_metrics["detection_ns"]

    def test_combiner_metrics_nest_per_member(self):
        result = run_experiment(
            _config(detector="quorum:transport+bfd", faults=FAULTS)
        )
        members = result.detector_metrics["members"]
        assert [m["detector"] for m in members] == ["transport", "bfd"]
        # Each layer saw the outage on its own timescale.
        assert members[1]["detection_ns"] < members[0]["detection_ns"]


class TestFlapSuppression:
    def test_fast_flap_does_not_oscillate_transport(self):
        # 250us down-phases against a 50ms hold: the transport detector
        # must coalesce repeat evidence, not flip per cycle.
        faults = schedule(
            flap(5 * MS, leaf=0, spine=0, period_ns=500_000, duty=0.5,
                 until_ns=12 * MS),
        )
        result = run_experiment(_config(detector="transport", faults=faults))
        m = result.detector_metrics
        assert m["flap_suppressions"] > 0
        assert m["detections"] <= 4


class TestPassiveBitIdentity:
    def test_passive_detectors_do_not_perturb_clean_runs(self):
        baseline = run_experiment(_config())
        for spec in ("transport", "breaker"):
            watched = run_experiment(_config(detector=spec))
            assert watched.stats.mean_ms() == baseline.stats.mean_ms(), spec
            assert watched.stats.p99_ms() == baseline.stats.p99_ms(), spec
            assert watched.events == baseline.events, spec
            assert watched.detector_metrics["detections"] == 0, spec

    def test_active_detector_keeps_run_deterministic(self):
        a = run_experiment(_config(detector="bfd", faults=FAULTS))
        b = run_experiment(_config(detector="bfd", faults=FAULTS))
        assert a.stats.mean_ms() == b.stats.mean_ms()
        assert a.events == b.events
        assert a.detector_metrics == b.detector_metrics


class TestZooRoutesOnTheTransportTable:
    """REPS, DiffFlow and RDNA have no failure table of their own: the
    one ``install_lb`` builds for them by default *is* the detector
    ``detector="transport"`` names."""

    @pytest.mark.parametrize("lb", ("reps", "diffflow", "rdna"))
    def test_default_table_equals_configured_transport(self, lb):
        default = run_experiment(_config(lb=lb, faults=FAULTS))
        named = run_experiment(
            _config(lb=lb, faults=FAULTS, detector="transport")
        )
        assert default.stats.records == named.stats.records
        assert default.events == named.events
        assert default.detection_ns == named.detection_ns is not None
        assert default.recovery_ns == named.recovery_ns
        # Same table either way; only asking for it reports its counters.
        assert default.detector_metrics == {}
        assert named.detector_metrics["detections"] > 0
        assert [type(d).__name__ for d in default.scheme.detectors.values()] == [
            "TransportDetector"
        ] * 2

    @pytest.mark.parametrize("lb", ("reps", "diffflow", "rdna"))
    def test_table_timers_are_set_through_the_spec_only(self, lb):
        with pytest.raises(TypeError):
            install_lb(make_fabric(), lb, hold_ns=1)
        fabric = make_fabric()
        scheme = install_lb(
            fabric, lb, detector="transport:hold=7ms", detector_time_scale=0.5
        )
        table = scheme.detectors[0]
        assert table.hold_ns == 7 * MS            # explicit: literal
        assert table.retx_window_ns == 5 * MS     # default: scaled
        assert all(
            host.lb.detector is scheme.detectors[host.leaf]
            for host in fabric.hosts
        )

    def test_detector_is_set_through_the_config_only(self):
        # lb_params is no side door past config.detector's validation.
        with pytest.raises(TypeError):
            run_experiment(_config(lb="reps", lb_params={"detector": "bfd"}))


class TestZooReadsItsDetectorSlot:
    """REPS, DiffFlow and RDNA read ``LoadBalancer.detector`` and install
    like any other scheme (their own installers, the ``health`` argument
    and the factory's second branch are gone) with no bit moved: these
    cells reproduce what the parent commit (5cbadf8) recorded."""

    BLACKHOLE = schedule(
        blackhole_on(5 * MS, spine=0, fraction=1.0),
        blackhole_off(20 * MS, spine=0),
    )

    #: (lb, fault, detector) -> (sha256(repr(records))[:16], events,
    #: detection_ns, recovery_ns)
    PARENT = {
        ("reps", "link_down", None): ("3adad7846051a66d", 234722, 115815, None),
        ("reps", "link_down", "bfd"): ("bca0f75efe7cc460", 262993, 300000, 0),
        ("reps", "link_down", "quorum:transport+bfd"): (
            "bda2e8b384957241", 263086, 300000, 0),
        ("reps", "blackhole", None): ("092eaaf0dcdabcbd", 265286, 114127, 0),
        ("reps", "blackhole", "bfd"): ("29c41913c87cf243", 263393, 300000, 0),
        ("reps", "blackhole", "quorum:transport+bfd"): (
            "0e2e7a3bfa8cce37", 261251, 300000, 0),
        ("diffflow", "link_down", None): (
            "552872ac03e01540", 213061, 2833456, None),
        ("diffflow", "link_down", "bfd"): ("207ec1fea00b043f", 257113, 300000, 0),
        ("diffflow", "link_down", "quorum:transport+bfd"): (
            "2cee6e0d2b579734", 259553, 2833456, 1055500),
        ("diffflow", "blackhole", None): (
            "83c808ad5dcd88be", 224162, 2833456, None),
        ("diffflow", "blackhole", "bfd"): ("7b6ebc88858f6bbf", 257922, 300000, 0),
        ("diffflow", "blackhole", "quorum:transport+bfd"): (
            "447cca537303476d", 261004, 2833456, 1042106),
        ("rdna", "link_down", None): (
            "3ecca41624ee4243", 246602, 10067915, 668333),
        ("rdna", "link_down", "bfd"): ("6add79227e463655", 255453, 300000, 0),
        ("rdna", "link_down", "quorum:transport+bfd"): (
            "95416999eaee50fa", 256340, 10067915, 671472),
        ("rdna", "blackhole", None): (
            "7fe5d2062fefaa13", 247834, 10067915, 669586),
        ("rdna", "blackhole", "bfd"): ("724ada4b1fba7ecd", 256949, 300000, 0),
        ("rdna", "blackhole", "quorum:transport+bfd"): (
            "a019108a5a73a858", 259064, 10067915, 672674),
    }

    @pytest.mark.parametrize(
        "lb, fault, detector", sorted(PARENT, key=repr), ids=repr
    )
    def test_reproduces_parent_recording(self, lb, fault, detector):
        digest, events, detection, recovery = self.PARENT[lb, fault, detector]
        faults = FAULTS if fault == "link_down" else self.BLACKHOLE
        result = run_experiment(
            _config(lb=lb, faults=faults, detector=detector)
        )
        records = repr(result.stats.records).encode()
        assert hashlib.sha256(records).hexdigest()[:16] == digest
        assert result.events == events
        assert result.detection_ns == detection
        assert result.recovery_ns == recovery


class TestHermesTableIsADetector:
    """Hermes's leaf table became a ``repro.detect.Detector`` (PR 23)
    with no bit moved: these cells reproduce what the parent commit
    (48bb9b8, ``HermesLeafState`` with its own ledger) recorded.  The two
    malfunctions present from the start are t=0 fault schedules since
    PR 24: same records and reroutes, one more event (the t=0 fire), and
    a ``detection_ns`` the static injection path never reported."""

    #: name -> (config overrides, sha256(repr(records))[:16], events,
    #: total_reroutes, detection_ns, recovery_ns, detections in the ledger)
    PARENT = {
        "link": (
            dict(faults=schedule(link_down(MS // 2, leaf=0, spine=0),
                                 link_up(2 * MS, leaf=0, spine=0))),
            "bf557fb65acf1462", 606280, 12, 1_500_000, 9_334_115, 1,
        ),
        "random_drop": (
            dict(faults=schedule(random_drop_start(0, spine=0, drop_rate=0.05))),
            "2c435ad6bd70569f", 592414 + 1, 10, 1_000_000, None, 7,
        ),
        "blackhole": (
            dict(seed=3, faults=schedule(blackhole_on(0, spine=0, fraction=1.0))),
            "7bc2cd1702bb9edb", 722777 + 1, 40, 2_000_000, None, 15,
        ),
    }

    @pytest.mark.parametrize("cell", sorted(PARENT))
    def test_reproduces_parent_recording(self, cell):
        overrides, digest, events, reroutes, detection, recovery, marks = (
            self.PARENT[cell]
        )
        result = run_experiment(
            _config(lb="hermes", n_flows=120, time_scale=0.1, **overrides)
        )
        records = repr(result.stats.records).encode()
        assert hashlib.sha256(records).hexdigest()[:16] == digest
        assert result.events == events
        assert result.total_reroutes == reroutes
        assert result.detection_ns == detection
        assert result.recovery_ns == recovery
        tables = list(result.scheme.leaf_states.values())
        assert all(isinstance(t, Detector) for t in tables)
        # One ledger: the τ-sweep's and the agents' blackhole verdicts.
        assert sum(len(t.detection_times) for t in tables) == marks
        assert sum(t.metrics()["detections"] for t in tables) == marks


class TestSerialParallelIdentity:
    def test_serial_equals_parallel_with_detector_attached(self):
        grid = [
            _config(detector="bfd", faults=FAULTS),
            _config(detector="fastest:transport+bfd", faults=FAULTS,
                    seed=3),
        ]
        serial = run_cells(grid, jobs=1, use_cache=False)
        parallel_ = run_cells(grid, jobs=2, use_cache=False)
        for s, p in zip(serial, parallel_):
            assert s.mean_fct_ms == p.mean_fct_ms
            assert s.events == p.events
            assert s.detector_metrics == p.detector_metrics
            assert s.probe_losses == p.probe_losses


class TestProbeLossAccounting:
    def test_hermes_probe_losses_are_counted_and_attributed(self):
        result = run_experiment(
            _config(lb="hermes", detector=None, faults=FAULTS)
        )
        probers = result.scheme.probers
        attributed = sum(p.probes_lost for p in probers.values())
        # Probes died on the admin-down link, every death was charged
        # to its owning prober, and the run summary surfaces the total.
        assert attributed > 0
        assert result.probe_losses == attributed

    def test_hermes_probes_carry_no_data_flow_id(self):
        # Probes are their own stream: a traced run files none of them,
        # nor their replies, under a data flow.
        result = run_experiment(_config(lb="hermes", n_flows=20, trace=True))
        probes = [
            r for r in result.telemetry.tracer.events
            if r.packet_kind in (PacketKind.PROBE, PacketKind.PROBE_REPLY)
        ]
        assert probes
        assert all(r.flow_id == HERMES_PROBE_FLOW_ID for r in probes)

    def test_clean_run_loses_no_probes(self):
        result = run_experiment(_config(lb="hermes", detector=None))
        assert result.probe_losses == 0
        assert all(
            p.probes_lost == 0 for p in result.scheme.probers.values()
        )


class TestEverySchemeConsultsDetectors:
    @pytest.mark.parametrize("lb", ("hermes", "conga", "reps", "clove-ecn"))
    def test_detector_attaches_across_scheme_families(self, lb):
        result = run_experiment(
            _config(lb=lb, detector="bfd", faults=FAULTS, n_flows=40)
        )
        detectors = result.scheme.detectors
        assert sorted(detectors) == [0, 1]
        assert result.detector_metrics["detector"] == "bfd"
        assert result.detector_metrics["detection_ns"] is not None
