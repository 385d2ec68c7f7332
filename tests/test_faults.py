"""Tests for the dynamic fault plane (:mod:`repro.faults`).

Four layers:

* **spec** — declarative validation (unknown actions, orphan reverts,
  flap parameters), the CLI string form, flap expansion;
* **mechanics** — admin-down / runtime-rate port semantics and the
  revocable failure handles, on live fabrics;
* **timeline** — applied/reverted records, tracer/audit mirroring;
* **acceptance** — the issue's two end-to-end contracts: a scheduled
  fault perturbs *nothing* outside its window (bit-identical per-flow
  records for flows that finished before it), and Hermes rides a
  link_down → link_up cycle with finite detection/recovery while ECMP on
  the same schedule strands flows in unrecovered timeouts.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import config_key
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology, failure_bench_topology
from repro.faults.plane import FaultSchedule
from repro.faults.spec import (
    FaultEventSpec,
    FaultScheduleSpec,
    blackhole_off,
    blackhole_on,
    flap,
    format_schedule,
    link_degrade,
    link_down,
    link_restore,
    link_up,
    parse_event,
    parse_schedule,
    parse_time,
    random_drop_start,
    random_drop_stop,
    schedule,
)
from repro.lb.factory import install_lb
from repro.transport.dctcp import DctcpFlow
from tests.conftest import make_fabric

MS = 1_000_000


# --------------------------------------------------------------------- #
# Spec validation
# --------------------------------------------------------------------- #


class TestSpecValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultEventSpec("link_sideways", 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultEventSpec("link_down", -1)

    def test_degrade_needs_positive_rate(self):
        with pytest.raises(ValueError, match="rate_gbps"):
            link_degrade(0, leaf=0, spine=0, rate_gbps=0.0)

    def test_blackhole_same_rack_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            blackhole_on(0, spine=0, src_leaf=1, dst_leaf=1)

    @pytest.mark.parametrize("duty", [0.0, 1.0, -0.5])
    def test_flap_duty_bounds(self, duty):
        with pytest.raises(ValueError, match="duty"):
            flap(0, leaf=0, spine=0, period_ns=1000, duty=duty, until_ns=5000)

    def test_flap_until_must_follow_start(self):
        with pytest.raises(ValueError, match="until_ns"):
            flap(5000, leaf=0, spine=0, period_ns=1000, until_ns=5000)

    def test_revert_without_apply_rejected(self):
        with pytest.raises(ValueError, match="no earlier matching apply"):
            schedule(link_up(10 * MS, leaf=0, spine=0))

    def test_revert_on_different_link_rejected(self):
        with pytest.raises(ValueError, match="no earlier matching apply"):
            schedule(
                link_down(1 * MS, leaf=0, spine=0),
                link_up(2 * MS, leaf=0, spine=1),
            )

    def test_flap_satisfies_a_trailing_link_up(self):
        # A flap always leaves the link up; a later explicit link_up is a
        # legal idempotent safety net, not an orphan revert.
        spec = schedule(
            flap(1 * MS, leaf=0, spine=0, period_ns=MS, until_ns=4 * MS),
            link_up(10 * MS, leaf=0, spine=0),
        )
        assert len(spec.events) == 2

    def test_span_includes_flap_until(self):
        spec = schedule(
            link_down(2 * MS, leaf=0, spine=0),
            flap(1 * MS, leaf=1, spine=1, period_ns=MS, until_ns=9 * MS),
            link_up(5 * MS, leaf=0, spine=0),
        )
        assert spec.span_ns == (1 * MS, 9 * MS)

    def test_spec_hashable_and_picklable(self):
        import pickle

        spec = schedule(
            link_down(1 * MS, leaf=0, spine=0),
            link_up(2 * MS, leaf=0, spine=0),
        )
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_empty_schedule_is_falsy(self):
        assert not FaultScheduleSpec(())
        assert schedule(link_down(0, leaf=0, spine=0))


class TestParsing:
    @pytest.mark.parametrize(
        "text,ns",
        [("5ms", 5 * MS), ("200us", 200_000), ("1.5s", 1_500_000_000),
         ("42ns", 42), ("1000", 1000)],
    )
    def test_parse_time_units(self, text, ns):
        assert parse_time(text) == ns

    def test_parse_time_garbage(self):
        with pytest.raises(ValueError, match="bad time literal"):
            parse_time("soon")

    def test_parse_event_full(self):
        event = parse_event("link_degrade@5ms:leaf=1,spine=2,gbps=2.5")
        assert event == link_degrade(5 * MS, leaf=1, spine=2, rate_gbps=2.5)

    def test_parse_event_flap_times(self):
        event = parse_event(
            "flap@2ms:leaf=0,spine=1,period=400us,duty=0.25,until=8ms"
        )
        assert event.period_ns == 400_000
        assert event.until_ns == 8 * MS
        assert event.duty == 0.25

    def test_parse_event_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault parameter"):
            parse_event("link_down@1ms:leaf=0,spline=1")

    def test_parse_schedule_matches_builders(self):
        parsed = parse_schedule(
            "link_down@5ms:leaf=0,spine=1; link_up@20ms:leaf=0,spine=1"
        )
        built = schedule(
            link_down(5 * MS, leaf=0, spine=1),
            link_up(20 * MS, leaf=0, spine=1),
        )
        assert parsed == built

    def test_parse_schedule_empty(self):
        with pytest.raises(ValueError, match="empty fault schedule"):
            parse_schedule(" ; ")

    def test_format_schedule_is_the_parsers_inverse(self):
        import random

        from repro.validate.fuzz import _draw_fault_schedule

        for seed in range(1, 57):
            spec = _draw_fault_schedule(
                random.Random(f"repro-chaos-faults-{seed}"), 3, 3, {}
            )
            assert parse_schedule(format_schedule(spec)) == spec, seed
        assert format_schedule(schedule(
            random_drop_start(0, spine=0, drop_rate=0.02)
        )) == "random_drop_start@0:spine=0,rate=0.02"


class TestFlapExpansion:
    def _plane(self, spec):
        fabric = make_fabric()
        return FaultSchedule(fabric, spec)

    def test_alternating_pairs_and_final_up(self):
        plane = self._plane(schedule(
            flap(10 * MS, leaf=0, spine=1, period_ns=4 * MS, duty=0.5,
                 until_ns=22 * MS)
        ))
        events = plane.expanded_events()
        actions = [e.action for e in events]
        assert actions == ["link_down", "link_up"] * 3
        assert [e.time_ns for e in events] == [
            10 * MS, 12 * MS, 14 * MS, 16 * MS, 18 * MS, 20 * MS
        ]
        assert all(e.leaf == 0 and e.spine == 1 for e in events)
        # Invariant: a flap can never leave the link dark.
        assert events[-1].action == "link_up"

    def test_duty_sets_down_fraction(self):
        plane = self._plane(schedule(
            flap(0, leaf=1, spine=0, period_ns=10 * MS, duty=0.3,
                 until_ns=10 * MS)
        ))
        events = plane.expanded_events()
        assert [e.time_ns for e in events] == [0, 3 * MS]

    def test_expansion_interleaves_with_plain_events(self):
        plane = self._plane(schedule(
            random_drop_start(1 * MS, spine=0, drop_rate=0.1),
            flap(0, leaf=0, spine=1, period_ns=2 * MS, until_ns=2 * MS),
            random_drop_stop(3 * MS, spine=0),
        ))
        times = [(e.time_ns, e.action) for e in plane.expanded_events()]
        assert times == [
            (0, "link_down"), (1 * MS, "random_drop_start"),
            (1 * MS, "link_up"), (3 * MS, "random_drop_stop"),
        ]


# --------------------------------------------------------------------- #
# Install-time target validation
# --------------------------------------------------------------------- #


class TestInstallValidation:
    def test_spine_out_of_range(self):
        fabric = make_fabric()  # 2x2
        plane = FaultSchedule(fabric, schedule(
            random_drop_start(0, spine=5, drop_rate=0.1)
        ))
        with pytest.raises(ValueError, match="outside the topology"):
            plane.install()

    def test_leaf_out_of_range(self):
        fabric = make_fabric()
        plane = FaultSchedule(fabric, schedule(link_down(0, leaf=7, spine=0)))
        with pytest.raises(ValueError, match="outside the topology"):
            plane.install()

    def test_statically_cut_link_rejected(self):
        fabric = make_fabric(link_overrides={(0, 1): 0.0})
        plane = FaultSchedule(fabric, schedule(
            link_down(0, leaf=0, spine=1), link_up(MS, leaf=0, spine=1)
        ))
        with pytest.raises(ValueError, match="cuts statically"):
            plane.install()

    def test_double_install_rejected(self):
        fabric = make_fabric()
        plane = FaultSchedule(
            fabric, schedule(link_down(0, leaf=0, spine=0))
        ).install()
        with pytest.raises(RuntimeError, match="already installed"):
            plane.install()


# --------------------------------------------------------------------- #
# Port mechanics: runtime rate changes and admin-down
# --------------------------------------------------------------------- #


class TestPortMechanics:
    def test_set_rate_changes_tx_time(self, fabric):
        port = fabric.topology.leaf_up[0][0]
        assert port.tx_time_ns(1500) == 1200  # 10 Gbps
        port.set_rate(1e9)
        assert port.tx_time_ns(1500) == 12000  # 1 Gbps
        port.set_rate(10e9)
        assert port.tx_time_ns(1500) == 1200  # cache cleared, not stale

    def test_set_rate_rejects_nonpositive(self, fabric):
        port = fabric.topology.leaf_up[0][0]
        with pytest.raises(ValueError):
            port.set_rate(0.0)

    def test_admin_down_drops_new_arrivals(self, fabric):
        from repro.net.packet import Packet, PacketKind

        port = fabric.topology.leaf_up[0][0]
        port.set_admin_down(True)
        packet = Packet(0, 0, 2, 0, 1500, PacketKind.DATA)
        assert port.enqueue(packet) is False
        assert port.drops_linkdown == 1
        assert port.total_drops == 1

    def test_admin_down_stalls_then_resumes(self, fabric):
        """Packets queued before the outage survive it and transmit after
        link_up — an admin-down loses arrivals, not backlog."""
        from repro.net.packet import Packet, PacketKind

        sim = fabric.sim
        arrived = []
        port = fabric.topology.leaf_up[0][0]
        port.forward = arrived.append
        for seq in range(3):
            port.enqueue(Packet(0, 0, 2, seq, 1500, PacketKind.DATA))
        sim.schedule_at(1_300, port.set_admin_down, True)  # after pkt 0 tx
        sim.schedule_at(500_000, port.set_admin_down, False)
        sim.run(until=2 * MS)
        assert len(arrived) == 3
        assert port.drops_linkdown == 0
        # Packets 1 and 2 were stalled across the outage window.
        assert sim.now > 500_000


class TestRevocableHandles:
    def test_uninstall_removes_predicates(self, fabric):
        import random

        from repro.net.failures import RandomDropFailure

        failure = RandomDropFailure(1.0, random.Random(0))
        failure.install(fabric.topology, 0)
        ports = fabric.topology.spine_ports(0)
        assert all(failure in p.drop_predicates for p in ports)
        failure.uninstall()
        assert all(failure not in p.drop_predicates for p in ports)

    def test_uninstall_is_idempotent(self, fabric):
        from repro.net.failures import BlackholeFailure

        failure = BlackholeFailure([(0, 2)])
        failure.install(fabric.topology, 1)
        failure.uninstall()
        failure.uninstall()  # second call must not raise
        ports = fabric.topology.spine_ports(1)
        assert all(failure not in p.drop_predicates for p in ports)


# --------------------------------------------------------------------- #
# Live-fabric timeline mechanics
# --------------------------------------------------------------------- #


def _run_with_plane(spec, lb="ecmp", until=80 * MS, seed=1):
    # ~5.8 MB: several milliseconds of wire time, so every schedule
    # below lands inside the transfer, not after it.
    fabric = make_fabric(seed=seed)
    install_lb(fabric, lb)
    flow = DctcpFlow(fabric, 0, 2, 4000 * 1460)
    fabric.register_flow(flow)
    flow.start()
    plane = FaultSchedule(fabric, spec, fabric.rng.get("faults")).install()
    fabric.sim.run(until=until)
    return fabric, flow, plane


class TestTimeline:
    def test_down_up_records_phases_and_drops(self):
        # The outage must outlast the 10 ms RTO floor so retransmissions
        # actually fire into the dark links.
        fabric, flow, plane = _run_with_plane(schedule(
            link_down(1 * MS, leaf=0, spine=0),
            link_down(1 * MS, leaf=0, spine=1),
            link_up(25 * MS, leaf=0, spine=0),
            link_up(25 * MS, leaf=0, spine=1),
        ))
        assert flow.finished, "flow must recover once the links return"
        timeline = plane.timeline()
        assert [r["phase"] for r in timeline] == [
            "applied", "applied", "reverted", "reverted"
        ]
        assert plane.first_applied_ns() == 1 * MS
        assert plane.last_reverted_ns() == 25 * MS
        # With every uplink of leaf 0 dark, the sender's retransmissions
        # hit the no-carrier drop counter.
        total_linkdown = sum(
            r["detail"]["drops_while_down"]
            for r in timeline if r["action"] == "link_up"
        )
        assert total_linkdown > 0

    def test_degrade_restore_round_trips_rates(self):
        fabric, _, plane = _run_with_plane(schedule(
            link_degrade(1 * MS, leaf=0, spine=0, rate_gbps=1.0),
            link_restore(4 * MS, leaf=0, spine=0),
        ))
        up = fabric.topology.leaf_up[0][0]
        down = fabric.topology.spine_down[0][0]
        assert up.rate_bps == 10e9 and down.rate_bps == 10e9
        detail = plane.timeline()[0]["detail"]
        assert detail == {"from_gbps": 10.0, "to_gbps": 1.0}

    def test_drop_window_counts_and_uninstalls(self):
        fabric, flow, plane = _run_with_plane(schedule(
            random_drop_start(500_000, spine=0, drop_rate=1.0),
            random_drop_start(500_000, spine=1, drop_rate=1.0),
            random_drop_stop(4 * MS, spine=0),
            random_drop_stop(4 * MS, spine=1),
        ))
        assert plane.total_injected_drops() > 0
        assert flow.finished
        for spine in (0, 1):
            for port in fabric.topology.spine_ports(spine):
                assert not port.drop_predicates

    def test_blackhole_window_targets_pairs(self):
        fabric, flow, plane = _run_with_plane(schedule(
            blackhole_on(500_000, spine=0, src_leaf=0, dst_leaf=1,
                         fraction=1.0),
            blackhole_on(500_000, spine=1, src_leaf=0, dst_leaf=1,
                         fraction=1.0),
            blackhole_off(8 * MS, spine=0),
            blackhole_off(8 * MS, spine=1),
        ))
        assert plane.total_injected_drops() > 0
        assert flow.finished, "flow must complete once the blackhole lifts"
        on = [r for r in plane.timeline() if r["action"] == "blackhole_on"]
        # fraction=1.0 over a 2x2-host rack pair: all 4 (src, dst) pairs.
        assert all(r["detail"]["pairs"] == 4 for r in on)

    def test_revert_without_live_handle_is_noop(self):
        # blackhole_off after the handle was already swapped/stopped: the
        # schedule-level pairing check passes, the plane no-ops politely.
        fabric, _, plane = _run_with_plane(schedule(
            random_drop_start(1 * MS, spine=0, drop_rate=0.0),
            random_drop_stop(2 * MS, spine=0),
            random_drop_stop(3 * MS, spine=0),
        ))
        noops = [r for r in plane.timeline() if r["detail"].get("noop")]
        assert len(noops) == 1 and noops[0]["t"] == 3 * MS


# --------------------------------------------------------------------- #
# Failure-injection edge cases (satellite: net/failures.py)
# --------------------------------------------------------------------- #


class TestBlackholePairFractions:
    def test_fraction_zero_selects_nothing(self, fabric):
        import random

        from repro.net.failures import blackhole_pairs_between_racks

        pairs = blackhole_pairs_between_racks(
            fabric.topology, 0, 1, 0.0, random.Random(3)
        )
        assert pairs == set()

    def test_fraction_one_selects_every_pair(self, fabric):
        import random

        from repro.net.failures import blackhole_pairs_between_racks

        pairs = blackhole_pairs_between_racks(
            fabric.topology, 0, 1, 1.0, random.Random(3)
        )
        src = set(fabric.topology.hosts_of_leaf(0))
        dst = set(fabric.topology.hosts_of_leaf(1))
        assert pairs == {(s, d) for s in src for d in dst}

    def test_drop_counter_tracks_eaten_packets(self, fabric):
        import random

        from repro.net.failures import RandomDropFailure
        from repro.net.packet import Packet, PacketKind

        failure = RandomDropFailure(1.0, random.Random(0))
        failure.install(fabric.topology, 0)
        port = fabric.topology.spine_ports(0)[0]
        for seq in range(5):
            port.enqueue(Packet(0, 0, 2, seq, 1500, PacketKind.DATA))
        assert failure.dropped == 5
        assert port.drops_injected == 5

    def test_zero_rate_failure_is_bit_identical_to_no_failure(self):
        """The failure RNG is a dedicated stream: a 0%-drop failure from
        t=0 consumes draws there but must not perturb workload or LB
        streams — per-flow records stay bit-identical, and the schedule
        costs exactly its one t=0 event."""
        base = ExperimentConfig(
            topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
            lb="hermes",
            workload="web-search",
            load=0.5,
            n_flows=30,
            seed=9,
            size_scale=0.05,
            time_scale=0.05,
        )
        with_noop = dataclasses.replace(
            base, faults=schedule(random_drop_start(0, spine=0, drop_rate=0.0))
        )
        plain = run_experiment(base)
        noop = run_experiment(with_noop)
        assert plain.stats.records == noop.stats.records
        assert noop.events == plain.events + 1

    def test_failure_from_t0_reports_timeline_and_detection(self):
        """A malfunction that exists from the start is a schedule event
        at t=0, so the run reports what the fault plane reports for any
        other fault: a timeline entry and Hermes' detection latency."""
        result = run_experiment(ExperimentConfig(
            topology=failure_bench_topology(),
            lb="hermes",
            load=0.5,
            n_flows=60,
            size_scale=0.05,
            time_scale=0.05,
            faults=schedule(random_drop_start(0, spine=0, drop_rate=0.05)),
        ))
        (entry,) = result.fault_timeline
        assert (entry["t"], entry["action"], entry["phase"]) == (
            0, "random_drop_start", "applied")
        assert result.detection_ns is not None


# --------------------------------------------------------------------- #
# Config / cache-key integration
# --------------------------------------------------------------------- #


def _bench_config(**overrides):
    defaults = dict(
        topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
        lb="ecmp",
        workload="web-search",
        load=0.4,
        n_flows=20,
        seed=1,
        size_scale=0.05,
        time_scale=0.05,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestCacheKey:
    def test_faults_field_changes_key(self):
        plain = _bench_config()
        faulted = _bench_config(faults=schedule(
            link_down(1 * MS, leaf=0, spine=0),
            link_up(2 * MS, leaf=0, spine=0),
        ))
        assert config_key(plain) != config_key(faulted)

    def test_different_schedules_differ(self):
        a = _bench_config(faults=schedule(
            link_down(1 * MS, leaf=0, spine=0),
            link_up(2 * MS, leaf=0, spine=0),
        ))
        b = _bench_config(faults=schedule(
            link_down(1 * MS, leaf=0, spine=0),
            link_up(3 * MS, leaf=0, spine=0),
        ))
        assert config_key(a) != config_key(b)

    def test_identical_schedules_share_key(self):
        mk = lambda: _bench_config(faults=schedule(
            link_down(1 * MS, leaf=0, spine=0),
            link_up(2 * MS, leaf=0, spine=0),
        ))
        assert config_key(mk()) == config_key(mk())


class TestTelemetryIntegration:
    def test_fault_records_reach_tracer_and_audit(self):
        config = _bench_config(
            lb="hermes",
            trace=True,
            faults=schedule(
                link_down(1 * MS, leaf=0, spine=0),
                link_up(3 * MS, leaf=0, spine=0),
            ),
        )
        result = run_experiment(config)
        telemetry = result.telemetry
        assert telemetry is not None
        trace_faults = [
            r for r in telemetry.tracer.events if r.kind == "fault"
        ]
        assert [r.note for r in trace_faults] == [
            "link_down applied", "link_up reverted"
        ]
        audit_faults = [
            r for r in telemetry.audit.records if r.category == "fault"
        ]
        assert len(audit_faults) == 2
        assert audit_faults[0].detail["target"] == "leaf0<->spine0"
        # path_events must surface the fault context alongside per-path
        # decisions so why-left answers show what triggered the exodus.
        assert any(
            r.category == "fault" for r in telemetry.audit.path_events(0)
        )


# --------------------------------------------------------------------- #
# End-to-end acceptance
# --------------------------------------------------------------------- #


class TestAcceptance:
    def test_fault_window_is_bit_identical_outside(self):
        """Flows that finished before the first scheduled fault are
        bit-identical to the same run without the schedule: the fault
        plane is provably inert outside its window."""
        # Sizes, timers and the fault window shrink together: the same
        # 59 flows finish before the fault as at full scale.
        scale = 0.1
        base = ExperimentConfig(
            topology=bench_topology(n_leaves=4, n_spines=4, hosts_per_leaf=3),
            lb="hermes",
            workload="web-search",
            load=0.4,
            n_flows=80,
            seed=5,
            extra_drain_ns=int(60 * MS * scale),
            size_scale=scale,
            time_scale=scale,
        )
        start = int(30 * MS * scale)
        faulted = dataclasses.replace(base, faults=schedule(
            link_down(start, leaf=0, spine=0),
            link_up(int(50 * MS * scale), leaf=0, spine=0),
        ))
        plain = run_experiment(base)
        dynamic = run_experiment(faulted)
        before = lambda recs: sorted(
            (
                r for r in recs
                if r.fct_ns is not None and r.start_ns + r.fct_ns < start
            ),
            key=lambda r: r.flow_id,
        )
        plain_before = before(plain.stats.records)
        assert plain_before, "scenario must complete flows before the fault"
        assert plain_before == before(dynamic.stats.records)
        # And the schedule itself did leave a mark inside the window.
        assert dynamic.fault_timeline
        assert plain.stats.records != dynamic.stats.records

    def test_hermes_recovers_where_ecmp_strands_flows(self):
        """The paper's Fig. 16 contract on a link_down -> link_up cycle:
        Hermes detects the outage and drains the damage (finite
        detection and recovery, nothing stranded); ECMP, blind to path
        health, leaves flows hashed onto the dark link timing out
        forever."""
        def run(lb):
            return run_experiment(ExperimentConfig(
                topology=bench_topology(
                    n_leaves=4, n_spines=4, hosts_per_leaf=3
                ),
                lb=lb,
                workload="web-search",
                load=0.5,
                n_flows=100,
                seed=2,
                extra_drain_ns=40 * MS,
                faults=schedule(
                    link_down(20 * MS, leaf=0, spine=0),
                    link_up(55 * MS, leaf=0, spine=0),
                ),
            ))

        hermes = run("hermes")
        assert hermes.detection_ns is not None
        assert hermes.recovery_ns is not None
        assert hermes.unrecovered_timeouts == 0

        ecmp = run("ecmp")
        assert ecmp.unrecovered_timeouts > 0
        assert ecmp.recovery_ns is None
        assert ecmp.detection_ns is None, "ECMP has no failure detector"

        # The timeline is part of both results, applied before reverted.
        for result in (hermes, ecmp):
            phases = [r["phase"] for r in result.fault_timeline]
            assert phases == ["applied", "reverted"]
