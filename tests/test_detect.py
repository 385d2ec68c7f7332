"""Unit tests for the pluggable failure-detection plane (repro.detect).

Everything here runs on a bare 2x2 fabric with hand-scheduled link
admin flips — no workload, no load balancer — so each test isolates one
detector mechanism: spec parsing, BFD session timing, the transport
table, combiner arithmetic.  End-to-end behaviour (latency
frontiers, bit-identity, probe-loss accounting) lives in
``test_detect_integration.py``.
"""

from __future__ import annotations

import types

import pytest

from repro.detect import (
    DOWN,
    SUSPECT,
    UP,
    BfdDetector,
    Detector,
    FastestOfDetector,
    TransportDetector,
    agent_host_of,
    build_detector,
    build_leaf_detectors,
    parse_detector,
)
from repro.detect.spec import DetectorSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import config_key
from repro.experiments.scenarios import bench_topology
from repro.sim.engine import microseconds, milliseconds
from tests.conftest import make_fabric

US = 1_000
MS = 1_000_000


def _set_link(fabric, leaf: int, spine: int, down: bool) -> None:
    """Admin-flip both directions of one leaf-spine link (what the
    fault plane's link_down/link_up do)."""
    topo = fabric.topology
    topo.leaf_up[leaf][spine].set_admin_down(down)
    topo.spine_down[spine][leaf].set_admin_down(down)


# --------------------------------------------------------------------- #
# Spec DSL
# --------------------------------------------------------------------- #


class TestDetectorSpec:
    def test_bare_kinds_parse(self):
        for kind in ("transport", "bfd"):
            spec = parse_detector(kind)
            assert spec.kind == kind
            assert spec.params == ()
            assert spec.canonical() == kind

    def test_params_parse_with_time_units(self):
        spec = parse_detector("bfd:tx=100us,mult=3")
        assert spec.kind == "bfd"
        assert spec.param("tx") == microseconds(100)
        assert spec.param("mult") == 3

    def test_canonical_round_trips(self):
        for text in (
            "transport:hold=50ms,retx_threshold=10",
            "bfd:tx=100us,mult=3",
            "fastest:transport+bfd",
        ):
            spec = parse_detector(text)
            assert parse_detector(spec.canonical()) == spec

    def test_rejects_nonsense(self):
        for bad in (
            "",
            "frobnicate",
            "bfd:unknown=1",
            "bfd:tx=abc",
            "fastest:bfd",           # combiners need >= 2 members
            "fastest",
            "fastest:fastest+bfd",   # no nesting
            "fastest:bfd+bfd",       # a repeated member adds nothing
            "fastest:transport+bfd+transport",
            "fastest:transport+bfd,quorum=1",
            "bfd:transport+bfd",     # only the combiner takes members
            "transport:hold",        # missing value
        ):
            with pytest.raises(ValueError):
                parse_detector(bad)

    @pytest.mark.parametrize("gone", [
        "breaker", "breaker:threshold=0.5", "quorum:transport+bfd",
        "fastest:transport+breaker",
    ])
    def test_removed_kinds_name_the_kinds_left(self, gone):
        with pytest.raises(ValueError, match="one of: bfd, fastest, transport"):
            parse_detector(gone)

    def test_package_exports_only_the_kinds_left(self):
        import repro.detect

        for name in ("CircuitBreakerDetector", "QuorumDetector",
                     "ComboDetector", "BREAKER_FLOW_ID"):
            assert not hasattr(repro.detect, name)
            assert name not in repro.detect.__all__

    def test_explicit_values_ignore_time_scale(self):
        fabric = make_fabric()
        det = build_detector(
            parse_detector("bfd:tx=100us,mult=3"), fabric, 0, time_scale=0.05
        )
        assert det.tx_interval_ns == microseconds(100)

    def test_time_defaults_scale(self):
        fabric = make_fabric()
        det = build_detector(parse_detector("bfd"), fabric, 0, time_scale=0.5)
        assert det.tx_interval_ns == microseconds(50)

    @pytest.mark.parametrize("kind, cls, times", [
        ("transport", TransportDetector, ("hold_ns", "retx_window_ns")),
        ("bfd", BfdDetector, ("tx_interval_ns",)),
    ])
    def test_bare_spec_builds_the_constructor_defaults(self, kind, cls, times):
        built = build_detector(kind, make_fabric(), 0)
        direct = cls(make_fabric(), 0)
        for name in times:
            assert getattr(built, name) == getattr(direct, name)

    def test_build_leaf_detectors_covers_every_leaf(self):
        fabric = make_fabric()
        detectors = build_leaf_detectors(fabric, "fastest:transport+bfd")
        assert sorted(detectors) == list(range(fabric.config.n_leaves))
        for leaf, det in detectors.items():
            assert isinstance(det, FastestOfDetector)
            assert det.leaf == leaf
            assert [m.name for m in det.members] == ["transport", "bfd"]

    def test_detector_changes_cache_key(self):
        topo = bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2)
        base = ExperimentConfig(topology=topo, lb="ecmp", n_flows=10)
        with_det = ExperimentConfig(
            topology=topo, lb="ecmp", n_flows=10, detector="bfd"
        )
        assert config_key(base) != config_key(with_det)
        assert ExperimentConfig.from_dict(with_det.to_dict()).detector == "bfd"

    def test_config_rejects_bad_detector_spec(self):
        topo = bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2)
        with pytest.raises(ValueError):
            ExperimentConfig(topology=topo, lb="ecmp", detector="nope")

    def test_spec_param_lookup_default(self):
        spec = DetectorSpec(kind="bfd", params=(("tx", 5),))
        assert spec.param("tx") == 5
        assert spec.param("mult", 3) == 3


# --------------------------------------------------------------------- #
# BFD sessions
# --------------------------------------------------------------------- #


def _bfd(fabric, leaf=0, tx=100 * US, mult=3) -> BfdDetector:
    det = BfdDetector(fabric, leaf, tx_interval_ns=tx, detect_mult=mult)
    det.start()
    return det


class TestBfdDetector:
    def test_cold_start_reads_up(self):
        fabric = make_fabric()
        det = _bfd(fabric)
        # Before any round trip completes, every path must read UP —
        # a cold start must not strand the whole fabric.
        assert det.path_verdict(1, 0) == UP
        assert det.path_verdict(1, 1) == UP

    def test_sessions_establish_on_healthy_fabric(self):
        fabric = make_fabric()
        det = _bfd(fabric)
        fabric.sim.run(until=2 * MS)
        assert det.heartbeats_sent > 0
        assert det.replies_heard > 0
        assert det.failed_detections == 0
        assert det.path_verdict(1, 0) == UP

    def test_detects_admin_down_within_mult_tx(self):
        fabric = make_fabric()
        det = _bfd(fabric)  # leaf 0: zero jitter, rounds at 0, 100us, ...
        fabric.sim.schedule(1 * MS, _set_link, fabric, 0, 0, True)
        fabric.sim.run(until=3 * MS)
        assert det.path_verdict(1, 0) == DOWN
        assert det.path_verdict(1, 1) == UP  # the other spine is fine
        assert det.failed_detections == 1
        # Detection lands within ~mult*tx of the last good echo.
        assert det.detection_times[0] <= 1 * MS + 4 * 100 * US

    def test_flap_shorter_than_window_is_suppressed(self):
        fabric = make_fabric()
        det = _bfd(fabric)
        # Down for 200us starting mid-interval: two heartbeats die,
        # idle peaks just under the 300us deadline (SUSPECT territory)
        # — the session must dip and recover, not flip.
        fabric.sim.schedule(1 * MS + 50 * US, _set_link, fabric, 0, 0, True)
        fabric.sim.schedule(1 * MS + 250 * US, _set_link, fabric, 0, 0, False)
        fabric.sim.run(until=3 * MS)
        assert det.failed_detections == 0
        assert det.flap_suppressions >= 1
        assert det.path_verdict(1, 0) == UP

    def test_inflight_echo_after_flip_counts_false_positive(self):
        # The link_up race: a heartbeat that left before the DOWN
        # verdict comes home after it.  ts_echo < down_since proves the
        # path was alive when condemned.
        fabric = make_fabric()
        det = _bfd(fabric)
        fabric.sim.schedule(1 * MS, _set_link, fabric, 0, 0, True)
        fabric.sim.run(until=3 * MS)
        assert det.failed_detections == 1
        session = det._sessions[(1, 0)]
        stale = types.SimpleNamespace(
            src=agent_host_of(fabric, 1),
            path_id=0,
            ts_echo=session.down_since - 10 * US,
        )
        det._on_reply(stale)
        assert det.false_positive_count == 1
        # One more (fresh) echo re-establishes the session.
        fresh = types.SimpleNamespace(
            src=agent_host_of(fabric, 1),
            path_id=0,
            ts_echo=fabric.sim.now,
        )
        det._on_reply(fresh)
        assert det.path_verdict(1, 0) == UP

    def test_recovers_after_link_up(self):
        fabric = make_fabric()
        det = _bfd(fabric)
        fabric.sim.schedule(1 * MS, _set_link, fabric, 0, 0, True)
        fabric.sim.schedule(2 * MS, _set_link, fabric, 0, 0, False)
        fabric.sim.run(until=4 * MS)
        assert det.failed_detections == 1
        assert det.path_verdict(1, 0) == UP

    def test_rejects_bad_parameters(self):
        fabric = make_fabric()
        with pytest.raises(ValueError):
            BfdDetector(fabric, 0, tx_interval_ns=0)
        with pytest.raises(ValueError):
            BfdDetector(fabric, 0, detect_mult=0)


# --------------------------------------------------------------------- #
# Transport-evidence table
# --------------------------------------------------------------------- #


class _AuditSpy:
    def __init__(self):
        self.verdicts = []

    def on_verdict(self, detector, dst_leaf, path, old, new, cause, detail):
        self.verdicts.append((dst_leaf, path, old, new, cause))


def _table(fabric, **overrides) -> TransportDetector:
    params = dict(hold_ns=5 * MS, retx_threshold=3, retx_window_ns=1 * MS)
    params.update(overrides)
    return TransportDetector(fabric, 0, **params)


def _at(fabric, time_ns, fn, *args):
    """Run ``fn(*args)`` with the clock at ``time_ns``."""
    fabric.sim.schedule_at(time_ns, fn, *args)
    fabric.sim.run(until=time_ns)


class TestTransportTable:
    def test_timeout_fails_path_for_exactly_hold(self):
        fabric = make_fabric()
        det = _table(fabric)
        _at(fabric, 1 * MS, det.note_timeout, 1, 0)
        assert det.is_failed(1, 0) and det.path_verdict(1, 0) == DOWN
        assert not det.is_failed(1, 1)  # per path, not per destination
        assert det.detection_times == [1 * MS]
        _at(fabric, 6 * MS - 1, lambda: None)
        assert det.is_failed(1, 0)
        _at(fabric, 6 * MS, lambda: None)
        assert not det.is_failed(1, 0) and det.path_verdict(1, 0) == UP
        # The verdict aged out; nobody disproved it.
        assert det.false_positive_count == 0

    def test_untagged_path_is_ignored(self):
        fabric = make_fabric()
        det = _table(fabric)
        assert det.note_timeout(1, -1) is False
        assert det.note_retransmit(1, -1) is False
        det.note_ok(1, -1)
        assert det.failed_detections == 0 and det.false_positive_count == 0

    def test_retx_threshold_inside_one_window_fails_path(self):
        fabric = make_fabric()
        det = _table(fabric)
        assert det.note_retransmit(1, 0) is False
        assert det.path_verdict(1, 0) == SUSPECT
        _at(fabric, 1 * MS, det.note_retransmit, 1, 0)  # window edge: inside
        assert not det.is_failed(1, 0)
        assert det.note_retransmit(1, 0) is True
        assert det.is_failed(1, 0)
        assert det.detection_times == [1 * MS]

    def test_retx_spread_over_windows_never_fails_path(self):
        fabric = make_fabric()
        det = _table(fabric)
        for i in range(6):
            # Two per window, windows restart past retx_window_ns.
            _at(fabric, i * (MS // 2) + i // 2, det.note_retransmit, 1, 0)
        assert not det.is_failed(1, 0)
        assert det.failed_detections == 0

    def test_proof_of_life_lifts_verdict_and_is_observable(self):
        fabric = make_fabric()
        det = _table(fabric)
        det.audit = audit = _AuditSpy()
        flips = []
        det.add_flip_listener(lambda d, dst, path, old, new, refuted:
                              flips.append((dst, path, old, new, refuted)))
        det.note_timeout(1, 0)
        _at(fabric, 1 * MS, det.note_ok, 1, 0)
        assert not det.is_failed(1, 0) and det.path_verdict(1, 0) == UP
        assert det.false_positive_count == 1
        assert flips == [(1, 0, UP, DOWN, False), (1, 0, DOWN, UP, True)]
        assert audit.verdicts == [
            (1, 0, UP, DOWN, "transport-evidence"),
            (1, 0, DOWN, UP, "proof-of-life"),
        ]
        # A second ACK on the now-healthy path is not another false alarm.
        det.note_ok(1, 0)
        assert det.false_positive_count == 1 and len(flips) == 2
        assert det.metrics()["false_positive_count"] == 1

    def test_ack_clears_the_retransmission_window(self):
        fabric = make_fabric()
        det = _table(fabric)
        det.note_retransmit(1, 0)
        det.note_retransmit(1, 0)
        det.note_ok(1, 0)
        assert det.path_verdict(1, 0) == UP
        assert det.note_retransmit(1, 0) is False  # counts from one again

    def test_remarking_extends_hold_without_new_detection(self):
        fabric = make_fabric()
        det = _table(fabric)
        assert det.note_timeout(1, 0) is True
        _at(fabric, 3 * MS, lambda: None)
        assert det.note_timeout(1, 0) is False
        assert det.mark_failed(1, 0) is False
        assert det.detection_times == [0] and det.failed_detections == 1
        assert det.flap_suppressions == 2
        _at(fabric, 8 * MS - 1, lambda: None)  # 3 ms + hold, not 0 + hold
        assert det.is_failed(1, 0)
        _at(fabric, 8 * MS, lambda: None)
        assert not det.is_failed(1, 0)

    def test_alive_filters_failed_paths_and_never_strands(self):
        fabric = make_fabric()
        det = _table(fabric)
        paths = (0, 1)
        assert det.alive(1, paths) == (0, 1)
        det.note_timeout(1, 0)
        assert det.alive(1, paths) == (1,)
        det.note_timeout(1, 1)
        assert det.alive(1, paths) == (0, 1)

    def test_defaults_are_declared_once_and_scale(self):
        from repro.detect import transport

        fabric = make_fabric()
        det = build_detector("transport", fabric, 0, time_scale=0.5)
        assert det.hold_ns == transport.DEFAULT_HOLD_NS // 2 == 25 * MS
        assert det.retx_window_ns == transport.DEFAULT_RETX_WINDOW_NS // 2
        assert det.retx_threshold == transport.DEFAULT_RETX_THRESHOLD == 10
        explicit = build_detector(
            "transport:hold=7ms,retx_threshold=2,retx_window=3ms",
            fabric, 0, time_scale=0.5,
        )
        assert (explicit.hold_ns, explicit.retx_threshold,
                explicit.retx_window_ns) == (7 * MS, 2, 3 * MS)

    def test_rejects_bad_parameters(self):
        fabric = make_fabric()
        for bad in (dict(hold_ns=0), dict(retx_threshold=0),
                    dict(retx_window_ns=0)):
            with pytest.raises(ValueError):
                _table(fabric, **bad)


def _hermes_table(fabric):
    from repro.core.parameters import HermesParams
    from repro.core.sensing import HermesLeafState

    params = HermesParams(failure_hold_ns=5 * MS).resolve(fabric.config)
    return HermesLeafState(fabric, 0, params)


@pytest.fixture(params=[_table, _hermes_table], ids=["transport", "hermes"])
def store(request):
    """A failed-path store with a 5 ms hold on a fresh fabric."""
    fabric = make_fabric()
    return fabric, request.param(fabric)


class TestFailedPathStoreContract:
    """The policy-free half of the table contract — what ``mark_failed``
    promises whatever evidence led to it — held by the zoo's transport
    table and by Hermes's leaf table alike."""

    def test_store_carries_every_base_class_field(self, store):
        # HermesLeafState sets Detector's fields without calling its
        # __init__ (see the comment there); this is what keeps them equal.
        fabric, det = store
        assert vars(Detector(fabric, 0)).keys() <= vars(det).keys()

    def test_mark_holds_for_exactly_hold(self, store):
        fabric, det = store
        _at(fabric, 1 * MS, det.mark_failed, 1, 0)
        assert det.is_failed(1, 0) and det.path_verdict(1, 0) == DOWN
        assert not det.is_failed(1, 1)  # per path, not per destination
        assert det.detection_times == [1 * MS]
        _at(fabric, 6 * MS - 1, lambda: None)
        assert det.is_failed(1, 0)
        _at(fabric, 6 * MS, lambda: None)
        assert not det.is_failed(1, 0) and det.path_verdict(1, 0) == UP
        assert det.false_positive_count == 0

    def test_remark_extends_hold_without_new_detection(self, store):
        fabric, det = store
        assert det.mark_failed(1, 0) is True
        _at(fabric, 3 * MS, lambda: None)
        assert det.mark_failed(1, 0) is False
        assert det.detection_times == [0] and det.failed_detections == 1
        assert det.flap_suppressions == 1
        _at(fabric, 8 * MS - 1, lambda: None)  # 3 ms + hold, not 0 + hold
        assert det.is_failed(1, 0)
        _at(fabric, 8 * MS, lambda: None)
        assert not det.is_failed(1, 0)

    def test_alive_never_returns_empty(self, store):
        _, det = store
        assert det.alive(1, (0, 1)) == (0, 1)
        det.mark_failed(1, 0)
        assert det.alive(1, (0, 1)) == (1,)
        det.mark_failed(1, 1)
        assert det.alive(1, (0, 1)) == (0, 1)

    def test_metrics_keys_and_ledger_agree(self, store):
        _, det = store
        det.mark_failed(1, 0)
        det.mark_failed(1, 0)
        metrics = det.metrics()
        assert set(metrics) == {
            "detector", "detections", "false_positive_count",
            "flap_suppressions",
        }
        assert metrics["detector"] == det.name
        assert metrics["detections"] == len(det.detection_times) == 1
        assert metrics["flap_suppressions"] == 1

    def test_flip_reaches_audit_and_listener_once(self, store):
        _, det = store
        det.audit = audit = _AuditSpy()
        flips = []
        det.add_flip_listener(lambda d, dst, path, old, new, refuted:
                              flips.append((d, dst, path, old, new)))
        det.mark_failed(1, 0)
        det.mark_failed(1, 0)  # inside the hold: no second flip
        assert flips == [(det, 1, 0, UP, DOWN)]
        assert [v[:4] for v in audit.verdicts] == [(1, 0, UP, DOWN)]


# --------------------------------------------------------------------- #
# Combiners
# --------------------------------------------------------------------- #


def _transport_pair(fabric):
    return (
        TransportDetector(fabric, 0, hold_ns=50 * MS),
        TransportDetector(fabric, 0, hold_ns=50 * MS),
    )


class TestCombiners:
    def test_fastest_takes_first_down_vote(self):
        fabric = make_fabric()
        a, b = _transport_pair(fabric)
        det = FastestOfDetector(fabric, 0, members=(a, b))
        a.mark_failed(1, 0)
        assert det.path_verdict(1, 0) == DOWN
        assert det.failed_detections == 1

    def test_member_recovery_lifts_combined_verdict(self):
        fabric = make_fabric()
        a, b = _transport_pair(fabric)
        det = FastestOfDetector(fabric, 0, members=(a, b))
        a.mark_failed(1, 0)
        assert det.path_verdict(1, 0) == DOWN
        a.note_ok(1, 0)
        assert det.path_verdict(1, 0) == UP

    def test_metrics_nest_member_blocks(self):
        fabric = make_fabric()
        a, b = _transport_pair(fabric)
        det = FastestOfDetector(fabric, 0, members=(a, b))
        a.mark_failed(1, 0)
        out = det.metrics()
        assert [m["detector"] for m in out["members"]] == [
            "transport", "transport",
        ]
        assert out["members"][0]["detections"] == 1

    def test_combiner_needs_two_members(self):
        fabric = make_fabric()
        (a, _) = _transport_pair(fabric)
        with pytest.raises(ValueError):
            FastestOfDetector(fabric, 0, members=(a,))

    def test_never_strand_fallback(self):
        fabric = make_fabric()
        a, b = _transport_pair(fabric)
        det = FastestOfDetector(fabric, 0, members=(a, b))
        for path in (0, 1):
            a.mark_failed(1, path)
        # Every path condemned: alive() must still offer the full set
        # rather than stranding the flow with nothing to route on.
        assert det.alive(1, (0, 1)) == (0, 1)


class TestCombinerFalsePositives:
    """A combined DOWN that a member refutes is the combiner's own false
    positive; one that ends on real recovery is not."""

    def test_refuted_down_counts_once(self):
        fabric = make_fabric()
        a, b = _transport_pair(fabric)
        det = FastestOfDetector(fabric, 0, members=(a, b))
        det.mark_failed(1, 0)
        det.note_ok(1, 0)
        assert det.path_verdict(1, 0) == UP
        # Each member refuted its own DOWN; the combination was DOWN
        # once, and that one DOWN was wrong.
        assert (a.false_positive_count, b.false_positive_count) == (1, 1)
        assert det.false_positive_count == 1

    def test_refutation_while_another_member_holds_down_does_not_count(self):
        fabric = make_fabric()
        a, b = _transport_pair(fabric)
        det = FastestOfDetector(fabric, 0, members=(a, b))
        a.mark_failed(1, 0)
        b.mark_failed(1, 0)
        a.note_ok(1, 0)
        assert det.path_verdict(1, 0) == DOWN
        assert det.false_positive_count == 0

    def test_late_bfd_echo_counts_when_the_session_comes_back(self):
        # BFD counts on the stale echo and flips UP on the next one: the
        # flip that lifts the combined DOWN carries the refutation.
        fabric = make_fabric()
        bfd = _bfd(fabric)
        det = FastestOfDetector(
            fabric, 0, members=(TransportDetector(fabric, 0), bfd)
        )
        fabric.sim.schedule(1 * MS, _set_link, fabric, 0, 0, True)
        fabric.sim.run(until=3 * MS)
        assert det.path_verdict(1, 0) == DOWN
        down_since = bfd._sessions[(1, 0)].down_since
        for ts_echo in (down_since - 10 * US, fabric.sim.now):
            bfd._on_reply(types.SimpleNamespace(
                src=agent_host_of(fabric, 1), path_id=0, ts_echo=ts_echo,
            ))
        assert det.path_verdict(1, 0) == UP
        assert bfd.false_positive_count == 1
        assert det.false_positive_count == 1

    def test_real_recovery_is_no_false_positive(self):
        fabric = make_fabric()
        det = FastestOfDetector(
            fabric, 0, members=(TransportDetector(fabric, 0), _bfd(fabric))
        )
        fabric.sim.schedule(1 * MS, _set_link, fabric, 0, 0, True)
        fabric.sim.schedule(2 * MS, _set_link, fabric, 0, 0, False)
        fabric.sim.run(until=4 * MS)
        assert det.failed_detections == 1
        assert det.path_verdict(1, 0) == UP
        assert det.false_positive_count == 0
