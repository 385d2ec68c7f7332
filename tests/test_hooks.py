"""Tests for repro.hooks.attach — one call wires a run's observers.

The checker reaches the fabric, the engine and every port; the tracer
the fabric and every port; the audit Hermes's agents, leaf tables and
detectors.  A fabric nobody attached to stays on the fast path.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.hooks import attach
from repro.lb.factory import install_lb
from repro.telemetry.audit import DecisionAudit
from tests.conftest import make_fabric


class FakeChecker:
    """Minimal checker: just the watch_port() surface attach needs."""

    def __init__(self):
        self.watched = []

    def watch_port(self, port):
        self.watched.append(port)


class FakeTracer:
    pass


class TestAttach:
    def test_fabric_starts_unobserved(self):
        fabric = make_fabric()
        assert fabric._checker is None and fabric._tracer is None
        assert fabric.sim._checker is None and fabric.sim._profiler is None
        assert fabric._fast
        assert not any(port._guarded for port in fabric.topology.all_ports())

    def test_attach_checker_wires_fabric_sim_and_ports(self):
        fabric = make_fabric()
        checker = FakeChecker()
        attach(fabric, checker=checker)
        assert fabric._checker is checker
        assert fabric.sim._checker is checker
        assert set(checker.watched) == set(fabric.topology.all_ports())
        assert not fabric._fast

    def test_attach_tracer_wires_fabric_and_every_port(self):
        fabric = make_fabric()
        tracer = FakeTracer()
        attach(fabric, tracer=tracer)
        assert fabric._tracer is tracer
        assert fabric._checker is None
        assert all(
            port._tracer is tracer for port in fabric.topology.all_ports()
        )


class TestSubsystemIntegration:
    def test_traced_validated_run_attaches_every_observer(self):
        result = run_experiment(ExperimentConfig(
            topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
            lb="hermes",
            n_flows=4,
            size_scale=0.05,
            time_scale=0.05,
            validate=True,
            trace=True,
        ))
        fabric, telemetry = result.fabric, result.telemetry
        checker = fabric._checker
        assert checker is not None and fabric.sim._checker is checker
        assert fabric._tracer is telemetry.tracer
        assert fabric.sim._profiler is telemetry.profiler
        for state in result.scheme.leaf_states.values():
            assert state.checker is checker
            assert state.audit is telemetry.audit
        assert result.invariants["violations"] == 0

    def test_shared_wiring_reaches_hermes_leaf_states(self):
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        audit = DecisionAudit(fabric.sim)
        attach(fabric, audit=audit, scheme=shared)
        for host in fabric.hosts:
            assert host.lb.audit is audit
        for state in shared.leaf_states.values():
            assert state.audit is audit

    def test_audit_reaches_every_detector(self):
        fabric = make_fabric()
        shared = install_lb(fabric, "ecmp", detector="bfd")
        assert shared.detectors
        audit = DecisionAudit(fabric.sim)
        attach(fabric, audit=audit, scheme=shared)
        for detector in shared.detectors.values():
            assert detector.audit is audit
