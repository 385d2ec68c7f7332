"""Tests for repro.hooks.HookSet — the unified attach/detach surface.

One fabric, four observer slots (checker / tracer / audit / profiler),
one rule: attach refuses to overwrite, detach is idempotent, and the
legacy hand-wired attributes survive only as deprecated properties.
"""

import warnings

import pytest

from repro.hooks import SLOTS, HookSet
from repro.lb.factory import install_lb
from repro.validate.checker import install_checker
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
    def test_fabric_builds_an_empty_hookset(self):
        fabric = make_fabric()
        assert isinstance(fabric.hooks, HookSet)
        assert fabric.hooks.occupied() == {}
        for slot in SLOTS:
            assert fabric.hooks.occupant(slot) is None

    def test_attach_checker_wires_fabric_sim_and_ports(self):
        fabric = make_fabric()
        checker = FakeChecker()
        fabric.hooks.attach(checker=checker)
        assert fabric.hooks.occupant("checker") is checker
        assert fabric._checker is checker
        assert fabric.sim._checker is checker
        assert set(checker.watched) == set(fabric.topology.all_ports())

    def test_attach_tracer_wires_fabric_and_every_port(self):
        fabric = make_fabric()
        tracer = FakeTracer()
        fabric.hooks.attach(tracer=tracer)
        assert fabric._tracer is tracer
        assert all(
            port._tracer is tracer for port in fabric.topology.all_ports()
        )

    def test_attach_refuses_occupied_slot(self):
        fabric = make_fabric()
        fabric.hooks.attach(tracer=FakeTracer())
        with pytest.raises(RuntimeError, match="already has a tracer"):
            fabric.hooks.attach(tracer=FakeTracer())

    def test_attach_same_object_twice_is_a_no_op(self):
        fabric = make_fabric()
        tracer = FakeTracer()
        fabric.hooks.attach(tracer=tracer)
        fabric.hooks.attach(tracer=tracer)  # idempotent, no error
        assert fabric.hooks.occupant("tracer") is tracer

    def test_failed_attach_wires_nothing(self):
        """Atomicity: if ANY requested slot is occupied, no requested
        slot changes — the checker below must stay unattached."""
        fabric = make_fabric()
        fabric.hooks.attach(tracer=FakeTracer())
        checker = FakeChecker()
        with pytest.raises(RuntimeError):
            fabric.hooks.attach(checker=checker, tracer=FakeTracer())
        assert fabric.hooks.occupant("checker") is None
        assert fabric._checker is None
        assert checker.watched == []

    def test_attach_returns_self_for_chaining(self):
        fabric = make_fabric()
        assert fabric.hooks.attach(tracer=FakeTracer()) is fabric.hooks


class TestDetach:
    def test_detach_tracer_unwires_everything(self):
        fabric = make_fabric()
        fabric.hooks.attach(tracer=FakeTracer())
        fabric.hooks.detach(tracer=True)
        assert fabric.hooks.occupant("tracer") is None
        assert fabric._tracer is None
        assert all(
            port._tracer is None for port in fabric.topology.all_ports()
        )

    def test_detach_frees_slot_for_reattach(self):
        fabric = make_fabric()
        fabric.hooks.attach(tracer=FakeTracer())
        fabric.hooks.detach(tracer=True)
        replacement = FakeTracer()
        fabric.hooks.attach(tracer=replacement)
        assert fabric._tracer is replacement

    def test_detach_on_empty_slot_is_a_no_op(self):
        fabric = make_fabric()
        fabric.hooks.detach(checker=True, tracer=True)
        assert fabric.hooks.occupied() == {}

    def test_detach_all(self):
        fabric = make_fabric()
        fabric.hooks.attach(checker=FakeChecker(), tracer=FakeTracer())
        fabric.hooks.detach_all()
        assert fabric.hooks.occupied() == {}
        assert fabric._checker is None
        assert fabric.sim._checker is None


class TestSubsystemIntegration:
    def test_install_checker_goes_through_hookset(self):
        fabric = make_fabric()
        install_lb(fabric, "ecmp")
        checker = install_checker(fabric)
        assert fabric.hooks.occupant("checker") is checker
        with pytest.raises(RuntimeError, match="already has a checker"):
            install_checker(fabric)

    def test_install_telemetry_goes_through_hookset(self):
        from repro.telemetry import install_telemetry

        fabric = make_fabric()
        install_lb(fabric, "ecmp")
        telemetry = install_telemetry(fabric)
        assert fabric.hooks.occupant("tracer") is telemetry.tracer
        assert fabric.hooks.occupant("profiler") is telemetry.profiler

    def test_shared_wiring_reaches_hermes_leaf_states(self):
        from repro.telemetry import install_telemetry, watch_lb

        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        telemetry = install_telemetry(fabric)
        watch_lb(telemetry, fabric, shared)
        audit = fabric.hooks.occupant("audit")
        assert audit is telemetry.audit
        for state in shared.leaf_states.values():
            assert state.audit is audit


class TestRemovedLegacysetters:
    """The per-object hook attributes are read-only properties: readable
    forever, assignment a hard ``AttributeError`` (hooks attach through
    the HookSet API only)."""

    def _assert_write_rejected(self, obj, attr, value):
        with pytest.raises(AttributeError):
            setattr(obj, attr, value)

    def test_fabric_checker_and_tracer_setters_raise(self):
        fabric = make_fabric()
        self._assert_write_rejected(fabric, "checker", FakeChecker())
        self._assert_write_rejected(fabric, "tracer", FakeTracer())

    def test_sim_checker_and_profiler_setters_raise(self):
        fabric = make_fabric()
        self._assert_write_rejected(fabric.sim, "checker", FakeChecker())
        self._assert_write_rejected(fabric.sim, "profiler", object())

    def test_port_checker_and_tracer_setters_raise(self):
        fabric = make_fabric()
        port = next(iter(fabric.topology.all_ports()))
        self._assert_write_rejected(port, "checker", FakeChecker())
        self._assert_write_rejected(port, "tracer", FakeTracer())

    def test_rejected_write_changes_nothing(self):
        fabric = make_fabric()
        self._assert_write_rejected(fabric.sim, "checker", FakeChecker())
        assert fabric.sim.checker is None

    def test_getters_read_silently_and_reflect_hookset(self):
        fabric = make_fabric()
        tracer = FakeTracer()
        fabric.hooks.attach(tracer=tracer)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fabric.tracer is tracer
            assert fabric.checker is None
            assert fabric.sim.checker is None
            port = next(iter(fabric.topology.all_ports()))
            assert port.tracer is tracer
