"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
import sys

import pytest

from repro.net.fabric import Fabric
from repro.net.topology import TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def child_env(**extra: str) -> dict:
    """Environment for a subprocess that must import what this process
    can (``repro``, ``tests``), however pytest was made to find them."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def small_config(**overrides) -> TopologyConfig:
    """A 2x2 leaf-spine with 2 hosts per leaf at 10 Gbps."""
    defaults = dict(
        n_leaves=2,
        n_spines=2,
        hosts_per_leaf=2,
        host_link_gbps=10.0,
        spine_link_gbps=10.0,
        prop_delay_ns=1_000,
        buffer_bytes=750_000,
        ecn_threshold_bytes=97_500,
    )
    defaults.update(overrides)
    return TopologyConfig(**defaults)


def make_fabric(seed: int = 1, **overrides) -> Fabric:
    """A small ready-to-use fabric."""
    return Fabric(Simulator(), small_config(**overrides), RngStreams(seed))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def fabric() -> Fabric:
    return make_fabric()
