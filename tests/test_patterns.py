"""Unit tests for the incast traffic pattern."""

import random

import pytest

from repro.workload.patterns import incast
from tests.conftest import small_config


class TestIncast:
    def test_right_number_of_senders(self):
        arrivals = incast(small_config(), 0, 2, 10_000, random.Random(0))
        assert len(arrivals) == 2
        assert all(a.dst == 0 for a in arrivals)

    def test_senders_unique(self):
        cfg = small_config(hosts_per_leaf=8)
        arrivals = incast(cfg, 0, 8, 10_000, random.Random(0))
        assert len({a.src for a in arrivals}) == 8

    def test_inter_rack_only(self):
        cfg = small_config()
        arrivals = incast(cfg, 0, 2, 10_000, random.Random(0))
        assert all(a.src // 2 != 0 for a in arrivals)

    def test_jitter_bounds(self):
        arrivals = incast(
            small_config(), 0, 2, 10_000, random.Random(0),
            start_ns=100, jitter_ns=50,
        )
        assert all(100 <= a.time_ns < 150 for a in arrivals)

    def test_too_many_senders_rejected(self):
        with pytest.raises(ValueError):
            incast(small_config(), 0, 100, 10_000, random.Random(0))

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            incast(small_config(), 99, 1, 10_000, random.Random(0))

