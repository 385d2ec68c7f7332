"""Table 6 — probing schemes: visibility versus overhead.

Paper values (100x100 leaf-spine, 64 B probes every 500 us):

    scheme      piggyback  brute force  power-of-two  Hermes
    visibility  < 0.01     100          > 3           > 3
    overhead    n/a        100x         3x            3%

Reproduced two ways: (a) the analytical model with the conventions
derived in EXPERIMENTS.md; (b) a measured data point — a live prober's
probe rate on a small fabric, confirming the per-rack amortization.
"""

from _common import emit
from repro.experiments.report import format_table
from repro.lb.factory import install_lb
from repro.core.probing import probe_overhead_model
from repro.net.packet import PROBE_BYTES
from tests.conftest import make_fabric


def analytic():
    return probe_overhead_model(
        n_leaves=100, n_spines=100, hosts_per_leaf=100,
        link_gbps=10.0, probe_bytes=PROBE_BYTES, probe_interval_us=500.0,
        piggyback_visibility=0.009,
    )


def measured_probe_overhead():
    """Run a live prober for 10 ms and measure its send rate."""
    fabric = make_fabric(n_leaves=4, n_spines=4, hosts_per_leaf=4)
    shared = install_lb(fabric, "hermes")
    horizon_ns = 10_000_000
    fabric.sim.run(until=horizon_ns)
    prober = shared.probers[0]
    bits = prober.probes_sent * PROBE_BYTES * 8
    rate_bps = bits / (horizon_ns / 1e9)
    return rate_bps / (fabric.config.host_link_gbps * 1e9)


def test_table6_probing(once):
    model = once(analytic)
    live = measured_probe_overhead()
    headers = ["scheme", "visibility", "overhead (x capacity)"]
    rows = [
        [name, vals["visibility"], vals["overhead"]]
        for name, vals in model.items()
    ]
    body = format_table(headers, rows)
    body += (
        f"\npaper:      piggyback <0.01/-, brute 100/100x, po2c >3/3x, "
        f"hermes >3/3%"
        f"\nmeasured:   live 4x4 prober agent overhead = {live:.5f}x capacity"
    )
    emit("table6_probing", "Table 6: probing visibility vs overhead", body)

    assert model["brute-force"]["overhead"] > 50
    assert 1 < model["power-of-two-choices"]["overhead"] < 10
    assert 0.01 < model["hermes"]["overhead"] < 0.1
    assert model["piggyback"]["overhead"] == 0.0
    # The live prober's overhead is tiny (well under 1% of the edge link).
    assert live < 0.01
