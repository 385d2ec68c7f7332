"""repro — reproduction of "Resilient Datacenter Load Balancing in the
Wild" (Hermes, SIGCOMM 2017).

A packet-level discrete-event datacenter simulator plus the Hermes load
balancer and every baseline the paper compares against.  The stable
public surface is :mod:`repro.api`; this package re-exports exactly
its ``__all__``.  Quick start::

    from repro.api import ExperimentConfig, run_experiment, bench_topology

    result = run_experiment(
        ExperimentConfig(
            topology=bench_topology(),
            lb="hermes",
            workload="web-search",
            load=0.5,
            n_flows=200,
            size_scale=0.1,
        )
    )
    print(result.mean_fct_ms, "ms")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro import api
from repro.api import *  # noqa: F401,F403 — the facade, name for name

__version__ = "1.0.0"

__all__ = [*api.__all__, "__version__"]
