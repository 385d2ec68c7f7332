"""Tests for repro.api — the stable public facade.

The facade's promises: every name in ``__all__`` resolves, configs
round-trip through dicts (and therefore JSON), results round-trip
through save/load, and ``run_grid`` is ``run_experiment`` with fan-out —
bit-identical either way.
"""

import dataclasses
import io
import json
import pickle

import pytest

import repro
import repro.api as api
from repro.api import (
    ExperimentConfig,
    ExperimentResult,
    FaultEventSpec,
    FaultScheduleSpec,
    FctStats,
    FlowRecord,
    ResultSummary,
    StreamingFctStats,
    bench_topology,
    load_result,
    run_experiment,
    run_grid,
    save_result,
)


def _small_config(**overrides):
    defaults = dict(
        topology=bench_topology(),
        lb="conga",
        workload="web-search",
        load=0.5,
        n_flows=20,
        seed=3,
        size_scale=0.05,
        time_scale=0.05,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestSurface:
    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_all_is_the_single_source_of_truth(self):
        """``__all__`` and the module's public namespace agree exactly:
        no duplicate entries, no public name missing from ``__all__``,
        nothing exported that doesn't exist.  Adding a facade import
        without listing it (or vice versa) fails here."""
        import inspect

        typing_noise = {
            "Any", "Dict", "IO", "List", "Optional", "Sequence", "Union",
            "annotations",
        }
        public = {
            name
            for name, value in vars(api).items()
            if not name.startswith("_")
            and not inspect.ismodule(value)
            and name not in typing_noise
        }
        assert len(api.__all__) == len(set(api.__all__))
        assert public == set(api.__all__)

    def test_removed_surface_stays_removed(self):
        """Deleted, not deprecated: the sharded runner (PR 13), the
        TopologySpec / Clos layer and ``wheel:auto`` (PR 22) left no
        alias, module or scheduler name behind."""
        import importlib

        assert not [name for name in api.__all__ if "shard" in name]
        for name in ("TopologySpec", "LeafSpineSpec", "ClosSpec",
                     "spec_from_dict", "as_topology_spec", "grid_results"):
            assert not hasattr(api, name), name
        for module in ("repro.net.spec", "repro.net.clos", "repro.sim.tuning"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        assert api.SCHEDULERS == ("heap", "wheel")
        with pytest.raises(ValueError, match=r"unknown scheduler 'wheel:auto'"):
            _small_config(scheduler="wheel:auto")

    def test_package_root_reexports_facade(self):
        for name in ("run_experiment", "run_grid", "save_result",
                     "load_result", "ResultSummary", "HookSet"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_package_root_is_exactly_the_facade(self):
        """One public surface: the root publishes ``repro.api.__all__``
        and its version, nothing the facade lacks."""
        assert set(repro.__all__) == set(api.__all__) | {"__version__"}
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name

    def test_facade_objects_are_the_real_objects(self):
        from repro.experiments.runner import run_experiment as internal

        assert api.run_experiment is internal


#: A ``faults`` section (a failure from t=0 and a timed outage), for the
#: cases that need every nested dataclass of a config present.
_NESTED_SECTIONS = dict(
    faults=FaultScheduleSpec(events=(
        FaultEventSpec(action="random_drop_start", time_ns=0, spine=1,
                       drop_rate=0.05),
        FaultEventSpec(action="link_down", time_ns=5_000_000, leaf=0, spine=1),
        FaultEventSpec(action="link_up", time_ns=9_000_000, leaf=0, spine=1),
    )),
)


class TestConfigRoundTrip:
    def test_plain_config(self):
        config = _small_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_config_with_failure_faults_and_overrides(self):
        topology = dataclasses.replace(
            bench_topology(), link_overrides={(0, 1): 4.0, (1, 0): 4.0}
        )
        config = _small_config(
            topology=topology,
            **_NESTED_SECTIONS,
            lb_params={"flowlet_gap_us": 50.0},
            scheduler="wheel",
        )
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.topology.link_overrides == {(0, 1): 4.0, (1, 0): 4.0}

    def test_round_trip_survives_json(self):
        config = _small_config(scheduler="wheel")
        wire = json.dumps(config.to_dict(), sort_keys=True)
        assert ExperimentConfig.from_dict(json.loads(wire)) == config

    def test_from_dict_rejects_unknown_keys(self):
        data = _small_config().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict(data)

    def test_from_dict_rejects_removed_shards_key(self):
        """``shards`` was deleted with the sharded runner and ``failure``
        with the static injection path, not defaulted: a stale key fails
        by name instead of being silently ignored."""
        for key in ("shards", "failure"):
            data = _small_config().to_dict()
            data[key] = None
            with pytest.raises(
                ValueError, match=rf"unknown config keys: \['{key}'\]"
            ):
                ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("section, key, target", [
        ("topology", "kind", lambda d: d["topology"]),
        ("faults.events[]", "pod", lambda d: d["faults"]["events"][1]),
    ], ids=["topology", "fault-event"])
    def test_from_dict_names_unknown_keys_inside_sections(
        self, section, key, target
    ):
        """A stale key inside a nested section is a bad request named by
        section and key, not the dataclass constructor's ``TypeError``."""
        data = _small_config(**_NESTED_SECTIONS).to_dict()
        target(data)[key] = 1
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.from_dict(data)
        assert f"unknown {section} keys: ['{key}']; known: [" in str(exc.value)

    def test_from_dict_requires_topology(self):
        with pytest.raises(ValueError, match="topology"):
            ExperimentConfig.from_dict({"lb": "ecmp"})

    def test_round_tripped_config_runs_identically(self):
        config = _small_config()
        twin = ExperimentConfig.from_dict(config.to_dict())
        a = run_experiment(config)
        b = run_experiment(twin)
        assert a.stats.records == b.stats.records


class TestResultRoundTrip:
    def test_save_load_path(self, tmp_path):
        result = run_experiment(_small_config())
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.stats.records == result.stats.records
        assert loaded.events == result.events
        assert loaded.sim_time_ns == result.sim_time_ns
        assert loaded.config == result.config
        assert loaded.mean_fct_ms == pytest.approx(result.mean_fct_ms)

    def test_save_load_stream(self):
        result = run_experiment(_small_config())
        buffer = io.StringIO()
        save_result(result, buffer)
        buffer.seek(0)
        loaded = load_result(buffer)
        assert loaded.stats.records == result.stats.records

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 999}')
        with pytest.raises(ValueError, match="format"):
            load_result(path)


_SUMMARY_FIELDS = [f.name for f in dataclasses.fields(ResultSummary)]


def _full_summary_values(streaming: bool) -> dict:
    """A non-default value for every ``ResultSummary`` field, by name.
    A field added without an entry here fails every parity case."""
    outcomes = [(4_000, 1_000_000, 0, 0), (90_000, 7_000_000, 3, 1),
                (2_000_000, None, 5, 2)]
    if streaming:
        stats = StreamingFctStats(small_bytes=5_000, large_bytes=500_000)
        for outcome in outcomes:
            stats.add(*outcome)
    else:
        stats = FctStats(
            [FlowRecord(i, 0, 2, size, 10 * i, fct, retx, rto)
             for i, (size, fct, retx, rto) in enumerate(outcomes)],
            small_bytes=5_000, large_bytes=500_000,
        )
    return {
        "config": _small_config(
            lb="reps", detector="bfd", scheduler="heap",
            streaming_stats=streaming,
        ),
        "stats": stats,
        "sim_time_ns": 12_345_678,
        "events": 930_121,
        "total_reroutes": 17,
        "visibility_switch_pair": 0.5,
        "visibility_host_pair": 0.125,
        "fault_timeline": (
            {"time_ns": 1_000, "action": "link_down", "phase": "apply"},
            {"time_ns": 9_000, "action": "link_up", "phase": "apply"},
        ),
        "detection_ns": 300_000,
        "recovery_ns": 2_500_000,
        "unrecovered_timeouts": 2,
        "scheduler_info": {"name": "heap"},
        "detector_metrics": {
            "detector": "bfd", "detections": 4, "false_positive_count": 1,
            "flap_suppressions": 2, "detection_ns": 300_000,
        },
        "probe_losses": 2_001,
        "invariants": {"events_checked": 930_121, "violations": 0},
        "telemetry_summary": {"trace": {"recorded": 5, "by_kind": {"send": 5}}},
        "error": "cell exceeded REPRO_CELL_TIMEOUT=1s",
    }


def _comparable(name: str, value):
    """Stats objects define no ``==``; compare what they hold."""
    if name != "stats":
        return value
    if value.is_streaming:
        return value.to_dict()
    return (value.records, value.small_bytes, value.large_bytes)


@pytest.mark.parametrize("streaming", [False, True], ids=["exact", "streaming"])
@pytest.mark.parametrize("name", _SUMMARY_FIELDS)
def test_result_field_survives_every_copy(name, streaming):
    """The guard for "one field list": a field declared on
    ``ResultSummary`` but dropped by a copier or a serializer fails its
    own case here (``scheduler_info``, ``detector_metrics`` and
    ``probe_losses`` did not survive ``save_result`` before)."""
    values = _full_summary_values(streaming)
    summary = ResultSummary(**{n: values[n] for n in _SUMMARY_FIELDS})
    want = _comparable(name, values[name])

    field = {f.name: f for f in dataclasses.fields(ResultSummary)}[name]
    if field.default is not dataclasses.MISSING:
        assert values[name] != field.default, "fixture must not use the default"
    elif field.default_factory is not dataclasses.MISSING:
        assert values[name] != field.default_factory()

    pickled = pickle.loads(pickle.dumps(summary, pickle.HIGHEST_PROTOCOL))
    assert _comparable(name, getattr(pickled, name)) == want

    live = ExperimentResult(**values, fabric=object(), telemetry=object())
    copied = ResultSummary.from_result(live)
    assert type(copied) is ResultSummary
    assert getattr(copied, name) is values[name]

    buffer = io.StringIO()
    save_result(summary, buffer)
    buffer.seek(0)
    loaded = getattr(load_result(buffer), name)
    assert _comparable(name, loaded) == want
    assert type(loaded) is type(values[name])


class TestRunGrid:
    def test_run_reports_ride_the_summary(self):
        """The invariant report and the telemetry summary are result
        fields, so they cross the ``run_grid`` boundary with the rest
        (they used to live on the in-process scheme dict only)."""
        plain, watched = run_grid(
            [_small_config(), _small_config(validate=True, trace=True)],
            jobs=1, use_cache=False,
        )
        assert plain.invariants is None and plain.telemetry_summary is None
        assert watched.invariants["violations"] == 0
        assert watched.invariants["events_checked"] == watched.events
        assert watched.telemetry_summary["trace"]["recorded"] > 0

    def test_matches_serial_run_experiment(self):
        configs = [_small_config(lb=lb) for lb in ("ecmp", "conga")]
        serial = [run_experiment(c) for c in configs]
        grid = run_grid(configs, jobs=1, use_cache=False)
        for a, b in zip(serial, grid):
            assert a.stats.records == b.stats.records

    def test_wheel_scheduler_through_the_facade(self):
        config = _small_config(scheduler="wheel")
        heap = run_experiment(_small_config())
        wheel = run_experiment(config)
        assert heap.stats.records == wheel.stats.records
