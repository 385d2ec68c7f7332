"""Smoke test of the benchmark suite itself.

    python3 -m pytest benchmarks/suite

Not part of tier-1 (``testpaths`` is ``tests``): it runs every workload
at ``--smoke`` size, traced and untraced, through the real command, and
takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import harness

harness.add_src_to_path()

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(harness.SUITE_DIR, "run.py")
SPEC = harness.load_benchmark_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_suite(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--smoke",
         "--seconds", "2", "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> dict:
    return {w: run_suite(w, 0) for w in workloads.WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: run_suite(w, 1) for w in workloads.WORKLOAD_NAMES}


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted(untraced, workload):
    result = untraced[workload]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    # Never 0, never null: a 0 would make every ratio against it useless.
    assert all(v > 0 for v in values(result).values())


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_every_per_layer_metric_is_emitted(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(v is not None and v >= 0 for v in values(result).values())


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_layer_shares_sum_to_one(traced, workload):
    v = values(traced[workload])
    total = v["harness.other_share"] + sum(
        v[f"{layer}.self_share"] for layer in layers.LAYERS
    )
    assert total == pytest.approx(1.0, abs=0.01)
    assert v["harness.trace_overhead_x"] > 0


def test_event_count_repeats_exactly(traced):
    again = values(run_suite("bulk_ecmp", 1))
    first = values(traced["bulk_ecmp"])
    for name in ("sim.events", "sim.calls", "net.calls", "transport.retx"):
        assert again[name] == first[name] and first[name] > 0


def test_separation_predictions_hold(traced):
    v = {w: values(traced[w]) for w in workloads.WORKLOAD_NAMES}

    def decisions(w: str) -> float:
        return v[w]["lb.self_share"] + v[w]["core.self_share"]

    assert decisions("bulk_ecmp") < decisions("scheme_grid")
    assert decisions("bulk_ecmp") <= 0.02
    assert v["serve_jobs"]["serve.rejected"] == 0
    assert v["serve_jobs"]["serve.calls"] > 0
    assert v["serve_jobs"]["serve.run_ms_p50"] > 0
    for w in ("bulk_ecmp", "scheme_grid", "mice_churn"):
        assert v[w]["serve.calls"] == 0 and v[w]["serve.run_ms_p50"] == 0
    for w in ("bulk_ecmp", "mice_churn", "serve_jobs"):
        assert v[w]["detect.calls"] == 0 and v[w]["faults.calls"] == 0
        assert v[w]["faults.fault_overhead_x"] == 0
    assert v["scheme_grid"]["detect.calls"] > 0 and v["scheme_grid"]["faults.calls"] > 0
    assert v["scheme_grid"]["faults.fault_overhead_x"] > 1
    assert v["scheme_grid"]["lb.hermes.fault_cell_ms"] > 0
    assert v["mice_churn"]["metrics.streaming_overhead_x"] > 0
    # Tracing and validation are off everywhere.  Streaming statistics
    # keep their t-digest in repro.telemetry.digest, so mice_churn is the
    # one workload that legitimately enters that package.
    for w in ("bulk_ecmp", "scheme_grid", "serve_jobs"):
        assert v[w]["observe.calls_when_off"] == 0


def test_a_digest_mismatch_is_a_failed_operation():
    def sample(digest: str, finished: int = 10):
        return workloads.CellSample(1.0, digest, 10, finished, 100)

    clean = workloads.check_cells("bulk_ecmp", 99, True, {"c": [sample("a"), sample("a")]})
    assert (clean["attempted"], clean["failed"]) == (20, 0)
    differs = workloads.check_cells("bulk_ecmp", 99, True, {"c": [sample("a"), sample("b")]})
    assert differs["failed"] == 10 and differs["notes"]
    unfinished = workloads.check_cells("bulk_ecmp", 99, True, {"c": [sample("a", 7)]})
    assert unfinished["failed"] == 3
    # The default seed at full size is pinned in expected.json.
    pinned = workloads.check_cells(
        "bulk_ecmp", harness.DEFAULT_SEED, False, {"dctcp@0.5": [sample("a")]}
    )
    assert pinned["failed"] == 10


def test_children_do_not_see_the_switches(monkeypatch):
    for name in harness.SCRUBBED_ENV:
        monkeypatch.setenv(name, "1")
    env = harness.scrubbed_env()
    assert not set(harness.SCRUBBED_ENV) & set(env)
    assert "PATH" in env


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.05)[0] == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.05)[0] == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.05)[0] == "better"
    noisy = [80.0, 120.0, 95.0, 130.0, 70.0]
    assert compare.verdict(steady, noisy, "lower", 0.05)[0] == "unresolved"


def test_compare_reads_result_files(tmp_path, untraced):
    path = tmp_path / "A.json"
    path.write_text(json.dumps({"runs": [
        dict(untraced[w], workload=w, trace=0) for w in workloads.WORKLOAD_NAMES
    ]}))
    rows = compare.compare(str(path), str(path))
    assert len(rows) == len(workloads.WORKLOAD_NAMES) * len(SPEC["end_to_end"])
    assert {r["verdict"] for r in rows} == {"same"}
