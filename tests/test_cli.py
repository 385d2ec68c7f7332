"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.lb == "hermes"
        assert args.topology == "bench"
        assert args.load == 0.6

    def test_compare_schemes(self):
        args = build_parser().parse_args(["compare", "--schemes", "a,b"])
        assert args.schemes == "a,b"

    def test_lb_help_is_generated_from_registry(self):
        """The --lb/--schemes help text lists every registered scheme —
        derived from the factory, never a stale literal."""
        from repro.lb.factory import scheme_names

        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0].choices
        # argparse wraps long help lines (splitting e.g. "clove-ecn"
        # across a newline), so compare whitespace-free.
        run_help = "".join(subparsers["run"].format_help().split())
        compare_help = "".join(subparsers["compare"].format_help().split())
        for scheme in scheme_names():
            assert scheme in run_help
            assert scheme in compare_help

    def test_hosts_per_leaf_overrides_rack_size(self):
        from repro.cli import _config_from_args

        args = build_parser().parse_args(
            ["run", "--lb", "ecmp", "--hosts-per-leaf", "3"]
        )
        assert _config_from_args(args, "ecmp").topology.hosts_per_leaf == 3

    def test_replay_command_reruns_the_faulted_experiment(self):
        """A violation's replay line carries the fault schedule, the
        detector and the drain cap, not just the traffic knobs."""
        import shlex
        from dataclasses import replace

        from repro.cli import _config_from_args
        from repro.validate.checker import experiment_command
        from repro.validate.fuzz import chaos_config

        # A blackhole from t=0 plus a degrade / restore window.
        config = replace(chaos_config(3, with_faults=True),
                         detector="bfd:tx=23547,mult=5")
        argv = shlex.split(experiment_command(config))[3:]  # python -m repro
        replayed = _config_from_args(build_parser().parse_args(argv), config.lb)
        for field in ("faults", "detector", "extra_drain_ns", "validate",
                      "scheduler"):
            assert getattr(replayed, field) == getattr(config, field), field
        assert len(replayed.faults.events) == 3

    def test_every_accepted_flag_is_read(self):
        """No shared parent hands a command flags it ignores: 109
        (command, flag) pairs, each one read by its command."""
        import argparse

        def pairs(parser, prefix=()):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, child in action.choices.items():
                        yield from pairs(child, prefix + (name,))
                elif prefix and action.option_strings[:1] not in ([], ["-h"]):
                    yield " ".join(prefix), action.option_strings[-1]

        accepted = set(pairs(build_parser()))
        assert len(accepted) == 109
        assert {c for c, f in accepted if f == "--validate"} == {
            "run", "compare", "submit", "trace run"}
        assert {c for c, f in accepted if f == "--jobs"} == {
            "compare", "submit"}
        assert {c for c, f in accepted if f == "--no-cache"} == {
            "run", "compare", "serve"}
        assert {c for c, f in accepted if f == "--scheduler"} == {
            "run", "compare", "submit", "trace run", "chaos", "golden"}
        assert not [c for c, f in accepted if f == "--trace"]

    @pytest.mark.parametrize("argv", [
        ["cache", "--trace"],
        ["serve", "--validate"],
        ["jobs", "--scheduler", "heap"],
        ["run", "--jobs", "2"],
        ["run", "--trace"],
        ["trace", "summarize", "--no-cache"],
        ["golden", "--jobs", "2"],
    ])
    def test_ignored_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_asymmetric_rejected_for_failure_bench(self, capsys):
        code = main(["run", "--lb", "ecmp", "--topology", "failure-bench",
                     "--asymmetric", "--flows", "5"])
        assert code == 2
        assert "--asymmetric" in capsys.readouterr().err

    def test_resized_presets_equal_their_builders(self):
        """``--hosts-per-leaf`` resizes a preset without redrawing its
        asymmetric links: the draw depends on leaves, spines and seed."""
        from repro.cli import _config_from_args
        from repro.experiments.scenarios import (
            bench_topology, failure_bench_topology)

        parser = build_parser()
        for argv, expected in (
            (["--asymmetric"], bench_topology(asymmetric=True,
                                               hosts_per_leaf=3)),
            (["--topology", "failure-bench"],
             failure_bench_topology(hosts_per_leaf=3)),
        ):
            args = parser.parse_args(["run", "--hosts-per-leaf", "3", *argv])
            assert _config_from_args(args, "ecmp").topology == expected

    def test_hosts_per_leaf_rejected_for_fixed_topologies(self, capsys):
        code = main(["run", "--lb", "ecmp", "--topology", "testbed",
                     "--hosts-per-leaf", "3", "--flows", "5"])
        assert code == 2
        assert "--hosts-per-leaf" in capsys.readouterr().err

    def test_spraying_schemes_get_reorder_mask(self):
        """Per-packet sprayers (old and new) get the receiver reordering
        mask the moment the config is built from CLI flags."""
        from repro.cli import _config_from_args
        from repro.lb.factory import SPRAYING_SCHEMES

        parser = build_parser()
        for scheme in SPRAYING_SCHEMES:
            args = parser.parse_args(["run", "--lb", scheme])
            assert _config_from_args(args, scheme).reorder_mask_us is not None
        args = parser.parse_args(["run", "--lb", "ecmp"])
        assert _config_from_args(args, "ecmp").reorder_mask_us is None


class TestCommands:
    def test_probe_model(self, capsys):
        assert main(["probe-model"]) == 0
        out = capsys.readouterr().out
        assert "brute-force" in out
        assert "hermes" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--lb", "ecmp", "--flows", "10", "--size-scale", "0.05",
            "--load", "0.4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg FCT" in out
        assert "ecmp" in out

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--schemes", "ecmp,hermes", "--flows", "10",
            "--size-scale", "0.05", "--load", "0.4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hermes" in out

    def test_compare_empty_schemes_fails(self):
        assert main(["compare", "--schemes", ",", "--flows", "5"]) == 2

    def test_run_with_failure(self, capsys):
        code = main([
            "run", "--lb", "hermes", "--flows", "10", "--size-scale", "0.05",
            "--faults", "random_drop_start@0:spine=0,rate=0.05",
        ])
        assert code == 0
        assert "random_drop_start" in capsys.readouterr().out  # the timeline

    def test_unknown_scheme_is_a_clean_error(self, capsys):
        # Bad values exit 2 with a one-line message, not a traceback.
        assert main(["run", "--lb", "bogus", "--flows", "5"]) == 2
        err = capsys.readouterr().err
        assert "unknown load balancer 'bogus'" in err


#: stdout of two commands at the commit before every results table
#: came from one printer; the printer must reproduce it byte for byte.
PARENT = {
    ("run", "--lb", "ecmp", "--flows", "10", "--size-scale", "0.05",
     "--load", "0.4"): [
        'scheme  avg FCT (ms)  small avg  small p99  large avg  unfinished  reroutes',
        '------  ------------  ---------  ---------  ---------  ----------  --------',
        'ecmp    0.0254        0.0117     0.0156     -          0           0       ',
        '',
    ],
    ("compare", "--schemes", "ecmp,hermes", "--flows", "30", "--jobs", "1",
     "--no-cache", "--faults", "link_down@1ms:leaf=0,spine=1"): [
        'scheme  avg FCT (ms)  small avg  small p99  large avg  unfinished  reroutes',
        '------  ------------  ---------  ---------  ---------  ----------  --------',
        'ecmp    0.0596        0.0204     0.0994     -          0           0       ',
        'hermes  0.0487        0.0166     0.0280     -          0           0       ',
        '',
        'fault plane:',
        'scheme  detect (ms)  recover (ms)  unrecovered',
        '------  -----------  ------------  -----------',
        'ecmp    -            -             0          ',
        'hermes  -            -             0          ',
        '',
        'fault timeline:',
        '  t=     1.000ms  link_down         leaf0<->spine1        applied',
        '',
    ],
}

#: A faulted grid whose cells detect and recover (so the fault plane
#: prints times) and have an empty size class (a ``-`` column).
GRID = ["--schemes", "ecmp,hermes", "--flows", "30", "--size-scale", "0.05",
        "--faults", "link_down@1ms:leaf=0,spine=1; link_up@3ms:leaf=0,spine=1",
        "--detector", "bfd:tx=100us,mult=3"]


class TestResultsTable:
    @pytest.mark.parametrize("argv", list(PARENT), ids=["run", "compare"])
    def test_parent_output(self, argv, capsys):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == "\n".join(PARENT[argv])

    def test_submit_prints_what_compare_prints(self, capsys):
        """The service's cells and local results go through one printer,
        so a grid prints the same table run either way."""
        from repro.serve import serve

        assert main(["compare", *GRID, "--jobs", "1", "--no-cache"]) == 0
        local = capsys.readouterr().out
        assert "0.300" in local  # a detection time
        assert local.splitlines()[2].split()[4] == "-"  # no large flows

        service = serve(port=0, n_workers=1, use_cache=False)
        try:
            host, port = service.http_address
            assert main(["submit", *GRID, "--jobs", "1",
                         "--url", f"http://{host}:{port}"]) == 0
        finally:
            service.stop()
        banner, _, remote = capsys.readouterr().out.partition("\n")
        assert banner.startswith("submitted job-")
        assert remote == local

    def test_failed_cells_print_a_row_and_a_warning(self, capsys):
        from repro.cli import print_results

        cells = [{"error": "cell timed out after 1.0s"}]
        assert print_results(["hermes"], cells) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[2].split() == ["hermes"] + ["-"] * 6
        assert "cell 'hermes' failed: cell timed out" in captured.err


class TestChaosReplay:
    def test_sweep_replay_line_carries_faults_and_engine(
        self, monkeypatch, capsys
    ):
        """The replay line of a failing sweep case re-runs that case:
        a ``--faults`` sweep draws other scenarios than a plain one."""
        from repro.validate import fuzz

        def one_failing_case(seeds, with_faults=None, scheduler=None):
            config = fuzz.chaos_config(7, with_faults=with_faults)
            return [fuzz.CaseResult(
                seed=7, config=config, error="boom", invariants=None,
                events=0, mean_fct_ms=0.0, unfinished=0)]

        monkeypatch.setattr(fuzz, "run_sweep", one_failing_case)
        assert main(["chaos", "--cases", "1", "--faults",
                     "--scheduler", "heap"]) == 1
        replay = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("replay: ")]
        assert replay == [
            "replay: " + fuzz.chaos_command(7, True, "heap")
        ]
        assert "--seed 7 --faults --scheduler heap" in replay[0]


class TestUnitParsers:
    def test_parse_bytes(self):
        import argparse

        from repro.cli import _parse_bytes

        assert _parse_bytes("1024") == 1024
        assert _parse_bytes("4k") == 4096
        assert _parse_bytes("500M") == 500 * 1024**2
        assert _parse_bytes("2gb") == 2 * 1024**3
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_bytes("lots")

    def test_parse_age(self):
        import argparse

        from repro.cli import _parse_age

        assert _parse_age("90") == 90.0
        assert _parse_age("30m") == 1800.0
        assert _parse_age("12h") == 12 * 3600.0
        assert _parse_age("7d") == 7 * 86400.0
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_age("soon")


class TestCachePruneCommand:
    def test_prune_requires_a_policy(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "prune"]) == 2
        assert "--max-bytes and/or --max-age" in capsys.readouterr().err

    def test_prune_reports_reclaimed_bytes(self, tmp_path, monkeypatch, capsys):
        import os

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for name, mtime in (("a", 1_000.0), ("b", 2_000.0)):
            path = tmp_path / f"{name}.pkl"
            path.write_bytes(b"\0" * 100)
            os.utime(path, (mtime, mtime))
        assert main(["cache", "prune", "--max-bytes", "100"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 entries, reclaimed 100 bytes" in out
        assert "1 entries (100 bytes) remain" in out


class TestServeParsing:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.workers == 2

    def test_submit_args(self):
        args = build_parser().parse_args(
            ["submit", "--schemes", "ecmp,hermes", "--priority", "3",
             "--no-wait"]
        )
        assert args.schemes == "ecmp,hermes"
        assert args.priority == 3
        assert args.no_wait

    def test_jobs_args(self):
        args = build_parser().parse_args(["jobs", "--watch", "job-000001"])
        assert args.watch == "job-000001"
        assert args.url.startswith("http://")
