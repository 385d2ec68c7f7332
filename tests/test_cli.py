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
        for field in ("faults", "detector", "extra_drain_ns", "validate"):
            assert getattr(replayed, field) == getattr(config, field), field
        assert len(replayed.faults.events) == 3

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
