"""Unit tests for the repro-fuzz CLI."""

import argparse

import pytest

from repro.cli import build_parser, main, parse_size


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("64k", 1 << 16), ("2M", 1 << 21), ("8m", 1 << 23),
        ("65536", 1 << 16), ("1g", 1 << 30),
    ])
    def test_accepts(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["0", "100", "abc", "-64k"])
    def test_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size(text)


class TestCli:
    def test_list_benchmarks(self, capsys):
        assert main(["--list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "zlib" in out and "instcombine" in out

    def test_unknown_benchmark_errors(self):
        with pytest.raises(SystemExit):
            main(["doom"])

    def test_single_campaign(self, capsys):
        assert main(["zlib", "--budget", "0.2", "--max-execs", "300",
                     "--scale", "0.5", "--seed-scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "executions" in out
        assert "BigMap used_key" in out

    def test_afl_campaign_has_no_used_key(self, capsys):
        assert main(["zlib", "--fuzzer", "afl", "--budget", "0.2",
                     "--max-execs", "300", "--scale", "0.5",
                     "--seed-scale", "0.2"]) == 0
        assert "used_key" not in capsys.readouterr().out

    def test_parallel_session(self, capsys):
        assert main(["zlib", "--instances", "2", "--budget", "0.3",
                     "--max-execs", "300", "--scale", "0.5",
                     "--seed-scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "total executions" in out
        assert "contention slowdown" in out

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_instances_below_one_errors(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zlib", "--instances", count])
        assert exc.value.code == 2
        assert "--instances" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--scale", "0"], "scale must be positive"),
        (["--budget", "-1"], "virtual_seconds must be positive"),
        (["--max-execs", "0"], "max_real_execs must be positive"),
        (["--seed-scale", "0"], "seed_scale must be positive"),
    ], ids=["scale", "budget", "max-execs", "seed-scale"])
    def test_config_errors_are_usage_errors(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zlib", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["zlib"])
        assert args.fuzzer == "bigmap"
        assert args.map_size == 1 << 16
        assert args.metric == "afl-edge"
