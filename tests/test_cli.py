"""Tests for the rex-explain / rex-serve command line interface."""

from __future__ import annotations

import pytest

import json

from repro.cli import build_info_parser, build_parser, build_serve_parser, info_main, main, serve_main
from repro.kb.io import save_json, save_tsv
from repro.parallel.snapshot import PAYLOAD_FORMAT


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["a", "b"])
        assert args.measure == "size+monocount"
        assert args.top == 5
        assert args.size_limit == 5

    def test_measure_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["a", "b", "--measure", "bogus"])


class TestMain:
    def test_demo_pair_prints_explanations(self, capsys):
        exit_code = main(["--demo", "tom_cruise", "nicole_kidman", "--top", "2", "--size-limit", "4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "spouse" in captured.out
        assert "#1" in captured.out

    def test_unconnected_pair_reports_no_explanation(self, capsys):
        exit_code = main(["--demo", "brad_pitt", "connie_nielsen", "--size-limit", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "No explanation" in captured.out

    def test_unknown_measure_is_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["--demo", "a", "b", "--measure", "nonsense"])

    def test_missing_kb_file_returns_error(self, capsys, tmp_path):
        exit_code = main(["--kb", str(tmp_path / "missing.tsv"), "a", "b"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err

    def test_tsv_kb_loading(self, paper_kb, tmp_path, capsys):
        path = tmp_path / "kb.tsv"
        save_tsv(paper_kb, path)
        exit_code = main(
            ["--kb", str(path), "kate_winslet", "leonardo_dicaprio", "--size-limit", "3", "--top", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "starring" in captured.out

    def test_json_kb_loading(self, paper_kb, tmp_path, capsys):
        path = tmp_path / "kb.json"
        save_json(paper_kb, path)
        exit_code = main(
            ["--kb", str(path), "tom_cruise", "nicole_kidman", "--size-limit", "3", "--top", "1"]
        )
        assert exit_code == 0
        assert "spouse" in capsys.readouterr().out

    def test_measure_option(self, capsys):
        exit_code = main(
            ["--demo", "mel_gibson", "helen_hunt", "--measure", "count", "--size-limit", "4"]
        )
        assert exit_code == 0
        assert "count" in capsys.readouterr().out


class TestServeParser:
    def test_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.size_limit == 5
        assert args.cache_capacity == 2048
        assert args.cache_ttl is None
        assert not args.warmup
        assert not args.smoke

    def test_kb_sources_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--demo", "--synthetic"])


class TestInfo:
    def test_sources_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_info_parser().parse_args(["--demo", "--workload", "clustered"])

    def test_demo_prints_stats(self, capsys):
        exit_code = main(["info", "--demo"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "entities" in captured.out
        assert "edges" in captured.out
        assert "labels" in captured.out
        assert "compiled_plane_bytes" in captured.out
        assert "compile_ms" in captured.out
        assert "snapshot_format" in captured.out

    def test_tsv_kb_stats_match_loaded_kb(self, paper_kb, tmp_path, capsys):
        from repro.kb.io import load_tsv

        path = tmp_path / "kb.tsv"
        save_tsv(paper_kb, path)
        # the TSV edge list drops isolated entities, so compare against what
        # the info command actually loads
        reloaded = load_tsv(path)
        exit_code = info_main(["--kb", str(path), "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        info = json.loads(captured.out)
        assert info["entities"] == reloaded.num_entities
        assert info["edges"] == reloaded.num_edges == paper_kb.num_edges
        assert info["labels"] == len(reloaded.relation_labels())
        assert info["snapshot_format"] == PAYLOAD_FORMAT
        assert info["compiled_plane_bytes"] > 0
        assert info["snapshot_bytes"] > 0

    def test_generated_workload_stats(self, capsys):
        exit_code = info_main(["--workload", "clustered", "--seed", "3", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        info = json.loads(captured.out)
        assert info["entities"] > 0 and info["edges"] > 0
        assert info["compile_ms"] >= 0

    def test_missing_kb_file_returns_error(self, capsys, tmp_path):
        exit_code = info_main(["--kb", str(tmp_path / "missing.tsv")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err


class TestServeSmoke:
    def test_smoke_boots_and_answers(self, capsys):
        """`rex-explain serve --demo --smoke` = the make serve-smoke path."""
        exit_code = main(["serve", "--demo", "--smoke", "--size-limit", "4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "GET /healthz" in captured.out
        assert '"status": "ok"' in captured.out
        assert "GET /explain" in captured.out
        assert "serve smoke: OK" in captured.out

    def test_smoke_with_warmup_hits_the_cache(self, capsys):
        exit_code = serve_main(["--demo", "--smoke", "--warmup", "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cached=True" in captured.out

    def test_missing_kb_file_returns_error(self, capsys, tmp_path):
        exit_code = serve_main(["--kb", str(tmp_path / "missing.tsv"), "--smoke"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err

    def test_invalid_size_limit_returns_clean_error(self, capsys):
        exit_code = serve_main(["--demo", "--smoke", "--size-limit", "1"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "size_limit" in captured.err

    def test_invalid_cache_capacity_returns_clean_error(self, capsys):
        exit_code = serve_main(["--demo", "--smoke", "--cache-capacity", "0"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "capacity" in captured.err

    def test_out_of_range_port_returns_clean_error(self, capsys):
        exit_code = serve_main(["--demo", "--port", "70000"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "port" in captured.err.lower()
