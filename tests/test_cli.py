"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.instrument.manifest import (
    cross_check,
    validate_manifest,
    validate_trace_file,
)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "2", "--shape", "16"])
        assert args.which == "2"
        assert args.shape == 16
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_bilateral_defaults(self):
        args = build_parser().parse_args(["bilateral"])
        assert args.stencil == "r3"
        assert args.layouts == ["array", "morton"]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ivybridge" in out
        assert "PAPI_L3_TCA" in out
        assert "morton" in out

    def test_bilateral_cell(self, capsys):
        rc = main(["bilateral", "--shape", "16", "--threads", "2",
                   "--stencil", "r1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runtime (ms)" in out
        assert "PAPI_L3_TCA" in out
        assert "d_s" in out

    def test_bilateral_on_mic(self, capsys):
        rc = main(["bilateral", "--shape", "16", "--threads", "59",
                   "--stencil", "r1", "--platform", "mic"])
        assert rc == 0
        assert "L2_DATA_READ_MISS_MEM_FILL" in capsys.readouterr().out

    def test_bilateral_custom_layout_pair(self, capsys):
        rc = main(["bilateral", "--shape", "16", "--threads", "2",
                   "--stencil", "r1", "--layouts", "array", "hilbert"])
        assert rc == 0
        assert "hilbert" in capsys.readouterr().out

    def test_volrend_cell(self, capsys):
        rc = main(["volrend", "--shape", "16", "--threads", "2",
                   "--image", "64", "--viewpoint", "1"])
        assert rc == 0
        assert "volrend viewpoint 1" in capsys.readouterr().out

    def test_figure_small(self, capsys, tmp_path):
        rc = main(["figure", "4", "--shape", "16", "-o", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "viewpoint" in out
        assert os.path.exists(tmp_path / "fig4_volrend_viewpoints.txt")

    def test_render(self, capsys, tmp_path):
        out_path = str(tmp_path / "frame.ppm")
        rc = main(["render", "--shape", "16", "--image", "24",
                   "--out", out_path])
        assert rc == 0
        with open(out_path, "rb") as fh:
            header = fh.read(2)
        assert header == b"P6"

    def test_render_mri(self, tmp_path):
        out_path = str(tmp_path / "mri.ppm")
        rc = main(["render", "--shape", "16", "--image", "16",
                   "--dataset", "mri", "--layout", "array",
                   "--out", out_path])
        assert rc == 0
        assert os.path.getsize(out_path) > 16 * 16 * 3

    def test_analyze_bilateral(self, capsys):
        rc = main(["analyze", "--kernel", "bilateral", "--layout", "morton",
                   "--shape", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stride spectrum" in out
        assert "miss-ratio curve" in out

    def test_analyze_volrend(self, capsys):
        rc = main(["analyze", "--kernel", "volrend", "--layout", "array",
                   "--shape", "32"])
        assert rc == 0
        assert "working set" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_writes_valid_trace_and_manifest(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        rc = main(["bilateral", "--shape", "16", "--threads", "2",
                   "--stencil", "r1", "--trace", trace_path])
        assert rc == 0
        n_spans = validate_trace_file(trace_path)
        assert n_spans > 0
        manifest = json.loads(
            (tmp_path / "run.jsonl.manifest.json").read_text())
        validate_manifest(manifest)
        assert len(manifest["cells"]) == 2  # array vs morton
        assert manifest["run"]["command"] == "bilateral"
        assert {c["layout"] for c in manifest["cells"]} == {"array", "morton"}

    def test_trace_phases_reconcile_with_wall_seconds(self, tmp_path):
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["bilateral", "--shape", "16", "--threads", "2",
                     "--stencil", "r1", "--trace", trace_path]) == 0
        manifest = json.loads(
            (tmp_path / "run.jsonl.manifest.json").read_text())
        assert len(manifest["cells"]) == 2
        assert cross_check(trace_path, manifest) == []

    def test_trace_validate_accepts_then_rejects_a_gap(self, tmp_path,
                                                        capsys):
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["bilateral", "--shape", "16", "--threads", "2",
                     "--stencil", "r1", "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["trace", "validate", trace_path]) == 0
        assert "phases tile every cell" in capsys.readouterr().out
        # open a gap: cell.simulate now starts 1 ms after trace_gen ends
        lines = Path(trace_path).read_text().splitlines()
        for n, line in enumerate(lines):
            rec = json.loads(line)
            if rec.get("name") == "cell.simulate":
                rec["t0"] += 1e-3
                rec["dur"] -= 1e-3
                lines[n] = json.dumps(rec)
                break
        Path(trace_path).write_text("\n".join(lines) + "\n")
        assert main(["trace", "validate", trace_path,
                     trace_path + ".manifest.json"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: cell 0: cell.simulate starts at" in out

    def test_trace_summary_prints_rollup(self, capsys):
        rc = main(["bilateral", "--shape", "16", "--threads", "2",
                   "--stencil", "r1", "--trace-summary"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cell.simulate" in out
        assert "engine.replay" in out

    def test_explicit_manifest_path(self, tmp_path):
        manifest_path = str(tmp_path / "m.json")
        rc = main(["volrend", "--shape", "16", "--threads", "2",
                   "--image", "64", "--manifest", manifest_path])
        assert rc == 0
        manifest = validate_manifest(
            json.loads(Path(manifest_path).read_text()))
        assert all(c["kind"] == "volrend" for c in manifest["cells"])

    def test_untraced_run_has_no_observability_output(self, tmp_path, capsys):
        rc = main(["bilateral", "--shape", "16", "--threads", "2",
                   "--stencil", "r1"])
        assert rc == 0
        assert "[trace:" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestLayoutSpecStrings:
    def test_render_accepts_spec_string(self, tmp_path):
        out_path = str(tmp_path / "t.ppm")
        rc = main(["render", "--shape", "16", "--image", "16",
                   "--layout", "tiled:brick=8", "--out", out_path])
        assert rc == 0
        assert os.path.getsize(out_path) > 0

    def test_analyze_accepts_spec_string(self, capsys):
        rc = main(["analyze", "--kernel", "bilateral",
                   "--layout", "morton:engine=magic", "--shape", "16"])
        assert rc == 0
        assert "stride spectrum" in capsys.readouterr().out

    def test_info_lists_layout_kwargs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "brick=<int>" in out
        assert "engine={tables|magic|loop}" in out


class TestTuneCommand:
    def test_tune_brick(self, capsys):
        rc = main(["tune", "brick", "--shape", "16", "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best: brick =" in out
        assert "evaluations" in out

    def test_tune_tile(self, capsys):
        rc = main(["tune", "tile", "--shape", "16", "--threads", "2",
                   "--method", "hill"])
        assert rc == 0
        assert "best: tile =" in capsys.readouterr().out

    def test_tune_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "threads"])


class TestMeshCommand:
    def test_mesh_ordering_study(self, capsys):
        rc = main(["mesh", "--vertices", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TetraMesh" in out
        assert "hilbert" in out
        assert "PAPI_L3_TCA" in out


class TestServeCommands:
    def test_serve_session(self, capsys):
        rc = main(["serve", "--shape", "16", "--chunk", "4",
                   "--queries", "15", "--order", "hilbert",
                   "--cache", "lru:capacity=8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 15 queries" in out
        assert "crosscheck: counters match memsim" in out

    def test_serve_reuses_store_dir(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["serve", "--shape", "16", "--chunk", "4",
                     "--queries", "5", "--store", store_dir]) == 0
        assert main(["serve", "--shape", "16", "--chunk", "4",
                     "--queries", "5", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "created store" in out
        assert "opened store" in out

    def test_serve_accepts_chunk_order_spec_string(self, capsys):
        rc = main(["serve", "--shape", "16", "--chunk", "4",
                   "--queries", "5", "--order", "tiled:brick=2"])
        assert rc == 0
        assert "tiled:brick=2" in capsys.readouterr().out

    def test_serve_bench_gate(self, capsys):
        rc = main(["serve-bench", "--shape", "32", "--chunk", "4",
                   "--queries", "30"])
        out = capsys.readouterr().out
        assert "segments_per_bbox" in out
        assert "GATE PASS" in out
        assert rc == 0

    def test_serve_trace_validates(self, tmp_path, capsys):
        trace_path = str(tmp_path / "serve.jsonl")
        rc = main(["serve", "--shape", "16", "--chunk", "4",
                   "--queries", "8", "--trace", trace_path])
        assert rc == 0
        assert validate_trace_file(trace_path) > 0
        names = [rec["name"]
                 for line in Path(trace_path).read_text(
                     encoding="utf-8").splitlines()
                 if (rec := json.loads(line)).get("type") == "span"]
        assert "cli.serve" in names
        assert names.count("serve.query") == 8
        manifest = validate_manifest(
            json.loads(Path(trace_path + ".manifest.json").read_text()))
        assert manifest["cells"] == []

    def test_serve_replicated_with_reliability_flags(self, capsys):
        rc = main(["serve", "--shape", "16", "--chunk", "4",
                   "--queries", "10", "--replicas", "2", "--shards", "4",
                   "--deadline-ms", "5000", "--max-inflight", "64",
                   "--retries", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 replicas on 4 shards" in out
        assert "served 10 queries" in out
        assert "crosscheck: counters match memsim" in out

    def test_cluster_flap_serves_identical_bytes(self, capsys):
        rc = main(["cluster", "--shape", "16", "--chunk", "4",
                   "--queries", "18", "--shards", "4",
                   "--faults", "shard-flap@2:at=6:down=6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 18/18 queries" in out
        assert "1 deaths, 1 joins" in out
        assert "bit-identical to the undisturbed run" in out
        # the CLI restores the ambient fault plan afterwards
        from repro.resilience.faults import active_plan
        assert not active_plan()

    def test_cluster_quiet_run_never_rebalances(self, capsys):
        rc = main(["cluster", "--shape", "16", "--chunk", "4",
                   "--queries", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 deaths, 0 joins, 0 rebalances" in out

    def test_serve_crosscheck_failure_exits_nonzero(self, monkeypatch,
                                                    capsys):
        class Divergent:
            consistent = False
            accesses = 7
            capacity = 4

            def mismatches(self):
                return ["server hits 3 != stack-distance hits 2"]

        import repro.serve as serve_mod
        monkeypatch.setattr(serve_mod, "cache_crosscheck",
                            lambda cache: Divergent())
        rc = main(["serve", "--shape", "16", "--chunk", "4",
                   "--queries", "5"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "CROSSCHECK FAIL" in out
        assert "server hits 3 != stack-distance hits 2" in out

    def test_info_lists_serve_specs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "chunk order" in out
        assert "lru:capacity=<segments>" in out


class TestSweepCommand:
    def test_capacity_sweep_cli(self, capsys):
        rc = main(["sweep", "--capacities", "8", "32", "--shape", "12",
                   "--layouts", "array", "morton",
                   "--counters", "L1_TCM"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "capacity_lines" in out
        assert out.count("morton") >= 2

    def test_capacity_sweep_csv(self, tmp_path):
        csv_path = str(tmp_path / "mrc.csv")
        rc = main(["sweep", "--capacities", "8", "16", "--shape", "12",
                   "--layouts", "morton", "-o", csv_path])
        assert rc == 0
        header = Path(csv_path).read_text().splitlines()[0]
        assert "capacity_lines" in header

    def test_sweep_requires_capacities(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])
