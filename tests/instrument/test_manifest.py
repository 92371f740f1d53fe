"""Tests for run manifests (repro.instrument.manifest)."""

import json
from dataclasses import replace

import pytest

from repro.experiments import BilateralCell, default_ivybridge, run_cells_parallel
from repro.instrument import trace
from repro.instrument.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    config_hash,
    cross_check,
    git_sha,
    serve_entries_from_records,
    validate_manifest,
    validate_trace_file,
    write_manifest,
)
from repro.memsim import with_replacement


@pytest.fixture(autouse=True)
def _clean_tracer():
    trace.disable()
    yield
    trace.disable()


def _cell(**overrides):
    base = dict(platform=default_ivybridge(64), layout="morton",
                shape=(16, 16, 16), stencil="r1", n_threads=2)
    base.update(overrides)
    return BilateralCell(**base)


class TestConfigHash:
    def test_stable_and_sensitive(self):
        a, b = _cell(), _cell()
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(_cell(layout="array"))
        assert config_hash(a) != config_hash(_cell(seed=1))

    def test_requires_dataclass(self):
        with pytest.raises(TypeError, match="dataclass"):
            config_hash({"layout": "morton"})


def _traced_run():
    t = trace.enable()
    with trace.span("cell", kind="bilateral", layout="morton",
                    platform="ivy", seed=0, shape=[16, 16, 16],
                    config="ab" * 8, cell=0) as sp:
        with trace.span("cell.simulate"):
            pass
        sp.set("wall_seconds", 0.5)
        sp.add("sim_runtime_seconds", 0.1)
    trace.disable()
    return t


class TestManifest:
    def test_build_and_validate(self):
        m = build_manifest(_traced_run(), extra={"command": "test"})
        validate_manifest(m)
        assert m["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert m["run"]["command"] == "test"
        (cell,) = m["cells"]
        assert cell["layout"] == "morton"
        assert cell["wall_seconds"] == 0.5
        assert cell["counters"]["sim_runtime_seconds"] == 0.1
        assert "cell.simulate" in m["phases"]

    def test_git_sha_recorded_in_repo(self):
        # the test suite runs inside the repo checkout
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        write_manifest(path, build_manifest(_traced_run()))
        loaded = json.loads(path.read_text())
        validate_manifest(loaded)

    def test_validation_rejects_drift(self):
        m = build_manifest(_traced_run())
        del m["cells"][0]["config_sha256"]
        with pytest.raises(ValueError, match="config_sha256"):
            validate_manifest(m)
        m2 = build_manifest(_traced_run())
        m2["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_manifest(m2)

    def test_validation_rejects_non_numeric_counter(self):
        m = build_manifest(_traced_run())
        m["cells"][0]["counters"]["bad"] = "not-a-number"
        with pytest.raises(ValueError, match="not numeric"):
            validate_manifest(m)


def _cluster_traced_run():
    """A serve.cluster span the way ShardCluster.serve_session emits
    one: membership counters inside the span, scrub tallies both in
    and out of it, rollup attrs set at close."""
    t = trace.enable()
    with trace.span("serve.cluster", shards=4, replicas=2,
                    n_queries=9) as sp:
        trace.add("serve.cluster_ticks", 9)
        trace.add("serve.cluster_deaths", 1)
        trace.add("serve.cluster_segments_moved", 5)
        trace.add("serve.scrub_checked", 12)
        trace.add("serve.scrub_repaired", 1)
        sp.set("ok", 9)
        sp.set("rejected", 0)
        sp.set("map_version", 2)
        sp.set("under_replicated", 0)
    trace.add("serve.scrub_passes", 2)  # post-session scrub laps
    trace.disable()
    return t


class TestClusterServeSection:
    """The manifest serve section grown by the elastic tier:
    serve.cluster_* / serve.scrub_* land validated and cross-checked."""

    def test_cluster_and_scrub_counters_land(self):
        m = build_manifest(_cluster_traced_run())
        validate_manifest(m)
        serve = m["serve"]
        assert serve["cluster_ticks"] == 9
        assert serve["cluster_deaths"] == 1
        assert serve["cluster_segments_moved"] == 5
        assert serve["scrub_checked"] == 12
        assert serve["scrub_repaired"] == 1
        assert serve["scrub_passes"] == 2
        # span rollup attrs merge in under the cluster_ prefix
        assert serve["cluster_ok"] == 9
        assert serve["cluster_rejected"] == 0
        assert serve["cluster_map_version"] == 2
        assert serve["cluster_under_replicated"] == 0

    def test_validation_rejects_non_numeric_serve_entry(self):
        m = build_manifest(_cluster_traced_run())
        m["serve"]["cluster_deaths"] = "one"
        with pytest.raises(ValueError, match="not numeric"):
            validate_manifest(m)

    def test_section_rederives_from_written_trace(self, tmp_path):
        t = _cluster_traced_run()
        m = build_manifest(t)
        path = tmp_path / "cluster.jsonl"
        t.write_jsonl(path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        meta = next(r for r in records if r["type"] == "meta")
        spans = [r for r in records if r["type"] == "span"]
        assert serve_entries_from_records(spans, meta.get("counters")) \
            == m["serve"]

    def test_cross_check_rejects_drifted_serve_tally(self, tmp_path):
        t = _cluster_traced_run()
        m = build_manifest(t)
        path = tmp_path / "cluster.jsonl"
        t.write_jsonl(path)
        assert cross_check(str(path), m) == []
        m["serve"]["cluster_deaths"] += 1  # a drifted tally
        problems = cross_check(str(path), m)
        assert any("cluster_deaths" in p for p in problems)


class TestPricingRecordedInTrace:
    """``engine.replay`` names the engine that priced a run: ``backend``
    is "stack" when it was priced, and ``fallback`` says why the default
    backend replayed instead.  The trace validator accepts both."""

    CASES = {
        "priced": (default_ivybridge(64), None),
        "fifo": (with_replacement(default_ivybridge(64), "fifo"),
                 "replacement 'fifo'"),
        "inclusive": (replace(default_ivybridge(64), inclusive=True),
                      "inclusive LLC"),
    }

    @pytest.mark.parametrize("which", list(CASES))
    def test_replay_span_names_the_engine(self, which, tmp_path):
        spec, reason = self.CASES[which]
        t = trace.enable()
        run_cells_parallel([_cell(platform=spec)], workers=1)
        trace.disable()
        (span,) = [r for r in t.records if r["name"] == "engine.replay"]
        if reason is None:
            assert span["attrs"]["backend"] == "stack"
            assert "fallback" not in span["attrs"]
        else:
            assert "backend" not in span["attrs"]
            assert reason in span["attrs"]["fallback"]
        path = tmp_path / "cell.jsonl"
        t.write_jsonl(path)
        m = build_manifest(t)
        validate_manifest(m)
        assert validate_trace_file(path) == len(t.records)
        assert cross_check(str(path), m) == []


class TestTraceFileValidation:
    def test_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "name": "x"}\n')
        with pytest.raises(ValueError, match="meta header"):
            validate_trace_file(path)

    def test_rejects_dangling_parent(self, tmp_path):
        t = _traced_run()
        path = tmp_path / "t.jsonl"
        t.write_jsonl(path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[-1])
        rec["parent"] = 999
        lines[-1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="parent 999"):
            validate_trace_file(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "meta", "schema_version": 1}\n')
        with pytest.raises(ValueError, match="no span records"):
            validate_trace_file(path)
