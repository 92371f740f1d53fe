"""Tests for the structured tracer (repro.instrument.trace)."""

import json
import time

import numpy as np
import pytest

from repro.instrument import trace
from repro.instrument.manifest import validate_trace_file


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    yield
    trace.disable()


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        t = trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        trace.disable()
        by_name = {r["name"]: r for r in t.records}
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["depth"] == 1

    def test_attrs_and_counters(self):
        t = trace.enable()
        with trace.span("work", layout="morton") as sp:
            sp.set("threads", 4)
            sp.add("items", 10)
            sp.add("items", 5)
        trace.disable()
        (rec,) = t.records
        assert rec["attrs"] == {"layout": "morton", "threads": 4}
        assert rec["counters"] == {"items": 15}

    def test_module_level_add_attaches_to_open_span(self):
        t = trace.enable()
        with trace.span("work"):
            trace.add("lines", 7)
        trace.disable()
        assert t.records[0]["counters"] == {"lines": 7}

    def test_timing_is_monotone(self):
        t = trace.enable()
        with trace.span("sleep"):
            time.sleep(0.002)
        trace.disable()
        (rec,) = t.records
        assert rec["t1"] > rec["t0"]
        assert rec["dur"] >= 0.002

    def test_exception_closes_span_with_error(self):
        t = trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("no")
        trace.disable()
        (rec,) = t.records
        assert "RuntimeError" in rec["attrs"]["error"]


class TestTiled:
    """Children of a tiled span share their boundaries and sum to it."""

    def test_children_tile_the_span(self):
        t = trace.enable()
        with trace.tiled("cell") as cell:
            with trace.span("cell.a"):
                time.sleep(0.001)
            time.sleep(0.002)  # between phases: lands in cell.b
            with trace.span("cell.b"):
                with trace.span("inner"):
                    pass
            time.sleep(0.001)  # after the last phase: cell.finish
        trace.disable()
        by_name = {r["name"]: r for r in t.records}
        a, b, rest = by_name["cell.a"], by_name["cell.b"], by_name["cell.finish"]
        assert a["t0"] == cell.t0
        assert b["t0"] == a["t1"]
        assert rest["t0"] == b["t1"] and rest["t1"] == cell.t1
        assert rest["parent"] == cell.span_id and rest["depth"] == 1
        assert b["dur"] >= 0.002 and rest["dur"] >= 0.001
        assert a["dur"] + b["dur"] + rest["dur"] == \
            pytest.approx(cell.duration, abs=1e-9)
        # an ordinary span inside a phase still reads its own clock
        assert by_name["inner"]["t0"] > b["t0"]

    def test_exception_still_records_the_remainder(self):
        t = trace.enable()
        with pytest.raises(ValueError):
            with trace.tiled("cell"):
                with trace.span("cell.a"):
                    raise ValueError("boom")
        trace.disable()
        by_name = {r["name"]: r for r in t.records}
        assert by_name["cell.finish"]["t0"] == by_name["cell.a"]["t1"]
        assert by_name["cell"]["attrs"]["error"] == "ValueError"

    def test_disabled_tiled_still_times(self):
        with trace.tiled("cell", kind="x") as sp:
            with trace.span("cell.a"):
                time.sleep(0.002)
        assert sp.duration >= 0.002
        assert trace.current() is None


class TestDisabled:
    def test_disabled_span_is_noop_singleton(self):
        sp = trace.span("anything", key="val")
        assert sp is trace.NULL_SPAN
        with sp as s:
            s.set("a", 1)
            s.add("b", 2)
        # nothing anywhere to check — the point is it didn't blow up

    def test_disabled_overhead_is_tiny(self):
        # the guard mirrored by scripts/bench_trace.py: a disabled span()
        # call must stay in the sub-microsecond range so per-pencil /
        # per-tile instrumentation costs nothing when tracing is off
        n = 20000
        t0 = time.perf_counter()
        for _ in range(n):
            with trace.span("x"):
                pass
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 20e-6  # generous: CI machines are noisy

    def test_current_reflects_state(self):
        assert trace.current() is None
        t = trace.enable()
        assert trace.current() is t
        trace.disable()
        assert trace.current() is None


class TestMergeAndOutput:
    def test_absorb_renumbers_and_tags(self):
        worker = trace.Tracer()
        prev = trace.activate(worker)
        with trace.span("cell"):
            with trace.span("child"):
                pass
        trace.activate(prev)

        parent = trace.enable()
        with trace.span("own"):
            pass
        parent.absorb(worker.records, cell=3)
        trace.disable()

        names = {r["name"] for r in parent.records}
        assert names == {"own", "cell", "child"}
        ids = [r["id"] for r in parent.records]
        assert len(set(ids)) == len(ids)
        absorbed = {r["name"]: r for r in parent.records if r["name"] != "own"}
        assert absorbed["cell"]["attrs"]["cell"] == 3
        assert absorbed["child"]["parent"] == absorbed["cell"]["id"]

    def test_ordered_records_sorts_by_cell(self):
        parent = trace.enable()
        for idx in (2, 0, 1):
            w = trace.Tracer()
            prev = trace.activate(w)
            with trace.span("cell"):
                pass
            trace.activate(prev)
            parent.absorb(w.records, cell=idx)
        trace.disable()
        cells = [r["attrs"]["cell"] for r in parent.ordered_records()]
        assert cells == [0, 1, 2]

    def test_write_jsonl_roundtrip(self, tmp_path):
        t = trace.enable()
        with trace.span("a", np_attr=np.int64(5)) as sp:
            sp.add("n", np.float64(1.5))
            with trace.span("b"):
                pass
        trace.disable()
        path = tmp_path / "trace.jsonl"
        n = t.write_jsonl(path)
        assert n == 2
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["type"] == "meta"
        assert meta["n_spans"] == 2
        # numpy scalars serialized as plain JSON numbers
        rec_a = next(json.loads(ln) for ln in lines[1:]
                     if json.loads(ln)["name"] == "a")
        assert rec_a["attrs"]["np_attr"] == 5
        assert rec_a["counters"]["n"] == 1.5
        assert validate_trace_file(path) == 2

    def test_summary_rolls_up(self):
        t = trace.enable()
        for _ in range(3):
            with trace.span("step") as sp:
                sp.add("items", 2)
        trace.disable()
        s = t.summary()["step"]
        assert s["count"] == 3
        assert s["counters"] == {"items": 6}
        assert s["total_seconds"] >= 0
        assert trace.render_summary(t)  # text table renders

    def test_out_of_order_close_raises(self):
        trace.enable()
        outer = trace.span("outer").__enter__()
        trace.span("inner").__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)
        trace.disable()
