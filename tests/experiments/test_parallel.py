"""run_cells_parallel: worker-count invariance, ordering, failures, tracing.

The contracts under test: the result list is identical — counters,
runtimes, extrapolation metadata — for any worker count, and comes back
in input order regardless of completion order; a failing cell never
aborts the batch (every other cell completes, the error names the cell
and carries its original traceback); and a parent tracer collects one
merged, ordered trace whatever the worker count.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import (
    BilateralCell,
    CellRunError,
    VolrendCell,
    default_ivybridge,
    resolve_workers,
    run_bilateral_cell,
    run_cell,
    run_cells_parallel,
    run_volrend_cell,
)
from repro.experiments import harness, parallel
from repro.instrument import build_manifest, cross_check, trace

SHAPE = (16, 16, 16)


@pytest.fixture(scope="module")
def ivb():
    return default_ivybridge(64)


@pytest.fixture(scope="module")
def cells(ivb):
    """A small mixed batch: 2 bilateral + 2 volrend cells."""
    bil = BilateralCell(platform=ivb, shape=SHAPE, n_threads=2,
                        stencil="r1", pencils_per_thread=1)
    vol = VolrendCell(platform=ivb, shape=SHAPE, n_threads=2,
                      image_size=64, tiles_per_thread=1, ray_step=4)
    return [bil, bil.with_layout("morton"), vol, vol.with_layout("morton")]


class TestRunCell:
    def test_dispatches_by_type(self, cells):
        assert run_cell(cells[0]) == run_bilateral_cell(cells[0])
        assert run_cell(cells[2]) == run_volrend_cell(cells[2])

    def test_rejects_non_cells(self):
        with pytest.raises(TypeError, match="not an experiment cell"):
            run_cell(object())

    def test_untraced_run_never_hashes_config(self, cells, monkeypatch):
        # the hash is trace metadata and a checkpoint key, nothing else
        calls = []
        for module in (harness, parallel):
            monkeypatch.setattr(module, "config_hash", calls.append)
        run_cells_parallel(cells, workers=1)
        assert calls == []

    def test_wall_seconds_recorded_but_not_compared(self, cells):
        a = run_cell(cells[0])
        b = run_cell(cells[0])
        assert a.wall_seconds > 0 and b.wall_seconds > 0
        assert a == b  # wall clock differs, equality must not


class TestRunCellsParallel:
    def test_serial_matches_direct_calls(self, cells):
        assert run_cells_parallel(cells, workers=1) == \
            [run_cell(c) for c in cells]

    def test_parallel_equals_serial_exactly(self, cells):
        serial = run_cells_parallel(cells, workers=1)
        parallel = run_cells_parallel(cells, workers=4)
        assert parallel == serial

    def test_result_order_follows_input_order(self, cells):
        fwd = run_cells_parallel(cells, workers=2)
        rev = run_cells_parallel(list(reversed(cells)), workers=2)
        assert fwd == list(reversed(rev))

    def test_empty_batch(self):
        assert run_cells_parallel([], workers=4) == []

    def test_single_cell_skips_pool(self, cells):
        assert run_cells_parallel([cells[0]], workers=8) == \
            [run_cell(cells[0])]


class TestFailurePaths:
    """A raising worker must surface cell id + original traceback while
    every other cell still completes (serial and parallel paths)."""

    @pytest.fixture()
    def batch_with_failure(self, cells):
        # an unknown layout raises ValueError inside the worker; the
        # cell itself pickles fine, so the failure happens worker-side
        bad = cells[0].with_layout("zigzag")
        return [cells[0], bad, cells[2]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_surfaces_id_and_traceback(self, batch_with_failure,
                                               workers):
        with pytest.raises(CellRunError) as excinfo:
            run_cells_parallel(batch_with_failure, workers=workers)
        err = excinfo.value
        (failure,) = err.failures
        assert failure.index == 1
        assert "zigzag" in failure.error
        assert "ValueError" in failure.error
        # the original worker-side traceback, not a pickling artifact
        assert "Traceback" in failure.traceback
        assert "make_layout" in failure.traceback
        assert "cell 1" in str(err)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_remaining_cells_still_complete(self, batch_with_failure,
                                            cells, workers):
        with pytest.raises(CellRunError) as excinfo:
            run_cells_parallel(batch_with_failure, workers=workers)
        results = excinfo.value.results
        assert results[1] is None
        assert results[0] == run_cell(cells[0])
        assert results[2] == run_cell(cells[2])

    def test_all_failures_reported(self, cells):
        bad = cells[0].with_layout("zigzag")
        with pytest.raises(CellRunError) as excinfo:
            run_cells_parallel([bad, cells[0], bad], workers=2)
        assert [f.index for f in excinfo.value.failures] == [0, 2]


class TestTraceMerge:
    """Per-cell worker traces merge into one ordered parent trace."""

    @pytest.fixture(autouse=True)
    def _clean_tracer(self):
        trace.disable()
        yield
        trace.disable()

    def _traced_run(self, cells, workers):
        tracer = trace.enable()
        run_cells_parallel(cells, workers=workers)
        trace.disable()
        return tracer

    def test_merged_trace_is_worker_invariant(self, cells):
        serial = self._traced_run(cells, workers=1)
        parallel = self._traced_run(cells, workers=2)
        skeleton = lambda t: [(r["name"], r["attrs"].get("cell"))
                              for r in t.ordered_records()]
        assert skeleton(serial) == skeleton(parallel)

    def test_merged_trace_orders_by_cell(self, cells, tmp_path):
        import json

        tracer = self._traced_run(cells, workers=2)
        path = tmp_path / "merged.jsonl"
        tracer.write_jsonl(path)
        recs = [json.loads(ln) for ln in path.read_text().splitlines()[1:]]
        cell_tags = [r["attrs"]["cell"] for r in recs]
        assert cell_tags == sorted(cell_tags)
        assert set(cell_tags) == {0, 1, 2, 3}
        ids = [r["id"] for r in recs]
        assert len(set(ids)) == len(ids)

    def test_phase_durations_reconcile_with_wall_seconds(self, cells,
                                                         tmp_path):
        # the phases tile each cell: shared boundaries, summed durations
        # equal to wall_seconds up to float rounding
        tracer = self._traced_run(cells, workers=1)
        path = str(tmp_path / "cells.jsonl")
        tracer.write_jsonl(path)
        manifest = build_manifest(tracer)
        assert len(manifest["cells"]) == len(cells)
        assert cross_check(path, manifest) == []

    def test_delay_between_phases_lands_in_a_phase(self, cells, tmp_path,
                                                   monkeypatch):
        # a 5 ms stall at the simulate_prepared seam, between
        # cell.trace_gen and cell.simulate: it counts in the cell's wall
        # time, so it must count in a phase too
        original = harness.simulate_prepared

        def stalled(*args, **kwargs):
            time.sleep(0.005)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate_prepared", stalled)
        tracer = trace.enable()
        results = run_cells_parallel(cells[:2], workers=1)
        trace.disable()
        assert all(r.wall_seconds >= 0.005 for r in results)
        path = str(tmp_path / "stalled.jsonl")
        tracer.write_jsonl(path)
        assert cross_check(path, build_manifest(tracer)) == []

    def test_untraced_run_leaves_no_tracer_state(self, cells):
        assert trace.current() is None
        run_cells_parallel(cells[:2], workers=2)
        assert trace.current() is None


class TestResolveWorkers:
    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)


class TestSweepWorkers:
    def test_sweep_rows_worker_invariant(self, ivb):
        from repro.experiments import sweep_cells
        base = BilateralCell(platform=ivb, shape=SHAPE, n_threads=2,
                             stencil="r1", pencils_per_thread=1)
        axes = {"n_threads": [2, 4], "layout": ["array", "morton"]}
        assert sweep_cells(base, axes, workers=2) == sweep_cells(base, axes)
