"""Tests for the generic cell-sweep utility."""

from __future__ import annotations

import csv
import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    BilateralCell,
    VolrendCell,
    capacity_sweep,
    compare_layouts,
    default_ivybridge,
    rows_to_csv,
    sweep_cells,
)
from repro.memsim import fully_associative_spec

SHAPE = (16, 16, 16)


@pytest.fixture(scope="module")
def base_cell():
    return BilateralCell(platform=default_ivybridge(64), shape=SHAPE,
                         n_threads=2, stencil="r1", pencils_per_thread=1)


class TestSweepCells:
    def test_grid_coverage(self, base_cell):
        rows = sweep_cells(base_cell,
                           {"n_threads": [2, 4], "stencil": ["r1", "r3"]},
                           counters=["PAPI_L3_TCA"])
        assert len(rows) == 4
        combos = {(r["n_threads"], r["stencil"]) for r in rows}
        assert combos == {(2, "r1"), (2, "r3"), (4, "r1"), (4, "r3")}
        for row in rows:
            assert row["runtime_seconds"] > 0
            assert "PAPI_L3_TCA" in row
            assert row["layout"] == "array"

    def test_empty_axes_single_row(self, base_cell):
        rows = sweep_cells(base_cell, {}, counters=[])
        assert len(rows) == 1

    def test_all_counters_by_default(self, base_cell):
        rows = sweep_cells(base_cell, {}, counters=None)
        assert "PAPI_L1_TCA" in rows[0]
        assert "PAPI_TLB_DM" in rows[0]

    def test_volrend_cells_supported(self):
        cell = VolrendCell(platform=default_ivybridge(64), shape=SHAPE,
                           n_threads=2, image_size=64, ray_step=4)
        rows = sweep_cells(cell, {"viewpoint": [0, 2]},
                           counters=["PAPI_L3_TCA"])
        assert len(rows) == 2

    def test_rejects_unknown_cell(self):
        with pytest.raises(TypeError):
            sweep_cells(object(), {})

    def test_rejects_unknown_on_error(self, base_cell):
        with pytest.raises(ValueError, match="on_error"):
            sweep_cells(base_cell, {}, on_error="ignore")


class TestSweepOnError:
    """A sweep with a failing combination: raise vs keep partial rows."""

    AXES = {"layout": ["array", "zigzag", "morton"]}  # zigzag is invalid

    def test_raise_is_the_default(self, base_cell):
        from repro.experiments import CellRunError
        with pytest.raises(CellRunError):
            sweep_cells(base_cell, self.AXES, counters=[])

    def test_keep_returns_every_row(self, base_cell):
        rows = sweep_cells(base_cell, self.AXES, counters=["PAPI_L3_TCA"],
                           on_error="keep")
        assert [r["layout"] for r in rows] == ["array", "zigzag", "morton"]
        good = [r for r in rows if r["error"] is None]
        (bad,) = [r for r in rows if r["error"] is not None]
        assert len(good) == 2
        assert bad["layout"] == "zigzag"
        assert bad["runtime_seconds"] is None
        assert "PAPI_L3_TCA" not in bad
        assert "ValueError" in bad["error"]
        for row in good:
            assert row["runtime_seconds"] > 0
            assert row["PAPI_L3_TCA"] > 0

    def test_keep_without_failures_adds_no_error_column(self, base_cell):
        rows = sweep_cells(base_cell, {"n_threads": [2, 4]}, counters=[],
                           on_error="keep")
        assert all("error" not in row for row in rows)

    def test_keep_rows_match_clean_sweep_where_successful(self, base_cell):
        kept = sweep_cells(base_cell, self.AXES, counters=["PAPI_L3_TCA"],
                           on_error="keep")
        clean = sweep_cells(base_cell, {"layout": ["array", "morton"]},
                            counters=["PAPI_L3_TCA"])
        surviving = [{k: v for k, v in row.items() if k != "error"}
                     for row in kept if row["error"] is None]
        assert surviving == clean

    def test_keep_rows_export_to_csv(self, base_cell, tmp_path):
        rows = sweep_cells(base_cell, self.AXES, counters=[],
                           on_error="keep")
        path = str(tmp_path / "partial.csv")
        rows_to_csv(rows, path)
        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 3
        assert "error" in back[0]


class TestCapacityFastPath:
    """Capacity-only platform sweeps are priced from one stack pass."""

    CAPS = [8, 16, 32, 64]

    @pytest.fixture(scope="class")
    def fa_base(self):
        return BilateralCell(
            platform=fully_associative_spec(64, n_cores=4, n_sockets=1),
            shape=SHAPE, n_threads=2, stencil="r1", pencils_per_thread=1)

    def _platforms(self):
        return [fully_associative_spec(c, n_cores=4, n_sockets=1)
                for c in self.CAPS]

    def test_fast_path_engages(self, fa_base, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        def boom(*a, **k):
            raise AssertionError("general path used for a capacity sweep")

        monkeypatch.setattr(sweep_mod, "run_cells_parallel", boom)
        rows = sweep_cells(fa_base, {"platform": self._platforms()},
                           counters=["L1_TCM"])
        assert len(rows) == len(self.CAPS)

    def test_rows_match_general_path(self, fa_base):
        fast = sweep_cells(fa_base, {"platform": self._platforms()},
                           counters=["L1_TCA", "L1_TCM"])
        slow = sweep_cells(dataclasses.replace(fa_base, backend="scalar"),
                           {"platform": self._platforms()},
                           counters=["L1_TCA", "L1_TCM"])
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            # integer miss counts: bit-for-bit
            assert f["L1_TCA"] == s["L1_TCA"]
            assert f["L1_TCM"] == s["L1_TCM"]
            # runtime: same cost model, different float summation order
            assert f["runtime_seconds"] \
                == pytest.approx(s["runtime_seconds"], rel=1e-12)

    def test_misses_decrease_with_capacity(self, fa_base):
        rows = capacity_sweep(fa_base, self.CAPS, counters=["L1_TCM"])
        misses = [r["L1_TCM"] for r in rows]
        assert [r["capacity_lines"] for r in rows] == self.CAPS
        assert all(a >= b for a, b in zip(misses, misses[1:]))

    def test_capacity_sweep_with_extra_axis(self, fa_base):
        rows = capacity_sweep(fa_base, [8, 32], counters=["L1_TCM"],
                              axes={"layout": ["array", "morton"]})
        assert len(rows) == 4
        combos = {(r["layout"], r["capacity_lines"]) for r in rows}
        assert combos == {("array", 8), ("array", 32),
                          ("morton", 8), ("morton", 32)}

    def test_keep_mode_on_fast_path(self, fa_base):
        rows = capacity_sweep(fa_base, [8, 16],
                              axes={"layout": ["array", "zigzag"]},
                              counters=["L1_TCM"], on_error="keep")
        bad = [r for r in rows if r["error"] is not None]
        good = [r for r in rows if r["error"] is None]
        assert len(bad) == 2 and len(good) == 2
        assert all(r["layout"] == "zigzag" for r in bad)
        assert all("ValueError" in r["error"] for r in bad)
        assert all(r["L1_TCM"] > 0 for r in good)

    def test_resilience_knobs_force_general_path(self, fa_base, tmp_path,
                                                 monkeypatch):
        import repro.experiments.sweep as sweep_mod
        calls = []
        original = sweep_mod.run_cells_parallel

        def spy(*a, **k):
            calls.append(1)
            return original(*a, **k)

        monkeypatch.setattr(sweep_mod, "run_cells_parallel", spy)
        sweep_cells(fa_base, {"platform": self._platforms()[:2]},
                    counters=[], checkpoint=str(tmp_path / "ckpt.jsonl"))
        assert calls  # checkpointing needs the journaling path

    def test_mixed_geometry_platforms_use_general_path(self, fa_base,
                                                       monkeypatch):
        import repro.experiments.sweep as sweep_mod
        calls = []
        original = sweep_mod.run_cells_parallel

        def spy(*a, **k):
            calls.append(1)
            return original(*a, **k)

        monkeypatch.setattr(sweep_mod, "run_cells_parallel", spy)
        plats = [fully_associative_spec(8, n_cores=4, n_sockets=1),
                 default_ivybridge(64)]  # multi-level: no shared histogram
        sweep_cells(fa_base, {"platform": plats}, counters=[])
        assert calls

    def test_hierarchy_sweep_keeps_the_worker_pool(self, base_cell,
                                                   monkeypatch):
        # hierarchies are priced exactly as well, but one geometry per
        # pricing run: only histograms share one pass across capacities
        import repro.experiments.sweep as sweep_mod
        calls = []
        original = sweep_mod.run_cells_parallel

        def spy(*a, **k):
            calls.append(k["workers"])
            return original(*a, **k)

        monkeypatch.setattr(sweep_mod, "run_cells_parallel", spy)
        plats = [default_ivybridge(64), default_ivybridge(32)]
        assert not sweep_mod._capacity_only_platforms(plats)
        rows = sweep_cells(base_cell, {"platform": plats},
                           counters=["PAPI_L3_TCA"], workers=1)
        assert calls == [1]
        assert len(rows) == 2


class TestCompareLayouts:
    def test_ds_columns(self, base_cell):
        rows = compare_layouts(base_cell, {"stencil": ["r1", "r3"]},
                               counters=["PAPI_L3_TCA"])
        assert len(rows) == 2
        for row in rows:
            assert "ds_runtime" in row
            assert "ds_PAPI_L3_TCA" in row
            assert row["runtime_array"] > 0
            assert row["runtime_morton"] > 0
            # Eq. 4 consistency
            expect = (row["runtime_array"] - row["runtime_morton"]) \
                / row["runtime_morton"]
            assert row["ds_runtime"] == pytest.approx(expect)

    def test_custom_layout_pair(self, base_cell):
        rows = compare_layouts(base_cell, {}, layouts=("array", "hilbert"),
                               counters=[])
        assert "runtime_hilbert" in rows[0]


class TestCsvExport:
    def test_roundtrip(self, base_cell, tmp_path):
        rows = sweep_cells(base_cell, {"n_threads": [2, 4]},
                           counters=["PAPI_L3_TCA"])
        path = str(tmp_path / "sweep.csv")
        rows_to_csv(rows, path)
        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 2
        assert {"n_threads", "runtime_seconds", "PAPI_L3_TCA"} <= set(back[0])
        assert float(back[0]["runtime_seconds"]) > 0

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv([], str(tmp_path / "x.csv"))

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "sweep.csv"
        rows = [{"a": 1}, {"a": 2}]
        rows_to_csv(rows, str(path))
        rows_to_csv(rows, str(path))  # overwrite goes through a new temp
        # just the table and its integrity sidecar — no temp leftovers
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["sweep.csv", "sweep.csv.integrity.json"]

    def test_failed_write_preserves_previous_csv(self, tmp_path):
        class Unwritable:
            def __str__(self):
                raise RuntimeError("cannot serialize")

        path = tmp_path / "sweep.csv"
        rows_to_csv([{"a": 1}], str(path))
        before = path.read_text()
        with pytest.raises(RuntimeError, match="cannot serialize"):
            rows_to_csv([{"a": Unwritable()}], str(path))
        # the old file is untouched and the temp file was cleaned up
        assert path.read_text() == before
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["sweep.csv", "sweep.csv.integrity.json"]
