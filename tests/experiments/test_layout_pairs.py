"""Tests for the layout-pair runner every a-vs-z comparison goes through."""

from __future__ import annotations

import pytest

import repro.experiments.sweep as sweep_mod
from repro.experiments import (
    BilateralCell,
    compare_layouts,
    default_ivybridge,
    run_layout_pairs,
)


@pytest.fixture(scope="module")
def base_cell():
    return BilateralCell(platform=default_ivybridge(64), shape=(16, 16, 16),
                         n_threads=2, stencil="r1", pencils_per_thread=1)


def test_one_batch_cell_major_layout_minor(base_cell, monkeypatch):
    # checkpoint keys and trace cell indices follow the batch order
    calls = []

    def echo(batch, **run):
        calls.append(run)
        return list(batch)

    monkeypatch.setattr(sweep_mod, "run_cells_parallel", echo)
    cells = [base_cell.with_layout("tiled"),
             BilateralCell(platform=base_cell.platform, n_threads=4)]
    pairs = run_layout_pairs(cells, ("array", "hilbert"), workers=2,
                             govern=True, resume=False)
    assert [(a.layout, z.layout, a.n_threads) for a, z in pairs] \
        == [("array", "hilbert", 2), ("array", "hilbert", 4)]
    assert pairs[0] == (cells[0].with_layout("array"),
                        cells[0].with_layout("hilbert"))
    assert calls == [{"workers": 2, "govern": True, "resume": False}]


def test_compare_layouts_rejects_a_layout_axis(base_cell):
    with pytest.raises(ValueError, match="layout"):
        compare_layouts(base_cell, {"layout": ["array", "morton"]})
