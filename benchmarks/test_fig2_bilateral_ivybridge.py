"""E2 / Figure 2: Bilateral 3D on Ivy Bridge — runtime & PAPI_L3_TCA d_s.

Regenerates the paper's Figure 2 matrix: rows {r1, r3, r5} × {px xyz,
pz zyx}, columns {2, 4, 6, 8, 10, 12, 18, 24} threads, each cell the
scaled relative difference (array − Z) / Z for simulated runtime and for
PAPI_L3_TCA on the scaled Edison Ivy Bridge model (64³ volume, caches
÷64 — see DESIGN.md §2).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import figure2, render_ds_figure


def test_fig2_bilateral_ivybridge(benchmark, save_result):
    fig = benchmark.pedantic(figure2, rounds=1, iterations=1)
    save_result("fig2_bilateral_ivybridge.txt", render_ds_figure(fig))

    # Paper shapes (Section IV-C):
    # 1. r1 px xyz is the one near-neutral/array-favorable row
    rt_friendly, _ = fig.row("r1 px xyz")
    assert np.all(rt_friendly < 0.3)
    # 2. every other row favors Z-order in runtime at every concurrency
    for label in ("r1 pz zyx", "r3 pz zyx", "r5 pz zyx", "r3 px xyz",
                  "r5 px xyz"):
        rt, _ = fig.row(label)
        assert np.all(rt > 0), label
    # 3. the advantage grows with stencil size for the zyx rows
    assert fig.row("r5 pz zyx")[0].mean() > fig.row("r1 pz zyx")[0].mean()
    # 4. counter differences dwarf runtime differences for big stencils
    rt_r5, ctr_r5 = fig.row("r5 pz zyx")
    assert ctr_r5.mean() > rt_r5.mean()
