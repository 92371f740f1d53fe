"""E3 / Figure 3: Bilateral 3D on MIC — runtime & L2 read-miss d_s.

Regenerates Figure 3: the same six bilateral rows over {59, 118, 177,
236} threads (1–4 per usable core) on the scaled Babbage MIC model, with
L2_DATA_READ_MISS_MEM_FILL as the memory counter.  Only 8 of the 59
cores are simulated — exact for this platform, whose cache levels are
all core-private (DESIGN.md §2, core sampling).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import figure3, render_ds_figure


def test_fig3_bilateral_mic(benchmark, save_result):
    fig = benchmark.pedantic(figure3, rounds=1, iterations=1)
    save_result("fig3_bilateral_mic.txt", render_ds_figure(fig))

    # Paper shapes (Fig. 3): Z-order faster in (nearly) all configurations,
    # most strongly for r5 pz zyx, where the counter d_s reaches hundreds
    rt_r5, ctr_r5 = fig.row("r5 pz zyx")
    assert np.all(rt_r5 > 0.5)
    assert np.all(ctr_r5 > rt_r5)
    # friendly row stays mild: |d_s| well below the r5 blowup everywhere
    rt_friendly, _ = fig.row("r1 px xyz")
    assert np.all(np.abs(rt_friendly) < 1.0)
    # the against-the-grain advantage exceeds the friendly row's
    assert rt_r5.mean() > np.abs(rt_friendly).mean()
