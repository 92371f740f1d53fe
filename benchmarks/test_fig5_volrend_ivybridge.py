"""E5 / Figure 5: Volrend on Ivy Bridge — d_s over viewpoints × threads.

Regenerates Figure 5: rows are orbit viewpoints 0–7, columns thread
counts {2 … 24}, cells the scaled relative difference for runtime and
PAPI_L3_TCA.  Paper shapes: viewpoints 0/4 near-neutral in runtime yet
still Z-favorable in L3 accesses; off-axis viewpoints favor Z-order by
double-digit percentages.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import figure5, render_ds_figure


def test_fig5_volrend_ivybridge(benchmark, save_result):
    fig = benchmark.pedantic(figure5, rounds=1, iterations=1)
    save_result("fig5_volrend_ivybridge.txt", render_ds_figure(fig))

    rt = fig.runtime_ds
    ctr = fig.counter_ds
    aligned = [0, 4]
    misaligned = [2, 6]
    # aligned rows hover near zero; misaligned rows clearly favor Z-order
    assert np.abs(rt[aligned]).mean() < 0.25
    assert rt[misaligned].mean() > 0.05
    assert rt[misaligned].mean() > np.abs(rt[aligned]).mean()
    # the counter strongly favors Z-order at every off-axis viewpoint
    # (at the aligned viewpoints our scaled model lets array-order edge
    # ahead on the counter, where the paper still measured Z-favorable
    # values — see EXPERIMENTS.md E5)
    assert np.all(ctr[[1, 2, 3, 5, 6, 7]] > 0)
