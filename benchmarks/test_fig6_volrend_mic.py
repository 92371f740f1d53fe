"""E6 / Figure 6: Volrend on MIC — d_s over viewpoints × threads.

Regenerates Figure 6: viewpoints 0–7 over {59, 118, 177, 236} threads
on the scaled MIC, counter L2_DATA_READ_MISS_MEM_FILL.  Paper shapes:
runtime differences smallest at viewpoints 0/4, counter d_s uniformly
Z-favorable and *shrinking* as threads per core grow (L2 sharing).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import figure6, render_ds_figure


def test_fig6_volrend_mic(benchmark, save_result):
    fig = benchmark.pedantic(figure6, rounds=1, iterations=1)
    save_result("fig6_volrend_mic.txt", render_ds_figure(fig))

    rt = fig.runtime_ds
    ctr = fig.counter_ds
    # runtime difference smaller at the aligned viewpoints than off-axis
    assert rt[[0, 4]].mean() < rt[[2, 6]].mean()
    # counter is strongly Z-favorable at the y-aligned viewpoints
    # (worst case for array order)
    assert np.all(ctr[[2, 6]] > 0)
    # the dilution effect: counter d_s at 59 threads (1/core) exceeds the
    # 236-thread (4/core) value for off-axis viewpoints
    col59, col236 = 0, len(fig.col_labels) - 1
    assert ctr[2, col59] > ctr[2, col236]
    assert ctr[6, col59] > ctr[6, col236]
