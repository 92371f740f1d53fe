"""Write ``reference/figcells.json``: the oracle the ``figcells`` checks use.

Runs every cell of the catalog (fig2/fig3 rows r1 and r3, all of fig5
and fig6) once and stores its counters and simulated runtime under the
cell's label.  Before writing, it rebuilds each figure's d_s table from
those cells and requires every rendered line to match the committed
``results/fig*.txt`` at its printed precision, so the reference can
only be regenerated from a simulator that still reproduces the paper
tables.

Run from the repository root::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

from repro.experiments import (  # noqa: E402
    BilateralCell,
    DsFigure,
    render_ds_figure,
    run_bilateral_cell,
    run_volrend_cell,
)
from repro.instrument.metrics import scaled_relative_difference  # noqa: E402

from cells import LAYOUTS, cell_for, figures, pair_keys  # noqa: E402

REFERENCE = os.path.join(HERE, "reference", "figcells.json")


def run_cell(cell):
    runner = run_bilateral_cell if isinstance(cell, BilateralCell) \
        else run_volrend_cell
    result = runner(cell)
    return {"runtime_seconds": result.runtime_seconds,
            "counters": dict(sorted(result.counters.items()))}


def ds_table(fig, ref) -> str:
    """The figure's d_s table, rendered from reference entries."""
    runtime = np.zeros((len(fig.rows), len(fig.concurrencies)))
    counter = np.zeros_like(runtime)
    for r, row in enumerate(fig.rows):
        for c, threads in enumerate(fig.concurrencies):
            a, z = (ref[f"{fig.name}/{row}/{threads}/{lay}"]
                    for lay in LAYOUTS)
            runtime[r, c] = scaled_relative_difference(
                a["runtime_seconds"], z["runtime_seconds"])
            counter[r, c] = scaled_relative_difference(
                a["counters"][fig.counter], z["counters"][fig.counter])
    labels = [row.replace("-", " ") if fig.kernel == "bilateral"
              else row[2:] for row in fig.rows]
    return render_ds_figure(DsFigure(
        title=fig.title, counter_name=fig.counter, row_labels=labels,
        col_labels=list(fig.concurrencies), runtime_ds=runtime,
        counter_ds=counter))


def matches_committed(table: str, committed: str) -> bool:
    """Every rendered line appears in the committed file, in order."""
    remaining = iter(committed.splitlines())
    return all(line in remaining for line in table.splitlines() if line)


def main() -> int:
    figs = figures()
    ref = {}
    for key in pair_keys(figs):
        for layout in LAYOUTS:
            label = f"{key}/{layout}"
            ref[label] = run_cell(cell_for(figs, label))
    for fig in figs.values():
        with open(os.path.join(ROOT, "results", fig.result_file)) as fh:
            committed = fh.read()
        table = ds_table(fig, ref)
        if not matches_committed(table, committed):
            print(f"{fig.name}: d_s table does not match "
                  f"results/{fig.result_file}:\n{table}", file=sys.stderr)
            return 1
        print(f"{fig.name}: d_s table matches results/{fig.result_file}")
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"cells": ref}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ref)} cells to {os.path.relpath(REFERENCE, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
