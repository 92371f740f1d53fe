"""Pinned figure-cell preparation: the traces each cell hands the simulator.

Two cells per paper figure (2, 3, 5 and 6) at the committed figure
settings — 64³ volumes on the scale-64 platforms — plus two bilateral
cells with curve-ordered pencil enumeration (ablation A8), each in
both layouts.  Every case pins the SHA-256 over its
``PreparedCell.works`` (per thread: id, core, ops, collapsed hits, line
count, then the lines) and its extrapolation factors.

The expected values were recorded while bilateral cells built and
round-robined every pencil, and the raycaster sampled a padded
``(rays, max_steps)`` lattice.  Digests are the first 16 hex digits of
the SHA-256.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    BilateralCell,
    VolrendCell,
    default_ivybridge,
    default_mic,
    prepare_cell,
)

SHAPE = (64, 64, 64)

#: case -> (works digest, count_scale, work_scale, n_threads_simulated)
EXPECTED = {
    ('a8/hilbert/r1-py-xyz/10', 'array'):
        ('0d4a37fb5853695b', 204.8, 204.8, 10),
    ('a8/hilbert/r1-py-xyz/10', 'morton'):
        ('5d73893c667228a0', 204.8, 204.8, 10),
    ('a8/morton/r1-pz-zyx/177', 'array'):
        ('f7d4e302031d07c5', 85.33333333333333, 11.570621468926554, 24),
    ('a8/morton/r1-pz-zyx/177', 'morton'):
        ('4ee1cdf9f2dbb5ed', 85.33333333333333, 11.570621468926554, 24),
    ('fig2/r1-pz-zyx/6', 'array'):
        ('ba2ba9942ba05981', 341.3333333333333, 341.3333333333333, 6),
    ('fig2/r1-pz-zyx/6', 'morton'):
        ('c828dd933bfc9084', 341.3333333333333, 341.3333333333333, 6),
    ('fig2/r3-px-xyz/24', 'array'):
        ('4d7b2c62f0b633eb', 85.33333333333333, 85.33333333333333, 24),
    ('fig2/r3-px-xyz/24', 'morton'):
        ('53d573d80872aa45', 85.33333333333333, 85.33333333333333, 24),
    ('fig3/r1-px-xyz/118', 'array'):
        ('021798608318efb0', 128.0, 17.35593220338983, 16),
    ('fig3/r1-px-xyz/118', 'morton'):
        ('cf99c4884fcb186d', 128.0, 17.35593220338983, 16),
    ('fig3/r3-pz-zyx/59', 'array'):
        ('ec68f7b153625bf3', 256.0, 34.71186440677966, 8),
    ('fig3/r3-pz-zyx/59', 'morton'):
        ('c7aff6f7c3b0287f', 256.0, 34.71186440677966, 8),
    ('fig5/vp1/4', 'array'):
        ('d9aaf2e9df1b2616', 64.0, 64.0, 4),
    ('fig5/vp1/4', 'morton'):
        ('14b17531be8e7b36', 64.0, 64.0, 4),
    ('fig5/vp6/18', 'array'):
        ('daa17bdad852e456', 14.222222222222221, 14.222222222222221, 18),
    ('fig5/vp6/18', 'morton'):
        ('0a3e681b0b1ec153', 14.222222222222221, 14.222222222222221, 18),
    ('fig6/vp3/59', 'array'):
        ('12bfc874b95fded0', 128.0, 17.35593220338983, 8),
    ('fig6/vp3/59', 'morton'):
        ('282477f556e4d323', 128.0, 17.35593220338983, 8),
    ('fig6/vp4/177', 'array'):
        ('111b93316af3ea9e', 42.666666666666664, 5.785310734463277, 24),
    ('fig6/vp4/177', 'morton'):
        ('93b1373fa4ed862e', 42.666666666666664, 5.785310734463277, 24),
}


def _cells():
    ivy, mic = default_ivybridge(64), default_mic(64)
    fig2 = BilateralCell(platform=ivy, shape=SHAPE, affinity="compact",
                         pencils_per_thread=2)
    fig3 = BilateralCell(platform=mic, shape=SHAPE, affinity="balanced",
                         usable_cores=59, pencils_per_thread=2,
                         sample_cores=8)
    fig5 = VolrendCell(platform=ivy, shape=SHAPE, image_size=256,
                       affinity="compact", tiles_per_thread=1, ray_step=2)
    fig6 = VolrendCell(platform=mic, shape=SHAPE, image_size=512,
                       affinity="balanced", usable_cores=59,
                       tiles_per_thread=1, ray_step=2, sample_cores=8)
    return {
        "fig2/r1-pz-zyx/6": replace(fig2, stencil="r1", pencil="pz",
                                    stencil_order="zyx", n_threads=6),
        "fig2/r3-px-xyz/24": replace(fig2, stencil="r3", pencil="px",
                                     stencil_order="xyz", n_threads=24),
        "fig3/r1-px-xyz/118": replace(fig3, stencil="r1", pencil="px",
                                      stencil_order="xyz", n_threads=118),
        "fig3/r3-pz-zyx/59": replace(fig3, stencil="r3", pencil="pz",
                                     stencil_order="zyx", n_threads=59),
        "fig5/vp1/4": replace(fig5, viewpoint=1, n_threads=4),
        "fig5/vp6/18": replace(fig5, viewpoint=6, n_threads=18),
        "fig6/vp3/59": replace(fig6, viewpoint=3, n_threads=59),
        "fig6/vp4/177": replace(fig6, viewpoint=4, n_threads=177),
        "a8/hilbert/r1-py-xyz/10": replace(
            fig2, stencil="r1", pencil="py", n_threads=10,
            pencil_order="hilbert"),
        "a8/morton/r1-pz-zyx/177": replace(
            fig3, stencil="r1", pencil="pz", stencil_order="zyx",
            n_threads=177, pencil_order="morton"),
    }


CELLS = _cells()


def cell_case(cell) -> tuple:
    """Prepare one cell; the pinned outcome."""
    prepared = prepare_cell(cell)
    h = hashlib.sha256()
    for w in prepared.works:
        head = np.array([w.thread_id, w.core, w.chunk.n_ops,
                         w.chunk.collapsed_hits, w.chunk.lines.size],
                        dtype=np.int64)
        h.update(head.tobytes())
        h.update(np.asarray(w.chunk.lines, dtype=np.int64).tobytes())
    return (h.hexdigest()[:16], prepared.count_scale, prepared.work_scale,
            prepared.n_threads_simulated)


@pytest.mark.parametrize("layout", ["array", "morton"])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_prepared_cell_matches_pinned(name, layout):
    got = cell_case(CELLS[name].with_layout(layout))
    assert got == EXPECTED[(name, layout)]
