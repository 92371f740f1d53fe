"""Pinned raycaster output: tile traces and images on fixed inputs.

Every sampler × empty-space skipping × early termination × projection
× layout case renders the same tile set of a 20³ MRI phantom through one
:class:`AddressSpace`, at ray strides 1 and 2, plus a capped
``max_steps`` case.  Each case pins the SHA-256 of its tiles' ``lines``
(every tile prefixed by its line count) and its totals of
``collapsed_hits``, ``n_ops`` and ``n_samples``.  ``render_image`` pins
the RGBA bytes of two viewpoints, plain and with trilinear sampling,
skipping and early termination.

The expected values were recorded from the renderer that built every
tile's samples on a padded ``(rays, max_steps)`` lattice and then
masked it.  Digests are the first 16 hex digits of the SHA-256.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.core import Grid, make_layout
from repro.data import mri_phantom
from repro.kernels import (
    MinMaxBricks,
    RaycastRenderer,
    RenderSpec,
    orbit_camera,
    sparse_ramp,
)
from repro.memsim import AddressSpace
from repro.parallel import Tile

SHAPE = (20, 20, 20)
IMAGE = 24
#: centre, corner (partly off the volume) and clipped-edge tiles
TILES = (Tile(8, 8, 8, 8), Tile(0, 0, 8, 8), Tile(16, 4, 8, 5))

#: (sampler, skip, early termination, projection, layout) -> (lines
#: digest, collapsed_hits, n_ops, n_samples), summed over TILES at
#: ray strides 1 and 2
EXPECTED_TILES = {
    ('nearest', False, False, 'perspective', 'array'):
        ('1a8e6f1d41ba3475', 1564, 3740, 3740),
    ('nearest', False, False, 'perspective', 'morton'):
        ('2272457e35e8c2c4', 2267, 3740, 3740),
    ('nearest', False, False, 'orthographic', 'array'):
        ('566e09c85bceebe1', 1795, 4160, 4160),
    ('nearest', False, False, 'orthographic', 'morton'):
        ('12b6503b86e1e6a9', 2595, 4160, 4160),
    ('nearest', False, True, 'perspective', 'array'):
        ('6f29b083cb514492', 1241, 3022, 3022),
    ('nearest', False, True, 'perspective', 'morton'):
        ('c5bbd6cb1d0154fa', 1827, 3022, 3022),
    ('nearest', False, True, 'orthographic', 'array'):
        ('04aa0e4b9223f9d0', 1563, 3639, 3639),
    ('nearest', False, True, 'orthographic', 'morton'):
        ('ba10baddfb4e37c7', 2258, 3639, 3639),
    ('nearest', True, False, 'perspective', 'array'):
        ('aa3438614d995f03', 2774, 691, 691),
    ('nearest', True, False, 'perspective', 'morton'):
        ('78e08f87e7ea3454', 2903, 691, 691),
    ('nearest', True, False, 'orthographic', 'array'):
        ('f816df7e84ea1089', 3104, 742, 742),
    ('nearest', True, False, 'orthographic', 'morton'):
        ('3b00c0941782926a', 3271, 742, 742),
    ('nearest', True, True, 'perspective', 'array'):
        ('df4235b9cac344dd', 2716, 524, 524),
    ('nearest', True, True, 'perspective', 'morton'):
        ('8cb1d545dadc2624', 2817, 524, 524),
    ('nearest', True, True, 'orthographic', 'array'):
        ('0a427ade9559bdb3', 3040, 591, 591),
    ('nearest', True, True, 'orthographic', 'morton'):
        ('9af88c6b5b14c95f', 3181, 591, 591),
    ('trilinear', False, False, 'perspective', 'array'):
        ('aa6a7e6f33842f53', 14328, 3740, 3740),
    ('trilinear', False, False, 'perspective', 'morton'):
        ('22e6264e1efa8fd5', 16161, 3740, 3740),
    ('trilinear', False, False, 'orthographic', 'array'):
        ('e56bbac7075d6e48', 15676, 4160, 4160),
    ('trilinear', False, False, 'orthographic', 'morton'):
        ('89936b1605b6930b', 17689, 4160, 4160),
    ('trilinear', False, True, 'perspective', 'array'):
        ('95a3e47571e9a2a0', 14008, 3653, 3653),
    ('trilinear', False, True, 'perspective', 'morton'):
        ('0bc1826e1c9cf3f3', 15794, 3653, 3653),
    ('trilinear', False, True, 'orthographic', 'array'):
        ('e4b1ab202694882a', 14934, 3963, 3963),
    ('trilinear', False, True, 'orthographic', 'morton'):
        ('e12b8973cdc25ae0', 16877, 3963, 3963),
    ('trilinear', True, False, 'perspective', 'array'):
        ('66b7894f08fada1c', 13246, 2822, 2822),
    ('trilinear', True, False, 'perspective', 'morton'):
        ('80e4513dba0a9469', 14118, 2822, 2822),
    ('trilinear', True, False, 'orthographic', 'array'):
        ('b15d01646248bd03', 14717, 3185, 3185),
    ('trilinear', True, False, 'orthographic', 'morton'):
        ('ad6e614cd3b9c749', 15657, 3185, 3185),
    ('trilinear', True, True, 'perspective', 'array'):
        ('b6317d87aa2e5574', 12974, 2747, 2747),
    ('trilinear', True, True, 'perspective', 'morton'):
        ('a2114995eec44b23', 13817, 2747, 2747),
    ('trilinear', True, True, 'orthographic', 'array'):
        ('93d489f8715d6295', 14095, 3018, 3018),
    ('trilinear', True, True, 'orthographic', 'morton'):
        ('57888aab0fff1a86', 14987, 3018, 3018),
    'capped': ('0fd4626d6d8c6b80', 839, 1506, 1506),
}

#: (viewpoint, spec) -> RGBA digest of ``render_image``
EXPECTED_IMAGES = {
    (1, 'plain'): '25f296bcdc51f51b',
    (1, 'trilinear-skip-et'): '359c49585a4a25c4',
    (6, 'plain'): '446181b134fe2ec3',
    (6, 'trilinear-skip-et'): '01d9992540ae624a',
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


_GRIDS = {}
_BRICKS = {}


def _grid(layout: str) -> Grid:
    if layout not in _GRIDS:
        dense = mri_phantom(SHAPE, seed=3)
        _GRIDS[layout] = Grid.from_dense(dense, make_layout(layout, SHAPE))
    return _GRIDS[layout]


def _bricks(layout: str) -> MinMaxBricks:
    if layout not in _BRICKS:
        _BRICKS[layout] = MinMaxBricks(_grid(layout), brick=2)
    return _BRICKS[layout]


def _renderer(layout: str, sampler: str, skip: bool, et: bool,
              max_steps: int = 4096) -> RaycastRenderer:
    grid = _grid(layout)
    spec = RenderSpec(step=0.75, sampler=sampler, max_steps=max_steps,
                      early_termination=0.5 if et else None)
    bricks = _bricks(layout) if skip else None
    return RaycastRenderer(grid, sparse_ramp(threshold=0.3), spec,
                           skip=bricks)


def _camera(projection: str, viewpoint: int = 1):
    return orbit_camera(SHAPE, viewpoint, width=IMAGE, height=IMAGE,
                        projection=projection)


def tile_case(renderer: RaycastRenderer, camera) -> tuple:
    """Render TILES at strides 1 and 2; the pinned outcome."""
    space = AddressSpace(64)
    parts, hits, ops, samples = [], 0, 0, 0
    for ray_step in (1, 2):
        for tile in TILES:
            res = renderer.render_tile(
                camera, tile, space=space,
                want_values=renderer.spec.early_termination is not None,
                ray_step=ray_step)
            parts += [np.int64(res.trace.lines.size), res.trace.lines]
            hits += res.trace.collapsed_hits
            ops += res.trace.n_ops
            samples += res.n_samples
    return _digest(parts), hits, ops, samples


CASES = list(itertools.product(("nearest", "trilinear"), (False, True),
                               (False, True),
                               ("perspective", "orthographic"),
                               ("array", "morton")))


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_tile_traces_match_pinned(case):
    sampler, skip, et, projection, layout = case
    got = tile_case(_renderer(layout, sampler, skip, et), _camera(projection))
    assert got == EXPECTED_TILES[case]


def test_capped_steps_match_pinned():
    got = tile_case(_renderer("morton", "nearest", False, False, max_steps=9),
                    _camera("perspective"))
    assert got == EXPECTED_TILES["capped"]


@pytest.mark.parametrize("viewpoint", [1, 6])
@pytest.mark.parametrize("spec", ["plain", "trilinear-skip-et"])
def test_render_image_matches_pinned(viewpoint, spec):
    if spec == "plain":
        renderer = _renderer("array", "nearest", False, False)
    else:
        renderer = _renderer("array", "trilinear", True, True)
    rgba = renderer.render_image(_camera("perspective", viewpoint))
    assert rgba.dtype == np.float64
    assert _digest([rgba]) == EXPECTED_IMAGES[(viewpoint, spec)]


def test_tiles_outside_the_volume_render_nothing():
    renderer = _renderer("array", "trilinear", True, True)
    camera = orbit_camera(SHAPE, 0, width=IMAGE, height=IMAGE,
                          fov_y_deg=120.0)
    res = renderer.render_tile(camera, Tile(0, 0, 3, 3),
                               space=AddressSpace(64))
    assert res.n_samples == 0
    assert res.trace.lines.size == 0 and res.trace.n_accesses == 0
    assert np.array_equal(res.rgba, np.zeros((3, 3, 4)))
