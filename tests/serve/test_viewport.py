"""Viewport boxes against the eight-corner numpy formula they replace.

``_viewport_extent`` finds each axis's extreme corner with plain
floats.  The oracle here is the formula it replaced, copied verbatim:
build all eight corners of the viewed cube with numpy, take their min
and max, then floor, ceil and clip to the volume.  For every finite
camera the two must give the same extreme floats and the same box.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.camera import orbit_camera
from repro.serve import ViewportQuery, VolumeServer
from repro.serve.server import _viewport_extent

#: (right, up, view) sign columns of a box's eight corners, each (8, 1)
CORNER_SIGNS = np.array([(sr, su, sv) for sr in (-1.0, 1.0)
                         for su in (-1.0, 1.0)
                         for sv in (-1.0, 1.0)]).T[:, :, None]


def oracle(shape, q):
    """(min corner, max corner, box) of the eight corners; None when a
    corner is not finite."""
    cam = orbit_camera(shape, q.viewpoint, n_viewpoints=q.n_viewpoints)
    eye = np.asarray(cam.eye, dtype=np.float64)
    center = np.asarray(cam.center, dtype=np.float64) \
        + np.asarray(q.pan, dtype=np.float64)
    with np.errstate(all="ignore"):
        view = center - eye
        view /= np.linalg.norm(view)
        up = np.asarray(cam.up, dtype=np.float64)
        right = np.cross(view, up)
        right /= np.linalg.norm(right)
        true_up = np.cross(right, view)
        r = float(np.array(shape, dtype=np.float64).max()) / (2.0 * q.zoom)
        h = r / np.sqrt(3.0)
        sr, su, sv = CORNER_SIGNS
        pts = center + h * (sr * right + su * true_up + sv * view)
    if not np.isfinite(pts).all():
        return None
    mins, maxs = pts.min(axis=0), pts.max(axis=0)
    lo = np.floor(mins).astype(np.int64)
    hi = np.ceil(maxs).astype(np.int64)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, np.asarray(shape, dtype=np.int64))
    hi = np.maximum(hi, lo + 1)
    hi = np.minimum(hi, np.asarray(shape, dtype=np.int64))
    lo = np.minimum(lo, hi - 1)
    return (mins.tolist(), maxs.tolist(),
            (tuple(int(v) for v in lo), tuple(int(v) for v in hi)))


def server_for(shape):
    """A server whose store has only a shape: all a viewport box reads."""
    return VolumeServer(SimpleNamespace(shape=tuple(shape)), cache="none")


#: extents 1..200, so thin slabs and long, flat and cubic volumes all occur
extents = st.one_of(st.integers(1, 4), st.integers(5, 200))


@st.composite
def viewports(draw):
    shape = draw(st.tuples(extents, extents, extents))
    n_vp = draw(st.integers(1, 16))
    vp = draw(st.integers(0, n_vp - 1))
    zoom = 10.0 ** draw(st.floats(-3.0, 3.0))
    pan = tuple(draw(st.floats(-2.0 * s, 2.0 * s)) for s in shape)
    return shape, ViewportQuery(vp, n_vp, zoom, pan)


@settings(max_examples=600, deadline=None)
@given(viewports())
def test_box_matches_eight_corner_oracle(case):
    shape, q = case
    expected = oracle(shape, q)
    if expected is None:
        with pytest.raises(ValueError, match="degenerate"):
            server_for(shape)._viewport_bbox(q)
    else:
        mins, maxs, box = expected
        assert _viewport_extent(shape, q) == (mins, maxs)
        assert server_for(shape)._viewport_bbox(q) == box


class TestInputEdges:
    SHAPE = (37, 29, 23)

    @pytest.mark.parametrize("zoom", [math.nan, math.inf, -math.inf, 0.0,
                                      -1.0])
    def test_zoom_must_be_positive_and_finite(self, zoom):
        with pytest.raises(ValueError, match="zoom"):
            server_for(self.SHAPE)._viewport_bbox(
                ViewportQuery(0, 8, zoom))

    @pytest.mark.parametrize("pan", [(math.inf, 0.0, 0.0),
                                     (0.0, -math.inf, 0.0),
                                     (0.0, 0.0, math.nan)])
    def test_pan_must_be_finite(self, pan):
        with pytest.raises(ValueError, match="pan"):
            server_for(self.SHAPE)._viewport_bbox(
                ViewportQuery(0, 8, 1.0, pan))

    @pytest.mark.parametrize("zoom", [1e-300, 5e-324])
    def test_tiny_zoom_gets_the_whole_volume(self, zoom):
        # the corners are far past int64 (or infinite): clipped in float
        assert server_for(self.SHAPE)._viewport_bbox(
            ViewportQuery(3, 8, zoom)) == ((0, 0, 0), self.SHAPE)

    @pytest.mark.parametrize("pan", [(92.5, 0.0, 0.0),   # look-at = eye
                                     (92.5, 0.0, 5.0)])  # view along up
    def test_degenerate_camera_raises(self, pan):
        # viewpoint 0 sits 2.5 * 37 = 92.5 voxels along +x from center
        with pytest.raises(ValueError, match="degenerate"):
            server_for(self.SHAPE)._viewport_bbox(
                ViewportQuery(0, 8, 1.0, pan))
