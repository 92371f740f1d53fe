"""Tests for curve-ordered pencil enumeration (ablation A8 machinery)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel import (
    PENCIL_ORDERS,
    enumerate_pencils,
    round_robin_pencils,
    static_round_robin,
)


class TestPencilOrders:
    def test_orders_constant(self):
        assert PENCIL_ORDERS == ("scan", "morton", "hilbert")

    @pytest.mark.parametrize("order", PENCIL_ORDERS)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_same_pencil_set_every_order(self, order, axis):
        shape = (4, 6, 5)
        scan = enumerate_pencils(shape, axis, order="scan")
        other = enumerate_pencils(shape, axis, order=order)
        assert set(scan) == set(other)
        assert len(other) == len(scan)

    def test_morton_order_is_z_curve(self):
        pencils = enumerate_pencils((4, 4, 4), 2, order="morton")
        firsts = [p.fixed for p in pencils[:4]]
        assert firsts == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_hilbert_order_adjacency(self):
        """Consecutive Hilbert-ordered pencils are grid neighbours."""
        pencils = enumerate_pencils((8, 8, 8), 0, order="hilbert")
        fixed = np.array([p.fixed for p in pencils])
        steps = np.abs(np.diff(fixed, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_scan_order_unchanged(self):
        pencils = enumerate_pencils((3, 2, 2), 2, order="scan")
        assert [p.fixed for p in pencils] == [
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]

    def test_unknown_order(self):
        with pytest.raises(ValueError, match="order must be one of"):
            enumerate_pencils((4, 4, 4), 0, order="spiral")

    def test_morton_order_locality_of_round_robin_gangs(self):
        """The first T curve-ordered pencils span a compact 2-D block,
        unlike scan order's thin strip."""
        shape = (64, 64, 64)
        T = 16
        scan = enumerate_pencils(shape, 2, order="scan")[:T]
        curve = enumerate_pencils(shape, 2, order="morton")[:T]

        def bbox_area(pencils):
            f = np.array([p.fixed for p in pencils])
            return (np.ptp(f[:, 0]) + 1) * (np.ptp(f[:, 1]) + 1)

        assert bbox_area(curve) == 16      # a 4x4 block
        assert bbox_area(scan) == 16       # a 16x1 strip — same area...
        f_scan = np.array([p.fixed for p in scan])
        f_curve = np.array([p.fixed for p in curve])
        # ...but very different aspect: the curve block is square
        assert np.ptp(f_curve[:, 0]) + 1 == 4
        assert np.ptp(f_scan[:, 0]) + 1 == 16


class TestRoundRobinPencils:
    """The closed-form sample equals dealing every pencil and slicing."""

    @given(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
           st.sampled_from([0, 1, 2]), st.sampled_from(PENCIL_ORDERS),
           st.data())
    def test_matches_static_round_robin(self, shape, axis, order, data):
        pencils = enumerate_pencils(shape, axis, order=order)
        n_threads = data.draw(st.integers(1, len(pencils)))
        per_thread = data.draw(st.integers(0, 4))
        dealt = static_round_robin(pencils, n_threads)
        expected = {t: items[:per_thread] for t, items in dealt.items()}
        assert round_robin_pencils(shape, axis, n_threads, per_thread,
                                   range(n_threads), order=order) == expected
        threads = data.draw(st.lists(st.integers(0, n_threads - 1),
                                     unique=True, max_size=4))
        subset = round_robin_pencils(shape, axis, n_threads, per_thread,
                                     threads, order=order)
        assert subset == {t: expected[t] for t in threads}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n_threads"):
            round_robin_pencils((4, 4, 4), 0, 0, 1, [])
        with pytest.raises(ValueError, match="outside"):
            round_robin_pencils((4, 4, 4), 0, 2, 1, [2])
        with pytest.raises(ValueError, match="order must be one of"):
            round_robin_pencils((4, 4, 4), 0, 2, 1, [0], order="spiral")
