"""Meta-tests: the experiment defaults must match the paper's text.

These pin the constants Section III/IV specifies, so a refactor cannot
silently drift the reproduction away from the paper's configuration.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import (
    IVYBRIDGE_CONCURRENCIES,
    MIC_CONCURRENCIES,
    PAPER_BILATERAL_ROWS,
    BilateralCell,
    VolrendCell,
    figure6,
    render_ds_figure,
)
from repro.kernels import STENCIL_LABELS, BilateralSpec, orbit_camera
from repro.memsim import BABBAGE_MIC, EDISON_IVYBRIDGE


class TestSectionIVB5Concurrency:
    def test_ivybridge_sweep(self):
        """'we vary concurrency over {2,4,6,8,10,12,18,24} threads'"""
        assert IVYBRIDGE_CONCURRENCIES == (2, 4, 6, 8, 10, 12, 18, 24)

    def test_mic_sweep(self):
        """'we vary concurrency over {59,118,177,236} threads'"""
        assert MIC_CONCURRENCIES == (59, 118, 177, 236)

    def test_mic_usable_cores(self):
        """'one core is needed to run O/S ... we use the remaining 59'"""
        assert BABBAGE_MIC.n_cores == 60
        assert max(MIC_CONCURRENCIES) == 59 * BABBAGE_MIC.smt


class TestSectionIVB3Stencils:
    def test_stencil_sizes(self):
        """'from a smaller 3x3x3 to a larger 11x11x11' with labels
        r1, r3, r5 for 3^3, 5^3, 11^3"""
        for label, edge in (("r1", 3), ("r3", 5), ("r5", 11)):
            assert BilateralSpec(radius=STENCIL_LABELS[label]).edge == edge

    def test_figure2_rows(self):
        labels = [f"{s} {p} {o}" for s, p, o in PAPER_BILATERAL_ROWS]
        assert "r1 px xyz" in labels
        assert "r5 pz zyx" in labels
        assert len(PAPER_BILATERAL_ROWS) == 6


class TestSectionIIIBRenderer:
    def test_default_tile_size_32(self):
        """'we use a tile size of 32x32 pixels'"""
        assert VolrendCell.__dataclass_fields__["tile_size"].default == 32

    def test_default_projection_perspective(self):
        """'with perspective projection, which is what we are using here'"""
        assert (VolrendCell.__dataclass_fields__["projection"].default
                == "perspective")

    def test_eight_viewpoint_orbit(self):
        assert VolrendCell.__dataclass_fields__["n_viewpoints"].default == 8
        # viewpoints 0 and 4 put rays parallel to x
        import numpy as np

        for viewpoint, sign in ((0, -1.0), (4, 1.0)):
            fwd = orbit_camera((64, 64, 64), viewpoint).basis()[0]
            assert np.allclose(fwd, [sign, 0, 0], atol=1e-12)


class TestSectionIVAPlatforms:
    def test_edison_description(self):
        """'two 2.4GHz Intel Ivy Bridge processors, twelve cores each ...
        64KB L1 and 256KB L2 ... single 30MB L3'"""
        spec = EDISON_IVYBRIDGE
        assert spec.freq_ghz == 2.4
        assert spec.n_sockets == 2 and spec.cores_per_socket == 12
        caps = {lv.cache.name: lv.cache.capacity_bytes for lv in spec.levels}
        assert caps == {"L1": 64 << 10, "L2": 256 << 10, "L3": 30 << 20}

    def test_babbage_description(self):
        """'two 60-core Intel MIC/Knight's Corner' — two cache levels,
        512KB L2 per core"""
        spec = BABBAGE_MIC
        assert spec.n_cores == 60 and spec.smt == 4
        assert len(spec.levels) == 2
        assert spec.levels[1].cache.capacity_bytes == 512 << 10

    def test_counter_names(self):
        """Section IV-B1's two headline counters exist under the paper's
        exact names."""
        assert "PAPI_L3_TCA" in EDISON_IVYBRIDGE.counters
        assert "L2_DATA_READ_MISS_MEM_FILL" in BABBAGE_MIC.counters

    def test_affinity_defaults(self):
        """'we used the compact method for these tests' (Ivy Bridge)."""
        assert BilateralCell.__dataclass_fields__["affinity"].default == "compact"


class TestEquationFour:
    def test_ds_examples_from_text(self):
        """'a value of 0.1 means ... 10% difference; 1.0 means 100%;
        10.0 means 1000%'"""
        from repro.instrument import scaled_relative_difference as ds

        assert ds(1.1, 1.0) == pytest.approx(0.1)
        assert ds(2.0, 1.0) == pytest.approx(1.0)
        assert ds(11.0, 1.0) == pytest.approx(10.0)


class TestCommittedSettings:
    def test_figure6_defaults_regenerate_the_committed_table(self):
        """The drivers' defaults are the settings the committed tables
        were made at, so `repro figure 6` reproduces results/ as is."""
        committed = Path(__file__).parents[1] / "results" / "fig6_volrend_mic.txt"
        assert render_ds_figure(figure6()) + "\n" == committed.read_text()
