"""Tests for the cell runners and figure drivers (small configurations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    BilateralCell,
    VolrendCell,
    default_ivybridge,
    default_mic,
    run_bilateral_cell,
    run_volrend_cell,
)
from repro.experiments.harness import clear_caches
from repro.instrument import trace


@pytest.fixture(scope="module")
def ivb():
    return default_ivybridge(64)


@pytest.fixture(scope="module")
def mic():
    return default_mic(64)


SHAPE = (16, 16, 16)


class TestBilateralCell:
    def test_basic_run(self, ivb):
        cell = BilateralCell(platform=ivb, shape=SHAPE, n_threads=4,
                             stencil="r1", pencils_per_thread=2)
        res = run_bilateral_cell(cell)
        assert res.runtime_seconds > 0
        assert res.counters["PAPI_L3_TCA"] >= 0
        assert res.counters["PAPI_L1_TCA"] > 0
        assert res.n_threads_simulated == 4

    def test_extrapolation_factor(self, ivb):
        """Sampling 2 pencils/thread must extrapolate counters by the
        omitted fraction: 16^2=256 pencils, 4 threads * 2 = 8 simulated."""
        cell = BilateralCell(platform=ivb, shape=SHAPE, n_threads=4,
                             stencil="r1", pencils_per_thread=2)
        res = run_bilateral_cell(cell)
        assert res.sim.count_scale == pytest.approx(256 / 8)
        assert res.sim.work_scale == pytest.approx((256 / 4) / 2)

    def test_full_simulation_no_scaling(self, ivb):
        cell = BilateralCell(platform=ivb, shape=(8, 8, 8), n_threads=2,
                             stencil="r1", pencils_per_thread=1000)
        res = run_bilateral_cell(cell)
        assert res.sim.count_scale == 1.0
        assert res.sim.work_scale == 1.0
        # full run: L1 accesses == all stencil reads
        assert res.counters["PAPI_L1_TCA"] == res.sim.n_accesses

    def test_integer_radius_accepted(self, ivb):
        cell = BilateralCell(platform=ivb, shape=SHAPE, n_threads=2,
                             stencil="3", pencils_per_thread=1)
        res = run_bilateral_cell(cell)
        assert res.runtime_seconds > 0

    def test_layout_changes_counters_not_work(self, ivb):
        cell = BilateralCell(platform=ivb, shape=SHAPE, n_threads=4,
                             stencil="r3", pencil="pz", stencil_order="zyx",
                             pencils_per_thread=2)
        res_a = run_bilateral_cell(cell.with_layout("array"))
        res_z = run_bilateral_cell(cell.with_layout("morton"))
        assert res_a.sim.n_accesses == res_z.sim.n_accesses
        assert (res_a.counters["PAPI_L3_TCA"]
                != res_z.counters["PAPI_L3_TCA"])

    def test_too_many_threads(self, ivb):
        cell = BilateralCell(platform=ivb, shape=(2, 2, 2), n_threads=24)
        with pytest.raises(ValueError, match="exceed"):
            run_bilateral_cell(cell)

    def test_mic_core_sampling(self, mic):
        cell = BilateralCell(platform=mic, shape=SHAPE, n_threads=118,
                             stencil="r1", affinity="balanced",
                             usable_cores=59, pencils_per_thread=1,
                             sample_cores=4)
        res = run_bilateral_cell(cell)
        # 4 of 59 cores at 2 threads/core -> 8 threads simulated
        assert res.n_threads_simulated == 8
        assert res.counters["L2_DATA_READ_MISS_MEM_FILL"] >= 0


class TestVolrendCell:
    def test_basic_run(self, ivb):
        cell = VolrendCell(platform=ivb, shape=SHAPE, n_threads=4,
                           image_size=64, viewpoint=1, ray_step=2)
        res = run_volrend_cell(cell)
        assert res.runtime_seconds > 0
        assert res.counters["PAPI_L3_TCA"] > 0

    def test_extrapolation_counts_pixels(self, ivb):
        cell = VolrendCell(platform=ivb, shape=SHAPE, n_threads=2,
                           image_size=64, tiles_per_thread=1, ray_step=2)
        res = run_volrend_cell(cell)
        # 4 tiles of 1024 px; 2 sampled at 1024/4 = 256 rays each
        assert res.sim.count_scale == pytest.approx(4096 / 512)

    def test_extrapolation_counts_rays_cast(self, ivb):
        """Clipped 31-px edge tiles at ray_step 2 cast 16x16 rays, not
        31x31/4: scale by the rays the tile spans report."""
        cell = VolrendCell(platform=ivb, shape=SHAPE, n_threads=2,
                           image_size=63, tiles_per_thread=1, ray_step=2)
        tracer = trace.enable()
        try:
            res = run_volrend_cell(cell)
        finally:
            trace.disable()
        rays = sum(r["counters"]["rays"] for r in tracer.records
                   if r["name"] == "volrend.tile")
        assert rays == 2 * 16 * 16
        assert res.sim.count_scale == 63 ** 2 / rays
        assert res.sim.work_scale == (63 ** 2 / 2) / (16 * 16)

    def test_viewpoint_changes_stream(self, ivb):
        cell = VolrendCell(platform=ivb, shape=SHAPE, n_threads=2,
                           image_size=64, ray_step=2)
        r0 = run_volrend_cell(cell.with_viewpoint(0))
        r2 = run_volrend_cell(cell.with_viewpoint(2))
        assert r0.counters["PAPI_L3_TCA"] != r2.counters["PAPI_L3_TCA"]

    def test_early_termination_reduces_work(self, ivb):
        cell = VolrendCell(platform=ivb, shape=SHAPE, n_threads=2,
                           image_size=64, ray_step=2, dataset="mri")
        base = run_volrend_cell(cell)
        et = run_volrend_cell(
            type(cell)(**{**cell.__dict__, "early_termination": 0.6}))
        assert et.sim.n_accesses <= base.sim.n_accesses

    def test_too_many_threads(self, ivb):
        cell = VolrendCell(platform=ivb, shape=SHAPE, n_threads=8,
                           image_size=32)  # 1 tile only
        with pytest.raises(ValueError, match="exceed"):
            run_volrend_cell(cell)

    def test_mic_run(self, mic):
        cell = VolrendCell(platform=mic, shape=SHAPE, n_threads=59,
                           image_size=256, affinity="balanced",
                           usable_cores=59, sample_cores=2, ray_step=4)
        res = run_volrend_cell(cell)
        assert res.n_threads_simulated == 2
        assert res.counters["L2_DATA_READ_MISS_MEM_FILL"] >= 0


class TestCaches:
    def test_grid_cache_reused(self, ivb):
        clear_caches()
        from repro.experiments.harness import _GRID_CACHE

        cell = BilateralCell(platform=ivb, shape=SHAPE, n_threads=2,
                             stencil="r1", pencils_per_thread=1)
        run_bilateral_cell(cell)
        n_after_first = len(_GRID_CACHE)
        run_bilateral_cell(cell)
        assert len(_GRID_CACHE) == n_after_first

    def test_unknown_dataset(self, ivb):
        clear_caches()
        cell = BilateralCell(platform=ivb, shape=SHAPE, n_threads=2,
                             dataset="weather")
        with pytest.raises(ValueError, match="unknown dataset"):
            run_bilateral_cell(cell)


class TestSamplingRobustness:
    """Sampling knobs must not flip the layout comparison."""

    @pytest.mark.parametrize("pencils_per_thread", [1, 2, 4])
    def test_bilateral_ds_sign_stable_under_sampling(self, ivb,
                                                     pencils_per_thread):
        cell = BilateralCell(platform=ivb, shape=(32, 32, 32), n_threads=4,
                             stencil="r3", pencil="pz", stencil_order="zyx",
                             pencils_per_thread=pencils_per_thread)
        a = run_bilateral_cell(cell.with_layout("array"))
        z = run_bilateral_cell(cell.with_layout("morton"))
        assert a.runtime_seconds > z.runtime_seconds

    @pytest.mark.parametrize("ray_step", [1, 2, 4])
    def test_volrend_ds_sign_stable_under_ray_sampling(self, ivb, ray_step):
        cell = VolrendCell(platform=ivb, shape=(32, 32, 32), n_threads=4,
                           viewpoint=2, image_size=128, ray_step=ray_step)
        a = run_volrend_cell(cell.with_layout("array"))
        z = run_volrend_cell(cell.with_layout("morton"))
        assert a.runtime_seconds > z.runtime_seconds

    def test_quantum_insensitivity_of_ds(self, ivb):
        base = BilateralCell(platform=ivb, shape=(32, 32, 32), n_threads=4,
                             stencil="r3", pencil="pz", stencil_order="zyx",
                             pencils_per_thread=2)
        ratios = []
        for quantum in (64, 256, 1024):
            cell = type(base)(**{**base.__dict__, "quantum": quantum})
            a = run_bilateral_cell(cell.with_layout("array"))
            z = run_bilateral_cell(cell.with_layout("morton"))
            ratios.append(a.runtime_seconds / z.runtime_seconds)
        assert max(ratios) / min(ratios) < 1.5
        assert all(r > 1 for r in ratios)


class TestVolrendExtensions:
    def test_transfer_presets(self, ivb):
        for transfer in ("warm", "grayscale", "sparse"):
            cell = VolrendCell(platform=ivb, shape=(16, 16, 16), n_threads=2,
                               image_size=64, ray_step=4, transfer=transfer)
            assert run_volrend_cell(cell).runtime_seconds > 0

    def test_unknown_transfer(self, ivb):
        cell = VolrendCell(platform=ivb, shape=(16, 16, 16), n_threads=2,
                           image_size=64, transfer="neon")
        with pytest.raises(ValueError, match="unknown transfer"):
            run_volrend_cell(cell)

    def test_skip_brick_reduces_runtime_on_sparse_data(self, ivb):
        # 64^3: large enough that the skipped volume loads clearly
        # outweigh the added structure lookups
        base = VolrendCell(platform=ivb, shape=(64, 64, 64), n_threads=4,
                           image_size=128, ray_step=2, dataset="mri",
                           transfer="sparse", viewpoint=2)
        plain = run_volrend_cell(base)
        skipping = run_volrend_cell(
            type(base)(**{**base.__dict__, "skip_brick": 8}))
        assert skipping.runtime_seconds < plain.runtime_seconds
        assert skipping.counters != plain.counters
