"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from layers import self_times  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from repro.serve import VolumeServer  # noqa: E402
from worker import TooFewSamples, ops_for, percentile, run  # noqa: E402
from workloads import WORKLOADS, FigCells  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_follow_the_grammar():
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_what_the_code_reports():
    import run as launcher
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) \
        == set(launcher.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_self_time_subtracts_direct_children_only():
    #   a(10) ─┬─ b(4) ── c(1.5)
    #          └─ c(2)
    #   b(1)
    records = [
        {"id": 0, "parent": None, "name": "a", "dur": 10.0},
        {"id": 1, "parent": 0, "name": "b", "dur": 4.0},
        {"id": 2, "parent": 1, "name": "c", "dur": 1.5},
        {"id": 3, "parent": 0, "name": "c", "dur": 2.0},
        {"id": 4, "parent": None, "name": "b", "dur": 1.0},
    ]
    assert self_times(records) == {"a": 4.0, "b": 3.5, "c": 3.5}


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([float(v) for v in range(1, 101)], 90) == (90.0, 10)
    with pytest.raises(TooFewSamples):
        percentile([float(v) for v in range(1, 100)], 90)
    with pytest.raises(TooFewSamples):
        percentile([1.0], 90)  # a one-sample p90
    assert ops_for(90) == 100 and ops_for(99) == 1000
    percentile([0.0] * ops_for(99), 99)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_passes(name, seed, tmp_path):
    res = run(name, seed, 0.2, True, str(tmp_path), tiny=True)
    assert res["correct"] and res["failed"] == 0, res
    assert res["attempted"] >= 2 * ops_for(WORKLOADS[name].tail_pct)
    assert set(res["metrics"]) == set(PER_LAYER)


def test_tiny_untraced_run_reports_every_metric(tmp_path):
    res = run("serve_cold_elastic", 3, 0.2, False, str(tmp_path), tiny=True)
    assert res["correct"], res
    assert set(res["metrics"]) | {"setup_s"} == set(END_TO_END)
    assert res["metrics"]["ok_ratio"] == 1.0
    assert res["samples"]["tail_beyond"] >= 10


def test_flipped_reference_counter_is_a_failed_op(tmp_path, monkeypatch):
    prepare = FigCells.prepare

    def prepare_with_flip(self):
        prepare(self)
        self.ensure_ops(1)
        counters = self.reference[self.labels[0]]["counters"]
        counters["PAPI_L1_TCA"] += 1.0

    monkeypatch.setattr(FigCells, "prepare", prepare_with_flip)
    res = run("figcells", 0, 0.2, False, str(tmp_path), tiny=True)
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["ok_ratio"] == 1.0 - res["failed"] / res["attempted"]


def test_flipped_payload_byte_is_a_failed_op(tmp_path, monkeypatch):
    query = VolumeServer.query
    flipped = []

    async def query_with_flip(self, q, semaphore=None):
        result = await query(self, q, semaphore)
        if not flipped and result.ok and result.data.size:
            data = result.data.copy()
            data.view(np.uint8).flat[0] ^= 1
            result.data = data
            flipped.append(q)
        return result

    monkeypatch.setattr(VolumeServer, "query", query_with_flip)
    res = run("serve_hot", 0, 0.2, False, str(tmp_path), tiny=True)
    assert flipped
    assert not res["correct"]
    assert res["failed"] == 1
    assert res["metrics"]["ok_ratio"] == 1.0 - 1 / res["attempted"]


def test_launcher_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figcells",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
