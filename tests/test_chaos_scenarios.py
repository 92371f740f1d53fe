"""The chaos gates in tier-1: ``repro chaos`` scenarios run in process.

``serve``, ``cluster``, ``disk`` and ``fuzz`` run through the CLI with
trace paths under ``tmp_path``.  Each must exit 0, leave a trace and
manifest that :func:`repro.instrument.manifest.cross_check` accepts
(phases tiling every cell exactly), reproduce its
recorded counts exactly, and leave no fault plan or tracer behind.
``smoke`` reaps a hang through a 15 s cell timeout, so it runs only as
a CI leg.
"""

from __future__ import annotations

import argparse
import json
import re

import pytest

from repro.chaos import SCENARIOS
from repro.cli import build_parser, main
from repro.instrument import trace
from repro.instrument.manifest import (
    cross_check,
    validate_manifest,
    validate_trace_file,
)
from repro.resilience.faults import FAULTS_ENV_VAR, active_plan

#: manifest tallies each traced scenario reproduces exactly
EXPECTED = {
    "serve": ("serve", {
        "ok": 24, "rejected": 0, "shed": 0,
        "reliability_failovers": 14, "reliability_breaker_denied": 69,
        "reliability_breaker_open": 10, "reliability_breaker_half_open": 9,
        "reliability_read_repairs": 1, "segments_rebuilt": 1,
    }),
    "cluster": ("serve", {
        "cluster_ok": 36, "cluster_rejected": 0, "cluster_deaths": 2,
        "cluster_joins": 1, "cluster_cutovers": 3,
        "cluster_segments_moved": 45, "reliability_failovers": 9,
        "reliability_breaker_denied": 30, "scrub_checked": 288,
        "scrub_repaired": 2, "scrub_divergent": 1,
        # priced rebalances: curve ranges against a Cartesian re-cut
        "cluster_moves_sfc": 63, "cluster_moves_cartesian": 207,
    }),
    "disk": ("resilience", {
        "restored": 2, "journal_write_errors": 1, "journal_corrupt": 1,
        "journal_dropped_lines": 1, "retries": 1,
        "artifacts_quarantined": 1, "failures": 0,
    }),
}

#: the interleaving fuzz: the reference run, then hits per seed 1..8
FUZZ_REFERENCE = (471, 314)
FUZZ_HITS = [296, 307, 281, 283, 305, 290, 292, 281]


@pytest.fixture()
def ambient(monkeypatch):
    """An inert ambient fault plan and tracer the scenario must restore."""
    monkeypatch.setenv(FAULTS_ENV_VAR, "raise@999")
    tracer = trace.enable()
    yield tracer
    trace.disable()


def _assert_nothing_leaked(ambient):
    assert active_plan().to_spec() == "raise@999"
    assert trace.current() is ambient
    assert ambient.records == [] and not ambient.counters


class TestParser:
    def test_choices_are_the_registry(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        scenario = next(a for a in sub.choices["chaos"]._actions
                        if a.dest == "scenario")
        assert sorted(scenario.choices) == sorted(SCENARIOS)

    def test_trace_path_defaults_per_scenario(self):
        args = build_parser().parse_args(["chaos", "serve"])
        assert args.trace_path is None
        # the positional must not read as the shared --trace flag, which
        # would trace the undisturbed reference runs too
        assert not hasattr(args, "trace")


@pytest.mark.parametrize("scenario", sorted(EXPECTED))
def test_traced_scenario(scenario, tmp_path, capsys, ambient):
    path = str(tmp_path / f"{scenario}.jsonl")
    assert main(["chaos", scenario, path]) == 0
    assert f"OK: chaos {scenario} held" in capsys.readouterr().out
    _assert_nothing_leaked(ambient)

    assert validate_trace_file(path) > 0
    with open(path + ".manifest.json") as fh:
        manifest = validate_manifest(json.load(fh))
    assert cross_check(path, manifest) == []
    section, want = EXPECTED[scenario]
    got = manifest[section]
    assert {k: got.get(k) for k in want} == want


def test_fuzz(tmp_path, capsys, ambient):
    path = tmp_path / "fuzz.jsonl"
    assert main(["chaos", "fuzz", str(path)]) == 0
    out = capsys.readouterr().out
    _assert_nothing_leaked(ambient)
    assert not path.exists()  # the fuzz writes no trace
    ref = re.search(r"reference: (\d+) cache accesses, (\d+) hits", out)
    assert tuple(int(g) for g in ref.groups()) == FUZZ_REFERENCE
    seeds = re.findall(r"seed (\d+): .*, (\d+) hits, bytes identical", out)
    assert [int(s) for s, _ in seeds] == list(range(1, 9))
    assert [int(h) for _, h in seeds] == FUZZ_HITS
    assert "OK: chaos fuzz held" in out


def test_cluster_command_traces_only_its_session(tmp_path, capsys):
    # `repro cluster` shares the scenario's helpers: its undisturbed
    # reference run stays out of the trace, as the scenario's does
    path = str(tmp_path / "cluster.jsonl")
    assert main(["cluster", "--shape", "16", "--chunk", "4",
                 "--queries", "18", "--shards", "4",
                 "--faults", "shard-flap@2:at=6:down=6",
                 "--trace", path]) == 0
    with open(path) as fh:
        names = [rec["name"] for rec in map(json.loads, fh)
                 if rec.get("type") == "span"]
    assert names.count("serve.query") == 18
    assert names.count("serve.cluster") == 1
