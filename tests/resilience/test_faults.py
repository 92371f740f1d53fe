"""Fault-injection harness: spec parsing, determinism, firing semantics."""

from __future__ import annotations

import os

import pytest

from repro.resilience import (
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear_faults,
    install_faults,
    parse_faults,
)
from repro.resilience import faults as faults_mod


@pytest.fixture(autouse=True)
def _clean_env():
    clear_faults()
    yield
    clear_faults()


class TestParsing:
    def test_single_fault(self):
        plan = parse_faults("crash@2")
        assert plan.specs == (FaultSpec(mode="crash", index=2),)

    def test_composed_plan_with_options(self):
        plan = parse_faults("crash@1,hang@5:always:seconds=7.5,corrupt@3")
        assert [s.mode for s in plan.specs] == ["crash", "hang", "corrupt"]
        hang = plan.specs[1]
        assert hang.when == "always"
        assert hang.seconds == 7.5

    def test_spec_round_trips(self):
        for spec in ("crash@2", "hang@5:always", "hang@1:seconds=9",
                     "raise@0,corrupt@4:always"):
            assert parse_faults(spec).to_spec() == spec

    @pytest.mark.parametrize("bad", [
        "explode@2", "crash", "crash@x", "crash@2:sometimes", "@3",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)

    def test_empty_chunks_ignored(self):
        assert parse_faults(",,") == FaultPlan()
        assert not parse_faults("")


class TestFiringSemantics:
    def test_once_fires_on_first_attempt_only(self):
        spec = FaultSpec(mode="raise", index=4)
        assert spec.fires(4, 1)
        assert not spec.fires(4, 2)
        assert not spec.fires(3, 1)

    def test_always_fires_on_every_attempt(self):
        spec = FaultSpec(mode="raise", index=4, when="always")
        assert spec.fires(4, 1) and spec.fires(4, 5)

    def test_plan_first_match_wins(self):
        plan = parse_faults("raise@2,crash@2:always")
        assert plan.for_cell(2, 1).mode == "raise"
        assert plan.for_cell(2, 2).mode == "crash"  # raise@2 is once-only
        assert plan.for_cell(0, 1) is None

    def test_determinism_is_pure_function_of_index_and_attempt(self):
        plan = parse_faults("corrupt@1,hang@3")
        first = [(i, a, plan.for_cell(i, a))
                 for i in range(5) for a in (1, 2)]
        second = [(i, a, plan.for_cell(i, a))
                  for i in range(5) for a in (1, 2)]
        assert first == second


class TestInstallation:
    def test_install_exports_env_var_and_active_plan_reads_it(self):
        install_faults("crash@7")
        assert os.environ[FAULTS_ENV_VAR] == "crash@7"
        assert active_plan().for_cell(7, 1).mode == "crash"

    def test_install_accepts_plan_object(self):
        plan = parse_faults("hang@1:seconds=2")
        assert install_faults(plan) == plan
        assert active_plan() == plan

    def test_clear_deactivates(self):
        install_faults("crash@7")
        clear_faults()
        assert not active_plan()
        assert FAULTS_ENV_VAR not in os.environ

    def test_no_env_means_empty_plan(self):
        assert active_plan() == FaultPlan()

    def test_environment_changes_take_effect_at_once(self, monkeypatch):
        # the spec is re-read on every call, not only at install time
        assert not active_plan()
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash@7")
        assert active_plan().for_cell(7, 1).mode == "crash"
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise@2")
        assert active_plan().for_cell(7, 1) is None
        assert active_plan().for_cell(2, 1).mode == "raise"
        clear_faults()
        assert not active_plan()


class TestClusterModes:
    def test_parse_and_round_trip(self):
        spec = ("shard-kill@2:at=8,shard-join@2:at=32,"
                "shard-flap@4:at=10:down=6")
        plan = parse_faults(spec)
        assert [s.mode for s in plan.specs] \
            == ["shard-kill", "shard-join", "shard-flap"]
        assert plan.specs[0].at == 8
        assert plan.specs[2].down == 6
        assert plan.to_spec() == spec

    def test_cluster_modes_require_an_event(self):
        with pytest.raises(ValueError, match="at=EVENT"):
            parse_faults("shard-kill@2")

    def test_cluster_actions_fire_at_their_events(self):
        plan = parse_faults("shard-kill@2:at=8,shard-join@2:at=32,"
                            "shard-flap@4:at=10:down=6")
        assert plan.cluster_actions(8) == [("kill", 2)]
        assert plan.cluster_actions(10) == [("kill", 4)]
        assert plan.cluster_actions(16) == [("join", 4)]
        assert plan.cluster_actions(32) == [("join", 2)]
        for quiet in (0, 7, 9, 11, 15, 17, 31, 33):
            assert plan.cluster_actions(quiet) == []

    def test_flap_with_zero_down_rejoins_next_event(self):
        plan = parse_faults("shard-flap@1:at=4")
        assert plan.cluster_actions(4) == [("kill", 1)]
        assert plan.cluster_actions(5) == [("join", 1)]

    def test_cluster_specs_do_not_leak_into_read_faults(self):
        plan = parse_faults("shard-flap@1:at=4")
        assert plan.for_shard(1) is None
        assert plan.for_cell(1, 0) is None


class TestFire:
    def test_raise_mode_raises_injected_fault(self):
        with pytest.raises(InjectedFault, match="cell 3"):
            faults_mod.fire(FaultSpec(mode="raise", index=3))

    def test_corrupt_mode_asks_caller_to_corrupt(self):
        assert faults_mod.fire(FaultSpec(mode="corrupt", index=0)) is True

    def test_hang_mode_sleeps_then_returns(self):
        assert faults_mod.fire(
            FaultSpec(mode="hang", index=0, seconds=0.01)) is False
