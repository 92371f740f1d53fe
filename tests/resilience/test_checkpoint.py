"""Checkpoint journal: exact round-trips, torn-tail tolerance, quarantine."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import (
    BilateralCell,
    default_ivybridge,
    run_bilateral_cell,
)
from repro.instrument.manifest import config_hash
from repro.resilience import CheckpointStore, decode_result, encode_result
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    migrate_journal,
)
from repro.resilience.faults import clear_faults, install_faults


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    clear_faults()
    yield
    clear_faults()


def read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


def write_v1_journal(path, result, keys):
    """A pre-checksum journal as the v1 code wrote it."""
    with open(path, "w") as fh:
        for key in keys:
            fh.write(json.dumps({"schema_version": 1, "key": key,
                                 "kind": "BilateralCell", "attempts": 1,
                                 "result": encode_result(result)}) + "\n")


@pytest.fixture(scope="module")
def cell():
    return BilateralCell(platform=default_ivybridge(64), shape=(16, 16, 16),
                         n_threads=2, stencil="r1", pencils_per_thread=1)


@pytest.fixture(scope="module")
def result(cell):
    return run_bilateral_cell(cell)


class TestEncodeDecode:
    def test_round_trip_compares_equal(self, result):
        assert decode_result(encode_result(result)) == result

    def test_round_trip_is_exact_not_approximate(self, result):
        restored = decode_result(encode_result(result))
        assert restored.runtime_seconds == result.runtime_seconds
        assert restored.counters == result.counters
        assert restored.sim.per_thread_cycles == result.sim.per_thread_cycles

    def test_per_thread_cycles_keys_stay_ints(self, result):
        doc = json.loads(json.dumps(encode_result(result)))
        restored = decode_result(doc)
        assert all(isinstance(k, int)
                   for k in restored.sim.per_thread_cycles)

    def test_survives_json_serialization(self, result):
        doc = json.loads(json.dumps(encode_result(result)))
        assert decode_result(doc) == result


class TestCheckpointStore:
    def test_missing_file_loads_empty(self, tmp_path):
        store = CheckpointStore(tmp_path / "never-written.jsonl")
        assert store.load() == {}
        assert store.keys() == set()

    def test_record_then_load(self, tmp_path, cell, result):
        key = config_hash(cell)
        with CheckpointStore(tmp_path / "journal.jsonl") as store:
            store.record(key, result, kind="BilateralCell", attempts=2)
            assert store.load() == {key: result}

    def test_records_are_durable_lines(self, tmp_path, cell, result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("aaaa", result)
            store.record("bbbb", result)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert rec["schema_version"] == CHECKPOINT_SCHEMA_VERSION
            assert rec["key"] in ("aaaa", "bbbb")

    def test_torn_trailing_line_is_dropped(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("good", result)
            store.record("lost", result)
        # simulate a crash mid-write: truncate inside the last record
        raw = path.read_text()
        path.write_text(raw[:len(raw) - 40])
        loaded = CheckpointStore(path).load()
        assert set(loaded) == {"good"}
        assert loaded["good"] == result

    def test_foreign_and_blank_lines_skipped(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("good", result)
        with open(path, "a") as fh:
            fh.write("\n")
            fh.write(json.dumps({"schema_version": 999, "key": "future",
                                 "result": {}}) + "\n")
            fh.write(json.dumps({"unrelated": True}) + "\n")
        assert set(CheckpointStore(path).load()) == {"good"}

    def test_reset_removes_journal_and_quarantine(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        store = CheckpointStore(path)
        store.record("x", result)
        store.quarantine({"cell": 0, "problem": "nan runtime"})
        assert os.path.exists(store.path)
        assert os.path.exists(store.quarantine_path)
        store.reset()
        assert not os.path.exists(store.path)
        assert not os.path.exists(store.quarantine_path)
        assert store.load() == {}

    def test_quarantine_appends_jsonl(self, tmp_path):
        store = CheckpointStore(tmp_path / "journal.jsonl")
        store.quarantine({"cell": 3, "problem": "a"})
        store.quarantine({"cell": 5, "problem": "b"})
        entries = [json.loads(line) for line in
                   read_text(store.quarantine_path).splitlines()]
        assert [e["cell"] for e in entries] == [3, 5]

    def test_duplicate_key_keeps_latest(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("k", result, attempts=1)
            store.record("k", result, attempts=3)
        assert CheckpointStore(path).load() == {"k": result}

    def test_close_is_idempotent(self, tmp_path, result):
        store = CheckpointStore(tmp_path / "journal.jsonl")
        store.record("k", result)
        store.close()
        store.close()
        store.record("k2", result)  # reopens transparently
        assert set(store.load()) == {"k", "k2"}
        store.close()


class TestRecordChecksums:
    """Schema v2: every record self-verifies, mid-journal rot is caught."""

    def test_records_carry_a_valid_digest(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("k", result)
        (rec,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert rec["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        assert len(rec["sha256"]) == 64

    def test_mid_journal_corruption_quarantined_not_decoded(self, tmp_path,
                                                            result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("first", result)
            store.record("second", result)
            store.record("third", result)
        lines = path.read_text().splitlines()
        # rot a *non-tail* record: valid JSON, content no longer matches
        # its checksum
        lines[1] = lines[1].replace('"attempts": 1', '"attempts": 9', 1)
        path.write_text("\n".join(lines) + "\n")

        store = CheckpointStore(path)
        loaded = store.load()
        assert set(loaded) == {"first", "third"}
        assert store.load_stats == {"records": 2, "migrated": 0,
                                    "corrupt": 1, "dropped_lines": 0}
        (entry,) = [json.loads(line) for line in
                    read_text(store.quarantine_path).splitlines()]
        assert entry["line"] == 2
        assert "checksum" in entry["problem"]

    def test_quarantine_can_be_suppressed(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("k", result)
        raw = path.read_text()
        path.write_text(raw.replace('"attempts": 1', '"attempts": 9', 1))
        store = CheckpointStore(path)
        assert store.load(quarantine_corrupt=False) == {}
        assert not os.path.exists(store.quarantine_path)

    def test_v1_records_still_load_and_count_migrated(self, tmp_path,
                                                      result):
        path = tmp_path / "journal.jsonl"
        write_v1_journal(path, result, ["aaaa", "bbbb"])
        store = CheckpointStore(path)
        assert store.load() == {"aaaa": result, "bbbb": result}
        assert store.load_stats["migrated"] == 2
        assert store.load_stats["corrupt"] == 0

    def test_enospc_on_record_degrades_not_aborts(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        install_faults("enospc@0")
        with CheckpointStore(path) as store:
            assert store.record("starved", result) is False
            assert store.write_errors == 1
            assert store.record("landed", result) is True
        clear_faults()
        assert set(CheckpointStore(path).load()) == {"landed"}

    def test_torn_record_merges_and_both_cells_rerun(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        install_faults("torn@0")
        with CheckpointStore(path) as store:
            store.record("torn", result)
            store.record("swallowed", result)
            store.record("intact", result)
        clear_faults()
        store = CheckpointStore(path)
        assert set(store.load()) == {"intact"}
        assert store.load_stats["dropped_lines"] == 1


class TestMigrateJournal:
    def test_v1_round_trips_through_migration(self, tmp_path, result):
        path = str(tmp_path / "journal.jsonl")
        write_v1_journal(path, result, ["aaaa", "bbbb"])
        before = CheckpointStore(path).load()
        assert migrate_journal(path) == 2
        store = CheckpointStore(path)
        assert store.load() == before
        assert store.load_stats["migrated"] == 0  # all records current now
        for line in read_text(path).splitlines():
            assert json.loads(line)["schema_version"] \
                == CHECKPOINT_SCHEMA_VERSION

    def test_migration_drops_corrupt_records(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("good", result)
            store.record("rotten", result)
        raw = path.read_text()
        head, _, tail = raw.partition("\n")
        path.write_text(head + "\n"
                        + tail.replace('"attempts": 1', '"attempts": 9', 1))
        assert migrate_journal(str(path)) == 1
        assert set(CheckpointStore(path).load()) == {"good"}

    def test_out_path_leaves_the_original_untouched(self, tmp_path, result):
        src = str(tmp_path / "old.jsonl")
        dst = str(tmp_path / "new.jsonl")
        write_v1_journal(src, result, ["k"])
        original = read_text(src)
        assert migrate_journal(src, dst) == 1
        assert read_text(src) == original
        assert CheckpointStore(dst).load() == CheckpointStore(src).load()

    def test_migrating_a_missing_journal_writes_an_empty_one(self, tmp_path):
        path = str(tmp_path / "never.jsonl")
        assert migrate_journal(path) == 0
        assert read_text(path) == ""

    def test_migration_dedups_by_key(self, tmp_path, result):
        path = tmp_path / "journal.jsonl"
        with CheckpointStore(path) as store:
            store.record("k", result, attempts=1)
            store.record("k", result, attempts=3)
        assert migrate_journal(str(path)) == 1
        (rec,) = [json.loads(line) for line in read_text(path).splitlines()]
        assert rec["attempts"] == 3  # latest wins, as on load
