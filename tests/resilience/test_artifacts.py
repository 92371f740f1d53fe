"""Artifact layer: atomic writes, sidecar verification, quarantine, faults."""

from __future__ import annotations

import json
import os

import pytest

from repro.instrument import trace
from repro.resilience import artifacts
from repro.resilience.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactIntegrityError,
    QUARANTINE_SUFFIX,
    atomic_write_bytes,
    corrupt_bytes,
    read_artifact,
    read_sidecar,
    sidecar_path,
    verify_artifact,
    write_artifact,
    write_text_artifact,
)
from repro.resilience.faults import clear_faults, install_faults


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    clear_faults()
    trace.disable()
    yield
    clear_faults()
    trace.disable()


class TestAtomicWrite:
    def test_writes_the_bytes(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(str(path), b"payload")
        assert path.read_bytes() == b"payload"

    def test_replaces_previous_content(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(str(path), b"old")
        atomic_write_bytes(str(path), b"new")
        assert path.read_bytes() == b"new"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "a.bin"), b"x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_enospc_fault_preserves_previous_file(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(str(path), b"survivor")
        install_faults("enospc@0")
        with pytest.raises(OSError):
            atomic_write_bytes(str(path), b"doomed")
        clear_faults()
        assert path.read_bytes() == b"survivor"
        # the failed attempt cleaned its temp file up
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]


class TestSidecar:
    def test_write_artifact_records_digest_and_length(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        record = write_artifact(path, b"abcdef", kind="raw-volume",
                                schema_version=3)
        assert record == read_sidecar(path)
        assert record["bytes"] == 6
        assert record["kind"] == "raw-volume"
        assert record["schema_version"] == 3
        assert record["sidecar_schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert len(record["sha256"]) == 64

    def test_text_artifact_round_trips(self, tmp_path):
        path = str(tmp_path / "table.csv")
        write_text_artifact(path, "a,b\n1,2\n", kind="csv")
        assert read_artifact(path) == b"a,b\n1,2\n"

    def test_missing_sidecar_is_legacy_not_error(self, tmp_path):
        path = tmp_path / "old.raw"
        path.write_bytes(b"pre-sidecar artifact")
        assert read_sidecar(str(path)) is None
        assert verify_artifact(str(path)) is None
        assert read_artifact(str(path)) == b"pre-sidecar artifact"

    def test_require_sidecar_rejects_legacy(self, tmp_path):
        path = tmp_path / "old.raw"
        path.write_bytes(b"x")
        with pytest.raises(ArtifactIntegrityError, match="no integrity"):
            verify_artifact(str(path), require_sidecar=True)

    def test_verified_read_opens_the_artifact_once(self, tmp_path,
                                                   monkeypatch):
        # the bytes returned are the bytes whose length and digest
        # were checked: no second read after verification
        path = str(tmp_path / "vol.raw")
        write_artifact(path, b"abcdef")
        opened = _count_os_open(monkeypatch)
        assert read_artifact(path) == b"abcdef"
        assert opened.count(path) == 1

    def test_kept_record_read_opens_only_the_data_file(self, tmp_path,
                                                       monkeypatch):
        path = str(tmp_path / "vol.raw")
        record = write_artifact(path, b"abcdef")
        opened = _count_os_open(monkeypatch)
        assert read_artifact(path, record=record) == b"abcdef"
        assert opened == [path]

    def test_garbage_sidecar_fails_verification(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        write_artifact(path, b"abcdef")
        with open(sidecar_path(path), "w") as fh:
            fh.write("not json{")
        assert "problem" in read_sidecar(path)
        with pytest.raises(ArtifactIntegrityError, match="sidecar"):
            verify_artifact(str(path))

    def test_directory_sidecar_is_a_problem_not_a_legacy_file(self,
                                                              tmp_path):
        path = str(tmp_path / "vol.raw")
        write_artifact(path, b"abcdef")
        os.remove(sidecar_path(path))
        os.mkdir(sidecar_path(path))
        assert read_sidecar(path)["problem"].startswith("unreadable sidecar")
        with pytest.raises(ArtifactIntegrityError, match="sidecar"):
            read_artifact(path)

    def test_large_legacy_file_is_read_whole(self, tmp_path):
        # longer than one read chunk: the read goes on to EOF
        path = tmp_path / "big.raw"
        data = os.urandom(3 * (1 << 16) + 5)
        path.write_bytes(data)
        assert read_artifact(str(path)) == data
        assert read_artifact(str(path), verify=False) == data

    def test_each_read_is_sized_not_chunked(self, tmp_path, monkeypatch):
        # the bytes in one read and an empty read for EOF: the length
        # comes from the record, or from the file when there is none
        big = str(tmp_path / "big.raw")
        data = os.urandom(1 << 20)
        with open(big, "wb") as fh:
            fh.write(data)
        path = str(tmp_path / "vol.raw")
        record = write_artifact(path, b"0123456789")
        reads = _count_os_read(monkeypatch)
        assert read_artifact(big) == data
        assert reads == [len(data) + 1, artifacts._READ_CHUNK]
        reads.clear()
        assert read_artifact(big, verify=False) == data
        assert read_artifact(path, record=record) == b"0123456789"
        assert len(reads) == 4

    def test_growth_is_read_in_one_more_read(self, tmp_path, monkeypatch):
        path = str(tmp_path / "vol.raw")
        record = write_artifact(path, b"0123456789")
        with open(path, "ab") as fh:
            fh.write(b"x" * (1 << 20))
        reads = _count_os_read(monkeypatch)
        with pytest.raises(ArtifactIntegrityError,
                           match=f"size {10 + (1 << 20)} B"):
            read_artifact(path, record=record)
        # the recorded length and one byte, the rest and one byte, EOF
        assert reads == [11, (1 << 20), artifacts._READ_CHUNK]


def _count_os_read(monkeypatch) -> list:
    """Record the size of every ``os.read`` the artifact layer asks for."""
    reads = []
    real_read = os.read

    def counting_read(fd, n):
        reads.append(n)
        return real_read(fd, n)

    monkeypatch.setattr(artifacts.os, "read", counting_read)
    return reads


def _count_os_open(monkeypatch) -> list:
    """Record every path the artifact layer hands to ``os.open``."""
    opened = []
    real_open = os.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(artifacts.os, "open", counting_open)
    return opened


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestQuarantine:
    def test_tampered_artifact_quarantined_and_raised(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        write_artifact(path, b"good bytes here")
        with open(path, "r+b") as fh:
            fh.write(b"EVIL")
        with pytest.raises(ArtifactIntegrityError, match="sha256") as excinfo:
            read_artifact(path)
        assert excinfo.value.quarantined_to == path + QUARANTINE_SUFFIX
        assert not os.path.exists(path)
        assert not os.path.exists(sidecar_path(path))
        # the evidence (bytes + sidecar) moved aside intact
        quarantined = path + QUARANTINE_SUFFIX
        assert _read_bytes(quarantined).startswith(b"EVIL")
        assert os.path.exists(quarantined + ".integrity.json")

    def test_truncation_detected_by_size_before_digest(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        write_artifact(path, b"0123456789")
        with open(path, "wb") as fh:
            fh.write(b"01234")
        with pytest.raises(ArtifactIntegrityError, match="size"):
            verify_artifact(path)

    def test_repeat_corruption_never_overwrites_evidence(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        for fill in (b"first corruption", b"second corruption"):
            write_artifact(path, b"good")
            with open(path, "wb") as fh:
                fh.write(fill)
            with pytest.raises(ArtifactIntegrityError):
                verify_artifact(path)
        assert _read_bytes(path + QUARANTINE_SUFFIX) == b"first corruption"
        assert _read_bytes(path + QUARANTINE_SUFFIX + ".1") \
            == b"second corruption"

    @pytest.mark.parametrize("kept", [False, True],
                             ids=["sidecar", "kept-record"])
    @pytest.mark.parametrize("grown_by", [1, 3 * (1 << 16)])
    def test_growth_past_the_record_is_caught(self, tmp_path, kept,
                                              grown_by):
        # bytes appended after the record was written: the read goes
        # past the recorded length and reports the true one
        path = str(tmp_path / "vol.raw")
        record = write_artifact(path, b"0123456789")
        with open(path, "ab") as fh:
            fh.write(b"x" * grown_by)
        with pytest.raises(ArtifactIntegrityError,
                           match=f"size {10 + grown_by} B != recorded 10 B"
                           ) as excinfo:
            read_artifact(path, record=record if kept else None)
        assert excinfo.value.quarantined_to == path + QUARANTINE_SUFFIX
        assert not os.path.exists(path)

    @pytest.mark.parametrize("kept", [False, True],
                             ids=["sidecar", "kept-record"])
    def test_truncated_copy_is_caught(self, tmp_path, kept):
        path = str(tmp_path / "vol.raw")
        record = write_artifact(path, b"0123456789")
        with open(path, "r+b") as fh:
            fh.truncate(4)
        with pytest.raises(ArtifactIntegrityError,
                           match="size 4 B != recorded 10 B") as excinfo:
            read_artifact(path, record=record if kept else None)
        assert excinfo.value.quarantined_to == path + QUARANTINE_SUFFIX

    @pytest.mark.parametrize("kept", [False, True],
                             ids=["sidecar", "kept-record"])
    def test_directory_in_place_of_the_copy_is_caught(self, tmp_path, kept):
        # os.open accepts a directory on Linux; the read must still fail
        path = str(tmp_path / "vol.raw")
        record = write_artifact(path, b"0123456789")
        os.remove(path)
        os.mkdir(path)
        with pytest.raises(ArtifactIntegrityError,
                           match="artifact unreadable") as excinfo:
            read_artifact(path, record=record if kept else None)
        assert excinfo.value.quarantined_to == path + QUARANTINE_SUFFIX
        assert os.path.isdir(path + QUARANTINE_SUFFIX)

    def test_same_length_rot_is_caught_by_the_digest(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        record = write_artifact(path, b"0123456789")
        with open(path, "r+b") as fh:
            fh.write(b"9")
        with pytest.raises(ArtifactIntegrityError, match="sha256"):
            read_artifact(path, record=record)

    def test_quarantine_false_leaves_file_in_place(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        write_artifact(path, b"good")
        with open(path, "wb") as fh:
            fh.write(b"bad!")
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            verify_artifact(path, quarantine=False)
        assert excinfo.value.quarantined_to is None
        assert os.path.exists(path)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors through /proc/self/fd")
def test_no_read_path_leaks_a_descriptor(tmp_path):
    # raw descriptors raise no ResourceWarning: count them instead
    good = str(tmp_path / "good.raw")
    record = write_artifact(good, b"0123456789")
    grown = str(tmp_path / "grown.raw")
    write_artifact(grown, b"0123456789")
    with open(grown, "ab") as fh:
        fh.write(b"more")
    as_dir = str(tmp_path / "dir.raw")
    write_artifact(as_dir, b"0123456789")
    os.remove(as_dir)
    os.mkdir(as_dir)
    os.mkdir(sidecar_path(str(tmp_path / "legacy.raw")))
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        assert read_artifact(good, record=record) == b"0123456789"
        assert read_sidecar(str(tmp_path / "missing.raw")) is None
        assert "problem" in read_sidecar(str(tmp_path / "legacy.raw"))
        for path in (grown, as_dir):
            with pytest.raises(ArtifactIntegrityError):
                verify_artifact(path, quarantine=False)
        with pytest.raises(OSError):
            read_artifact(str(tmp_path / "missing.raw"))
    assert len(os.listdir("/proc/self/fd")) == before


class TestDiskFaults:
    def test_torn_write_caught_on_verify(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        install_faults("torn@0")
        write_artifact(path, b"0123456789ABCDEF")
        clear_faults()
        assert os.path.getsize(path) == 8  # first half survived
        with pytest.raises(ArtifactIntegrityError, match="size"):
            read_artifact(path)

    def test_bitflip_at_rest_caught_on_verify(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        install_faults("bitflip@0")
        write_artifact(path, b"stored then rotted")
        clear_faults()
        assert os.path.getsize(path) == 18  # same length, different bytes
        with pytest.raises(ArtifactIntegrityError, match="sha256"):
            read_artifact(path)

    def test_write_indexes_skip_sidecars(self, tmp_path):
        # index 1 must hit the *second artifact payload*, not the first
        # artifact's sidecar
        install_faults("enospc@1")
        write_artifact(str(tmp_path / "first.raw"), b"ok")
        with pytest.raises(OSError):
            write_artifact(str(tmp_path / "second.raw"), b"starved")
        clear_faults()
        assert verify_artifact(str(tmp_path / "first.raw")) is not None

    def test_corrupt_bytes_bitflip_preserves_framing(self):
        mutated = corrupt_bytes(b'{"key": "value"}', type(
            "Spec", (), {"mode": "bitflip"})())
        assert mutated == b'{"Key": "value"}'
        assert json.loads(mutated)  # still parses; content differs


class TestCounters:
    def test_write_verify_quarantine_reach_the_tracer(self, tmp_path):
        path = str(tmp_path / "vol.raw")
        tracer = trace.enable()
        try:
            write_artifact(path, b"counted")
            read_artifact(path)
            with open(path, "wb") as fh:
                fh.write(b"rotten!")
            with pytest.raises(ArtifactIntegrityError):
                read_artifact(path)
        finally:
            trace.disable()
        assert tracer.counters["resilience.artifacts_written"] == 1
        assert tracer.counters["resilience.artifacts_verified"] == 1
        assert tracer.counters["resilience.artifacts_quarantined"] == 1
