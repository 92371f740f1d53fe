"""Integrity-checked durable artifacts: atomic writes, sidecars, quarantine.

Everything the execution stack persists — raw/.npy volumes, checkpoint
journals, manifests, trace files, CSV and figure tables — used to be
written with a bare ``open(path, "w")``: a crash mid-write leaves a
torn file, and a bit flip at rest is silently reread into the next
resumed run.  This module is the single durable-write primitive the
whole project now routes through:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` — the
  ``rows_to_csv`` pattern generalized: temp file in the destination
  directory, ``fsync``, then ``os.replace``, so a killed writer leaves
  either the previous file or the complete new one, never a torn one;
* :func:`write_artifact` — atomic write plus a **sidecar integrity
  record** (``<path>.integrity.json``: SHA-256, byte length, artifact
  kind, schema version) so corruption at rest is detectable;
* :func:`verify_artifact` / :func:`read_artifact` — verification on
  read: a mismatch **quarantines** the artifact (renamed aside to
  ``<path>.corrupt``) and raises :class:`ArtifactIntegrityError` with a
  clear message — a corrupt artifact is never silently reread.  A
  reader that already holds an artifact's record passes it as
  ``read_artifact(..., record=)`` and skips the sidecar, never the hash;
* deterministic disk faults (``enospc@i`` / ``eio@i`` / ``torn@i`` /
  ``bitflip@i``, see :mod:`repro.resilience.faults`) hook in here, so
  the chaos tests can prove all of the above actually engages.

Verification tallies flow into the active tracer as
``resilience.artifacts_*`` counters (and from there into the trace
meta header and the run manifest's validated ``resilience`` section).

The module imports nothing heavy — stdlib plus the fault harness — so
the instrument layer can use it without dragging numpy in.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Mapping, Optional, Tuple

from . import faults as _faults

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "SIDECAR_SUFFIX",
    "QUARANTINE_SUFFIX",
    "ArtifactIntegrityError",
    "take_write_fault",
    "raise_for_disk_fault",
    "corrupt_bytes",
    "corrupt_at_rest",
    "atomic_write_bytes",
    "atomic_write_text",
    "write_artifact",
    "write_text_artifact",
    "sidecar_path",
    "read_sidecar",
    "verify_artifact",
    "read_artifact",
    "quarantine_artifact",
]

#: bumped whenever the sidecar record layout changes incompatibly
ARTIFACT_SCHEMA_VERSION = 1

#: integrity record written next to each artifact
SIDECAR_SUFFIX = ".integrity.json"

#: corrupt artifacts are renamed aside with this suffix (never deleted)
QUARANTINE_SUFFIX = ".corrupt"


class ArtifactIntegrityError(RuntimeError):
    """An artifact failed verification (and was quarantined, if possible).

    Attributes
    ----------
    path : str
        The artifact as originally addressed.
    problem : str
        What mismatched (size, digest, unreadable sidecar).
    quarantined_to : str or None
        Where the corrupt bytes were renamed for post-mortem, or None
        when quarantining itself failed (e.g. read-only filesystem).
    """

    def __init__(self, path: str, problem: str,
                 quarantined_to: Optional[str] = None):
        self.path = path
        self.problem = problem
        self.quarantined_to = quarantined_to
        where = (f"; corrupt file moved to {quarantined_to}"
                 if quarantined_to else "")
        super().__init__(
            f"{path}: artifact failed integrity verification ({problem})"
            f"{where}; re-create the artifact — it will not be reread")


_trace = None


def _count(name: str, value: int = 1) -> None:
    """Accumulate a tracer counter (lazy import — no cycle, no numpy).

    The tracer module is looked up once, not per call: this runs on
    every verified read.
    """
    global _trace
    if _trace is None:
        from ..instrument import trace
        _trace = trace
    _trace.add(name, value)


def take_write_fault() -> Optional[_faults.FaultSpec]:
    """Consume one durable-write index against the active fault plan.

    Called once per durable write (artifact payloads and journal
    records — not sidecars) so ``enospc@i``-style specs address the
    i-th write deterministically.  No-op (and no index consumed) when
    fault injection is off.
    """
    plan = _faults.active_plan()
    if not plan:
        return None
    return plan.for_write(_faults.next_write_index())


def raise_for_disk_fault(spec: Optional[_faults.FaultSpec]) -> None:
    """Raise the OSError an ``enospc``/``eio`` fault models (else no-op)."""
    if spec is None:
        return
    if spec.mode == "enospc":
        raise OSError(errno.ENOSPC,
                      f"injected: no space left on device ({spec.to_spec()})")
    if spec.mode == "eio":
        raise OSError(errno.EIO,
                      f"injected: I/O error ({spec.to_spec()})")


def corrupt_bytes(data: bytes, spec: _faults.FaultSpec) -> bytes:
    """The bytes a ``torn``/``bitflip``/``segread-corrupt`` fault leaves
    on disk.

    ``torn`` keeps the first half; ``bitflip`` flips the case bit of
    the first ASCII letter so framing (JSON quotes, newlines) survives
    while the content — and any checksum over it — does not;
    ``segread-corrupt`` flips the low bit of the last byte — segment
    payloads are raw binary, so length-preserving rot is the realistic
    shape and the sidecar digest is the only thing that can catch it.
    """
    if spec.mode == "torn":
        return data[:len(data) // 2]
    if spec.mode == "segread-corrupt":
        return data[:-1] + bytes([data[-1] ^ 0x01]) if data else data
    if spec.mode == "bitflip":
        for i, byte in enumerate(data):
            if 0x41 <= byte <= 0x5A or 0x61 <= byte <= 0x7A:
                return data[:i] + bytes([byte ^ 0x20]) + data[i + 1:]
        return data[:-1] + bytes([data[-1] ^ 0x01]) if data else data
    return data


def _corrupt_in_place(path: str, spec: _faults.FaultSpec) -> None:
    """Apply a post-write disk fault to the finished file (chaos only)."""
    with open(path, "rb") as fh:
        data = fh.read()
    mutated = corrupt_bytes(data, spec)
    with open(path, "wb") as fh:  # repro: noqa[RPC401]
        fh.write(mutated)
        fh.flush()
        os.fsync(fh.fileno())


def corrupt_at_rest(path: str, spec: _faults.FaultSpec) -> None:
    """Rot a finished artifact on disk per ``spec`` (fault injection only).

    The serving read path uses this to model ``segread-corrupt``: the
    replica's bytes went bad *after* a clean write, which is exactly
    the case only sidecar verification can catch.
    """
    _corrupt_in_place(path, spec)


# -- atomic writes --------------------------------------------------------------


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + replace).

    A writer killed at any instant leaves either the previous file or
    the complete new one — never a truncated mix.  The temp file lives
    in the destination directory so the final ``os.replace`` stays on
    one filesystem.
    """
    path = os.fspath(path)
    spec = take_write_fault()
    raise_for_disk_fault(spec)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                    suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    if spec is not None and spec.mode in ("torn", "bitflip"):
        # model corruption *at rest*: the write itself succeeded, the
        # stored bytes later went bad — what verification must catch
        _corrupt_in_place(path, spec)


def atomic_write_text(path: str, text: str) -> None:
    """:func:`atomic_write_bytes` for text (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))


# -- sidecar integrity records --------------------------------------------------


def sidecar_path(path: str) -> str:
    """Where ``path``'s integrity record lives."""
    return os.fspath(path) + SIDECAR_SUFFIX


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_artifact(path: str, data: bytes, *, kind: str = "",
                   schema_version: int = 1) -> Dict[str, Any]:
    """Atomically write an artifact plus its sidecar integrity record.

    ``kind`` names the artifact family (``"raw-volume"``, ``"trace"``,
    ``"csv"``, …) and ``schema_version`` the *artifact's own* format
    version, so future readers can migrate old artifacts knowingly.
    Returns the sidecar record.
    """
    record = {
        "sidecar_schema_version": ARTIFACT_SCHEMA_VERSION,
        "kind": kind,
        "schema_version": schema_version,
        "sha256": _digest(data),
        "bytes": len(data),
    }
    atomic_write_bytes(path, data)
    # the sidecar itself does not consume a write index: fault plans
    # target artifact payloads, and an atomically-written sidecar that
    # loses the race just re-verifies as a mismatch
    _write_sidecar(sidecar_path(path), record)
    _count("resilience.artifacts_written")
    return record


def write_text_artifact(path: str, text: str, *, kind: str = "",
                        schema_version: int = 1) -> Dict[str, Any]:
    """:func:`write_artifact` for text content (UTF-8)."""
    return write_artifact(path, text.encode("utf-8"), kind=kind,
                          schema_version=schema_version)


def _write_sidecar(path: str, record: Dict[str, Any]) -> None:
    data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                    suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def read_sidecar(path: str) -> Optional[Dict[str, Any]]:
    """The artifact's integrity record, or None when it has no sidecar.

    An unreadable/corrupt sidecar is reported as a record with a
    ``"problem"`` key so :func:`verify_artifact` treats it as a
    verification failure rather than a missing record.
    """
    sc = sidecar_path(path)
    if not os.path.exists(sc):
        return None
    try:
        with open(sc, "rb") as fh:
            record = json.loads(fh.read().decode("utf-8"))
        if not isinstance(record, dict) or "sha256" not in record:
            return {"problem": "sidecar is not an integrity record"}
        return record
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        return {"problem": f"unreadable sidecar: {exc}"}


def quarantine_artifact(path: str, problem: str) -> Optional[str]:
    """Rename a corrupt artifact (and its sidecar) aside for post-mortem.

    Returns the quarantine path, or None when the rename itself failed.
    The quarantine name is suffixed with a counter so repeated
    corruption of the same path never overwrites evidence.
    """
    base = os.fspath(path) + QUARANTINE_SUFFIX
    target = base
    n = 0
    while os.path.exists(target):
        n += 1
        target = f"{base}.{n}"
    try:
        os.replace(path, target)
    except OSError:
        return None
    sc = sidecar_path(path)
    if os.path.exists(sc):
        try:
            os.replace(sc, target + SIDECAR_SUFFIX)
        except OSError:
            pass
    _count("resilience.artifacts_quarantined")
    return target


def _read_verified(path: str, *, quarantine: bool,
                   require_sidecar: bool,
                   record: Optional[Mapping[str, Any]] = None
                   ) -> Tuple[Optional[Mapping[str, Any]], Optional[bytes]]:
    """Read ``path`` once and check those bytes against an integrity record.

    The record is ``record`` when given, else the artifact's sidecar.
    Returns ``(record, data)``: the record and the very bytes whose
    length and SHA-256 matched it, or ``(None, None)`` — nothing read —
    when the artifact has no sidecar (a legacy file, tolerated unless
    ``require_sidecar``).  On any mismatch the artifact is renamed
    aside (when ``quarantine``) and :class:`ArtifactIntegrityError` is
    raised.
    """
    if record is None:
        record = read_sidecar(path)
    if record is None:
        if require_sidecar:
            raise ArtifactIntegrityError(path, "no integrity sidecar")
        return None, None
    problem = record.get("problem")
    data = b""
    if problem is None:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            problem = f"artifact unreadable: {exc}"
    if problem is None and len(data) != record.get("bytes"):
        problem = f"size {len(data)} B != recorded {record.get('bytes')} B"
    if problem is None:
        actual_sha = _digest(data)
        if actual_sha != record.get("sha256"):
            problem = (f"sha256 {actual_sha[:12]}… != recorded "
                       f"{str(record.get('sha256'))[:12]}…")
    if problem is None:
        _count("resilience.artifacts_verified")
        return record, data
    quarantined_to = quarantine_artifact(path, problem) if quarantine else None
    raise ArtifactIntegrityError(path, problem, quarantined_to)


def verify_artifact(path: str, *, quarantine: bool = True,
                    require_sidecar: bool = False) -> Optional[Dict[str, Any]]:
    """Check ``path`` against its sidecar; quarantine + raise on mismatch.

    Returns the sidecar record on success, or None when the artifact
    has no sidecar (a legacy file — tolerated unless
    ``require_sidecar``).  On any mismatch the artifact is renamed
    aside (when ``quarantine``) and :class:`ArtifactIntegrityError` is
    raised: the caller can never read a wrong byte from a verified
    artifact.
    """
    return _read_verified(os.fspath(path), quarantine=quarantine,
                          require_sidecar=require_sidecar)[0]


def read_artifact(path: str, *, verify: bool = True,
                  require_sidecar: bool = False,
                  record: Optional[Mapping[str, Any]] = None) -> bytes:
    """Read an artifact's bytes, verified against the sidecar.

    The file is opened once: the bytes returned are the bytes whose
    length and SHA-256 were checked.

    ``record`` — an integrity record the caller already holds for this
    artifact (its ``bytes`` and ``sha256``, as :func:`read_sidecar`
    returned them when the artifact last verified).  The bytes are then
    checked against it and the sidecar is not opened; a mismatch
    quarantines and raises exactly as a sidecar mismatch does.
    """
    path = os.fspath(path)
    data = None
    if verify:
        data = _read_verified(path, quarantine=True,
                              require_sidecar=require_sidecar,
                              record=record)[1]
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    return data
