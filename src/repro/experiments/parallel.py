"""Fan independent experiment cells across worker processes.

Every cell owns its own :class:`~repro.memsim.hierarchy.Machine` — cells
never share simulator state — so a sweep of cells is embarrassingly
parallel and fidelity is untouched by distribution.  This module is the
single chokepoint through which the figure drivers, sweeps, and the CLI
run their cell lists:

* ``workers <= 1`` (the default) runs cells serially in the calling
  process — byte-identical to the historical serial loops, and the path
  tests take when determinism is being pinned;
* ``workers > 1`` distributes over a
  :class:`~repro.resilience.pool.SupervisedPool`.  Results come back in
  input order regardless of completion order, and each cell's RNG
  behavior is fixed by its own ``seed`` field, so the result list is
  identical to the serial one.

Cross-cutting concerns handled here so callers never see them:

* **Tracing.**  When the parent process has a tracer enabled
  (:func:`repro.instrument.trace.enable`), every cell — serial or in a
  worker — runs under its own fresh :class:`~repro.instrument.trace.Tracer`
  whose finished records are shipped back and absorbed into the parent
  tracer tagged with the cell's input index, so one ordered trace file
  falls out of any worker count.  Only each cell's *final* attempt is
  absorbed (retried attempts are counted, not traced twice).
* **Failures.**  A cell that raises does not abort the batch: every
  other cell still completes, and a :class:`CellRunError` is then
  raised naming each failed cell's index and carrying the original
  (worker-side) traceback text.  Worker payloads are schema-validated
  first (:mod:`repro.resilience.validate`), so a corrupted result
  becomes a failure, never a silently wrong row.
* **Resilience.**  ``retry`` re-attempts transiently failed cells with
  deterministic backoff; ``timeout`` reaps a hung worker and requeues
  its cell (parallel path only — the serial path cannot kill itself);
  ``checkpoint``/``resume`` journal every completed cell by its
  ``config_hash`` so an interrupted batch restarts where it stopped.
  ``KeyboardInterrupt``/SIGTERM shut the pool down (no orphan workers),
  leave the journal flushed, and re-raise.  Attempt/retry/timeout
  counts land in the parent tracer's ``resilience.*`` counters and from
  there in the run manifest.  See docs/RESILIENCE.md.
* **Resource governance.**  ``govern`` runs the batch under a
  :class:`~repro.resilience.governor.Governor`: a preflight clamps the
  worker count to what the machine's free memory can hold and drops
  trace capture preemptively when the artifact disk is nearly full;
  workers run under an ``RLIMIT_AS`` cap so runaway cells fail in-band;
  and cells that still fail under memory pressure (``MemoryError`` /
  ``oom-kill``) descend a **degradation ladder** — re-run with half the
  workers, halving until serial, then without trace capture — before
  the batch is allowed to fail.  Ladder re-runs carry an *attempt
  offset* so a ``once`` injected fault does not re-fire on the rung
  that is supposed to clear it.  Decisions surface as
  ``resilience.gov_*`` counters.

Worker processes rebuild dataset/grid caches on first use (the caches in
:mod:`repro.experiments.harness` are per-process); with ``fork`` start
method (Linux default) already-warm parent caches are inherited for
free.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..instrument import trace as _trace
from ..instrument.manifest import config_hash
from ..resilience import faults as _faults
from ..resilience.checkpoint import CheckpointStore
from ..resilience.governor import Admission, Governor
from ..resilience.policy import RetryPolicy, classify_error, memory_pressure
from ..resilience.pool import JobOutcome, SupervisedPool
from ..resilience.validate import corrupt_payload, validate_outcome
from .harness import Cell, CellResult, run_cell

__all__ = ["run_cell", "run_cells_parallel", "resolve_workers",
           "CellFailure", "CellRunError"]


@dataclass
class CellFailure:
    """One failed cell: its input index, the cell, and the traceback text.

    ``error_class`` is the retry-policy classification (exception type
    name, or ``timeout`` / ``worker-death`` / ``corrupt-result``);
    ``attempts`` and ``timeouts`` count what the supervisor tried before
    giving up.
    """

    index: int
    cell: Any
    error: str
    traceback: str
    error_class: str = ""
    attempts: int = 1
    timeouts: int = 0

    def describe(self) -> str:
        label = type(self.cell).__name__
        layout = getattr(self.cell, "layout", None)
        if layout is not None:
            label += f"(layout={layout!r})"
        suffix = f" [{self.attempts} attempts]" if self.attempts > 1 else ""
        return f"cell {self.index} [{label}]: {self.error}{suffix}"


class CellRunError(RuntimeError):
    """Raised after a batch completes when one or more cells failed.

    ``failures`` lists every failed cell with its original traceback;
    ``results`` holds the per-cell outcomes in input order (``None`` at
    the failed positions), so partial work is not thrown away.
    """

    def __init__(self, failures: List[CellFailure],
                 results: List[Optional[CellResult]]):
        self.failures = failures
        self.results = results
        lines = [f"{len(failures)} of {len(results)} cells failed:"]
        for f in failures:
            lines.append(f"  {f.describe()}")
            lines.append("    " + "    ".join(
                f.traceback.splitlines(keepends=True)))
        super().__init__("\n".join(lines))


def _run_cell_job(job: Tuple[int, Cell, bool, int],
                  attempt: int = 1) -> Dict[str, Any]:
    """One cell, isolated: catches failures, captures its trace records.

    Module-level so it pickles into supervised workers; the serial path
    runs it too, so failure semantics and trace output are identical for
    every worker count.  Fault injection hooks in here — before the cell
    body, under the tracer — so every recovery path (worker crash, hang,
    in-band error, corrupt payload) is reachable deterministically.

    The job's fourth element is an *attempt offset*: nonzero on a
    degradation-ladder re-run, where the pool's attempt numbering
    restarts at 1 but the cell has already burned attempts — the offset
    keeps ``once`` fault specs from re-firing on the re-run that is
    supposed to clear them.
    """
    index, cell, traced, attempt_offset = job
    fault = _faults.active_plan().for_cell(index, attempt + attempt_offset)
    tracer = _trace.Tracer() if traced else None
    previous = _trace.activate(tracer) if traced else None
    try:
        if fault is not None and _faults.fire(fault):
            return corrupt_payload(index)
        result = run_cell(cell)
        return {"index": index, "result": result,
                "records": tracer.records if tracer else None}
    except Exception as exc:
        return {"index": index, "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "records": tracer.records if tracer else None}
    finally:
        if traced:
            _trace.activate(previous)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker count: ``None``/``0`` → all CPUs, else as given."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    return workers


def _run_jobs_serial(jobs: List[Tuple[int, Cell, bool, int]],
                     retry: RetryPolicy, on_outcome) -> None:
    """The in-process twin of :meth:`SupervisedPool.run` (no timeouts —
    a process cannot reap itself; use ``workers > 1`` for that)."""
    for seq, job in enumerate(jobs):
        attempt = 1
        quarantined: List[str] = []
        while True:
            out = _run_cell_job(job, attempt)
            problem = validate_outcome(out)
            if problem is not None:
                quarantined.append(f"attempt {attempt}: {problem}")
                error, tb, payload = f"corrupt-result: {problem}", "", None
            elif out.get("error"):
                error, tb, payload = out["error"], out["traceback"], out
            else:
                on_outcome(JobOutcome(seq=seq, payload=out, attempts=attempt,
                                      quarantined=quarantined))
                break
            if retry.retryable(error) and attempt <= retry.max_retries:
                time.sleep(retry.backoff_seconds(attempt))
                attempt += 1
                continue
            on_outcome(JobOutcome(
                seq=seq, payload=payload, error=error,
                error_class=classify_error(error),
                traceback=tb or f"{error} (no traceback)",
                attempts=attempt, quarantined=quarantined))
            break


def run_cells_parallel(cells: Sequence[Cell],
                       workers: Optional[int] = 1,
                       *,
                       timeout: Optional[float] = None,
                       retry: Optional[RetryPolicy] = None,
                       checkpoint: Union[CheckpointStore, str, None] = None,
                       resume: bool = False,
                       govern: Union[Governor, bool, None] = None,
                       ) -> List[CellResult]:
    """Run ``cells`` and return their results in input order.

    Parameters
    ----------
    cells : sequence of BilateralCell / VolrendCell
        The cells to run; kinds may be mixed.
    workers : int or None
        Process count.  ``1`` (default) runs serially in-process;
        ``None`` or ``0`` uses all CPUs.  The result list is identical
        for any worker count — only wall-clock changes.
    timeout : float, optional
        Per-cell deadline in seconds.  A worker past it is killed and
        the cell requeued (or failed, per ``retry``).  Parallel path
        only; ignored when ``workers <= 1``.
    retry : RetryPolicy, optional
        Re-attempt transiently failed cells (worker death, timeout,
        corrupt result, non-deterministic exceptions) with deterministic
        backoff.  Default: no retries, preserving fail-fast behavior.
    checkpoint : CheckpointStore or str, optional
        Journal every completed cell (keyed by ``config_hash``) so an
        interrupted batch can resume.  A string is taken as the journal
        path.  Without ``resume`` the journal is truncated first.
    resume : bool
        Restore already-completed cells from ``checkpoint`` instead of
        re-running them; only the missing cells execute.
    govern : Governor or True, optional
        Resource governance (see :mod:`repro.resilience.governor`).
        ``True`` uses default knobs; a :class:`Governor` instance tunes
        them.  A preflight clamps ``workers`` to the machine's free
        memory and drops trace capture when the artifact disk is nearly
        full; workers run under an ``RLIMIT_AS`` cap; memory-pressure
        failures descend the degradation ladder (fewer workers, then no
        trace capture) before the batch fails.  Default: off — the
        historical, ungoverned behavior.

    Raises
    ------
    CellRunError
        If any cell failed after all attempts.  Every other cell still
        ran to completion; the error carries each failure's cell index,
        classification and original traceback plus the partial results.
    """
    cells = list(cells)
    n_workers = resolve_workers(workers)
    retry = retry or RetryPolicy()
    parent_tracer = _trace.current()
    traced = parent_tracer is not None

    store = CheckpointStore(checkpoint) \
        if isinstance(checkpoint, (str, os.PathLike)) else checkpoint

    governor = Governor() if govern is True \
        else (govern if isinstance(govern, Governor) else None)
    admission: Optional[Admission] = None
    rlimit_bytes: Optional[int] = None
    job_traced = traced
    if governor is not None:
        artifact_dir = os.path.dirname(store.path) or "." \
            if store is not None else "."
        admission = governor.preflight(cells, n_workers,
                                       artifact_dir=artifact_dir)
        n_workers = admission.admitted_workers
        rlimit_bytes = admission.rlimit_bytes
        job_traced = traced and admission.capture_trace

    hashes: List[str] = []
    restored: Dict[int, CellResult] = {}
    if store is not None:
        hashes = [config_hash(cell) for cell in cells]
        if resume:
            completed = store.load()
            restored = {i: completed[h] for i, h in enumerate(hashes)
                        if h in completed}
        else:
            store.reset()

    results: List[Optional[CellResult]] = [None] * len(cells)
    for index, result in restored.items():
        results[index] = result
    jobs = [(i, cells[i], job_traced, 0) for i in range(len(cells))
            if i not in restored]
    failures: List[CellFailure] = []
    stats = {"cells": len(cells), "restored": len(restored), "attempts": 0,
             "retries": 0, "timeouts": 0, "worker_deaths": 0, "corrupt": 0,
             "failures": 0}
    if store is not None and resume:
        # what the journal load survived: corrupt records quarantined,
        # torn lines dropped, old-schema records migrated in memory
        for name in ("corrupt", "dropped_lines", "migrated"):
            stats[f"journal_{name}"] = store.load_stats.get(name, 0)
    # on_outcome resolves seq against whichever batch is in flight
    # (primary jobs, or a degradation-ladder re-run batch)
    active = {"jobs": jobs}

    def on_outcome(outcome: JobOutcome) -> None:
        job = active["jobs"][outcome.seq]
        index, attempt_offset = job[0], job[3]
        attempts = outcome.attempts + attempt_offset
        stats["attempts"] += outcome.attempts
        stats["retries"] += outcome.attempts - 1
        stats["timeouts"] += outcome.timeouts
        stats["worker_deaths"] += outcome.deaths
        stats["corrupt"] += len(outcome.quarantined)
        payload = outcome.payload
        if traced and payload and payload.get("records"):
            parent_tracer.absorb(payload["records"], cell=index)
        if store is not None:
            for note in outcome.quarantined:
                store.quarantine({"cell": index, "key": hashes[index],
                                  "problem": note})
        if outcome.ok:
            results[index] = payload["result"]
            if store is not None:
                store.record(hashes[index], payload["result"],
                             kind=type(cells[index]).__name__,
                             attempts=attempts)
        else:
            stats["failures"] += 1
            failures.append(CellFailure(
                index=index, cell=cells[index], error=outcome.error,
                traceback=outcome.traceback,
                error_class=outcome.error_class or "",
                attempts=attempts, timeouts=outcome.timeouts))

    def run_batch(batch: List[Tuple[int, Cell, bool, int]],
                  batch_workers: int) -> None:
        active["jobs"] = batch
        if batch_workers <= 1 or len(batch) <= 1:
            _run_jobs_serial(batch, retry, on_outcome)
        else:
            pool = SupervisedPool(_run_cell_job,
                                  min(batch_workers, len(batch)),
                                  rlimit_bytes=rlimit_bytes)
            pool.run(batch, timeout=timeout, retry=retry,
                     validate=validate_outcome, on_outcome=on_outcome)

    ladder_rungs = 0
    mem_failures = 0

    old_sigterm = None
    if threading.current_thread() is threading.main_thread():
        def _sigterm_to_interrupt(signum, frame):
            raise KeyboardInterrupt("SIGTERM")
        try:
            old_sigterm = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
        except (ValueError, OSError):  # pragma: no cover - exotic embeddings
            old_sigterm = None
    try:
        if jobs:
            run_batch(jobs, n_workers)

        # Degradation ladder: cells that failed under memory pressure are
        # re-run with half the workers (halving until serial), then once
        # more without trace capture — shedding load, never results.
        if governor is not None:
            ladder_workers, ladder_traced = n_workers, job_traced
            while True:
                pressured = [f for f in failures
                             if memory_pressure(f.error)]
                if not pressured:
                    break
                if ladder_workers > 1:
                    ladder_workers = max(governor.min_workers,
                                         ladder_workers // 2)
                elif ladder_traced:
                    ladder_traced = False
                else:
                    break  # ladder exhausted; the failures stand
                ladder_rungs += 1
                mem_failures += len(pressured)
                stats["failures"] -= len(pressured)
                for failure in pressured:
                    failures.remove(failure)
                batch = [(f.index, cells[f.index], ladder_traced,
                          f.attempts) for f in pressured]
                run_batch(batch, ladder_workers)
    finally:
        if old_sigterm is not None:
            signal.signal(signal.SIGTERM, old_sigterm)
        if store is not None:
            stats["journal_write_errors"] = store.write_errors
            store.close()
        if governor is not None:
            stats["mem_pressure"] = mem_failures
            stats["ladder_rungs"] = ladder_rungs
        _record_stats(parent_tracer, stats, admission, engaged=(
            store is not None or resume or timeout is not None
            or governor is not None
            or retry.max_retries > 0 or stats["retries"] > 0
            or stats["timeouts"] > 0 or stats["corrupt"] > 0
            or stats["failures"] > 0 or stats["restored"] > 0))

    if failures:
        failures.sort(key=lambda f: f.index)
        raise CellRunError(failures, results)
    return results


def _record_stats(tracer: Optional[_trace.Tracer], stats: Dict[str, int],
                  admission: Optional[Admission], engaged: bool) -> None:
    """Accumulate batch resilience stats as top-level tracer counters.

    Only when a resilience feature actually engaged — a plain traced run
    emits byte-identical traces to the pre-resilience code.  The
    counters land in the trace file's meta header and in the manifest's
    ``resilience`` section (:func:`repro.instrument.manifest.build_manifest`).
    Governed runs additionally record the admission decision
    (``resilience.gov_*``), set rather than accumulated — the decision
    describes the batch, it is not a running count.
    """
    if tracer is None or not engaged:
        return
    for key, value in stats.items():
        name = f"resilience.{key}"
        tracer.counters[name] = tracer.counters.get(name, 0) + value
    if admission is not None:
        tracer.counters.update(admission.counters())
