"""One workload in one process: set up, measure, check, report as JSON.

``run.py`` starts this in a fresh interpreter with a cleaned
environment; it prints one JSON object as its last line.  With
``--setup-only`` it times set-up and exits, so the launcher can take
the median of several set-ups.

Untraced (``--trace 0``): one closed-loop window of at least
``--seconds``, giving the end-to-end metrics.  Traced (``--trace 1``): the same
untraced window, then the same ops again with every layer wrapped in
spans; the per-layer metrics come from that second pass only, and the
ratio of the two pass times is the tracing overhead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from layers import Traced, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

IMPORTS_DONE = time.perf_counter()

#: a percentile needs at least this many samples above it
MIN_BEYOND = 10


class TooFewSamples(RuntimeError):
    """A percentile would rest on fewer than MIN_BEYOND samples beyond it."""


def percentile(values: List[float], pct: int):
    """Nearest-rank ``pct`` percentile and the number of samples beyond it.

    Raises :class:`TooFewSamples` instead of reporting a percentile with
    fewer than ``MIN_BEYOND`` samples above it.
    """
    n = len(values)
    rank = max(1, -(-pct * n // 100))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(f"p{pct} of {n} samples has {beyond} beyond it; "
                            f"at least {MIN_BEYOND} are needed")
    return sorted(values)[rank - 1], beyond


def ops_for(pct: int) -> int:
    """Fewest samples whose ``pct`` percentile has MIN_BEYOND beyond it."""
    return math.ceil(MIN_BEYOND * 100 / (100 - pct))


@dataclass
class Window:
    ops: int = 0
    failed: int = 0
    seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)


def measure(wl: Workload, seconds: float,
            n_ops: Optional[int] = None) -> Window:
    """Run ops from op 0 and check each batch with the clock stopped.

    Without ``n_ops`` the window lasts at least ``seconds`` and the ops
    the tail percentile needs, and ends on a whole round of the
    workload's ops; with it, exactly ``n_ops`` ops run.
    """
    win = Window()
    wl.tally.clear()
    min_ops = ops_for(wl.tail_pct)
    while True:
        if n_ops is not None:
            if win.ops >= n_ops:
                break
            stop = min(win.ops + wl.batch, n_ops)
        elif win.seconds >= seconds and win.ops >= min_ops \
                and win.ops % wl.round_ops == 0:
            break
        else:
            stop = win.ops + wl.batch
        wl.ensure_ops(stop)
        t0 = time.perf_counter()
        records = wl.run_batch(win.ops, stop, win.latencies)
        win.seconds += time.perf_counter() - t0
        win.ops += len(records)
        win.failed += wl.check(records)
    t0 = time.perf_counter()
    wl.end_window()
    win.seconds += time.perf_counter() - t0
    return win


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl: Workload, workdir: str) -> float:
    """Set ``wl`` up; returns this process's imports plus set-up, in s."""
    t0 = time.perf_counter()
    wl.setup(workdir)
    return (IMPORTS_DONE - T_START) + (time.perf_counter() - t0)


def run(name: str, seed: int, seconds: float, traced: bool,
        workdir: str, tiny: bool = False) -> Dict:
    """Set up, measure and check one workload; the worker's JSON result."""
    wl = WORKLOADS[name](seed, tiny)
    try:
        if traced:
            with Traced() as setup_tracer:
                setup_s = timed_setup(wl, workdir)
        else:
            setup_s = timed_setup(wl, workdir)
        wl.prepare()
        win = measure(wl, seconds)
        rss = peak_rss_mb()
        attempted, failed = win.ops, win.failed
        out = {"setup_s": setup_s}
        if traced:
            wl.rewind()
            with Traced() as tracer:
                before = wl.snapshot()
                again = measure(wl, seconds, n_ops=win.ops)
                counts = wl.counts(before)
            attempted += again.ops
            failed += again.failed
            out["metrics"] = layer_metrics(
                tracer, setup_tracer, counts,
                again.seconds / win.seconds - 1.0)
        else:
            ms = [s * 1e3 for s in win.latencies]
            p50, p50_beyond = percentile(ms, 50)
            tail, tail_beyond = percentile(ms, wl.tail_pct)
            out["metrics"] = {
                "ops_per_s": win.ops / win.seconds,
                "p50_ms": p50,
                "tail_ms": tail,
                "peak_rss_mb": rss,
                "ok_ratio": 1.0 - win.failed / win.ops,
            }
            out["samples"] = {
                "ops": win.ops, "window_s": win.seconds,
                "tail_pct": wl.tail_pct, "p50_beyond": p50_beyond,
                "tail_beyond": tail_beyond,
            }
        wl.finish()
        for problem in wl.errors:
            print(f"{name}: {problem}", file=sys.stderr)
        out.update(correct=failed == 0 and not wl.errors,
                   attempted=attempted, failed=failed)
        return out
    finally:
        wl.teardown()


def setup_only(name: str, seed: int, workdir: str) -> float:
    """Time imports plus one set-up, then tear it down."""
    wl = WORKLOADS[name](seed)
    try:
        return timed_setup(wl, workdir)
    finally:
        wl.teardown()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", required=True,
                    help="directory for temporary stores (removed after)")
    args = ap.parse_args(argv)

    os.makedirs(args.scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    try:
        if args.setup_only:
            result = {"setup_s": setup_only(args.workload, args.seed,
                                            workdir)}
        else:
            result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    except TooFewSamples as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

