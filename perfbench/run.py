"""Repository benchmark: paper-figure cells and two serving sessions.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seconds 15        # every workload, both modes

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it, every workload runs untraced and traced and
every metric is printed by name with its unit.

Each run happens in a fresh interpreter (``worker.py``) with
``REPRO_FAULTS`` and ``REPRO_SANITIZE`` removed and ``PYTHONHASHSEED``
fixed, so set-up time and peak memory belong to that workload alone.
``setup_s`` is the median over ``SETUPS`` such processes.  Temporary
stores live under ``.perfbench-tmp/`` in the checkout and are deleted.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")

WORKLOADS = ("figcells", "serve_hot", "serve_cold_elastic")
#: set-ups timed per untraced run; setup_s is their median
SETUPS = 5
#: every run finishes within this many seconds
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A run that must not report a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_FAULTS", "REPRO_SANITIZE")}
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(args, deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; its last stdout line as a dict."""
    cmd = [sys.executable, WORKER, "--scratch", SCRATCH, *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> dict:
    """One benchmark run: the result object the last line prints."""
    base = ["--workload", workload, "--seed", str(seed)]

    def setups(n):
        return [worker(base + ["--setup-only"], deadline)["setup_s"]
                for _ in range(0 if trace else n)]

    # set-ups before and after the measured run sample more disk states
    # than back-to-back ones: replicated ingest fsyncs every segment
    before = setups((SETUPS - 1) // 2)
    res = worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                 deadline)
    after = setups(SETUPS - 1 - len(before))
    if trace:
        units = PER_LAYER
        values = res["metrics"]
    else:
        res["setups"] = before + [res["setup_s"]] + after
        units = END_TO_END
        values = dict(res["metrics"],
                      setup_s=statistics.median(res["setups"]))
    res["metrics"] = {name: {"value": values[name], "unit": unit}
                      for name, unit in units.items()}
    return res


def describe(workload: str, res: dict) -> list:
    """Human-readable lines: every metric by name, with its unit."""
    lines = [f"{workload}: correct={res['correct']} "
             f"attempted={res['attempted']} failed={res['failed']}"]
    samples = res.get("samples", {})
    notes = {}
    if samples:
        n = samples["ops"]
        notes = {
            "setup_s": "median of " + " ".join(
                f"{s:.3f}" for s in res["setups"]),
            "ops_per_s": f"{n} ops in {samples['window_s']:.2f} s",
            "p50_ms": f"p50 of n={n}, {samples['p50_beyond']} beyond",
            "tail_ms": f"p{samples['tail_pct']} of n={n}, "
                       f"{samples['tail_beyond']} beyond",
            "ok_ratio": f"failed_ratio={res['failed'] / n:g}",
        }
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<6}"
                     f" {notes.get(name, '')}".rstrip())
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, both modes)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    runs = [(args.workload, args.trace)] if args.workload else \
        [(w, t) for w in WORKLOADS for t in (0, 1)]
    deadline = time.monotonic() + BUDGET_S * len(runs)
    try:
        for workload, trace in runs:
            res = run_one(workload, args.seed, args.seconds, trace,
                          deadline)
            print("\n".join(describe(workload, res)), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if args.workload:
        print(json.dumps({k: res[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
