"""RPC5xx — async-concurrency rules.

The serving layer's correctness argument is "results are
interleaving-independent": any scheduling of the ready queue must
serve the same bytes and the same counters.  That property dies to a
small set of well-known asyncio shapes — state torn across an
``await``, check-then-act around a yield point, dropped task
exceptions, an event loop wedged by blocking calls — and none of them
are visible to a per-statement linter because the hazard *is* the
position of the ``await``.

These rules run on the lightweight per-function CFG
(:func:`repro.check.project.function_events`): every shared-state
read/write in source order, stamped with the number of await points
crossed before it and the enclosing lock depth.  Two events with
different await counts are separated by a scheduling opportunity; that
is the window every rule below reasons about.  The runtime twin is the
deterministic interleaving fuzzer (``repro chaos fuzz``), which
perturbs the real scheduler and asserts the served bytes and
memsim-crosschecked counters do not move.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from .project import Event, function_events
from .registry import Rule, dotted_name, rule

__all__ = ["AwaitStraddledWriteRule", "CheckThenActAcrossAwaitRule",
           "FireAndForgetTaskRule", "BlockingCallInAsyncRule",
           "UnawaitedCoroutineRule"]


def _writes_by_key(events: List[Event]) -> Dict[str, List[Event]]:
    out: Dict[str, List[Event]] = {}
    for ev in events:
        if ev.kind == "attr-write":
            out.setdefault(ev.key, []).append(ev)
    return out


@rule
class AwaitStraddledWriteRule(Rule):
    """Shared-state writes on both sides of an ``await``, unlocked."""

    code = "RPC501"
    name = "await-straddled-write"
    summary = ("shared attribute written before and after an await with "
               "no lock held: another task can run in the gap and observe "
               "(or clobber) the half-updated state — hold an "
               "asyncio.Lock across the writes, or restructure so the "
               "mutation is atomic between yield points")
    interests = (ast.AsyncFunctionDef,)
    domains = frozenset({"src"})
    exclude = frozenset({"check"})

    def check(self, node: ast.AsyncFunctionDef) -> None:
        events = function_events(node)
        for key, writes in sorted(_writes_by_key(events).items()):
            unlocked = [w for w in writes if w.lock_depth == 0]
            for later in unlocked[1:]:
                first = unlocked[0]
                if later.awaits_before <= first.awaits_before:
                    continue
                # balanced-counter idiom: `x += 1 ... finally: x -= 1`
                # is interleaving-safe — each AugAssign is atomic
                # between yield points and the finally guarantees the
                # pair nets out on every path
                if first.is_aug and later.is_aug and later.in_finally:
                    continue
                self.ctx.report(
                    later.node, self.code,
                    f"{key} is written before and after an await in "
                    f"{node.name}() with no lock held; " + self.summary)
                break


@rule
class CheckThenActAcrossAwaitRule(Rule):
    """Container checked before an ``await``, mutated after it."""

    code = "RPC502"
    name = "check-then-act-across-await"
    summary = ("check-then-act races across the await: the key read "
               "before the yield point can be inserted/evicted by "
               "another task before the write lands (the classic cache "
               "TOCTOU) — re-check after the await, use setdefault "
               "atomically before yielding, or hold an asyncio.Lock")
    interests = (ast.AsyncFunctionDef,)
    domains = frozenset({"src"})
    exclude = frozenset({"check"})

    def check(self, node: ast.AsyncFunctionDef) -> None:
        events = function_events(node)
        reads: Dict[str, Event] = {}
        reported: Set[str] = set()
        for ev in events:
            if ev.lock_depth > 0:
                continue
            if ev.kind == "sub-read" and ev.key not in reads:
                reads[ev.key] = ev
            elif ev.kind == "sub-write" and ev.key in reads \
                    and ev.key not in reported:
                if ev.awaits_before > reads[ev.key].awaits_before:
                    reported.add(ev.key)
                    self.ctx.report(
                        ev.node, self.code,
                        f"{ev.key} is read before an await and written "
                        f"after it in {node.name}(); " + self.summary)


@rule
class FireAndForgetTaskRule(Rule):
    """``create_task`` whose handle (and exception) is dropped."""

    code = "RPC503"
    name = "fire-and-forget-task"
    summary = ("asyncio.create_task/ensure_future result is dropped: the "
               "task can be garbage-collected mid-flight and its "
               "exception is silently lost — keep the handle and await "
               "it (or gather it) before the scope ends")
    interests = (ast.Expr, ast.Assign)
    domains = frozenset({"src"})
    exclude = frozenset({"check"})

    _SPAWNERS = {"create_task", "ensure_future"}

    def _spawn_call(self, value: ast.AST) -> bool:
        return (isinstance(value, ast.Call)
                and dotted_name(value.func).split(".")[-1] in self._SPAWNERS)

    def check(self, node: ast.AST) -> None:
        if isinstance(node, ast.Expr):
            if self._spawn_call(node.value):
                self.ctx.report(node.value, self.code, self.summary)
        elif isinstance(node, ast.Assign):
            # assigning to the `_` discard name drops it just as surely
            if self._spawn_call(node.value) and all(
                    isinstance(t, ast.Name) and t.id == "_"
                    for t in node.targets):
                self.ctx.report(node.value, self.code, self.summary)


@rule
class BlockingCallInAsyncRule(Rule):
    """Synchronous blocking calls inside ``async def`` in serve/."""

    code = "RPC504"
    name = "blocking-call-in-async"
    summary = ("blocking call inside an async def wedges the event loop: "
               "every other in-flight query stalls behind it — use "
               "await asyncio.sleep / asyncio.to_thread / "
               "loop.run_in_executor for the blocking work")
    interests = (ast.Call,)
    domains = frozenset({"serve"})

    _BLOCKING = {"time.sleep", "os.system", "subprocess.run",
                 "subprocess.call", "subprocess.check_call",
                 "subprocess.check_output"}
    _BLOCKING_METHODS = {"result", "join"}

    @staticmethod
    def _in_async_def(node: ast.AST) -> bool:
        parent = getattr(node, "_repro_parent", None)
        while parent is not None:
            if isinstance(parent, ast.AsyncFunctionDef):
                return True
            if isinstance(parent, (ast.FunctionDef, ast.Lambda)):
                return False  # nearest enclosing scope is synchronous
            parent = getattr(parent, "_repro_parent", None)
        return False

    def check(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        blocking = name in self._BLOCKING
        if not blocking and isinstance(node.func, ast.Attribute) \
                and node.func.attr in self._BLOCKING_METHODS \
                and not node.args and not node.keywords:
            blocking = True
        if blocking and self._in_async_def(node):
            self.ctx.report(node, self.code,
                            f"{name or node.func.attr}() blocks the event "
                            f"loop; " + self.summary)


@rule
class UnawaitedCoroutineRule(Rule):
    """Same-module coroutine called without ``await`` and discarded.

    The module's ``async def`` names (functions and methods) are
    collected when the Module node is dispatched; a later bare-Expr
    call to one of them builds a coroutine object and drops it — the
    body never runs and Python only mentions it in a warning nobody
    collects.  The cross-module case is covered by the interprocedural
    pass (:func:`repro.check.project.run_project_passes`) with
    call-chain context.
    """

    code = "RPC505"
    name = "unawaited-coroutine"
    summary = ("calling an async def without await builds a coroutine "
               "object and drops it — the body never runs; await it, or "
               "schedule it with asyncio.create_task/gather")
    interests = (ast.Module, ast.Expr)
    domains = frozenset({"src"})
    exclude = frozenset({"check"})

    def __init__(self, ctx):
        super().__init__(ctx)
        self._async_funcs: Set[str] = set()
        self._async_methods: Set[str] = set()

    def check(self, node: ast.AST) -> None:
        if isinstance(node, ast.Module):
            for sub in ast.walk(node):
                if isinstance(sub, ast.AsyncFunctionDef):
                    parent = getattr(sub, "_repro_parent", None)
                    if isinstance(parent, ast.ClassDef):
                        self._async_methods.add(sub.name)
                    else:
                        self._async_funcs.add(sub.name)
            return
        call = node.value
        if not isinstance(call, ast.Call):
            return
        func = call.func
        is_coro = (isinstance(func, ast.Name)
                   and func.id in self._async_funcs) \
            or (isinstance(func, ast.Attribute)
                and func.attr in self._async_methods
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls"))
        if is_coro:
            self.ctx.report(call, self.code, self.summary)
