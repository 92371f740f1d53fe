"""The interprocedural core: symbol tables, call-graph resolution, the
await-marked CFG, and the cross-module passes with call-chain context."""

from __future__ import annotations

import ast
import textwrap

from repro.check.project import (
    CallGraph,
    PROJECT_CODES,
    function_events,
    module_name_of,
    run_project_passes,
    summarize_module,
)


def summarize(path, source, tags):
    source = textwrap.dedent(source)
    return summarize_module(path, ast.parse(source), source,
                            frozenset(tags), {})


class TestModuleNames:
    def test_package_paths_resolve(self):
        assert module_name_of("src/repro/serve/server.py") \
            == "repro.serve.server"
        assert module_name_of("src/repro/cli.py") == "repro.cli"
        assert module_name_of("src/repro/serve/__init__.py") == "repro.serve"

    def test_outside_package_is_none(self):
        assert module_name_of("tests/check/test_project.py") is None
        assert module_name_of("scripts/make_report.py") is None


class TestSymbolTable:
    def test_functions_methods_and_calls(self):
        mod = summarize("src/repro/serve/server.py", """\
            from ..util import helpers

            async def top():
                helpers.make_noise(3)

            class Server:
                async def session(self):
                    await self.query()

                def query(self):
                    return 1
        """, {"src", "serve"})
        assert set(mod.functions) == {"top", "Server.session",
                                      "Server.query"}
        assert mod.functions["top"].is_async
        assert not mod.functions["Server.query"].is_async
        (call,) = mod.functions["top"].calls
        assert call.callee == "helpers.make_noise"
        assert call.discarded and not call.awaited
        (q,) = mod.functions["Server.session"].calls
        assert q.callee == "self.query" and q.awaited
        assert q.in_class == "Server"

    def test_relative_import_resolution(self):
        mod = summarize("src/repro/serve/server.py", """\
            from ..util import helpers
            from . import cache
            import numpy as np
        """, {"src", "serve"})
        assert mod.imports["helpers"] == "repro.util.helpers"
        assert mod.imports["cache"] == "repro.serve.cache"
        assert mod.imports["np"] == "numpy"

    def test_parse_error_summary_is_empty(self):
        mod = summarize_module("src/repro/broken.py", None, "def x(:",
                               frozenset({"src", "top"}), {})
        assert mod.parse_error
        assert mod.functions == {}


HELPER = ("src/repro/util/helpers.py", """\
    import numpy as np

    def make_noise(n):
        return np.random.rand(n)
""", {"src", "util"})

KERNEL = ("src/repro/kernels/bilateral.py", """\
    from ..util import helpers

    def bilateral(grid):
        noise = helpers.make_noise(8)
        return grid + noise
""", {"src", "kernels"})


class TestCallGraph:
    def graph(self, *mods):
        return CallGraph([summarize(*m) for m in mods])

    def test_cross_module_edge_resolves(self):
        g = self.graph(HELPER, KERNEL)
        (site, target), = g.edges["repro.kernels.bilateral.bilateral"]
        assert target == "repro.util.helpers.make_noise"

    def test_chain_to_finds_path(self):
        g = self.graph(HELPER, KERNEL)
        chain = g.chain_to("repro.kernels.bilateral.bilateral",
                           {"repro.util.helpers.make_noise"})
        assert [t for _, t in chain] == ["repro.util.helpers.make_noise"]

    def test_parse_error_module_contributes_no_symbols(self):
        broken = summarize_module("src/repro/util/helpers.py", None, "",
                                  frozenset({"src", "util"}), {})
        g = CallGraph([broken, summarize(*KERNEL)])
        assert "repro.util.helpers.make_noise" not in g.functions
        assert g.edges["repro.kernels.bilateral.bilateral"] == []


class TestRPC201Chains:
    def test_unseeded_helper_reached_from_kernel(self):
        summaries = [summarize(*HELPER), summarize(*KERNEL)]
        findings, _ = run_project_passes(summaries)
        (f,) = findings
        assert f.code == "RPC201"
        assert f.path == "src/repro/kernels/bilateral.py"
        assert "unseeded RNG reaches repro.kernels.bilateral.bilateral" \
            in f.message
        assert "via repro.util.helpers.make_noise" in f.message

    def test_seeded_helper_is_clean(self):
        helper = ("src/repro/util/helpers.py", """\
            import numpy as np

            def make_noise(n, seed):
                return np.random.default_rng(seed).random(n)
        """, {"src", "util"})
        findings, _ = run_project_passes(
            [summarize(*helper), summarize(*KERNEL)])
        assert findings == []

    def test_unreached_dirty_helper_is_clean(self):
        kernel = ("src/repro/kernels/bilateral.py", """\
            def bilateral(grid):
                return grid * 2
        """, {"src", "kernels"})
        findings, _ = run_project_passes(
            [summarize(*HELPER), summarize(*kernel)])
        assert findings == []

    def test_noqa_on_call_site_suppresses(self):
        source = textwrap.dedent("""\
            from ..util import helpers

            def bilateral(grid):
                noise = helpers.make_noise(8)  # repro: noqa[RPC201]
                return grid + noise
        """)
        kernel = summarize_module(
            "src/repro/kernels/bilateral.py", ast.parse(source), source,
            frozenset({"src", "kernels"}), {4: {"RPC201"}})
        findings, suppressed = run_project_passes(
            [summarize(*HELPER), kernel])
        assert findings == []
        assert [f.code for f in suppressed] == ["RPC201"]


class TestRPC505CrossModule:
    ASYNC_MOD = ("src/repro/serve/tasks.py", """\
        async def warm_cache():
            return 1
    """, {"src", "serve"})

    def test_dropped_cross_module_coroutine_fires(self):
        caller = ("src/repro/serve/server.py", """\
            from . import tasks

            def shutdown():
                tasks.warm_cache()
        """, {"src", "serve"})
        findings, _ = run_project_passes(
            [summarize(*self.ASYNC_MOD), summarize(*caller)])
        (f,) = findings
        assert f.code == "RPC505"
        assert "repro.serve.tasks.warm_cache" in f.message
        assert "repro.serve.server.shutdown" in f.message

    def test_consumed_coroutine_is_clean(self):
        caller = ("src/repro/serve/server.py", """\
            import asyncio
            from . import tasks

            def shutdown():
                asyncio.run(tasks.warm_cache())
        """, {"src", "serve"})
        findings, _ = run_project_passes(
            [summarize(*self.ASYNC_MOD), summarize(*caller)])
        assert findings == []

    def test_select_filter_skips_pass(self):
        caller = ("src/repro/serve/server.py", """\
            from . import tasks

            def shutdown():
                tasks.warm_cache()
        """, {"src", "serve"})
        findings, _ = run_project_passes(
            [summarize(*self.ASYNC_MOD), summarize(*caller)],
            codes=["RPC101"])
        assert findings == []

    def test_project_codes_is_the_gate(self):
        assert "RPC201" in PROJECT_CODES
        assert "RPC505" in PROJECT_CODES


class TestFunctionEvents:
    def events(self, source):
        tree = ast.parse(textwrap.dedent(source))
        return function_events(tree.body[0])

    def test_awaits_are_counted(self):
        evs = self.events("""\
            async def f(self):
                self.a = 1
                await g()
                self.a = 2
        """)
        writes = [e for e in evs if e.kind == "attr-write"]
        assert [w.awaits_before for w in writes] == [0, 1]

    def test_async_with_lock_sets_depth(self):
        evs = self.events("""\
            async def f(self):
                async with self._lock:
                    self.a = 1
        """)
        (w,) = [e for e in evs if e.kind == "attr-write"]
        assert w.lock_depth == 1
        assert w.awaits_before == 1  # __aenter__ is a yield point

    def test_finally_and_aug_flags(self):
        evs = self.events("""\
            async def f(self):
                self.n += 1
                try:
                    await g()
                finally:
                    self.n -= 1
        """)
        first, later = [e for e in evs if e.kind == "attr-write"]
        assert first.is_aug and not first.in_finally
        assert later.is_aug and later.in_finally

    def test_nested_defs_not_descended(self):
        evs = self.events("""\
            async def f(self):
                def inner():
                    self.a = 1
                await g()
        """)
        assert [e for e in evs if e.kind == "attr-write"] == []
