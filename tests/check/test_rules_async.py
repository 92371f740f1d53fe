"""RPC5xx async-concurrency rules: one pinned minimal repro per rule,
the negatives that prove the exemptions, and the suppression/baseline
interplay the family must honor."""

from __future__ import annotations

import json
import textwrap

from repro.check import check_paths, check_source
from repro.check.cli import main

SERVE = "src/repro/serve/mod.py"   # tags {"src", "serve"}
SRC = "src/repro/core/mod.py"      # tags {"src", "core"}


def codes_of(source, path=SRC, select=None):
    findings, _ = check_source(textwrap.dedent(source), path, codes=select)
    return [f.code for f in findings]


class TestRPC501AwaitStraddledWrite:
    def test_write_before_and_after_await_fires(self):
        assert codes_of("""\
            async def refresh(self):
                self.total = 0
                await self.fetch()
                self.total = 1
        """) == ["RPC501"]

    def test_lock_held_is_clean(self):
        assert codes_of("""\
            async def refresh(self):
                async with self._lock:
                    self.total = 0
                    await self.fetch()
                    self.total = 1
        """) == []

    def test_balanced_counter_in_finally_is_clean(self):
        # the server's admission counter: += before, -= in finally
        assert codes_of("""\
            async def one(self):
                self.inflight += 1
                try:
                    await self.work()
                finally:
                    self.inflight -= 1
        """) == []

    def test_writes_same_side_of_await_are_clean(self):
        assert codes_of("""\
            async def refresh(self):
                self.total = 0
                self.total = 1
                await self.fetch()
        """) == []


class TestRPC502CheckThenAct:
    def test_read_before_write_after_await_fires(self):
        assert codes_of("""\
            async def lookup(self, key):
                if key in self.table:
                    return self.table[key]
                val = await self.load(key)
                self.table[key] = val
                return val
        """) == ["RPC502"]

    def test_same_side_check_and_act_is_clean(self):
        assert codes_of("""\
            async def lookup(self, key):
                val = await self.load(key)
                if key not in self.table:
                    self.table[key] = val
                return val
        """) == []

    def test_lock_held_is_clean(self):
        assert codes_of("""\
            async def lookup(self, key):
                async with self._table_lock:
                    if key in self.table:
                        return self.table[key]
                    val = await self.load(key)
                    self.table[key] = val
        """) == []


class TestRPC503FireAndForget:
    def test_bare_create_task_fires(self):
        assert codes_of("""\
            async def notify(self):
                asyncio.create_task(self.ping())
        """) == ["RPC503"]

    def test_discard_assignment_fires(self):
        assert codes_of("""\
            async def notify(self):
                _ = asyncio.ensure_future(self.ping())
        """) == ["RPC503"]

    def test_kept_handle_is_clean(self):
        assert codes_of("""\
            async def notify(self):
                task = asyncio.create_task(self.ping())
                await task
        """) == []


class TestRPC504BlockingInAsync:
    def test_time_sleep_in_async_serve_fires(self):
        assert codes_of("""\
            async def handle(self):
                time.sleep(0.1)
        """, path=SERVE) == ["RPC504"]

    def test_future_result_noargs_fires(self):
        assert codes_of("""\
            async def handle(self, fut):
                return fut.result()
        """, path=SERVE) == ["RPC504"]

    def test_sync_def_is_clean(self):
        assert codes_of("""\
            def handle(self):
                time.sleep(0.1)
        """, path=SERVE) == []

    def test_nested_sync_def_shields_the_call(self):
        assert codes_of("""\
            async def handle(self):
                def blocking():
                    time.sleep(0.1)
                return blocking
        """, path=SERVE) == []

    def test_outside_serve_not_policed(self):
        assert codes_of("""\
            async def handle(self):
                time.sleep(0.1)
        """, path=SRC) == []


class TestRPC505UnawaitedCoroutine:
    def test_bare_call_to_module_coroutine_fires(self):
        assert codes_of("""\
            async def work():
                return 1

            def main():
                work()
        """) == ["RPC505"]

    def test_self_method_call_fires(self):
        assert codes_of("""\
            class S:
                async def flush(self):
                    return 1

                def close(self):
                    self.flush()
        """) == ["RPC505"]

    def test_awaited_and_scheduled_are_clean(self):
        assert codes_of("""\
            async def work():
                return 1

            async def main():
                await work()
                task = asyncio.create_task(work())
                await task
        """) == []

    def test_sync_function_call_is_clean(self):
        assert codes_of("""\
            def work():
                return 1

            def main():
                work()
        """) == []


class TestSuppressionInterplay:
    def test_family_prefix_noqa_silences_rpc5(self):
        src = ("async def notify(self):\n"
               "    asyncio.create_task(self.ping())"
               "  # repro: noqa[RPC5]\n")
        findings, suppressed = check_source(src, SRC)
        assert [f.code for f in findings] == []
        assert [f.code for f in suppressed] == ["RPC503"]

    def test_unrelated_prefix_does_not_silence(self):
        src = ("async def notify(self):\n"
               "    asyncio.create_task(self.ping())"
               "  # repro: noqa[RPC1]\n")
        findings, _ = check_source(src, SRC)
        assert [f.code for f in findings] == ["RPC503"]

    def test_stale_rpc5_baseline_entry_reported(self, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = tmp_path / "repro" / "serve"
        pkg.mkdir(parents=True)
        target = pkg / "mod.py"
        target.write_text("async def notify(self):\n"
                          "    asyncio.create_task(self.ping())\n")
        baseline = str(tmp_path / "baseline.json")
        assert main([str(target), "--write-baseline",
                     "--baseline", baseline]) == 0
        assert "RPC503" in (tmp_path / "baseline.json").read_text()
        target.write_text("async def notify(self):\n"
                          "    await self.ping()\n")  # violation fixed
        assert main([str(target), "--baseline", baseline]) == 0
        assert "1 stale baseline" in capsys.readouterr().out

    def test_parse_error_file_skipped_by_call_graph(self, tmp_path):
        """An RPC000 file degrades coverage, never crashes the
        interprocedural phase run by check_paths."""
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "broken.py").write_text("def oops(:\n")
        (pkg / "good.py").write_text(
            "async def work():\n    return 1\n")
        findings, _, n_files = check_paths([str(pkg)])
        assert n_files == 2
        assert [f.code for f in findings] == ["RPC000"]


class TestCatalogAndJson:
    def test_rpc5_family_in_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "async-concurrency" in out
        for code in ("RPC501", "RPC502", "RPC503", "RPC504", "RPC505"):
            assert code in out

    def test_rpc5_counts_in_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            "async def notify(self):\n"
            "    asyncio.create_task(self.ping())\n")
        assert main([str(pkg), "--format", "json", "--no-baseline"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"RPC503": 1}
