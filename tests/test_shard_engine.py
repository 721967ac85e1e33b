"""Tests for the persistent sharded worker engine (repro.sandbox.shards).

Covers the engine's three contracts: deterministic bit-identical results
for any worker count (including under mid-batch worker respawn), shard
affinity with load-capped deterministic placement, and O(delta)
content-addressed source shipping with parent/worker mirrors that evict
in lockstep.  The atexit regression test checks that persistent workers
never outlive the parent interpreter.
"""

import subprocess
import sys
import textwrap

import pytest

from repro._lru import LRUCache
from repro.sandbox import (
    BatchReport,
    ShardEngine,
    ShardTask,
    check_executes_batch,
    kill_worker_pool,
)
from repro.sandbox.faults import fault_snippet
from repro.sandbox.shards import (
    _apply_line_ops,
    _encode_sources,
    _line_ops,
    get_shard_engine,
    kill_shard_engine,
    prefix_affinity,
    sha1_text,
)

BUDGET_S = 0.2

GOOD = "import pandas as pd\ndf = pd.DataFrame({'a': [1, 2]})"


def _script(suffix):
    return GOOD + "\n" + suffix


SCRIPTS = [
    GOOD,
    _script("df['b'] = df['a'] * 2"),
    _script("df = df.dropna()"),
    _script("df = df[df['a'] > 0]"),
    _script("df['c'] = 0"),
    _script("df = df.rename(columns={'a': 'x'})"),
    "import pandas as pd\nraise RuntimeError('boom')\ndf = 1",
    _script("df['d'] = df['a'] + 1"),
]


@pytest.fixture(autouse=True)
def _fresh_engine():
    yield
    kill_worker_pool()


def _exec_tasks(sources, base):
    base_sha = sha1_text(base)
    tasks = []
    for source in sources:
        sha = sha1_text(source)
        ship = (
            ((sha, source, None, None),)
            if sha == base_sha
            else ((base_sha, base, None, None), (sha, source, base_sha, base))
        )
        tasks.append(
            ShardTask(
                kind="exec_check",
                payload={
                    "source_sha": sha,
                    "data_dir": None,
                    "sample_rows": 100,
                },
                sources=ship,
                affinity=prefix_affinity(source, base),
            )
        )
    return tasks


class TestLineOps:
    def test_roundtrip(self):
        base = GOOD.split("\n")
        for script in SCRIPTS:
            lines = script.split("\n")
            assert _apply_line_ops(base, _line_ops(base, lines)) == lines

    def test_delta_is_small_for_splices(self):
        base = ["line%d" % i for i in range(100)]
        spliced = base[:50] + ["inserted"] + base[50:]
        ops = _line_ops(base, spliced)
        assert sum(len(r) for _, _, r in ops) == 1


class TestSourceShipping:
    def test_second_shipment_is_a_ref(self):
        mirror = LRUCache(8)
        ship = ((sha1_text(GOOD), GOOD, None, None),)
        first, first_bytes = _encode_sources(mirror, ship)
        second, second_bytes = _encode_sources(mirror, ship)
        assert first[0][0] == "full" and first_bytes == len(GOOD)
        assert second == [("ref", sha1_text(GOOD))] and second_bytes == 0

    def test_delta_against_resident_base(self):
        mirror = LRUCache(8)
        _encode_sources(mirror, ((sha1_text(GOOD), GOOD, None, None),))
        candidate = _script("df['z'] = 9")
        instructions, shipped = _encode_sources(
            mirror,
            ((sha1_text(candidate), candidate, sha1_text(GOOD), GOOD),),
        )
        assert instructions[0][0] == "delta"
        assert shipped < len(candidate)

    def test_eviction_falls_back_to_full(self):
        mirror = LRUCache(1)
        _encode_sources(mirror, ((sha1_text(GOOD), GOOD, None, None),))
        other = _script("df['q'] = 1")
        # shipping `other` evicts GOOD from the capacity-1 mirror...
        _encode_sources(mirror, ((sha1_text(other), other, sha1_text(GOOD), GOOD),))
        # ...so GOOD must re-ship full, never dangle as a ref
        instructions, _ = _encode_sources(
            mirror, ((sha1_text(GOOD), GOOD, None, None),)
        )
        assert instructions[0][0] == "full"


class TestAffinity:
    def test_affinity_is_prefix_keyed(self):
        a = prefix_affinity(_script("df['b'] = 1"), GOOD)
        b = prefix_affinity(_script("df['c'] = 2"), GOOD)
        assert a == b  # same shared prefix -> same shard
        assert prefix_affinity("x = 1", GOOD) != a

    def test_assignment_is_capped_and_counts_hits(self):
        engine = get_shard_engine(2)
        tasks = _exec_tasks(SCRIPTS, GOOD)
        report = BatchReport()
        assignment = engine._assign(tasks, report)
        total = sum(len(ids) for ids in assignment)
        assert total == len(tasks)
        cap = -(-len(tasks) // 2)
        assert all(len(ids) <= cap for ids in assignment)
        assert report.shard_hits + report.shard_migrations <= len(tasks)
        assert report.shard_hits > 0

    def test_assignment_is_deterministic(self):
        engine = get_shard_engine(4)
        tasks = _exec_tasks(SCRIPTS, GOOD)
        first = engine._assign(tasks, None)
        second = engine._assign(tasks, None)
        assert first == second


class TestDeterminism:
    """Results are bit-identical and identically ordered for any worker
    count, and under mid-batch worker respawn."""

    def test_verdicts_identical_across_worker_counts(self):
        expected = check_executes_batch(SCRIPTS, sample_rows=100, workers=1)
        for workers in (2, 4):
            kill_worker_pool()
            got = check_executes_batch(SCRIPTS, sample_rows=100, workers=workers)
            assert got == expected, f"workers={workers}"

    def test_run_batch_outcomes_ordered_across_worker_counts(self):
        baselines = None
        for workers in (1, 2, 4):
            kill_shard_engine()
            engine = get_shard_engine(workers)
            outcomes, respawns = engine.run_batch(
                _exec_tasks(SCRIPTS, GOOD), report=BatchReport()
            )
            assert respawns == 0
            values = [outcome[1][0] for outcome in outcomes]
            if baselines is None:
                baselines = values
            else:
                assert values == baselines, f"workers={workers}"

    def test_verdicts_identical_under_respawn(self):
        # a watchdog-defeating hang forces the parent to kill and respawn
        # the shard mid-batch; every other verdict must be unaffected
        stubborn = fault_snippet("stubborn_hang") + "\ndf = 1"
        wave = SCRIPTS[:3] + [stubborn] + SCRIPTS[3:]
        expected = [True, True, True, False, True, True, True, False, True]
        report = BatchReport()
        verdicts = check_executes_batch(
            wave,
            sample_rows=100,
            workers=2,
            timeout_s=BUDGET_S,
            respawn_limit=2,
            report=report,
        )
        assert verdicts == expected
        assert report.respawns >= 1

    def test_aborted_batch_results_never_answer_the_next_batch(self):
        # batch 1 aborts while sending its third task (a lambda cannot be
        # pickled) after two passing checks were already dispatched; their
        # late answers must not be taken for batch 2's tasks, which share
        # the same batch-local ids
        engine = get_shard_engine(1)
        aborted = _exec_tasks(SCRIPTS[1:3], GOOD)
        unpicklable = ShardTask(
            kind="exec_check",
            payload={"source_sha": sha1_text(GOOD), "hook": lambda: None},
            sources=((sha1_text(GOOD), GOOD, None, None),),
        )
        with pytest.raises(Exception):
            engine.run_batch(aborted + [unpicklable])
        raising = [
            "import pandas as pd\nraise RuntimeError('one')\ndf = 1",
            "import pandas as pd\nraise RuntimeError('two')\ndf = 1",
        ]
        outcomes, _ = engine.run_batch(_exec_tasks(raising, GOOD))
        assert outcomes == [("ok", (False, False)), ("ok", (False, False))]

    def test_resident_state_survives_across_batches(self):
        engine = get_shard_engine(2)
        report = BatchReport()
        engine.run_batch(_exec_tasks(SCRIPTS, GOOD), report=report)
        first_bytes = report.bytes_shipped
        again = BatchReport()
        outcomes, _ = engine.run_batch(_exec_tasks(SCRIPTS, GOOD), report=again)
        # second batch finds every source resident: pure refs, zero bytes
        assert again.bytes_shipped == 0
        assert first_bytes > 0
        assert all(outcome[0] == "ok" for outcome in outcomes)


class TestEngineLifecycle:
    def test_worker_count_change_rebuilds(self):
        first = get_shard_engine(2)
        second = get_shard_engine(3)
        assert second is not first
        assert second.workers == 3
        assert not first.alive()

    def test_kill_is_idempotent(self):
        engine = get_shard_engine(2)
        pids = engine.worker_pids()
        assert all(pid is not None for pid in pids)
        kill_shard_engine()
        kill_shard_engine()
        assert not engine.alive()

    def test_workers_are_daemonic(self):
        engine = get_shard_engine(2)
        assert all(shard.process.daemon for shard in engine._shards)


class TestAtexitCleanup:
    def test_pool_is_gone_after_interpreter_shutdown(self, tmp_path):
        """Regression: persistent workers must not outlive the parent.

        A child interpreter spins up the engine, prints its worker PIDs,
        and exits *without* calling kill_worker_pool() — the registered
        atexit hook (plus daemonic workers as backstop) must reap them.
        """
        program = textwrap.dedent(
            """
            from repro.sandbox import check_executes_batch
            from repro.sandbox.runner import get_worker_pool

            check_executes_batch(
                ["df = 1", "df = 2"], workers=2, sample_rows=10
            )
            print(" ".join(str(p) for p in get_worker_pool(2).worker_pids()))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        pids = [int(p) for p in out.stdout.split()]
        assert pids
        import os

        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # signal 0: existence probe only
