"""End-to-end tests for the parallel path on the sharded worker engine:
standardize() bit-identity across worker counts, the verify_parallel
audit mode, shard accounting on SearchStats, and the bounds of the
worker-resident caches.
"""

import time

import pytest

from repro.core import LSConfig, LucidScript, TableJaccardIntent
from repro.sandbox import kill_worker_pool


@pytest.fixture(autouse=True)
def _fresh_engine():
    yield
    kill_worker_pool()


def _outcome(result):
    return (result.output_script, result.transformations, result.re_after)


def _system(diabetes_corpus, diabetes_dir, **config_kwargs):
    defaults = dict(seq=4, beam_size=2, sample_rows=100)
    defaults.update(config_kwargs)
    return LucidScript(
        diabetes_corpus,
        data_dir=diabetes_dir,
        intent=TableJaccardIntent(tau=0.5),
        config=LSConfig(**defaults),
    )


class TestBitIdentityAcrossWorkerCounts:
    def test_standardize_identical_for_1_2_4_workers(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        baseline = None
        for workers in (1, 2, 4):
            kill_worker_pool()
            system = _system(
                diabetes_corpus, diabetes_dir, parallel_workers=workers
            )
            outcome = _outcome(system.standardize(alex_script))
            if baseline is None:
                baseline = outcome
            else:
                assert outcome == baseline, f"workers={workers}"

    def test_standardize_identical_under_hung_worker_respawn(
        self, diabetes_corpus, diabetes_dir, alex_script, monkeypatch
    ):
        from repro.core import standardizer
        from repro.sandbox import shards

        budget = dict(exec_timeout_s=0.5, pool_respawn_limit=1)
        kill_worker_pool()
        serial = _system(diabetes_corpus, diabetes_dir, **budget).standardize(
            alex_script
        )
        winner = serial.output_script
        verify_task = standardizer._shard_verify_task

        def hang_unless_winner(payload, resident):
            # every candidate ahead of the serial winner is invalid, so a
            # hung (hence failed) check there cannot change the outcome;
            # time.sleep blocks in C, out of the worker watchdog's reach
            if shards.resolve_source(resident, payload["source_sha"]) != winner:
                time.sleep(60)
            return verify_task(payload, resident)

        # shard workers fork from this process, so they see the patch
        monkeypatch.setattr(standardizer, "_shard_verify_task", hang_unless_winner)
        monkeypatch.setattr(shards, "_RESOLVED_KINDS", {})
        kill_worker_pool()
        parallel = _system(
            diabetes_corpus, diabetes_dir, parallel_workers=2, **budget
        ).standardize(alex_script)
        assert _outcome(parallel) == _outcome(serial)
        assert parallel.stats.n_worker_respawns >= 1
        assert parallel.stats.n_exec_timeouts >= 1


class TestVerifyParallelAudit:
    def test_audit_passes_on_a_real_run(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        audited = _system(
            diabetes_corpus,
            diabetes_dir,
            parallel_workers=2,
            verify_parallel=True,
        )
        plain = _system(diabetes_corpus, diabetes_dir, parallel_workers=2)
        assert _outcome(audited.standardize(alex_script)) == _outcome(
            plain.standardize(alex_script)
        )

    def test_audit_is_off_by_default(self):
        assert LSConfig().verify_parallel is False


class TestShardAccounting:
    def test_stats_record_shard_activity(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        system = _system(diabetes_corpus, diabetes_dir, parallel_workers=2)
        stats = system.standardize(alex_script).stats
        assert stats.n_shard_hits > 0
        assert stats.bytes_shipped > 0
        assert stats.n_shard_migrations >= 0
        breakdown = stats.breakdown()
        assert breakdown["ShardHits"] == float(stats.n_shard_hits)
        assert breakdown["ShardMigrations"] == float(stats.n_shard_migrations)
        assert breakdown["BytesShipped"] == float(stats.bytes_shipped)

    def test_serial_run_ships_nothing(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        system = _system(diabetes_corpus, diabetes_dir, parallel_workers=1)
        stats = system.standardize(alex_script).stats
        assert stats.bytes_shipped == 0
        assert stats.n_shard_hits == 0


class TestWorkerCacheBounds:
    def test_resident_caches_are_bounded(self, diabetes_dir, diabetes_corpus):
        from repro.core import standardizer as mod
        from repro.lang import lemmatize

        assert mod._WORKER_OUTPUT_CACHE.capacity == mod._WORKER_OUTPUT_CACHE_LIMIT
        assert mod._WORKER_INTENT_CACHE.capacity == mod._WORKER_INTENT_CACHE_LIMIT
        mod._WORKER_OUTPUT_CACHE.clear()
        mod._WORKER_INTENT_CACHE.clear()
        intent = TableJaccardIntent(tau=0.5)
        source = lemmatize(diabetes_corpus[0])
        for rows in range(10, 10 * (mod._WORKER_OUTPUT_CACHE_LIMIT + 3), 10):
            fp = mod._original_output_fingerprint(source, diabetes_dir, rows)
            output = mod._worker_original_output(
                (fp, source), diabetes_dir, rows, None
            )
            mod._worker_prepared_intent(fp, intent, output, False)
        assert len(mod._WORKER_OUTPUT_CACHE) == mod._WORKER_OUTPUT_CACHE_LIMIT
        assert len(mod._WORKER_INTENT_CACHE) == mod._WORKER_INTENT_CACHE_LIMIT
