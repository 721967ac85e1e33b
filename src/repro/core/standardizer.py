"""LucidScript — the end-to-end script standardizer (the paper's system).

Offline phase: lemmatize the corpus and curate the search space
(vocabularies + corpus distribution).  Online phase: beam-search
transformation sequences for an input script, verify the execution and
user-intent constraints, and return the most standard surviving script.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from hashlib import sha1
from typing import List, Optional, Sequence, Tuple

from .._lru import LRUCache
from ..corpus import (
    CorpusCacheCounters,
    CorpusIndex,
    RetrievalCounters,
    RetrievalIndex,
    cached_index,
    corpus_cache_counters,
)
from ..dialects import get_dialect
from ..lang import CorpusVocabulary, ScriptError, lemmatize, parse_script
from ..minipandas import DataFrame
from ..minipandas.kernels import kernel_audit
from ..sandbox import IncrementalExecutor, run_script
from ..sandbox.runner import BatchReport, run_wave
from .beam import BeamSearch, Candidate, SearchStats
from .config import LSConfig
from .entropy import RelativeEntropyScorer, percent_improvement
from .intent import IntentMeasure, IntentStats, PreparedIntent, table_fingerprint
from .transformations import Transformation

__all__ = ["LucidScript", "StandardizationResult", "StandardizationError"]


#: Bounds of the worker-resident caches below.
_WORKER_OUTPUT_CACHE_LIMIT = 4
_WORKER_INTENT_CACHE_LIMIT = 4

#: Worker-resident original-output table, keyed by fingerprint.  The
#: original script's output is identical for every task of a run, so it is
#: never pickled into tasks; each worker materializes it at most once per
#: fingerprint (LRU-bounded — shard workers outlive searches).
_WORKER_OUTPUT_CACHE: LRUCache = LRUCache(_WORKER_OUTPUT_CACHE_LIMIT)

#: Worker-resident prepared intent state, keyed by (run fingerprint,
#: intent identity).  The prepared original side — per-mode cell sets,
#: column fingerprints, the original's downstream accuracy — is identical
#: for every task of a run, so each shard worker freezes it at most once
#: per key instead of rebuilding it per task (LRU-bounded, like the
#: output cache above).
_WORKER_INTENT_CACHE: LRUCache = LRUCache(_WORKER_INTENT_CACHE_LIMIT)


def _original_output_fingerprint(
    original_source: str,
    data_dir: Optional[str],
    sample_rows: Optional[int],
    dialect: str = "pandas",
) -> str:
    """Cache key for one run's original output: everything that determines
    what :func:`repro.sandbox.run_script` would produce for it."""
    digest = sha1()
    digest.update(original_source.encode())
    digest.update(b"\x00")
    digest.update(str(data_dir).encode())
    digest.update(b"\x00")
    digest.update(str(sample_rows).encode())
    digest.update(b"\x00")
    digest.update(dialect.encode())
    return digest.hexdigest()


def _worker_original_output(
    ref: Tuple[str, str],
    data_dir: Optional[str],
    sample_rows: Optional[int],
    timeout_s: Optional[float],
    dialect: Optional[str] = None,
) -> Optional[DataFrame]:
    """The original output inside a shard worker — cached, else recomputed.

    ``ref`` is ``(fingerprint, original_source)``.  The sandbox is
    deterministic for fixed ``(source, data_dir, sample_rows, dialect)``,
    so a recompute yields the same table the parent holds; tasks therefore
    ship two strings instead of a pickled DataFrame per candidate.
    """
    fingerprint, original_source = ref
    cached = _WORKER_OUTPUT_CACHE.get(fingerprint)
    if cached is not None:
        return cached
    result = run_script(
        original_source,
        data_dir=data_dir,
        sample_rows=sample_rows,
        timeout_s=timeout_s,
        dialect=dialect,
    )
    if not result.ok or result.output is None:
        return None
    _WORKER_OUTPUT_CACHE[fingerprint] = result.output
    return result.output


def _worker_prepared_intent(
    fingerprint: str,
    intent: IntentMeasure,
    original_output: DataFrame,
    verify: bool,
) -> PreparedIntent:
    """This worker's prepared intent state — cached, else frozen once.

    Prepared state is addressed by ``(run fingerprint, intent.cache_key())``
    so a changed intent configuration (or a different original) never
    reuses stale state.  Counters on worker-side prepared objects stay in
    the worker — only verdicts cross back to the parent.
    """
    key = (fingerprint, intent.cache_key())
    prepared = _WORKER_INTENT_CACHE.get(key)
    if prepared is not None:
        prepared.counters.prepared_hits += 1
        prepared.verify = verify
        return prepared
    prepared = intent.prepare(original_output, verify=verify)
    _WORKER_INTENT_CACHE[key] = prepared
    return prepared


def _shard_verify_task(payload, resident) -> Tuple[bool, bool]:
    """Shard-engine constraint check for one candidate (see
    :mod:`repro.sandbox.shards`; registered there as kind ``"verify"``).

    Runs the candidate on the shard's *resident*
    :class:`~repro.sandbox.incremental.IncrementalExecutor` — shard
    affinity routes candidates with a shared prefix here precisely so this
    executor's snapshot LRU hits across waves — and resolves the script
    texts from the worker's content-addressed source store: the candidate
    by ``source_sha``, the original by ``base_sha`` (the wave's base).
    The original output and its prepared intent state come from the
    worker-resident LRUs above, which live as long as the shard process.
    Only ``(verdict, timed_out)`` crosses back to the parent.
    """
    from ..sandbox import shards

    source = shards.resolve_source(resident, payload["source_sha"])
    executor = shards.resident_executor(
        resident,
        payload["data_dir"],
        payload["sample_rows"],
        payload.get("exec_timeout_s"),
        payload.get("statement_timeout_s"),
        payload.get("snapshot_budget", 64),
        payload.get("dialect"),
    )
    result = executor.run_script(source)
    if not result.ok or result.output is None:
        return False, result.timed_out
    intent = payload.get("intent")
    if intent is None:
        return True, False
    original_source = shards.resolve_source(resident, payload["base_sha"])
    original_output = _worker_original_output(
        (payload["fingerprint"], original_source),
        payload["data_dir"],
        payload["sample_rows"],
        payload.get("exec_timeout_s"),
        payload.get("dialect"),
    )
    if original_output is None:
        return False, False
    prepared = _worker_prepared_intent(
        payload["fingerprint"],
        intent,
        original_output,
        payload.get("verify_intent", False),
    )
    _, ok = prepared.check(result.output)
    return bool(ok), False


class StandardizationError(ScriptError):
    """The input script cannot be standardized (e.g. it does not execute)."""


@dataclass
class StandardizationResult:
    """Outcome of one standardization run."""

    input_script: str
    output_script: str
    re_before: float
    re_after: float
    transformations: Tuple[Transformation, ...]
    intent_delta: Optional[float]
    intent_satisfied: bool
    stats: SearchStats

    @property
    def improvement(self) -> float:
        """% improvement in relative entropy (the paper's Table 5 metric)."""
        return percent_improvement(self.re_before, self.re_after)

    @property
    def changed(self) -> bool:
        return self.output_script != self.input_script

    def removed_statements(self) -> List[str]:
        """Lemmatized statements present in the input but not the output."""
        before = Counter(self.input_script.splitlines())
        after = Counter(self.output_script.splitlines())
        removed: List[str] = []
        for line, count in (before - after).items():
            removed.extend([line] * count)
        return removed

    def added_statements(self) -> List[str]:
        """Lemmatized statements present in the output but not the input."""
        before = Counter(self.input_script.splitlines())
        after = Counter(self.output_script.splitlines())
        added: List[str] = []
        for line, count in (after - before).items():
            added.extend([line] * count)
        return added

    def summary(self) -> str:
        lines = [
            f"RE: {self.re_before:.3f} -> {self.re_after:.3f} "
            f"({self.improvement:+.1f}% improvement)",
        ]
        if self.intent_delta is not None:
            lines.append(f"intent delta: {self.intent_delta:.3f}")
        for t in self.transformations:
            lines.append(f"  {t.describe()}")
        return "\n".join(lines)


class LucidScript:
    """Bottom-up script standardization against a corpus of peer scripts.

    Parameters
    ----------
    corpus:
        Peer data-preparation scripts that process the same (or a
        similar) dataset.  Accepts raw source texts, a prebuilt
        :class:`repro.corpus.CorpusIndex` (e.g. loaded from a snapshot
        and ``refresh()``-ed), a ready :class:`CorpusVocabulary`, or a
        :class:`repro.corpus.RetrievalIndex` over a large script pool —
        in which case curation is deferred and the working corpus is
        the pool's ``config.retrieval_k`` nearest neighbours of each
        query script (see ``_ensure_search_space``).
        Raw texts route through the process-wide content-addressed warm
        cache, so repeated constructions over the same corpus skip the
        offline phase (``config.verify_index`` audits the result against
        a from-scratch build).
    data_dir:
        Directory holding the dataset's CSV files; scripts' ``read_csv``
        paths are resolved against it.
    intent:
        A user-intent measure (:class:`TableJaccardIntent` or
        :class:`ModelPerformanceIntent`); None disables the intent
        constraint (execution constraint still applies).
    config:
        Search parameters; see :class:`LSConfig` and Table 2 defaults.
    """

    def __init__(
        self,
        corpus,
        data_dir: Optional[str] = None,
        intent: Optional[IntentMeasure] = None,
        config: Optional[LSConfig] = None,
    ):
        self.config = config or LSConfig()
        #: the API surface every script in this system is written against
        self.dialect = get_dialect(self.config.dialect)
        self._retrieval: Optional[RetrievalIndex] = None
        self._retrieval_query_hash: Optional[str] = None
        self._retrieval_stats = RetrievalCounters()
        if isinstance(corpus, RetrievalIndex):
            # Retrieve-then-compute: the working corpus is a function of
            # the query script, so curation defers to the first
            # score()/standardize() call (see _ensure_search_space).
            self._retrieval = corpus
            self.vocabulary: Optional[CorpusVocabulary] = None
            self.scorer: Optional[RelativeEntropyScorer] = None
            self._corpus_counters = corpus_cache_counters().delta(
                corpus_cache_counters()
            )
        else:
            # Offline phase (Section 5.1): curate the search space once —
            # or adopt a prebuilt/warm-cached index, which is bit-identical.
            self.vocabulary, self._corpus_counters = self._curate(corpus)
            self.scorer = RelativeEntropyScorer(self.vocabulary)
        self.data_dir = data_dir
        self.intent = intent
        self._executor: Optional[IncrementalExecutor] = None
        #: prepared intent state across standardize() calls, keyed by
        #: (original table fingerprint, intent identity)
        self._intent_cache: LRUCache = LRUCache(self.INTENT_CACHE_LIMIT)

    #: Distinct (original, intent) pairs whose prepared state is retained.
    INTENT_CACHE_LIMIT = 4

    def _check_corpus_dialect(self, supplied: str, what: str) -> None:
        if supplied != self.dialect.name:
            raise StandardizationError(
                f"{what} was built for dialect {supplied!r} but this system "
                f"is configured for {self.dialect.name!r}"
            )

    def _curate(self, corpus) -> Tuple[CorpusVocabulary, CorpusCacheCounters]:
        """Resolve *corpus* (scripts | index | vocabulary) to a vocabulary.

        Returns the vocabulary plus the warm-cache activity this
        construction caused (index hits, content-addressed script hits,
        actual reparses), which standardize() folds into SearchStats.
        """
        before = corpus_cache_counters()
        if isinstance(corpus, CorpusIndex):
            self._check_corpus_dialect(corpus.dialect, "the supplied corpus index")
            if self.config.verify_index:
                corpus.verify()
            vocabulary = corpus.to_vocabulary()
        elif isinstance(corpus, CorpusVocabulary):
            vocabulary = corpus
        else:
            index = cached_index(corpus, dialect=self.dialect.name)
            if self.config.verify_index:
                index.verify()
            vocabulary = index.to_vocabulary()
        return vocabulary, corpus_cache_counters().delta(before)

    def _ensure_search_space(self, script: str) -> None:
        """Curate the retrieval-backed search space for *script*.

        No-op unless this system was built over a
        :class:`~repro.corpus.RetrievalIndex`.  The query script's
        signature selects ``config.retrieval_k`` pool neighbours
        (``config.verify_retrieval`` audits the selection against brute
        force), the winners are assembled into a working
        :class:`CorpusIndex` through the record-delta path, and scoring
        proceeds exactly as with a hand-curated corpus.  The assembled
        space is keyed by the query's content address, so repeated
        calls over the same script reuse it and a different script
        re-retrieves — cheaply, since top_k only touches candidates.
        """
        if self._retrieval is None:
            return
        self._check_corpus_dialect(
            self._retrieval.store.dialect, "the supplied retrieval index"
        )
        record = self._retrieval.store.get_or_parse(script)
        if record is None:
            raise StandardizationError(
                "input script does not parse, so no corpus can be retrieved for it"
            )
        if (
            self._retrieval_query_hash == record.content_hash
            and self.vocabulary is not None
        ):
            return
        before = corpus_cache_counters()
        counters_before = self._retrieval.counters.snapshot()
        try:
            corpus = self._retrieval.assemble(
                record.signature,
                self.config.retrieval_k,
                verify=self.config.verify_retrieval,
            )
        except ScriptError as exc:
            raise StandardizationError(
                f"retrieval produced no working corpus: {exc}"
            ) from exc
        if self.config.verify_index:
            corpus.verify()
        self.vocabulary = corpus.to_vocabulary()
        self.scorer = RelativeEntropyScorer(self.vocabulary)
        self._corpus_counters = corpus_cache_counters().delta(before)
        queries, candidates, fallbacks = self._retrieval.counters.snapshot()
        self._retrieval_stats = RetrievalCounters(
            queries=queries - counters_before[0],
            candidates=candidates - counters_before[1],
            fallbacks=fallbacks - counters_before[2],
        )
        self._retrieval_query_hash = record.content_hash

    def _prepared_intent(
        self, original_output: DataFrame, counters: IntentStats
    ) -> Optional[PreparedIntent]:
        """The content-addressed verification state for this original.

        None when the intent constraint is disabled.  Reuses (and
        re-points the counters of) a cached prepared state when the
        original's content fingerprint and the intent's configuration
        both match.
        """
        if self.intent is None:
            return None
        key = (table_fingerprint(original_output), self.intent.cache_key())
        prepared = self._intent_cache.peek(key)
        if prepared is None:
            prepared = self.intent.prepare(
                original_output,
                table_fp=key[0],
                counters=counters,
                verify=self.config.verify_intent,
            )
            self._intent_cache[key] = prepared
        else:
            counters.prepared_hits += 1
            prepared.counters = counters
            prepared.verify = self.config.verify_intent
        return prepared

    def _shared_executor(self) -> IncrementalExecutor:
        """One incremental executor per (data_dir, sample_rows, dialect).

        Shared between the beam search and constraint verification — and
        across standardize() calls — so every phase resumes from prefixes
        any earlier phase already snapshotted.  Rebuilt if the config's
        sampling (or dialect) changes — snapshots are only valid within
        one setting.
        """
        if (
            self._executor is None
            or self._executor.sample_rows != self.config.sample_rows
            or self._executor._snapshots.capacity != self.config.snapshot_budget
            or self._executor.exec_timeout_s != self.config.exec_timeout_s
            or self._executor.statement_timeout_s != self.config.statement_timeout_s
            or self._executor.dialect.name != self.dialect.name
        ):
            self._executor = IncrementalExecutor(
                data_dir=self.data_dir,
                sample_rows=self.config.sample_rows,
                snapshot_budget=self.config.snapshot_budget,
                exec_timeout_s=self.config.exec_timeout_s,
                statement_timeout_s=self.config.statement_timeout_s,
                dialect=self.dialect,
            )
        return self._executor

    # ------------------------------------------------------------------ scoring
    def score(self, script: str) -> float:
        """RE(s, S) of an arbitrary script against this corpus.

        On the retrieval path the corpus itself is a function of the
        script: the search space is (re)assembled from the pool's top-k
        neighbours of *script* before scoring.
        """
        self._ensure_search_space(script)
        return self.scorer.score_dag(parse_script(script, dialect=self.dialect))

    # ------------------------------------------------------------- online phase
    def standardize(self, script: str) -> StandardizationResult:
        """Produce a standardized version of *script* (Definition 4.5)."""
        with kernel_audit(self.config.verify_kernels):
            return self._standardize(script)

    def _standardize(self, script: str) -> StandardizationResult:
        normalized = lemmatize(script, dialect=self.dialect)
        dag = parse_script(normalized, lemmatized=True, dialect=self.dialect)
        if not dag.statements:
            raise StandardizationError("input script has no statements")
        self._ensure_search_space(normalized)
        re_before = self.scorer.score_dag(dag)

        original_output = self._run(normalized)
        if original_output is None:
            raise StandardizationError(
                "input script must execute and emit a table before it can be standardized"
            )

        search = BeamSearch(
            self.vocabulary,
            self.scorer,
            self.config,
            data_dir=self.data_dir,
            executor=self._shared_executor(),
        )
        candidates = search.search(dag.statements)
        intent_counters = IntentStats()
        best = self._verify_all_constraints(
            candidates, normalized, original_output, search, intent_counters
        )
        intent_delta, intent_ok = self._final_intent(
            best, normalized, original_output, intent_counters
        )
        search.sync_cache_stats()  # fold verification-phase cache activity in
        self._fold_intent_stats(search.stats, intent_counters)
        self._fold_corpus_stats(search.stats)
        return StandardizationResult(
            input_script=normalized,
            output_script=best.source(),
            re_before=re_before,
            re_after=best.score,
            transformations=best.applied,
            intent_delta=intent_delta,
            intent_satisfied=intent_ok,
            stats=search.stats,
        )

    # ----------------------------------------------------------------- helpers
    def _run(self, source: str) -> Optional[DataFrame]:
        result = self._shared_executor().run_script(source)
        return result.output if result.ok else None

    def _fold_corpus_stats(self, stats: SearchStats) -> None:
        """Surface the offline-phase warm-cache activity on SearchStats.

        The counters were captured when the search space was curated —
        once at construction, or per retrieved query on the retrieval
        path — and report how it was obtained: served whole from the
        index cache, from content-addressed script records, by actually
        reparsing, or assembled from top-k pool neighbours (query /
        candidate / fallback counts).
        """
        stats.n_corpus_index_hits = self._corpus_counters.index_hits
        stats.n_corpus_script_hits = self._corpus_counters.script_hits
        stats.n_corpus_reparses = self._corpus_counters.script_parses
        stats.n_retrieval_queries = self._retrieval_stats.queries
        stats.n_retrieval_candidates = self._retrieval_stats.candidates
        stats.n_retrieval_fallbacks = self._retrieval_stats.fallbacks

    @staticmethod
    def _fold_intent_stats(stats: SearchStats, counters: IntentStats) -> None:
        """Surface the parent-side intent-engine counters on SearchStats.

        Worker-side counters stay in the pool workers (only verdicts cross
        the process boundary), so the parallel path contributes parent
        checks only.
        """
        stats.n_intent_checks += counters.checks
        stats.n_intent_cache_hits += counters.prepared_hits
        stats.n_column_set_reuse += counters.column_set_reuse
        stats.n_intent_short_circuits += counters.short_circuits

    def _verify_all_constraints(
        self,
        candidates: List[Candidate],
        original_source: str,
        original_output: DataFrame,
        search: BeamSearch,
        intent_counters: IntentStats,
    ) -> Candidate:
        """VerifyAllConstraints(): return the most standard valid candidate.

        Candidates arrive sorted by RE score; the original script is always
        among them and trivially satisfies every constraint, so the search
        can never make the script less standard (Table 5: min = 0.0).

        With ``parallel_workers > 1``, waves of candidates are checked
        speculatively on the shard engine, but the winner is still the
        first valid candidate in score order — identical to the serial
        walk for any worker count.  A candidate that exceeds its execution
        budget simply fails verification (serial: the watchdog interrupts
        it; parallel: its worker self-interrupts, or the parent kills and
        respawns a wedged shard).
        """
        stats = search.stats
        start = time.perf_counter()
        prepared = self._prepared_intent(original_output, intent_counters)
        try:
            if self.config.parallel_workers > 1 and len(candidates) > 2:
                winner = self._verify_parallel(
                    candidates, original_source, prepared, search
                )
                if self.config.verify_parallel:
                    serial = self._serial_walk(candidates, original_source, prepared)
                    if serial is not winner:
                        from ..sandbox.shards import ParallelMismatchError

                        raise ParallelMismatchError(
                            "verify_parallel: sharded winner "
                            f"{winner.source() if winner else None!r} != serial "
                            f"winner {serial.source() if serial else None!r}"
                        )
            else:
                winner = self._serial_walk(candidates, original_source, prepared)
            if winner is None:
                raise StandardizationError(
                    "no candidate (not even the original) survived verification"
                )
            return winner
        finally:
            stats.verify_constraints_s += time.perf_counter() - start

    def _satisfies(self, source: str, prepared: Optional[PreparedIntent]) -> bool:
        """Does one candidate execute and keep the user's intent?"""
        output = self._run(source)
        if output is None:
            return False
        return prepared is None or prepared.check(output)[1]

    def _serial_walk(
        self,
        candidates: List[Candidate],
        original_source: str,
        prepared: Optional[PreparedIntent],
    ) -> Optional[Candidate]:
        """The always-correct serial VerifyAllConstraints walk.

        Returns the first candidate (in score order) that satisfies every
        constraint, or None if nothing survives.  The ``verify_parallel``
        audit compares the sharded winner against this walk.
        """
        for candidate in candidates:
            source = candidate.source()
            if source == original_source or self._satisfies(source, prepared):
                return candidate
        return None

    def _verify_parallel(
        self,
        candidates: List[Candidate],
        original_source: str,
        prepared: Optional[PreparedIntent],
        search: BeamSearch,
    ) -> Optional[Candidate]:
        """Wave-parallel VerifyAllConstraints over :func:`run_wave`.

        Each wave takes the next ``2 × workers`` candidates (stopping at
        the original script, which is trivially valid) and returns the
        first valid verdict in score order.  The wave's base is the
        original, so candidates ship as O(delta) line splices against it,
        and the original output table never crosses the process boundary:
        workers resolve a ``(fingerprint, original_source)`` reference
        against their resident caches, recomputing at most once per
        worker.  Whatever the engine leaves unanswered (respawn budget
        spent, engine failure) is checked here by the serial walk's
        per-candidate body, so a degraded wave re-checks only those
        candidates.  One respawn budget spans all waves.
        """
        config = self.config
        workers = config.parallel_workers
        wave_size = max(2, workers * 2)
        payload = {
            "fingerprint": (
                None
                if self.intent is None
                else _original_output_fingerprint(
                    original_source, self.data_dir, config.sample_rows, config.dialect
                )
            ),
            "data_dir": self.data_dir,
            "sample_rows": config.sample_rows,
            "intent": self.intent,
            "exec_timeout_s": config.exec_timeout_s,
            "statement_timeout_s": config.statement_timeout_s,
            "snapshot_budget": config.snapshot_budget,
            "verify_intent": config.verify_intent,
            "dialect": config.dialect,
        }
        respawn_budget = config.pool_respawn_limit
        position = 0
        while position < len(candidates):
            wave: List[Candidate] = []
            terminator = None
            for candidate in candidates[position:position + wave_size]:
                if candidate.source() == original_source:
                    terminator = candidate
                    break
                wave.append(candidate)
            report = BatchReport()
            verdicts, used = run_wave(
                "verify",
                [candidate.source() for candidate in wave],
                original_source,
                payload,
                lambda source: self._satisfies(source, prepared),
                workers,
                timeout_s=config.exec_timeout_s,
                respawn_limit=max(respawn_budget, 0),
                report=report,
            )
            respawn_budget -= used
            search.fold_batch_report(report)
            for candidate, ok in zip(wave, verdicts):
                if ok:
                    return candidate
            if terminator is not None:
                return terminator
            position += len(wave)
        return None

    def _final_intent(
        self,
        best: Candidate,
        original_source: str,
        original_output: DataFrame,
        intent_counters: IntentStats,
    ) -> Tuple[Optional[float], bool]:
        if self.intent is None:
            return None, True
        if best.source() == original_source:
            # identical script: Jaccard similarity 1 / accuracy delta 0
            identity = 1.0 if self.intent.name == "table_jaccard" else 0.0
            return identity, True
        output = self._run(best.source())
        if output is None:  # pragma: no cover - verified above
            return None, False
        return self._prepared_intent(original_output, intent_counters).check(output)
