"""The online search framework (Section 5.2, Algorithms 1-3).

Beam search over transformation sequences: each candidate holds a working
statement list, the transformations applied so far, and a monotonicity
frontier.  ``GetSteps`` ranks legal next transformations by the relative
entropy of the script they would produce; ``GetTopKBeams`` (optionally with
the diversity clustering of Algorithm 3) extends the beam set; constraint
verification happens early (α = on) or late.

The execution-constraint hot path (Figure 7's dominant cost) runs through
two engines layered under :meth:`BeamSearch.check_if_executes`:

* an :class:`~repro.sandbox.IncrementalExecutor` resumes each candidate
  from the longest snapshotted statement prefix — beam candidates share
  prefixes by construction, because the monotone frontier moves edits
  left-to-right;
* with ``LSConfig.parallel_workers > 1``, each extension wave's checks are
  speculatively fired as one batch over a process pool before admission,
  which then proceeds serially in rank order (deterministic results).

Both engines run under optional execution budgets
(``LSConfig.exec_timeout_s`` / ``statement_timeout_s``): a candidate that
exceeds its budget fails ``CheckIfExecutes`` and is skipped — counted in
``SearchStats.breakdown()`` (``ExecTimeouts``, ``WorkerRespawns``,
``DegradedWaves``) but never fatal to the search.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .._lru import LRUCache
from ..lang.errors import ScriptError
from ..lang.parser import EdgeDelta, EdgeState, Statement, compute_edge_counts
from ..lang.vocabulary import CorpusVocabulary
from ..sandbox import BatchReport, IncrementalExecutor, check_executes_batch
from .config import LSConfig
from .diversity import cluster_transformations
from .entropy import REStats, RelativeEntropyScorer
from .transformations import (
    ADD,
    DELETE,
    Transformation,
    apply_transformation,
    enumerate_transformations,
)

__all__ = ["Candidate", "ScoringMismatchError", "SearchStats", "BeamSearch"]


class ScoringMismatchError(RuntimeError):
    """Raised by ``LSConfig.verify_scoring`` when the O(Δ) incremental
    score diverges from the full recount (a delta-engine bug, never a
    legitimate runtime condition — hence not a swallowed ``ValueError``)."""


@dataclass(frozen=True)
class Candidate:
    """One in-progress transformation sequence and its working script."""

    statements: Tuple[Statement, ...]
    applied: Tuple[Transformation, ...]
    frontier: int
    score: float

    def source(self) -> str:
        # memoized: the join is re-requested by ranking, prefetch waves,
        # archive keys, and both verification walks for the same
        # immutable candidate
        cached = self.__dict__.get("_source")
        if cached is None:
            cached = "\n".join(s.source for s in self.statements)
            object.__setattr__(self, "_source", cached)
        return cached

    @property
    def n_transformations(self) -> int:
        return len(self.applied)


@dataclass
class SearchStats:
    """Runtime breakdown of one search (drives the Figure 7 reproduction).

    Besides the four component timings, the stats expose the execution
    engine's cache behaviour: prefix-snapshot hit rate and mean resumed
    depth (the incremental executor), batch counts (the parallel path),
    wall vs CPU time of the check loop, and the sizes/hit rates of the
    per-search memo caches.
    """

    get_steps_s: float = 0.0
    get_top_k_s: float = 0.0
    check_executes_s: float = 0.0
    verify_constraints_s: float = 0.0
    check_executes_cpu_s: float = 0.0
    n_steps_enumerated: int = 0
    n_delta_scores: int = 0
    n_full_recounts: int = 0
    n_exec_checks: int = 0
    n_intent_checks: int = 0
    n_intent_cache_hits: int = 0
    n_column_set_reuse: int = 0
    n_intent_short_circuits: int = 0
    n_corpus_index_hits: int = 0
    n_corpus_script_hits: int = 0
    n_corpus_reparses: int = 0
    n_retrieval_queries: int = 0
    n_retrieval_candidates: int = 0
    n_retrieval_fallbacks: int = 0
    n_iterations: int = 0
    n_exec_batches: int = 0
    n_batched_checks: int = 0
    n_exec_timeouts: int = 0
    n_worker_respawns: int = 0
    n_degraded_waves: int = 0
    n_shard_hits: int = 0
    n_shard_migrations: int = 0
    bytes_shipped: int = 0
    max_beam_width: int = 0
    prefix_cache_hits: int = 0
    prefix_cache_misses: int = 0
    prefix_mean_resume_depth: float = 0.0
    prefix_fallbacks: int = 0
    exec_cache_size: int = 0
    exec_cache_hit_rate: float = 0.0
    statement_cache_size: int = 0
    statement_cache_hit_rate: float = 0.0

    @property
    def prefix_cache_hit_rate(self) -> float:
        probes = self.prefix_cache_hits + self.prefix_cache_misses
        return self.prefix_cache_hits / probes if probes else 0.0

    def breakdown(self) -> Dict[str, float]:
        return {
            "GetSteps": self.get_steps_s,
            "DeltaScoreHits": float(self.n_delta_scores),
            "FullRecountFallbacks": float(self.n_full_recounts),
            "GetTopKBeams": self.get_top_k_s,
            "CheckIfExecutes": self.check_executes_s,
            "VerifyConstraints": self.verify_constraints_s,
            "IntentChecks": float(self.n_intent_checks),
            "IntentCacheHits": float(self.n_intent_cache_hits),
            "ColumnSetReuse": float(self.n_column_set_reuse),
            "IntentShortCircuits": float(self.n_intent_short_circuits),
            "CorpusIndexHits": float(self.n_corpus_index_hits),
            "CorpusScriptHits": float(self.n_corpus_script_hits),
            "CorpusReparses": float(self.n_corpus_reparses),
            "RetrievalQueries": float(self.n_retrieval_queries),
            "RetrievalCandidates": float(self.n_retrieval_candidates),
            "RetrievalFallbacks": float(self.n_retrieval_fallbacks),
            "CheckIfExecutesCPU": self.check_executes_cpu_s,
            "ExecBatches": float(self.n_exec_batches),
            "BatchedChecks": float(self.n_batched_checks),
            "ExecTimeouts": float(self.n_exec_timeouts),
            "WorkerRespawns": float(self.n_worker_respawns),
            "DegradedWaves": float(self.n_degraded_waves),
            "ShardHits": float(self.n_shard_hits),
            "ShardMigrations": float(self.n_shard_migrations),
            "BytesShipped": float(self.bytes_shipped),
            "PrefixCacheHitRate": self.prefix_cache_hit_rate,
            "PrefixMeanResumeDepth": self.prefix_mean_resume_depth,
            "ExecCacheSize": float(self.exec_cache_size),
            "ExecCacheHitRate": self.exec_cache_hit_rate,
            "StatementCacheSize": float(self.statement_cache_size),
            "StatementCacheHitRate": self.statement_cache_hit_rate,
        }


class BeamSearch:
    """Algorithm 1's meta-level framework over a fixed corpus vocabulary."""

    def __init__(
        self,
        vocabulary: CorpusVocabulary,
        scorer: RelativeEntropyScorer,
        config: LSConfig,
        data_dir: Optional[str] = None,
        exec_checker: Optional[Callable[[str], bool]] = None,
        executor: Optional[IncrementalExecutor] = None,
    ):
        self.vocabulary = vocabulary
        self.scorer = scorer
        self.config = config
        self.data_dir = data_dir
        self.operation_groups = None
        if config.operation_groups is not None:
            from .grouping import group_operations

            self.operation_groups = group_operations(
                vocabulary, config.operation_groups, random_state=config.random_state
            )
        self._exec_checker = exec_checker
        self._executor = executor
        if self._executor is None and exec_checker is None:
            self._executor = IncrementalExecutor(
                data_dir=data_dir,
                sample_rows=config.sample_rows,
                snapshot_budget=config.snapshot_budget,
                exec_timeout_s=config.exec_timeout_s,
                statement_timeout_s=config.statement_timeout_s,
                dialect=config.dialect,
            )
        # executors may be shared across searches; stats report deltas
        self._executor_baseline = (
            dict(self._executor.stats.as_dict()) if self._executor else {}
        )
        # timeouts observed outside the shared executor (shard waves);
        # sync_cache_stats adds the executor's delta on top
        self._direct_timeouts = 0
        self._exec_cache: LRUCache = LRUCache(self.EXEC_CACHE_LIMIT)
        self._statement_cache: LRUCache = LRUCache(self.STATEMENT_CACHE_LIMIT)
        #: source -> (EdgeState, REStats): per-candidate scoring state for
        #: the O(Δ) incremental path; a miss rebuilds via a full recount.
        self._score_state_cache: LRUCache = LRUCache(self.SCORE_STATE_CACHE_LIMIT)
        #: deltas of the current GetSteps wave, so admission can derive
        #: the child's scoring state from the parent's without recounting
        # keyed by id(transformation): proposals are unique objects per wave
        # and stay alive in the ranked list, and identity lookups skip the
        # frozen dataclass's field-tuple hashing on the hot path
        self._wave_deltas: Dict[int, EdgeDelta] = {}
        self._wave_parent_key: Optional[str] = None
        self._archive: Dict[str, Candidate] = {}
        self.stats = SearchStats()

    #: Upper bound on archived candidates handed to constraint verification.
    ARCHIVE_LIMIT = 64

    #: Cap on ranked next-step transformations returned by GetSteps().
    MAX_STEP_CANDIDATES = 48

    #: RE scores within this tolerance compare equal during ranking and
    #: beam eviction (see :meth:`_band`).
    SCORE_BAND = 0.02

    #: Capacity of the per-search memo caches.  A search touches a few
    #: hundred distinct sources/statements; the bound only matters for
    #: long-lived searches (large seq × beam × corpus), which previously
    #: grew these dicts without limit.
    EXEC_CACHE_LIMIT = 4096
    STATEMENT_CACHE_LIMIT = 2048
    SCORE_STATE_CACHE_LIMIT = 256

    # ------------------------------------------------------------- components
    def _band(self, score: float) -> int:
        """Quantize a score so near-equal candidates compare equal.

        Within a band, ties break toward earlier positions/frontiers: a
        monotone search that edits left-to-right keeps every later line
        reachable, whereas editing the tail first locks the prefix.  This
        matters for multi-line nonstandard snippets (e.g. target leakage,
        Section 6.6) whose per-line deletions score almost identically.
        """
        return int(round(score / self.SCORE_BAND))

    def check_if_executes(self, source: str) -> bool:
        """CheckIfExecutes() with memoization across the whole search."""
        cached = self._exec_cache.get(source)
        if cached is not None:
            return cached
        wall = time.perf_counter()
        cpu = time.process_time()
        if self._exec_checker is not None:
            ok = self._exec_checker(source)
        else:
            ok = self._executor.check_executes(source)
        self.stats.check_executes_s += time.perf_counter() - wall
        self.stats.check_executes_cpu_s += time.process_time() - cpu
        self.stats.n_exec_checks += 1
        self._exec_cache[source] = ok
        return ok

    def _parsed_statement(self, source: str) -> Statement:
        """Parse-once cache for add-candidate statements."""
        statement = self._statement_cache.get(source)
        if statement is None:
            statement = Statement.from_source(0, source, dialect=self.config.dialect)
            self._statement_cache[source] = statement
        return statement

    def _projected_score(
        self, statements: Sequence[Statement], transformation: Transformation
    ) -> float:
        """The full-recount oracle behind ``verify_scoring``: splice a
        virtual sequence view and recount every edge positionally,
        without materializing new Statement objects."""
        virtual = list(statements)
        if transformation.kind == DELETE:
            if not 0 <= transformation.position < len(virtual):
                raise IndexError(transformation.position)
            del virtual[transformation.position]
        else:
            if not 0 <= transformation.position <= len(virtual):
                raise IndexError(transformation.position)
            virtual.insert(
                transformation.position,
                self._parsed_statement(transformation.statement_source),
            )
        return self.scorer.score_edge_counts(compute_edge_counts(virtual))

    def _score_state(self, candidate: Candidate) -> Tuple[EdgeState, REStats]:
        """The candidate's (edge state, sufficient statistics) pair.

        Cache misses — the root candidate, or an entry evicted from the
        bounded LRU — rebuild via one full recount, counted in
        ``SearchStats.n_full_recounts``; everything else is either a hit
        or derived from its parent by :meth:`_derive_child_state`.
        """
        key = candidate.source()
        state = self._score_state_cache.get(key)
        if state is None:
            edge_state = EdgeState.from_statements(candidate.statements)
            state = (edge_state, self.scorer.stats_from_counts(edge_state.counts))
            self._score_state_cache[key] = state
            self.stats.n_full_recounts += 1
        return state

    def _delta_for(
        self, edge_state: EdgeState, transformation: Transformation
    ) -> EdgeDelta:
        if transformation.kind == DELETE:
            return edge_state.delta_delete(transformation.position)
        return edge_state.delta_insert(
            transformation.position,
            self._parsed_statement(transformation.statement_source),
        )

    def _delta_score(
        self,
        candidate: Candidate,
        edge_state: EdgeState,
        re_stats: REStats,
        transformation: Transformation,
    ) -> float:
        """Score one transformation off the parent's state in O(Δ).

        With ``verify_scoring`` on, the full recount runs alongside and
        any divergence — in value *or* in raised-exception behaviour —
        raises :class:`ScoringMismatchError` (bit-identity is the delta
        engine's contract, so the comparison is exact, not approximate).
        """
        if not self.config.verify_scoring:
            delta = self._delta_for(edge_state, transformation)
            score = self.scorer.score_delta(re_stats, edge_state.counts, delta)
            self._wave_deltas[id(transformation)] = delta
            return score
        try:
            delta = self._delta_for(edge_state, transformation)
            score: Optional[float] = self.scorer.score_delta(
                re_stats, edge_state.counts, delta
            )
            delta_error: Optional[BaseException] = None
        except (ScriptError, IndexError, ValueError) as exc:
            score, delta, delta_error = None, None, exc
        try:
            full: Optional[float] = self._projected_score(
                candidate.statements, transformation
            )
            full_error: Optional[BaseException] = None
        except (ScriptError, IndexError, ValueError) as exc:
            full, full_error = None, exc
        if (delta_error is None) != (full_error is None) or (
            score is not None and score != full
        ):
            raise ScoringMismatchError(
                f"incremental score {score!r} (error={delta_error!r}) != "
                f"full recount {full!r} (error={full_error!r}) for "
                f"{transformation.describe()} on:\n{candidate.source()}"
            )
        if delta_error is not None:
            raise delta_error
        self._wave_deltas[id(transformation)] = delta
        return score  # type: ignore[return-value]

    def get_steps(self, candidate: Candidate) -> List[Tuple[Transformation, float]]:
        """GetSteps(): rank legal next transformations by projected RE.

        Every proposal is scored by the marginal-update engine: the
        candidate's cached edge state yields an O(Δ) edge delta, and the
        sufficient-statistics representation turns that into the new RE
        without touching untouched edges (``LSConfig.verify_scoring``
        audits each score against the full recount).  The deltas are
        kept for the wave so a winning extension's state derives from
        its parent's.
        """
        start = time.perf_counter()
        added = {t.signature for t in candidate.applied if t.kind == ADD}
        deleted = {t.signature for t in candidate.applied if t.kind == DELETE}
        raw = enumerate_transformations(
            candidate.statements,
            self.vocabulary,
            frontier=candidate.frontier,
            forbidden_adds=deleted,
            forbidden_deletes=added,
            operation_groups=self.operation_groups,
        )
        edge_state, re_stats = self._score_state(candidate)
        self._wave_deltas = {}
        self._wave_parent_key = candidate.source()
        ranked: List[Tuple[Transformation, float]] = []
        for transformation in raw:
            try:
                score = self._delta_score(
                    candidate, edge_state, re_stats, transformation
                )
                self.stats.n_delta_scores += 1
            except (ScriptError, IndexError, ValueError):
                continue
            ranked.append((transformation, score))
        ranked.sort(key=lambda pair: (self._band(pair[1]), pair[0].position, pair[1]))
        ranked = ranked[: self.MAX_STEP_CANDIDATES]
        self.stats.get_steps_s += time.perf_counter() - start
        self.stats.n_steps_enumerated += len(ranked)
        return ranked

    def _extend(self, candidate: Candidate, transformation: Transformation,
                score: float) -> Candidate:
        statements = apply_transformation(candidate.statements, transformation)
        if transformation.kind == ADD:
            frontier = transformation.position + 1
        elif transformation.position < candidate.frontier:
            # a delete before the add-frontier shifts later lines down
            frontier = candidate.frontier - 1
        else:
            frontier = candidate.frontier
        return Candidate(
            statements=tuple(statements),
            applied=candidate.applied + (transformation,),
            frontier=frontier,
            score=score,
        )

    def _derive_child_state(
        self, parent: Candidate, transformation: Transformation, child: Candidate
    ) -> None:
        """Seed the child's scoring state by applying the winning delta.

        Only called for candidates admitted to a beam (the ones GetSteps
        will visit next iteration).  If the wave's delta or the parent's
        state is gone (LRU eviction, different wave), the child simply
        rebuilds lazily on its first GetSteps — a counted fallback, never
        an error.
        """
        key = child.source()
        if key in self._score_state_cache:
            return
        if self._wave_parent_key != parent.source():
            return
        delta = self._wave_deltas.get(id(transformation))
        parent_state = self._score_state_cache.peek(parent.source())
        if delta is None or parent_state is None:
            return
        edge_state, re_stats = parent_state
        self._score_state_cache[key] = (
            edge_state.apply(delta),
            self.scorer.apply_delta(re_stats, edge_state.counts, delta),
        )

    def _prefetch_exec_checks(
        self,
        candidate: Candidate,
        ranked: Sequence[Tuple[Transformation, float]],
        known_sources: set,
    ) -> None:
        """Speculatively batch the wave's execution checks over the pool.

        Builds every extension the admission loop may consider, fires the
        uncached checks as one :func:`check_executes_batch`, and seeds the
        memo cache.  Admission then runs serially in rank order against
        cached verdicts, so the admitted set is identical to the serial
        path — the batch only moves the sandbox work off the clock.
        """
        wave: List[str] = []
        seen = set(known_sources)
        for transformation, score in ranked:
            try:
                extended = self._extend(candidate, transformation, score)
            except (ScriptError, IndexError, ValueError):
                continue
            source = extended.source()
            if source in seen or source in self._exec_cache:
                continue
            seen.add(source)
            wave.append(source)
        if not wave:
            return
        wall = time.perf_counter()
        cpu = time.process_time()
        report = BatchReport()
        verdicts = check_executes_batch(
            wave,
            data_dir=self.data_dir,
            sample_rows=self.config.sample_rows,
            workers=self.config.parallel_workers,
            timeout_s=self.config.exec_timeout_s,
            respawn_limit=self.config.pool_respawn_limit,
            report=report,
            statement_timeout_s=self.config.statement_timeout_s,
            snapshot_budget=self.config.snapshot_budget,
            affinity_base=candidate.source(),
            dialect=self.config.dialect,
        )
        self.stats.check_executes_s += time.perf_counter() - wall
        self.stats.check_executes_cpu_s += time.process_time() - cpu
        self.stats.n_exec_checks += len(wave)
        self.stats.n_exec_batches += 1
        self.stats.n_batched_checks += len(wave)
        self.fold_batch_report(report)
        if self.config.verify_parallel:
            # audit the engine's bit-identity claim: the serial loop must
            # return exactly these verdicts in exactly this order
            serial = check_executes_batch(
                wave,
                data_dir=self.data_dir,
                sample_rows=self.config.sample_rows,
                workers=1,
                timeout_s=self.config.exec_timeout_s,
                dialect=self.config.dialect,
            )
            if serial != verdicts:
                from ..sandbox.shards import ParallelMismatchError

                raise ParallelMismatchError(
                    f"verify_parallel: sharded verdicts {verdicts!r} != "
                    f"serial verdicts {serial!r}"
                )
        for source, ok in zip(wave, verdicts):
            self._exec_cache[source] = ok

    def fold_batch_report(self, report: BatchReport) -> None:
        """Add one shard wave's fault and shipping counts to the stats."""
        self._direct_timeouts += report.timeouts
        self.stats.n_worker_respawns += report.respawns
        self.stats.n_degraded_waves += report.degraded
        self.stats.n_shard_hits += report.shard_hits
        self.stats.n_shard_migrations += report.shard_migrations
        self.stats.bytes_shipped += report.bytes_shipped

    def get_top_k_beams(
        self,
        beams: List[Candidate],
        candidate: Candidate,
        ranked: Sequence[Tuple[Transformation, float]],
        k: int,
    ) -> List[Candidate]:
        """Algorithm 2: extend *candidate* by each ranked transformation,
        admitting a new script when it beats the current worst beam (or the
        beam set is not yet full), after the optional early execution check.

        The beam set never exceeds ``beam_size``: when full, a newcomer
        either replaces the evicted worst member or — if it *is* the worst
        — goes straight to the archive without entering the beam set.

        The beam set is kept sorted by the eviction key throughout, so
        each admission decision reads the worst member in O(1) and each
        insertion costs O(log K) comparisons (``insort``) instead of the
        former per-candidate ``sort`` + ``max`` scan.  The stable upfront
        sort preserves the legacy order among key-ties (both paths keep
        equal-key members in insertion order), so admissions and
        evictions are unchanged.
        """
        start = time.perf_counter()
        beams = sorted(beams, key=self._beam_key)
        sources = {b.source() for b in beams}
        if (
            self.config.early_check
            and self.config.parallel_workers > 1
            and self._exec_checker is None
        ):
            self.stats.get_top_k_s += time.perf_counter() - start
            self._prefetch_exec_checks(candidate, ranked, sources)
            start = time.perf_counter()
        admitted = 0
        for transformation, score in ranked:
            if admitted >= k:
                break
            # the tail of the kept-sorted beam set maximizes (band,
            # frontier, score); band is monotone in score, so its band
            # equals the band of the former max-score scan
            if beams and not (
                self._band(score) <= self._band(beams[-1].score)
                or len(beams) < self.config.beam_size
            ):
                continue
            extended = self._extend(candidate, transformation, score)
            source = extended.source()
            if source in sources:
                continue
            if self.config.early_check:
                # pause the top-k clock while the sandbox runs
                self.stats.get_top_k_s += time.perf_counter() - start
                valid = self.check_if_executes(source)
                start = time.perf_counter()
                if not valid:
                    continue
            self._archive.setdefault(source, extended)
            admitted += 1
            if len(beams) >= self.config.beam_size:
                if self._beam_key(extended) >= self._beam_key(beams[-1]):
                    continue  # would be evicted immediately; archive only
                dropped = beams.pop()
                sources.discard(dropped.source())
            insort(beams, extended, key=self._beam_key)
            sources.add(source)
            self._derive_child_state(candidate, transformation, extended)
            self.stats.max_beam_width = max(self.stats.max_beam_width, len(beams))
        self.stats.get_top_k_s += time.perf_counter() - start
        return beams

    def _beam_key(self, candidate: Candidate):
        """Eviction/order key: banded score, then the lower frontier wins."""
        return (self._band(candidate.score), candidate.frontier, candidate.score)

    def get_diverse_top_k_beams(
        self,
        beams: List[Candidate],
        candidate: Candidate,
        ranked: Sequence[Tuple[Transformation, float]],
    ) -> List[Candidate]:
        """Algorithm 3: iterate clusters, drawing K/M beams from each."""
        transformations = [t for t, _ in ranked]
        score_by_transformation = {t: s for t, s in ranked}
        clusters = cluster_transformations(
            transformations, self.config.clusters, random_state=self.config.random_state
        )
        per_cluster = max(1, self.config.beam_size // max(len(clusters), 1))
        for cluster in clusters:
            cluster_ranked = [(t, score_by_transformation[t]) for t in cluster]
            beams = self.get_top_k_beams(beams, candidate, cluster_ranked, per_cluster)
        return beams

    def sync_cache_stats(self) -> None:
        """Fold cache/executor counters into :attr:`stats`.

        Incremental executors may be shared across searches (the
        standardizer reuses one so constraint verification resumes from
        prefixes the beam search already snapshotted), so prefix counters
        report the delta since this search started.
        """
        stats = self.stats
        stats.exec_cache_size = len(self._exec_cache)
        stats.exec_cache_hit_rate = self._exec_cache.hit_rate
        stats.statement_cache_size = len(self._statement_cache)
        stats.statement_cache_hit_rate = self._statement_cache.hit_rate
        stats.n_exec_timeouts = self._direct_timeouts
        if self._executor is None:
            return
        current = self._executor.stats.as_dict()
        base = self._executor_baseline
        hits = current["prefix_hits"] - base.get("prefix_hits", 0.0)
        misses = current["prefix_misses"] - base.get("prefix_misses", 0.0)
        resumed = current["resumed_statements"] - base.get("resumed_statements", 0.0)
        stats.prefix_cache_hits = int(hits)
        stats.prefix_cache_misses = int(misses)
        stats.prefix_mean_resume_depth = resumed / hits if hits else 0.0
        stats.prefix_fallbacks = int(
            current["fallbacks"] - base.get("fallbacks", 0.0)
        )
        stats.n_exec_timeouts = self._direct_timeouts + int(
            current["timeouts"] - base.get("timeouts", 0.0)
        )

    # ----------------------------------------------------------------- search
    def search(self, statements: Sequence[Statement]) -> List[Candidate]:
        """Run the beam search and return candidates sorted by RE score.

        Besides the final beams, the result includes an *archive* of every
        candidate admitted to a beam at any iteration (capped at
        ``ARCHIVE_LIMIT`` best by score).  Constraint verification walks
        this list in score order, so when the most standard candidates
        violate a strict user-intent threshold, milder intermediate
        candidates are still available instead of falling straight back to
        the original.  The unmodified script is always a member.
        """
        initial = Candidate(
            statements=tuple(statements),
            applied=(),
            frontier=0,
            score=self.scorer.score_statements(list(statements)),
        )
        self._archive = {initial.source(): initial}
        beams = [initial]
        self.stats.max_beam_width = max(self.stats.max_beam_width, len(beams))
        for _ in range(self.config.seq):
            self.stats.n_iterations += 1
            frontier_beams = list(beams)
            for candidate in beams:
                ranked = self.get_steps(candidate)
                if not ranked:
                    continue
                if self.config.diversity:
                    frontier_beams = self.get_diverse_top_k_beams(
                        frontier_beams, candidate, ranked
                    )
                else:
                    frontier_beams = self.get_top_k_beams(
                        frontier_beams, candidate, ranked, self.config.beam_size
                    )
            frontier_beams.sort(key=self._beam_key)
            frontier_beams = frontier_beams[: max(self.config.beam_size, 1)]
            if [b.source() for b in frontier_beams] == [b.source() for b in beams]:
                break  # converged: no transformation improved any beam
            beams = frontier_beams

        candidates = sorted(self._archive.values(), key=lambda b: b.score)
        candidates = candidates[: self.ARCHIVE_LIMIT]
        if all(c.source() != initial.source() for c in candidates):
            candidates.append(initial)  # the guaranteed fallback
        self.sync_cache_stats()
        return candidates
