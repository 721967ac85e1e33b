"""Bit-identity of the O(Δ) incremental scoring engine.

GetSteps scores every proposal with the delta engine, which must match
the full-recount oracle *bit for bit* (not approximately): the
sufficient statistics evolve exactly, and a whole beam search returns the
same candidates with the same scores whether or not ``verify_scoring``
checks each delta score against the recount.
"""

import random

import pytest

from repro.core import BeamSearch, LSConfig, RelativeEntropyScorer
from repro.core.beam import ScoringMismatchError
from repro.core.entropy import REStats
from repro.lang import CorpusVocabulary, EdgeState, parse_script
from repro.lang.parser import Statement, compute_edge_counts

STEP_POOL = [
    "df = df.fillna(df.mean())",
    "df = df.fillna(df.median())",
    "df = df.dropna()",
    "df = df[df['x'] < 80]",
    "df = pd.get_dummies(df)",
    "df['y'] = df['x'] * 2",
    "df = df.drop('z', axis=1)",
    "df = df.sort_values('x')",
    "s = df['x'].sum()",
    "df2 = df.copy()",
    "df = df2.rename(columns={'a': 'b'})",
]


def build_script(body):
    return "\n".join(["import pandas as pd", "df = pd.read_csv('t.csv')"] + body)


@pytest.fixture()
def scorer():
    rng = random.Random(99)
    corpus = [
        build_script([rng.choice(STEP_POOL) for _ in range(rng.randint(2, 6))])
        for _ in range(8)
    ]
    return RelativeEntropyScorer(CorpusVocabulary.from_scripts(corpus))


# ------------------------------------------------------------- stats layer
def test_stats_roundtrip_scores_like_score_edge_counts(scorer):
    statements = parse_script(build_script(STEP_POOL[:5])).statements
    counts = compute_edge_counts(statements)
    stats = scorer.stats_from_counts(counts)
    assert scorer.score_stats(stats) == scorer.score_edge_counts(counts)


def test_score_delta_bit_identical_over_random_walk(scorer):
    """Delta scores equal from-scratch scores exactly, including the
    ε-floor for edges the corpus never saw, over hundreds of splices."""
    for seed in range(6):
        rng = random.Random(seed)
        state = EdgeState.from_statements(
            parse_script(build_script(rng.sample(STEP_POOL, 4))).statements
        )
        stats = scorer.stats_from_counts(state.counts)
        for _ in range(150):
            n = len(state)
            if n > 1 and (n >= 14 or rng.random() < 0.5):
                delta = state.delta_delete(rng.randrange(n))
            else:
                delta = state.delta_insert(
                    rng.randrange(n + 1),
                    Statement.from_source(0, rng.choice(STEP_POOL)),
                )
            new_state = state.apply(delta)
            expected_counts = compute_edge_counts(new_state.statements)
            try:
                expected = scorer.score_edge_counts(expected_counts)
            except ValueError:
                with pytest.raises(ValueError):
                    scorer.score_delta(stats, state.counts, delta)
            else:
                got = scorer.score_delta(stats, state.counts, delta)
                assert got == expected  # bit-for-bit, not approx
            stats = scorer.apply_delta(stats, state.counts, delta)
            fresh = scorer.stats_from_counts(expected_counts)
            assert (stats.total, stats.count_hist, stats.q_hist) == (
                fresh.total,
                fresh.count_hist,
                fresh.q_hist,
            )
            state = new_state


def test_score_delta_on_unseen_edges_uses_epsilon_floor(scorer):
    """Inserting a statement whose edges the corpus lacks must hit the
    same ε term the full path uses — exactly."""
    statements = parse_script(
        build_script(["df = df.interpolate().clip(lower=0)"])
    ).statements
    state = EdgeState.from_statements(statements)
    stats = scorer.stats_from_counts(state.counts)
    novel = Statement.from_source(0, "df = df.interpolate().clip(lower=0)")
    delta = state.delta_insert(len(state), novel)
    expected = scorer.score_edge_counts(
        compute_edge_counts(state.apply(delta).statements)
    )
    assert scorer.score_delta(stats, state.counts, delta) == expected


def test_delete_to_no_edges_raises_value_error_like_full_path(scorer):
    statements = parse_script("x = 1\ny = x + 1").statements
    state = EdgeState.from_statements(statements)
    stats = scorer.stats_from_counts(state.counts)
    delta = state.delta_delete(1)  # drop the only edge-bearing statement
    remaining = compute_edge_counts(state.apply(delta).statements)
    with pytest.raises(ValueError):
        scorer.score_edge_counts(remaining)
    with pytest.raises(ValueError):
        scorer.score_delta(stats, state.counts, delta)


def test_negative_delta_beyond_base_counts_raises(scorer):
    stats = REStats(total=1, count_hist={1: 1}, q_hist={-1.0: 1})
    from repro.lang.parser import EdgeDelta

    bogus = EdgeDelta("delete", 0, None, {("a", "b"): -2})
    with pytest.raises(ValueError):
        scorer.score_delta(stats, {("a", "b"): 1}, bogus)


# ------------------------------------------------------------- beam search
def _run_search(corpus, user_script, **config_kwargs):
    vocab = CorpusVocabulary.from_scripts(corpus)
    scorer = RelativeEntropyScorer(vocab)
    config = LSConfig(seq=4, beam_size=3, **config_kwargs)
    search = BeamSearch(vocab, scorer, config, exec_checker=lambda s: True)
    statements = list(parse_script(user_script).statements)
    result = search.search(statements)
    search.sync_cache_stats()
    return [(c.source(), c.score) for c in result], search.stats


@pytest.fixture()
def workload():
    rng = random.Random(3)
    corpus = [
        build_script([rng.choice(STEP_POOL) for _ in range(rng.randint(2, 6))])
        for _ in range(10)
    ]
    user = build_script([rng.choice(STEP_POOL) for _ in range(12)])
    return corpus, user


def test_search_results_identical_with_flag_on_and_off(workload):
    """``verify_scoring`` on raises unless every delta score equals the
    full recount, so equal results prove the oracle agrees throughout."""
    corpus, user = workload
    plain, stats = _run_search(corpus, user)
    audited, audited_stats = _run_search(corpus, user, verify_scoring=True)
    assert plain == audited  # same candidates, same order, bit-identical scores
    assert stats.n_delta_scores > 0
    assert audited_stats.n_delta_scores == stats.n_delta_scores
    # the root is the only mandatory full recount on the incremental path
    assert stats.n_full_recounts >= 1


def test_verify_scoring_mode_runs_clean_and_reports_speedup(workload):
    """The cross-check mode recomputes everything twice and must never
    trip its own mismatch alarm on a healthy engine."""
    corpus, user = workload
    verified, stats = _run_search(corpus, user, verify_scoring=True)
    plain, _ = _run_search(corpus, user)
    assert verified == plain


def test_verify_scoring_detects_a_corrupted_delta(workload):
    corpus, user = workload
    vocab = CorpusVocabulary.from_scripts(corpus)
    scorer = RelativeEntropyScorer(vocab)
    config = LSConfig(seq=2, beam_size=1, verify_scoring=True)
    search = BeamSearch(vocab, scorer, config, exec_checker=lambda s: True)
    original = scorer.score_delta
    scorer.score_delta = lambda *a, **k: original(*a, **k) + 1e-9  # corrupt
    with pytest.raises(ScoringMismatchError):
        search.search(list(parse_script(user).statements))
