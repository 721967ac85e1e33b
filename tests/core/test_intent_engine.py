"""Property tests for the content-addressed incremental intent engine.

The contract under test is exactness: every delta the prepared engine
returns must be bit-identical (``==`` on floats, not approx) to the naive
pairwise recomputation, across all three Jaccard modes and arbitrary
candidate perturbations, and the ``verify_intent`` audit must stay silent
over a full search.
"""

import random

import pytest

from repro.core import (
    LSConfig,
    LucidScript,
    ModelPerformanceIntent,
    TableJaccardIntent,
)
from repro.core.intent import (
    IntentMismatchError,
    IntentStats,
    PreparedIntent,
    PreparedTableJaccard,
    table_fingerprint,
    table_jaccard,
)
from repro.minipandas import NA, DataFrame

MODES = ("cells", "values", "rows")


# ---------------------------------------------------------------- generators
def random_frame(rng, n_rows=None, n_cols=None, na_rate=0.2):
    """A mixed-type frame: ints, floats, strings, NA, and the literal
    string "__NA__" (which the sentinel normalization must survive)."""
    n_rows = rng.randrange(0, 9) if n_rows is None else n_rows
    n_cols = rng.randrange(1, 6) if n_cols is None else n_cols
    pools = [
        lambda: rng.randrange(0, 5),
        lambda: rng.choice([0.5, 1.25, -3.0]),
        lambda: rng.choice(["x", "y", "__NA__", ""]),
        lambda: rng.choice([True, False]),
    ]
    data = {}
    for c in range(n_cols):
        pool = rng.choice(pools)
        data[f"c{c}"] = [
            NA if rng.random() < na_rate else pool() for _ in range(n_rows)
        ]
    return DataFrame(data)


def perturb(rng, frame):
    """One random candidate: identical copy, renamed / dropped / added
    column, mutated cells, dropped or duplicated rows, or empty table."""
    kind = rng.randrange(0, 8)
    columns = list(frame.columns)
    if kind == 0 or not columns:
        return frame.copy()
    if kind == 1:
        return DataFrame()
    data = {name: frame[name].tolist() for name in columns}
    if kind == 2:  # rename one column
        old = rng.choice(columns)
        data[f"renamed_{old}"] = data.pop(old)
    elif kind == 3:  # drop one column
        data.pop(rng.choice(columns))
    elif kind == 4:  # add a fresh column
        data["extra"] = [rng.randrange(0, 3) for _ in range(len(frame))]
    elif kind == 5:  # mutate a few cells
        name = rng.choice(columns)
        values = list(data[name])
        for _ in range(rng.randrange(1, 3)):
            if values:
                values[rng.randrange(len(values))] = rng.choice(
                    [NA, "mut", 99, "__NA__"]
                )
        data[name] = values
    elif kind == 6 and len(frame) > 1:  # drop rows
        keep = rng.randrange(1, len(frame))
        data = {name: values[:keep] for name, values in data.items()}
    elif kind == 7 and len(frame) > 0:  # duplicate rows
        data = {name: values + values[:1] for name, values in data.items()}
    return DataFrame(data)


# -------------------------------------------------------------- bit-identity
class TestTableJaccardBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_candidates_match_naive(self, mode, seed):
        rng = random.Random(1000 * seed + len(mode))
        original = random_frame(rng)
        prepared = TableJaccardIntent(tau=0.5, mode=mode).prepare(original)
        for _ in range(30):
            candidate = perturb(rng, original)
            got = prepared.delta(candidate)
            want = table_jaccard(original, candidate, mode=mode)
            assert got == want

    @pytest.mark.parametrize("mode", MODES)
    def test_na_heavy_frames(self, mode):
        rng = random.Random(7)
        original = random_frame(rng, n_rows=12, n_cols=4, na_rate=0.8)
        prepared = TableJaccardIntent(mode=mode).prepare(original)
        for _ in range(10):
            candidate = perturb(rng, original)
            assert prepared.delta(candidate) == table_jaccard(
                original, candidate, mode=mode
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_tables(self, mode):
        empty = DataFrame()
        prepared = TableJaccardIntent(mode=mode).prepare(empty)
        assert prepared.delta(DataFrame()) == 1.0
        full = DataFrame({"a": [1, 2]})
        assert prepared.delta(full) == table_jaccard(empty, full, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_row_columns(self, mode):
        original = DataFrame({"a": [], "b": []})
        prepared = TableJaccardIntent(mode=mode).prepare(original)
        for candidate in (DataFrame({"a": [], "b": []}), DataFrame({"a": [1]}),
                          DataFrame()):
            assert prepared.delta(candidate) == table_jaccard(
                original, candidate, mode=mode
            )

    def test_renamed_column_distinguished_in_cells_mode(self):
        original = DataFrame({"a": [1, 2]})
        renamed = DataFrame({"b": [1, 2]})
        prepared = TableJaccardIntent(mode="cells").prepare(original)
        assert prepared.delta(renamed) == 0.0
        # values mode ignores the rename
        assert TableJaccardIntent(mode="values").prepare(original).delta(
            renamed
        ) == 1.0

    def test_check_matches_naive_check(self):
        original = DataFrame({"a": [1, 2, 3]})
        candidate = DataFrame({"a": [1, 2, 9]})
        intent = TableJaccardIntent(tau=0.5, mode="cells")
        assert intent.prepare(original).check(candidate) == intent.check(
            original, candidate
        )


# ------------------------------------------------------------------ counters
class TestCounters:
    def test_short_circuit_on_identical_content(self):
        original = DataFrame({"a": [1, NA], "b": ["x", "y"]})
        counters = IntentStats()
        prepared = TableJaccardIntent(mode="cells").prepare(
            original, counters=counters
        )
        assert prepared.delta(original.copy()) == 1.0
        assert counters.short_circuits == 1
        assert counters.checks == 1

    def test_column_set_reuse_on_unchanged_columns(self):
        original = DataFrame({"a": [1, 2], "b": [3, 4], "c": [5, 6]})
        candidate = DataFrame({"a": [1, 2], "b": [3, 4], "c": [9, 9]})
        counters = IntentStats()
        prepared = TableJaccardIntent(mode="cells").prepare(
            original, counters=counters
        )
        prepared.delta(candidate)
        # columns a and b answered straight from the original's memo
        assert counters.column_set_reuse >= 2

    def test_memo_shared_across_candidate_wave(self):
        original = DataFrame({"a": [1, 2], "b": [3, 4]})
        counters = IntentStats()
        prepared = TableJaccardIntent(mode="values").prepare(
            original, counters=counters
        )
        novel = DataFrame({"a": [7, 8], "b": [3, 4]})
        prepared.delta(novel)
        first = counters.column_set_reuse
        # a repeat of the novel candidate answers every column from the memo
        prepared.delta(novel.copy())
        assert counters.column_set_reuse >= first + 2
        prepared.delta(DataFrame({"a": [7, 8], "b": [9, 9]}))
        # the mutated-a content was memoized by the first novel candidate
        assert counters.column_set_reuse >= first + 3
        # the whole-table short-circuit is reserved for the original's content
        assert counters.short_circuits == 0
        prepared.delta(original.copy())
        assert counters.short_circuits == 1


# --------------------------------------------------------------- verify mode
class TestVerifyMode:
    @pytest.mark.parametrize("mode", MODES)
    def test_audit_stays_silent_on_random_waves(self, mode):
        rng = random.Random(42)
        original = random_frame(rng, n_rows=6, n_cols=4)
        counters = IntentStats()
        prepared = TableJaccardIntent(mode=mode).prepare(
            original, counters=counters, verify=True
        )
        for _ in range(20):
            prepared.delta(perturb(rng, original))
        assert counters.checks == 20

    def test_divergence_raises(self, monkeypatch):
        original = DataFrame({"a": [1, 2]})
        prepared = TableJaccardIntent(mode="cells").prepare(
            original, verify=True
        )
        monkeypatch.setattr(
            PreparedTableJaccard, "_prepared_delta", lambda self, c: 0.123
        )
        with pytest.raises(IntentMismatchError):
            prepared.delta(DataFrame({"a": [1, 2]}))

    def test_generic_fallback_delegates_to_naive(self):
        class OddIntent(TableJaccardIntent):
            def prepare(self, original, table_fp=None, counters=None,
                        verify=False):
                return PreparedIntent(self, original, table_fp, counters,
                                      verify)

        original = DataFrame({"a": [1, 2]})
        candidate = DataFrame({"a": [1, 9]})
        prepared = OddIntent(mode="cells").prepare(original, verify=True)
        assert prepared.delta(candidate) == table_jaccard(
            original, candidate, mode="cells"
        )


# --------------------------------------------------------- model performance
def classification_frame(shift=0):
    rows = 24
    return DataFrame({
        "f1": [(i * 7 + shift) % 5 for i in range(rows)],
        "f2": [(i * 3) % 4 + 0.5 for i in range(rows)],
        "label": [i % 2 for i in range(rows)],
    })


class TestModelPerformance:
    def _counting(self, monkeypatch):
        import repro.core.intent as intent_mod

        calls = []
        real = intent_mod.evaluate_downstream

        def counted(frame, target, **kwargs):
            calls.append(table_fingerprint(frame))
            return real(frame, target, **kwargs)

        monkeypatch.setattr(intent_mod, "evaluate_downstream", counted)
        return calls

    def test_delta_caches_original_accuracy(self, monkeypatch):
        calls = self._counting(monkeypatch)
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        original = classification_frame()
        intent.delta(original, classification_frame(shift=1))
        intent.delta(original, classification_frame(shift=2))
        # 1 original training + 2 candidate trainings, not 4
        assert len(calls) == 3
        fp = table_fingerprint(original)
        assert calls.count(fp) == 1

    def test_cache_invalidated_by_different_original(self, monkeypatch):
        calls = self._counting(monkeypatch)
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        intent.delta(classification_frame(), classification_frame(shift=1))
        intent.delta(classification_frame(shift=3), classification_frame(shift=1))
        # two distinct originals: each trained once
        assert len(calls) == 4

    def test_prepared_matches_bare_delta(self):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        original = classification_frame()
        prepared = intent.prepare(original)
        for shift in (0, 1, 2):
            candidate = classification_frame(shift=shift)
            assert prepared.delta(candidate) == intent.bare_delta(
                original, candidate
            )

    def test_prepared_short_circuits_identical_candidate(self, monkeypatch):
        calls = self._counting(monkeypatch)
        counters = IntentStats()
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        original = classification_frame()
        prepared = intent.prepare(original, counters=counters)
        assert prepared.delta(original.copy()) == 0.0
        assert counters.short_circuits == 1
        assert len(calls) == 1  # trained the original only, never the copy

    def test_unusable_candidate_is_worst_case(self):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        prepared = intent.prepare(classification_frame())
        no_target = DataFrame({"f1": [1, 2, 3]})
        assert prepared.delta(no_target) == 100.0


# ------------------------------------------------------------- search parity
class TestSearchParity:
    def _run(self, diabetes_corpus, diabetes_dir, alex_script, **overrides):
        config = LSConfig(seq=4, beam_size=2, sample_rows=150, **overrides)
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=config,
        )
        return system.standardize(alex_script)

    def test_incremental_matches_naive_search(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        # verify_intent raises unless every prepared delta equals the
        # naive measure, so equal results prove the oracle agrees throughout
        prepared = self._run(diabetes_corpus, diabetes_dir, alex_script)
        audited = self._run(
            diabetes_corpus, diabetes_dir, alex_script, verify_intent=True
        )
        assert prepared.output_script == audited.output_script
        assert prepared.intent_delta == audited.intent_delta
        assert prepared.intent_satisfied == audited.intent_satisfied
        assert prepared.re_after == audited.re_after
        assert prepared.stats.n_intent_checks > 0
        assert audited.stats.n_intent_checks == prepared.stats.n_intent_checks

    def test_verify_intent_audits_clean_full_search(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        result = self._run(
            diabetes_corpus,
            diabetes_dir,
            alex_script,
            verify_intent=True,
        )
        assert result.stats.n_intent_checks > 0
        assert "IntentChecks" in result.stats.breakdown()
