"""Tests for the experiment harness (leave-one-out drivers, user study,
reporting)."""

import pytest

from repro.baselines import SyntaxCleaner, gpt35, gpt4
from repro.core import LSConfig, percent_improvement
from repro.core.entropy import RelativeEntropyScorer
from repro.harness import (
    ImprovementStats,
    evaluate_baseline,
    evaluate_lucidscript,
    make_intent,
    render_histogram,
    render_series,
    render_table,
    run_user_study,
    significance_against,
    step_prevalence_matrix,
)
from repro.harness import reporting, user_study
from repro.harness.user_study import RaterPanel
from repro.lang import CorpusVocabulary, ScriptError, parse_script


class TestImprovementStats:
    def test_summary_fields(self):
        stats = ImprovementStats.from_values([0.0, 10.0, 20.0, 50.0])
        assert stats.minimum == 0.0
        assert stats.maximum == 50.0
        assert stats.median == 15.0
        assert stats.mean == 20.0
        assert stats.n == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ImprovementStats.from_values([])

    def test_row_rounding(self):
        row = ImprovementStats.from_values([33.333]).row()
        assert row["median"] == 33.3


class TestEvaluateLucidScript:
    def test_leave_one_out_run(self, medical_competition):
        run = evaluate_lucidscript(
            medical_competition,
            intent_kind="jaccard",
            config=LSConfig(seq=4, beam_size=1, sample_rows=120),
            max_scripts=3,
        )
        assert len(run.improvements) == 3
        assert all(v >= 0.0 for v in run.improvements)
        assert run.method == "LS (jaccard)"

    def test_model_intent_run(self, medical_competition):
        run = evaluate_lucidscript(
            medical_competition,
            intent_kind="model",
            tau=2.0,
            config=LSConfig(seq=3, beam_size=1, sample_rows=120),
            max_scripts=2,
        )
        assert len(run.improvements) == 2
        assert all(v >= 0.0 for v in run.improvements)

    def test_corpus_override(self, medical_competition, titanic_competition):
        run = evaluate_lucidscript(
            medical_competition,
            intent_kind="jaccard",
            config=LSConfig(seq=3, beam_size=1, sample_rows=120),
            max_scripts=2,
            corpus_override=titanic_competition.scripts,
        )
        assert len(run.improvements) == 2

    def test_breakdowns_recorded(self, medical_competition):
        run = evaluate_lucidscript(
            medical_competition,
            config=LSConfig(seq=3, beam_size=1, sample_rows=120),
            max_scripts=2,
        )
        breakdown = run.median_breakdown()
        assert "GetSteps" in breakdown
        assert all(v >= 0 for v in breakdown.values())

    def test_unknown_intent_kind(self, medical_competition):
        with pytest.raises(ValueError):
            make_intent("bogus", medical_competition)

    def test_make_intent_defaults(self, medical_competition):
        jaccard = make_intent("jaccard", medical_competition)
        assert jaccard.tau == 0.9
        model = make_intent("model", medical_competition)
        assert model.tau == 1.0
        assert model.target == "Outcome"


class TestEvaluateBaseline:
    def test_sourcery_is_all_zero(self, medical_competition):
        run = evaluate_baseline(SyntaxCleaner(), medical_competition, max_scripts=4)
        assert run.stats().minimum == 0.0
        assert run.stats().maximum == 0.0

    def test_gpt_has_variance(self, medical_competition):
        run = evaluate_baseline(gpt4(seed=0), medical_competition, max_scripts=10)
        assert run.stats().minimum <= run.stats().maximum
        assert len(run.output_scripts) == 10


class TestUserStudy:
    def test_panel_rates_in_range(self):
        panel = RaterPanel(seed=0)
        ratings = panel.rate(0.7)
        assert len(ratings) == 34
        assert all(1.0 <= r <= 5.0 for r in ratings)

    def test_panel_monotone_in_quality(self):
        low = sum(RaterPanel(seed=0).rate(0.1)) / 34
        high = sum(RaterPanel(seed=0).rate(0.9)) / 34
        assert high > low

    def test_panel_needs_two_raters(self):
        with pytest.raises(ValueError):
            RaterPanel(n_raters=1)

    def test_study_prefers_corpus_aligned_script(self, diabetes_corpus):
        outputs = {
            "LS": diabetes_corpus[0],
            "GPT-4": "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.dropna()\ndf = df.reset_index(drop=True)",
        }
        outcomes = run_user_study(outputs, diabetes_corpus, seed=0)
        assert outcomes["LS"].mean_standard > outcomes["GPT-4"].mean_standard

    def test_significance_returns_pvalues(self, diabetes_corpus):
        outputs = {
            "LS": diabetes_corpus[0],
            "Sourcery": "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\nx = 1\ny = 2\nz = 3",
        }
        outcomes = run_user_study(outputs, diabetes_corpus, seed=0)
        pvalues = significance_against(outcomes, ls_method="LS")
        assert set(pvalues) == {"Sourcery"}
        assert 0.0 <= pvalues["Sourcery"] <= 1.0

    def test_study_requires_ls(self, diabetes_corpus):
        with pytest.raises(KeyError):
            run_user_study({"GPT-4": "x = 1"}, diabetes_corpus)

    def test_intent_blend_changes_helpfulness(self, diabetes_corpus):
        outputs = {"LS": diabetes_corpus[0], "Other": diabetes_corpus[1]}
        cold = run_user_study(outputs, diabetes_corpus, seed=0)
        with_intent = run_user_study(
            outputs,
            diabetes_corpus,
            intent_preservation={"LS": 1.0, "Other": 0.0},
            seed=0,
        )
        assert (
            with_intent["Other"].mean_helpful < cold["Other"].mean_helpful + 1e-9
        )


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_histogram_counts(self):
        out = render_histogram([1, 1, 2, 9], bins=[0, 5, 10], title="H")
        assert "3" in out and "1" in out

    def test_render_series(self):
        out = render_series([(2, 10.0), (4, 20.0)], "seq", "improvement")
        assert "seq" in out and "20.0" in out


class TestPrevalenceMatrix:
    def test_table1_style_matrix(self, diabetes_corpus, alex_script):
        out = step_prevalence_matrix(diabetes_corpus, user_script=alex_script)
        lines = out.splitlines()
        assert "s_u" in lines[0] and "s_3" in lines[0]
        # the majority step is checked in all three corpus columns
        fillna_row = next(l for l in lines if "fillna(df.mean())" in l)
        assert fillna_row.count("x") == 3
        # the user's median imputation appears only in the s_u column
        median_row = next(l for l in lines if "fillna(df.median())" in l)
        assert median_row.count("x") == 1

    def test_matrix_without_user_script(self, diabetes_corpus):
        out = step_prevalence_matrix(diabetes_corpus)
        assert "s_u" not in out.splitlines()[0]

    def test_max_steps_cap(self, diabetes_corpus):
        out = step_prevalence_matrix(diabetes_corpus, max_steps=2)
        # header + separator + 2 step rows
        assert len(out.splitlines()) == 4


class _OracleIndex:
    """Stands in for ``cached_index``: the cold from-scratch build."""

    def __init__(self, scripts):
        self.scripts = list(scripts)

    def to_vocabulary(self):
        return CorpusVocabulary.from_scripts(self.scripts)


def _oracle_baseline_run(baseline, corpus, max_scripts):
    """evaluate_baseline's protocol over a cold from_scripts vocabulary."""
    improvements, outputs = [], []
    for user_script, rest in list(corpus.leave_one_out())[:max_scripts]:
        scorer = RelativeEntropyScorer(CorpusVocabulary.from_scripts(rest))
        output = baseline.rewrite(user_script, rest)
        outputs.append(output)
        try:
            re_before = scorer.score_dag(parse_script(user_script))
            re_after = scorer.score_dag(parse_script(output))
        except ScriptError:
            improvements.append(0.0)
            continue
        improvements.append(percent_improvement(re_before, re_after))
    return improvements, outputs


class TestCorpusEnginePath:
    """The harness curates every corpus through the corpus engine, and
    what it computes equals the cold ``from_scripts`` oracle bit for bit."""

    @pytest.mark.parametrize("factory", [gpt35, gpt4])
    def test_baseline_matches_from_scripts_oracle(self, factory, medical_competition):
        run = evaluate_baseline(factory(seed=0), medical_competition, max_scripts=5)
        improvements, outputs = _oracle_baseline_run(
            factory(seed=0), medical_competition, max_scripts=5
        )
        assert run.output_scripts == outputs
        assert run.improvements == improvements

    def test_user_study_matches_from_scripts_oracle(
        self, diabetes_corpus, alex_script, monkeypatch
    ):
        outputs = {"LS": diabetes_corpus[0], "Other": alex_script}
        engine = run_user_study(outputs, diabetes_corpus, seed=0)
        monkeypatch.setattr(user_study, "cached_index", _OracleIndex)
        oracle = run_user_study(outputs, diabetes_corpus, seed=0)
        assert engine == oracle

    def test_prevalence_matrix_matches_from_scripts_oracle(
        self, diabetes_corpus, alex_script, monkeypatch
    ):
        engine = step_prevalence_matrix(diabetes_corpus, user_script=alex_script)
        monkeypatch.setattr(reporting, "cached_index", _OracleIndex)
        oracle = step_prevalence_matrix(diabetes_corpus, user_script=alex_script)
        assert engine == oracle

    def test_harness_never_builds_a_cold_vocabulary(
        self, medical_competition, diabetes_corpus, monkeypatch
    ):
        def cold_build(cls, scripts, dialect=None):
            raise AssertionError("the harness built a cold vocabulary")

        monkeypatch.setattr(CorpusVocabulary, "from_scripts", classmethod(cold_build))
        run = evaluate_baseline(gpt4(seed=0), medical_competition, max_scripts=2)
        assert len(run.improvements) == 2
        outcomes = run_user_study({"LS": diabetes_corpus[0]}, diabetes_corpus)
        assert set(outcomes) == {"LS"}
        assert "s_3" in step_prevalence_matrix(diabetes_corpus).splitlines()[0]
