"""Figure 3 — user study (simulated rater panel).

34 simulated raters score each method's output for one Medical use case
on standardness and helpfulness (1-5), with and without user intent; LS
must rank first on both, significantly (t-test, p < 0.05) in the
without-intent case — the paper's reported outcome.

The raters are simulated (see DESIGN.md substitution #7); this benchmark
validates the rating pipeline, not human judgment.
"""

from repro.baselines import AutoTables, SyntaxCleaner, gpt35, gpt4
from repro.core import LucidScript, TableJaccardIntent, table_jaccard
from repro.harness import render_table, run_user_study, significance_against
from repro.harness.user_study import RaterPanel
from repro.sandbox import run_script

from _shared import bench_config, competition, publish


def _outputs_for_case(corpus, user_script, rest):
    system = LucidScript(
        rest, data_dir=corpus.data_dir,
        intent=TableJaccardIntent(tau=0.9), config=bench_config(),
    )
    outputs = {"LS": system.standardize(user_script).output_script}
    for baseline in (
        SyntaxCleaner(), gpt35(seed=0), gpt4(seed=0),
        AutoTables(data_dir=corpus.data_dir),
    ):
        outputs[baseline.name] = baseline.rewrite(user_script, rest)
    return outputs


def _preservation(corpus, user_script, outputs):
    base = run_script(user_script, data_dir=corpus.data_dir, sample_rows=300).output
    scores = {}
    for method, script in outputs.items():
        result = run_script(script, data_dir=corpus.data_dir, sample_rows=300)
        if not result.ok or result.output is None:
            scores[method] = 0.0
        else:
            scores[method] = table_jaccard(base, result.output)
    return scores


def _most_nonstandard_case(corpus):
    """The study shows a use case with room to standardize: pick the
    leave-one-out script with the highest RE against its peers."""
    best = None
    for user_script, rest in corpus.leave_one_out():
        score = LucidScript(rest).score(user_script)
        if best is None or score > best[0]:
            best = (score, user_script, rest)
    return best[1], best[2]


def test_fig3_user_study(benchmark):
    corpus = competition("medical")
    user_script, rest = _most_nonstandard_case(corpus)
    outputs = _outputs_for_case(corpus, user_script, rest)

    # without-user-intent (cold start) case
    cold = run_user_study(outputs, rest, seed=0)
    # with-user-intent case: helpfulness blends intent preservation
    preservation = _preservation(corpus, user_script, outputs)
    warm = run_user_study(
        outputs, rest, intent_preservation=preservation, seed=1
    )

    rows = []
    for method in sorted(outputs):
        rows.append(
            [
                method,
                f"{cold[method].mean_standard:.2f}",
                f"{cold[method].mean_helpful:.2f}",
                f"{warm[method].mean_standard:.2f}",
                f"{warm[method].mean_helpful:.2f}",
            ]
        )
    pvalues = significance_against(cold, ls_method="LS")
    publish(
        "fig3_user_study",
        render_table(
            ["method", "standard (cold)", "helpful (cold)",
             "standard (intent)", "helpful (intent)"],
            rows,
            title="Figure 3: simulated user study, mean ratings (1-5)",
        )
        + "\np-values (standardness, LS vs baseline): "
        + ", ".join(f"{m}={p:.2g}" for m, p in sorted(pvalues.items())),
    )

    # LS rated most standard and most helpful in both cases
    for outcomes in (cold, warm):
        ls = outcomes["LS"]
        for method, outcome in outcomes.items():
            if method == "LS":
                continue
            assert ls.mean_standard >= outcome.mean_standard - 1e-9
            assert ls.mean_helpful >= outcome.mean_helpful - 1e-9
    # statistical significance vs every baseline in the cold-start case
    assert all(p < 0.05 for p in pvalues.values())

    benchmark.pedantic(
        lambda: RaterPanel(seed=0).rate(0.8), rounds=10, iterations=1
    )
