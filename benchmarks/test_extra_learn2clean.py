"""Extra experiment (beyond the paper) — Learn2Clean vs. LucidScript.

The paper's related work positions Learn2Clean as the closest multi-step
system, solving "a different problem": it reinforcement-learns the
pipeline that maximizes downstream model performance, with no corpus and
no user intent.  This benchmark runs both systems on the same Medical
user scripts and measures both objectives:

* standardness (% RE improvement against the corpus) — LucidScript's
  objective, where Learn2Clean has no advantage;
* downstream accuracy of the emitted dataset — Learn2Clean's objective,
  which it must not degrade.
"""

import numpy as np

from repro.baselines import Learn2Clean
from repro.core import LucidScript, TableJaccardIntent, percent_improvement
from repro.harness import render_table
from repro.lang import ScriptError
from repro.ml import DownstreamEvaluationError, evaluate_downstream
from repro.sandbox import run_script

from _shared import bench_config, competition, publish

N_SCRIPTS = 4


def _accuracy_of(script: str, corpus) -> float:
    result = run_script(script, data_dir=corpus.data_dir, sample_rows=400)
    if not result.ok or result.output is None:
        return 0.0
    try:
        return evaluate_downstream(
            result.output, corpus.target, task=corpus.task
        ).accuracy
    except DownstreamEvaluationError:
        return 0.0


def test_extra_learn2clean_objectives(benchmark):
    corpus = competition("medical")
    ls_re, l2c_re = [], []
    input_acc, ls_acc, l2c_acc = [], [], []

    for user_script, rest in list(corpus.leave_one_out())[:N_SCRIPTS]:
        system = LucidScript(
            rest, data_dir=corpus.data_dir,
            intent=TableJaccardIntent(tau=0.9), config=bench_config(),
        )
        re_before = system.score(user_script)
        ls_result = system.standardize(user_script)
        ls_re.append(ls_result.improvement)
        ls_acc.append(_accuracy_of(ls_result.output_script, corpus))

        cleaner = Learn2Clean(
            data_dir=corpus.data_dir, target=corpus.target, task=corpus.task,
            n_episodes=10,
        )
        rewritten = cleaner.rewrite(user_script, rest)
        try:
            re_after = system.score(rewritten)
            l2c_re.append(percent_improvement(re_before, re_after))
        except ScriptError:
            l2c_re.append(0.0)
        l2c_acc.append(_accuracy_of(rewritten, corpus))

        input_acc.append(_accuracy_of(user_script, corpus))

    rows = [
        ["LucidScript", f"{np.mean(ls_re):.1f}%", f"{np.mean(ls_acc):.3f}"],
        ["Learn2Clean", f"{np.mean(l2c_re):.1f}%", f"{np.mean(l2c_acc):.3f}"],
        ["(input scripts)", "0.0%", f"{np.mean(input_acc):.3f}"],
    ]
    publish(
        "extra_learn2clean",
        render_table(
            ["system", "mean RE improvement", "mean downstream accuracy"],
            rows,
            title="Extra: accuracy-seeking (Learn2Clean) vs standardness-"
                  "seeking (LS) on Medical",
        ),
    )

    # different objectives, different winners:
    # LS dominates on standardness...
    assert np.mean(ls_re) > np.mean(l2c_re)
    # ...while neither system wrecks the downstream task
    assert np.mean(l2c_acc) >= np.mean(input_acc) - 0.05
    assert np.mean(ls_acc) >= np.mean(input_acc) - 0.05

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
