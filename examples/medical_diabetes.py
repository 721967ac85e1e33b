"""Standardize scripts against a full synthetic Medical competition.

Builds the Medical (Pima diabetes) workload — dataset plus a
corpus of executable peer scripts — then standardizes one held-out user
script under both user-intent measures the paper supports: table Jaccard
(τ_J) and downstream model performance (τ_M).

Run:  python examples/medical_diabetes.py
"""

import tempfile

from repro import LSConfig, LucidScript, ModelPerformanceIntent, TableJaccardIntent
from repro import build_competition, recommend_parameters
from repro.corpus import cached_index


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        print("building the Medical competition (dataset + script corpus)...")
        competition = build_competition("medical", root, seed=0, n_scripts=20)
        user_script, corpus = next(competition.leave_one_out())

        stats = cached_index(corpus).stats()
        print(f"corpus: {stats.n_scripts} scripts, "
              f"{stats.uniq_onegrams} unique 1-grams, {stats.uniq_edges} unique edges")

        # Table 2: pick (seq, K) from the corpus properties.
        config = recommend_parameters(stats.n_scripts, stats.uniq_edges)
        config.sample_rows = 200
        print(f"Table 2 parameters: seq={config.seq}, K={config.beam_size}\n")

        print("== user script ==")
        print(user_script)

        for label, intent in [
            ("table Jaccard, tau_J = 0.9", TableJaccardIntent(tau=0.9)),
            (
                "model performance, tau_M = 1%",
                ModelPerformanceIntent(target=competition.target, tau=1.0,
                                       task=competition.task),
            ),
        ]:
            system = LucidScript(
                corpus, data_dir=competition.data_dir, intent=intent, config=config
            )
            result = system.standardize(user_script)
            print(f"\n== standardized under {label} ==")
            print(result.output_script)
            print(result.summary())


if __name__ == "__main__":
    main()
