"""Table 3 — examined datasets and their DAG statistics.

Regenerates the corpus-statistics table over the six synthetic
competitions and checks the relative structure the paper reports:
Titanic is the most script-rich and atom-diverse corpus, NLP among the
smallest, and Sales by far the largest data file.
"""

import os

from repro.corpus import cached_index
from repro.harness import render_table

from _shared import all_competitions, publish

import repro.minipandas as pd


def _stats_row(name, corpus):
    stats = cached_index(corpus.scripts).stats()
    frame = pd.read_csv(os.path.join(corpus.data_dir, corpus.data_file))
    return {
        "dataset": name,
        "scripts": stats.n_scripts,
        "tuples_k": round(len(frame) / 1000, 1),
        "features": len(frame.columns),
        "avg_lines": round(stats.avg_code_lines, 1),
        "uniq_1grams": stats.uniq_onegrams,
        "uniq_ngrams": stats.uniq_ngrams,
        "uniq_edges": stats.uniq_edges,
    }


def test_table3_corpus_stats(benchmark):
    rows = {name: _stats_row(name, c) for name, c in all_competitions().items()}

    # Table 3 shape checks -------------------------------------------------
    # corpus sizes are the paper's, by construction
    assert rows["titanic"]["scripts"] == 62
    assert rows["nlp"]["scripts"] == 24
    # Titanic has the most unique atoms and edges (richest conventions)
    for other in ("house", "nlp", "spaceship", "medical", "sales"):
        assert rows["titanic"]["uniq_edges"] >= rows[other]["uniq_edges"]
        assert rows["titanic"]["uniq_1grams"] >= rows[other]["uniq_1grams"]
    # Sales is the largest data file by an order of magnitude
    second = max(
        rows[n]["tuples_k"] for n in rows if n != "sales"
    )
    assert rows["sales"]["tuples_k"] > 10 * second

    order = ["titanic", "house", "nlp", "spaceship", "medical", "sales"]
    publish(
        "table3_corpus_stats",
        render_table(
            ["Statistics"] + order,
            [
                ["Scripts"] + [rows[n]["scripts"] for n in order],
                ["Data tuples (k)"] + [rows[n]["tuples_k"] for n in order],
                ["Data features"] + [rows[n]["features"] for n in order],
                ["Avg # code lines"] + [rows[n]["avg_lines"] for n in order],
                ["Uniq. 1-grams"] + [rows[n]["uniq_1grams"] for n in order],
                ["Uniq. n-grams"] + [rows[n]["uniq_ngrams"] for n in order],
                ["Uniq. edges"] + [rows[n]["uniq_edges"] for n in order],
            ],
            title="Table 3: examined datasets and their DAG statistics",
        ),
    )

    medical = all_competitions()["medical"]
    benchmark.pedantic(
        lambda: cached_index(medical.scripts).stats(),
        rounds=3,
        iterations=1,
    )
