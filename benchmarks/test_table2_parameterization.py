"""Table 2 — default (seq, K) parameterization by corpus properties.

Regenerates the paper's parameter table and checks the recommended
configuration for each of the six built corpora.
"""

from repro.core import recommend_parameters
from repro.corpus import cached_index
from repro.harness import render_table

from _shared import all_competitions, publish


def test_table2_parameterization(benchmark):
    grid = [
        (">10 scripts", ">300 uniq. edges", 11, 301),
        (">10 scripts", "<=300 uniq. edges", 11, 300),
        ("<=10 scripts", ">300 uniq. edges", 10, 301),
        ("<=10 scripts", "<=300 uniq. edges", 10, 300),
    ]
    rows = []
    for large, diverse, n_scripts, uniq_edges in grid:
        config = benchmark_target(n_scripts, uniq_edges)
        rows.append([large, diverse, config.seq, config.beam_size])

    # paper's Table 2, verbatim
    assert [r[2:] for r in rows] == [[16, 3], [16, 1], [8, 3], [8, 1]]

    corpus_rows = []
    for name, corpus in all_competitions().items():
        stats = cached_index(corpus.scripts).stats()
        config = recommend_parameters(stats.n_scripts, stats.uniq_edges)
        corpus_rows.append(
            [name, stats.n_scripts, stats.uniq_edges, config.seq, config.beam_size]
        )

    publish(
        "table2_parameterization",
        render_table(
            ["Large", "Diverse", "seq", "K"], rows,
            title="Table 2: parameterization by corpus properties",
        )
        + "\n\n"
        + render_table(
            ["dataset", "# scripts", "uniq edges", "seq", "K"], corpus_rows,
            title="Recommended parameters for the six built corpora",
        ),
    )

    benchmark(recommend_parameters, 62, 748)


def benchmark_target(n_scripts, uniq_edges):
    return recommend_parameters(n_scripts, uniq_edges)
