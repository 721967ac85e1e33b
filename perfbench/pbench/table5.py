"""``table5``: the paper's Table 5 full-corpus block through the harness.

LucidScript at tau_J and tau_M plus the five baselines, on the first six
user scripts of each full-size competition, at the LSConfig defaults
(seq=16, K=3).  Closed loop, one caller.  One operation is one
leave-one-out pair of one method, run through
``repro.harness.evaluate_lucidscript`` / ``evaluate_baseline`` on a
single-pair view of the competition, so the harness does exactly the
per-pair work it does in the full sweep (cold vocabulary builds for the
baselines, corpus curation for LucidScript, tau_M's downstream models).
The timed phase covers the block's groups in a seeded order; the gate
finishes the block untimed and checks the paper's shape claims.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

from . import inputs, layers
from .context import OpResult, Run, Verdict, closed_loop
from .measure import failed_share, latency_summary, median, metric, peak_rss_mb

Op = Tuple[str, int, str]


def _single_pair(corpus, index: int):
    """A view of *corpus* whose first leave-one-out pair is (script
    *index*, the other scripts in their original order)."""
    from repro.workloads import ScriptCorpus

    scripts = corpus.scripts
    rest = [s for position, s in enumerate(scripts) if position != index]
    return ScriptCorpus(
        name=corpus.name,
        target=corpus.target,
        task=corpus.task,
        data_dir=corpus.data_dir,
        data_file=corpus.data_file,
        scripts=[scripts[index]] + rest,
    )


def _baseline(method: str, corpus):
    from repro.baselines import AutoSuggest, AutoTables, SyntaxCleaner, gpt35, gpt4

    factories = {
        "Sourcery": SyntaxCleaner,
        "GPT-3.5": lambda: gpt35(seed=0),
        "GPT-4": lambda: gpt4(seed=0),
        "Auto-Suggest": lambda: AutoSuggest(data_dir=corpus.data_dir),
        "Auto-Tables": lambda: AutoTables(data_dir=corpus.data_dir),
    }
    return factories[method]()


def run(ctx: Run) -> Verdict:
    from repro.core import LSConfig
    from repro.harness import evaluate_baseline, evaluate_lucidscript

    competitions, setup_durations, setup_raw = ctx.setup(
        lambda rep: inputs.build_competitions(os.path.join(ctx.work, "competitions"), ctx.pause)
    )
    groups = inputs.table5_groups(list(competitions), ctx.seed)
    ops: List[Op] = [(name, index, method) for name, index in groups for method in inputs.TABLE5_METHODS]
    # one baseline instance per (lane, competition, method), as the suite
    # keeps one per cell; the traced lane has its own so both lanes see
    # the same random streams
    instances: Dict[Tuple[bool, str, str], object] = {}

    def baseline_for(method: str, corpus):
        key = (ctx.tracer.enabled, corpus.name, method)
        if key not in instances:
            baseline = _baseline(method, corpus)
            if ctx.tracer.enabled:
                baseline.rewrite = ctx.tracer.wrap("baselines.rewrite", baseline.rewrite)
            instances[key] = baseline
        return instances[key]

    def execute(op: Op) -> OpResult:
        name, index, method = op
        corpus = competitions[name]
        view = _single_pair(corpus, index)
        started = time.perf_counter()
        if method.startswith("LS"):
            kind = "jaccard" if method == "LS (tau_J)" else "model"
            result = ctx.tracer.call(
                "harness.evaluate", evaluate_lucidscript, view,
                intent_kind=kind, config=LSConfig(), max_scripts=1,
            )
            failed = not result.breakdowns  # StandardizationError scored as 0
        else:
            result = ctx.tracer.call(
                "harness.evaluate", evaluate_baseline, baseline_for(method, corpus), view,
                max_scripts=1,
            )
            failed = False
        wall = time.perf_counter() - started
        value = (tuple(result.improvements), tuple(result.output_scripts), sum(result.runtimes_s))
        return OpResult(op, wall, wall, value, failed)

    outcome = closed_loop(ctx, ops, execute, lambda a, b: a[:2] == b[:2])
    results = outcome.results
    block: Dict[Op, OpResult] = {}
    for result in results:
        block.setdefault(result.op, result)
    for op in ops:  # finish the block untimed, keeping each stream in order
        if op not in block:
            block[op] = execute(op)

    problems = [f"traced and untraced outputs differ for {op}" for op in outcome.mismatches]
    pooled = {
        method: [block[op].value[0][0] for op in ops if op[2] == method]
        for method in inputs.TABLE5_METHODS
    }
    problems += _shape_claims(pooled)
    quality = pooled["LS (tau_J)"] + pooled["LS (tau_M)"]
    failed = sum(1 for result in results if result.failed)
    raw_latency = latency_summary([r.latency_s for r in results])
    latency = latency_summary([r.latency_s * r.scale for r in results])
    scale = ctx.clock.scale()
    extras = {
        "ops": len(results),
        "latency_samples": latency["n"],
        "latency_tail_percent": latency["tail_percent"],
        "setup_reps_s": setup_durations,
        "failed_share": failed_share(len(results), failed),
        "table5": {method: _row(values) for method, values in pooled.items()},
        "method_latency_p50_ms": {
            method: latency_summary([r.latency_s for r in results if r.op[2] == method])["p50_ms"]
            for method in inputs.TABLE5_METHODS
        },
        "chunk_ms": ctx.clock.chunk_s() * 1000.0,
        "raw": {
            "setup_s": median(setup_raw),
            "ops_per_s": len(results) / outcome.wall_s,
            "latency_p50_ms": raw_latency["p50_ms"],
            "latency_p95_ms": raw_latency["tail_ms"],
            "global_scaled_p50_ms": raw_latency["p50_ms"] * scale,
            "global_scaled_p95_ms": raw_latency["tail_ms"] * scale,
        },
    }
    if ctx.trace:
        metrics = _traced_metrics(ctx, outcome, setup_durations)
        report = layers.self_time_table(metrics)
    else:
        raw = extras["raw"]
        metrics = {
            "setup_s": metric(median(setup_durations), "s"),
            "ops_per_s": metric(raw["ops_per_s"] / scale, "1/s"),
            "latency_p50_ms": metric(latency["p50_ms"], "ms"),
            "latency_p95_ms": metric(latency["tail_ms"], "ms"),
            "improvement_mean_pct": metric(sum(quality) / len(quality), "%"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        report = _render_block(extras["table5"]) + (
            f"\ntable5: {len(results)} method-pairs in {outcome.wall_s:.2f} s, "
            f"latency p{latency['tail_percent']} over {latency['n']} pairs; "
            f"times in reference seconds (scale {scale:.4f})"
        )
    return Verdict(problems, len(results), failed, metrics, extras, report)


def _row(values: List[float]) -> Dict[str, float]:
    from repro.harness import ImprovementStats

    return ImprovementStats.from_values(values).row()


def _render_block(rows: Dict[str, Dict[str, float]]) -> str:
    lines = ["Table 5 (full-size corpus): % improvement, 6 user scripts per dataset",
             f"  {'method':<12} {'min':>7} {'median':>7} {'max':>7} {'mean':>7}"]
    for method, row in rows.items():
        lines.append(
            f"  {method:<12} {row['min']:>7} {row['median']:>7} {row['max']:>7} {row['mean']:>7}"
        )
    return "\n".join(lines)


def _shape_claims(pooled: Dict[str, List[float]]) -> List[str]:
    """The paper's Table 5 shape claims, as the reproduction suite
    asserts them."""
    from repro.harness import ImprovementStats

    stats = {method: ImprovementStats.from_values(values) for method, values in pooled.items()}
    ls_j, ls_m = stats["LS (tau_J)"], stats["LS (tau_M)"]
    claims = [
        ("LS (tau_J) never worsens", ls_j.minimum >= 0.0),
        ("LS (tau_M) never worsens", ls_m.minimum >= 0.0),
        ("LS (tau_J) mean > 10", ls_j.mean > 10.0),
        ("LS (tau_M) mean > 5", ls_m.mean > 5.0),
        ("GPT-4 median within 10 of 0", abs(stats["GPT-4"].median) < 10.0),
        ("GPT-3.5 sometimes worsens", stats["GPT-3.5"].minimum < 0.0),
        ("LS (tau_J) beats GPT-4 by 10", ls_j.mean > stats["GPT-4"].mean + 10.0),
        ("GPT-4 >= GPT-3.5", stats["GPT-4"].mean >= stats["GPT-3.5"].mean),
    ]
    for method in ("Sourcery", "Auto-Suggest", "Auto-Tables"):
        claims.append(
            (f"{method} is exactly 0", stats[method].minimum == 0.0 == stats[method].maximum)
        )
    return [f"Table 5 shape claim failed: {name}" for name, holds in claims if not holds]


def _traced_metrics(ctx: Run, outcome, setup_durations) -> Dict[str, Dict[str, object]]:
    tracer = ctx.tracer
    op_spans = [span for span in tracer.spans if span[0] != "setup"]
    overhead_s, overhead_pct = outcome.overhead()
    runtimes = sum(result.value[2] for result in outcome.results)
    rewrite = sum(
        result.value[2] for result in outcome.results if not result.op[2].startswith("LS")
    )
    return layers.assemble(
        op_spans,
        [layers.search_record(stats, wall) for _, stats, wall in tracer.searches],
        outcome.corpus,
        outcome.traced_wall_s,
        {
            "workloads.build_s": median(setup_durations),
            "baselines.rewrite_s": rewrite,
            "harness.overhead_s": outcome.traced_wall_s - runtimes,
            "trace.ops": len(outcome.results),
            "trace.overhead_s": overhead_s,
            "trace.overhead_pct": overhead_pct,
        },
    )
