"""Per-layer metrics of a traced run.

``PER_LAYER`` is the one list of per-layer metric names and units; the
traced run of every workload reports each of them (0 where a layer does
no work on that workload) and ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence, Tuple

from .measure import metric
from .tracing import LAYERS, Span, count_and_time, self_times, top_level_time

#: Layers of the self-time table (set-up's ``workloads`` layer is
#: reported separately as ``workloads.build_s``).
SELF_LAYERS = tuple(layer for layer in LAYERS if layer != "workloads")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.build_s", "s"),
    ("corpus.curate_s", "s"),
    ("corpus.vocab_builds", "count"),
    ("corpus.vocab_build_s", "s"),
    ("corpus.reparses", "count"),
    ("corpus.index_hits", "count"),
    ("corpus.script_hits", "count"),
    ("lang.parse_calls", "count"),
    ("lang.parse_s", "s"),
    ("core.get_steps_s", "s"),
    ("core.delta_score_ratio", "ratio"),
    ("core.get_top_k_s", "s"),
    ("core.check_executes_s", "s"),
    ("core.verify_constraints_s", "s"),
    ("core.standardize_self_s", "s"),
    ("core.intent_checks", "count"),
    ("core.intent_cache_hit_ratio", "ratio"),
    ("sandbox.run_calls", "count"),
    ("sandbox.run_s", "s"),
    ("sandbox.prefix_hit_ratio", "ratio"),
    ("sandbox.mean_resume_depth", "stmts"),
    ("sandbox.exec_checks", "count"),
    ("sandbox.exec_timeouts", "count"),
    ("sandbox.degraded_waves", "count"),
    ("ml.downstream_calls", "count"),
    ("ml.downstream_s", "s"),
    ("baselines.rewrite_s", "s"),
    ("harness.overhead_s", "s"),
    ("server.service_p50_ms", "ms"),
    ("server.service_p95_ms", "ms"),
    ("server.warm_hit_ratio", "ratio"),
    ("server.coalesced_job_ratio", "ratio"),
    ("server.queue_peak_depth", "count"),
    ("server.rejections", "count"),
    ("server.request_kb_mean", "KB"),
) + tuple((f"self.{layer}_s", "s") for layer in SELF_LAYERS) + (
    ("self.unattributed_s", "s"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)

#: SearchStats fields summed across a workload's traced searches.
SEARCH_FIELDS = (
    "get_steps_s",
    "get_top_k_s",
    "check_executes_s",
    "verify_constraints_s",
    "n_delta_scores",
    "n_full_recounts",
    "n_intent_checks",
    "n_intent_cache_hits",
    "prefix_cache_hits",
    "prefix_cache_misses",
    "n_exec_checks",
    "n_exec_timeouts",
    "n_degraded_waves",
)

#: corpus_cache_counters() fields reported per layer.
CORPUS_FIELDS = (("script_parses", "corpus.reparses"), ("index_hits", "corpus.index_hits"), ("script_hits", "corpus.script_hits"))


def search_record(stats: Any, wall_s: float) -> Dict[str, float]:
    """The summable slice of one search's SearchStats, plus the wall
    time of its standardize() call."""
    record = {name: float(getattr(stats, name)) for name in SEARCH_FIELDS}
    record["resumed_statements"] = stats.prefix_mean_resume_depth * stats.prefix_cache_hits
    record["wall_s"] = wall_s
    return record


def corpus_delta(before: Any, after: Any) -> Dict[str, float]:
    delta = after.delta(before)
    return {field: float(getattr(delta, field)) for field, _ in CORPUS_FIELDS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def assemble(
    spans: Sequence[Span],
    searches: Iterable[Dict[str, float]],
    corpus: Iterable[Dict[str, float]],
    traced_wall_s: float,
    extra: Dict[str, float],
) -> Dict[str, Dict[str, object]]:
    """Every ``PER_LAYER`` metric from a traced phase's spans, summed
    SearchStats records and corpus counter deltas.  *extra* supplies the
    workload-specific values (set-up build time, baseline rewrite time,
    server counters, tracing overhead); anything not measured is 0."""
    totals = {name: 0.0 for name in SEARCH_FIELDS}
    totals["resumed_statements"] = 0.0
    standardize_self = 0.0
    for record in searches:
        for name in totals:
            totals[name] += record[name]
        standardize_self += record["wall_s"] - sum(
            record[name]
            for name in ("get_steps_s", "get_top_k_s", "check_executes_s", "verify_constraints_s")
        )
    counters = {field: 0.0 for field, _ in CORPUS_FIELDS}
    for record in corpus:
        for field in counters:
            counters[field] += record[field]

    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    _, values["corpus.curate_s"] = count_and_time(spans, "corpus", ("corpus.curate",))
    values["corpus.vocab_builds"], values["corpus.vocab_build_s"] = count_and_time(
        spans, "corpus", ("corpus.vocab_build",)
    )
    for field, name in CORPUS_FIELDS:
        values[name] = counters[field]
    values["lang.parse_calls"], values["lang.parse_s"] = count_and_time(spans, "lang")
    values["sandbox.run_calls"], values["sandbox.run_s"] = count_and_time(spans, "sandbox")
    values["ml.downstream_calls"], values["ml.downstream_s"] = count_and_time(spans, "ml")
    values["core.get_steps_s"] = totals["get_steps_s"]
    values["core.get_top_k_s"] = totals["get_top_k_s"]
    values["core.check_executes_s"] = totals["check_executes_s"]
    values["core.verify_constraints_s"] = totals["verify_constraints_s"]
    values["core.standardize_self_s"] = standardize_self
    values["core.delta_score_ratio"] = _ratio(
        totals["n_delta_scores"], totals["n_delta_scores"] + totals["n_full_recounts"]
    )
    values["core.intent_checks"] = totals["n_intent_checks"]
    values["core.intent_cache_hit_ratio"] = _ratio(
        totals["n_intent_cache_hits"], totals["n_intent_checks"]
    )
    probes = totals["prefix_cache_hits"] + totals["prefix_cache_misses"]
    values["sandbox.prefix_hit_ratio"] = _ratio(totals["prefix_cache_hits"], probes)
    values["sandbox.mean_resume_depth"] = _ratio(
        totals["resumed_statements"], totals["prefix_cache_hits"]
    )
    values["sandbox.exec_checks"] = totals["n_exec_checks"]
    values["sandbox.exec_timeouts"] = totals["n_exec_timeouts"]
    values["sandbox.degraded_waves"] = totals["n_degraded_waves"]

    own = self_times(spans)
    for layer in SELF_LAYERS:
        values[f"self.{layer}_s"] = own.get(layer, 0.0)
    values["self.unattributed_s"] = traced_wall_s - top_level_time(spans)
    values["trace.spans"] = float(len(spans))
    values["trace.wall_s"] = traced_wall_s
    for name, value in extra.items():
        if name not in values:
            raise KeyError(f"{name} is not a per-layer metric")
        values[name] = float(value)
    units = dict(PER_LAYER)
    return {name: metric(values[name], units[name]) for name, _ in PER_LAYER}


def self_time_table(per_layer: Dict[str, Dict[str, object]]) -> str:
    wall = per_layer["trace.wall_s"]["value"] or 1.0
    lines = ["self time by layer (traced operations)"]
    for layer in SELF_LAYERS + ("unattributed",):
        seconds = per_layer[f"self.{layer}_s"]["value"]
        lines.append(f"  {layer:<13} {seconds:10.4f} s  {100.0 * seconds / wall:6.1f} %")
    overhead = per_layer["trace.overhead_s"]["value"]
    lines.append(
        f"  {'trace overhead':<13} {overhead:10.4f} s  "
        f"{per_layer['trace.overhead_pct']['value']:6.1f} % of untraced wall"
    )
    return "\n".join(lines)
