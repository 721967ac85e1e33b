"""Deterministic job execution shared by the warm server and cold replay.

A *job* is the canonical, self-contained description of one request:
``{"op": ..., "params": {...}}`` with the corpus inlined as script
texts, the intent normalized to an explicit descriptor, and the config
reduced to the explicitly-requested :class:`~repro.core.LSConfig`
overrides.  Canonicalization happens once at admission
(:func:`normalize_job`); after that the same job dict drives

* the warm path — :func:`execute_job` against a registry-held
  :class:`~repro.core.LucidScript` whose corpus index, prefix
  snapshots, and prepared intents survive across requests —
* the cold path — the same function in a fresh
  :mod:`repro.server.oneshot` process with every cache empty — and
* the local CLI commands, which resolve config and intent with
  :func:`job_inputs`, curate their own corpus (``--index``,
  ``--retrieve-k``) and render what :func:`execute_job` returns.

Both produce the same result dict byte-for-byte, because every warm
structure in this repo is bit-identical to its cold rebuild by
construction; the ``verify_server`` audit holds the server to exactly
that claim per response.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from hashlib import sha1
from typing import Any, Dict, List, Optional, Tuple

from ..core import (
    LSConfig,
    LucidScript,
    ModelPerformanceIntent,
    StandardizationError,
    TableJaccardIntent,
)
from ..core.explain import explain_result
from ..corpus import corpus_key, read_corpus_dir
from ..lang import NoDataFlowError, ScriptError
from ..ml import DownstreamEvaluationError
from .protocol import JOB_OPS, canonical

__all__ = [
    "JobError",
    "ResolvedJob",
    "build_system",
    "execute_job",
    "job_inputs",
    "normalize_job",
    "resolve_job",
    "system_key",
]

#: LSConfig fields a request may override per job.
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(LSConfig))


class JobError(Exception):
    """A job failed with a deterministic, client-visible verdict.

    ``kind`` maps onto the protocol error taxonomy (``bad_request``,
    ``standardization``); the message is part of the deterministic
    payload, so it must not embed timing, pids, or paths that differ
    between the warm server and a cold replay.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError("bad_request", message)


def _normalize_intent(op: str, params: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The explicit intent descriptor for one job (None = no intent).

    Accepts either an explicit ``intent`` object or the CLI-style
    ``target`` / ``tau_m`` / ``tau_j`` shorthand: a target switches to
    the model-performance measure, otherwise table Jaccard applies.
    ``score`` never uses an intent (scoring has no constraints).
    """
    if op == "score":
        return None
    intent = params.get("intent")
    if intent is not None:
        _require(isinstance(intent, dict), "'intent' must be an object")
        kind = intent.get("kind")
        if kind in (None, "none"):
            return None
        if kind == "table_jaccard":
            tau = float(intent.get("tau", 0.9))
            return {"kind": "table_jaccard", "tau": tau}
        if kind == "model_performance":
            _require(
                isinstance(intent.get("target"), str),
                "model_performance intent requires a 'target' column",
            )
            return {
                "kind": "model_performance",
                "target": intent["target"],
                "tau": float(intent.get("tau", 1.0)),
            }
        raise JobError("bad_request", f"unknown intent kind {kind!r}")
    if params.get("target"):
        return {
            "kind": "model_performance",
            "target": params["target"],
            "tau": float(params.get("tau_m", 1.0)),
        }
    return {"kind": "table_jaccard", "tau": float(params.get("tau_j", 0.9))}


def _normalize_corpus(params: Dict[str, Any]) -> List[str]:
    """Resolve ``corpus`` (inline texts) or ``corpus_dir`` into script
    texts — *at admission time*, so the canonical job is self-contained
    and a later audit replay cannot diverge because a file changed."""
    corpus = params.get("corpus")
    corpus_dir = params.get("corpus_dir")
    if corpus is not None:
        _require(
            isinstance(corpus, list)
            and corpus
            and all(isinstance(s, str) for s in corpus),
            "'corpus' must be a non-empty list of script texts",
        )
        return list(corpus)
    _require(
        isinstance(corpus_dir, str) and bool(corpus_dir),
        "one of 'corpus' or 'corpus_dir' is required",
    )
    try:
        scripts, _skipped = read_corpus_dir(corpus_dir)
    except ValueError as exc:
        raise JobError("bad_request", str(exc)) from exc
    return scripts


def _normalize_config(params: Dict[str, Any]) -> Dict[str, Any]:
    overrides = params.get("config") or {}
    _require(isinstance(overrides, dict), "'config' must be an object")
    unknown = sorted(set(overrides) - _CONFIG_FIELDS)
    _require(not unknown, f"unknown config fields: {', '.join(unknown)}")
    try:  # validate values eagerly so admission rejects, not the wave
        LSConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise JobError("bad_request", f"invalid config: {exc}") from exc
    return {name: overrides[name] for name in sorted(overrides)}


def normalize_job(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Validate one raw request into the canonical self-contained job.

    Raises :class:`JobError` (kind ``bad_request``) on any malformed
    input; the returned dict is what the queue holds, the wave executes,
    and the audit replays.
    """
    _require(isinstance(raw, dict), "request must be a JSON object")
    op = raw.get("op")
    _require(op in JOB_OPS, f"op must be one of {', '.join(JOB_OPS)}")
    params = raw.get("params") or {}
    _require(isinstance(params, dict), "'params' must be an object")
    script = params.get("script")
    _require(
        isinstance(script, str) and bool(script.strip()),
        "'script' (the input script text) is required",
    )
    data_dir = params.get("data_dir")
    _require(
        data_dir is None or isinstance(data_dir, str),
        "'data_dir' must be a string path",
    )
    return {
        "op": op,
        "params": {
            "script": script,
            "corpus": _normalize_corpus(params),
            "data_dir": data_dir,
            "intent": _normalize_intent(op, params),
            "config": _normalize_config(params),
        },
    }


# --------------------------------------------------------------------------
# Resolution: canonical job -> (system key, constructor inputs)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedJob:
    """One job's constructor inputs plus its warm-state address."""

    job: Dict[str, Any]
    key: str  #: content address of (corpus, data_dir, intent, config)
    scripts: List[str]
    data_dir: Optional[str]
    config: LSConfig
    intent: Optional[object]

    @property
    def corpus_key(self) -> str:
        return self.key.split(":", 1)[0]


def _build_intent(descriptor: Optional[Dict[str, Any]]):
    if descriptor is None:
        return None
    try:
        if descriptor["kind"] == "table_jaccard":
            return TableJaccardIntent(tau=descriptor["tau"])
        return ModelPerformanceIntent(
            target=descriptor["target"], tau=descriptor["tau"]
        )
    except ValueError as exc:
        raise JobError("bad_request", f"invalid intent: {exc}") from exc


def resolve_job(job: Dict[str, Any]) -> ResolvedJob:
    """Resolve a canonical job into constructor inputs and its key.

    The key is ``<corpus content address>:<request-shape digest>`` —
    two jobs share warm state iff their corpus scripts (by content, in
    order), data directory, intent, and config overrides all match.
    The corpus half doubles as the queue's coalescing group: requests
    against the same corpus ride the same dispatch wave.
    """
    params = job["params"]
    scripts = params["corpus"]
    shape = sha1(
        canonical(
            {
                "data_dir": params["data_dir"],
                "intent": params["intent"],
                "config": params["config"],
            }
        ).encode()
    ).hexdigest()
    dialect = params["config"].get("dialect", "pandas")
    key = f"{corpus_key(scripts, dialect)}:{shape}"
    return ResolvedJob(
        job=job,
        key=key,
        scripts=scripts,
        data_dir=params["data_dir"],
        config=LSConfig(**params["config"]),
        intent=_build_intent(params["intent"]),
    )


def job_inputs(op: str, params: Dict[str, Any]) -> Tuple[LSConfig, Optional[object]]:
    """The :class:`LSConfig` and intent that one job's raw params ask for.

    Admission's own normalizers, without the corpus: the local CLI
    commands curate theirs from ``--corpus-dir``/``--index``/
    ``--retrieve-k`` and pass the system to :func:`execute_job`.
    """
    return (
        LSConfig(**_normalize_config(params)),
        _build_intent(_normalize_intent(op, params)),
    )


def build_system(corpus, data_dir, intent, config: LSConfig) -> LucidScript:
    """A fresh :class:`LucidScript` for one job (the offline phase runs
    here — through the process-wide warm corpus cache)."""
    try:
        return LucidScript(corpus, data_dir=data_dir, intent=intent, config=config)
    except ScriptError as exc:
        raise JobError("bad_request", f"corpus failed to curate: {exc}") from exc


# --------------------------------------------------------------------------
# Execution: the one deterministic runner both paths share
# --------------------------------------------------------------------------


def _standardize_result(result) -> Dict[str, Any]:
    return {
        "changed": result.changed,
        "improvement": result.improvement,
        "intent_delta": result.intent_delta,
        "intent_satisfied": result.intent_satisfied,
        "output_script": result.output_script,
        "re_after": result.re_after,
        "re_before": result.re_before,
        "transformations": [t.describe() for t in result.transformations],
    }


def execute_job(
    job: Dict[str, Any], system: Optional[LucidScript] = None
) -> Dict[str, Any]:
    """Run one canonical job and return its deterministic result dict.

    *system* is the warm registry's pinned instance on the server path;
    None (the cold path) builds a fresh one.  Result dicts contain only
    values that are bit-identical between those two paths — no timings,
    no cache counters, no SearchStats.
    """
    if system is None:
        resolved = resolve_job(job)
        system = build_system(
            resolved.scripts, resolved.data_dir, resolved.intent, resolved.config
        )
    op = job["op"]
    script = job["params"]["script"]
    try:
        if op == "score":
            return {"score": system.score(script)}
        result = system.standardize(script)
    except StandardizationError as exc:
        raise JobError("standardization", str(exc)) from exc
    except NoDataFlowError as exc:
        raise JobError("bad_request", str(exc)) from exc
    except ScriptError as exc:
        raise JobError("bad_request", f"input script failed to parse: {exc}") from exc
    except DownstreamEvaluationError as exc:
        # only the input script's own output raises here: a candidate's
        # failed downstream evaluation scores as an intent violation
        raise JobError(
            "bad_request",
            f"intent target {system.intent.target!r} cannot be evaluated "
            f"on the input script's output: {exc}",
        ) from exc
    if op == "standardize":
        return _standardize_result(result)
    if op == "explain":
        explanations = explain_result(result, system.vocabulary)
        return {
            "explanations": [e.render() for e in explanations],
            "improvement": result.improvement,
            "output_script": result.output_script,
        }
    # detect_leakage: flag removed (out-of-the-ordinary) statements with
    # their corpus prevalence
    flagged = [
        {
            "prevalence": system.vocabulary.statement_frequency(line),
            "statement": line,
        }
        for line in result.removed_statements()
    ]
    return {"flagged": flagged, "output_script": result.output_script}


def system_key(job: Dict[str, Any]) -> str:
    """The warm-state address of one canonical job (see resolve_job)."""
    return resolve_job(job).key
