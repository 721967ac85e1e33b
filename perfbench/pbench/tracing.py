"""Spans around the calls into each layer of the program.

The program itself carries no spans, so the traced run wraps the public
functions each layer exposes (module functions and methods) from here,
and only for the traced run: ``Instrumentation.install()`` swaps every
binding of a wrapped function in the loaded ``repro`` modules for a
recording wrapper and ``remove()`` puts the originals back.

A span is ``(op, span_id, parent_id, name, start, end, thread)``.  The
layer is the name's first dotted part (``lang.parse`` -> ``lang``).
Spans of one operation share its ``op`` id; spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[Any, int, Optional[int], str, float, float, int]

#: Layers reported in the self-time table, in the order of the modules
#: under ``src/repro`` the spans wrap.
LAYERS = ("workloads", "corpus", "lang", "core", "sandbox", "ml", "baselines", "harness", "server")


class Tracer:
    """In-memory span recorder; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (op id, SearchStats, wall seconds) of every traced standardize()
        self.searches: List[Tuple[Any, Any, float]] = []

    # ------------------------------------------------------------ op context
    @property
    def op(self) -> Any:
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value: Any) -> None:
        self._local.op = value

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ---------------------------------------------------------------- record
    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (self.op, span_id, parent, name, start, end, threading.get_ident())
                )

    def record(self, name: str, start: float, end: float, op: Any = None) -> None:
        """A span measured by the caller (e.g. a served request, timed by
        the caller from send to answer)."""
        with self._lock:
            self.spans.append(
                (op, next(self._ids), None, name, start, end, threading.get_ident())
            )

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def dump(self, path: str, extra: Iterable[Span] = ()) -> None:
        with open(path, "w") as handle:
            for span in itertools.chain(self.spans, extra):
                op, span_id, parent, name, start, end, thread = span
                handle.write(
                    json.dumps(
                        {
                            "op": op,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus the part of it
    its direct children cover, summed by layer."""
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for _, _, parent, _, start, end, thread in spans:
        if parent is not None:
            child_time[(thread, parent)] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for _, span_id, _, name, start, end, thread in spans:
        totals[layer_of(name)] += (end - start) - child_time.get((thread, span_id), 0.0)
    return dict(totals)


def top_level_time(spans: Sequence[Span]) -> float:
    """Time covered by spans that have no parent span."""
    return sum(end - start for _, _, parent, _, start, end, _ in spans if parent is None)


def outermost(spans: Sequence[Span], layer: str) -> List[Span]:
    """Spans of *layer* not nested inside another span of that layer."""
    by_id = {(span[6], span[1]): span for span in spans}
    found = []
    for span in spans:
        if layer_of(span[3]) != layer:
            continue
        parent = span[2]
        nested = False
        while parent is not None:
            outer = by_id.get((span[6], parent))
            if outer is None:
                break
            if layer_of(outer[3]) == layer:
                nested = True
                break
            parent = outer[2]
        if not nested:
            found.append(span)
    return found


def count_and_time(spans: Sequence[Span], layer: str, names: Sequence[str] = ()) -> Tuple[int, float]:
    """Calls into *layer* (optionally only the named spans) and the time
    its outermost spans cover."""
    selected = [s for s in spans if layer_of(s[3]) == layer and (not names or s[3] in names)]
    covered = sum(s[5] - s[4] for s in outermost(selected, layer))
    return len(selected), covered


# --------------------------------------------------------------------------
# Instrumentation: which public functions are wrapped, under which name
# --------------------------------------------------------------------------


class Instrumentation:
    """Swappable wrappers around the layer boundaries of ``repro``.

    ``LucidScript.__init__`` is the corpus curation (``corpus.curate``),
    ``CorpusVocabulary.from_scripts`` the cold vocabulary build,
    ``parse_script``/``lemmatize`` the lang layer, ``standardize``/``score``
    the core search, ``run_script`` (module and incremental) the sandbox,
    and ``evaluate_downstream`` as ``repro.core.intent`` calls it the ml
    layer.  Each wrapped standardize() also hands its SearchStats to the
    tracer.
    """

    def __init__(self, tracer: Tracer) -> None:
        # load every module holding a binding before scanning for them
        for name in ("baselines", "core", "corpus", "harness", "lang", "sandbox", "server", "workloads"):
            importlib.import_module(f"repro.{name}")
        parser = importlib.import_module("repro.lang.parser")
        lemmatize = importlib.import_module("repro.lang.lemmatize")
        runner = importlib.import_module("repro.sandbox.runner")
        intent = importlib.import_module("repro.core.intent")
        from repro.core import LucidScript
        from repro.lang import CorpusVocabulary
        from repro.sandbox import IncrementalExecutor

        self.tracer = tracer
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._function(parser.parse_script, "lang.parse")
        self._function(lemmatize.lemmatize, "lang.lemmatize")
        self._function(runner.run_script, "sandbox.run")
        self._method(IncrementalExecutor, "run_script", "sandbox.run")
        self._method(LucidScript, "__init__", "corpus.curate")
        self._method(LucidScript, "score", "core.score")
        self._standardize(LucidScript)
        original = CorpusVocabulary.__dict__["from_scripts"]
        self._patches.append(
            (
                CorpusVocabulary,
                "from_scripts",
                original,
                classmethod(tracer.wrap("corpus.vocab_build", original.__func__)),
            )
        )
        self._patches.append(
            (
                intent,
                "evaluate_downstream",
                intent.evaluate_downstream,
                tracer.wrap("ml.downstream", intent.evaluate_downstream),
            )
        )

    def _function(self, original: Callable, name: str) -> None:
        wrapper = self.tracer.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapper))

    def _method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original, self.tracer.wrap(name, original)))

    def _standardize(self, cls: type) -> None:
        original = cls.__dict__["standardize"]
        tracer = self.tracer

        @functools.wraps(original)
        def standardize(system, script):
            start = time.perf_counter()
            result = tracer.call("core.standardize", original, system, script)
            if tracer.enabled:
                tracer.searches.append(
                    (tracer.op, result.stats, time.perf_counter() - start)
                )
            return result

        self._patches.append((cls, "standardize", original, standardize))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self.tracer.enabled = True

    def remove(self) -> None:
        self.tracer.enabled = False
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
