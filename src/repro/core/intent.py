"""User-intent measures (Section 2.1): Table Jaccard and Model Performance.

Both compare the dataset emitted by the user's script, ``D_OUT(s_u)``, with
the dataset emitted by a candidate, ``D_OUT(ŝ_u)``.  Each measure exposes
``delta`` (the raw dissimilarity) and ``satisfied`` (the constraint check
against the user's threshold τ).

Besides the naive pairwise measures, this module houses the
content-addressed incremental verification engine: :meth:`IntentMeasure
.prepare` freezes the *original* side of the comparison into a
:class:`PreparedIntent`, after which each candidate check pays for its own
changed content only.  Candidate tables are addressed by per-column content
fingerprints, so a wave of near-duplicate candidates — the shape
``VerifyAllConstraints`` produces — reuses distinct-value sets across both
candidates and intent modes instead of rebuilding the original's cell set
per check.  The prepared path is exact, not a sketch: every delta it
returns is bit-identical to the naive recomputation (``verify_intent``
audits exactly that).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from hashlib import sha1
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .._lru import LRUCache
from ..minipandas import DataFrame, is_missing
from ..ml import DownstreamEvaluationError, evaluate_downstream

__all__ = [
    "IntentMeasure",
    "IntentMismatchError",
    "IntentStats",
    "PreparedIntent",
    "TableJaccardIntent",
    "ModelPerformanceIntent",
    "table_fingerprint",
    "table_jaccard",
    "model_performance_delta",
]


class IntentMismatchError(RuntimeError):
    """Raised by ``LSConfig.verify_intent`` when a prepared incremental
    intent delta diverges from the naive recomputation (an engine bug,
    never a legitimate runtime condition)."""


# --------------------------------------------------------------- fingerprints
def _values_fingerprint(values: Tuple[Any, ...]) -> str:
    """Content address of one column's ordered values.

    ``repr`` round-trips every value type the sandbox substrate produces
    (str/int/float/bool/None/NaN and tuples thereof) faithfully and
    type-discriminatingly, so two columns share a fingerprint only when
    their value sequences are indistinguishable.  A spurious *difference*
    (e.g. ``-0.0`` vs ``0.0``) merely skips a reuse opportunity — the set
    path still compares by value equality — so collisions are the only
    dangerous direction, and sha1 over the full repr makes them
    cryptographically improbable.
    """
    return sha1(repr(values).encode("utf-8", "backslashreplace")).hexdigest()


def _combine_fingerprints(
    n_rows: int, named: Sequence[Tuple[Any, str]]
) -> str:
    digest = sha1()
    digest.update(str(n_rows).encode())
    for name, fingerprint in named:
        digest.update(b"\x00")
        digest.update(repr(name).encode("utf-8", "backslashreplace"))
        digest.update(b"\x01")
        digest.update(fingerprint.encode())
    return digest.hexdigest()


def _frame_content(
    frame: DataFrame,
) -> Tuple[List[Tuple[str, Tuple[Any, ...], str]], str]:
    """Per-column ``(name, values, fingerprint)`` triples + the table print.

    The table fingerprint covers row count, column names, column order,
    and every cell value — everything that determines the naive measures
    (none of them read index labels, and neither does
    :func:`repro.ml.evaluate_downstream`, which is positional).
    """
    columns = [(name, tuple(frame[name])) for name in frame.columns]
    triples = [
        (name, values, _values_fingerprint(values)) for name, values in columns
    ]
    table = _combine_fingerprints(
        len(frame), [(name, fingerprint) for name, _, fingerprint in triples]
    )
    return triples, table


def table_fingerprint(frame: DataFrame) -> str:
    """Content address of a whole table (see :func:`_frame_content`)."""
    return _frame_content(frame)[1]


# ------------------------------------------------------------- naive measures
def _cell_set(frame: DataFrame, mode: str) -> Set:
    if mode == "values":
        return {
            "__NA__" if is_missing(v) else v
            for col in frame.columns
            for v in frame[col]
        }
    if mode == "cells":
        return {
            (col, "__NA__" if is_missing(v) else v)
            for col in frame.columns
            for v in frame[col]
        }
    if mode == "rows":
        # materialize each column once instead of an .iloc wrapper per cell
        columns = [frame[col].tolist() for col in frame.columns]
        return {
            tuple("__NA__" if is_missing(col[pos]) else col[pos] for col in columns)
            for pos in range(len(frame))
        }
    raise ValueError(f"unknown table-jaccard mode: {mode!r}")


def table_jaccard(a: DataFrame, b: DataFrame, mode: str = "cells") -> float:
    """Jaccard similarity of two tables' distinct content.

    ``mode='values'`` replicates the paper's Example 2.1 (distinct cell
    values); ``'cells'`` compares distinct (column, value) pairs, which
    also notices column renames; ``'rows'`` compares distinct rows.
    Returns 1.0 when both tables are empty.

    Note the deliberately divergent defaults: this *function* defaults to
    the strictest cheap comparison (``'cells'``), while
    :class:`TableJaccardIntent` — the measure wired into the search —
    defaults to ``'values'`` to match the paper's Example 2.1 semantics.
    """
    sa, sb = _cell_set(a, mode), _cell_set(b, mode)
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def model_performance_delta(
    acc_original: float, acc_candidate: float
) -> float:
    """|relative % change| in downstream accuracy (Section 2.1, Δ_M)."""
    if acc_original == 0:
        return 0.0 if acc_candidate == 0 else 100.0
    return abs(acc_original - acc_candidate) / acc_original * 100.0


# ------------------------------------------------------------ prepared engine
@dataclass
class IntentStats:
    """Counters for one run of the incremental verification engine.

    ``checks`` — prepared checks served; ``prepared_hits`` — times a
    cached :class:`PreparedIntent` was reused instead of re-freezing the
    original; ``column_set_reuse`` — per-column lookups answered from the
    content-addressed memo (zero set construction); ``short_circuits`` —
    whole-table fingerprint matches answered without touching any set.
    """

    checks: int = 0
    prepared_hits: int = 0
    column_set_reuse: int = 0
    short_circuits: int = 0


class _ColumnContent:
    """One distinct column content: normalized values + lazy distinct set.

    ``normalized()`` replaces missing markers with the same ``"__NA__"``
    sentinel the naive ``_cell_set`` uses (including its collision with a
    genuine ``"__NA__"`` string — bit-identity covers quirks).  Both
    products are built at most once per distinct content and shared across
    every intent mode and every candidate that carries the column.
    """

    __slots__ = ("values", "_normalized", "_value_set")

    def __init__(self, values: Tuple[Any, ...]):
        self.values = values
        self._normalized: Optional[List[Any]] = None
        self._value_set: Optional[frozenset] = None

    def normalized(self) -> List[Any]:
        if self._normalized is None:
            self._normalized = [
                "__NA__" if is_missing(v) else v for v in self.values
            ]
        return self._normalized

    def value_set(self) -> frozenset:
        if self._value_set is None:
            self._value_set = frozenset(self.normalized())
        return self._value_set


class PreparedIntent:
    """The original side of an intent check, frozen once per search.

    ``check(candidate)``/``delta(candidate)`` mirror the naive
    ``IntentMeasure.check(original, candidate)`` but never recompute the
    original's state.  The base class is a correctness fallback for
    measures without an incremental form (it delegates to the naive
    measure); :class:`TableJaccardIntent` and
    :class:`ModelPerformanceIntent` return specialized subclasses from
    :meth:`IntentMeasure.prepare`.

    With ``verify=True`` every prepared delta is cross-checked against
    :meth:`IntentMeasure.bare_delta` (all caches bypassed) and any float
    divergence raises :class:`IntentMismatchError` — the exact analogue of
    ``LSConfig.verify_scoring`` for the scoring engine.
    """

    def __init__(
        self,
        intent: "IntentMeasure",
        original: DataFrame,
        table_fp: Optional[str] = None,
        counters: Optional[IntentStats] = None,
        verify: bool = False,
    ):
        self.intent = intent
        self.original = original
        self.table_fp = (
            table_fp if table_fp is not None else table_fingerprint(original)
        )
        self.counters = counters if counters is not None else IntentStats()
        self.verify = verify

    def delta(self, candidate: DataFrame) -> float:
        self.counters.checks += 1
        value = self._prepared_delta(candidate)
        if self.verify:
            reference = self.intent.bare_delta(self.original, candidate)
            if value != reference:
                raise IntentMismatchError(
                    f"prepared {self.intent.name} delta {value!r} != naive "
                    f"recomputation {reference!r} (original fingerprint "
                    f"{self.table_fp[:12]})"
                )
        return value

    def check(self, candidate: DataFrame) -> Tuple[float, bool]:
        d = self.delta(candidate)
        return d, self.intent.satisfied(d)

    def _prepared_delta(self, candidate: DataFrame) -> float:
        # generic fallback: no incremental form, same answer
        return self.intent.delta(self.original, candidate)


class PreparedTableJaccard(PreparedIntent):
    """Incremental Δ_J: per-mode original state + content-addressed memo.

    For ``mode='cells'`` the check is an exact disjoint-column
    decomposition: a cell ``(c, v)`` can only collide with cells of the
    same column name, so with ``A_c``/``B_c`` the per-column distinct
    normalized value sets,

        ``J(A, B) = Σ_c |A_c ∩ B_c| / Σ_c |A_c ∪ B_c|``

    where name-mismatched columns contribute only to the union.  A
    candidate column whose content matches the original's contributes
    ``|A_c|`` to both sums with zero set work, so a check costs
    O(changed columns), not O(cells).  ``'values'`` and ``'rows'`` have
    no disjoint decomposition (values collide across columns, rows span
    all columns) but share the same per-column memo: distinct-value sets
    respectively normalized column vectors are built once per distinct
    column content and reused across the whole candidate wave.

    Within one process a column's value tuple is its own content
    address — the memo is keyed by the tuple directly, which hashes and
    compares at C speed and is collision-free by construction (the sha1
    digests of :func:`table_fingerprint` exist for compact cross-process
    cache keys, not for this hot path).  Tuple equality is exactly the
    reuse-safety condition: ``==``-equal values are the same element in
    a Python set, so equal tuples yield identical normalized sets.
    """

    #: distinct column contents retained across a candidate wave
    COLUMN_MEMO_LIMIT = 1024

    def __init__(
        self,
        intent: "TableJaccardIntent",
        original: DataFrame,
        table_fp: Optional[str] = None,
        counters: Optional[IntentStats] = None,
        verify: bool = False,
    ):
        super().__init__(intent, original, table_fp, counters, verify)
        self._memo: LRUCache = LRUCache(self.COLUMN_MEMO_LIMIT)
        #: the original's (name, values) pairs in column order
        self._original_pairs: List[Tuple[str, Tuple[Any, ...]]] = [
            (name, tuple(original[name])) for name in original.columns
        ]
        #: name -> content for the original's columns
        self._original_columns: Dict[str, _ColumnContent] = {}
        for name, values in self._original_pairs:
            content = self._memo.peek(values)
            if content is None:
                content = _ColumnContent(values)
                self._memo[values] = content
            self._original_columns[name] = content
        self._original_rows_n = len(original)
        self._value_union: Optional[frozenset] = None
        self._row_set: Optional[frozenset] = None

    # ----------------------------------------------------- original-side state
    def _original_value_union(self) -> frozenset:
        if self._value_union is None:
            self._value_union = frozenset().union(
                *(
                    content.value_set()
                    for content in self._original_columns.values()
                )
            )
        return self._value_union

    def _original_row_set(self) -> frozenset:
        if self._row_set is None:
            self._row_set = self._rows_from(
                list(self._original_columns.values()),
                self._original_rows_n,
            )
        return self._row_set

    @staticmethod
    def _rows_from(contents: List[_ColumnContent], n_rows: int) -> frozenset:
        if not contents:
            # a column-free table still has one distinct (empty) row per
            # the naive construction, as long as it has rows at all
            return frozenset([()]) if n_rows else frozenset()
        return frozenset(zip(*(content.normalized() for content in contents)))

    # ------------------------------------------------------------- candidates
    def _content_for(self, values: Tuple[Any, ...]) -> _ColumnContent:
        content = self._memo.peek(values)
        if content is not None:
            self.counters.column_set_reuse += 1
            return content
        content = _ColumnContent(values)
        self._memo[values] = content
        return content

    def _prepared_delta(self, candidate: DataFrame) -> float:
        pairs = [(name, tuple(candidate[name])) for name in candidate.columns]
        if (
            len(candidate) == self._original_rows_n
            and pairs == self._original_pairs
        ):
            self.counters.short_circuits += 1
            return 1.0
        mode = self.intent.mode
        if mode == "cells":
            return self._cells_delta(pairs)
        if mode == "values":
            return self._values_delta(pairs)
        if mode == "rows":
            return self._rows_delta(pairs, len(candidate))
        raise ValueError(f"unknown table-jaccard mode: {mode!r}")

    def _cells_delta(
        self, pairs: List[Tuple[str, Tuple[Any, ...]]]
    ) -> float:
        original = self._original_columns
        intersection = 0
        union = 0
        seen = set()
        for name, values in pairs:
            seen.add(name)
            content_a = original.get(name)
            if content_a is not None and content_a.values == values:
                # unchanged column: A_c == B_c, zero set construction
                n = len(content_a.value_set())
                self.counters.column_set_reuse += 1
                intersection += n
                union += n
                continue
            b = self._content_for(values).value_set()
            if content_a is None:
                union += len(b)
            else:
                a = content_a.value_set()
                common = len(a & b)
                intersection += common
                union += len(a) + len(b) - common
        for name, content in original.items():
            if name not in seen:
                union += len(content.value_set())
        if not union:
            return 1.0
        return intersection / union

    def _values_delta(
        self, pairs: List[Tuple[str, Tuple[Any, ...]]]
    ) -> float:
        original = self._original_value_union()
        candidate: Set[Any] = set()
        for _, values in pairs:
            candidate |= self._content_for(values).value_set()
        common = len(original & candidate)
        union = len(original) + len(candidate) - common
        if not union:
            return 1.0
        return common / union

    def _rows_delta(
        self, pairs: List[Tuple[str, Tuple[Any, ...]]], n_rows: int
    ) -> float:
        original = self._original_row_set()
        candidate = self._rows_from(
            [self._content_for(values) for _, values in pairs],
            n_rows,
        )
        common = len(original & candidate)
        union = len(original) + len(candidate) - common
        if not union:
            return 1.0
        return common / union


class PreparedModelPerformance(PreparedIntent):
    """Incremental Δ_M: the original's downstream accuracy, trained once.

    The naive ``delta`` re-trains the downstream model on the (unchanged)
    original output for every candidate; here it is evaluated once per
    prepared original and the per-check cost is the candidate evaluation
    only.  A candidate whose content fingerprint equals the original's
    short-circuits to the exact naive result without training at all —
    ``evaluate_downstream`` is a deterministic, positional function of
    table content, so identical content implies identical accuracy.
    """

    def __init__(
        self,
        intent: "ModelPerformanceIntent",
        original: DataFrame,
        table_fp: Optional[str] = None,
        counters: Optional[IntentStats] = None,
        verify: bool = False,
    ):
        super().__init__(intent, original, table_fp, counters, verify)
        self._acc_original: Optional[float] = None

    def _original_accuracy(self) -> float:
        if self._acc_original is None:
            self._acc_original = self.intent.accuracy(self.original)
        return self._acc_original

    def _prepared_delta(self, candidate: DataFrame) -> float:
        # evaluated (or raised) first, exactly as the naive path orders it
        acc_orig = self._original_accuracy()
        if table_fingerprint(candidate) == self.table_fp:
            self.counters.short_circuits += 1
            return model_performance_delta(acc_orig, acc_orig)
        try:
            acc_cand = self.intent.accuracy(candidate)
        except DownstreamEvaluationError:
            return 100.0
        return model_performance_delta(acc_orig, acc_cand)


# ------------------------------------------------------------------ measures
class IntentMeasure(ABC):
    """Interface every user-intent measure implements."""

    #: human-readable identifier used in reports
    name: str = "intent"

    @abstractmethod
    def delta(self, original: DataFrame, candidate: DataFrame) -> float:
        """Raw dissimilarity between the two script outputs."""

    @abstractmethod
    def satisfied(self, delta: float) -> bool:
        """Does *delta* respect the user's threshold τ?"""

    def check(self, original: DataFrame, candidate: DataFrame) -> Tuple[float, bool]:
        d = self.delta(original, candidate)
        return d, self.satisfied(d)

    def bare_delta(self, original: DataFrame, candidate: DataFrame) -> float:
        """``delta`` with every cache bypassed — the audit ground truth."""
        return self.delta(original, candidate)

    def cache_key(self) -> Tuple:
        """Hashable identity of everything that affects this measure's
        verdicts, used to address prepared state in caches (private
        attributes — memo state — are excluded by construction)."""
        params = tuple(
            sorted(
                (key, repr(value))
                for key, value in vars(self).items()
                if not key.startswith("_")
            )
        )
        return (type(self).__name__,) + params

    def prepare(
        self,
        original: DataFrame,
        table_fp: Optional[str] = None,
        counters: Optional[IntentStats] = None,
        verify: bool = False,
    ) -> PreparedIntent:
        """Freeze *original* into a reusable verification state."""
        return PreparedIntent(self, original, table_fp, counters, verify)


class TableJaccardIntent(IntentMeasure):
    """Δ_J: candidate output must stay Jaccard-similar to the original.

    ``delta`` is the Jaccard *similarity* (1.0 = identical); the constraint
    is satisfied when similarity ≥ τ_J (paper default 0.9).  The default
    ``mode='values'`` matches the paper's Example 2.1 (distinct cell
    values) — intentionally *unlike* the lower-level :func:`table_jaccard`
    helper, whose default is the stricter ``'cells'``; pass ``'cells'`` or
    ``'rows'`` here for the stricter comparisons.
    """

    name = "table_jaccard"

    def __init__(self, tau: float = 0.9, mode: str = "values"):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau_J must be in [0, 1], got {tau}")
        self.tau = tau
        self.mode = mode

    def delta(self, original: DataFrame, candidate: DataFrame) -> float:
        return table_jaccard(original, candidate, mode=self.mode)

    def satisfied(self, delta: float) -> bool:
        return delta >= self.tau

    def prepare(
        self,
        original: DataFrame,
        table_fp: Optional[str] = None,
        counters: Optional[IntentStats] = None,
        verify: bool = False,
    ) -> PreparedIntent:
        return PreparedTableJaccard(self, original, table_fp, counters, verify)


class ModelPerformanceIntent(IntentMeasure):
    """Δ_M: downstream model accuracy may shift at most τ_M percent.

    A candidate whose output can no longer support the downstream task at
    all (e.g. it dropped the target column) fails the constraint outright.
    The original side's accuracy is cached by table-content fingerprint
    (one slot — a different original invalidates it), so repeated checks
    against one original train its model once.
    """

    name = "model_performance"

    def __init__(
        self,
        target: str,
        tau: float = 1.0,
        task: Optional[str] = None,
        model: str = "logistic",
        random_state: int = 0,
    ):
        if tau < 0:
            raise ValueError(f"tau_M must be non-negative, got {tau}")
        self.target = target
        self.tau = tau
        self.task = task
        self.model = model
        self.random_state = random_state
        self._acc_cache: Optional[Tuple[str, float]] = None

    def accuracy(self, frame: DataFrame) -> float:
        return evaluate_downstream(
            frame,
            self.target,
            task=self.task,
            model=self.model,
            random_state=self.random_state,
        ).accuracy

    def _original_accuracy(self, original: DataFrame) -> float:
        fingerprint = table_fingerprint(original)
        cached = self._acc_cache
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        acc = self.accuracy(original)  # cached only on success
        self._acc_cache = (fingerprint, acc)
        return acc

    def delta(self, original: DataFrame, candidate: DataFrame) -> float:
        acc_orig = self._original_accuracy(original)
        try:
            acc_cand = self.accuracy(candidate)
        except DownstreamEvaluationError:
            return 100.0
        return model_performance_delta(acc_orig, acc_cand)

    def bare_delta(self, original: DataFrame, candidate: DataFrame) -> float:
        acc_orig = self.accuracy(original)
        try:
            acc_cand = self.accuracy(candidate)
        except DownstreamEvaluationError:
            return 100.0
        return model_performance_delta(acc_orig, acc_cand)

    def satisfied(self, delta: float) -> bool:
        return delta <= self.tau

    def prepare(
        self,
        original: DataFrame,
        table_fp: Optional[str] = None,
        counters: Optional[IntentStats] = None,
        verify: bool = False,
    ) -> PreparedIntent:
        return PreparedModelPerformance(
            self, original, table_fp, counters, verify
        )
