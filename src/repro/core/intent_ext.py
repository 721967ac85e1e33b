"""Additional user-intent measures (the paper's Section 8 extensions).

The paper names two future-work intent measures beyond Table Jaccard and
Model Performance: (a) comparing scripts' *bags of operations*, and
(b) model **fairness** constraints (citing Guha et al.).  Both are
implemented here against the same :class:`IntentMeasure` interface, so
they plug into :class:`LucidScript` unchanged.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ..lang import ScriptError, parse_script
from ..minipandas import DataFrame, is_missing
from ..ml import DownstreamEvaluationError, prepare_features
from ..ml.linear import LogisticRegression
from .intent import IntentMeasure

__all__ = ["BagOfOperationsIntent", "FairnessIntent", "demographic_parity_difference"]


def _operation_bag(script: str) -> Counter:
    """1-gram atom multiset of a script (its bag of operations)."""
    return parse_script(script).onegram_counter()


def _cosine(a: Counter, b: Counter) -> float:
    keys = set(a) | set(b)
    if not keys:
        return 1.0
    dot = sum(a.get(k, 0) * b.get(k, 0) for k in keys)
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0 or norm_b == 0:
        return 1.0 if norm_a == norm_b else 0.0
    return dot / (norm_a * norm_b)


class BagOfOperationsIntent(IntentMeasure):
    """Δ_B: cosine similarity of the scripts' operation bags.

    Unlike the output-based measures this compares the *scripts*
    themselves (Section 8: "comparing their bags of operations"), so no
    execution is needed.  ``delta`` is a similarity in [0, 1]; satisfied
    when similarity ≥ τ.

    Because it needs script text rather than tables, call
    :meth:`delta_scripts`; the table-based :meth:`delta` raises
    ``TypeError``.
    """

    name = "bag_of_operations"

    def __init__(self, tau: float = 0.7):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        self.tau = tau

    def delta_scripts(self, original: str, candidate: str) -> float:
        try:
            return _cosine(_operation_bag(original), _operation_bag(candidate))
        except ScriptError:
            return 0.0

    def delta(self, original: DataFrame, candidate: DataFrame) -> float:
        raise TypeError(
            "BagOfOperationsIntent compares scripts, not tables; "
            "use delta_scripts()"
        )

    def satisfied(self, delta: float) -> bool:
        return delta >= self.tau


def demographic_parity_difference(
    frame: DataFrame,
    target: str,
    sensitive: str,
    random_state: int = 0,
) -> float:
    """|P(ŷ=1 | s=a) − P(ŷ=1 | s=b)| of a model trained on *frame*.

    The sensitive column is binarized by its most common value; returns a
    value in [0, 1] (0 = perfectly parity-fair predictions).
    """
    if sensitive not in frame.columns:
        raise DownstreamEvaluationError(f"sensitive column {sensitive!r} missing")
    sensitive_values = [
        None if is_missing(v) else v for v in frame[sensitive]
    ]
    present = [v for v in sensitive_values if v is not None]
    if not present:
        raise DownstreamEvaluationError("sensitive column is entirely missing")
    majority = Counter(present).most_common(1)[0][0]
    group_a = np.array([v == majority for v in sensitive_values])

    X, y = prepare_features(frame, target)
    labels = np.array(y)
    if len(np.unique(labels)) < 2:
        return 0.0
    # align the group mask with the rows prepare_features kept
    kept = [
        pos for pos, v in enumerate(frame[target]) if not is_missing(v)
    ]
    group_a = group_a[kept]

    n = X.shape[0]
    order = np.random.default_rng(random_state).permutation(n)
    n_test = min(max(1, int(round(n * 0.25))), n - 1)
    test_idx, train_idx = order[:n_test], order[n_test:]
    if len(np.unique(labels[train_idx])) < 2:
        return 0.0

    model = LogisticRegression().fit(X[train_idx], labels[train_idx])
    predictions = model.predict(X[test_idx])
    positive = model.classes_[-1]
    mask = group_a[test_idx]
    if mask.all() or not mask.any():
        return 0.0
    rate_a = float(np.mean(predictions[mask] == positive))
    rate_b = float(np.mean(predictions[~mask] == positive))
    return abs(rate_a - rate_b)


class FairnessIntent(IntentMeasure):
    """Δ_F: the candidate must not worsen demographic parity by more than τ.

    ``delta`` is the *increase* in demographic-parity difference moving
    from the original output to the candidate output (negative = fairer);
    satisfied when delta ≤ τ.
    """

    name = "fairness"

    def __init__(
        self,
        target: str,
        sensitive: str,
        tau: float = 0.05,
        random_state: int = 0,
    ):
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        self.target = target
        self.sensitive = sensitive
        self.tau = tau
        self.random_state = random_state

    def delta(self, original: DataFrame, candidate: DataFrame) -> float:
        base = demographic_parity_difference(
            original, self.target, self.sensitive, self.random_state
        )
        try:
            new = demographic_parity_difference(
                candidate, self.target, self.sensitive, self.random_state
            )
        except DownstreamEvaluationError:
            return 1.0  # candidate destroyed the columns the check needs
        return new - base

    def satisfied(self, delta: float) -> bool:
        return delta <= self.tau
