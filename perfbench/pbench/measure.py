"""Statistics, resource readings and the result/history records.

Everything here is independent of the program under test, so the
benchmark's own tests exercise it without building a workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import statistics
import time
from typing import Dict, Iterable, Optional, Sequence

#: Samples a reported tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: The tail percentile reported when enough samples allow it.
TAIL_CAP = 95

#: Requests answered ok within this many seconds meet the serving SLO.
SLO_S = 1.0

#: End-to-end metrics every workload reports with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("improvement_mean_pct", "%"),
    ("peak_rss_mb", "MB"),
)

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def nearest_rank(values: Sequence[float], percent: int) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    *percent* % of the samples at or below it (no interpolation)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]


def tail_percent(n: int, cap: int = TAIL_CAP, beyond: int = TAIL_BEYOND) -> int:
    """The highest whole percentile <= *cap* whose nearest-rank sample
    has at least *beyond* samples above it; 50 when none has."""
    for percent in range(cap, 50, -1):
        if n - (-(-percent * n // 100)) >= beyond:
            return percent
    return 50


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50 and the tail percentile of a latency sample, in ms."""
    if not seconds:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percent": 0, "n": 0}
    percent = tail_percent(len(seconds))
    return {
        "p50_ms": nearest_rank(seconds, 50) * 1000.0,
        "tail_ms": nearest_rank(seconds, percent) * 1000.0,
        "tail_percent": percent,
        "n": len(seconds),
    }


def slo_met_share(outcomes: Iterable[Optional[float]], slo_s: float = SLO_S) -> float:
    """Share of requests answered ok within *slo_s*.

    An outcome is the latency of an ok answer, or None for a request
    that failed, was refused or never answered; None counts as a miss.
    """
    outcomes = list(outcomes)
    if not outcomes:
        return 0.0
    met = sum(1 for latency in outcomes if latency is not None and latency <= slo_s)
    return met / len(outcomes)


def failed_share(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory of this process (plus the largest waited-for
    child when asked), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> Dict[str, object]:
    """The verdict the benchmark prints last, as one JSON line."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def render_table(title: str, metrics: Dict[str, Dict[str, object]]) -> str:
    width = max((len(name) for name in metrics), default=10)
    lines = [title]
    for name, entry in metrics.items():
        lines.append(f"  {name:<{width}}  {entry['value']:>14.4f}  {entry['unit']}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# History: one appended record per run, keyed by commit
# --------------------------------------------------------------------------


def src_digest(src_dir: str) -> str:
    """Content hash of the program's Python sources: the commit key when
    the checkout is not a git repository."""
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> Optional[str]:
    """HEAD of *root* when it is a git checkout, read without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(root, ".git", ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def history_record(
    root: str,
    src_dir: str,
    workload: str,
    seed: int,
    seconds: int,
    trace: bool,
    verdict: Dict[str, object],
    extras: Dict[str, object],
) -> Dict[str, object]:
    return {
        "commit": git_commit(root),
        "src_digest": src_digest(src_dir),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": effective_cores(),
        "python": platform.python_version(),
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: entry["value"] for name, entry in verdict["metrics"].items()},
        "extras": extras,
    }


def append_history(path: str, record: Dict[str, object]) -> None:
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
