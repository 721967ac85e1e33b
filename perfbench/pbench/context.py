"""What one benchmark run knows about itself, and its closed-loop driver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .calibrate import HostClock
from .tracing import Instrumentation, Tracer

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass
class Run:
    src: str  #: the program's sources
    bench_dir: str
    work: str  #: private scratch directory, removed when the run ends
    seed: int
    seconds: int
    trace: bool
    tracer: Tracer = field(default_factory=Tracer)
    instrumentation: Optional[Instrumentation] = None
    #: calibration of the measured phase (see ``pbench.calibrate``)
    clock: HostClock = field(default_factory=HostClock)
    #: calibration of the set-up repetition in progress
    setup_clock: HostClock = field(default_factory=HostClock)

    def pause(self, work_s: float) -> None:
        """Calibrate after *work_s* seconds of set-up work; builds call it
        between their pieces."""
        self.setup_clock.after(work_s)

    def setup(self, build: Callable[[int], Any]) -> Tuple[Any, List[float], List[float]]:
        """Run *build* ``SETUP_REPS`` times; returns the last result and
        every repetition's duration, in reference seconds and as
        measured.  Calibration between the build's pieces is not counted.
        Traced runs record each repetition as a ``workloads.build`` span."""
        durations, raw = [], []
        value = None
        self.tracer.enabled = self.trace
        self.tracer.op = "setup"
        try:
            for rep in range(SETUP_REPS):
                self.setup_clock = HostClock()
                start = time.perf_counter()
                value = self.tracer.call("workloads.build", build, rep)
                measured = time.perf_counter() - start - self.setup_clock.spent
                raw.append(measured)
                durations.append(self.setup_clock.reference(measured))
        finally:
            self.tracer.enabled = False
            self.tracer.op = None
        return value, durations, raw

    def start_tracing(self) -> None:
        if self.instrumentation is None:
            self.instrumentation = Instrumentation(self.tracer)
        self.instrumentation.install()

    def stop_tracing(self) -> None:
        if self.instrumentation is not None:
            self.instrumentation.remove()


@dataclass
class OpResult:
    op: Any
    latency_s: float  #: the call the workload times (see each workload)
    wall_s: float  #: the whole operation, as the loop saw it
    value: Any
    failed: bool
    #: reference seconds per measured second around this operation: from
    #: the calibration bursts just before and just after it
    scale: float = 1.0


@dataclass
class LoopOutcome:
    results: List[OpResult]  #: measured results (traced ones when tracing)
    wall_s: float  #: the timed phase's wall time, calibration excluded
    traced_wall_s: float = 0.0
    #: (traced, untraced) wall seconds of each operation of a traced run
    pairs: List[Tuple[float, float]] = field(default_factory=list)
    corpus: List[Dict[str, float]] = field(default_factory=list)
    mismatches: List[Any] = field(default_factory=list)

    def overhead(self) -> Tuple[float, float]:
        """Tracing overhead as (seconds, % of the untraced wall): the
        median per-operation excess of the traced run over its untraced
        repeat, scaled to the untraced total.  The repeat finds the
        operation's own caches warm, so this errs high."""
        if not self.pairs:
            return 0.0, 0.0
        ratios = sorted(traced / plain - 1.0 for traced, plain in self.pairs)
        share = ratios[len(ratios) // 2]
        return share * sum(plain for _, plain in self.pairs), 100.0 * share


def closed_loop(
    run: Run,
    ops: Sequence[Any],
    execute: Callable[[Any], OpResult],
    same: Callable[[Any, Any], bool],
) -> LoopOutcome:
    """One caller, next operation after the previous one completes, for
    ``run.seconds``; the op list repeats if the phase outlasts it.

    A traced run executes every operation traced, then once more
    untraced; the traced execution sees the caches an untraced run would
    and supplies every per-layer number, the repeat measures the tracing
    overhead, and both must produce the same output.

    After every operation the host clock calibrates for a share of the
    operation's wall time; that time is left out of ``wall_s``.  The
    bursts on either side of an operation give its own ``scale``.
    """
    from repro.corpus import corpus_cache_counters

    from .layers import corpus_delta

    outcome = LoopOutcome(results=[], wall_s=0.0)
    calibrated = run.clock.spent
    start = time.perf_counter()
    position = 0
    previous_burst = len(run.clock.samples)
    while True:
        op = ops[position % len(ops)]
        if not run.trace:
            result = execute(op)
            burst = len(run.clock.samples)
            run.clock.after(result.wall_s)
            result.scale = run.clock.scale_since(previous_burst)
            previous_burst = burst
            outcome.results.append(result)
        else:
            run.tracer.op = position
            before = corpus_cache_counters()
            run.start_tracing()
            try:
                traced = execute(op)
            finally:
                run.stop_tracing()
            outcome.corpus.append(corpus_delta(before, corpus_cache_counters()))
            outcome.traced_wall_s += traced.wall_s
            plain = execute(op)
            run.clock.after(traced.wall_s + plain.wall_s)
            outcome.pairs.append((traced.wall_s, plain.wall_s))
            if not same(plain.value, traced.value):
                outcome.mismatches.append(op)
            outcome.results.append(traced)
        position += 1
        if time.perf_counter() - start >= run.seconds:
            break
    outcome.wall_s = time.perf_counter() - start - (run.clock.spent - calibrated)
    return outcome


@dataclass
class Verdict:
    """What a workload hands back to the command line."""

    problems: List[str]  #: correctness-gate failures (empty = correct)
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, object]]  #: end-to-end, or per-layer when traced
    extras: Dict[str, object]  #: workload-specific numbers for the history
    report: str = ""  #: human-readable tables, printed before the verdict
