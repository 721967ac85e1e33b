"""Host-speed calibration: timings in reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop timed in 20-second windows spread by about 20%
(interquartile range over median) on the 2-core host this benchmark was
built on, and by 40% over 1-second windows.  Every timing the program
takes is exposed to that drift equally, so a run's raw times move with
the host, not with the program.

A run therefore times, next to the program's work, a fixed calibration
chunk that uses no code of the program: pure-Python dict, list and
string work plus small numpy arithmetic.  The chunk is run in short
bursts interleaved with the program's operations, so its samples cover
the same stretches of the host's speed.  Every reported timing is then
scaled to a reference host on which the chunk takes
``REFERENCE_CHUNK_S``:

    reported = measured * REFERENCE_CHUNK_S / mean(chunk samples)

The mean, not the median: bursts are sized in proportion to the work
around them, so the mean chunk time weights the host's speed the way the
measured total does.  On the 2-core host, ten-second windows of a
parse-and-run loop spread by 0.16 raw and by 0.012 scaled by the mean
chunk time (0.08 scaled by the median).

Throughput and set-up times use the mean over the whole phase or set-up
repetition.  A latency uses the chunks timed around its own operation
(``scale_since``), because a tail is made of a few operations, each
slowed or sped by the host at its own moment.  Chunks must run on the
core that does the work: the host's two cores changed speed
independently (their half-second speeds had a correlation of 0.0), so
``serve-mixed`` times its chunks on the server's core.

A change to the program moves the reported number exactly as it moves
the measured one, since the chunk is independent of the program; a
slower or faster host moves the chunk and the program together, and the
ratio cancels it.  The raw (unscaled) numbers and the mean chunk time go
to the history record next to every scaled metric.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Callable, List

import numpy as np

#: Duration of one calibration chunk on the reference host, in seconds.
#: A fixed constant: it names the reference, it is never measured.
REFERENCE_CHUNK_S = 0.0015

#: Share of a closed loop's measured time spent calibrating: after an
#: operation of duration d, chunks run until about ``d * DUTY`` has passed.
DUTY = 0.1

_ARRAY = np.arange(2048, dtype=np.float64)


def chunk() -> float:
    """The fixed calibration work; returns a checksum so it cannot be
    skipped."""
    table = {}
    words = []
    for i in range(1500):
        key = i % 97
        table[key] = table.get(key, 0) + i
        words.append(f"w{i % 31}_{key}")
    words.sort()
    joined = "|".join(words[::7])
    values = _ARRAY * 1.5 + float(len(joined))
    return float(values.sum()) + sum(table.values())


class HostClock:
    """Collects chunk timings over a run; converts seconds to reference
    seconds."""

    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self.now = now  #: the clock chunks are timed with
        self.samples: List[float] = []
        self.spent = 0.0  #: seconds spent in chunks so far

    def sample(self) -> float:
        """Time one chunk; returns its duration in seconds."""
        start = self.now()
        chunk()
        elapsed = self.now() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        return elapsed

    def burst(self, seconds: float) -> float:
        """Run chunks for about *seconds* (at least one); returns the time
        spent."""
        spent = self.sample()
        while spent < seconds:
            spent += self.sample()
        return spent

    def after(self, work_s: float) -> None:
        """Calibrate after *work_s* seconds of measured work, for about
        ``work_s * DUTY``."""
        self.burst(work_s * DUTY)

    def chunk_s(self) -> float:
        """Mean chunk duration so far (the reference value when no chunk
        has run)."""
        return statistics.fmean(self.samples) if self.samples else REFERENCE_CHUNK_S

    def scale(self) -> float:
        """Factor that turns measured seconds into reference seconds."""
        return REFERENCE_CHUNK_S / self.chunk_s()

    def scale_since(self, first: int) -> float:
        """The scale over the samples from index *first* on: the host's
        speed around one operation."""
        return REFERENCE_CHUNK_S / statistics.fmean(self.samples[first:])

    def reference(self, seconds: float) -> float:
        return seconds * self.scale()


class Ticker:
    """Times one chunk on *clock* every *period* seconds on a thread of
    its own, while the calling thread waits on another process."""

    def __init__(self, clock: HostClock, period: float) -> None:
        self.clock = clock
        self.period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-ticker", daemon=True)

    def _run(self) -> None:
        while True:
            self.clock.sample()
            if self._stop.wait(self.period):
                return

    def __enter__(self) -> "Ticker":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

