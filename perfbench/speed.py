"""Host-speed scaling of the benchmark's timings.

On a shared virtual machine the same pure-Python work runs at different
speeds from one moment to the next: BASELINE.md measured levels up to a
factor of two apart, switching within milliseconds and drifting over
minutes.  Every time the benchmark reports is therefore scaled to one
reference speed.  A fixed probe, which uses nothing of triform, runs
every PROBE_EVERY_S from an interval timer, also in the middle of an
operation, and its time is taken out of the operation's.  A sample of
``dt`` seconds is reported as ``dt * PROBE_REF_S / p``, where ``p`` is
the mean time of the probes inside the sample and within its own length
(at least WINDOW_S) before and after it.  A change to the program moves
``dt`` and not ``p``, so it shows in full; a change of host speed moves
both alike and cancels.
"""

from __future__ import annotations

import bisect
import signal
import time
from itertools import accumulate
from typing import Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T")

# Seconds one probe takes at the fast level of the machine in BASELINE.md.
# Scaled seconds are seconds on that machine at that level.
PROBE_REF_S = 0.0005
PROBE_EVERY_S = 0.02
# A sample is scaled by the probes inside it and those within its own
# length, at least WINDOW_S, before and after it.
WINDOW_S = 0.02

_PROBE_TEXT = "".join(f"{i:04d}|" for i in range(400))


def _probe_work() -> int:
    """Fixed dict, integer, string and sort work: the kind of work the
    validators do, without allocating objects the garbage collector
    tracks (two lists at most), so the probe hardly ever pays for a
    collection of the program's heap."""
    counts: Dict[int, int] = {}
    acc = 0
    for i in range(3000):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + i
        acc ^= k
    acc += len(sorted(counts.values()))
    acc += sum(len(part) for part in _PROBE_TEXT.split("|"))
    return acc


def probe() -> float:
    """Seconds of one run of the probe."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def warm_up() -> None:
    """Let the interpreter specialise the probe's bytecode."""
    for _ in range(20):
        _probe_work()


class Scaler:
    """Timing samples of one process, scaled by the probes around them.

    From construction to ``finish`` an interval timer (SIGALRM) runs the
    probe every PROBE_EVERY_S, also in the middle of an operation, so a
    long operation is scaled by the speed the host had while it ran.
    ``time(fn)`` runs ``fn`` and returns its result and the index of its
    sample.  ``finish`` stops the timer and returns every sample with
    the time of the probes inside it taken out: ``raw`` unscaled,
    the return value scaled."""

    def __init__(self) -> None:
        warm_up()
        self.raw: List[float] = []
        self._spans: List[Tuple[float, float]] = []
        self._probe_t: List[float] = []  # when each probe's handler started
        self._probe_s: List[float] = []  # the probe's own seconds
        self._probe_d: List[float] = []  # the handler's seconds, the probe included
        self._on_timer(0, None)
        self._old_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        p = probe()
        self._probe_t.append(t0)
        self._probe_s.append(p)
        self._probe_d.append(time.perf_counter() - t0)

    def time(self, fn: Callable[[], T]) -> Tuple[T, int]:
        t0 = time.perf_counter()
        out = fn()
        self._spans.append((t0, time.perf_counter()))
        return out, len(self._spans) - 1

    def last_s(self) -> float:
        """Wall seconds of the latest sample, probes included."""
        t0, t1 = self._spans[-1]
        return t1 - t0

    def finish(self) -> List[float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._on_timer(0, None)
        pt = self._probe_t
        cum_s = [0.0, *accumulate(self._probe_s)]
        cum_d = [0.0, *accumulate(self._probe_d)]
        scaled = []
        for t0, t1 in self._spans:
            dt = t1 - t0 - (cum_d[bisect.bisect_left(pt, t1)] - cum_d[bisect.bisect_left(pt, t0)])
            window = max(WINDOW_S, t1 - t0)
            lo = bisect.bisect_left(pt, t0 - window)
            hi = bisect.bisect_right(pt, t1 + window)
            if hi == lo:  # the timer was held off around the sample: take the nearest probes
                lo, hi = max(lo - 1, 0), min(hi + 1, len(pt))
            self.raw.append(dt)
            scaled.append(dt * PROBE_REF_S * (hi - lo) / (cum_s[hi] - cum_s[lo]))
        return scaled

    def probe_median_s(self) -> float:
        ordered = sorted(self._probe_s)
        return ordered[len(ordered) // 2]
