"""Host seconds at the reference machine's speed, read off speed probes.

On a shared 2-vCPU VM the benchmark's core was seen to flip between
two speeds about 1.8x apart, for half a second to tens of seconds at a
time, as other tenants' load came and went.  A bare wall time then
measures the neighbours as much as the program: warm replays of one
trace in one process ranged over 40%.

While :meth:`Clock.time` measures a segment, a ``SIGALRM`` interval
timer runs a fixed pure-Python probe kernel every ``PROBE_PERIOD_S`` in
the main thread (between bytecodes: no extra thread or process) and
records how long it took, with the garbage collector off so that none
of the program's own collections land in a probe.  The segment's
reference seconds are its wall seconds, less the time spent in those
probes, times the mean of ``PROBE_REF_S / probe`` over the probes
taken during it and one taken right before and after it.  The probes
are evenly spaced in wall time, so the mean is the segment's
time-weighted speed even when the machine changes speed part-way
through; a median picks one of the two speeds instead (six replays of
one trace in one process ranged over 5% with the mean and 26% with the
median).  A probe stretched by preemption only pulls its own term
towards 0, so it moves the mean by at most its share.  Work that
takes the reference machine one second then counts about one second
whatever the neighbours did; the same replays ranged over 11%.  Under
the heaviest load seen, the simulator's event loop slowed more than the
probe did and still read 10-15% slow.  The probes take 2-3% of the
segment on every build alike.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

PROBE_PERIOD_S = 0.05
PROBE_ITERATIONS = 4_000
#: The probe kernel's time on the reference machine (a 2-vCPU VM,
#: Python 3.11.7) at its faster speed.
PROBE_REF_S = 0.00113


def probe_kernel() -> int:
    """Fixed pure-Python work shaped like the simulator's: tuple-keyed
    dict updates, list appends, a sort."""
    table: Dict[tuple, int] = {}
    items = []
    for i in range(PROBE_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        items.append((i * 7919) % 1009)
    items.sort()
    return sum(table.values()) + items[PROBE_ITERATIONS // 2]


class Clock:
    """Times segments in wall and reference seconds; keeps every probe."""

    def __init__(self) -> None:
        #: Durations of every probe this clock took, in seconds.
        self.probes: List[float] = []

    def _probe(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe_kernel()
            self.probes.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``fn()``, its wall seconds, and those seconds at reference speed."""
        first = len(self.probes)
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        inner = len(self.probes)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        probed = sum(self.probes[inner:])
        self._probe()
        speed = statistics.fmean(
            PROBE_REF_S / probe for probe in self.probes[first:])
        return result, wall, (wall - probed) * speed
