"""Host-speed calibration for the benchmark's times.

The shared 2-vCPU Xeon VMs this benchmark was tuned on change speed by
up to 2x, per vCPU, from one second to the next and over minutes. The
slowdown is the CPU's own: user time tracks wall time, system time
stays near zero, and a fixed pure-Python task slows by the same factor
as the simulator. Raw seconds measured minutes apart therefore differ
by more than any useful bound.

A :class:`Calibration` runs a fixed reference task from a ``SIGALRM``
handler every ``INTERVAL_S`` seconds of the iteration's process, and
records the task's CPU time each time. The time spent in the handler
is subtracted from the times it paused, which are then scaled by
``REFERENCE_S / mean(task CPU time)``: the seconds the iteration would
have taken on a host that runs the task in ``REFERENCE_S``. Sampling
throughout the run on the process's own vCPU matters: timings taken
only before and after the run tracked the host worse than raw wall
time did.

Only the iteration's own process samples. On ``sweep`` that process
waits while its fleet workers keep both vCPUs busy, so its samples are
taken beside them; the task's CPU time does not count the time it
waits for a vCPU, and two co-running busy processes did not slow it on
the tuning host (median ratio 0.97 over 8 alternations of an idle and a
loaded phase), so the factor follows the host, not how the program's
processes overlap. The workers do not sample: their handler time would
lie on the sweep's critical path. The task touches no program state
and lives in the benchmark, so no change to the program under test can
move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: the reference task's CPU time on the tuning host in a quiet phase
REFERENCE_S = 0.015

#: seconds between reference samples
INTERVAL_S = 0.25

#: fewest samples a factor is computed from
MIN_SAMPLES = 4


def _reference_task() -> int:
    """Integer arithmetic on one small list, so the collector never runs."""
    table = [0] * 4099
    acc = 0
    for i in range(150_000):
        key = (i * 7919) % 4099
        table[key] += i & 7
        acc ^= key
    return acc


class Calibration:
    """Periodic reference samples taken while the workload runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: wall seconds spent sampling, to subtract from measured times
        self.paused_s = 0.0

    def _sample(self, *_: object) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        _reference_task()
        self.samples.append(time.thread_time() - cpu)
        self.paused_s += time.perf_counter() - wall

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Multiplier from this run's host speed to the reference speed.

        Call after :meth:`stop`; a run too short for ``MIN_SAMPLES``
        samples is topped up with samples taken now.
        """
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        return REFERENCE_S / statistics.mean(self.samples)

