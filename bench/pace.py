"""The host's pace, sampled while a pass runs, to scale the pass's times.

On the shared 2-vCPU VM the benchmark was tuned on, the same pure-Python
work ran up to 1.7 times slower for stretches of seconds to minutes,
longer than one run can average away, so the run medians of ten seeds
spread by more than a quarter.  A ``Pacer`` times a small, fixed piece of
interpreter work that never touches binposet (``reference_work``): once
before every task and, from a ``SIGALRM`` interval timer, every
``PERIOD_S`` while a task runs.  A task's scaled time is its raw time
times ``REFERENCE_S`` over the mean of its samples, i.e. its time at the
pace where the reference work takes ``REFERENCE_S``.  A change to binposet
moves the scaled times as much as the raw ones; the scaling removes only
the host's pace.  The time spent in samples during a task is taken out of
the task's raw wall and CPU time.
"""

from __future__ import annotations

import signal
import time

REFERENCE_LOOPS = 12_000
REFERENCE_S = 0.0055  # about the mean sample during passes on that VM
PERIOD_S = 0.2


def reference_work() -> float:
    """Seconds taken by a fixed piece of tuple hashing, dict and set work."""
    t0 = time.perf_counter()
    seen: dict[tuple[int, int], int] = {}
    keys: set[int] = set()
    for i in range(REFERENCE_LOOPS):
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + 1
        keys.add(i * 7 % 5003)
    sorted(seen.items())
    return time.perf_counter() - t0


class Pacer:
    """Samples of the reference work.  As a context manager it also samples
    every PERIOD_S of wall time, if ``timer`` is set."""

    def __init__(self, timer: bool) -> None:
        self.timer = timer
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent sampling

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_work())
        self.spent += time.perf_counter() - t0

    def scale(self, first: int) -> float:
        """REFERENCE_S over the mean of the samples from index ``first`` on."""
        got = self.samples[first:]
        return REFERENCE_S * len(got) / sum(got)

    def __enter__(self) -> Pacer:
        if self.timer:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
