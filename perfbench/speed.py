"""The machine's speed, measured beside the program, and times at reference speed.

On a shared machine the same fixed pure-Python loop runs up to 2x slower
from one second to the next, and its median over ten seconds drifts by
±20% from one minute to the next (CPU time drifts with wall time, so the
cores themselves slow, most likely under other tenants; it is not
preemption that a CPU clock could leave out).  Raw wall times of two runs
of the same code therefore differ by more than any useful bound.

So every round also times a fixed reference, written here and independent
of smoothwords, all through its timed phase, and every time the benchmark
reports is scaled to reference speed:

    time at reference speed = measured time / slowdown
    slowdown = reference time / its nominal time

where the reference time is the median of the samples taken while the
timed item ran (`Speedometer.reference`): the time the program would have
taken had the machine run the reference in exactly its nominal time.  A
change to the program moves the measured time and not the reference, so it
moves the scaled time by the same share; a change in the machine's speed
moves both and cancels.  The raw times and the slowdown are printed beside
the scaled ones.

Two references, one per kind of item:

- LOOP, for items that run in the round's own process: `reference_loop`,
  about 1 ms of run-length, dictionary and byte-string work, taken every
  EVERY_S by a timer signal that interrupts the program, so a long job is
  scaled by the speed the machine had while it ran; the sample's own time
  is taken out of the job's.  It costs about 5% of the timed phase.
- LAUNCH, for `cli`, whose items are child processes: `reference_launch`,
  one start of a Python interpreter that does nothing, taken before each
  item.  A CLI command's time is mostly process creation, interpreter start
  and imports, which a loop inside the parent does not track.  The child
  runs alone (no timer), so nothing shares its CPU.
"""

from __future__ import annotations

import signal
import statistics
import sys
from bisect import bisect, bisect_left
from time import perf_counter

import specs

# Period of the LOOP reference's timer.
EVERY_S = 0.02

_WORD = bytes((1, 2, 2, 1, 1, 2, 1, 2, 2, 1, 2, 2, 1, 1, 2, 1, 1, 2, 2, 1) * 20)


def reference_loop() -> int:
    """Run lengths, a dictionary and byte strings: the kind of work
    smoothwords does, in a loop whose size never changes."""
    seen: dict[bytes, int] = {}
    total = 0
    for shift in range(40):
        word = _WORD[shift:] + _WORD[:shift]
        runs = []
        last, length = word[0], 0
        for letter in word:
            if letter == last:
                length += 1
            else:
                runs.append(length)
                last, length = letter, 1
        runs.append(length)
        key = bytes(runs)
        seen[key] = seen.get(key, 0) + 1
        total += sum(runs) + len(seen)
    return total


def reference_launch() -> None:
    """Start a Python interpreter that does nothing, and wait for it: the
    part of every CLI command that is not smoothwords."""
    code, _ = specs.run_child([sys.executable, "-c", "pass"], timeout=60)
    if code != 0:
        raise RuntimeError(f"reference interpreter exited {code}")


# Each reference with its nominal time: about its median on the 2-core
# machine the benchmark was written on.
LOOP = (reference_loop, 0.001)
LAUNCH = (reference_launch, 0.06)


class Speedometer:
    """Reference samples taken through a round's timed phase.

    Use as a context manager around the timed phase, and call
    `before_item` before each item.  `sampled_s` is the time spent
    sampling so far; the recorder takes its growth out of every job, probe
    and span it times.
    """

    def __init__(self, reference=LOOP) -> None:
        self._reference, self.nominal_s = reference
        self.on_timer = reference is LOOP
        self.samples: list[float] = []  # seconds per reference
        self.times: list[float] = []  # when each sample started
        self.sampled_s = 0.0

    def sample(self, *_signal) -> None:
        start = perf_counter()
        self._reference()
        end = perf_counter()
        self.samples.append(end - start)
        self.times.append(start)
        self.sampled_s += perf_counter() - start

    def before_item(self) -> None:
        if not self.on_timer:
            self.sample()

    def __enter__(self) -> "Speedometer":
        self.sample()
        if self.on_timer:
            self._handler = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.on_timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def reference(self, start: float, end: float) -> float:
        """Reference time while [start, end] ran: the median of the samples
        taken inside it, or, with fewer than three there, of those and the
        three on either side, so that one stray sample moves it little."""
        lo, hi = bisect_left(self.times, start), bisect(self.times, end)
        if hi - lo < 3:
            lo, hi = max(0, lo - 3), hi + 3
        return statistics.median(self.samples[lo:hi])

    def slowdown(self, start: float, end: float) -> float:
        return self.reference(start, end) / self.nominal_s
