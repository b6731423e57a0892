"""Timing of jobs and probes, and in-memory spans for the traced run.

Every job and probe is timed in both modes, because its latency is an
end-to-end metric.  Calls into smoothwords go through `Recorder.call`; with
tracing off that is a plain call, with tracing on it also records a span
(name, start, end, parent job).  Spans stay in memory and are reduced to
per-layer metrics when the round ends.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter


class Recorder:
    """Latencies, outcomes and (when traced) spans of one benchmark round."""

    def __init__(self, traced: bool, paused=lambda: 0.0):
        """`paused()` is the time spent outside the program so far (the
        reference samples of speed.py); it is taken out of every timing."""
        self.traced = traced
        self._paused = paused
        # key -> latency in seconds, for jobs and for single-word probes
        self.jobs: dict[str, float] = {}
        self.queries: dict[str, float] = {}
        # key -> perf_counter readings at its start and end
        self.intervals: dict[str, tuple[float, float]] = {}
        self.answers: dict[str, object] = {}
        self.raised: dict[str, str] = {}
        self.counts: Counter = Counter()
        # (name, start, end, index of the enclosing job span or None)
        self.spans: list[tuple[str, float, float, int | None]] = []
        self._job: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call into the program; record a span named after its layer."""
        if not self.traced:
            return fn(*args, **kwargs)
        start, paused = perf_counter(), self._paused()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, perf_counter() - self._paused()
                               + paused, self._job))

    def count(self, key: str, n: int = 1) -> None:
        if self.traced:
            self.counts[key] += n

    def job(self, key: str, fn, *args):
        return self._timed(self.jobs, key, fn, args)

    def query(self, key: str, fn, *args):
        return self._timed(self.queries, key, fn, args)

    def _timed(self, latencies: dict[str, float], key: str, fn, args):
        """Run one job or probe; an exception is recorded against its key."""
        if key in self.answers or key in self.raised:
            raise ValueError(f"duplicate job key {key!r}")
        if self.traced:
            self._job = len(self.spans)
            self.spans.append(("job", 0.0, 0.0, None))  # filled in below
        start, paused = perf_counter(), self._paused()
        answer = None
        try:
            answer = fn(*args)
        except Exception as exc:  # a failed job is counted, not fatal
            self.raised[key] = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        self.intervals[key] = (start, end)
        latencies[key] = end - start - (self._paused() - paused)
        end = start + latencies[key]  # spans hold times net of pauses
        if self.traced:
            self.spans[self._job] = ("job", start, end, None)
            self._job = None
        if key not in self.raised:
            self.answers[key] = answer
        return answer

    @property
    def attempted(self) -> int:
        return len(self.jobs) + len(self.queries)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another, so their durations add up
    without overlap.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(rec: Recorder, per_layer
                  ) -> tuple[dict[str, float], dict[str, list[int]]]:
    """Reduce a traced round to per-layer values, and each ratio's base."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for (name, start, end, _), own in zip(rec.spans, self_times(rec.spans)):
        self_s[name] += own
        calls[name] += 1
        durations.setdefault(name, []).append(end - start)
    counts = Counter(rec.counts)
    counts["trace.spans"] = len(rec.spans)
    out, bases = {}, {}
    for metric, _, source in per_layer:
        kind, *keys = source
        if kind == "self":
            out[metric] = self_s[keys[0]]
        elif kind == "calls":
            out[metric] = calls[keys[0]]
        elif kind == "count":
            out[metric] = counts[keys[0]]
        elif kind == "ratio":
            den = counts[keys[1]]
            bases[metric] = [counts[keys[0]], den]
            out[metric] = counts[keys[0]] / den if den else 0.0
        elif kind == "median_ms":
            values = durations.get(keys[0])
            out[metric] = 1e3 * statistics.median(values) if values else 0.0
        else:
            raise ValueError(f"unknown per-layer source {source!r}")
    return out, bases
