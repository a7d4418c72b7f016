"""The one stage clock: named busy-time buckets that are also spans.

The paper argues from per-stage time decompositions — Fig. 2 splits the
SDBMS query into index build / search / ``ST_Intersects`` / area
components, Table 1 and Fig. 6 split the pipeline into parser, builder,
filter and aggregator.  :class:`StageClock` is the single accumulator
behind both: :meth:`~StageClock.measure` charges the enclosed block's
wall time to a named bucket and, when a tracer is ambient, records the
same interval as a span — one instrumentation point, so a stage's total
in :meth:`~StageClock.report` and its spans in ``repro trace show``
cannot drift apart.

A clock may be charged from several threads at once, so every mutation
and every multi-bucket read takes the instance lock.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.trace import span

__all__ = ["StageClock", "OTHER"]

#: Bucket name of the residual between total wall time and measured time.
OTHER = "Other"


class StageClock:
    """Thread-safe named wall-time buckets and tallies.

    ``namespace`` prefixes the bucket name in span names and in
    :meth:`report` (the pipeline's ``"parser"`` bucket is the
    ``pipeline.parser`` span); bucket keys themselves stay short.

    >>> clock = StageClock()
    >>> with clock.measure("Index_Build"):
    ...     _ = sum(range(100))
    >>> clock.seconds("Index_Build") >= 0.0, clock.counts["Index_Build"]
    (True, 1)
    """

    __slots__ = ("namespace", "totals", "counts", "wall_total", "_lock")

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self.totals: dict[str, float] = {}
        #: Calls per measured bucket, plus the plain :meth:`count` tallies.
        self.counts: Counter[str] = Counter()
        self.wall_total = 0.0
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` of one call to ``name``."""
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + seconds
            self.counts[name] += 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a plain tally (no time attached)."""
        with self._lock:
            self.counts[name] += n

    @contextmanager
    def measure(self, name: str, **attrs: Any) -> Iterator[None]:
        """Charge the enclosed block to ``name``; a span when traced."""
        with span(self.namespace + name, **attrs):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.add(name, time.perf_counter() - start)

    @contextmanager
    def run(self) -> Iterator[None]:
        """Measure the whole run's wall time (the ``Other`` residual's base)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.wall_total += elapsed

    def seconds(self, name: str) -> float:
        """Accumulated seconds in ``name``."""
        return self.totals.get(name, 0.0)

    def decomposition(self) -> dict[str, float]:
        """Bucket shares of the total wall time (fractions, sum ~1).

        The residual between total wall time and the measured buckets is
        reported as ``Other`` — in the paper's profile this is tuple
        shuffling, predicate glue, and aggregation.  Buckets measured on
        overlapping threads can sum past the wall time; shares are then
        of the measured sum.
        """
        with self._lock:
            totals = dict(self.totals)
            wall = self.wall_total
        measured = sum(totals.values())
        total = max(wall, measured)
        if total == 0:
            return {}
        out = {name: value / total for name, value in totals.items()}
        other = (total - measured) / total
        if other > 0:
            out[OTHER] = out.get(OTHER, 0.0) + other
        return out

    def report(self) -> str:
        """Human-readable decomposition table, largest share first."""
        rows = sorted(
            self.decomposition().items(), key=lambda kv: kv[1], reverse=True
        )
        with self._lock:
            totals, counts = dict(self.totals), dict(self.counts)
            lines = [f"total wall time: {self.wall_total:.3f}s"]
        for name, share in rows:
            label = name if name == OTHER else self.namespace + name
            lines.append(
                f"  {label:<22} {100 * share:6.2f}%  "
                f"({totals.get(name, 0.0):.3f}s, {counts.get(name, 0)} calls)"
            )
        return "\n".join(lines)
