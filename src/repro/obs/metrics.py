"""Metric primitives shared by the service counters and the exporter.

* :class:`Histogram` — fixed buckets, cumulative ``le`` counts plus
  ``_sum`` / ``_count`` series; the latency buckets default to a spread
  that resolves both the sub-millisecond warm-cache path and multi-second
  cold cluster rounds.  :class:`repro.metrics.service.ServiceMetrics`
  keeps one for request latency.
* :data:`Sample` and the ``_fmt_*`` helpers — the row type and the
  Prometheus text formatting :mod:`repro.obs.export` renders with.

There is no registry: the only live counters are ``ServiceMetrics``'s,
read through one :class:`~repro.metrics.service.ServiceSnapshot` at
scrape time.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = ["Histogram", "Sample", "DEFAULT_LATENCY_BUCKETS"]

#: Seconds.  Spans warm-cache hits (~100us) through cold cluster rounds.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

Sample = tuple[str, dict[str, str], float]  # (name, labels, value)


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Histogram:
    """Fixed buckets: cumulative ``le`` counts plus ``_sum`` / ``_count``."""

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> dict[str, Any]:
        """Cumulative bucket counts keyed by upper bound, plus sum/count."""
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative[_fmt_value(bound)] = running
        cumulative["+Inf"] = total_count
        return {"buckets": cumulative, "sum": total_sum, "count": total_count}
