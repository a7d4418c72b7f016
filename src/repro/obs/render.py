"""Pretty-print a span tree with per-stage percentages.

``repro trace show <file>`` reads a trace JSON-lines file (the
``--trace-out`` sink) and renders each trace as an indented tree — the
paper's Fig. 2 stage breakdown, but live: every stage's share of the
request's total wall time is printed next to its duration.  Below the
trees comes the by-stage table: span self time summed per name into a
:class:`~repro.obs.clock.StageClock` and printed by its ``report()``,
the renderer every other per-stage table uses.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, TextIO

from repro.obs.clock import StageClock
from repro.obs.trace import SpanRecord

__all__ = ["load_trace_file", "render_spans", "render_trace_file", "stage_clock"]


def load_trace_file(fh: TextIO) -> list[SpanRecord]:
    """Span rows from a trace JSONL stream (non-span events skipped)."""
    records: list[SpanRecord] = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, Mapping) and "span_id" in row and "trace_id" in row:
            try:
                records.append(SpanRecord.from_dict(row))
            except (KeyError, TypeError, ValueError):
                continue
    return records


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def _fmt_attrs(attrs: Mapping[str, Any]) -> str:
    if not attrs:
        return ""
    body = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  [{body}]"


def render_spans(records: Iterable[SpanRecord]) -> str:
    """Indented span trees, one per trace id, with stage percentages."""
    by_trace: dict[str, list[SpanRecord]] = {}
    for record in records:
        by_trace.setdefault(record.trace_id, []).append(record)
    if not by_trace:
        return "(no spans)"

    blocks: list[str] = []
    for trace_id, spans in by_trace.items():
        ids = {s.span_id for s in spans}
        children: dict[str | None, list[SpanRecord]] = {}
        for span in spans:
            # A parent missing from the record set (e.g. trimmed file)
            # promotes the span to a root rather than dropping it.
            parent = span.parent_id if span.parent_id in ids else None
            children.setdefault(parent, []).append(span)
        for rows in children.values():
            rows.sort(key=lambda s: s.start)
        roots = children.get(None, [])
        total = max((r.duration for r in roots), default=0.0)

        lines = [f"trace {trace_id}"]

        def walk(span: SpanRecord, depth: int) -> None:
            share = (span.duration / total * 100.0) if total > 0 else 0.0
            lines.append(
                f"{'  ' * depth}- {span.name:<24s} "
                f"{_fmt_duration(span.duration):>9s}  {share:5.1f}%"
                f"{_fmt_attrs(span.attrs)}"
            )
            for child in children.get(span.span_id, []):
                walk(child, depth + 1)

        for root in roots:
            walk(root, 1)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def stage_clock(records: Iterable[SpanRecord]) -> StageClock:
    """Span self time summed per name.

    Self time is a span's duration minus the part of its interval that
    its child spans cover; children on concurrent threads overlap, so
    the covered part is the union of their intervals, not their sum.
    """
    spans = list(records)
    ids = {s.span_id for s in spans}
    children: dict[str | None, list[SpanRecord]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    clock = StageClock()
    for span in spans:
        end = span.start + span.duration
        covered, edge = 0.0, span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, edge), min(child.start + child.duration, end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        clock.add(span.name, span.duration - covered)
        if span.parent_id not in ids:
            clock.wall_total += span.duration
    return clock


def render_trace_file(fh: TextIO) -> str:
    """The span trees, then the by-stage self-time table."""
    records = load_trace_file(fh)
    if not records:
        return render_spans(records)
    return (
        f"{render_spans(records)}\n\nby stage (self time)\n"
        f"{stage_clock(records).report()}"
    )
