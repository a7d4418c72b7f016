"""``explain()``: the resolved execution plan, without executing.

Given a :class:`~repro.api.request.CompareRequest`, :func:`explain`
reports everything the execution layer *would* decide — the named
backend's structured capabilities, the effective launch parameters,
the shard size the backend would cut and the cluster host resolution —
as one serializable :class:`ResolvedPlan`.

Nothing is executed: no kernel runs, no worker process forks, no socket
connects.  Backends are instantiated only to read their capability
report (construction is lazy by contract — pools and connections are
created on first dispatch, which ``explain`` never performs) and are
closed again before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.request import CompareRequest
from repro.errors import ReproError

__all__ = ["ResolvedPlan", "explain"]


@dataclass(frozen=True, slots=True)
class ResolvedPlan:
    """What one request resolves to, before any work happens.

    Attributes
    ----------
    kind:
        Request payload kind (``pairs`` / ``sets`` / ``files``).
    backend:
        Backend named by the spec.
    capabilities:
        Structured capability report of that backend.
    launch:
        Effective kernel launch parameters.
    n_pairs, mean_edges, mean_mbr_pixels:
        Workload profile (``None`` for file requests, whose pairs are
        not known until each tile's MBR filter runs).
    tiles:
        Tile-pair count for file requests (``None`` otherwise).
    shard_pairs:
        Pairs per shard the ``multiprocess`` or ``cluster`` backend
        would cut the workload into — the whole workload when it would
        run in-process (``None`` when the backend does not shard or the
        pairs are not known yet).
    hosts:
        Resolved cluster worker addresses (``["loopback"]`` when the
        cluster backend would run local worker processes).
    cache:
        Resolved result-cache configuration: ``enabled``, the byte
        budget, the cache key a ``pairs`` request resolves to, and
        ``would_hit`` — whether a run against the consulted store would
        be served from cache (``None`` when no store was available to
        consult, e.g. module-level ``explain`` outside a session, and
        for ``sets`` / ``files`` requests, which are cached per tile).
    trace:
        Resolved observability configuration: whether request-scoped
        tracing is ``enabled`` and the ``trace_out`` JSONL sink path
        (``None`` for ring-buffer-only tracing).
    notes:
        Human-readable capability-check observations (non-fatal).
    """

    kind: str
    backend: str
    capabilities: dict[str, Any]
    launch: dict[str, Any]
    n_pairs: int | None = None
    mean_edges: float | None = None
    mean_mbr_pixels: float | None = None
    tiles: int | None = None
    shard_pairs: int | None = None
    hosts: tuple[str, ...] = ()
    cache: dict[str, Any] = field(default_factory=dict)
    trace: dict[str, Any] = field(default_factory=dict)
    notes: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able rendering (``repro explain`` prints this)."""
        return {
            "kind": self.kind,
            "backend": self.backend,
            "capabilities": dict(self.capabilities),
            "launch": dict(self.launch),
            "workload": {
                "n_pairs": self.n_pairs,
                "mean_edges": self.mean_edges,
                "mean_mbr_pixels": self.mean_mbr_pixels,
                "tiles": self.tiles,
            },
            "sizing": {"shard_pairs": self.shard_pairs},
            "hosts": list(self.hosts),
            "cache": dict(self.cache),
            "trace": dict(self.trace),
            "notes": list(self.notes),
        }


def _profile(request: CompareRequest):
    """``(PairBatch, n)`` of the workload, or ``(None, None)`` for files."""
    from repro.pixelbox.kernel import PairBatch

    if request.kind == "pairs":
        return PairBatch.from_pairs(request.pairs), len(request.pairs)
    if request.kind == "sets":
        from repro.geometry.polyset import PolygonSet
        from repro.index.join import mbr_pair_join

        set_a = PolygonSet.from_polygons(request.set_a)
        set_b = PolygonSet.from_polygons(request.set_b)
        join = mbr_pair_join(set_a, set_b)
        return PairBatch(set_a, set_b, join.left_idx, join.right_idx), len(join)
    return None, None


def _profile_pairs(pairs) -> tuple[float, float]:
    """``(mean edges per pair, mean MBR pixels per pair)`` of a
    :class:`~repro.pixelbox.kernel.PairBatch`.

    Edges are both polygons' vertical-edge families (what every inner
    loop walks); the MBR is the pair cover box, Algorithm 1's first box.
    """
    n = len(pairs)
    if not n:
        return 0.0, 0.0
    left, right = pairs.left, pairs.right
    edges = left.edges.counts()[pairs.left_idx] + right.edges.counts()[pairs.right_idx]
    mp, mq = left.mbrs[pairs.left_idx], right.mbrs[pairs.right_idx]
    extent = np.maximum(mp[:, 2:], mq[:, 2:]) - np.minimum(mp[:, :2], mq[:, :2])
    return int(edges.sum()) / n, int(np.prod(extent, axis=1).sum()) / n


def _resolve_cache(request: CompareRequest, request_cache) -> dict[str, Any]:
    """The plan's cache section — key and hit prediction included.

    Uses the key ``Session`` launches under (:func:`repro.cache.pairs_key`
    over the pairs and launch config), so a ``would_hit: true`` plan and a cached answer can never disagree
    about identity.  Only a ``pairs`` request has its key before it
    runs: ``sets`` and ``files`` are cached per tile under the pairs
    each tile's MBR join yields, so their plan reports neither.
    """
    options = request.options
    info: dict[str, Any] = {
        "enabled": options.cache,
        "cache_bytes": options.cache_bytes if options.cache else None,
        "request_key": None,
        "would_hit": None,
    }
    if not options.cache or request.kind != "pairs":
        return info
    from repro.cache import pairs_key

    key = pairs_key(request.pairs, options.launch_config())
    info["request_key"] = key
    if request_cache is not None:
        info["would_hit"] = request_cache.contains(key)
    return info


def explain(request: CompareRequest, request_cache=None) -> ResolvedPlan:
    """Resolve ``request`` into its execution plan without executing it.

    Raises :class:`~repro.errors.ReproError` subclasses for specs the
    execution layer would reject (unknown backend, options the factory
    refuses, malformed host lists) — ``explain`` is the cheap way to
    validate a request before committing resources to it.

    ``request_cache`` is the request-cache store to answer ``would_hit``
    against (:meth:`repro.Session.explain` passes its own); with none,
    the plan's ``would_hit`` is ``None``.
    """
    from repro.backends import get_backend

    options = request.options
    cfg = options.launch_config()
    notes: list[str] = []

    pairs, n_pairs = _profile(request)
    mean_edges = mean_pixels = None
    if pairs is not None:
        mean_edges, mean_pixels = _profile_pairs(pairs)

    # Capability check: instantiate (lazily — no pools, no sockets),
    # read the report and the backend's own shard sizing — what its
    # compare_pairs would cut — and release.  A bad backend name or
    # rejected option fails here with the registry's named error.
    backend = get_backend(options.backend, **options.resolved_backend_options())
    shard = None
    hosts: tuple[str, ...] = ()
    try:
        caps = backend.capabilities()
        shard_size = getattr(backend, "_shard_size", None)
        if pairs is not None and shard_size is not None:
            shard = shard_size(n_pairs)
        if options.backend == "cluster":
            hosts = tuple(backend.hosts) or ("loopback",)
    finally:
        backend.close()
    if hosts == ("loopback",):
        notes.append(
            "no cluster hosts configured: local worker processes on loopback"
        )

    tiles = None
    if request.kind == "files":
        from repro.io.tiles import pair_result_sets

        try:
            tiles = len(pair_result_sets(request.dir_a, request.dir_b))
        except ReproError as exc:
            notes.append(f"result sets not pairable yet: {exc}")

    if options.cache and request.kind != "pairs":
        notes.append(
            "cached per tile: keys follow each tile's MBR join, so the "
            "plan reports no request_key / would_hit"
        )

    if not caps.configurable_workers and "workers" in options.backend_options:
        notes.append(
            f"backend {options.backend!r} ignores the workers option"
        )

    return ResolvedPlan(
        kind=request.kind,
        backend=options.backend,
        capabilities=caps.as_dict(),
        launch={
            "block_size": cfg.block_size,
            "pixel_threshold": cfg.pixel_threshold,
            "effective_threshold": cfg.threshold,
            "tight_mbr": cfg.tight_mbr,
            "leaf_mode": cfg.leaf_mode,
        },
        n_pairs=n_pairs,
        mean_edges=mean_edges,
        mean_mbr_pixels=mean_pixels,
        tiles=tiles,
        shard_pairs=shard,
        hosts=hosts,
        cache=_resolve_cache(request, request_cache),
        trace={"enabled": options.trace, "trace_out": options.trace_out},
        notes=tuple(notes),
    )
