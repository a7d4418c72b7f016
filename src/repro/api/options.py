"""One typed, serializable options record for every front door.

:class:`CompareOptions` is the single place the knobs of the one
logical operation — cross-compare two spatial result sets — live, with a
single set of defaults: execution backend, kernel launch parameters,
result cache, tracing.  The CLI, the service wire protocol, and the
library all parse into it; the kernel's ``LaunchConfig`` is *derived*
from it (:meth:`CompareOptions.launch_config`), never the other way
around.  A file comparison is a per-tile loop with nothing to tune; the
pipelined scheme of the paper's §4 and its shape knobs (the modeled
``Machine`` record) live with the experiments that reproduce it
(:mod:`repro.pipeline`).
Every field is a JSON-able scalar or mapping, so a request spec can
travel over a wire, live in a file, and round-trip bit-for-bit
(:meth:`to_dict` / :meth:`from_dict`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.errors import RequestError
from repro.pixelbox.common import DEFAULT_BLOCK_SIZE, LaunchConfig

__all__ = ["CompareOptions", "DEFAULT_OPTIONS"]


def _frozen_mapping(value: Mapping[str, Any] | None) -> Mapping[str, Any]:
    if value is None:
        return MappingProxyType({})
    if not isinstance(value, Mapping):
        raise RequestError(
            f"backend_options must be a mapping, got {type(value).__name__}"
        )
    return MappingProxyType(dict(value))


@dataclass(frozen=True)
class CompareOptions:
    """Every knob of one cross-comparison, in one typed place.

    Attributes
    ----------
    backend:
        Execution backend registry name (``repro backends``).
    backend_options:
        Keyword arguments for the backend factory (e.g.
        ``{"workers": 4}`` for the multiprocess pool).
    hosts:
        Worker addresses for the ``cluster`` backend
        (``"host:port,host:port"``).  ``None`` falls back to
        ``REPRO_CLUSTER_HOSTS`` and then to self-hosted loopback workers.
    block_size, pixel_threshold, tight_mbr, leaf_mode:
        Kernel launch parameters (see
        :class:`repro.pixelbox.common.LaunchConfig`).  The defaults here
        are **the** defaults: ``tight_mbr=True`` is the paper
        pipeline's policy, and every front door shares it (results
        are exact either way — this is purely a performance knob).
    cache:
        Enable the content-addressed result cache at the front door
        (:class:`~repro.session.Session` /
        :class:`~repro.service.ComparisonService`): one entry per pair
        list, so ``sets`` and ``files`` requests are cached per tile.
        Cached hits are bit-for-bit identical to cold computations —
        areas *and* work counters — so this is purely a latency knob.
        Off by default.
    cache_bytes:
        Byte budget of that cache (LRU eviction past it).
    trace:
        Enable request-scoped tracing: the session runs the request
        under a :class:`repro.obs.Tracer`, every tier contributes spans
        (session -> backend -> shard dispatch -> remote worker kernel),
        and the result carries the trace id.  Off by default — the off
        path adds zero allocations to the kernel hot loop.
    trace_out:
        Path of a JSON-lines sink for span records and lifecycle
        events (``repro compare --trace-out``).  Setting it implies
        ``trace=True``.
    """

    # -- execution substrate -------------------------------------------
    backend: str = "batch"
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    hosts: str | None = None
    # -- kernel launch (the one set of defaults) -----------------------
    block_size: int = DEFAULT_BLOCK_SIZE
    pixel_threshold: int | None = None
    tight_mbr: bool = True
    leaf_mode: str = "scan"
    # -- result caching ------------------------------------------------
    cache: bool = False
    cache_bytes: int = 64 * 2**20
    # -- observability --------------------------------------------------
    trace: bool = False
    trace_out: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "backend_options", _frozen_mapping(self.backend_options)
        )
        if not self.backend or not isinstance(self.backend, str):
            raise RequestError(f"backend must be a name, got {self.backend!r}")
        # Validate the launch parameters eagerly with the authoritative
        # validator — a bad block size must fail when the spec is built,
        # not when a worker thread finally launches a kernel.
        try:
            self.launch_config()
        except Exception as exc:
            raise RequestError(f"invalid launch parameters: {exc}") from exc
        if self.cache_bytes < 1:
            raise RequestError(
                f"cache_bytes must be >= 1, got {self.cache_bytes}"
            )
        if self.trace_out is not None and not self.trace:
            object.__setattr__(self, "trace", True)

    # ------------------------------------------------------------------
    # Derived config objects
    # ------------------------------------------------------------------
    def launch_config(self) -> LaunchConfig:
        """The kernel :class:`LaunchConfig` this spec resolves to."""
        return LaunchConfig(
            block_size=self.block_size,
            pixel_threshold=self.pixel_threshold,
            tight_mbr=self.tight_mbr,
            leaf_mode=self.leaf_mode,
        )

    def resolved_backend_options(self) -> dict[str, Any]:
        """Factory kwargs with hosts folded in."""
        options = dict(self.backend_options)
        if self.hosts is not None:
            if self.backend not in ("cluster",):
                raise RequestError(
                    f"hosts={self.hosts!r} requires backend 'cluster', "
                    f"got {self.backend!r}"
                )
            options.setdefault("hosts", self.hosts)
        return options

    def replace(self, **changes) -> "CompareOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able mapping; defaults are omitted so specs stay small."""
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "backend_options":
                value = dict(value)
                if not value:
                    continue
            elif f.default is not dataclasses.MISSING and value == f.default:
                continue
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any] | None) -> "CompareOptions":
        """Parse a mapping produced by :meth:`to_dict` (or hand-written)."""
        if raw is None:
            return cls()
        if not isinstance(raw, Mapping):
            raise RequestError(
                f"options must be a mapping, got {type(raw).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise RequestError(
                f"unknown option fields: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        return cls(**dict(raw))


#: The library-wide defaults, as one shared immutable instance.
DEFAULT_OPTIONS = CompareOptions()
