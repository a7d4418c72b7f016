"""Backend protocol and registry.

A *backend* is one executor for the PixelBox cross-comparison workload:
given a list of polygon pairs it returns the exact per-pair areas (and
the kernel work counters) as a
:class:`~repro.pixelbox.kernel.BatchAreas`.  Backends differ only in
*how* they execute — wide NumPy arrays, sharded worker processes,
remote workers — never in *what* they compute: every
registered backend must be bit-for-bit identical to the exact overlay
reference, which ``tests/test_backend_parity.py`` enforces for each
registry entry automatically.

Backends register a *factory* so callers can instantiate them with
per-call knobs (e.g. ``get_backend("multiprocess", workers=4)``) while
``get_backend("multiprocess")`` still yields a sensibly-configured
default.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Protocol, runtime_checkable

from repro.errors import KernelError
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import BatchAreas, Pairs

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendFactory",
    "BackendLifecycle",
    "register",
    "get_backend",
    "available_backends",
    "backend_registry",
]


@dataclasses.dataclass(frozen=True, slots=True)
class BackendCapabilities:
    """Structured description of how one backend executes.

    Every backend reports its execution shape here for people and
    plans to read — ``repro backends`` prints it and ``explain`` embeds
    it.  Owners do not branch on it: every backend has ``warm()`` and
    ``close()`` (no-ops for a stateless executor).

    Attributes
    ----------
    persistent_pooling:
        The backend holds warm pooled state across calls (worker
        processes, connections) that ``warm()`` starts.
    stateful_lifecycle:
        ``close()`` releases real resources (as opposed to the no-op of
        a stateless executor).
    configurable_workers:
        The factory accepts a ``workers``-style parallelism knob.
    max_workers:
        Degree of parallelism this *instance* is configured for (1 for
        single-process executors).
    remote:
        Execution leaves this machine (network transport involved).
    notes:
        One-line human hint (requirements, configuration source).
    """

    persistent_pooling: bool = False
    stateful_lifecycle: bool = False
    configurable_workers: bool = False
    max_workers: int = 1
    remote: bool = False
    notes: str = ""

    def as_dict(self) -> dict:
        """JSON-able rendering (``repro backends --json``, ``explain``)."""
        return dataclasses.asdict(self)

    def summary(self) -> str:
        """Compact rendering for ``repro backends``."""
        tags = []
        if self.persistent_pooling:
            tags.append("pooling")
        if self.stateful_lifecycle:
            tags.append("lifecycle")
        if self.configurable_workers:
            tags.append(f"workers<={self.max_workers}")
        if self.remote:
            tags.append("remote")
        return ",".join(tags) if tags else "stateless"


@runtime_checkable
class Backend(Protocol):
    """One PixelBox executor.

    Attributes
    ----------
    name:
        Registry key, stable across releases (CLI ``--backend`` values).
    description:
        One-line human-readable summary for ``repro backends``.
    """

    name: str
    description: str

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        """Exact areas (+ stats) for every pair, in input order."""
        ...

    def warm(self) -> list:
        """Start pooled state now; returns the workers reached."""
        ...

    def close(self) -> None:
        """Release pooled resources (idempotent; backend stays usable)."""
        ...

    def capabilities(self) -> BackendCapabilities:
        """Structured execution shape (pooling, lifecycle, workers)."""
        ...


class BackendLifecycle:
    """Default backend lifecycle: no-op ``warm()``/``close()`` + context
    manager.

    Pooled executors (worker processes, a remote transport) override
    :meth:`warm` to start what they hold and :meth:`close` to release
    it.  ``close`` must be idempotent and must leave the backend
    re-usable — pooled state is re-created lazily on the next call — so
    long-lived owners like the comparison service can recycle a backend
    without re-resolving it through the registry.
    """

    def warm(self) -> list:
        """Start pooled state; no-op (no workers) for stateless executors."""
        return []

    def close(self) -> None:
        """Release pooled resources; no-op for stateless executors."""

    def capabilities(self) -> BackendCapabilities:
        """Default capability report: a stateless single-process executor."""
        return BackendCapabilities()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


BackendFactory = Callable[..., Backend]

_REGISTRY: dict[str, BackendFactory] = {}


def register(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Class decorator adding a backend factory under ``name``.

    The decorated class (or factory callable) must produce objects
    satisfying the :class:`Backend` protocol when called with no
    arguments.
    """

    def deco(factory: BackendFactory) -> BackendFactory:
        if name in _REGISTRY:
            raise KernelError(f"backend {name!r} registered twice")
        _REGISTRY[name] = factory
        return factory

    return deco


def get_backend(name: str, **kwargs) -> Backend:
    """Instantiate the backend registered under ``name``.

    Keyword arguments are forwarded to the backend factory (e.g.
    ``workers=4`` for the multiprocess backend).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KernelError(
            f"unknown backend {name!r} (registered: {known})"
        ) from None
    try:
        return factory(**kwargs)
    except TypeError as exc:
        # A wrong knob (e.g. `hosts=` on the batch backend) should name
        # the backend here, not surface as a bare constructor TypeError
        # deep in dispatch.
        raise KernelError(
            f"backend {name!r} rejected options {sorted(kwargs)}: {exc}"
        ) from None


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def backend_registry() -> dict[str, BackendFactory]:
    """A copy of the registry (introspection for the parity harness)."""
    return dict(_REGISTRY)
