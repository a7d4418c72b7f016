"""Auto backend: sizing-policy dispatch to a concrete executor.

Profiles the workload (pair count, edge density, MBR extent), asks
:func:`repro.backends.sizing.recommend_backend` which executor amortizes
best, and delegates.  Selection is pure policy — all backends are
bit-for-bit identical — so the worst misprediction costs wall-clock,
never results.
"""

from __future__ import annotations

from repro.backends.base import (
    BackendCapabilities,
    BackendLifecycle,
    Pairs,
    get_backend,
    register,
)
from repro.backends.sizing import profile_pairs, recommend_backend
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import BatchAreas

__all__ = ["AutoBackend"]


@register("auto")
class AutoBackend(BackendLifecycle):
    """Sizing-policy dispatch between batch, vectorized, multiprocess, numba.

    Delegate executors are instantiated once and cached, so a long-lived
    ``auto`` backend (the comparison service's warm pool) reuses them
    across calls; with ``persistent=True`` the multiprocess delegate
    keeps its worker pool warm too.  :meth:`close` releases every cached
    delegate.
    """

    name = "auto"
    description = "sizing-policy dispatch (pair count + edge density -> backend)"

    def __init__(self, workers: int | None = None, persistent: bool = False):
        from repro.backends.multiprocess import default_workers

        self.workers = workers if workers is not None else default_workers()
        self.persistent = persistent
        self._delegates: dict[str, object] = {}
        #: Name chosen by the most recent :meth:`compare_pairs` call.
        self.last_choice: str | None = None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            persistent_pooling=True,
            stateful_lifecycle=True,
            configurable_workers=True,
            max_workers=self.workers,
            notes="delegates via repro.backends.sizing.recommend_backend",
        )

    def select(self, pairs: Pairs, config: LaunchConfig | None = None) -> str:
        """The concrete backend the sizing policy picks for ``pairs``."""
        cfg = config or LaunchConfig()
        mean_edges, mean_pixels = profile_pairs(pairs)
        return recommend_backend(
            len(pairs),
            mean_edges,
            mean_pixels,
            cfg.threshold,
            cfg.block_size,
            workers=self.workers,
        )

    def _delegate(self, choice: str):
        if choice not in self._delegates:
            kwargs = {}
            if choice == "multiprocess":
                kwargs = {
                    "workers": self.workers, "persistent": self.persistent
                }
            self._delegates[choice] = get_backend(choice, **kwargs)
        return self._delegates[choice]

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        choice = self.select(pairs, config)
        self.last_choice = choice
        return self._delegate(choice).compare_pairs(pairs, config)

    def close(self) -> None:
        delegates, self._delegates = self._delegates, {}
        for backend in delegates.values():
            backend.close()
