"""The in-process kernel backends: one class, a two-row policy table.

``batch`` and ``numba`` run the same
:meth:`ChunkKernel.compute <repro.pixelbox.kernel.ChunkKernel.compute>`
in the calling process and differ only in the
:class:`~repro.pixelbox.kernel.ExecutionPolicy` they hand it, so they are
one :class:`KernelBackend` registered under two names.
"""

from __future__ import annotations

import importlib.util
from functools import partial

from repro.backends.base import (
    BackendCapabilities,
    BackendLifecycle,
    Pairs,
    register,
)
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import (
    DEFAULT_SKIP_SUBDIVISION_DIM,
    BatchAreas,
    ChunkKernel,
    ExecutionPolicy,
)

__all__ = ["KernelBackend", "numba_unavailable_reason"]


def numba_unavailable_reason() -> str | None:
    """``None`` when numba can be imported, else the reason it cannot.

    A cheap ``find_spec`` probe — no JIT machinery is touched until a
    backend instance actually compiles something.
    """
    try:
        spec = importlib.util.find_spec("numba")
    except (ImportError, ValueError):
        spec = None
    if spec is None:
        return (
            "numba is not installed "
            "(install the optional extra: pip install 'repro[numba]')"
        )
    return None


class KernelBackend(BackendLifecycle):
    """``ChunkKernel.compute`` in this process under a fixed policy."""

    def __init__(self, name: str, policy: ExecutionPolicy, description: str):
        if policy.substrate == "numba":
            from repro.pixelbox import numba_kernel

            numba_kernel.require_numba()
        self.name = name
        self.policy = policy
        self.description = description

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        return ChunkKernel(self.policy, config).compute(pairs)

    def warm(self) -> list[int]:
        """Pay a compiled substrate's JIT compile (or cache load) on one
        trivial pair, ahead of the first real batch; the NumPy substrate
        has nothing to warm.  Returns an empty list — no processes are
        spawned — matching the ``warm()`` convention.
        """
        if self.policy.substrate == "numba":
            unit = RectilinearPolygon.from_box(Box(0, 0, 1, 1))
            self.compare_pairs([(unit, unit)])
        return []

    def capabilities(self) -> BackendCapabilities:
        if self.policy.substrate != "numba":
            return BackendCapabilities()
        from repro.pixelbox import numba_kernel

        return BackendCapabilities(
            compiled=True,
            max_workers=numba_kernel.thread_count(),
            notes=(
                "requires the repro[numba] extra; parallelizes one pair "
                "per thread"
            ),
        )


# name -> (policy, description, availability probe)
_TABLE = {
    # Small pairs — the overwhelming majority in pathology workloads —
    # pixelize directly over their start box; what the pipeline's
    # aggregator launches on the simulated GPU.
    "batch": (
        ExecutionPolicy(skip_subdivision_max_dim=DEFAULT_SKIP_SUBDIVISION_DIM),
        "batched device kernel (the pipeline's production path)",
        None,
    ),
    # The batch plan on machine code.  The probe is looked up at call
    # time so the registry always lists ``numba`` and can say why it is
    # unavailable.
    "numba": (
        ExecutionPolicy(
            skip_subdivision_max_dim=DEFAULT_SKIP_SUBDIVISION_DIM,
            substrate="numba",
        ),
        "compiled chunk kernel (Numba @njit(parallel=True) over all cores)",
        lambda: numba_unavailable_reason(),
    ),
}

for _name, (_policy, _description, _probe) in _TABLE.items():
    register(_name, availability=_probe)(
        partial(KernelBackend, _name, _policy, _description)
    )
