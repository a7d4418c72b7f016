"""The in-process kernel backend.

``batch`` runs
:meth:`ChunkKernel.compute <repro.pixelbox.kernel.ChunkKernel.compute>`
in the calling process under
:data:`~repro.pixelbox.kernel.BATCH_POLICY`, the policy every executor
runs: small pairs — the overwhelming majority in pathology workloads —
pixelize directly over their start box.  :meth:`KernelBackend.warm`
builds (or finds cached) the compiled leaf pixelizer, so a first compile
happens at warm-up and not inside a request.
"""

from __future__ import annotations

from repro.backends.base import BackendLifecycle, Pairs, register
from repro.pixelbox import native
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import BATCH_POLICY, BatchAreas, ChunkKernel

__all__ = ["KernelBackend"]


@register("batch")
class KernelBackend(BackendLifecycle):
    """``ChunkKernel.compute`` in this process under the batch policy."""

    name = "batch"
    description = "batched device kernel (the pipeline's production path)"

    def warm(self) -> list:
        """Load the compiled leaf pixelizer now; starts no worker."""
        native.load()
        return []

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        return ChunkKernel(BATCH_POLICY, config).compute(pairs)
