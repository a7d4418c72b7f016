"""The in-process kernel backend.

``batch`` runs
:meth:`ChunkKernel.compute <repro.pixelbox.kernel.ChunkKernel.compute>`
in the calling process under the production batch policy: small pairs —
the overwhelming majority in pathology workloads — pixelize directly
over their start box.
"""

from __future__ import annotations

from repro.backends.base import BackendLifecycle, Pairs, register
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import (
    DEFAULT_SKIP_SUBDIVISION_DIM,
    BatchAreas,
    ChunkKernel,
    ExecutionPolicy,
)

__all__ = ["KernelBackend"]


@register("batch")
class KernelBackend(BackendLifecycle):
    """``ChunkKernel.compute`` in this process under the batch policy."""

    name = "batch"
    description = "batched device kernel (the pipeline's production path)"
    policy = ExecutionPolicy(skip_subdivision_max_dim=DEFAULT_SKIP_SUBDIVISION_DIM)

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        return ChunkKernel(self.policy, config).compute(pairs)
