"""The chunk-kernel seam guard, run as part of the tier-1 suite.

A fourth hand-rolled copy of the plan+stacked-pixelize sequence is the
failure mode behind the latent batched disjoint-pair crash and the
per-path counter drift; this test (and the CI step,
``python -m tools.reprolint``, checker RL701) makes such a copy fail
loudly at review time instead of drifting silently.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import KernelSeamChecker, Project  # noqa: E402
from tools.reprolint.kernel_seam import SEAM_ALLOWLIST  # noqa: E402


def test_kernel_sequence_is_invoked_from_exactly_one_module():
    found = KernelSeamChecker().check(Project(REPO_ROOT))
    assert not found, (
        "plan_levels/stacked_leaf_counts used outside the kernel seam "
        f"(RL701, allowlist: {sorted(SEAM_ALLOWLIST)}) or repro.gpu "
        "imported outside the simulator seam (RL702): "
        + "; ".join(f"{f.code} {f.path}:{f.line}" for f in found)
    )


def test_allowlist_is_the_kernel_and_its_definition_site():
    assert sorted(SEAM_ALLOWLIST) == [
        "repro/pixelbox/kernel.py",
        "repro/pixelbox/vectorized.py",
    ]
    for rel in SEAM_ALLOWLIST:
        assert (REPO_ROOT / "src" / rel).is_file(), rel
