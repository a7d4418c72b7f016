"""RL701: one module owns the chunk-kernel sequence (AST port).

``repro.pixelbox.kernel`` must be the only module invoking
``plan_levels`` / ``stacked_leaf_counts`` — the structural guarantee
that a fourth hand-rolled copy of the plan+stacked-pixelize sequence
(the drift class behind the batched disjoint-pair crash and the
counter misalignment) cannot land silently.  ``vectorized.py`` is
allowlisted as the definition site.

The check matches actual ``Name`` / ``Attribute`` references, so a
mention in a comment or docstring does not trip the guard while a real
call through an alias does.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Finding, Project

__all__ = ["KernelSeamChecker", "SEAM_NAMES", "SEAM_ALLOWLIST"]

SEAM_NAMES = ("plan_levels", "stacked_leaf_counts")

# path (relative to src/) -> why it may name the kernel entry points
SEAM_ALLOWLIST = {
    "repro/pixelbox/kernel.py": "the one caller",
    "repro/pixelbox/vectorized.py": "the definition site",
}


def _seam_refs(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` for every AST reference to a seam name."""
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in SEAM_NAMES:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in SEAM_NAMES:
            out.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.split(".")[-1] in SEAM_NAMES:
                    out.append(
                        (node.lineno, alias.name.split(".")[-1])
                    )
    return out


class KernelSeamChecker:
    name = "kernel-seam"
    codes = ("RL701",)

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for rel in project.source_files("src"):
            under_src = rel[len("src/"):]
            if under_src in SEAM_ALLOWLIST:
                continue
            tree = project.tree(rel)
            if tree is None:
                continue
            for lineno, name in sorted(set(_seam_refs(tree))):
                findings.append(
                    Finding(
                        code="RL701",
                        path=rel,
                        line=lineno,
                        ident=f"{name}",
                        message=(
                            f"{name} referenced outside the kernel seam "
                            f"— route chunk work through ChunkKernel"
                        ),
                    )
                )
        return findings
