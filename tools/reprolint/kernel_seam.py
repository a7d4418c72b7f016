"""RL701/RL702: the kernel seam and the simulator seam (AST port).

RL701 gives each seam name exactly one module (relative to ``src/``)
that may reference it, :data:`SEAM_ALLOWLIST`:

* ``repro.pixelbox.kernel`` is the only caller of ``plan_levels``, the
  leaf pixelizer ``stacked_leaf_counts`` and ``compiled_chunk`` (the
  compiled chunk: planner and leaves in one C call) — the structural
  guarantee that a fourth hand-rolled copy of the plan+stacked-pixelize
  sequence (the drift class behind the batched disjoint-pair crash and
  the counter misalignment) cannot land silently, and that the compiled
  chunk runs only where the kernel chooses it;
* ``repro.io.parser_cpu`` is the only caller of ``compiled_scan``, the
  compiled parser scan, so the parser decides when it runs.

A ``def`` is not a reference, so a definition site (``vectorized.py``)
needs no entry; each compiled wrapper is defined next to its one caller.

The check matches actual ``Name`` / ``Attribute`` references, so a
mention in a comment or docstring does not trip the guard while a real
call through an alias does.

RL702 keeps the Fig. 9 cycle simulator out of everything that decides
how work is run: under ``src/repro/`` only the package itself and the
experiments may import ``repro.gpu`` (modeled GTX 580 cycles are
meaningful as normalized ratios, not as a sizing input — that policy
lives in ``repro/backends/sizing.py``).
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Finding, Project

__all__ = [
    "KernelSeamChecker",
    "SEAM_NAMES",
    "SEAM_ALLOWLIST",
    "SIMULATOR_IMPORTERS",
]

# seam name -> the one module (relative to src/) that may reference it
SEAM_ALLOWLIST = {
    "plan_levels": "repro/pixelbox/kernel.py",
    "stacked_leaf_counts": "repro/pixelbox/kernel.py",
    "compiled_chunk": "repro/pixelbox/kernel.py",
    "compiled_scan": "repro/io/parser_cpu.py",
}

SEAM_NAMES = tuple(SEAM_ALLOWLIST)


# path prefix (relative to src/) -> why it may import repro.gpu
SIMULATOR_IMPORTERS = {
    "repro/gpu/": "the simulator package itself",
    "repro/experiments/": "Fig. 9 / block-size studies",
}


def _simulator_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, module)`` for every import that reaches ``repro.gpu``."""
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            if module == "repro.gpu" or module.startswith("repro.gpu."):
                out.append((node.lineno, module))
                break
    return out


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
    codes = ("RL701", "RL702")

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for rel in project.source_files("src"):
            under_src = rel[len("src/"):]
            tree = project.tree(rel)
            if tree is None:
                continue
            if not under_src.startswith(tuple(SIMULATOR_IMPORTERS)):
                for lineno, module in _simulator_imports(tree):
                    findings.append(
                        Finding(
                            code="RL702",
                            path=rel,
                            line=lineno,
                            ident=module,
                            message=(
                                f"{module} imported outside the simulator "
                                f"seam — sizing policy belongs in "
                                f"repro/backends/sizing.py"
                            ),
                        )
                    )
            for lineno, name in sorted(set(_seam_refs(tree))):
                caller = SEAM_ALLOWLIST[name]
                if under_src == caller:
                    continue
                findings.append(
                    Finding(
                        code="RL701",
                        path=rel,
                        line=lineno,
                        ident=f"{name}",
                        message=(
                            f"{name} referenced outside its one caller, "
                            f"{caller} — route the work through it"
                        ),
                    )
                )
        return findings
