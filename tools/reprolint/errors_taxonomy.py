"""RL501: public modules raise only the ``repro.errors`` taxonomy.

Consumers of the front door — CLI, service handlers, cluster
coordinator — catch ``ReproError`` (or a named subclass) to distinguish
"this comparison failed" from "the library is broken".  A bare
``ValueError`` escaping a public module punches through every one of
those handlers and surfaces as a 500 / a dead worker instead of a typed
error frame.  This checker walks the public front-door modules (the
same list the API-surface guard protects) and flags every ``raise`` of
a builtin exception.

Exemptions, because they are the *correct* exception there:

* ``AttributeError`` inside a function named ``__getattr__`` — the
  module-level lazy-import protocol requires it;
* bare ``raise`` (re-raise) and raising a bound variable (propagating a
  caught error object) — the original type is not chosen here.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Finding, Project

__all__ = ["ErrorTaxonomyChecker", "PUBLIC_MODULE_FILES"]

#: File form of api_surface.PUBLIC_MODULES — the front doors.
PUBLIC_MODULE_FILES = (
    "src/repro/__init__.py",
    "src/repro/api/__init__.py",
    "src/repro/session.py",
    "src/repro/errors.py",
    "src/repro/backends/__init__.py",
    "src/repro/cache/__init__.py",
    "src/repro/service/__init__.py",
    "src/repro/cluster/__init__.py",
    "src/repro/metrics/jaccard.py",
    "src/repro/pixelbox/common.py",
)

_BUILTIN_EXCEPTIONS = {
    "ArithmeticError", "AssertionError", "AttributeError", "BaseException",
    "BufferError", "ConnectionError", "EOFError", "Exception", "IOError",
    "ImportError", "IndexError", "KeyError", "LookupError", "MemoryError",
    "NameError", "NotImplementedError", "OSError", "OverflowError",
    "RecursionError", "ReferenceError", "RuntimeError", "StopIteration",
    "SystemError", "TimeoutError", "TypeError", "UnicodeError",
    "ValueError", "ZeroDivisionError",
}


def _raised_name(node: ast.Raise) -> str | None:
    """The exception class name a ``raise`` statement names, if any."""
    exc = node.exc
    if exc is None:
        return None  # bare re-raise
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Map ``id(raise node)`` to the name of its innermost function."""
    owner: dict[int, str] = {}

    def walk(node: ast.AST, fn: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                walk(child, child.name)
            else:
                if isinstance(child, ast.Raise):
                    owner[id(child)] = fn or "<module>"
                walk(child, fn)

    walk(tree, None)
    return owner


class ErrorTaxonomyChecker:
    name = "error-taxonomy"
    codes = ("RL501",)

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for rel in PUBLIC_MODULE_FILES:
            tree = project.tree(rel)
            if tree is None:
                continue
            owner = _enclosing_functions(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Raise):
                    continue
                name = _raised_name(node)
                if name is None or name not in _BUILTIN_EXCEPTIONS:
                    continue  # taxonomy class, variable, or re-raise
                fn = owner.get(id(node), "<module>")
                if name == "AttributeError" and fn == "__getattr__":
                    continue  # the lazy-import protocol demands it
                findings.append(
                    Finding(
                        code="RL501",
                        path=rel,
                        line=node.lineno,
                        ident=f"{fn}:{name}",
                        message=(
                            f"public module raises builtin {name} in "
                            f"{fn}() — raise a repro.errors.ReproError "
                            f"subclass so front-door handlers can "
                            f"classify it"
                        ),
                    )
                )
        return findings
