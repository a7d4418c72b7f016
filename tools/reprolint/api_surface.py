"""RL801: the public API surface matches the checked-in manifest.

The session-centric front door (``repro.Session`` / ``CompareRequest``)
is the seam every consumer — CLI, service protocol, library users —
depends on.  This checker snapshots the public surface of the
front-door modules (every ``__all__`` symbol with its signature;
dataclasses with their field list) by *importing* them, and diffs the
result against ``tools/api_surface.json``.  It is the one checker that
executes repository code rather than parsing it — signatures with
computed defaults cannot be read faithfully from the AST.

A *deliberate* surface change ships with a regenerated manifest
(``python -m tools.reprolint --update-api-surface``) in the same commit.
The checker is skipped when the manifest or the ``src/repro`` package
is absent, so it stays inert over test fixture trees.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import re
import sys

from tools.reprolint.core import Finding, Project

__all__ = [
    "ApiSurfaceChecker",
    "MANIFEST_REL",
    "PUBLIC_MODULES",
    "diff",
    "snapshot",
    "write_manifest",
]

MANIFEST_REL = "tools/api_surface.json"

# The public front doors.  Internal packages (pixelbox engines, exact
# overlay, experiments) evolve freely; these are the modules external
# consumers import from.
PUBLIC_MODULES = (
    "repro",
    "repro.api",
    "repro.session",
    "repro.errors",
    "repro.backends",
    "repro.cache",
    "repro.service",
    "repro.cluster",
    "repro.metrics.jaccard",
    "repro.pixelbox.common",
)


_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _signature(obj) -> str:
    try:
        sig = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "<unreadable>"
    # Sentinel defaults (`_UNSET = object()`) repr with a memory address;
    # normalize so the snapshot is stable across processes.
    return _ADDRESS.sub(" at 0x…", sig)


def _describe_class(cls) -> dict:
    entry: dict = {"kind": "class"}
    if dataclasses.is_dataclass(cls):
        entry["kind"] = "dataclass"
        entry["fields"] = {
            f.name: _field_default(f) for f in dataclasses.fields(cls)
        }
    else:
        entry["init"] = _signature(cls.__init__)
    methods = {}
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if callable(member):
            methods[name] = _signature(member)
        elif isinstance(member, property):
            methods[name] = "<property>"
        elif isinstance(member, (classmethod, staticmethod)):
            methods[name] = _signature(member.__func__)
    if methods:
        entry["methods"] = methods
    return entry


def _field_default(f: dataclasses.Field) -> str:
    if f.default is not dataclasses.MISSING:
        return repr(f.default)
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f"<factory {f.default_factory.__name__}>"
    return "<required>"


def _describe(obj) -> object:
    if inspect.isclass(obj):
        return _describe_class(obj)
    if callable(obj):
        return {"kind": "function", "signature": _signature(obj)}
    if inspect.ismodule(obj):
        return {"kind": "module"}
    return {"kind": "value", "type": type(obj).__name__}


def snapshot() -> dict:
    """The current public surface, module by module."""
    surface: dict = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            raise SystemExit(
                f"public module {module_name} has no __all__ — the surface "
                "guard needs an explicit export list"
            )
        symbols = {}
        for name in sorted(exported):
            obj = getattr(module, name)
            symbols[name] = _describe(obj)
        surface[module_name] = symbols
    return surface


def diff(expected: dict, actual: dict) -> list[str]:
    """Human-readable mismatches between two surface snapshots."""
    problems: list[str] = []
    for module in sorted(set(expected) | set(actual)):
        if module not in actual:
            problems.append(f"module {module} disappeared from the surface")
            continue
        if module not in expected:
            problems.append(
                f"module {module} is new — run with --update to record it"
            )
            continue
        exp, act = expected[module], actual[module]
        for symbol in sorted(set(exp) | set(act)):
            if symbol not in act:
                problems.append(f"{module}.{symbol}: removed from __all__")
            elif symbol not in exp:
                problems.append(
                    f"{module}.{symbol}: added (run --update to record)"
                )
            elif exp[symbol] != act[symbol]:
                problems.append(
                    f"{module}.{symbol}: signature changed\n"
                    f"    manifest: {json.dumps(exp[symbol], sort_keys=True)}\n"
                    f"    current : {json.dumps(act[symbol], sort_keys=True)}"
                )
    return problems


def _import_from(project: Project) -> None:
    src = str(project.root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def write_manifest(project: Project) -> None:
    """Rewrite the manifest from the current surface."""
    _import_from(project)
    (project.root / MANIFEST_REL).write_text(
        json.dumps(snapshot(), indent=2, sort_keys=True) + "\n"
    )


class ApiSurfaceChecker:
    name = "api-surface"
    codes = ("RL801",)

    def check(self, project: Project) -> list[Finding]:
        if not project.exists(MANIFEST_REL):
            return []  # fixture tree, or manifest deliberately absent
        if not project.exists("src/repro/__init__.py"):
            return []
        _import_from(project)
        expected = json.loads(project.read(MANIFEST_REL))
        actual = snapshot()
        findings = []
        for problem in diff(expected, actual):
            # First line of the problem doubles as the fingerprint:
            # "repro.api.CompareOptions: signature changed".
            ident = problem.splitlines()[0]
            findings.append(
                Finding(
                    code="RL801",
                    path=MANIFEST_REL,
                    line=0,
                    ident=ident,
                    message=(
                        f"api surface drifted: {problem} (deliberate? "
                        f"`python -m tools.reprolint --update-api-surface`)"
                    ),
                )
            )
        return findings
