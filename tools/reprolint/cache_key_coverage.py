"""RL4xx: every execution-affecting field reaches cache-key derivation.

The result cache's correctness story is that a key equals another key
exactly when the computation would be bit-for-bit identical.  That story
has two statically checkable halves:

1. **Dynamic derivation stays dynamic** (RL402).  ``cache/keys.py``
   builds the config token by iterating ``dataclasses.fields`` — adding
   a field to ``LaunchConfig`` auto-invalidates — and ``pairs_key``, the
   one key, must fold that token in.  If either is ever rewritten with a
   hard-coded field list, or the key stops calling ``config_token``, a
   new field silently stops reaching the key: stale hits with no
   failing test until someone compares results.  The checker flags the
   rewrite itself.

2. **Hard-coded mirror lists stay complete** (RL401).
   ``CompareOptions.launch_config()`` enumerates ``LaunchConfig``'s
   fields and must forward every one.  Both wires take their field
   list from the dataclass (``pixelbox.common.LAUNCH_FIELDS``); should
   a literal ``wire._CONFIG_FIELDS`` or ``api/request.py
   WIRE_CONFIG_FIELDS`` come back, it is held to the same rule.  A
   field added on one side but not the other ships configs that
   silently drop a knob over the wire.
"""

from __future__ import annotations

import ast

from tools.reprolint.astutil import (
    dataclass_fields,
    find_class,
    find_function,
    string_tuple_constant,
)
from tools.reprolint.core import Finding, Project

__all__ = ["CacheKeyCoverageChecker"]

_KEYS = "src/repro/cache/keys.py"
_OPTIONS = "src/repro/api/options.py"
_REQUEST = "src/repro/api/request.py"
_WIRE = "src/repro/cluster/wire.py"
_COMMON = "src/repro/pixelbox/common.py"


def _calls_dataclass_fields(node: ast.AST) -> bool:
    """Whether ``dataclasses.fields(...)`` / ``fields(...)`` is called."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute) and func.attr == "fields":
            return True
        if isinstance(func, ast.Name) and func.id == "fields":
            return True
    return False


def _calls_function(node: ast.AST, name: str) -> bool:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name) and func.id == name:
            return True
        if isinstance(func, ast.Attribute) and func.attr == name:
            return True
    return False


def _keyword_args(call: ast.Call) -> set[str]:
    return {kw.arg for kw in call.keywords if kw.arg is not None}


class CacheKeyCoverageChecker:
    name = "cache-key-coverage"
    codes = ("RL401", "RL402")

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_dynamic_tokens(project))
        findings.extend(self._check_mirror_lists(project))
        return findings

    # -- half 1: dynamic derivation stays dynamic ----------------------
    def _check_dynamic_tokens(self, project: Project) -> list[Finding]:
        tree = project.tree(_KEYS)
        if tree is None:
            return []
        findings: list[Finding] = []
        field_token = find_function(tree.body, "_field_token")
        if field_token is None or not _calls_dataclass_fields(field_token):
            findings.append(
                Finding(
                    code="RL402",
                    path=_KEYS,
                    line=(
                        field_token.lineno if field_token is not None else 0
                    ),
                    ident="_field_token:dynamic",
                    message=(
                        "_field_token must iterate dataclasses.fields() "
                        "so new LaunchConfig fields auto-invalidate "
                        "cache keys"
                    ),
                )
            )
        for name, callee in (
            ("config_token", "_field_token"),
            ("pairs_key", "config_token"),
        ):
            fn = find_function(tree.body, name)
            if fn is None or not _calls_function(fn, callee):
                findings.append(
                    Finding(
                        code="RL402",
                        path=_KEYS,
                        line=fn.lineno if fn is not None else 0,
                        ident=f"{name}:{callee}",
                        message=(
                            f"{name} must call {callee}: the one cache "
                            f"key reaches every LaunchConfig field only "
                            f"through dynamic field enumeration"
                        ),
                    )
                )
        return findings

    # -- half 2: hard-coded mirror lists stay complete -----------------
    def _check_mirror_lists(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        common = project.tree(_COMMON)
        launch_fields = (
            dataclass_fields(common, "LaunchConfig")
            if common is not None
            else []
        )
        if launch_fields:
            findings.extend(
                self._check_string_mirror(
                    project, _WIRE, "_CONFIG_FIELDS", launch_fields
                )
            )
            findings.extend(
                self._check_string_mirror(
                    project, _REQUEST, "WIRE_CONFIG_FIELDS", launch_fields
                )
            )
            findings.extend(
                self._check_launch_config_call(project, launch_fields)
            )
        return findings

    def _check_string_mirror(
        self,
        project: Project,
        rel: str,
        constant: str,
        source_fields: list[str],
    ) -> list[Finding]:
        tree = project.tree(rel)
        if tree is None:
            return []
        mirror = string_tuple_constant(tree, constant)
        if mirror is None:
            return []
        findings = []
        for field in source_fields:
            if field not in mirror:
                findings.append(
                    Finding(
                        code="RL401",
                        path=rel,
                        line=0,
                        ident=f"{constant}:{field}",
                        message=(
                            f"{constant} is missing field {field!r} of "
                            f"its source dataclass — the mirror list "
                            f"silently drops the knob"
                        ),
                    )
                )
        for extra in mirror:
            if extra not in source_fields:
                findings.append(
                    Finding(
                        code="RL401",
                        path=rel,
                        line=0,
                        ident=f"{constant}:+{extra}",
                        message=(
                            f"{constant} names {extra!r}, which is not a "
                            f"field of its source dataclass"
                        ),
                    )
                )
        return findings

    def _check_launch_config_call(
        self, project: Project, launch_fields: list[str]
    ) -> list[Finding]:
        tree = project.tree(_OPTIONS)
        if tree is None:
            return []
        cls = find_class(tree, "CompareOptions")
        if cls is None:
            return []
        fn = find_function(cls.body, "launch_config")
        if fn is None:
            return []
        passed: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id == "LaunchConfig"
                ):
                    passed |= _keyword_args(node)
        findings = []
        for field in launch_fields:
            if field not in passed:
                findings.append(
                    Finding(
                        code="RL401",
                        path=_OPTIONS,
                        line=fn.lineno,
                        ident=f"launch_config:{field}",
                        message=(
                            f"CompareOptions.launch_config() does not "
                            f"forward LaunchConfig field {field!r} — the "
                            f"knob exists but can never be set from the "
                            f"front door"
                        ),
                    )
                )
        return findings
