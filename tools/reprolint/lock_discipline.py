"""RL201: guarded state must only be mutated while holding the lock.

In every class that creates a ``threading.Lock`` / ``RLock`` /
``Condition`` attribute, the set of "guarded" instance attributes is
inferred from usage: an attribute mutated at least once inside a
``with self.<lock>:`` block is guarded.  Any *other* mutation of a
guarded attribute — outside every lock block, in any method but
``__init__`` — is a race waiting for load: the service executor and the
coordinator's per-worker push threads mutate shared client state
concurrently.  (The shard scheduler shares none: one thread owns its
state, and each running copy only posts its outcome to a queue.)

Attributes never mutated under a lock are out of scope (single-threaded
bookkeeping like ``Session.last_trace`` is legitimate); ``__init__``
runs before the object is shared and is exempt.  Reads are never
flagged — lock-free reads of monotonic counters are an accepted idiom
here (``stats()`` snapshots tolerate torn reads by design).
"""

from __future__ import annotations

import ast

from tools.reprolint.astutil import self_attr
from tools.reprolint.core import Finding, Project

__all__ = ["LockDisciplineChecker"]

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}

#: Methods whose call mutates their receiver in place.
_MUTATOR_METHODS = {
    "append", "add", "extend", "insert", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "move_to_end",
    "appendleft", "popleft",
}


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes assigned a ``threading.Lock()``-like object."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = self_attr(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _mutated_attrs(stmt: ast.stmt) -> list[tuple[str, int]]:
    """``(attr, line)`` for every ``self.X`` this statement mutates.

    Covers assignment (including tuple unpacking and subscripts),
    augmented assignment, deletion, and in-place mutator method calls
    (``self.X.add(...)``).
    """
    out: list[tuple[str, int]] = []

    def targets_of(node: ast.expr) -> None:
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                targets_of(elt)
            return
        base = node
        while isinstance(base, (ast.Subscript, ast.Starred)):
            base = (
                base.value if isinstance(base, ast.Subscript) else base.value
            )
        attr = self_attr(base)
        if attr is not None:
            out.append((attr, node.lineno))

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            targets_of(target)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets_of(stmt.target)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            targets_of(target)
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
        ):
            attr = self_attr(func.value)
            if attr is not None:
                out.append((attr, stmt.lineno))
    return out


def _holds_lock(stmt: ast.With | ast.AsyncWith, locks: set[str]) -> bool:
    for item in stmt.items:
        attr = self_attr(item.context_expr)
        if attr in locks:
            return True
    return False


def _walk_method(
    body: list[ast.stmt],
    locks: set[str],
    in_lock: bool,
    guarded_sink: list[tuple[str, int]],
    unguarded_sink: list[tuple[str, int]],
) -> None:
    """Classify every ``self.X`` mutation by whether a lock is held."""
    for stmt in body:
        sink = guarded_sink if in_lock else unguarded_sink
        sink.extend(_mutated_attrs(stmt))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested defs execute later, in an unknown context
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = in_lock or _holds_lock(stmt, locks)
            _walk_method(
                stmt.body, locks, inner, guarded_sink, unguarded_sink
            )
            continue
        for child_body in (
            getattr(stmt, "body", None),
            getattr(stmt, "orelse", None),
            getattr(stmt, "finalbody", None),
        ):
            if child_body:
                _walk_method(
                    child_body, locks, in_lock, guarded_sink, unguarded_sink
                )
        for handler in getattr(stmt, "handlers", ()):
            _walk_method(
                handler.body, locks, in_lock, guarded_sink, unguarded_sink
            )


class LockDisciplineChecker:
    name = "lock-discipline"
    codes = ("RL201",)

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for rel in project.source_files("src/repro"):
            tree = project.tree(rel)
            if tree is None:
                continue
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                findings.extend(self._check_class(rel, cls))
        return findings

    def _check_class(self, rel: str, cls: ast.ClassDef) -> list[Finding]:
        locks = _lock_attrs(cls)
        if not locks:
            return []
        guarded: set[str] = set()
        per_method: dict[str, list[tuple[str, int]]] = {}
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_lock: list[tuple[str, int]] = []
            out_lock: list[tuple[str, int]] = []
            _walk_method(node.body, locks, False, in_lock, out_lock)
            guarded.update(attr for attr, _ in in_lock)
            if node.name != "__init__":
                per_method[node.name] = out_lock
        guarded -= locks
        findings = []
        for method, mutations in per_method.items():
            for attr, line in mutations:
                if attr not in guarded:
                    continue
                findings.append(
                    Finding(
                        code="RL201",
                        path=rel,
                        line=line,
                        ident=f"{cls.name}.{method}:{attr}",
                        message=(
                            f"{cls.name}.{method} mutates "
                            f"`self.{attr}` outside the lock, but other "
                            f"sites guard it with `with self.<lock>`"
                        ),
                    )
                )
        return findings
