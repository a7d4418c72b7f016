"""RL3xx: every protocol vocabulary entry has both of its ends.

Two vocabularies define what the distributed system can say, and each
entry needs a speaker *and* a listener or it is dead weight — or worse,
a silently unimplemented capability:

* ``wire.MsgType`` members (the cluster's binary frame types) need an
  encode site (passed to a call, i.e. ``send_frame``/``_call``) and a
  decode site (compared against a received frame type) across
  ``worker.py`` + ``coordinator.py``.  RL301 / RL302.
* service ``OPS`` entries (the JSON-lines vocabulary) need a server
  handler (the op literal compared in ``server.py``) and a
  ``ServiceClient`` method (``self._call("<op>", ...)``).  RL311 / RL312.

Deliberate asymmetries (ops reserved for external tooling) are baseline
entries, each with its reason — visible, reviewed, and fenced off from
accidental new ones.
"""

from __future__ import annotations

import ast

from tools.reprolint.astutil import find_class, string_tuple_constant
from tools.reprolint.core import Finding, Project

__all__ = ["ProtocolExhaustivenessChecker"]

_WIRE = "src/repro/cluster/wire.py"
_WIRE_USERS = (
    "src/repro/cluster/worker.py",
    "src/repro/cluster/coordinator.py",
)
_PROTOCOL = "src/repro/service/protocol.py"
_SERVER = "src/repro/service/server.py"
_CLIENT = "src/repro/service/client.py"


def _msgtype_members(tree: ast.Module) -> list[str]:
    cls = find_class(tree, "MsgType")
    if cls is None:
        return []
    members = []
    for node in cls.body:
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Constant
        ):
            for target in node.targets:
                if isinstance(target, ast.Name) and isinstance(
                    node.value.value, int
                ):
                    members.append(target.id)
    return members


def _is_msgtype_ref(node: ast.expr, member: str) -> bool:
    """``wire.MsgType.X`` or ``MsgType.X``."""
    if not (isinstance(node, ast.Attribute) and node.attr == member):
        return False
    value = node.value
    if isinstance(value, ast.Attribute):
        return value.attr == "MsgType"
    if isinstance(value, ast.Name):
        return value.id == "MsgType"
    return False


def _contains_ref(nodes: list[ast.expr], member: str) -> bool:
    for node in nodes:
        for sub in ast.walk(node):
            if _is_msgtype_ref(sub, member):
                return True
    return False


def _msgtype_usage(
    trees: list[ast.Module], members: list[str]
) -> dict[str, tuple[bool, bool]]:
    """``{member: (has_encode_site, has_decode_site)}``."""
    usage = {m: [False, False] for m in members}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for member in members:
                    if _contains_ref(list(node.args), member):
                        usage[member][0] = True
            elif isinstance(node, ast.Compare):
                exprs = [node.left, *node.comparators]
                for member in members:
                    if _contains_ref(exprs, member):
                        usage[member][1] = True
    return {m: (e, d) for m, (e, d) in usage.items()}


def _compared_strings(tree: ast.Module) -> set[str]:
    """String literals that appear in comparisons anywhere in a module."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for expr in (node.left, *node.comparators):
            if isinstance(expr, ast.Constant) and isinstance(
                expr.value, str
            ):
                out.add(expr.value)
    return out


def _client_ops(tree: ast.Module) -> set[str]:
    """First-argument string of every ``self._call("<op>", ...)``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "_call"):
            continue
        if node.args and isinstance(node.args[0], ast.Constant):
            if isinstance(node.args[0].value, str):
                out.add(node.args[0].value)
    return out


class ProtocolExhaustivenessChecker:
    name = "protocol-exhaustiveness"
    codes = ("RL301", "RL302", "RL311", "RL312")

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_wire(project))
        findings.extend(self._check_service(project))
        return findings

    def _check_wire(self, project: Project) -> list[Finding]:
        wire_tree = project.tree(_WIRE)
        if wire_tree is None:
            return []
        users = [
            t
            for rel in _WIRE_USERS
            if (t := project.tree(rel)) is not None
        ]
        findings: list[Finding] = []
        members = _msgtype_members(wire_tree)
        for member, (enc, dec) in _msgtype_usage(users, members).items():
            if not enc:
                findings.append(
                    Finding(
                        code="RL301",
                        path=_WIRE,
                        line=0,
                        ident=f"MsgType.{member}:encode",
                        message=(
                            f"MsgType.{member} is never sent by worker.py"
                            f"/coordinator.py (no encode site)"
                        ),
                    )
                )
            if not dec:
                findings.append(
                    Finding(
                        code="RL302",
                        path=_WIRE,
                        line=0,
                        ident=f"MsgType.{member}:decode",
                        message=(
                            f"MsgType.{member} is never handled by "
                            f"worker.py/coordinator.py (no decode site)"
                        ),
                    )
                )
        return findings

    def _check_service(self, project: Project) -> list[Finding]:
        proto_tree = project.tree(_PROTOCOL)
        if proto_tree is None:
            return []
        ops = string_tuple_constant(proto_tree, "OPS") or []
        findings: list[Finding] = []
        server_tree = project.tree(_SERVER)
        if server_tree is not None:
            handled = _compared_strings(server_tree)
            for op in ops:
                if op not in handled:
                    findings.append(
                        Finding(
                            code="RL311",
                            path=_PROTOCOL,
                            line=0,
                            ident=f"op:{op}:server",
                            message=(
                                f"service op {op!r} has no handler "
                                f"literal in server.py"
                            ),
                        )
                    )
        client_tree = project.tree(_CLIENT)
        if client_tree is not None:
            called = _client_ops(client_tree)
            for op in ops:
                if op not in called:
                    findings.append(
                        Finding(
                            code="RL312",
                            path=_PROTOCOL,
                            line=0,
                            ident=f"op:{op}:client",
                            message=(
                                f"service op {op!r} has no ServiceClient "
                                f"method (`self._call({op!r}, ...)`)"
                            ),
                        )
                    )
        return findings
