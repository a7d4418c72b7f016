"""Canonical cache-key builders for the three result-cache tiers.

All keys are content-derived sha256 hex digests with a tier prefix, so
a key equals another key exactly when the computation it names would
produce bit-for-bit identical output:

* shard tier  — ``(bundle_digest, shard range, ExecutionPolicy,
  LaunchConfig)``.  The bundle digest already content-addresses the CSR
  edge tables, MBR boxes, and box mask (``cluster.wire.bundle_digest``);
  the policy and config tokens cover everything else a kernel run
  depends on.
* merge tier  — the shard-tier identity minus the range: one assembled
  result per ``(bundle, policy, config)``.
* request tier — the canonical serialized :class:`CompareRequest`
  (PR 5 made ``to_json`` canonical: sorted WKT payload, omitted-default
  options), nothing else.

Tokens enumerate dataclass fields dynamically: adding a field to
``ExecutionPolicy`` / ``LaunchConfig`` changes the token automatically —
there is no per-field list here to forget to update (and the
invalidation-matrix test enforces coverage anyway).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.request import CompareRequest
    from repro.pixelbox.common import LaunchConfig
    from repro.pixelbox.kernel import ExecutionPolicy

__all__ = [
    "config_token",
    "merge_key",
    "pairs_key",
    "policy_token",
    "request_key",
    "shard_key",
]


def _field_token(obj) -> str:
    """``field=value`` pairs for every dataclass field, in field order."""
    parts = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        parts.append(f"{f.name}={value!r}")
    return "|".join(parts)


def policy_token(policy: "ExecutionPolicy") -> str:
    """Canonical serialization of an :class:`ExecutionPolicy`."""
    return _field_token(policy)


def config_token(config: "LaunchConfig") -> str:
    """Canonical serialization of a :class:`LaunchConfig`."""
    return _field_token(config)


def _digest(prefix: str, tokens: Iterable[str]) -> str:
    h = hashlib.sha256()
    for token in tokens:
        h.update(token.encode())
        h.update(b"\x00")
    return f"{prefix}:{h.hexdigest()}"


def shard_key(
    digest: str,
    lo: int,
    hi: int,
    policy: "ExecutionPolicy",
    config: "LaunchConfig",
) -> str:
    """Key for one shard's result over a content-addressed bundle."""
    return _digest(
        "shard",
        (digest, f"{lo}:{hi}", policy_token(policy), config_token(config)),
    )


def merge_key(
    digest: str, policy: "ExecutionPolicy", config: "LaunchConfig"
) -> str:
    """Key for a fully assembled result over a content-addressed bundle."""
    return _digest("merge", (digest, policy_token(policy), config_token(config)))


def request_key(request: "CompareRequest") -> str:
    """Key for a front-door request: its canonical JSON."""
    return _digest("request", (request.to_json(),))


def pairs_key(pairs, config: "LaunchConfig") -> str:
    """Key for a raw pair list + launch config (the service submit path).

    Hashes each polygon's int64 vertex array directly — equivalent in
    identity to the WKT the wire protocol carries, without building the
    strings.
    """
    h = hashlib.sha256(b"pairs-v1")
    for p, q in pairs:
        h.update(p.vertices.tobytes())
        h.update(b"\x01")
        h.update(q.vertices.tobytes())
        h.update(b"\x02")
    return _digest("request", (h.hexdigest(), config_token(config)))
