"""The one cache-key builder: what identifies a result.

A key is a content-derived sha256 hex digest, equal to another key
exactly when the computation it names would produce bit-for-bit
identical output — areas *and* work counters.  :func:`pairs_key` hashes
the three things that decide that: the pair geometry (each polygon's
int64 vertex array, in pair order), the :class:`LaunchConfig` and the
identity of the executor (``KernelStats`` differ by execution policy).
Both front doors — ``Session`` and ``ComparisonService`` — key through
it; ``sets`` and ``files`` requests key each tile's candidate pairs.

The config token enumerates dataclass fields dynamically: adding a field
to ``LaunchConfig`` changes the token automatically — there is no
per-field list here to forget to update (and the invalidation-matrix
test enforces coverage anyway).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pixelbox.common import LaunchConfig

__all__ = ["config_token", "pairs_key"]


def _field_token(obj) -> str:
    """``field=value`` pairs for every dataclass field, in field order."""
    parts = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        parts.append(f"{f.name}={value!r}")
    return "|".join(parts)


def config_token(config: "LaunchConfig") -> str:
    """Canonical serialization of a :class:`LaunchConfig`."""
    return _field_token(config)


def pairs_key(pairs, config: "LaunchConfig", executor: str = "") -> str:
    """Key for a pair list + launch config + executor identity.

    Hashes each polygon's int64 vertex array directly — equivalent in
    identity to the WKT the wire protocol carries, without building the
    strings.  ``executor`` names who would compute the result (a
    ``Session`` passes :func:`repro.api.options.executor_identity`); a
    store that only ever fronts one executor, like the service's, can
    leave it empty.
    """
    h = hashlib.sha256(b"pairs-v1")
    for p, q in pairs:
        h.update(p.vertices.tobytes())
        h.update(b"\x01")
        h.update(q.vertices.tobytes())
        h.update(b"\x02")
    tokens = "\x00".join((h.hexdigest(), config_token(config), executor))
    return f"request:{hashlib.sha256(tokens.encode()).hexdigest()}"
