"""The one cache-key builder: what identifies a result.

A key is a content-derived sha256 hex digest, equal to another key
exactly when the computation it names would produce bit-for-bit
identical output — areas *and* work counters.  :func:`pairs_key` hashes
the two things that decide that: the pair geometry (per side, the int64
vertices and vertex counts of each pair's polygon, in pair order) and
the :class:`LaunchConfig`.  The
executor is not part of it: every registered backend runs the one
production policy, so a result computed on any of them answers the same
pairs on every other.  The one launch path (``Session``'s) keys through
it, and ``ComparisonService`` keys each request once, at admission;
``sets`` and ``files`` requests key each tile's candidate pairs.

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

import numpy as np

from repro.geometry.polyset import ragged_rows
from repro.pixelbox.kernel import PairBatch

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


def pairs_key(pairs, config: "LaunchConfig") -> str:
    """Key for a :class:`~repro.pixelbox.kernel.PairBatch` (a pair list
    keys as its batch) + launch config.

    Hashes the batch's arrays directly — equivalent in identity to the
    WKT the wire protocol carries, without building the strings.
    """
    batch = PairBatch.from_pairs(pairs)
    h = hashlib.sha256(b"pairs-v2")
    for side, idx in ((batch.left, batch.left_idx), (batch.right, batch.right_idx)):
        counts = np.diff(side.offsets)[idx]
        h.update(counts)  # contiguous arrays hash as their bytes, uncopied
        h.update(side.vertices[ragged_rows(side.offsets[idx], counts)[0]])
    tokens = "\x00".join((h.hexdigest(), config_token(config)))
    return f"request:{hashlib.sha256(tokens.encode()).hexdigest()}"
