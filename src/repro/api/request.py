"""The declarative comparison request: *what* to compare, plus options.

A :class:`CompareRequest` is the one spec every front door produces:

* the CLI (``repro compare A B --backend cluster``) parses its flags
  into one (:func:`request_from_cli`);
* the service's JSON-lines protocol decodes each ``compare`` line into
  one (:func:`request_from_wire`);
* the library builds one from keyword arguments
  (:meth:`repro.Session.compare_files` and friends).

The payload comes in three kinds — an explicit pair list (``pairs``),
two polygon sets to join and compare (``sets``), or two on-disk result
directories to compare tile by tile (``files``) — and the request
is fully serializable (:meth:`CompareRequest.to_dict` /
:meth:`CompareRequest.from_dict`, polygons as WKT), so the exact same
spec object can be logged, replayed, shipped to ``repro explain``, or
posted to a running service.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.api.options import CompareOptions
from repro.errors import RequestError
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.wkt import polygon_from_wkt, polygon_to_wkt
from repro.pixelbox.common import LAUNCH_FIELDS

__all__ = [
    "CompareRequest",
    "request_from_cli",
    "request_from_wire",
]

Pair = tuple[RectilinearPolygon, RectilinearPolygon]

_KINDS = ("pairs", "sets", "files")


def _as_pairs(raw: Sequence) -> tuple[Pair, ...]:
    pairs: list[Pair] = []
    for item in raw:
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise RequestError("each pair must be a (polygon, polygon) 2-tuple")
        p, q = item
        if not isinstance(p, RectilinearPolygon) or not isinstance(
            q, RectilinearPolygon
        ):
            raise RequestError(
                "pairs must contain RectilinearPolygon objects "
                "(parse WKT with repro.geometry.wkt first)"
            )
        pairs.append((p, q))
    return tuple(pairs)


def _as_set(raw: Sequence, side: str) -> tuple[RectilinearPolygon, ...]:
    polys = tuple(raw)
    for poly in polys:
        if not isinstance(poly, RectilinearPolygon):
            raise RequestError(
                f"set_{side} must contain RectilinearPolygon objects"
            )
    return polys


@dataclass(frozen=True)
class CompareRequest:
    """One cross-comparison, fully specified and serializable.

    Exactly one payload is set, reported by :attr:`kind`:

    ``"pairs"``
        :attr:`pairs` — explicit candidate pairs, compared as given.
    ``"sets"``
        :attr:`set_a` / :attr:`set_b` — two polygon sets; the MBR join
        picks the candidate pairs (one tile's cross-comparison).
    ``"files"``
        :attr:`dir_a` / :attr:`dir_b` — two result-set directories;
        every tile pair is parsed and compared as one ``sets`` payload
        (parse, index, filter, aggregate), and the tiles are summed.

    Build one with :meth:`from_pairs` / :meth:`from_sets` /
    :meth:`from_files` rather than the raw constructor.
    """

    pairs: tuple[Pair, ...] | None = None
    set_a: tuple[RectilinearPolygon, ...] | None = None
    set_b: tuple[RectilinearPolygon, ...] | None = None
    dir_a: str | None = None
    dir_b: str | None = None
    options: CompareOptions = CompareOptions()

    def __post_init__(self) -> None:
        has_pairs = self.pairs is not None
        has_sets = self.set_a is not None or self.set_b is not None
        has_files = self.dir_a is not None or self.dir_b is not None
        if sum((has_pairs, has_sets, has_files)) != 1:
            raise RequestError(
                "exactly one payload required: pairs, (set_a, set_b), "
                "or (dir_a, dir_b)"
            )
        if has_sets and (self.set_a is None or self.set_b is None):
            raise RequestError("sets requests need both set_a and set_b")
        if has_files and (self.dir_a is None or self.dir_b is None):
            raise RequestError("files requests need both dir_a and dir_b")
        if not isinstance(self.options, CompareOptions):
            raise RequestError(
                f"options must be CompareOptions, got "
                f"{type(self.options).__name__}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls, pairs: Sequence[Pair], options: CompareOptions | None = None
    ) -> "CompareRequest":
        """Request over explicit candidate pairs."""
        return cls(
            pairs=_as_pairs(pairs), options=options or CompareOptions()
        )

    @classmethod
    def from_sets(
        cls,
        set_a: Sequence[RectilinearPolygon],
        set_b: Sequence[RectilinearPolygon],
        options: CompareOptions | None = None,
    ) -> "CompareRequest":
        """Request over two in-memory polygon sets (one tile)."""
        return cls(
            set_a=_as_set(set_a, "a"),
            set_b=_as_set(set_b, "b"),
            options=options or CompareOptions(),
        )

    @classmethod
    def from_files(
        cls,
        dir_a: str | Path,
        dir_b: str | Path,
        options: CompareOptions | None = None,
    ) -> "CompareRequest":
        """Request over two on-disk result-set directories."""
        return cls(
            dir_a=str(dir_a),
            dir_b=str(dir_b),
            options=options or CompareOptions(),
        )

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"pairs"``, ``"sets"``, or ``"files"``."""
        if self.pairs is not None:
            return "pairs"
        if self.set_a is not None:
            return "sets"
        return "files"

    def launch_config(self):
        """Shorthand for ``request.options.launch_config()``."""
        return self.options.launch_config()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able spec (polygons as WKT literals)."""
        out: dict[str, Any] = {"kind": self.kind}
        if self.pairs is not None:
            out["pairs"] = [
                [polygon_to_wkt(p), polygon_to_wkt(q)] for p, q in self.pairs
            ]
        elif self.set_a is not None:
            out["set_a"] = [polygon_to_wkt(p) for p in self.set_a]
            out["set_b"] = [polygon_to_wkt(q) for q in self.set_b]
        else:
            out["dir_a"] = self.dir_a
            out["dir_b"] = self.dir_b
        options = self.options.to_dict()
        if options:
            out["options"] = options
        return out

    def to_json(self) -> str:
        """Compact JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CompareRequest":
        """Parse a spec produced by :meth:`to_dict` (or hand-written)."""
        if not isinstance(raw, Mapping):
            raise RequestError(
                f"request must be a mapping, got {type(raw).__name__}"
            )
        unknown = set(raw) - {
            "kind", "pairs", "set_a", "set_b", "dir_a", "dir_b", "options"
        }
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        options = CompareOptions.from_dict(raw.get("options"))
        kind = raw.get("kind")
        if kind is not None and kind not in _KINDS:
            raise RequestError(f"unknown request kind {kind!r} ({_KINDS})")
        if "pairs" in raw:
            pairs = raw["pairs"]
            if not isinstance(pairs, Sequence) or isinstance(pairs, str):
                raise RequestError("'pairs' must be a list of [wkt, wkt]")
            decoded = []
            for item in pairs:
                if not isinstance(item, Sequence) or len(item) != 2:
                    raise RequestError("each pair must be a [wkt, wkt] 2-list")
                decoded.append(
                    (polygon_from_wkt(item[0]), polygon_from_wkt(item[1]))
                )
            return cls.from_pairs(decoded, options)
        if "set_a" in raw or "set_b" in raw:
            set_a = raw.get("set_a")
            set_b = raw.get("set_b")
            if not isinstance(set_a, Sequence) or not isinstance(
                set_b, Sequence
            ):
                raise RequestError("'set_a' and 'set_b' must be WKT lists")
            return cls.from_sets(
                [polygon_from_wkt(w) for w in set_a],
                [polygon_from_wkt(w) for w in set_b],
                options,
            )
        if "dir_a" in raw or "dir_b" in raw:
            dir_a, dir_b = raw.get("dir_a"), raw.get("dir_b")
            if not isinstance(dir_a, str) or not isinstance(dir_b, str):
                raise RequestError("'dir_a' and 'dir_b' must be paths")
            return cls.from_files(dir_a, dir_b, options)
        raise RequestError(
            "request needs a payload: 'pairs', 'set_a'/'set_b', or "
            "'dir_a'/'dir_b'"
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "CompareRequest":
        """Parse a JSON spec (the ``repro explain`` input format)."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RequestError(f"malformed request JSON: {exc}") from None
        return cls.from_dict(raw)


# ----------------------------------------------------------------------
# Front-door adapters: every surface parses into the same spec
# ----------------------------------------------------------------------
def request_from_cli(
    dir_a: str | Path,
    dir_b: str | Path,
    backend: str = "batch",
    hosts: str | None = None,
    workers: int | None = None,
    cache: bool = False,
    trace: bool = False,
    trace_out: str | None = None,
) -> CompareRequest:
    """``repro compare`` flags -> the same :class:`CompareRequest`."""
    backend_options: dict[str, Any] = {}
    if workers is not None:
        backend_options["workers"] = workers
    options = CompareOptions(
        backend=backend,
        backend_options=backend_options,
        hosts=hosts,
        cache=cache,
        trace=trace,
        trace_out=trace_out,
    )
    return CompareRequest.from_files(dir_a, dir_b, options)


def request_from_wire(
    message: Mapping[str, Any],
    base_options: CompareOptions | None = None,
) -> CompareRequest:
    """One decoded service ``compare`` line -> the same spec.

    ``base_options`` carries the serving side's execution substrate (the
    warm backend the service owns); the per-request ``config`` object
    overlays only the kernel launch parameters, which is all a client
    may choose.
    """
    raw_pairs = message.get("pairs")
    if not isinstance(raw_pairs, list):
        raise RequestError("compare request needs a 'pairs' list")
    pairs = []
    for item in raw_pairs:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise RequestError("each pair must be a [wkt, wkt] 2-list")
        pairs.append((polygon_from_wkt(item[0]), polygon_from_wkt(item[1])))
    options = base_options or CompareOptions()
    config = message.get("config")
    if config is not None:
        if not isinstance(config, Mapping):
            raise RequestError("'config' must be an object")
        unknown = set(config) - set(LAUNCH_FIELDS)
        if unknown:
            raise RequestError(f"unknown config fields: {sorted(unknown)}")
        options = options.replace(**dict(config))
    return CompareRequest.from_pairs(pairs, options)
