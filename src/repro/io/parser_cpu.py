"""CPU text parsers for polygon files.

Two implementations of the pipeline's parser stage (paper §4.1, stage 1):

* :func:`parse_fsm` — a character-at-a-time finite state machine, the
  structure the paper ascribes to text parsing ("text parsing requires
  implementing a finite state machine, which has been shown not very
  efficient for parallel execution").  Scalar reference.
* :func:`parse_vectorized` — the production parser.  One byte scan
  yields every integer value, the line number and value count of each
  line holding data, and the first bad byte (a stray byte, a ``#`` after
  data, or the 19th digit of a run) with its line; whole-array checks
  then pair each line's values into >= 4 vertices, validate every ring
  in one pass (:func:`~repro.geometry.polygon.first_invalid_ring`) and
  emit a :class:`~repro.geometry.polyset.PolygonSet`, with no
  per-polygon object.  The scan is :func:`compiled_scan` (``polyscan.c``
  in the :mod:`repro.native` library) when the library loads, and the
  NumPy scan (comment blanking, digit-run tokenizing, a stray-byte
  mask) otherwise; both return the same arrays for the lines that
  matter.

For any text both parsers return equal polygons, or both raise
:class:`~repro.errors.ParseError` with the same message.  The §4 model
(:mod:`repro.pipeline.model`) has no device parser of its own: a parse
task migrated to a device costs the production parser's measured
seconds scaled by the device's speed, plus a launch.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import native
from repro.errors import ParseError
from repro.geometry.polygon import RectilinearPolygon, first_invalid_ring
from repro.geometry.polyset import PolygonSet

__all__ = ["parse_fsm", "parse_vectorized", "tokenize_numbers"]

_OUTSIDE = 0
_IN_NUMBER = 1
_COMMENT = 2

# Longest integer literal: 18 digits always fit an int64.
_MAX_DIGITS = 18
_TOO_LONG = f"integer literal longer than {_MAX_DIGITS} digits"
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
# Bytes allowed outside comments: digits, ``,``, space, ``\t``, ``\r``, ``\n``.
_ALLOWED = np.zeros(256, dtype=bool)
_ALLOWED[[9, 10, 13, 32, 44, *range(48, 58)]] = True


def parse_fsm(text: str | bytes) -> list[RectilinearPolygon]:
    """Finite-state-machine parser (scalar reference implementation)."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")  # one character per byte
    polygons: list[RectilinearPolygon] = []
    state = _OUTSIDE
    value = digits = 0
    coords: list[int] = []
    lineno = 1

    def end_number() -> None:
        if digits > _MAX_DIGITS:
            raise ParseError(f"line {lineno}: {_TOO_LONG}")
        coords.append(value)

    def flush_line() -> None:
        nonlocal coords
        if not coords:
            return
        if len(coords) % 2 != 0:
            raise ParseError(f"line {lineno}: odd coordinate count")
        if len(coords) < 8:
            raise ParseError(f"line {lineno}: only {len(coords) // 2} vertices")
        try:
            polygons.append(
                RectilinearPolygon(
                    np.asarray(coords, dtype=np.int64).reshape(-1, 2)
                )
            )
        except Exception as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        coords = []

    for ch in text:
        if state == _COMMENT:
            if ch == "\n":
                state = _OUTSIDE
                lineno += 1
            continue
        if "0" <= ch <= "9":
            if state == _IN_NUMBER:
                value = value * 10 + ord(ch) - 48
                digits += 1
            else:
                state = _IN_NUMBER
                value, digits = ord(ch) - 48, 1
            continue
        if state == _IN_NUMBER:
            end_number()
            state = _OUTSIDE
        if ch == "\n":
            flush_line()
            lineno += 1
        elif ch == "#":
            if coords:
                raise ParseError(f"line {lineno}: comment after data")
            state = _COMMENT
        elif ch not in (",", " ", "\t", "\r"):
            raise ParseError(f"line {lineno}: unexpected character {ch!r}")
    if state == _IN_NUMBER:
        end_number()
    flush_line()
    return polygons


def tokenize_numbers(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized integer tokenizer: the value of every digit run of the
    uint8 file bytes ``data`` and the byte offset where it starts (both
    int64, in file order)."""
    values, positions, lengths = _tokens(data)
    if np.any(lengths > _MAX_DIGITS):
        raise ParseError(_TOO_LONG)
    return values, positions


def _tokens(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, start offsets and lengths of every digit run (a run longer
    than ``_MAX_DIGITS`` gets a meaningless value)."""
    digit_pos = np.flatnonzero((data >= 48) & (data <= 57))
    if len(digit_pos) == 0:
        return np.zeros((3, 0), dtype=np.int64)
    # A run starts wherever a digit does not follow the previous byte's.
    run_first = np.flatnonzero(np.diff(digit_pos, prepend=-2) != 1)
    lengths = np.diff(np.append(run_first, len(digit_pos)))
    # Positional accumulation: digit * 10 ** (places to the run's end).
    places = np.repeat(run_first + lengths, lengths) - np.arange(1, len(digit_pos) + 1)
    contrib = (data[digit_pos].astype(np.int64) - 48) * _POW10[
        np.minimum(places, _MAX_DIGITS - 1)
    ]
    return np.add.reduceat(contrib, run_first), digit_pos[run_first], lengths


def parse_vectorized(raw: bytes | str | Path) -> PolygonSet:
    """Vectorized parser over raw bytes/str content or a path (production
    path); the first bad line raises what :func:`parse_fsm` raises."""
    scan = compiled_scan if native.load() is not None else _numpy_scan
    return _parse(raw, scan)


def _parse(raw: bytes | str | Path, scan) -> PolygonSet:
    """:func:`parse_vectorized` with the byte scan ``scan``."""
    if isinstance(raw, Path):
        raw = raw.read_bytes()
    elif isinstance(raw, str):
        raw = raw.encode("ascii")
    data = np.frombuffer(raw, dtype=np.uint8)
    values, lines, counts, at, at_line = scan(data)

    # Byte-level errors, at the byte the FSM stops on: a stray byte (a
    # ``#`` left after data is one), or the 19th digit of a run.
    limit, error = len(data) + 1, None
    if at >= 0:
        limit, ch = at_line, chr(data[at])
        error = (
            "comment after data" if ch == "#"
            else _TOO_LONG if ch.isdigit() else f"unexpected character {ch!r}"
        )

    # Line-level errors: a line's coordinates must pair up into >= 4 vertices.
    short = np.flatnonzero((counts % 2 != 0) | (counts < 8))
    if len(short) and lines[short[0]] < limit:
        limit, count = int(lines[short[0]]), int(counts[short[0]])
        error = "odd coordinate count" if count % 2 else f"only {count // 2} vertices"

    # Every ring before the first bad line is validated in one pass.
    offsets = np.concatenate([[0], np.cumsum(counts[: np.searchsorted(lines, limit)] // 2)])
    vertices = values[: 2 * offsets[-1]].reshape(-1, 2)
    bad = first_invalid_ring(vertices, offsets)
    if bad is not None:
        raise ParseError(f"line {int(lines[bad[0]]) + 1}: {bad[1]}") from bad[1]
    if error is not None:
        raise ParseError(f"line {limit + 1}: {error}")
    return PolygonSet._trusted(vertices, offsets)


def compiled_scan(data: np.ndarray) -> tuple:
    """The byte scan in C (``polyscan.c``): every value, the line number
    and value count of each line holding one, and the first bad byte
    (-1 when none) with its line; lines after that line may be missing."""
    lib = native.load()
    if lib is None:
        raise ParseError(f"compiled scan unavailable: {native.status()}")
    data = np.ascontiguousarray(data, dtype=np.uint8).ravel()
    cap = len(data) // 2 + 1
    values = np.empty(cap, dtype=np.int64)
    lines = np.empty(cap, dtype=np.int64)
    counts = np.empty(cap, dtype=np.int64)
    out = np.empty(4, dtype=np.int64)
    lib.polyscan(
        data.ctypes.data, len(data), values.ctypes.data, lines.ctypes.data,
        counts.ctypes.data, out.ctypes.data,
    )
    n_values, n_lines, at, at_line = out.tolist()
    return values[:n_values], lines[:n_lines], counts[:n_lines], at, at_line


def _numpy_scan(data: np.ndarray) -> tuple:
    """:func:`compiled_scan` in NumPy, for hosts without the library."""
    newlines = np.flatnonzero(data == 10)
    data = _strip_comments(data, newlines)
    values, positions, lengths = _tokens(data)
    lines, counts = np.unique(np.searchsorted(newlines, positions), return_counts=True)
    stray = np.flatnonzero(~_ALLOWED[data])
    too_long = (positions + _MAX_DIGITS)[lengths > _MAX_DIGITS]
    at = min(stray[:1].tolist() + too_long[:1].tolist(), default=-1)
    return values, lines, counts, at, int(np.searchsorted(newlines, at))


def _strip_comments(data: np.ndarray, newlines: np.ndarray) -> np.ndarray:
    """Blank ``# ...`` comments, one slice write each (they are rare file
    headers); a ``#`` after data on its line is left for the byte check."""
    hashes = np.flatnonzero(data == 35)
    if len(hashes) == 0:
        return data
    line, first = np.unique(np.searchsorted(newlines, hashes), return_index=True)
    hashes = hashes[first]
    bounds = np.concatenate([[-1], newlines, [len(data)]])
    seen = np.concatenate([[0], np.cumsum((data >= 48) & (data <= 57))])
    out = data.copy()
    for h, ln in zip(hashes.tolist(), line.tolist()):
        if seen[h] == seen[bounds[ln] + 1]:
            out[h : bounds[ln + 1]] = 32
    return out
