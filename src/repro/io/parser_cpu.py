"""CPU text parsers for polygon files.

Two implementations of the pipeline's parser stage (paper §4.1, stage 1):

* :func:`parse_fsm` — a character-at-a-time finite state machine, the
  structure the paper ascribes to text parsing ("text parsing requires
  implementing a finite state machine, which has been shown not very
  efficient for parallel execution").  Scalar reference.
* :func:`parse_vectorized` — the production parser: tokenizes the whole
  byte buffer with NumPy array operations (digit-run detection +
  positional accumulation), so large parses run in C and release the GIL
  for genuine multi-worker parser scaling.

Both return identical polygon lists for identical input.  The §4 model
(:mod:`repro.pipeline.model`) has no device parser of its own: a parse
task migrated to a device costs the vectorized parser's measured seconds
scaled by the device's speed, plus a launch.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import ParseError
from repro.geometry.polygon import RectilinearPolygon

__all__ = ["parse_fsm", "parse_vectorized", "tokenize_numbers"]

_OUTSIDE = 0
_IN_NUMBER = 1
_COMMENT = 2


def parse_fsm(text: str | bytes) -> list[RectilinearPolygon]:
    """Finite-state-machine parser (scalar reference implementation)."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    polygons: list[RectilinearPolygon] = []
    state = _OUTSIDE
    value = 0
    coords: list[int] = []
    lineno = 1

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
        if ch.isdigit():
            if state == _IN_NUMBER:
                value = value * 10 + ord(ch) - 48
            else:
                state = _IN_NUMBER
                value = ord(ch) - 48
            continue
        if state == _IN_NUMBER:
            coords.append(value)
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
        coords.append(value)
    flush_line()
    return polygons


def tokenize_numbers(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized integer tokenizer.

    Parameters
    ----------
    data:
        uint8 view of the file bytes.

    Returns
    -------
    values, positions:
        The integer value of every digit run and the byte offset where
        each run starts (both int64, in file order).
    """
    digits = (data >= 48) & (data <= 57)
    if not digits.any():
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    prev = np.zeros_like(digits)
    prev[1:] = digits[:-1]
    starts = digits & ~prev
    start_pos = np.flatnonzero(starts)
    token_count = len(start_pos)
    # Token id per digit char, then offset of each digit within its token.
    token_of = np.cumsum(starts) - 1
    digit_pos = np.flatnonzero(digits)
    token_ids = token_of[digit_pos]
    offsets = digit_pos - start_pos[token_ids]
    # Positional accumulation: value = sum(digit * 10 ** (len - 1 - off)).
    lengths = np.bincount(token_ids, minlength=token_count)
    if np.any(lengths > 18):
        raise ParseError("integer literal longer than 18 digits")
    powers = 10 ** (lengths[token_ids] - 1 - offsets).astype(np.int64)
    contrib = (data[digit_pos].astype(np.int64) - 48) * powers
    values = np.zeros(token_count, dtype=np.int64)
    np.add.at(values, token_ids, contrib)
    return values, start_pos


def parse_vectorized(raw: bytes | str | Path) -> list[RectilinearPolygon]:
    """Vectorized parser over the whole byte buffer (production path).

    Accepts raw bytes/str content or a filesystem path.
    """
    if isinstance(raw, Path):
        raw = raw.read_bytes()
    elif isinstance(raw, str):
        raw = raw.encode("ascii")
    data = np.frombuffer(raw, dtype=np.uint8)
    if len(data) == 0:
        return []

    # Blank out comment spans so their digits are not tokenized.
    data = _strip_comments(data)
    values, positions = tokenize_numbers(data)

    newlines = np.flatnonzero(data == 10)
    line_of = np.searchsorted(newlines, positions)
    polygons: list[RectilinearPolygon] = []
    if len(values) == 0:
        return polygons
    boundaries = np.flatnonzero(np.diff(line_of)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(values)]])
    for s, e in zip(starts, ends):
        count = e - s
        if count % 2 != 0:
            raise ParseError(
                f"line {int(line_of[s]) + 1}: odd coordinate count"
            )
        if count < 8:
            raise ParseError(
                f"line {int(line_of[s]) + 1}: only {count // 2} vertices"
            )
        try:
            polygons.append(
                RectilinearPolygon(values[s:e].reshape(-1, 2).copy())
            )
        except Exception as exc:
            raise ParseError(f"line {int(line_of[s]) + 1}: {exc}") from exc
    return polygons


def _strip_comments(data: np.ndarray) -> np.ndarray:
    """Replace ``# ...`` comment spans with spaces.

    Comments are rare (file headers), so each span is blanked with one
    slice write: find the ``#``, find the next newline, overwrite.
    """
    hashes = np.flatnonzero(data == 35)
    if len(hashes) == 0:
        return data
    out = data.copy()
    newlines = np.flatnonzero(data == 10)
    for start in hashes:
        if out[start] != 35:
            continue  # already blanked by an enclosing span
        nl = np.searchsorted(newlines, start)
        end = newlines[nl] if nl < len(newlines) else len(out)
        out[start:end] = 32
    return out
