"""The compiled leaf pixelizer: ``leafscan.c``, built on first use.

:meth:`ChunkKernel.run_chunk <repro.pixelbox.kernel.ChunkKernel.run_chunk>`
pixelizes the leaves of the production policy with the C routine in
``leafscan.c`` when this module can load it, and with the NumPy XOR-scan
of :func:`repro.pixelbox.vectorized.stacked_leaf_counts` otherwise.  Both
compute the same integer counts, so which one ran changes wall-clock,
never a result.

The library is compiled once per source, compiler version and flag set
with ``cc`` (or ``gcc``) from ``PATH`` into ``$XDG_CACHE_HOME/repro``
(``~/.cache/repro`` when unset; a temporary directory when that is not
writable).  The compiler writes a temporary name that is then renamed
into place, so processes compiling at once never load a half-written
file.  No ``-march=native``: the cache may be shared between hosts.

:func:`load` is idempotent per process and never raises: when there is no
compiler, the compile fails or the library does not load, it returns
``None`` and :func:`status` says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.errors import KernelError
from repro.geometry.polyset import EdgeTable

__all__ = ["compiled_leaf_counts", "load", "status"]

SOURCE = Path(__file__).with_name("leafscan.c")
FLAGS = ("-O2", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc")

# leafscan.c's return codes.
_ERRORS = {
    1: "a leaf with a non-positive or oversized extent",
    2: "the leaf scratch buffer could not be allocated",
    3: "a leaf owner row or edge span out of range",
}

# The loaded library is process-wide, as the dlopen behind it is:
# (library or None, reason), None until the first load().
_lock = threading.Lock()
_state: tuple[ctypes.CDLL | None, str] | None = None


def _cache_dir() -> Path | None:
    """The shared build cache, or ``None`` when it is not writable."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path if os.access(path, os.W_OK | os.X_OK) else None


def _build() -> tuple[ctypes.CDLL | None, str]:
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        return None, f"no C compiler ({', '.join(COMPILERS)}) on PATH"
    try:
        source = SOURCE.read_bytes()
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, timeout=30, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"{compiler} unusable: {exc}"
    digest = hashlib.sha256(
        b"\0".join([source, version, " ".join(FLAGS).encode()])
    ).hexdigest()[:16]
    built_by = version.decode(errors="replace").splitlines()[0]
    cache = _cache_dir()
    if cache is not None:
        return _compile_and_load(compiler, cache / f"leafscan-{digest}.so", built_by)
    # A loaded library stays mapped after its file is gone, so a
    # per-process build directory is removed at once instead of leaking.
    with tempfile.TemporaryDirectory(prefix="repro-leafscan-") as tmp:
        return _compile_and_load(compiler, Path(tmp) / "leafscan.so", built_by)


def _compile_and_load(
    compiler: str, target: Path, built_by: str
) -> tuple[ctypes.CDLL | None, str]:
    """Compile into ``target`` unless it exists, then load it."""
    if not target.exists():
        fd, tmp = tempfile.mkstemp(prefix=".leafscan-", suffix=".so", dir=target.parent)
        os.close(fd)
        try:
            done = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if done.returncode != 0:
                first = (done.stderr.strip().splitlines() or ["no output"])[0]
                return None, f"{compiler} failed ({done.returncode}): {first}"
            os.replace(tmp, target)
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"{compiler} failed: {exc}"
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        lib = ctypes.CDLL(str(target))
        fn = lib.leafscan_intersections
    except (OSError, AttributeError) as exc:
        return None, f"{target} did not load: {exc}"
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = [i64, ptr, ptr] + [ptr, ptr, ptr, ptr, i64, i64] * 2 + [ptr]
    fn.restype = ctypes.c_int
    return lib, f"{target.name} built by {built_by}"


def load() -> ctypes.CDLL | None:
    """The compiled library, building it on the first call in a process."""
    global _state
    with _lock:
        if _state is None:
            _state = _build()
        return _state[0]


def status() -> str:
    """One line naming the leaf pixelizer the production policy runs, and why."""
    kind = "NumPy XOR-scan" if load() is None else "compiled C leafscan"
    return f"{kind} ({_state[1]})"


def _side(table: EdgeTable) -> list:
    """One side's arguments; the C side bounds every offset by ``len(xs)``."""
    xs, lo, hi = (
        np.ascontiguousarray(c, dtype=np.int32) for c in (table.xs, table.lo, table.hi)
    )
    offsets = np.ascontiguousarray(table.offsets, dtype=np.int64)
    if not xs.ndim == lo.ndim == hi.ndim == offsets.ndim == 1 or not (
        len(xs) == len(lo) == len(hi)
    ):
        raise KernelError("edge columns must be 1-D and of one length")
    return [xs, lo, hi, offsets, len(offsets) - 1, len(xs)]


def compiled_leaf_counts(
    table_p: EdgeTable,
    table_q: EdgeTable,
    leaves: np.ndarray,
    leaf_owner: np.ndarray,
) -> np.ndarray:
    """Pixel counts of ``p AND q`` per leaf, by the compiled XOR-scan.

    Equal to the intersection counts of ``stacked_leaf_counts`` in either
    leaf mode.  Raises :class:`~repro.errors.KernelError` when the library
    is not loaded or rejects its input.
    """
    lib = load()
    if lib is None:
        raise KernelError(f"compiled leaf pixelizer unavailable: {status()}")
    leaves = np.ascontiguousarray(leaves, dtype=np.int64)
    owner = np.ascontiguousarray(leaf_owner, dtype=np.int64)
    if leaves.ndim != 2 or leaves.shape[1] != 4 or owner.shape != (len(leaves),):
        raise KernelError(
            f"leaves must be int64[n, 4] with n owner rows, got {leaves.shape} "
            f"and {owner.shape}"
        )
    out = np.zeros(len(leaves), dtype=np.int64)
    args = [len(leaves), leaves, owner, *_side(table_p), *_side(table_q), out]
    code = lib.leafscan_intersections(
        *(a.ctypes.data if isinstance(a, np.ndarray) else a for a in args)
    )
    if code:
        raise KernelError(
            f"compiled leaf pixelizer rejected its input: {_ERRORS.get(code, code)}"
        )
    return out
