"""The compiled chunk: ``leafscan.c``, built on first use.

:meth:`ChunkKernel.run_chunk <repro.pixelbox.kernel.ChunkKernel.run_chunk>`
runs a whole chunk of the production policy — skip-routing, the
sampling-box subdivision with its Lemma-1 classification, and the leaf
pixelization — in one call of the C routine in ``leafscan.c`` when this
module can load it, and with the NumPy programs of
:mod:`repro.pixelbox.vectorized` otherwise.  Both visit the same boxes and
count the same pixels, so which one ran changes wall-clock, never an
area or a counter.

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
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.errors import KernelError
from repro.geometry.polyset import EdgeTable
from repro.pixelbox.common import KernelStats, LaunchConfig

__all__ = ["compiled_chunk", "load", "status"]

SOURCE = Path(__file__).with_name("leafscan.c")
FLAGS = ("-O2", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc")

# leafscan.c's return codes.
_ERRORS = {
    1: "a start box with a non-positive or oversized extent, or an unusable grid",
    2: "the chunk scratch could not be allocated",
    3: "an owner row or edge span out of range",
    4: "a sampling-box subdivision deeper than the stack bound",
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
        fn = lib.pixelbox_chunk
    except (OSError, AttributeError) as exc:
        return None, f"{target} did not load: {exc}"
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    side = [ptr] * 7 + [i64, i64]
    fn.argtypes = [i64, ptr, ptr, i64, i64, i64, i64, i64, *side, *side, ptr, ptr]
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
    """One line naming the chunk program the production policy runs, and why."""
    kind = "NumPy planner and XOR-scan" if load() is None else "compiled C chunk"
    return f"{kind} ({_state[1]})"


def _side(table: EdgeTable) -> list:
    """One side's arguments; the C side bounds every offset by ``len(xs)``."""
    columns = [
        np.ascontiguousarray(getattr(table, name), dtype=np.int32)
        for name in ("xs", "lo", "hi", "ys", "xlo", "xhi")
    ]
    offsets = np.ascontiguousarray(table.offsets, dtype=np.int64)
    if offsets.ndim != 1 or columns[0].ndim != 1 or any(
        c.shape != columns[0].shape for c in columns
    ):
        raise KernelError("edge columns must be 1-D and of one length")
    return [*columns, offsets, len(offsets) - 1, len(columns[0])]


def compiled_chunk(
    table_p: EdgeTable,
    table_q: EdgeTable,
    boxes: np.ndarray,
    has_box: np.ndarray,
    row_base: int,
    cfg: LaunchConfig,
    skip_dim: int | None,
    stats: KernelStats,
) -> np.ndarray:
    """Intersection areas of one chunk of the PIXELBOX variant, in C.

    Pair ``i`` of ``boxes``/``has_box`` owns row ``row_base + i`` of the
    edge tables; start boxes of at most ``skip_dim`` pixels a side
    pixelize whole (``None``: every start box subdivides).  Charges
    ``stats`` exactly as :meth:`ChunkKernel.run_chunk
    <repro.pixelbox.kernel.ChunkKernel.run_chunk>` charges the NumPy
    programs.  Raises :class:`~repro.errors.KernelError` when the library
    is not loaded or rejects its input.
    """
    lib = load()
    if lib is None:
        raise KernelError(f"compiled chunk unavailable: {status()}")
    boxes = np.ascontiguousarray(boxes, dtype=np.int64)
    routed = np.ascontiguousarray(has_box, dtype=np.bool_)
    m = len(routed)
    if boxes.shape != (m, 4) or routed.ndim != 1:
        raise KernelError(
            f"boxes must be int64[n, 4] with n routing flags, got {boxes.shape} "
            f"and {routed.shape}"
        )
    nx, ny = cfg.grid
    inter = np.zeros(m, dtype=np.int64)
    counters = np.zeros(len(fields(KernelStats)), dtype=np.int64)
    args = [
        m, boxes, routed, int(row_base), cfg.threshold, nx, ny,
        -1 if skip_dim is None else int(skip_dim),
        *_side(table_p), *_side(table_q), inter, counters,
    ]
    code = lib.pixelbox_chunk(
        *(a.ctypes.data if isinstance(a, np.ndarray) else a for a in args)
    )
    if code:
        raise KernelError(
            f"compiled chunk rejected its input: {_ERRORS.get(code, code)}"
        )
    stats.merge(KernelStats(*counters.tolist()))
    return inter
