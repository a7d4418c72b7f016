"""The compiled library: the package's C sources, built on first use.

One shared library holds every compiled entry point, listed in
:data:`ENTRY_POINTS`:

* ``pixelbox_chunk`` (``pixelbox/leafscan.c``) — one chunk of the
  production kernel policy: skip-routing, the sampling-box subdivision
  with its Lemma-1 classification, and the leaf pixelization.  Its one
  caller is :func:`repro.pixelbox.kernel.compiled_chunk`.
* ``polyscan`` (``io/polyscan.c``) — the parser stage's one pass over a
  polygon file's bytes.  Its one caller is
  :func:`repro.io.parser_cpu.compiled_scan`.

Each stage runs in C when this module can load the library and in NumPy
otherwise, with the same results, so which one ran changes wall-clock,
never an area, a counter, a polygon or a parse error.

The library is compiled once per set of sources, compiler version and
flag set with ``cc`` (or ``gcc``) from ``PATH`` into
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` when unset; a temporary
directory when that is not writable).  The compiler writes a temporary
name that is then renamed into place, so processes compiling at once
never load a half-written file.  No ``-march=native``: the cache may be
shared between hosts.

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

__all__ = ["ENTRY_POINTS", "load", "status"]

_HERE = Path(__file__).parent
SOURCES = (_HERE / "pixelbox" / "leafscan.c", _HERE / "io" / "polyscan.c")
FLAGS = ("-O2", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc")

_ptr, _i64 = ctypes.c_void_p, ctypes.c_int64
_SIDE = [_ptr] * 7 + [_i64, _i64]
# entry point -> (argtypes, restype)
ENTRY_POINTS = {
    "pixelbox_chunk": (
        [_i64, _ptr, _ptr, _i64, _i64, _i64, _i64, _i64, *_SIDE, *_SIDE, _ptr, _ptr],
        ctypes.c_int,
    ),
    "polyscan": ([_ptr, _i64, _ptr, _ptr, _ptr, _ptr], None),
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
        sources = [path.read_bytes() for path in SOURCES]
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, timeout=30, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"{compiler} unusable: {exc}"
    digest = hashlib.sha256(
        b"\0".join([*sources, version, " ".join(FLAGS).encode()])
    ).hexdigest()[:16]
    built_by = version.decode(errors="replace").splitlines()[0]
    cache = _cache_dir()
    if cache is not None:
        return _compile_and_load(compiler, cache / f"repro-{digest}.so", built_by)
    # A loaded library stays mapped after its file is gone, so a
    # per-process build directory is removed at once instead of leaking.
    with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
        return _compile_and_load(compiler, Path(tmp) / "repro.so", built_by)


def _compile_and_load(
    compiler: str, target: Path, built_by: str
) -> tuple[ctypes.CDLL | None, str]:
    """Compile into ``target`` unless it exists, then load it."""
    if not target.exists():
        fd, tmp = tempfile.mkstemp(prefix=".repro-", suffix=".so", dir=target.parent)
        os.close(fd)
        try:
            done = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, *map(str, SOURCES)],
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
        for name, (argtypes, restype) in ENTRY_POINTS.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError) as exc:
        return None, f"{target} did not load: {exc}"
    return lib, f"{target.name} built by {built_by}"


def load() -> ctypes.CDLL | None:
    """The compiled library, building it on the first call in a process."""
    global _state
    with _lock:
        if _state is None:
            _state = _build()
        return _state[0]


def status() -> str:
    """One line naming the library's entry points, whether they run, and why."""
    names = ", ".join(ENTRY_POINTS)
    kind = "NumPy in place of" if load() is None else "compiled C"
    return f"{kind} {names} ({_state[1]})"
