"""Host fingerprint, reference loop, process memory readings and the
end of every process the benchmark starts."""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[2]


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def ref_loop_s() -> float:
    """A fixed pure-Python + NumPy loop that runs no ``repro`` code.

    Timed at the start and the end of every workload: its value says how
    fast the host was, its max/min how much the host drifted meanwhile.
    The NumPy half works in place: with temporaries it would time the
    allocator, whose mmap threshold moves with what the process did
    before.  Median of five passes of ~0.06 s.
    """
    data = np.arange(400_000, dtype=np.int64)
    work = np.empty_like(data)
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += (i * i) % 7
        for _ in range(16):
            np.multiply(data, 31 + acc % 5, out=work)
            np.remainder(work, 1009, out=work)
            work.sort()
            acc += int(work[1000])
        passes.append(time.perf_counter() - start)
    return sorted(passes)[2]


def fingerprint() -> dict:
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


def src_lines() -> int:
    """Lines of Python under ``src/`` (ROADMAP: a drop at constant
    behaviour is a result)."""
    total = 0
    for path in (REPO / "src").rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of one process in MiB (``VmHWM``).

    Not ``ru_maxrss``: after ``exec`` that field still holds the peak of
    the process that forked, so a trial would report the benchmark's own
    memory whenever the benchmark is the larger of the two.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":  # not Linux
        import resource

        scale = 2**20 if sys.platform == "darwin" else 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    return 0.0


def private_mb(pid: int) -> float:
    """Resident memory only this process maps, in MiB, now.

    For a forked pool worker this is what the worker adds: its peak RSS
    would start at the size of the process that forked it, which in the
    traced run is the benchmark itself.
    """
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    except OSError:
        return 0.0
    return total / 1024.0


def child_pids() -> list[int]:
    """Live direct children of this process (pool workers, a server)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # "pid (comm) state ppid ..."; comm may hold spaces and parentheses.
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            out.append(int(entry))
    return out


def largest_child_rss_mb() -> float:
    return max((peak_rss_mb(pid) for pid in child_pids()), default=0.0)


# ----------------------------------------------------------------------
# No process outlives the benchmark
# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    ends first (Linux child subreaper), so that `end_children` can wait
    for it.  A trial's `multiprocessing` resource tracker is one: it ends
    only after the trial did, and would otherwise be left to init."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as usual


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so that every ``finally`` on the way
    out (server shutdown, trial kill, `end_children`) still runs."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def end_children(grace_s: float = 10.0) -> None:
    """Wait until every child of this process has ended; kill what is
    still there after ``grace_s``.  Call last: it collects the exit
    status of any child, so no `Popen` may still be waited for.

    `multiprocessing` starts a resource tracker with the first shared
    memory block or pool, as a child of the process that uses the
    multiprocess backend.  It runs until its pipe closes, which without
    this would be when that process exits: a moment too late to wait."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes the pipe and waits for the tracker
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, 0 if killed else os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid == 0:
            if time.monotonic() < deadline:
                time.sleep(0.01)
                continue
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
