"""reprolint: each checker must flag its seeded violation and pass a
clean fixture, and the real tree must be clean under the committed
baseline.

Fixture trees are built under ``tmp_path`` with files at the exact
repo-relative paths the checkers address, so the same checker code runs
unchanged over fixtures and over the real repository.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import ALL_CHECKERS  # noqa: E402
from tools.reprolint.__main__ import main  # noqa: E402
from tools.reprolint.asyncio_discipline import (  # noqa: E402
    AsyncioDisciplineChecker,
)
from tools.reprolint.cache_key_coverage import (  # noqa: E402
    CacheKeyCoverageChecker,
)
from tools.reprolint.core import (  # noqa: E402
    Finding,
    Project,
    load_baseline,
    run_checkers,
)
from tools.reprolint.errors_taxonomy import ErrorTaxonomyChecker  # noqa: E402
from tools.reprolint.hot_path import HotPathPurityChecker  # noqa: E402
from tools.reprolint.kernel_seam import KernelSeamChecker  # noqa: E402
from tools.reprolint.lock_discipline import LockDisciplineChecker  # noqa: E402
from tools.reprolint.protocol_exhaustiveness import (  # noqa: E402
    ProtocolExhaustivenessChecker,
)

BASELINE = REPO_ROOT / "tools" / "reprolint_baseline.json"


def make_project(tmp_path: Path, files: dict[str, str]) -> Project:
    """A fixture tree with files at checker-addressed relative paths."""
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return Project(tmp_path)


def idents(findings: list[Finding], code: str | None = None) -> set[str]:
    return {
        f.ident for f in findings if code is None or f.code == code
    }


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
def test_real_tree_clean_under_committed_baseline():
    result = run_checkers(
        ALL_CHECKERS, Project(REPO_ROOT), load_baseline(BASELINE)
    )
    assert result.clean, [f.as_dict() for f in result.findings]
    assert not result.stale, result.stale


def test_committed_baseline_entries_all_carry_reasons():
    entries = load_baseline(BASELINE)
    assert entries, "baseline should document the intentional asymmetries"
    for entry in entries:
        assert len(entry["reason"]) > 20, entry
        assert "TODO" not in entry["reason"], entry


# ----------------------------------------------------------------------
# RL101 asyncio discipline
# ----------------------------------------------------------------------
_ASYNC_BAD = """
import time

async def handle(reader, writer):
    time.sleep(0.1)
    data = open("f").read()
    return data
"""

_ASYNC_GOOD = """
import asyncio

async def handle(reader, writer):
    await asyncio.sleep(0.1)
    loop = asyncio.get_running_loop()
    result = await loop.run_in_executor(None, _work)
    return result

def _work():
    import time
    time.sleep(0.1)  # fine: runs on the executor thread
    return open("f").read()

async def nested_sync_is_exempt():
    def sync_helper():
        return open("f").read()
    return sync_helper
"""


def test_asyncio_checker_flags_blocking_calls(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/service/core.py": _ASYNC_BAD}
    )
    found = AsyncioDisciplineChecker().check(project)
    assert idents(found) == {"handle:time.sleep", "handle:open"}


def test_asyncio_checker_passes_executor_idiom(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/service/core.py": _ASYNC_GOOD}
    )
    assert AsyncioDisciplineChecker().check(project) == []


def test_asyncio_checker_ignores_files_outside_service(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/cluster/worker.py": _ASYNC_BAD}
    )
    assert AsyncioDisciplineChecker().check(project) == []


# ----------------------------------------------------------------------
# RL201 lock discipline
# ----------------------------------------------------------------------
_LOCK_BAD = """
import threading

class Client:
    def __init__(self):
        self._lock = threading.Lock()
        self.pushed = set()
        self.stats = {}

    def connect(self):
        with self._lock:
            self.pushed = set()

    def push(self, digest):
        self.pushed.add(digest)  # guarded elsewhere, no lock here

    def note(self, k, v):
        self.stats[k] = v  # never guarded anywhere: out of scope
"""

_LOCK_GOOD = """
import threading

class Client:
    def __init__(self):
        self._lock = threading.Lock()
        self.pushed = set()
        self.count = 0

    def push(self, digest):
        with self._lock:
            self.pushed.add(digest)
            self.count += 1

    def snapshot(self):
        return len(self.pushed)  # lock-free reads are accepted
"""


def test_lock_checker_flags_unguarded_mutation_of_guarded_attr(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/cluster/coordinator.py": _LOCK_BAD}
    )
    found = LockDisciplineChecker().check(project)
    assert idents(found, "RL201") == {"Client.push:pushed"}


def test_lock_checker_passes_disciplined_class(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/cluster/coordinator.py": _LOCK_GOOD}
    )
    assert LockDisciplineChecker().check(project) == []


# ----------------------------------------------------------------------
# RL3xx protocol exhaustiveness
# ----------------------------------------------------------------------
_WIRE_FIXTURE = """
class MsgType:
    HELLO = 1
    DATA = 2
    ORPHAN = 3
"""

_WORKER_FIXTURE = """
from repro.cluster import wire

def serve(sock, frame):
    if frame == wire.MsgType.HELLO:
        send_frame(sock, wire.MsgType.DATA, {})
    send_frame(sock, wire.MsgType.HELLO, {})
"""

_COORD_FIXTURE = """
from repro.cluster import wire

def run(sock):
    msgtype = recv(sock)
    if msgtype == wire.MsgType.DATA:
        pass
"""


def test_protocol_checker_flags_unused_msgtype(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/cluster/wire.py": _WIRE_FIXTURE,
            "src/repro/cluster/worker.py": _WORKER_FIXTURE,
            "src/repro/cluster/coordinator.py": _COORD_FIXTURE,
        },
    )
    found = ProtocolExhaustivenessChecker().check(project)
    assert "MsgType.ORPHAN:encode" in idents(found, "RL301")
    assert "MsgType.ORPHAN:decode" in idents(found, "RL302")
    # HELLO and DATA each have an encode and a decode site.
    assert "MsgType.HELLO:encode" not in idents(found)
    assert "MsgType.DATA:decode" not in idents(found)


_PROTOCOL_FIXTURE = 'OPS = ("ping", "compare")\n'
_SERVER_FIXTURE = """
def answer(op, payload):
    if op == "ping":
        return {}
    return run_compare(payload)  # documented fall-through, no literal
"""
_CLIENT_FIXTURE = """
class ServiceClient:
    def ping(self):
        return self._call("ping")

    def compare(self, request):
        return self._call("compare", request)
"""


def test_protocol_checker_flags_unhandled_service_op(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/service/protocol.py": _PROTOCOL_FIXTURE,
            "src/repro/service/server.py": _SERVER_FIXTURE,
            "src/repro/service/client.py": _CLIENT_FIXTURE,
        },
    )
    found = ProtocolExhaustivenessChecker().check(project)
    assert idents(found, "RL311") == {"op:compare:server"}
    assert idents(found, "RL312") == set()


def test_protocol_checker_flags_missing_client_method(tmp_path):
    client = 'class ServiceClient:\n    def ping(self):\n        return self._call("ping")\n'
    project = make_project(
        tmp_path,
        {
            "src/repro/service/protocol.py": _PROTOCOL_FIXTURE,
            "src/repro/service/client.py": client,
        },
    )
    found = ProtocolExhaustivenessChecker().check(project)
    assert idents(found, "RL312") == {"op:compare:client"}


# ----------------------------------------------------------------------
# RL4xx cache-key coverage
# ----------------------------------------------------------------------
_KEYS_HARDCODED = """
def _field_token(obj):
    return f"{obj.block_size}:{obj.pixel_threshold}"  # hard-coded!

def config_token(config):
    return _field_token(config)

def pairs_key(pairs, config):
    return f"{len(pairs)}:{config_token(config)}"
"""

_KEYS_DYNAMIC = """
import dataclasses

def _field_token(obj):
    parts = []
    for f in dataclasses.fields(obj):
        parts.append(f"{f.name}={getattr(obj, f.name)!r}")
    return ";".join(parts)

def config_token(config):
    return _field_token(config)

def pairs_key(pairs, config):
    return f"{len(pairs)}:{config_token(config)}"
"""

def test_cache_checker_flags_hardcoded_token_derivation(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/cache/keys.py": _KEYS_HARDCODED}
    )
    found = CacheKeyCoverageChecker().check(project)
    assert "_field_token:dynamic" in idents(found, "RL402")


def test_cache_checker_passes_dynamic_derivation(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/cache/keys.py": _KEYS_DYNAMIC}
    )
    assert CacheKeyCoverageChecker().check(project) == []


def test_cache_checker_flags_key_that_ignores_config(tmp_path):
    keys = _KEYS_DYNAMIC.replace(":{config_token(config)}", "")
    project = make_project(tmp_path, {"src/repro/cache/keys.py": keys})
    found = CacheKeyCoverageChecker().check(project)
    assert idents(found, "RL402") == {"pairs_key:config_token"}


_LAUNCH_COMMON = """
from dataclasses import dataclass

@dataclass(frozen=True)
class LaunchConfig:
    block_size: int = 4096
    pixel_threshold: int = 16
"""


def test_cache_checker_flags_incomplete_mirror_list(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/pixelbox/common.py": _LAUNCH_COMMON,
            "src/repro/cluster/wire.py": '_CONFIG_FIELDS = ("block_size",)\n',
        },
    )
    found = CacheKeyCoverageChecker().check(project)
    assert "_CONFIG_FIELDS:pixel_threshold" in idents(found, "RL401")


def test_cache_checker_flags_phantom_mirror_entry(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/pixelbox/common.py": _LAUNCH_COMMON,
            "src/repro/cluster/wire.py": (
                '_CONFIG_FIELDS = ("block_size", "pixel_threshold", "ghost")\n'
            ),
        },
    )
    found = CacheKeyCoverageChecker().check(project)
    assert "_CONFIG_FIELDS:+ghost" in idents(found, "RL401")


# ----------------------------------------------------------------------
# RL501 error taxonomy
# ----------------------------------------------------------------------
_SESSION_BAD = """
def run(request):
    if request is None:
        raise ValueError("no request")
"""

_SESSION_GOOD = """
from repro.errors import RequestError

def run(request):
    if request is None:
        raise RequestError("no request")
    try:
        work()
    except RequestError:
        raise  # bare re-raise is fine

def __getattr__(name):
    raise AttributeError(name)  # lazy-import protocol
"""


def test_error_checker_flags_builtin_raise_in_public_module(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/session.py": _SESSION_BAD}
    )
    found = ErrorTaxonomyChecker().check(project)
    assert idents(found, "RL501") == {"run:ValueError"}


def test_error_checker_exempts_taxonomy_and_getattr(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/session.py": _SESSION_GOOD}
    )
    assert ErrorTaxonomyChecker().check(project) == []


def test_error_checker_ignores_internal_modules(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/pixelbox/vectorized.py": _SESSION_BAD}
    )
    assert ErrorTaxonomyChecker().check(project) == []


# ----------------------------------------------------------------------
# RL601 hot-path purity
# ----------------------------------------------------------------------
_KERNEL_BAD = """
from repro.obs.trace import Tracer, current_tracer

def run_chunk(state, lo, hi):
    tracer = current_tracer()  # per-chunk read: forbidden
    return state

def run_shard(state, shard):
    tracer = current_tracer()
    return tracer
"""

_KERNEL_GOOD = """
from repro.obs.trace import current_tracer

def run_chunk(state, lo, hi):
    return state

def run_shard(state, shard):
    tracer = current_tracer()  # the one sanctioned read, per shard
    for chunk in shard:
        run_chunk(state, *chunk)
    return tracer
"""


def test_hot_path_checker_flags_extra_import_and_stray_read(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/pixelbox/kernel.py": _KERNEL_BAD}
    )
    found = HotPathPurityChecker().check(project)
    assert "import:Tracer" in idents(found, "RL601")
    assert "call:current_tracer:stray" in idents(found, "RL601")


def test_hot_path_checker_passes_single_guarded_read(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/pixelbox/kernel.py": _KERNEL_GOOD}
    )
    assert HotPathPurityChecker().check(project) == []


def test_hot_path_checker_flags_double_read_in_run_shard(tmp_path):
    double = _KERNEL_GOOD.replace(
        "    for chunk in shard:",
        "    tracer = current_tracer()\n    for chunk in shard:",
    )
    project = make_project(
        tmp_path, {"src/repro/pixelbox/kernel.py": double}
    )
    found = HotPathPurityChecker().check(project)
    assert "call:current_tracer:multiple" in idents(found, "RL601")


# ----------------------------------------------------------------------
# RL701 kernel seam
# ----------------------------------------------------------------------
_SEAM_BAD = """
from repro.pixelbox.vectorized import plan_levels

def shortcut(vertices):
    return plan_levels(vertices)
"""

_SEAM_COMMENT_ONLY = """
# plan_levels is invoked via ChunkKernel, never directly from here.

def engine(kernel, vertices):
    '''Delegates to the kernel seam (see plan_levels in vectorized).'''
    return kernel.run(vertices)
"""


def test_seam_checker_flags_out_of_seam_reference(tmp_path):
    project = make_project(
        tmp_path, {"src/repro/pipeline/engine.py": _SEAM_BAD}
    )
    found = KernelSeamChecker().check(project)
    assert idents(found, "RL701") == {"plan_levels"}


def test_seam_checker_flags_the_compiled_chunk_outside_the_kernel(tmp_path):
    caller = (
        "from repro.pixelbox import kernel\n\n"
        "def shortcut(*args):\n"
        "    return kernel.compiled_chunk(*args)\n"
    )
    project = make_project(tmp_path, {"src/repro/backends/fast.py": caller})
    found = KernelSeamChecker().check(project)
    assert idents(found, "RL701") == {"compiled_chunk"}


def test_seam_checker_flags_the_compiled_scan_outside_the_parser(tmp_path):
    caller = (
        "from repro.io.parser_cpu import compiled_scan\n\n"
        "def fast_tokens(data):\n"
        "    return compiled_scan(data)\n"
    )
    project = make_project(
        tmp_path,
        {
            "src/repro/pipeline/measure.py": caller,
            "src/repro/io/parser_cpu.py": "def parse(d):\n    return compiled_scan(d)\n",
        },
    )
    found = KernelSeamChecker().check(project)
    assert {(f.path, f.ident) for f in found if f.code == "RL701"} == {
        ("src/repro/pipeline/measure.py", "compiled_scan")
    }
    # The kernel is the caller of the chunk, not of the scan.
    project = make_project(
        tmp_path / "kernel", {"src/repro/pixelbox/kernel.py": caller}
    )
    assert idents(KernelSeamChecker().check(project), "RL701") == {"compiled_scan"}


def test_seam_checker_ignores_comments_and_docstrings(tmp_path):
    # The legacy regex tripped on prose; the AST port must not.
    project = make_project(
        tmp_path, {"src/repro/pipeline/engine.py": _SEAM_COMMENT_ONLY}
    )
    assert KernelSeamChecker().check(project) == []


def test_seam_checker_allowlists_the_seam_modules(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/pixelbox/kernel.py": _SEAM_BAD,
            "src/repro/pixelbox/vectorized.py": "def plan_levels(v):\n    return v\n",
        },
    )
    assert KernelSeamChecker().check(project) == []


def test_seam_checker_keeps_the_simulator_out_of_production(tmp_path):
    importer = "from repro.gpu.cost import CostModel\n"
    project = make_project(
        tmp_path,
        {
            "src/repro/service/core.py": importer,
            "src/repro/backends/simt.py": importer,
            "src/repro/experiments/fig9_optimizations.py": importer,
        },
    )
    found = KernelSeamChecker().check(project)
    assert sorted((f.code, f.path, f.ident) for f in found) == [
        ("RL702", "src/repro/backends/simt.py", "repro.gpu.cost"),
        ("RL702", "src/repro/service/core.py", "repro.gpu.cost"),
    ]


# ----------------------------------------------------------------------
# CLI: exit codes, baseline round-trip, JSON report
# ----------------------------------------------------------------------
def _seeded_tree(tmp_path: Path) -> Path:
    make_project(
        tmp_path, {"src/repro/service/core.py": _ASYNC_BAD}
    )
    return tmp_path


def test_cli_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    root = _seeded_tree(tmp_path)
    assert main(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "RL101" in out and "time.sleep" in out


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    root = _seeded_tree(tmp_path)
    baseline = root / "tools" / "reprolint_baseline.json"
    baseline.parent.mkdir()
    assert main(["--root", str(root), "--write-baseline"]) == 0
    entries = json.loads(baseline.read_text())["entries"]
    assert {e["ident"] for e in entries} == {
        "handle:time.sleep", "handle:open"
    }
    assert main(["--root", str(root)]) == 0
    capsys.readouterr()


def test_cli_reports_stale_baseline_entries(tmp_path, capsys):
    make_project(
        tmp_path, {"src/repro/service/core.py": _ASYNC_GOOD}
    )
    baseline = tmp_path / "tools" / "reprolint_baseline.json"
    baseline.parent.mkdir()
    baseline.write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "code": "RL101",
                        "path": "src/repro/service/core.py",
                        "ident": "gone:open",
                        "reason": "was fixed long ago",
                    }
                ]
            }
        )
    )
    assert main(["--root", str(tmp_path)]) == 0
    assert "stale baseline entry" in capsys.readouterr().out


def test_cli_json_report(tmp_path, capsys):
    root = _seeded_tree(tmp_path)
    report_path = tmp_path / "findings.json"
    assert main(["--root", str(root), "--json", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    codes = {f["code"] for f in report["findings"]}
    assert codes == {"RL101"}
    capsys.readouterr()


def test_cli_rejects_malformed_baseline(tmp_path, capsys):
    root = _seeded_tree(tmp_path)
    baseline = root / "tools" / "reprolint_baseline.json"
    baseline.parent.mkdir()
    baseline.write_text(json.dumps({"entries": [{"code": "RL101"}]}))
    assert main(["--root", str(root)]) == 2
    capsys.readouterr()
