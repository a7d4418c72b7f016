"""Self-test of the end-to-end benchmark, on its ``--quick`` scale.

Not part of tier 1 (``testpaths`` is ``tests``); run it explicitly::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 5, *flags: str):
    """Exit code and result line of one quick run."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *flags,
        ],
        capture_output=True, text=True, cwd=REPO, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_contract_file():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_output_carries_exactly_the_declared_metrics(workload, trace):
    code, line = bench(workload, trace)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in line["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_seed_decides_the_inputs():
    sys.path[:0] = [str(HERE), str(REPO / "src")]
    import inputs

    first = inputs.build("pairs_heavy", 5, quick=True).meta["digest"]
    assert inputs.build("pairs_heavy", 5, quick=True).meta["digest"] == first
    assert inputs.build("pairs_heavy", 6, quick=True).meta["digest"] != first


def test_same_seed_same_kernel_counts():
    _, first = bench("pairs_heavy", 1)
    _, again = bench.__wrapped__("pairs_heavy", 1)  # a second run, not the cached one
    _, other = bench("pairs_heavy_mp", 1)
    for line in (again, other):
        for name, value in first["metrics"].items():
            if name.startswith("pixelbox."):
                assert line["metrics"][name] == value, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_is_a_failed_op(workload):
    code, line = bench(workload, 0, 5, "--corrupt")
    assert code != 0
    assert line["correct"] is False and line["failed"] > 0
