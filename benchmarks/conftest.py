"""Benchmark-suite plumbing.

Each benchmark file regenerates one paper table/figure: it executes the
experiment harness once under ``pytest-benchmark`` (so the run itself is
timed), asserts the reproduced *shape*, and writes the rendered table to
``benchmarks/reports/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

_REPORTS = Path(__file__).parent / "reports"


def pytest_configure(config):
    # Cache generated datasets next to the repo so repeated benchmark runs
    # skip regeneration.
    os.environ.setdefault(
        "REPRO_DATA_DIR", str(Path(__file__).parent.parent / ".repro-data")
    )
    _REPORTS.mkdir(exist_ok=True)


@pytest.fixture(scope="session")
def report_dir() -> Path:
    """Directory collecting the rendered experiment tables."""
    return _REPORTS


@pytest.fixture(scope="session")
def save_report(report_dir):
    """Callable that persists and echoes one experiment's rendering."""

    def _save(name: str, text: str) -> None:
        (report_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save
