"""The public-surface guard runs green against the checked-in manifest.

Mirrors the CI step (``python -m tools.reprolint``, checker RL801) so a
surface drift fails the tier-1 suite locally too, and exercises the
checker's own diff logic on synthetic drift.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from tools.reprolint import ApiSurfaceChecker, Project  # noqa: E402
from tools.reprolint import api_surface  # noqa: E402
from tools.reprolint.__main__ import main  # noqa: E402


def test_api_surface_matches_manifest():
    found = ApiSurfaceChecker().check(Project(REPO_ROOT))
    assert not found, "\n".join(f.message for f in found)


def test_manifest_is_checked_in():
    manifest = REPO_ROOT / api_surface.MANIFEST_REL
    assert manifest.exists(), (
        "run `python -m tools.reprolint --update-api-surface`"
    )


def test_update_flag_rewrites_the_manifest(tmp_path, capsys):
    (tmp_path / "tools").mkdir()
    assert main(["--root", str(tmp_path), "--update-api-surface"]) == 0
    assert "manifest updated" in capsys.readouterr().out
    written = json.loads((tmp_path / api_surface.MANIFEST_REL).read_text())
    assert written == api_surface.snapshot()


def test_diff_reports_removals_and_changes():
    expected = {
        "m": {
            "gone": {"kind": "function", "signature": "()"},
            "changed": {"kind": "function", "signature": "(a)"},
            "same": {"kind": "function", "signature": "(x)"},
        }
    }
    actual = {
        "m": {
            "changed": {"kind": "function", "signature": "(a, b)"},
            "same": {"kind": "function", "signature": "(x)"},
            "added": {"kind": "function", "signature": "()"},
        }
    }
    problems = "\n".join(api_surface.diff(expected, actual))
    assert "m.gone: removed" in problems
    assert "m.changed: signature changed" in problems
    assert "m.added: added" in problems
    assert "same" not in problems


def test_snapshot_covers_the_front_door():
    surface = api_surface.snapshot()
    assert "Session" in surface["repro.api"]
    assert "CompareRequest" in surface["repro.api"]
    assert "explain" in surface["repro.api"]
    assert "cross_compare" not in surface["repro.api"]
    assert surface["repro.api"]["Session"]["kind"] == "class"
    assert "compare_files" in surface["repro.api"]["Session"]["methods"]
