"""CLI for reprolint: ``python -m tools.reprolint`` from the repo root.

Exit codes: 0 clean (baseline-suppressed findings allowed), 1 fresh
findings, 2 internal error (bad baseline file, checker crash).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.reprolint import ALL_CHECKERS
from tools.reprolint.api_surface import MANIFEST_REL, write_manifest
from tools.reprolint.core import (
    Project,
    load_baseline,
    run_checkers,
    write_baseline,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="AST-based architectural invariant checks.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repository root to analyze (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: <root>/tools/reprolint_baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept every current finding into the baseline and exit 0",
    )
    parser.add_argument(
        "--update-api-surface",
        action="store_true",
        help=f"rewrite {MANIFEST_REL} from the current surface and exit 0",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="REPORT",
        help="also write findings as JSON (CI artifact)",
    )
    args = parser.parse_args(argv)

    root = args.root.resolve()
    baseline_path = (
        args.baseline
        if args.baseline is not None
        else root / "tools" / "reprolint_baseline.json"
    )
    project = Project(root)
    if args.update_api_surface:
        write_manifest(project)
        print(f"api surface manifest updated: {root / MANIFEST_REL}")
        return 0
    try:
        baseline = load_baseline(baseline_path)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"reprolint: bad baseline {baseline_path}: {exc}")
        return 2

    try:
        result = run_checkers(
            ALL_CHECKERS, project, baseline, log=print
        )
    except Exception as exc:  # checker crash is an internal error
        print(f"reprolint: internal error: {type(exc).__name__}: {exc}")
        return 2

    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(
            f"baseline written: {baseline_path} "
            f"({len(result.findings)} new entr(y/ies) — add reasons)"
        )
        return 0

    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {
                    "findings": [f.as_dict() for f in result.findings],
                    "suppressed": [
                        f.as_dict() for f in result.suppressed
                    ],
                    "stale_baseline": result.stale,
                },
                indent=2,
            )
            + "\n"
        )

    for entry in result.stale:
        print(
            "reprolint: stale baseline entry (fixed? remove it): "
            f"{entry['code']} {entry['path']} {entry['ident']}"
        )
    if result.clean:
        print(
            f"reprolint clean: {len(result.suppressed)} baselined "
            f"finding(s), 0 fresh"
        )
        return 0
    print(f"reprolint: {len(result.findings)} fresh finding(s):")
    for f in result.findings:
        where = f"{f.path}:{f.line}" if f.line else f.path
        print(f"  {f.code} {where} [{f.ident}] {f.message}")
    print(
        "fix the finding, or — if intentional — add a baseline entry "
        f"with a reason to {baseline_path.name}"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
