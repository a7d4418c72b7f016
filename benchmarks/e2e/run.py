#!/usr/bin/env python3
"""End-to-end benchmark of the cross-comparison system.

One workload, as the driver runs it (last line of stdout is the result)::

    python3 benchmarks/e2e/run.py --workload pairs_heavy --seed 12 --seconds 12 --trace 0

Everything, by name and unit: the four workloads untraced for the
end-to-end metrics, each once more traced for the per-layer metrics;
the report is also written to ``out/result-seed<seed>.json``::

    python3 benchmarks/e2e/run.py --seed 12          # or: python -m benchmarks.e2e.run --seed 12

Two such reports against each other::

    python3 benchmarks/e2e/run.py --compare out/A.json out/B.json

See README.md beside this file for workloads, metrics and protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

import numpy as np  # noqa: E402

import host  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("files_nuclei", "pairs_heavy", "pairs_heavy_mp", "service_mix")
TRIAL_TIMEOUT_S = 150
CLIENTS = 2  # service_mix connections, one thread each: <= nproc on the reference host
EXACT_SAMPLE = 200
# Full scale.  Three fresh-process trials of >= 3 timed repetitions give
# >= 9 samples per workload; a single cold start alone spreads +-25 % on
# the reference host, the median of three does not.
FULL = {
    "trials": 3,
    "min_reps": 3,
    "service": {"chunk_pairs": 24, "hot": 16, "per_client": 34, "clients": CLIENTS},
    "service_probe_rounds": 2,
}
# Only the self-test runs this scale.
QUICK = {
    "trials": 1,
    "min_reps": 1,
    "service": {"chunk_pairs": 8, "hot": 4, "per_client": 3, "clients": CLIENTS},
    "service_probe_rounds": 1,
}


def contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def workers() -> int:
    return min(2, host.nproc())


# ----------------------------------------------------------------------
# Reference answers (front-door names only)
# ----------------------------------------------------------------------
def reference(inp, seed: int, corrupt: bool, rec):
    """Areas of every candidate pair from the plain ``batch`` backend,
    checked on a seeded sample against the exact overlay, and the J'
    summary a serial pass over the tiles gives.  Written beside the
    input for the trial processes to check every answer against."""
    from repro import CompareOptions
    from repro.backends import get_backend
    from repro.exact import intersection_area, union_area

    pairs = inp.fresh(inp.base_polygons(), 0, 0)
    backend = get_backend("batch")
    try:
        with rec.span("bench.reference", pairs=len(pairs)):
            areas = backend.compare_pairs(pairs, CompareOptions().launch_config())
    finally:
        backend.close()
    expected = {name: getattr(areas, name) for name in inputs.AREA_FIELDS}

    problems = []
    sample = np.random.default_rng(seed).choice(
        len(pairs), size=min(EXACT_SAMPLE, len(pairs)), replace=False
    )
    with rec.span("bench.exact_sample", pairs=len(sample)):
        for k in sample.tolist():
            p, q = pairs[k]
            exact = (intersection_area(p, q), union_area(p, q))
            got = (int(expected["intersection"][k]), int(expected["union"][k]))
            if exact != got:
                problems.append(f"pair {k}: batch areas {got} != exact overlay {exact}")

    hit = expected["intersection"] > 0
    count_a, count_b = len(inp.off_a) - 1, len(inp.off_b) - 1
    ratios = expected["intersection"][hit] / expected["union"][hit]
    summary = {
        "stats": areas.stats.as_dict(),
        "files": {
            "jaccard_mean": float(ratios.mean()) if len(ratios) else 0.0,
            "intersecting_pairs": int(hit.sum()),
            "candidate_pairs": len(pairs),
            "missing_a": count_a - len(np.unique(inp.pair_a[hit])),
            "missing_b": count_b - len(np.unique(inp.pair_b[hit])),
            "count_a": count_a,
            "count_b": count_b,
        },
    }
    if corrupt:  # self-test hook: every check against this must fail
        expected["intersection"] = expected["intersection"] + 1
        summary["files"]["intersecting_pairs"] += 1
    np.savez(inp.root / "expected.npz", **expected)
    (inp.root / "expected.json").write_text(json.dumps(summary))
    return expected, summary, problems


# ----------------------------------------------------------------------
# Trials
# ----------------------------------------------------------------------
def run_trial_process(spec: dict) -> dict:
    """One trial in a fresh process (and process group, so that a hung
    trial takes its server or pool workers down with it)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "trial.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=REPO,
        start_new_session=True,
    )
    clean = False
    try:
        out, _ = proc.communicate(timeout=TRIAL_TIMEOUT_S)
        clean = proc.returncode == 0
    finally:
        if not clean:  # hung, failed or interrupted: nothing of its group stays
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if not clean:
        raise RuntimeError(f"trial of {spec['workload']} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, quick=False, corrupt=False) -> dict:
    """One run of one workload: the driver's unit of work."""
    try:
        return _measure(workload, seed, seconds, trace, quick, corrupt)
    finally:  # ~15 MB per input; the driver makes 92 runs in one checkout
        shutil.rmtree(inputs.input_root(workload, seed, quick), ignore_errors=True)


def _measure(workload, seed, seconds, trace, quick, corrupt) -> dict:
    scale = QUICK if quick else FULL
    rec = spans.Recorder(f"{workload}-{seed}") if trace else spans.Off
    ref_s = [host.ref_loop_s()] if trace else []
    with rec.span("bench.run", workload=workload, seed=seed) as root_span:
        with rec.span("data.generate"):
            inp = inputs.build(workload, seed, quick)
        expected, summary, problems = reference(inp, seed, corrupt, rec)
        attempted, failed = 1, min(1, len(problems))

        spec = {
            "workload": workload,
            "input": str(inp.root),
            "seed": seed,
            "workers": workers(),
            "min_reps": scale["min_reps"],
            "service": scale["service"],
            "service_probe_rounds": scale["service_probe_rounds"],
            "trace": trace,
            "trace_id": rec.trace_id if trace else None,
            "span_parent": root_span,
        }
        layer, notes = {}, {}
        if trace:
            import probes

            suite = probes.Probes(inp, expected, summary, rec, spec)
            layer, notes = suite.run()
            attempted += suite.attempted
            failed += len(suite.problems)
            problems += suite.problems

        # One workload at a time, one trial at a time, nothing else running.
        trials = []
        count = 1 if trace else scale["trials"]
        for index in range(count):
            with rec.span("bench.trial", index=index):
                trials.append(
                    run_trial_process(
                        {**spec, "seconds": seconds / scale["trials"], "span_base": (index + 1) * 1_000_000}
                    )
                )
        for trial in trials:
            attempted += trial["attempted"]
            failed += trial["failed"]
            problems += trial["problems"]
            notes.update({f"trial.{i}": n for i, n in enumerate(trial.get("notes", []))})
    if trace:
        ref_s.append(host.ref_loop_s())

    walls = [w for t in trials for w in t["walls"]]
    wall_s = statistics.median(walls)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "notes": notes,
        "input": inp.meta,
        "walls": walls,
        "oversubscribed": busy_workers(workload) > host.nproc(),
    }
    if not trace:
        result["metrics"] = {
            "wall_s": wall_s,
            "pairs_per_s": trials[0]["pairs_per_rep"] / wall_s,
            "setup_s": statistics.median(t["setup_s"] for t in trials),
            "peak_rss_mb": max(t["rss_self_mb"] + t["rss_child_mb"] for t in trials),
        }
        latencies = [t["latencies"] for t in trials if "latencies" in t]
        if latencies:  # service_mix: what each kind of request cost its client
            result["requests"] = {
                f"{kind}_p50_s": statistics.median(x for lat in latencies for x in lat[kind])
                for kind in ("miss", "hit")
            }
            result["requests"]["samples_each"] = sum(len(lat["miss"]) for lat in latencies)
        return result

    records = rec.records + [s for t in trials for s in t["spans"]]
    inputs.OUT.mkdir(exist_ok=True)
    spans.write_jsonl(inputs.OUT / f"trace_{workload}.jsonl", records)
    layer.update(
        {
            "data.generate_s": inp.meta["generate_s"],
            "data.base_tiles": inp.meta["base_tiles"],
            # What the benchmark's own spans cost one repetition.
            "bench.trace_overhead_s": statistics.median(trials[0]["traced_walls"]) - wall_s,
            "host.ref_s": statistics.median(ref_s),
            "host.ref_drift": max(ref_s) / min(ref_s),
            "host.nproc": host.nproc(),
            "host.numba": int(host.fingerprint()["numba"] is not None),
            "repo.src_lines": host.src_lines(),
        }
    )
    result["metrics"] = layer
    result["shares"] = suite.shares
    return result


def busy_workers(workload: str) -> int:
    """Processes or threads the workload keeps busy at once."""
    return {"pairs_heavy_mp": workers(), "service_mix": CLIENTS}.get(workload, 1)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def driver_line(result: dict, declared: list[dict]) -> str:
    """The contract's result line: exactly the declared metrics.  A probe
    whose layer function is gone reads 0 here (the reason is in the
    report's notes and on stderr)."""
    metrics = {}
    for entry in declared:
        value = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": 0 if value is None else value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_metrics(result: dict, declared: list[dict]) -> None:
    meta = result["input"]
    print(
        f"== {result['workload']}  trace={result['trace']}  seed={result['seed']}  "
        f"{meta['pairs']} candidate pairs, {meta['polygons']} polygons, "
        f"{meta['tiles']} tiles, {meta['file_bytes'] / 1e6:.2f} MB of polygon text, "
        f"digest {meta['digest'][:12]}"
    )
    for entry in declared:
        value = result["metrics"].get(entry["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {entry['name']:<32} {shown:>14} {entry['unit']}")
    if not result["trace"]:
        print(
            f"  samples {len(result['walls'])}, shortest repetition {min(result['walls']):.3f} s"
            + (", oversubscribed" if result["oversubscribed"] else "")
        )
    for name, value in result.get("requests", {}).items():
        print(f"  {name:<32} {value:>14.6g}")
    if result.get("shares"):
        print(
            "  pipeline.serial_sum_s by stage: "
            + ", ".join(f"{stage} {share:.1f} %" for stage, share in result["shares"].items())
        )
    print(f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for name, note in result["notes"].items():
        print(f"  note {name}: {note}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def run_everything(args, declared) -> int:
    """All workloads, untraced then traced; one report file."""
    report = {"seed": args.seed, "host": host.fingerprint(), "workloads": {}}
    failed = 0
    for workload in WORKLOADS:
        entry = report["workloads"][workload] = {}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(workload, args.seed, args.seconds, trace, args.quick, args.corrupt)
            print_metrics(result, declared[key])
            failed += result["failed"]
            entry[key] = result
    target = Path(args.out) if args.out else inputs.OUT / f"result-seed{args.seed}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=1))
    print(f"report written to {target}; ops_failed {failed}")
    return 1 if failed else 0


def compare(path_a: str, path_b: str, declared) -> int:
    """B against A: relative difference per workload and end-to-end
    metric against its bound, `unresolved` where the hosts differed."""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    regressions = 0
    for workload in WORKLOADS:
        if workload not in a or workload not in b:
            print(f"{workload}: missing from one report")
            continue
        (e2e_a, layer_a), (e2e_b, layer_b) = (
            (w[workload]["end_to_end"], w[workload]["per_layer"]) for w in (a, b)
        )
        ref_a, ref_b = layer_a["metrics"]["host.ref_s"], layer_b["metrics"]["host.ref_s"]
        host_moved = abs(ref_b - ref_a) / ref_a > 0.10
        rows = [(e, e2e_a["metrics"], e2e_b["metrics"]) for e in declared["end_to_end"]]
        if "requests" in e2e_a and "requests" in e2e_b:  # service_mix, not gated
            rows += [
                ({"name": name, "better": "lower", "bound": 0.10}, e2e_a["requests"], e2e_b["requests"])
                for name in ("miss_p50_s", "hit_p50_s")
            ]
        for entry, side_a, side_b in rows:
            va, vb = side_a[entry["name"]], side_b[entry["name"]]
            worse = (vb - va) / va if entry["better"] == "lower" else (va - vb) / va
            if host_moved:
                verdict = "unresolved (host.ref_s differs by more than 10 %)"
            elif worse > entry["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "within bound"
            print(
                f"{workload:<15} {entry['name']:<12} {va:>11.5g} -> {vb:>11.5g}  "
                f"{100 * worse:+6.1f} % worse (bound {100 * entry['bound']:.0f} %)  {verdict}"
            )
        counts_a, counts_b = (
            {k: v for k, v in layer["metrics"].items() if k.startswith("pixelbox.")}
            for layer in (layer_a, layer_b)
        )
        same = counts_a == counts_b and e2e_a["input"]["digest"] == e2e_b["input"]["digest"]
        print(
            f"{workload:<15} input digest and pixelbox.* counts "
            f"{'identical' if same else 'DIFFER'}  (host.ref_s {ref_a:.4f} -> {ref_b:.4f})"
        )
    return 1 if regressions else 0


def main(argv=None) -> int:
    """Every process started on the way is ended and waited for before
    this returns, whatever the way out."""
    host.adopt_orphans()
    host.exit_on_sigterm()
    try:
        return _main(argv)
    finally:
        host.end_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="report path of a full run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--quick", action="store_true", help="tiny scale, for the self-test only")
    parser.add_argument("--corrupt", action="store_true", help="self-test: corrupt the reference answers")
    args = parser.parse_args(argv)
    declared = contract()
    if args.compare:
        return compare(*args.compare, declared)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(declared["run_seconds"])
    if args.workload is None:
        return run_everything(args, declared)
    start = time.perf_counter()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.corrupt)
    key = "per_layer" if args.trace else "end_to_end"
    print_metrics(result, declared[key])
    print(f"  run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(driver_line(result, declared[key]))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
