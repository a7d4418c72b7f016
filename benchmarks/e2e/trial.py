"""One trial of one workload, in a process of its own.

A trial is a cold start followed by timed repetitions:

* ``setup_s``: ``import repro`` + construct + ``warm()`` (or server
  ready + connect + hot-set populate) + the first, cold, full-size
  repetition.  Loading and translating inputs is not clocked.
* every later repetition is one timed sample of ``wall_s``.  Each gets a
  translated copy of the input built before its clock starts, so no
  timed call sees a polygon object an earlier call saw (``files_nuclei``
  re-reads its files; the parser yields fresh objects anyway).

Only front-door names are used: ``Session``, ``CompareOptions``,
``ServiceClient`` and ``python -m repro serve``.  The answer of every
repetition is checked against ``expected.npz``, which the parent
computed from the same input.

Usage: ``python trial.py '<spec as JSON>'``; prints one JSON object.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

# Translation between repetitions: beyond every tile row of an input.
REP_PITCH = 8192


class Driver:
    """What a trial needs from a workload.  ``prepare`` builds the input
    of one repetition before the clock starts, ``start`` and ``run`` are
    clocked, ``check`` returns (ops, reasons of the failed ones)."""

    def __init__(self, spec, inp, expected, summary):
        self.spec, self.inp, self.expected, self.summary = spec, inp, expected, summary
        self.pairs_per_rep = len(inp.pair_a)

    def prepare(self, rep):
        return None

    def note_timed(self, answer):
        pass

    def extra(self):
        return {}


class SessionDriver(Driver):
    """A warm ``Session`` for the life of the trial."""

    session = None

    def options(self):
        raise NotImplementedError

    def start(self):
        from repro import Session

        self.session = Session(self.options()).warm()

    def stop(self):
        if self.session is not None:
            self.session.close()


class PairsDriver(SessionDriver):
    """``Session(options).compare(pairs)`` on in-memory candidate pairs."""

    def __init__(self, *args):
        super().__init__(*args)
        self.base = self.inp.base_polygons()
        self.pooled = self.spec["workload"] == "pairs_heavy_mp"

    def options(self):
        from repro import CompareOptions

        if self.pooled:
            return CompareOptions(
                backend="multiprocess", backend_options={"workers": self.spec["workers"]}
            )
        return CompareOptions(backend="batch")

    def prepare(self, rep):
        return self.inp.fresh(self.base, 0, (rep + 1) * REP_PITCH)

    def run(self, pairs, rec):
        with rec.span("session.compare", pairs=len(pairs)):
            return self.session.compare(pairs)

    def check(self, areas):
        import numpy as np

        from inputs import AREA_FIELDS

        problems = [
            f"{name} differs from the reference"
            for name in AREA_FIELDS
            if not np.array_equal(getattr(areas, name), self.expected[name])
        ]
        stats = areas.stats.as_dict()
        # The batch and multiprocess backends run different execution
        # policies, so only the batch counters must repeat the reference's.
        want = self.summary["stats"]
        if stats["pairs"] != want["pairs"] or (not self.pooled and stats != want):
            problems.append(f"KernelStats {stats} differ from the reference {want}")
        return 1, problems


class FilesDriver(SessionDriver):
    """``Session(CompareOptions()).compare_files(dir_a, dir_b)``, all defaults."""

    def options(self):
        from repro import CompareOptions

        return CompareOptions()

    def run(self, _, rec):
        with rec.span("session.compare_files"):
            return self.session.compare_files(self.inp.dir_a, self.inp.dir_b)

    def check(self, result):
        want = self.summary["files"]
        problems = [
            f"{name}: {getattr(result, name)} != {want[name]}"
            for name in (
                "candidate_pairs", "intersecting_pairs",
                "missing_a", "missing_b", "count_a", "count_b",
            )
            if getattr(result, name) != want[name]
        ]
        # The pipeline sums per-tile ratio sums in arrival order.
        if abs(result.jaccard_mean - want["jaccard_mean"]) > 1e-9:
            problems.append(f"J' {result.jaccard_mean!r} != {want['jaccard_mean']!r}")
        return 1, problems


class ServiceDriver(Driver):
    """One repetition is one round of the closed loop of two clients."""

    def __init__(self, *args):
        from service_load import ServiceLoad

        super().__init__(*args)
        self.load = ServiceLoad(
            self.inp, self.inp.base_polygons(), self.expected, **self.spec["service"]
        )
        self.latencies = {"miss": [], "hit": []}
        self.populate = []
        per_round = 2 * self.load.per_client * self.load.n_clients
        self.pairs_per_rep = per_round * len(self.load.chunks[0])

    def prepare(self, rep):
        return self.load.prepare_round()

    def start(self):
        self.populate = self.load.start()

    def run(self, plan, rec):
        with rec.span("service.round") as span_id:
            return self.load.run_round(plan, rec, parent=span_id)

    def check(self, outcomes):
        outcomes = self.populate + outcomes
        self.populate = []
        problems = [p for p in map(self.load.wrong, outcomes) if p is not None]
        return len(outcomes), problems

    def note_timed(self, outcomes):
        for outcome in outcomes:
            if outcome.error is None:
                self.latencies[outcome.kind].append(outcome.seconds)

    def stop(self):
        self.load.stop()

    def extra(self):
        return {"latencies": self.latencies, "notes": self.load.notes}


DRIVERS = {
    "files_nuclei": FilesDriver,
    "pairs_heavy": PairsDriver,
    "pairs_heavy_mp": PairsDriver,
    "service_mix": ServiceDriver,
}


def run_trial(spec: dict) -> dict:
    begin = time.perf_counter()
    import repro  # noqa: F401 - the cold start a user pays
    from repro import CompareOptions, Session  # noqa: F401 - loads the front door

    import_s = time.perf_counter() - begin

    import numpy as np

    import host
    import inputs
    import spans

    root = Path(spec["input"])
    inp = inputs.load(root)
    with np.load(root / "expected.npz") as data:
        expected = {name: data[name] for name in data.files}
    summary = json.loads((root / "expected.json").read_text())

    traced = bool(spec["trace"])
    rec = (
        spans.Recorder(spec["trace_id"], spec["span_base"], spec["span_parent"])
        if traced
        else spans.Off
    )
    driver = DRIVERS[spec["workload"]](spec, inp, expected, summary)
    attempted = failed = 0
    problems: list[str] = []

    def account(answer):
        nonlocal attempted, failed
        ops, found = driver.check(answer)
        attempted += ops
        failed += min(ops, len(found))
        problems.extend(found)

    # A traced trial alternates untraced and traced repetitions; the
    # difference of their medians is what the benchmark's spans cost.
    min_reps = spec["min_reps"] * (2 if traced else 1)
    samples: list[tuple[bool, float]] = []  # (with spans, seconds)

    def time_left() -> bool:
        if len(samples) < min_reps:
            return True
        return sum(s for _, s in samples) + samples[-1][1] <= spec["seconds"]

    try:
        payload = driver.prepare(0)
        gc.collect()
        begin = time.perf_counter()
        with rec.span("trial.setup"):
            driver.start()
            answer = driver.run(payload, rec)
        setup_s = import_s + time.perf_counter() - begin
        account(answer)

        while time_left():
            rep = len(samples) + 1
            del payload, answer  # the previous copy is dropped first
            payload = driver.prepare(rep)
            spanned = traced and rep % 2 == 0
            use = rec if spanned else spans.Off
            gc.collect()
            begin = time.perf_counter()
            with use.span("trial.repetition", rep=rep):
                answer = driver.run(payload, use)
            samples.append((spanned, time.perf_counter() - begin))
            driver.note_timed(answer)
            account(answer)
        rss_self = host.peak_rss_mb()
        rss_child = host.largest_child_rss_mb()
    finally:
        driver.stop()

    return {
        "setup_s": setup_s,
        "walls": [s for spanned, s in samples if not spanned],
        "traced_walls": [s for spanned, s in samples if spanned],
        "pairs_per_rep": driver.pairs_per_rep,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "rss_self_mb": rss_self,
        "rss_child_mb": rss_child,
        "spans": rec.records,
        **driver.extra(),
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import host

    host.exit_on_sigterm()
    try:
        print(json.dumps(run_trial(json.loads(sys.argv[1]))))
    finally:  # pool workers, the server, multiprocessing's resource tracker
        host.end_children()
