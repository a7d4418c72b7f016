"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands::

    repro list-experiments
    repro backends [--json]
    repro run fig7 [--full]
    repro run-all [--full]
    repro generate-suite [--scale 0.02] [--root DIR]
    repro compare DIR_A DIR_B [--backend NAME] [--hosts ...]
    repro explain REQUEST.json
    repro serve [--backend NAME] [--port N | --stdio] [--metrics]
    repro worker [--host H] [--port N] [--max-tables N]
    repro cache {stats,clear} [--host H] [--port N]
    repro stats [--prometheus] [--host H] [--port N]
    repro trace show FILE

``repro stats --prometheus`` renders the server's ``stats`` reply here,
with the same function the ``/metrics`` endpoint of ``repro serve
--metrics`` serves, so both print the same text.

Every comparison-shaped subcommand parses into the same declarative
:class:`repro.api.CompareRequest` the library and the service protocol
use — the CLI is a thin adapter over that one spec.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "SCCG / PixelBox reproduction (VLDB 2012): cross-compare "
            "pathology polygon sets and regenerate the paper's experiments"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-experiments", help="list experiment ids")

    bck = sub.add_parser(
        "backends", help="list registered execution backends"
    )
    bck.add_argument(
        "--json", action="store_true",
        help="machine-readable listing (names + structured capabilities)",
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id, e.g. fig7")
    run.add_argument(
        "--full", action="store_true",
        help="full-size workload (slower, closer to the paper's scale)",
    )

    run_all = sub.add_parser("run-all", help="run every experiment")
    run_all.add_argument("--full", action="store_true")

    gen = sub.add_parser("generate-suite", help="materialize the 18 datasets")
    gen.add_argument("--scale", type=float, default=0.02)
    gen.add_argument("--root", type=Path, default=None)

    cmp_ = sub.add_parser("compare", help="cross-compare two result sets")
    cmp_.add_argument("dir_a", type=Path)
    cmp_.add_argument("dir_b", type=Path)
    cmp_.add_argument(
        "--backend",
        default="batch",
        help="execution backend for each tile's pairs (see `repro backends`)",
    )
    cmp_.add_argument(
        "--hosts",
        default=None,
        help=(
            "comma-separated worker addresses for --backend cluster "
            "(host:port,...); default REPRO_CLUSTER_HOSTS or local "
            "worker processes"
        ),
    )
    cmp_.add_argument(
        "--workers", type=int, default=None,
        help="local worker processes (multiprocess, cluster without hosts)",
    )
    cmp_.add_argument(
        "--cache", action="store_true",
        help=(
            "enable the content-addressed result cache (one entry per "
            "tile); cached hits are bit-for-bit identical"
        ),
    )
    cmp_.add_argument(
        "--trace", action="store_true",
        help="record a request-scoped span tree (implied by --trace-out)",
    )
    cmp_.add_argument(
        "--trace-out", type=Path, default=None,
        help=(
            "append the request's span records as JSONL to this file "
            "(render it with `repro trace show`)"
        ),
    )

    exp = sub.add_parser(
        "explain",
        help="print the resolved execution plan of a request spec, "
        "without executing it",
    )
    exp.add_argument(
        "request", type=Path,
        help="JSON CompareRequest spec (see repro.api.CompareRequest)",
    )

    srv = sub.add_parser(
        "serve",
        help="run the async comparison service (JSON lines over TCP/stdio)",
    )
    srv.add_argument(
        "--backend",
        default="batch",
        help="warm execution backend the service pools (see `repro backends`)",
    )
    srv.add_argument(
        "--workers", type=int, default=None,
        help="local worker processes (multiprocess, cluster without hosts)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (0 binds an ephemeral port, announced on stdout)",
    )
    srv.add_argument(
        "--stdio", action="store_true",
        help="serve one JSON-lines session on stdin/stdout instead of TCP",
    )
    srv.add_argument(
        "--max-queue", type=int, default=256,
        help="admission control: pending requests beyond this are rejected",
    )
    srv.add_argument(
        "--max-batch-pairs", type=int, default=None,
        help=(
            "cap pairs per coalesced dispatch "
            "(default: ServiceConfig.max_batch_pairs)"
        ),
    )
    srv.add_argument(
        "--coalesce-window", type=float, default=0.002,
        help="seconds to wait for more requests to merge into a dispatch",
    )
    srv.add_argument(
        "--timeout", type=float, default=None,
        help="default per-request timeout in seconds",
    )
    srv.add_argument(
        "--hosts",
        default=None,
        help=(
            "worker addresses for --backend cluster (host:port,...); "
            "default REPRO_CLUSTER_HOSTS or local worker processes"
        ),
    )
    srv.add_argument(
        "--cache", action="store_true",
        help="enable the content-addressed request cache (repeat requests "
        "served without a backend dispatch)",
    )
    srv.add_argument(
        "--cache-bytes", type=int, default=64 * 2**20,
        help="byte budget of the request cache (LRU eviction past it)",
    )
    srv.add_argument(
        "--metrics", action="store_true",
        help=(
            "expose a Prometheus /metrics HTTP endpoint; its address is "
            "announced as `repro-serve metrics HOST PORT`"
        ),
    )
    srv.add_argument(
        "--metrics-host", default="127.0.0.1",
        help="bind address of the /metrics endpoint",
    )
    srv.add_argument(
        "--metrics-port", type=int, default=0,
        help="TCP port of the /metrics endpoint (0 binds an ephemeral port)",
    )

    wrk = sub.add_parser(
        "worker",
        help="serve ChunkKernel.run_shard shards to a cluster coordinator",
    )
    wrk.add_argument("--host", default="127.0.0.1")
    wrk.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 binds an ephemeral port, announced on stdout)",
    )
    wrk.add_argument(
        "--max-tables", type=int, default=8,
        help="LRU bound on resident content-addressed table bundles",
    )

    cch = sub.add_parser(
        "cache",
        help="inspect or clear the caches of a running comparison server",
    )
    cch.add_argument(
        "action", choices=("stats", "clear"),
        help="stats: print hit/miss counters; clear: drop every entry",
    )
    cch.add_argument("--host", default="127.0.0.1")
    cch.add_argument("--port", type=int, default=8765)

    sts = sub.add_parser(
        "stats",
        help="print a running comparison server's metrics snapshot",
    )
    sts.add_argument(
        "--prometheus", action="store_true",
        help="Prometheus text exposition instead of the JSON snapshot",
    )
    sts.add_argument("--host", default="127.0.0.1")
    sts.add_argument("--port", type=int, default=8765)

    trc = sub.add_parser(
        "trace",
        help="inspect trace files recorded with --trace-out",
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    trc_show = trc_sub.add_parser(
        "show",
        help="pretty-print the span tree and by-stage table of a trace JSONL file",
    )
    trc_show.add_argument("file", type=Path, help="trace JSONL file")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list-experiments":
        from repro.experiments.registry import experiment_names

        for name in experiment_names():
            print(name)
        return 0

    if args.command == "backends":
        from repro.backends import available_backends, get_backend

        if args.json:
            import json

            listing = []
            for name in available_backends():
                backend = get_backend(name)
                listing.append(
                    {
                        "name": name,
                        "available": True,
                        "description": backend.description,
                        "capabilities": backend.capabilities().as_dict(),
                    }
                )
                backend.close()
            print(json.dumps(listing, indent=2))
            return 0
        for name in available_backends():
            backend = get_backend(name)
            caps = backend.capabilities()
            print(f"{name:14s} [{caps.summary():24s}] {backend.description}")
            if caps.notes:
                print(f"{'':14s} {'':26s} {caps.notes}")
            backend.close()
        from repro import native

        print(f"native library: {native.status()}")
        return 0

    if args.command == "run":
        from repro.experiments.registry import run_experiment

        result = run_experiment(args.experiment, quick=not args.full)
        print(result.render())
        return 0

    if args.command == "run-all":
        from repro.experiments.registry import EXPERIMENTS, run_experiment

        for name in EXPERIMENTS:
            print(run_experiment(name, quick=not args.full).render())
            print()
        return 0

    if args.command == "generate-suite":
        from repro.data.datasets import generate_dataset, suite_specs
        from repro.experiments.common import data_root

        root = args.root or data_root()
        for spec in suite_specs(scale=args.scale):
            dir_a, _ = generate_dataset(spec, root)
            print(f"{spec.name}: {spec.tiles} tiles -> {dir_a.parent}")
        return 0

    if args.command == "compare":
        from repro.api import Session, request_from_cli

        request = request_from_cli(
            args.dir_a,
            args.dir_b,
            backend=args.backend,
            hosts=args.hosts,
            workers=args.workers,
            cache=args.cache,
            trace=args.trace,
            trace_out=str(args.trace_out) if args.trace_out else None,
        )
        with Session(request.options) as session:
            result = session.run(request)
        print(
            f"J' = {result.jaccard_mean:.4f} over "
            f"{result.intersecting_pairs} intersecting pairs "
            f"({result.tiles} tiles, {result.wall_seconds:.2f}s, "
            f"{result.throughput / 1e6:.2f} MB/s)"
        )
        print(
            f"missing polygons: {result.missing_a} of {result.count_a} "
            f"in A, {result.missing_b} of {result.count_b} in B"
        )
        if result.trace_id is not None:
            print(f"trace: {result.trace_id}", end="")
            if args.trace_out:
                print(f" -> {args.trace_out}", end="")
            print()
        return 0

    if args.command == "explain":
        import json

        from repro.api import CompareRequest, explain
        from repro.errors import ReproError

        try:
            text = args.request.read_text()
        except OSError as exc:
            print(f"cannot read request spec: {exc}", file=sys.stderr)
            return 1
        try:
            plan = explain(CompareRequest.from_json(text))
        except ReproError as exc:
            print(f"request does not resolve: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(plan.as_dict(), indent=2))
        return 0

    if args.command == "serve":
        import asyncio

        from repro.api import CompareOptions
        from repro.service import ServiceConfig, serve

        # The service runs every request under the same spec `repro
        # compare` parses into; ServiceConfig adds only the serving
        # knobs (admission, coalescing, timeouts).
        backend_options = {}
        if args.workers is not None:
            backend_options["workers"] = args.workers
        compare_options = CompareOptions(
            backend=args.backend,
            backend_options=backend_options,
            hosts=args.hosts,
            cache=args.cache,
            cache_bytes=args.cache_bytes,
        )
        serving_knobs = {}
        if args.max_batch_pairs is not None:
            serving_knobs["max_batch_pairs"] = args.max_batch_pairs
        config = ServiceConfig(
            compare_options,
            max_queue=args.max_queue,
            coalesce_window=args.coalesce_window,
            default_timeout=args.timeout,
            **serving_knobs,
        )
        try:
            asyncio.run(
                serve(
                    config,
                    host=args.host,
                    port=args.port,
                    stdio=args.stdio,
                    metrics=args.metrics,
                    metrics_host=args.metrics_host,
                    metrics_port=args.metrics_port,
                )
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        return 0

    if args.command == "worker":
        from repro.cluster import ShardWorker

        worker = ShardWorker(
            host=args.host,
            port=args.port,
            max_tables=args.max_tables,
        )
        worker._bind()
        host, port = worker.address
        print(f"repro-worker ready {host} {port}", flush=True)
        try:
            worker.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            worker.stop()
        return 0

    if args.command == "cache":
        import json

        from repro.errors import ServiceError
        from repro.service import ServiceClient

        try:
            with ServiceClient(host=args.host, port=args.port) as client:
                if args.action == "clear":
                    client.cache_clear()
                    print("caches cleared")
                    return 0
                print(json.dumps({"caches": client.stats()["caches"]}, indent=2))
        except (OSError, ServiceError) as exc:
            print(f"cannot reach server: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "stats":
        import json

        from repro.errors import ServiceError
        from repro.metrics.service import ServiceSnapshot
        from repro.obs.export import render_snapshot
        from repro.service import ServiceClient

        try:
            with ServiceClient(host=args.host, port=args.port) as client:
                stats = client.stats()
                if args.prometheus:
                    sys.stdout.write(render_snapshot(ServiceSnapshot(**stats)))
                else:
                    print(json.dumps(stats, indent=2))
        except (OSError, ServiceError) as exc:
            print(f"cannot reach server: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "trace":
        from repro.obs.render import render_trace_file

        try:
            with open(args.file, encoding="utf-8") as fh:
                text = render_trace_file(fh)
        except OSError as exc:
            print(f"cannot read trace file: {exc}", file=sys.stderr)
            return 1
        if not text.strip():
            print(f"no spans in {args.file}", file=sys.stderr)
            return 1
        print(text)
        return 0

    return 2  # pragma: no cover - argparse enforces the subcommands


if __name__ == "__main__":
    sys.exit(main())
