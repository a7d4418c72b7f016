"""Quickstart: cross-compare two segmentation results of one tile.

Generates a synthetic pathology tile with two segmentation results (the
second derived through a realistic perturbation model), computes their
Jaccard similarity J' through the session-centric front door, and
cross-checks the answer against the exact vector-geometry baseline.

Run:  python examples/quickstart.py
"""

from repro import CompareOptions, CompareRequest, Session, explain
from repro.data import generate_tile_pair, polygon_stats
from repro.sdbms import run_cross_compare


def main() -> None:
    # Two polygon sets segmented from the same 512x512 tile.
    result_a, result_b = generate_tile_pair(seed=7, nuclei=60)
    print("result A:", polygon_stats(result_a))
    print("result B:", polygon_stats(result_b))

    # PixelBox path (the paper's accelerated system).  A Session owns
    # one warm executor; every comparison goes through it.
    with Session() as session:
        result = session.compare_sets(result_a, result_b)
    print()
    print("PixelBox:", result)

    # Exact SDBMS path (the PostGIS/GEOS baseline) — must agree bit-for-bit.
    baseline = run_cross_compare(result_a, result_b, optimized=True)
    print(f"SDBMS   : J'={baseline.jaccard_mean:.4f} "
          f"({baseline.pair_count} pairs)")
    assert abs(result.jaccard_mean - baseline.jaccard_mean) < 1e-12
    print()
    print("Both systems agree exactly — pixelization is lossless on "
          "rectilinear polygons (paper §3.4).")

    # Every execution backend computes the same bits; pick one with
    # CompareOptions (or from the shell:
    # `python -m repro compare A B --backend multiprocess`).
    from repro.backends import available_backends

    print()
    for backend in available_backends():
        with Session(CompareOptions(backend=backend)) as session:
            routed = session.compare_sets(result_a, result_b)
        print(f"backend {backend:12s}: J'={routed.jaccard_mean:.4f}")
        assert routed.jaccard_mean == result.jaccard_mean

    # `explain` resolves a request into its plan without executing it:
    # the executor's capabilities, the effective launch parameters, and
    # the shard size the backend would cut.
    request = CompareRequest.from_sets(
        result_a, result_b, CompareOptions(backend="multiprocess")
    )
    plan = explain(request)
    print()
    print(f"plan: {plan.backend}, {plan.n_pairs} candidate pairs, "
          f"{plan.shard_pairs} pairs per shard")


if __name__ == "__main__":
    main()
