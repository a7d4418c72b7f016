"""Figure 10 benchmark: pixelization threshold sensitivity."""

from repro.experiments import fig10_threshold
from repro.experiments.common import representative_pairs
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import ChunkKernel, ExecutionPolicy


def test_fig10_report(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: fig10_threshold.run(quick=True), rounds=1, iterations=1
    )
    save_report("fig10", result.render())
    thresholds = [int(h.split("=")[1]) for h in result.headers[1:]]
    for row in result.rows:
        times = row[1:]
        best = min(times)
        # The paper's recommended band [n^2/8, n^2] = [512, 4096] must be
        # near-optimal: within 2.5x of the sweep's best.
        for t, seconds in zip(thresholds, times):
            if 512 <= t <= 4096:
                assert seconds <= best * 2.5


def test_bench_threshold_paper_default(benchmark):
    base = representative_pairs(quick=True, limit=200)
    pairs = [(p.scale(5), q.scale(5)) for p, q in base]
    cfg = LaunchConfig(block_size=64, pixel_threshold=2048)
    kernel = ChunkKernel(ExecutionPolicy(), cfg)
    benchmark(lambda: kernel.compute(pairs))
