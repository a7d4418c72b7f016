"""Figure 8 benchmark: algorithm variants across scale factors."""

import pytest

from repro.experiments import fig8_sampling
from repro.experiments.common import representative_pairs
from repro.pixelbox.common import Method
from repro.pixelbox.kernel import ChunkKernel, ExecutionPolicy


def test_fig08_report(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: fig8_sampling.run(quick=True), rounds=1, iterations=1
    )
    save_report("fig08", result.render())
    last = result.rows[-1]  # SF5 row
    # At the largest scale factor the sampling-box variants beat
    # pixelization-only, PixelBox being the fastest.
    assert last[3] <= last[1] * 1.1  # PixelBox vs PixelOnly
    assert last[3] <= last[2] * 1.1  # PixelBox vs NoSep


@pytest.mark.parametrize("method", list(Method))
def test_bench_variant_sf5(benchmark, method):
    base = representative_pairs(quick=True, limit=200)
    pairs = [(p.scale(5), q.scale(5)) for p, q in base]
    kernel = ChunkKernel(ExecutionPolicy(method=method))
    benchmark(lambda: kernel.compute(pairs))
