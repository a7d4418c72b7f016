"""Figure 7 benchmark: GEOS vs PixelBox-CPU-S vs PixelBox (device)."""

import pytest

from repro.backends import get_backend
from repro.exact.boolean import intersection_area
from repro.experiments import fig7_speedup
from repro.experiments.common import representative_pairs
from repro.pixelbox.cpu import pair_areas_scalar


@pytest.fixture(scope="module")
def pairs():
    return representative_pairs(quick=True, limit=300)


def test_fig07_report(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: fig7_speedup.run(quick=True), rounds=1, iterations=1
    )
    save_report("fig07", result.render())
    by_name = {row[0]: row for row in result.rows}
    # Ordering: device > CPU port > exact baseline.
    assert by_name["PixelBox (device)"][2] > by_name["PixelBox-CPU-S"][2] > 1.0
    assert by_name["PixelBox (device)"][2] > 5.0


def test_bench_geos_baseline(benchmark, pairs):
    benchmark(lambda: [intersection_area(p, q) for p, q in pairs])


def test_bench_pixelbox_cpu_scalar(benchmark, pairs):
    benchmark(lambda: [pair_areas_scalar(p, q) for p, q in pairs])


def test_bench_pixelbox_device(benchmark, pairs):
    device = get_backend("batch")
    benchmark(lambda: device.compare_pairs(pairs))
