"""Figure 11 benchmark: dynamic task migration benefit."""

from dataclasses import replace

from repro.experiments import fig11_migration
from repro.experiments.common import pipeline_dataset
from repro.pipeline import measure_tiles, simulate


def test_fig11_report(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: fig11_migration.run(quick=True), rounds=1, iterations=1
    )
    save_report("fig11", result.render())
    # Migration never costs throughput on the modeled machines ...
    for row in result.rows:
        assert row[3] >= 1.0
    # ... and the slowed-GPU configuration (Config-III) shows a real gain.
    assert result.rows[-1][3] > 1.1


def test_fig11_directions():
    """Config-I: the idle GPU takes parser work and nothing moves back;
    Config-III: the slowed GPU sheds aggregator work and takes none."""
    costs, _ = measure_tiles(*pipeline_dataset(quick=True))
    (_, config_1), _, (_, config_3) = fig11_migration.CONFIGS
    on = simulate(costs, replace(config_1, migration=True))
    assert on.migrated_gpu_tasks > 0 == on.migrated_cpu_tasks
    on = simulate(costs, replace(config_3, migration=True))
    assert on.migrated_cpu_tasks > 0 == on.migrated_gpu_tasks
