"""Table 1 benchmark: execution schemes vs PostGIS-S."""

from repro.experiments import table1_pipeline
from repro.experiments.common import pipeline_dataset
from repro.pipeline import SCHEMES, measure_tiles, simulate


def test_table1_report(benchmark, save_report):
    result = benchmark.pedantic(
        lambda: table1_pipeline.run(quick=True), rounds=1, iterations=1
    )
    save_report("table1", result.render())
    seconds = {row[0]: row[1] for row in result.rows}
    # The paper's ordering, exact on one cost vector and one machine.
    assert seconds["Pipelined"] <= seconds["NoPipe-M"] <= seconds["NoPipe-S"]
    # Every accelerated scheme must beat the measured single-core PostGIS.
    assert seconds["NoPipe-S"] < seconds["PostGIS-S"]


def test_table1_mechanism():
    """Why the pipeline wins: one aggregator consolidates launches, and
    the uncoordinated streams queue on the exclusive device."""
    costs, _ = measure_tiles(*pipeline_dataset(quick=True))
    device = {
        scheme: simulate(costs, table1_pipeline.MACHINE, scheme).devices[0]
        for scheme in SCHEMES
    }
    assert device["Pipelined"].launches < device["NoPipe-S"].launches
    assert (
        device["NoPipe-M"].lock_wait_seconds
        > device["Pipelined"].lock_wait_seconds
    )
