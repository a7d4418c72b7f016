"""The paper's §4 execution schemes, reproduced as a deterministic model.

§4 argues from machine-level effects — one aggregator consolidating
launches beats uncoordinated streams that serialize on an exclusive
device (Table 1), and watermark-driven migration moves parser work onto
an idle GPU or aggregator work onto idle CPUs (Fig. 11).  Python threads
under the GIL on a shared host cannot exhibit those effects, so the
reproduction has two halves that say which is which:

* **measured** — :func:`measure_tiles` runs every tile once through the
  production stage bodies and returns its parser / builder / filter /
  aggregator seconds plus the dataset's real ``J'``;
* **modeled** — :func:`simulate` replays those seconds through a
  discrete-event model (:func:`step` over an explicit :class:`State`) of
  a :class:`Machine`: a core pool, bounded buffers, exclusive devices
  with a launch overhead and a speed, the two migration rules.  Equal
  inputs give equal outcomes, instantly.

``experiments/table1_pipeline.py``, ``fig11_migration.py`` and
``fig12_datasets.py`` are the only callers; nothing on the production
path imports this package (:meth:`repro.Session.compare_files` is a
plain per-tile loop).
"""

from repro.pipeline.measure import measure_tiles
from repro.pipeline.model import (
    NOPIPE_M,
    NOPIPE_S,
    PIPELINED,
    SCHEMES,
    Device,
    DeviceUse,
    Machine,
    Outcome,
    State,
    TileCost,
    Worker,
    finished,
    initial_state,
    simulate,
    step,
)

__all__ = [
    "measure_tiles",
    "NOPIPE_S",
    "NOPIPE_M",
    "PIPELINED",
    "SCHEMES",
    "TileCost",
    "Device",
    "Machine",
    "DeviceUse",
    "Worker",
    "State",
    "Outcome",
    "initial_state",
    "step",
    "finished",
    "simulate",
]
