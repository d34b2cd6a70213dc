"""`repro.bench` — the parallel, persistently-cached evaluation harness.

Three layers:

* :mod:`repro.bench.cache` — a content-addressed on-disk result cache,
  keyed by SHA-256 over everything that can change a simulation's
  semantics (workload source, compiler configuration, profile and run
  inputs, energy-model version stamp).  It sits *under* the in-process
  memoizer of :mod:`repro.eval.harness`, making results shareable across
  processes and sessions.
* :mod:`repro.bench.executor` — runs the (workload × config × seed)
  matrix on the campaign kernel (:func:`repro.core.campaign.run_cells`),
  across cores with per-task timeouts, then re-runs the failed tasks as
  one retry round and degrades those that fail again.
* the ``python -m repro.bench`` CLI — runs a roster and emits a
  ``BENCH_<date>.json`` with wall-clock, per-workload simulation time,
  cache hit rate, and simulated instructions/second, so the perf
  trajectory of this repo is measured, not guessed.
"""

from repro.bench.cache import (
    ENERGY_MODEL_VERSION,
    DiskCache,
    RunDiskCache,
    energy_model_stamp,
    install_disk_cache,
    run_key,
)
from repro.bench.executor import BenchTask, TaskOutcome, run_matrix

__all__ = [
    "ENERGY_MODEL_VERSION",
    "DiskCache",
    "RunDiskCache",
    "BenchTask",
    "TaskOutcome",
    "energy_model_stamp",
    "install_disk_cache",
    "run_key",
    "run_matrix",
]
