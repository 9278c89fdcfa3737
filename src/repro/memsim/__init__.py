"""Memory-hierarchy cost model: the substitute for the paper's testbed.

Public surface:

* :class:`Machine` / :data:`XEON_E5645` — hardware description.
* :class:`BitmapCostModel` / :class:`MapCostConfig` / :class:`ExecShape`
  / :class:`OpCycles` — per-iteration analytical pricing.
* :func:`model_for_benchmark` / :data:`PAPER_THROUGHPUT_64K` —
  calibration against the paper's 64 kB AFL anchor.
* :func:`solve_parallel` / :func:`scaling_curve` — LLC + bandwidth
  contention between concurrent instances (Figure 9).
* :class:`SetAssociativeCache` / :class:`CacheHierarchy` /
  :class:`DTLBSim` — exact simulators validating the analytical rules.
"""

from .cache import CacheHierarchy, SetAssociativeCache
from .calibration import (PAPER_OPTIONS, PAPER_THROUGHPUT_64K,
                          calibrate_execution_cost, model_for_benchmark,
                          target_working_set_bytes)
from .contention import (InstanceLoad, ParallelResult, scaling_curve,
                         solve_parallel)
from .costmodel import (AFL, BIGMAP, BitmapCostModel, ExecShape,
                        MapCostConfig, OpCycles)
from .machine import XEON_E5645, CacheLevel, Machine
from .tlb import (DTLBSim, pages_for_region, scattered_walk_fraction,
                  sweep_walk_cycles)

__all__ = [
    "CacheHierarchy", "SetAssociativeCache",
    "PAPER_OPTIONS", "PAPER_THROUGHPUT_64K", "calibrate_execution_cost",
    "model_for_benchmark", "target_working_set_bytes",
    "InstanceLoad", "ParallelResult", "scaling_curve", "solve_parallel",
    "AFL", "BIGMAP", "BitmapCostModel", "ExecShape", "MapCostConfig",
    "OpCycles",
    "XEON_E5645", "CacheLevel", "Machine",
    "DTLBSim", "pages_for_region", "scattered_walk_fraction",
    "sweep_walk_cycles",
]
