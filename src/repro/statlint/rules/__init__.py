"""Rule set: importing this package registers every built-in rule.

Determinism family (per-file): DET001 wall clocks, DET002 unseeded
randomness, DET003 unordered iteration in output paths, TEL001
telemetry-subsystem determinism. Robustness family (per-file): ERR001
swallowed broad excepts, ERR002 non-atomic fault-path writes, NUM001
narrow-int array arithmetic, NUM101 float64 ``np.bincount`` in hot-path
kernels. Consistency family (whole-project): SNAP001 checkpoint
coverage, EXP001 experiment registry.
"""

from . import (determinism, numeric, project,  # noqa: F401 (registers)
               robustness, telemetry)
