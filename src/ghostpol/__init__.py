"""Nonlocal polarimetric discrimination toolkit.

Simulates polarization-entangled photon pairs probing rotatable
polarization objects, the resulting coincidence response curves,
counting statistics, state tomography and the distinguishability
analysis of the measured response points.

The package needs numpy and PyYAML; no part of it imports scipy.
"""

import os as _os
import sys as _sys
from types import ModuleType as _ModuleType

# The package's BLAS and LAPACK calls are 4x4, too small for a second
# OpenBLAS thread, yet starting the thread pool costs import time on a
# busy host.  So numpy, if this import loads it, starts with one thread
# unless the caller set a thread count; the environment is restored
# right after, so child processes inherit nothing.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .countsim import CountModel, RunSet, correct_counts, simulate_counts, simulate_runs
from .discern import (DistinguishabilityReport, EllipsoidRegion, analyze_families,
                      analyze_family, max_distinguishable_subset, separable,
                      step_stats, summarize)
from .ghost import (ResponseCurve, coincidence_probability, dataset_scale,
                    heralded_idler, sweep_family)
from .optproj import (OptimizationConfig, OptimizationResult, ProjectorParam,
                      nearest_feasible, objective_min_separation, optimize)
from .polcalc import PolElement, compose, element_jones, jones_to_mueller
from .qstate import (TwoQubitDensity, bell_psi_plus, concurrence, fidelity,
                     linear_entropy, metrics, werner)
from .tomo import (ReconstructionResult, TomographyRecord, reconstruct_mle,
                   simulate_tomography)

# The names imported above; the submodules that the imports bind are
# not exports.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
