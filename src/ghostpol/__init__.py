"""Nonlocal polarimetric discrimination toolkit.

Simulates polarization-entangled photon pairs probing rotatable
polarization objects, the resulting coincidence response curves,
counting statistics, state tomography and the distinguishability
analysis of the measured response points.

The package needs numpy and PyYAML; no part of it imports scipy.
Importing the package loads numpy and no layer module: each exported
name loads its module on first use.
"""

import importlib as _importlib
import os as _os
import sys as _sys

# The package's BLAS and LAPACK calls are 4x4, too small for a second
# OpenBLAS thread, yet starting the thread pool costs import time on a
# busy host.  So numpy, if this import loads it, starts with one thread
# unless the caller set a thread count; the environment is restored
# right after, so child processes inherit nothing.  With a count set,
# the package import loads numpy all the same.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
import numpy as _numpy  # noqa: E402,F401

_EXPORTS = {
    "countsim": "CountModel RunSet correct_counts simulate_counts simulate_runs",
    "discern": "DistinguishabilityReport EllipsoidRegion analyze_families analyze_family "
               "max_distinguishable_subset separable step_stats summarize",
    "ghost": "ResponseCurve coincidence_probability dataset_scale heralded_idler sweep_family",
    "optproj": "OptimizationConfig OptimizationResult ProjectorParam nearest_feasible "
               "objective_min_separation optimize",
    "polcalc": "PolElement compose element_jones jones_to_mueller",
    "qstate": "TwoQubitDensity bell_psi_plus concurrence fidelity linear_entropy metrics werner",
    "tomo": "ReconstructionResult TomographyRecord reconstruct_mle simulate_tomography",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Called only for a name not yet bound here: an export, or a
    # submodule that ``from ghostpol import <module>`` then imports.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
