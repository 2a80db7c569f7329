"""Nonlocal polarimetric discrimination toolkit.

Simulates polarization-entangled photon pairs probing rotatable
polarization objects, the resulting coincidence response curves,
counting statistics, state tomography and the distinguishability
analysis of the measured response points.

The names below are re-exported on first access (PEP 562), so that
importing one submodule, such as ``ghostpol.cli``, loads only the
modules it needs: scipy only with ``tomo``.
"""

import importlib

_EXPORTS = {
    "countsim": "CountModel RunSet correct_counts simulate_counts simulate_runs",
    "discern": "DistinguishabilityReport EllipsoidRegion SampleStats "
               "analyze_families analyze_family max_distinguishable_subset "
               "separable step_stats summarize",
    "ghost": "ProbeTransform ResponseCurve coincidence_probability "
             "dataset_scale heralded_idler sweep_family",
    "optproj": "OptimizationConfig OptimizationResult ProjectorParam "
               "nearest_feasible objective_min_separation optimize",
    "polcalc": "PolElement compose element_jones jones_to_mueller "
               "kraus_from_mueller mueller_to_choi rotation_jones",
    "qstate": "StateMetrics TwoQubitDensity bell_psi_plus concurrence fidelity "
              "linear_entropy metrics partial_trace werner",
    "tomo": "ReconstructionResult TomographyRecord canonical_projections "
            "reconstruct_mle simulate_tomography",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
