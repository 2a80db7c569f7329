"""Nonlocal polarimetric discrimination toolkit.

Simulates polarization-entangled photon pairs probing rotatable
polarization objects, the resulting coincidence response curves,
counting statistics, state tomography and the distinguishability
analysis of the measured response points.

Importing the package loads numpy and no scipy: only the tomography
fit, ``reconstruct_mle``, imports scipy, when it is called.
"""

from types import ModuleType as _ModuleType

from .countsim import CountModel, RunSet, correct_counts, simulate_counts, simulate_runs
from .discern import (DistinguishabilityReport, EllipsoidRegion, SampleStats,
                      analyze_families, analyze_family, max_distinguishable_subset,
                      separable, step_stats, summarize)
from .ghost import (ProbeTransform, ResponseCurve, coincidence_probability,
                    dataset_scale, heralded_idler, sweep_family)
from .optproj import (OptimizationConfig, OptimizationResult, ProjectorParam,
                      nearest_feasible, objective_min_separation, optimize)
from .polcalc import (PolElement, compose, element_jones, jones_to_mueller,
                      kraus_from_mueller, mueller_to_choi, rotation_jones)
from .qstate import (StateMetrics, TwoQubitDensity, bell_psi_plus, concurrence,
                     fidelity, linear_entropy, metrics, partial_trace, werner)
from .tomo import (ReconstructionResult, TomographyRecord, canonical_projections,
                   reconstruct_mle, simulate_tomography)

# The names imported above; the submodules that the imports bind are
# not exports.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
