"""The package namespace, and what runs without scipy."""

import importlib
import json
import os
import subprocess
import sys

import ghostpol

EXPORTS = {
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


def test_exports_are_the_submodule_objects():
    names = [name for names in EXPORTS.values() for name in names.split()]
    assert len(names) == 47
    assert ghostpol.__all__ == sorted(names)
    for module, names in EXPORTS.items():
        module = importlib.import_module(f"ghostpol.{module}")
        for name in names.split():
            assert getattr(ghostpol, name) is getattr(module, name)


# Run in a fresh interpreter in which every scipy import fails: the
# package, the command line module and everything of tomo but the fit.
NO_SCIPY = """
import json, sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked: {name}")
sys.meta_path.insert(0, NoScipy())
sys.path.insert(0, sys.argv[1])
import ghostpol, ghostpol.cli
from ghostpol import tomo
from ghostpol.countsim import CountModel
from ghostpol.qstate import werner
records = tomo.simulate_tomography(werner(0.9), CountModel(1e5, 1.0), 4)
tomo.records_to_csv(records, sys.argv[2])
back = tomo.records_from_csv(sys.argv[2])
errors = []
for bad in (back[:15], back[:15] + back[:1], [tomo.TomographyRecord(a, b, 0.0)
                                              for a, b in tomo.CANONICAL_PAIRS]):
    try:
        tomo.reconstruct_mle(bad)
    except ValueError as exc:
        errors.append(str(exc))
try:
    tomo.reconstruct_mle(back)
except ImportError as exc:
    errors.append(type(exc).__name__)
print(json.dumps({
    "counts": [r.counts for r in records], "back": [r.counts for r in back],
    "errors": errors, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"],
}))
"""


def test_package_and_tomo_records_run_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(ghostpol.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, src, str(tmp_path / "records.csv")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["scipy"] == []
    assert len(out["counts"]) == 16 and out["back"] == out["counts"]
    assert out["errors"] == [
        "need exactly the 16 canonical projection records",
        "need exactly the 16 canonical projection records",
        "all-zero counts cannot be reconstructed",
        "ModuleNotFoundError",
    ]
