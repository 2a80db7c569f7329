"""The package namespace, what runs without scipy, and the layout of the
tests."""

import ast
import importlib
import json
import os

import numpy as np
import pytest

import ghostpol
from helpers import BLOCK_SCIPY, run_python

EXPORTS = {
    "countsim": "CountModel RunSet correct_counts simulate_counts simulate_runs",
    "discern": "DistinguishabilityReport EllipsoidRegion "
               "analyze_families analyze_family max_distinguishable_subset "
               "separable step_stats summarize",
    "ghost": "ResponseCurve coincidence_probability dataset_scale "
             "heralded_idler sweep_family",
    "optproj": "OptimizationConfig OptimizationResult ProjectorParam "
               "nearest_feasible objective_min_separation optimize",
    "polcalc": "PolElement compose element_jones jones_to_mueller",
    "qstate": "TwoQubitDensity bell_psi_plus concurrence fidelity "
              "linear_entropy metrics werner",
    "tomo": "ReconstructionResult TomographyRecord reconstruct_mle "
            "simulate_tomography",
}


def test_exports_are_the_submodule_objects():
    names = [name for names in EXPORTS.values() for name in names.split()]
    assert len(names) == 39
    assert ghostpol.__all__ == sorted(names)
    star = {}
    exec("from ghostpol import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(names)
    for module, names in EXPORTS.items():
        module = importlib.import_module(f"ghostpol.{module}")
        for name in names.split():
            assert getattr(ghostpol, name) is getattr(module, name)
            assert star[name] is getattr(module, name)


# Run in a fresh interpreter: import the package, report the modules
# loaded, use one export and report them again.
LAZY = """
import json, sys
loaded = lambda: ["numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.split(".")[0] == "ghostpol")]
import ghostpol
print(json.dumps(loaded()))
ghostpol.PolElement
print(json.dumps(loaded()))
"""


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "preset"])
def test_package_import_loads_numpy_and_no_layer(preset):
    # Each export loads its module on first use; numpy loads either way.
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    lines = run_python("-c", LAZY, env={**env, **preset}).stdout.splitlines()
    assert [json.loads(line) for line in lines] == [
        [True, ["ghostpol"]], [True, ["ghostpol", "ghostpol.polcalc"]]]


# Run in a fresh interpreter in which every scipy import fails: the
# package, the command line module and all of tomo, the fit included.
NO_SCIPY = BLOCK_SCIPY + """
import json
import ghostpol, ghostpol.cli
from ghostpol import tomo
from ghostpol.countsim import CountModel
from ghostpol.qstate import werner
records = tomo.simulate_tomography(werner(0.9), CountModel(1e5, 1.0), 4)
tomo.records_to_csv(records, sys.argv[1])
back = tomo.records_from_csv(sys.argv[1])
errors = []
for bad in (back[:15], back[:15] + back[:1], [tomo.TomographyRecord(a, b, 0.0)
                                              for a, b in tomo.CANONICAL_PAIRS]):
    try:
        tomo.reconstruct_mle(bad)
    except ValueError as exc:
        errors.append(str(exc))
print(json.dumps({
    "converged": tomo.reconstruct_mle(back).converged,
    "counts": [r.counts for r in records], "back": [r.counts for r in back],
    "errors": errors, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"],
}))
"""


def test_package_and_tomo_records_run_without_scipy(tmp_path):
    out = json.loads(run_python("-c", NO_SCIPY, str(tmp_path / "records.csv")).stdout)
    assert out["scipy"] == []
    assert len(out["counts"]) == 16 and out["back"] == out["counts"]
    assert out["errors"] == [
        "need exactly the 16 canonical projection records: missing R,L",
        "need exactly the 16 canonical projection records: missing R,L; "
        "repeated H,H",
        "all-zero counts cannot be reconstructed",
    ]
    assert out["converged"]


def test_array_records_compare_by_identity_and_hash():
    # Generated array-field __eq__ raised ValueError (an array's truth
    # value is ambiguous), and a frozen record's __hash__ TypeError.
    thetas, raw = np.arange(3.0), np.ones((3, 2))
    for make in (lambda: ghostpol.ResponseCurve("LP", thetas, raw),
                 lambda: ghostpol.RunSet(thetas, np.ones((2, 3, 2))),
                 lambda: ghostpol.EllipsoidRegion(raw, raw),
                 ghostpol.bell_psi_plus):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b}) == 2
    # Records of scalars still compare by value.
    assert ghostpol.PolElement("ideal_polarizer", 10.0) == \
        ghostpol.PolElement("ideal_polarizer", 190.0)


# Run in a fresh interpreter in which every public numpy.linalg function
# (not the LinAlgError class) raises: importing the command line module
# calls none of them.
NO_LINALG = """
import numpy.linalg as la
def refuse(*args, **kwargs):
    raise AssertionError("numpy.linalg called")
for name in dir(la):
    value = getattr(la, name)
    if not name.startswith("_") and callable(value) and not isinstance(value, type):
        setattr(la, name, refuse)
import ghostpol.cli
"""


def test_cli_import_calls_no_numpy_linalg():
    run_python("-c", NO_LINALG)


# Run in a fresh interpreter: import the package, or numpy alone, and
# report the process's threads and the thread variables it then sees.
THREADS = """
import importlib, json, os, sys
importlib.import_module(sys.argv[1])
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "env": {k: os.environ.get(k) for k in sys.argv[2:]}}))
"""
THREAD_VARS = ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "preset"])
def test_numpy_starts_with_one_blas_thread_unless_a_count_is_set(preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)

    def run(module):
        return json.loads(run_python("-c", THREADS, module, *THREAD_VARS,
                                     env=env).stdout)

    package, numpy_alone = run("ghostpol"), run("numpy")
    # The environment is the caller's again after the import.
    assert package["env"] == {k: preset.get(k) for k in THREAD_VARS}
    # One thread, or, with a count set, whatever numpy alone starts.
    assert package["threads"] == (numpy_alone["threads"] if preset else 1)


def test_no_test_module_imports_another_or_repeats_a_function():
    # One oracle per behaviour and one home per fixture: helpers.py holds
    # what several modules share, else the one module that uses it.
    tests = os.path.dirname(os.path.abspath(__file__))
    homes, imports = {}, []
    for name in sorted(n for n in os.listdir(tests) if n.endswith(".py")):
        with open(os.path.join(tests, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                           else [alias.name for alias in node.names])
                imports += [(name, m) for m in modules if m.startswith("test_")]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                homes.setdefault(node.name, []).append(name)
    assert imports == []
    assert {f: names for f, names in homes.items() if len(names) > 1} == {}
