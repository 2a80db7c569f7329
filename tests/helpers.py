"""Helpers that only tests call: physics kept out of the package, and
runs of a fresh process."""

import os
import subprocess
import sys

import numpy as np

import ghostpol
from ghostpol.qstate import TwoQubitDensity
from ghostpol.tomo import CANONICAL_PAIRS, TomographyRecord, projection_probability

# The directory that holds the ghostpol package under test.
SRC = os.path.dirname(os.path.dirname(ghostpol.__file__))

# Source for a fresh interpreter: a sys.meta_path finder that makes every
# scipy module unimportable.
BLOCK_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked: {name}")
sys.meta_path.insert(0, NoScipy())
"""


def rotation_jones(theta_deg: float) -> np.ndarray:
    """Jones rotation matrix for a frame rotation by ``theta_deg``."""
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]], dtype=complex)


def expected_records(rho: TwoQubitDensity, total_pairs: float) -> list[TomographyRecord]:
    """Noise-free records with counts = flux times probability."""
    return [
        TomographyRecord(a, b, total_pairs * projection_probability(rho, a, b))
        for a, b in CANONICAL_PAIRS
    ]


def run_checked(argv, returncode=0, env=None) -> subprocess.CompletedProcess:
    """Run ``argv`` in ``env`` (default: this process's), check that it
    exits with ``returncode`` and return the finished process."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == returncode, proc.stderr
    return proc


def run_python(*args, returncode=0, env=None) -> subprocess.CompletedProcess:
    """``run_checked`` of ``python *args`` in a fresh interpreter that
    imports ghostpol from ``SRC``."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    return run_checked([sys.executable, *args], returncode, env)
