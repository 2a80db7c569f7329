"""Physics helpers that only tests call, kept out of the package."""

import numpy as np

from ghostpol.qstate import TwoQubitDensity
from ghostpol.tomo import CANONICAL_PAIRS, TomographyRecord, projection_probability


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
