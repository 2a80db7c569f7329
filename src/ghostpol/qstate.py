"""Two-qubit polarization states and entanglement metrics.

Basis order for the pair is (HH, HV, VH, VV) with the signal photon
first and the idler photon second.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .polcalc import PAULIS
from .textio import block

HERMITICITY_TOL = 1e-10
EIGENVALUE_TOL = 1e-9


class StateValidationError(ValueError):
    pass


def _validated(matrix: np.ndarray) -> np.ndarray:
    rho = np.asarray(matrix, dtype=complex)
    if rho.shape != (4, 4):
        raise StateValidationError("density matrix must be 4x4")
    if not np.isfinite(rho).all():
        raise StateValidationError("density matrix has non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise StateValidationError("density matrix is not Hermitian")
    rho = 0.5 * (rho + rho.conj().T)
    eigvals, eigvecs = np.linalg.eigh(rho)
    if eigvals[0] < -EIGENVALUE_TOL:
        raise StateValidationError(
            f"density matrix has negative eigenvalue {eigvals[0]}"
        )
    if eigvals[0] < 0.0:
        # Tiny negative dust from round-off: clip and renormalize.  The
        # warning names the caller of TwoQubitDensity(...), past this
        # function, __post_init__ and the dataclass __init__.
        warnings.warn(
            "clipping negative eigenvalues of a density matrix",
            stacklevel=4,
        )
        eigvals = np.clip(eigvals, 0.0, None)
        rho = eigvecs @ np.diag(eigvals) @ eigvecs.conj().T
    tr = np.real(np.trace(rho))
    if abs(tr - 1.0) > 1e-8:
        raise StateValidationError(f"density matrix trace {tr} != 1")
    return rho / tr


@dataclass(frozen=True, eq=False)
class TwoQubitDensity:
    """Validated 4x4 density matrix in the (HH, HV, VH, VV) basis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _validated(self.matrix))

    @classmethod
    def from_factor(cls, t: np.ndarray) -> TwoQubitDensity:
        """T^dagger T / tr(T^dagger T), Hermitian and positive semidefinite
        by construction, so it is not validated: that would call LAPACK."""
        rho = np.einsum("ab,ac->bc", t.conj(), t)
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", rho / np.trace(rho).real)
        return state

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def bell_psi_plus() -> TwoQubitDensity:
    """|Psi+> = (|HV> + |VH>)/sqrt(2) as a density matrix: a pure state
    by construction, so it is not validated, which would call LAPACK."""
    return TwoQubitDensity.from_factor(psi_plus_vector()[None])


def psi_plus_vector() -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    vec[1] = vec[2] = 1.0 / np.sqrt(2.0)
    return vec


def werner(p: float) -> TwoQubitDensity:
    """Werner-like mixture p |Psi+><Psi+| + (1 - p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    pure = bell_psi_plus().matrix
    return TwoQubitDensity(p * pure + (1.0 - p) * np.eye(4) / 4.0)


def concurrence(rho: TwoQubitDensity) -> float:
    """Wootters concurrence via the spin-flip eigenvalue formula."""
    m = rho.matrix
    flip = np.kron(PAULIS[2], PAULIS[2])
    rho_tilde = flip @ m.conj() @ flip
    eigvals = np.linalg.eigvals(m @ rho_tilde)
    lam = np.sqrt(np.clip(np.real(eigvals), 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def linear_entropy(rho: TwoQubitDensity) -> float:
    """Normalized linear entropy (4/3)(1 - tr rho^2), in [0, 1]."""
    return float((4.0 / 3.0) * (1.0 - rho.purity()))


def fidelity(rho: TwoQubitDensity) -> float:
    """Overlap <Psi+|rho|Psi+>."""
    vec = psi_plus_vector()
    # Its computed norm is 0.9999999999999999, so normalize it in floats.
    vec = vec / np.linalg.norm(vec)
    return float(np.real(vec.conj() @ rho.matrix @ vec))


def metrics(rho: TwoQubitDensity) -> tuple[float, float, float, float]:
    """Concurrence, linear entropy, fidelity and purity, in metrics.txt order."""
    return concurrence(rho), linear_entropy(rho), fidelity(rho), rho.purity()


def save_density_csv(rho: TwoQubitDensity, path: str) -> None:
    """Write a density matrix as CSV rows of interleaved re, im pairs."""
    header = ",".join(f"re{c},im{c}" for c in range(4))
    rows = ",".join(["%.12g,%.12g"] * 4) + "\n"
    columns = [rho.matrix.real.ravel().tolist(), rho.matrix.imag.ravel().tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + block(rows * 4, columns))


def load_density_csv(path: str) -> TwoQubitDensity:
    """Read a density matrix written by :func:`save_density_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if len(rows) != 5:
        raise StateValidationError("density CSV must have a header and 4 rows")
    m = np.zeros((4, 4), dtype=complex)
    for i, line in enumerate(rows[1:]):
        cells = [float(x) for x in line.split(",")]
        if len(cells) != 8:
            raise StateValidationError("density CSV rows need 8 numbers")
        for j in range(4):
            m[i, j] = cells[2 * j] + 1.0j * cells[2 * j + 1]
    return TwoQubitDensity(m)
