"""Two-photon state tomography from 16 projection measurements.

The measurement set is the canonical 16-pair combination of single
photon analysis states drawn from {H, V, D, A, L, R}, and the
reconstruction is a maximum-likelihood fit of a Cholesky-parametrized
density matrix against Poisson-distributed coincidence counts.  Only
the fit needs scipy, and it imports it when called, so the records and
their CSV files work without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .countsim import CountModel, simulate_counts
from .qstate import TwoQubitDensity

GRADIENT_TOL = 1e-8
MAX_ITERATIONS = 10_000

_SQ = 1.0 / np.sqrt(2.0)
ANALYSIS_STATES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQ, _SQ], dtype=complex),
    "A": np.array([_SQ, -_SQ], dtype=complex),
    "R": np.array([_SQ, 1.0j * _SQ], dtype=complex),
    "L": np.array([_SQ, -1.0j * _SQ], dtype=complex),
}

# Canonical pair sequence; the first four span the rectilinear basis
# and sum to the total flux.
CANONICAL_PAIRS = (
    ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
    ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
    ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
    ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
)

# Index layout of the 16 real parameters in the lower-triangular T:
# entry (_ROWS[s], _COLS[s]) has real part params[_RE[s]] and, off the
# diagonal (s >= 4), imaginary part params[_IM[s - 4]].
_ROWS = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
_COLS = np.array([0, 1, 2, 3, 0, 1, 2, 0, 1, 0])
_RE = np.array([0, 1, 2, 3, 4, 6, 8, 10, 12, 14])
_IM = _RE[4:] + 1


@dataclass(frozen=True)
class TomographyRecord:
    basis_a: str
    basis_b: str
    counts: float

    def __post_init__(self) -> None:
        if self.basis_a not in ANALYSIS_STATES or self.basis_b not in ANALYSIS_STATES:
            raise ValueError(f"unknown analysis basis {self.basis_a}{self.basis_b}")
        if not 0.0 <= self.counts < math.inf:
            raise ValueError("counts must be finite and >= 0")


@dataclass
class ReconstructionResult:
    rho: TwoQubitDensity
    log_likelihood: float
    iterations: int
    converged: bool


def canonical_projections() -> list[tuple[str, str]]:
    return list(CANONICAL_PAIRS)


def pair_vector(basis_a: str, basis_b: str) -> np.ndarray:
    return np.kron(ANALYSIS_STATES[basis_a], ANALYSIS_STATES[basis_b])


def projection_probability(rho: TwoQubitDensity, basis_a: str, basis_b: str) -> float:
    vec = pair_vector(basis_a, basis_b)
    return float(np.real(vec.conj() @ rho.matrix @ vec))


def expected_records(rho: TwoQubitDensity, total_pairs: float) -> list[TomographyRecord]:
    """Noise-free records with counts = flux times probability."""
    return [
        TomographyRecord(a, b, total_pairs * projection_probability(rho, a, b))
        for a, b in CANONICAL_PAIRS
    ]


def simulate_tomography(
    rho: TwoQubitDensity, model: CountModel, seed: int
) -> list[TomographyRecord]:
    """Poisson-sampled coincidence counts for the 16 canonical pairs."""
    records = []
    for idx, (a, b) in enumerate(CANONICAL_PAIRS):
        p = projection_probability(rho, a, b)
        n = simulate_counts(p, model, seed, spawn_key=(3, idx))
        records.append(TomographyRecord(a, b, float(n)))
    return records


def _t_matrix(params: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=complex)
    t.real[_ROWS, _COLS] = params[_RE]
    t.imag[_ROWS[4:], _COLS[4:]] = params[_IM]
    return t


def _params_from_t(t: np.ndarray) -> np.ndarray:
    params = np.empty(16)
    params[_RE] = t[_ROWS, _COLS].real
    params[_IM] = t[_ROWS[4:], _COLS[4:]].imag
    return params


def _lower_triangular_factor(rho: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dagger T = rho (flip-Cholesky trick)."""
    flip = np.eye(4)[::-1]
    chol = np.linalg.cholesky(flip @ rho @ flip)
    upper = flip @ chol @ flip
    return upper.conj().T


def _linear_inversion(counts: np.ndarray, pair_vecs: np.ndarray) -> np.ndarray | None:
    """Least-squares Gamma-basis estimate, projected onto valid states."""
    flux = counts[:4].sum()
    if flux <= 0.0:
        return None
    probs = counts / flux
    paulis = (
        np.eye(2, dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )
    gammas = [0.5 * np.kron(a, b) for a in paulis for b in paulis]
    basis = np.array(
        [
            [np.real(v.conj() @ g @ v) for g in gammas]
            for v in pair_vecs
        ]
    )
    coeff, *_ = np.linalg.lstsq(basis, probs, rcond=None)
    rho = sum(c * g for c, g in zip(coeff, gammas))
    rho = 0.5 * (rho + rho.conj().T)
    eigvals, eigvecs = np.linalg.eigh(rho)
    eigvals = np.clip(eigvals, 0.0, None)
    if eigvals.sum() <= 0.0:
        return None
    rho = eigvecs @ np.diag(eigvals) @ eigvecs.conj().T
    return rho / np.real(np.trace(rho))


def _neg_log_likelihood_and_grad(
    params: np.ndarray, counts: np.ndarray, pair_mat: np.ndarray
) -> tuple[float, np.ndarray]:
    t = _t_matrix(params)
    tau = float(np.real(np.sum(t.conj() * t)))
    if tau <= 1e-300:
        return 1e300, np.zeros(16)
    g = t @ pair_mat.T
    norms = np.real(np.sum(g.conj() * g, axis=0))
    probs = norms / tau
    total_n = counts.sum()
    total_p = probs.sum()
    flux = total_n / total_p
    mu = np.clip(flux * probs, 1e-12, None)
    nll = float(np.sum(mu - counts * np.log(mu)))

    # Gradient with the flux profiled out (its optimality zeroes the
    # corresponding total-derivative term).
    coeff = 1.0 - counts / mu
    q = (g * coeff) @ pair_mat.conj()
    cp = float(coeff @ probs)
    grad_mat = (2.0 * flux / tau) * (q - cp * t)
    return nll, _params_from_t(grad_mat)


def reconstruct_mle(records: list[TomographyRecord]) -> ReconstructionResult:
    """Maximum-likelihood density matrix from the canonical 16 records.

    The state is parametrized by 16 real Cholesky parameters, and
    scipy's L-BFGS-B maximizes the Poisson log-likelihood of the counts.
    It stops on its relative-reduction test (ftol 1e-15) or after 10^4
    iterations: its max |grad| <= 1e-8 test is out of reach at realistic
    count totals.  ``converged`` is scipy's success flag or max |grad|
    < 1e-8.  ROADMAP.md open item 2 plans a gradient stop scaled by the
    total counts.
    """
    by_pair = {(r.basis_a, r.basis_b): r.counts for r in records}
    if len(records) != 16 or set(by_pair) != set(CANONICAL_PAIRS):
        raise ValueError("need exactly the 16 canonical projection records")
    counts = np.array([by_pair[p] for p in CANONICAL_PAIRS], dtype=float)
    if counts.sum() <= 0.0:
        raise ValueError("all-zero counts cannot be reconstructed")
    from scipy.optimize import minimize

    pair_mat = np.array([pair_vector(a, b) for a, b in CANONICAL_PAIRS])
    rho0 = _linear_inversion(counts, pair_mat)
    if rho0 is None:
        rho0 = np.eye(4, dtype=complex) / 4.0
    t0 = _lower_triangular_factor(rho0 + 1e-6 * np.eye(4))
    x0 = _params_from_t(t0)

    res = minimize(
        _neg_log_likelihood_and_grad,
        x0,
        args=(counts, pair_mat),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": MAX_ITERATIONS,
            "maxfun": 10 * MAX_ITERATIONS,
            "gtol": GRADIENT_TOL,
            "ftol": 1e-15,
        },
    )
    t = _t_matrix(res.x)
    rho = t.conj().T @ t
    rho = rho / np.real(np.trace(rho))
    grad_norm = float(np.max(np.abs(res.jac)))
    return ReconstructionResult(
        rho=TwoQubitDensity(rho),
        log_likelihood=-float(res.fun),
        iterations=int(res.nit),
        converged=bool(res.success or grad_norm < GRADIENT_TOL),
    )


def records_to_csv(records: list[TomographyRecord], path: str) -> None:
    lines = ["basis_a,basis_b,counts"]
    for r in records:
        lines.append(f"{r.basis_a},{r.basis_b},{r.counts:.9g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def records_from_csv(path: str) -> list[TomographyRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(n, line.strip()) for n, line in enumerate(fh, 1) if line.strip()]
    if not rows or rows[0][1] != "basis_a,basis_b,counts":
        raise ValueError("tomography CSV must start with basis_a,basis_b,counts")
    records = []
    for n, line in rows[1:]:
        try:
            a, b, count = line.split(",")
            records.append(TomographyRecord(a, b, float(count)))
        except ValueError as exc:
            raise ValueError(f"{path}, line {n}: bad basis_a,basis_b,counts "
                             f"row {line!r}: {exc}") from None
    return records
