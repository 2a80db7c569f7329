"""Two-photon state tomography from 16 projection measurements.

The measurement set is the canonical 16-pair combination of single
photon analysis states drawn from {H, V, D, A, L, R}, and the
reconstruction is a maximum-likelihood fit of a Cholesky-parametrized
density matrix against Poisson-distributed coincidence counts (James
et al., PRA 64, 052312, 2001).  Every contraction from the records to
the fitted state is an ``np.einsum`` or ``np.sum``, never a BLAS or
LAPACK call, so the fit gives the same bits under every BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .countsim import TAG_CELL, CountModel, simulate_counts, stream
from .polcalc import PAULIS
from .qstate import TwoQubitDensity
from .textio import block, count_column

# The fit stops when max |gradient| <= GRADIENT_TOL x the total counts.
GRADIENT_TOL = 1e-12
MAX_ITERATIONS = 10_000
# Cell i draws from stream(seed, (TAG_CELL, CELL_KEY, i)); any other
# key changes every simulated record.
CELL_KEY = 3

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
_CSV_HEADER = "basis_a,basis_b,counts"  # the fields of a TomographyRecord

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


@dataclass(eq=False)
class ReconstructionResult:
    rho: TwoQubitDensity
    log_likelihood: float
    iterations: int
    converged: bool
    gradient_norm: float


def pair_vector(basis_a: str, basis_b: str) -> np.ndarray:
    return np.kron(ANALYSIS_STATES[basis_a], ANALYSIS_STATES[basis_b])


def projection_probability(rho: TwoQubitDensity, basis_a: str, basis_b: str) -> float:
    vec = pair_vector(basis_a, basis_b)
    return float(np.einsum("a,ab,b->", vec.conj(), rho.matrix, vec).real)


def simulate_tomography(
    rho: TwoQubitDensity, model: CountModel, seed: int
) -> list[TomographyRecord]:
    """Poisson-sampled coincidence counts for the 16 canonical pairs."""
    return [TomographyRecord(a, b, float(simulate_counts(
                projection_probability(rho, a, b), model,
                stream(seed, (TAG_CELL, CELL_KEY, i)))))
            for i, (a, b) in enumerate(CANONICAL_PAIRS)]


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


def _inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix by Gauss-Jordan elimination with
    partial pivoting, in numpy broadcasting alone (no LAPACK)."""
    n = len(a)
    m = np.hstack((a, np.eye(n)))
    for j in range(n):
        p = j + np.argmax(np.abs(m[j:, j]))
        m[[j, p]] = m[[p, j]]
        m[j] /= m[j, j]
        factors = m[:, j].copy()
        factors[j] = 0.0
        m -= factors[:, None] * m[j]
    return m[:, n:]


_PAIR_VECS = np.array([pair_vector(a, b) for a, b in CANONICAL_PAIRS])
# Linear inversion: with Gamma_k = sigma_m (x) sigma_n / 2 (k = 4m + n),
# the canonical probabilities are p_i = sum_k B_ik c_k for
# rho = sum_k c_k Gamma_k.  2 B^-1 is an integer matrix, computed within
# 2e-15 of it, so rounding gives c = B^-1 p exactly.  B is inverted once,
# at import: neither the import nor the fit calls a BLAS or LAPACK routine.
_GAMMAS = 0.5 * np.einsum("mab,ncd->mnacbd", PAULIS, PAULIS).reshape(16, 4, 4)
_INVERSION_X2 = np.rint(2.0 * _inverse(np.einsum(
    "ia,kab,ib->ik", _PAIR_VECS.conj(), _GAMMAS, _PAIR_VECS).real)).astype(int)
# rho = sum_i p_i _RHO_FROM_PROBS[i] inverts the probabilities exactly.
_RHO_FROM_PROBS = np.einsum("ki,kab->iab", _INVERSION_X2 / 2.0, _GAMMAS)
# |T v_i|^2 = x . _QUAD[i] . x for the parameters x of T.
_TV = np.einsum("sab,ib->isa", np.array([_t_matrix(e) for e in np.eye(16)]),
                _PAIR_VECS)
_QUAD = np.einsum("isa,ita->ist", _TV.conj(), _TV).real.copy()


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower-triangular T with T^dagger T = a; None if a pivot is not > 0."""
    t = np.zeros((4, 4), dtype=complex)
    for j in (3, 2, 1, 0):
        col = t[j + 1:, j].conj()
        pivot = a[j, j].real - np.einsum("a,a->", col, t[j + 1:, j]).real
        if not pivot > 0.0:
            return None
        t[j, j] = np.sqrt(pivot)
        t[j, :j] = (a[j, :j] - np.einsum("a,ak->k", col, t[j + 1:, :j])) / t[j, j].real
    return t


def _start(counts: np.ndarray) -> np.ndarray:
    """Parameters of the linear-inversion estimate plus the smallest
    shift s in 1e-6, 1e-5, ..., 1 whose Cholesky pivots are all
    positive (T = I/2 if none is, or if the rectilinear flux is 0),
    scaled so that the expected counts sum to the observed total."""
    flux = counts[:4].sum()
    t = None
    if flux > 0.0:
        rho = np.einsum("i,iab->ab", counts / flux, _RHO_FROM_PROBS)
        for shift in 10.0 ** np.arange(-6, 1):
            t = _cholesky(rho + shift * np.eye(4))
            if t is not None:
                break
    x = _params_from_t(np.eye(4) / 2.0 if t is None else t)
    return x / np.sqrt(np.einsum("s,ist,t->", x, _QUAD, x))


def _deviance_and_grad(x: np.ndarray, counts: np.ndarray, total: float
                       ) -> tuple[float, np.ndarray]:
    """Half the Poisson deviance of mu_i = total |T v_i|^2, and its gradient.

    sum mu - n log mu is the same up to a constant, but it is about
    N log N in size, and its rounding would hide the last descent steps.
    """
    qx = np.einsum("ist,t->is", _QUAD, x)  # |T v_i|^2 = x . qx[i]
    mu = total * np.einsum("is,s->i", qx, x)
    excess = mu - counts
    seen = counts > 0.0
    d = excess / np.where(seen, counts, 1.0)
    dev = float(np.sum(np.where(seen, counts * (d - np.log1p(d)), mu)))
    return dev, (2.0 * total) * np.einsum("i,is->s", excess / mu, qx)


def _bfgs(x: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense BFGS with Armijo backtracking; returns (x, gradient, iterations).

    It stops when max |gradient| <= GRADIENT_TOL x total counts, after
    MAX_ITERATIONS steps, or when no step length passes the Armijo test.
    """
    total = counts.sum()
    f, g = _deviance_and_grad(x, counts, total)
    h = np.eye(16) / total
    scaled = False
    for it in range(MAX_ITERATIONS):
        if np.max(np.abs(g)) <= GRADIENT_TOL * total:
            return x, g, it
        p = -np.einsum("ij,j->i", h, g)
        slope = np.einsum("i,i->", g, p)
        step = 1.0
        while True:
            x_new = x + step * p
            f_new, g_new = _deviance_and_grad(x_new, counts, total)
            # Armijo on f; where the change in f is lost in its rounding,
            # the same test on the quadratic with both end slopes (the
            # approximate Armijo test of Hager and Zhang, SIAM J. Optim.
            # 16, 170, 2005).  Strict, so that a step that f cannot see
            # passes on the slopes or not at all.
            if f_new < f + 1e-4 * step * slope or (
                    f_new <= f + 1e-10 * abs(f)
                    and slope + np.einsum("i,i->", g_new, p) <= 2e-4 * slope):
                break
            step *= 0.5
            if not slope < 0.0 or step < 1e-9:
                return x, g, it
        s, y = x_new - x, g_new - g
        sy = np.einsum("i,i->", s, y)
        if sy > 0.0:  # otherwise the update would lose positive definiteness
            if not scaled:
                h = np.eye(16) * (sy / np.einsum("i,i->", y, y))
                scaled = True
            # h += ((sy + y.hy) s s^T - hy s^T - s hy^T) / sy = w s^T + s w^T
            hy = np.einsum("ij,j->i", h, y)
            w = ((sy + np.einsum("i,i->", y, hy)) / (2.0 * sy) * s - hy) / sy
            ws = w[:, None] * s
            h = h + ws + ws.T
        x, f, g = x_new, f_new, g_new
    return x, g, MAX_ITERATIONS


def reconstruct_mle(records: list[TomographyRecord]) -> ReconstructionResult:
    """Maximum-likelihood density matrix from the canonical 16 records.

    The state is rho = T^dagger T / tr, with T lower triangular and set
    by 16 real parameters.  A dense BFGS minimizes the Poisson deviance
    of the expected counts mu_i = N |T v_i|^2 (N the total counts; the
    flux is carried by the scale of T), from the linear-inversion
    estimate.  It stops when max |gradient| <= GRADIENT_TOL x N, which
    is ``converged``, or after MAX_ITERATIONS.  ``log_likelihood`` is
    sum(n log mu - mu) at the fitted mu, and ``gradient_norm`` is the
    final max |gradient|.
    """
    pairs = [f"{r.basis_a},{r.basis_b}" for r in records]
    canonical = [",".join(p) for p in CANONICAL_PAIRS]
    wrong = "; ".join(f"{what} {' '.join(dict.fromkeys(got))}" for what, got in (
        ("missing", [p for p in canonical if p not in pairs]),
        ("repeated", [p for i, p in enumerate(pairs) if p in pairs[:i]]),
        ("not canonical", [p for p in pairs if p not in canonical])) if got)
    if wrong:
        raise ValueError(f"need exactly the 16 canonical projection records: {wrong}")
    counts = np.array([records[pairs.index(p)].counts for p in canonical], dtype=float)
    total = float(counts.sum())
    if total <= 0.0:
        raise ValueError("all-zero counts cannot be reconstructed")
    x, grad, iterations = _bfgs(_start(counts), counts)
    mu = total * np.einsum("s,ist,t->i", x, _QUAD, x)
    log_likelihood = float(np.sum(counts * np.log(np.where(counts > 0.0, mu, 1.0)) - mu))
    grad_norm = float(np.max(np.abs(grad)))
    return ReconstructionResult(
        rho=TwoQubitDensity.from_factor(_t_matrix(x)),
        log_likelihood=log_likelihood,
        iterations=iterations,
        converged=grad_norm <= GRADIENT_TOL * total,
        gradient_norm=grad_norm,
    )


def records_to_csv(records: list[TomographyRecord], path: str) -> None:
    counts, fmt = count_column([r.counts for r in records])
    columns = [[r.basis_a for r in records], [r.basis_b for r in records], counts]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER + "\n" + block(f"%s,%s,{fmt}\n" * len(records), columns))


def records_from_csv(path: str) -> list[TomographyRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            rows = [(n, line.strip()) for n, line in enumerate(fh, 1) if line.strip()]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not rows or rows[0][1] != _CSV_HEADER:
        raise ValueError(f"{path}, line {rows[0][0] if rows else 1}: tomography CSV "
                         f"must start with {_CSV_HEADER}")
    records = []
    for n, line in rows[1:]:
        try:
            a, b, count = line.split(",")
            records.append(TomographyRecord(a, b, float(count)))
        except ValueError as exc:
            raise ValueError(f"{path}, line {n}: bad {_CSV_HEADER} "
                             f"row {line!r}: {exc}") from None
    return records
