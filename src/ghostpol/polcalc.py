"""Jones and Mueller calculus for linear polarization optics.

Conventions used throughout the package:

* Jones vectors live in the (H, V) basis, in that order.
* Element orientations are angles of the transmission / fast axis,
  measured from the global vertical, in degrees, periodic in 180.
* Stokes components are referenced to the vertical as well:
  S0 = I, S1 = I_V - I_H, S2 = I_+45 - I_-45 (45 deg from vertical),
  S3 = I_R - I_L with |R> = (|H> + i|V>)/sqrt(2).

The Stokes axis orientation is a one-time calibration pinned by the
reference probe matrix fixtures in the test suite; do not change one
sign without re-running those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances for physicality checks.
PASSIVITY_TOL = 1e-9
CHOI_PSD_TOL = 1e-9

# Operators sigma_i with S_i = tr(sigma_i C) for a coherency matrix C,
# in the vertical-referenced Stokes frame described in the module
# docstring, as one (4, 2, 2) stack in the order S0, S1, S2, S3.
STOKES_OPS = np.array([
    np.eye(2),
    [[-1.0, 0.0], [0.0, 1.0]],
    [[0.0, -1.0], [-1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
], dtype=complex)

# The parameters each element kind takes.  An element gives every
# parameter of its kind and leaves every other one None.
ELEMENT_KINDS = {"ideal_polarizer": (), "partial_polarizer": ("extinction",),
                 "retarder": ("retardance_rad",)}


@dataclass(frozen=True)
class PolElement:
    """One polarization element: kind, orientation and kind parameters.

    Parameters
    ----------
    kind : str
        A key of :data:`ELEMENT_KINDS`, which lists the parameters the
        kind takes; every other parameter must be None.
    theta_deg : float
        Axis orientation from the global vertical, reduced modulo 180.
    extinction : float, optional
        Intensity extinction ratio of a partial polarizer, >= 1.
    retardance_rad : float, optional
        Retardance of a retarder in radians.
    """

    kind: str
    theta_deg: float
    extinction: float | None = None
    retardance_rad: float | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, str) and self.kind in ELEMENT_KINDS):
            raise ValueError(f"unknown element kind {self.kind!r}")
        for name in ("extinction", "retardance_rad"):
            given = getattr(self, name) is not None
            if given != (name in ELEMENT_KINDS[self.kind]):
                raise ValueError(f"{self.kind} takes no {name}" if given
                                 else f"{self.kind} needs {name}")
        if self.kind == "partial_polarizer" and not self.extinction >= 1.0:
            raise ValueError("partial_polarizer needs extinction >= 1")
        object.__setattr__(self, "theta_deg", float(self.theta_deg) % 180.0)


# The quarter-wave plate, axis vertical.
QWP = PolElement("retarder", 0.0, retardance_rad=np.pi / 2.0)


def rotation_jones(theta_deg: float) -> np.ndarray:
    """Jones rotation matrix for a frame rotation by ``theta_deg``."""
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]], dtype=complex)


def element_jones(element: PolElement,
                  theta_deg: np.ndarray | None = None) -> np.ndarray:
    """Jones matrix of ``element`` at its orientation, or one per angle.

    At theta = 0 the element axis is vertical: an ideal polarizer is
    diag(0, 1), a partial polarizer with extinction k is
    diag(1/sqrt(k), 1) and a retarder with retardance d is
    diag(exp(i d), 1), i.e. the fast (vertical) axis carries zero
    extra phase.  See :func:`oriented_jones` for the oriented form.

    With ``theta_deg`` (an array of angles in degrees, reduced modulo
    180 like an element's own orientation) the element is taken at
    each of those angles instead, and the result is a stack of shape
    ``theta_deg.shape + (2, 2)``.
    """
    if element.kind == "ideal_polarizer":
        a = 0.0
    elif element.kind == "partial_polarizer":
        a = 1.0 / np.sqrt(element.extinction)
    else:
        a = np.exp(1.0j * element.retardance_rad)
    theta = element.theta_deg if theta_deg is None else \
        np.asarray(theta_deg, dtype=float) % 180.0
    return oriented_jones(a, theta)


def oriented_jones(a, theta_deg) -> np.ndarray:
    """R(theta) diag(a, 1) R(theta)^T, with (c, s) = (cos, sin) theta:
    [[c^2 a + s^2, c s (a - 1)], [c s (a - 1), s^2 a + c^2]].

    The axis factor ``a`` (real or complex) is one number or one per
    angle of ``theta_deg`` (in degrees, taken as given), so one call
    builds elements of mixed kinds; the result has shape
    ``theta_deg.shape + (2, 2)``.
    """
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    cc, ss, cs = c * c, s * s, c * s
    out = np.empty(np.shape(t) + (2, 2), dtype=complex)
    out[..., 0, 0] = cc * a + ss
    out[..., 0, 1] = out[..., 1, 0] = cs * (a - 1.0)
    out[..., 1, 1] = ss * a + cc
    return out


def compose(elements: list | tuple) -> np.ndarray:
    """Jones matrix of a chain of elements.

    ``elements`` is given in the traversal order of the photon; the
    returned matrix is the product in reverse order (last element
    leftmost), so it applies to a Jones vector by left multiplication.
    An item is a :class:`PolElement` or a Jones matrix; a stack of
    shape (n, 2, 2) broadcasts, so the chain becomes n chains.
    """
    if len(elements) == 0:
        raise ValueError("compose() needs at least one element")
    total = np.eye(2, dtype=complex)
    for el in elements:
        if isinstance(el, PolElement):
            el = element_jones(el)
        total = np.asarray(el, dtype=complex) @ total
    return total


def check_passive(jones: np.ndarray) -> None:
    """Raise if ``jones`` (one matrix or a stack) amplifies light or is
    not finite.

    A matrix amplifies when its largest singular value exceeds
    1 + ``PASSIVITY_TOL``;
    a stack is checked in one batched SVD.
    """
    jones = np.asarray(jones, dtype=complex)
    if not np.isfinite(jones).all():
        raise ValueError("Jones matrix must be finite")
    sv = np.linalg.svd(jones, compute_uv=False)
    smax = np.max(sv[..., 0], initial=0.0)
    if smax > 1.0 + PASSIVITY_TOL:
        raise ValueError(f"non-passive Jones matrix, max singular value {smax}")


def jones_to_mueller(jones: np.ndarray) -> np.ndarray:
    """Mueller matrix of the deterministic map C -> J C J^dagger.

    ``jones`` is one 2x2 complex matrix or a ``(..., 2, 2)`` stack; the
    result is real, of shape ``(..., 4, 4)``, in the package Stokes
    convention: M[i, k] = tr(S_i J S_k J^dagger) / 2.
    """
    j = np.asarray(jones, dtype=complex)
    if j.shape[-2:] != (2, 2):
        raise ValueError("jones_to_mueller expects 2x2 matrices")
    j = j[..., None, None, :, :]
    chain = STOKES_OPS[:, None] @ j @ STOKES_OPS @ j.conj().swapaxes(-1, -2)
    return 0.5 * np.real(np.trace(chain, axis1=-2, axis2=-1))


def stokes_from_jones_vector(vec: np.ndarray) -> np.ndarray:
    """Stokes vector of a (possibly unnormalized) Jones vector."""
    v = np.asarray(vec, dtype=complex).reshape(2)
    return np.real(np.trace(STOKES_OPS @ np.outer(v, v.conj()), axis1=1, axis2=2))


def coherency_from_stokes(stokes: np.ndarray) -> np.ndarray:
    """Coherency matrix C with tr(sigma_i C) = S_i."""
    s = np.asarray(stokes, dtype=float).reshape(4)
    return 0.5 * np.tensordot(s, STOKES_OPS, 1)


def validate_mueller(m: np.ndarray) -> None:
    """Check the gross passivity structure of a Mueller matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("Mueller matrix must be 4x4")
    if m[0, 0] < -PASSIVITY_TOL:
        raise ValueError("Mueller matrix has negative total transmission")
    if np.any(np.abs(m) > m[0, 0] + PASSIVITY_TOL):
        raise ValueError("Mueller matrix entry exceeds M[0][0]")


def mueller_to_choi(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Choi matrix of the map encoded by a Mueller matrix.

    Returns
    -------
    choi : (4, 4) complex Hermitian array
        Choi matrix sum_kl E_kl (x) Phi(E_kl); for a Jones matrix J it
        is the rank-1 projector onto (I (x) J)|Omega> with |Omega> the
        unnormalized maximally entangled vector, trace tr(J^dagger J).
    physical : bool
        True when the Choi matrix is positive semidefinite within
        ``CHOI_PSD_TOL``, i.e. the map is completely positive.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("Mueller matrix must be 4x4")
    # sum_ik M[i, k] kron(S_k^T, S_i) / 2, entry [(a, c), (b, d)].
    choi = 0.5 * np.einsum("ik,kba,icd->acbd", m, STOKES_OPS,
                           STOKES_OPS).reshape(4, 4)
    choi = 0.5 * (choi + choi.conj().T)
    eigvals = np.linalg.eigvalsh(choi)
    physical = bool(eigvals[0] >= -CHOI_PSD_TOL)
    return choi, physical


def kraus_from_mueller(m: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of a physical Mueller matrix.

    Raises ``ValueError`` when the map is not completely positive.
    """
    choi, physical = mueller_to_choi(m)
    if not physical:
        raise ValueError("Mueller matrix is not completely positive")
    eigvals, eigvecs = np.linalg.eigh(choi)
    kraus = []
    for lam, vec in zip(eigvals, eigvecs.T):
        if lam <= CHOI_PSD_TOL:
            continue
        # Column index pairs are (input k, output i); unvec accordingly.
        kraus.append(np.sqrt(lam) * vec.reshape(2, 2).T)
    return kraus
