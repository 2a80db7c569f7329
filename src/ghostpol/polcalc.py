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

# Tolerance of the passivity check.
EFFECT_TOL = 1e-9

# I, sigma_x, sigma_y and sigma_z in the (H, V) basis.
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

# Operators sigma_i with S_i = tr(sigma_i C) for a coherency matrix C in
# the Stokes frame of the module docstring, S0..S3: I, -sigma_z, -sigma_x
# and sigma_y, as one (4, 2, 2) stack; 0 - x keeps the zeros of x +0.
STOKES_OPS = np.array([PAULIS[0], 0 - PAULIS[3], 0 - PAULIS[1], PAULIS[2]])

# The start of every chain product in compose(), read-only.
IDENTITY = np.eye(2, dtype=complex)
IDENTITY.flags.writeable = False

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


def element_jones(element: PolElement,
                  theta_deg: np.ndarray | None = None) -> np.ndarray:
    """Jones matrix of ``element`` at its orientation, or one per angle.

    At theta = 0 the element axis is vertical: an ideal polarizer is
    diag(0, 1), a partial polarizer with extinction k is
    diag(1/sqrt(k), 1) and a retarder with retardance d is
    diag(exp(i d), 1), i.e. the fast (vertical) axis carries zero
    extra phase (:func:`axis_factor`).  See :func:`oriented_jones` for
    the oriented form.

    With ``theta_deg`` (an array of angles in degrees, reduced modulo
    180 like an element's own orientation) the element is taken at
    each of those angles instead, and the result is a stack of shape
    ``theta_deg.shape + (2, 2)``.
    """
    theta = element.theta_deg if theta_deg is None else \
        np.asarray(theta_deg, dtype=float) % 180.0
    return oriented_jones(axis_factor(element), theta)


def axis_factor(element: PolElement):
    """The factor ``a`` of ``element`` at theta = 0, diag(a, 1)."""
    if element.kind == "ideal_polarizer":
        return 0.0
    if element.kind == "partial_polarizer":
        return 1.0 / np.sqrt(element.extinction)
    return np.exp(1.0j * element.retardance_rad)


def oriented_jones(a, theta_deg) -> np.ndarray:
    """R(theta) diag(a, 1) R(theta)^T, with (c, s) = (cos, sin) theta:
    [[c^2 a + s^2, c s (a - 1)], [c s (a - 1), s^2 a + c^2]].

    The axis factor ``a`` (real or complex) is one number or one per
    angle of ``theta_deg`` (in degrees, taken as given), so one call
    builds elements of mixed kinds; the result has shape
    ``theta_deg.shape + (2, 2)``.
    """
    t = np.deg2rad(theta_deg)
    # One (2, ...) buffer; the [0, ...] views stay arrays for a scalar t.
    trig = np.empty((2,) + np.shape(t))
    np.cos(t, out=trig[0, ...])
    np.sin(t, out=trig[1, ...])
    sq = trig * trig  # c^2 and s^2: both diagonal entries in one pass
    out = np.empty(np.shape(t) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = sq * a + sq[::-1]
    out[..., 0, 1] = out[..., 1, 0] = trig[0] * trig[1] * (a - 1.0)
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
    total = IDENTITY
    for el in elements:
        if isinstance(el, PolElement):
            el = element_jones(el)
        total = np.asarray(el, dtype=complex) @ total
    return total


def effect(jones: np.ndarray) -> np.ndarray:
    """Effect J^dagger J of ``jones`` (one matrix or a stack), unchecked:
    for Jones matrices that are passive by construction."""
    return jones.conj().swapaxes(-1, -2) @ jones


def check_passive(jones: np.ndarray) -> np.ndarray:
    """Effect J^dagger J of ``jones`` (one matrix or a stack), checked.

    Raises ``ValueError`` if a matrix is not finite or if the effect
    amplifies light: its largest eigenvalue (the squared largest
    singular value of J), over a stack too, exceeds 1 + ``EFFECT_TOL``.
    """
    jones = np.asarray(jones, dtype=complex)
    # Checked before any product: inf * 0 would warn inside matmul.
    if not np.isfinite(jones).all():
        raise ValueError("Jones matrix must be finite")
    e = effect(jones)
    eigmax = np.max(np.linalg.eigvalsh(e)[..., -1], initial=0.0)
    if eigmax > 1.0 + EFFECT_TOL:
        raise ValueError(f"non-passive Jones matrix, largest effect eigenvalue {eigmax}")
    return e


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
