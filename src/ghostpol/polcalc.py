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

import math
from dataclasses import dataclass

import numpy as np

EFFECT_TOL = 1e-9  # tolerance of the passivity check
PERIOD_DEG = 180.0  # period of an element orientation

# I, sigma_x, sigma_y and sigma_z in the (H, V) basis.
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

# Operators sigma_i with S_i = tr(sigma_i C) for a coherency matrix C in
# the Stokes frame of the module docstring, S0..S3: I, -sigma_z, -sigma_x
# and sigma_y, as one (4, 2, 2) stack; 0 - x keeps the zeros of x +0.
STOKES_OPS = np.array([PAULIS[0], 0 - PAULIS[3], 0 - PAULIS[1], PAULIS[2]])

# The parameters each element kind takes.  An element gives every
# parameter of its kind and leaves every other one None.
ELEMENT_KINDS = {"ideal_polarizer": (), "partial_polarizer": ("extinction",),
                 "retarder": ("retardance_rad",)}


def reduce_angle(theta_deg):
    """An orientation, or an array of them, reduced into [0, PERIOD_DEG)."""
    # A tiny negative angle % 180 rounds to 180.0; the second % maps it to 0.
    return theta_deg % PERIOD_DEG % PERIOD_DEG


def is_angle_grid(thetas: np.ndarray) -> bool:
    """Whether 1-D ``thetas`` is empty or strictly increasing in [0, PERIOD_DEG), so finite."""
    return thetas.size == 0 or bool(np.all(np.diff(thetas) > 0.0)
                                    and thetas[0] >= 0.0 and thetas[-1] < PERIOD_DEG)


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
        if self.kind == "retarder" and not math.isfinite(self.retardance_rad):
            raise ValueError("retarder needs a finite retardance_rad")
        if not math.isfinite(theta := float(self.theta_deg)):
            raise ValueError("theta_deg must be finite")
        object.__setattr__(self, "theta_deg", reduce_angle(theta))


# The quarter-wave plate, axis vertical.
QWP = PolElement("retarder", 0.0, retardance_rad=np.pi / 2.0)


def element_jones(element: PolElement,
                  theta_deg: np.ndarray | None = None) -> np.ndarray:
    """Jones matrix of ``element`` at its orientation, or one per angle.

    At theta = 0 the element axis is vertical: an ideal polarizer is
    diag(0, 1), a partial polarizer with extinction k is
    diag(1/sqrt(k), 1) and a retarder with retardance d is
    diag(exp(i d), 1), i.e. the fast (vertical) axis carries zero
    extra phase (:func:`axis_factor`); :func:`jones_filler` orients it.
    With ``theta_deg``, an array of angles in degrees reduced as an
    element's own, the result is a ``theta_deg.shape + (2, 2)`` stack.
    """
    theta = element.theta_deg if theta_deg is None else \
        reduce_angle(np.asarray(theta_deg, dtype=float))
    return jones_filler(axis_factor(element), np.shape(theta))(theta)


def axis_factor(element: PolElement):
    """The factor ``a`` of ``element`` at theta = 0, diag(a, 1)."""
    if element.kind == "ideal_polarizer":
        return 0.0
    if element.kind == "partial_polarizer":
        return 1.0 / np.sqrt(element.extinction)
    return np.exp(1.0j * element.retardance_rad)


def jones_filler(a, shape: tuple):
    """Oriented elements R(theta) diag(a, 1) R(theta)^T, with (c, s) = (cos,
    sin) theta: [[c^2 a + s^2, c s (a - 1)], [c s (a - 1), s^2 a + c^2]].

    The axis factor ``a`` (real or complex) is one number or one per angle
    of ``shape``, so one fill builds elements of mixed kinds.
    ``fill(theta_deg)`` (degrees, taken as given) writes their stack into
    one ``shape + (2, 2)`` buffer and returns it, the same array on every
    call; ``fill(theta_deg, a)`` first rewrites the factors, which keep
    their dtype.  The entry factors [[a, a - 1], [a - 1, a]], the buffers
    and the views of the stack's entries are made here, once.
    """
    factors = np.empty((4,) + shape, np.result_type(a, 1.0))  # [[a, a - 1], [a - 1, a]]
    rad = np.empty(shape)
    trig = np.empty((2,) + shape)  # c and s; [0, ...] stays an array for a scalar
    products = np.empty((2, 2) + shape)  # [[c c, c s], [s c, s s]]
    out = np.empty(shape + (2, 2), dtype=complex)
    # Views with the (2, 2) entry index leading: the stack's entries and
    # diagonal, and s^2 and c^2.
    lead = (-2, -1) + tuple(range(len(shape)))
    entries = out.transpose(lead)
    diag = out.reshape(shape + (4,)).transpose(lead[1:])[::3]
    antidiag = products.reshape((4,) + shape)[::-3]
    column = trig[:, None]
    weights = factors.reshape((2, 2) + shape)

    def refactor(a) -> None:
        factors[::3] = a
        np.subtract(a, 1.0, out=factors[1:3])

    refactor(a)

    def fill(theta_deg, a=None) -> np.ndarray:
        if a is not None:
            refactor(a)
        np.deg2rad(theta_deg, out=rad)
        np.cos(rad, out=trig[0, ...])
        np.sin(rad, out=trig[1, ...])
        np.multiply(column, trig, out=products)
        np.multiply(products, weights, out=entries)
        # c^2 a + s^2 and s^2 a + c^2: both diagonal entries in one pass.
        np.add(diag, antidiag, out=diag)
        return out

    return fill


def compose(elements: list | tuple) -> np.ndarray:
    """Jones matrix of a chain of elements, as a new array.

    ``elements`` is given in the traversal order of the photon; the
    returned matrix is the product in reverse order (last element
    leftmost), so it applies to a Jones vector by left multiplication.
    An item is a :class:`PolElement` or a Jones matrix, or an (n, 2, 2)
    stack of n chains.  Each product is an ``np.einsum``: no BLAS.
    """
    if len(elements) == 0:
        raise ValueError("compose() needs at least one element")
    total = None
    for el in elements:
        if isinstance(el, PolElement):
            el = element_jones(el)
        # Only the first item is made complex: each einsum casts to the
        # common type and returns a new array, so the first item is copied
        # only when no product follows.
        total = np.asarray(el, complex) if total is None else \
            np.einsum("...ij,...jk->...ik", el, total)
    return total.copy() if len(elements) == 1 else total


def effect(jones: np.ndarray) -> np.ndarray:
    """Effect J^dagger J of ``jones`` (one matrix or a stack), unchecked:
    for Jones matrices that are passive by construction."""
    return np.einsum("...ji,...jk->...ik", jones.conj(), jones)


def check_passive(jones: np.ndarray) -> np.ndarray:
    """Effect J^dagger J of ``jones`` (one matrix or a stack), checked.

    Raises ``ValueError`` if a matrix is not finite or if an effect
    [[a, b], [b*, d]] amplifies light: its largest eigenvalue, in closed
    form (a + d)/2 + sqrt(((a - d)/2)^2 + |b|^2), exceeds 1 + ``EFFECT_TOL``.
    """
    jones = np.asarray(jones, dtype=complex)
    # Checked first: a NaN effect passes the bound below, and inf - inf warns in it.
    if not np.isfinite(jones).all():
        raise ValueError("Jones matrix must be finite")
    e = effect(jones)
    a, d, b = e[..., 0, 0].real, e[..., 1, 1].real, e[..., 0, 1]
    eig = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + b.real * b.real + b.imag * b.imag)
    if (eigmax := np.max(eig, initial=0.0)) > 1.0 + EFFECT_TOL:
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
