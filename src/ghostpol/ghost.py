"""Coincidence response engine for heralded polarimetry.

The signal photon interacts with the probed object (and any probe-side
projector); the idler photon is analyzed remotely.  Every response
quantity is a contraction of the joint two-photon state with the 2x2
effects of the two arms: the signal arm's Kraus set {K_k} enters only
through its effect E = sum_k K_k^dagger K_k and an idler projector J
through F = J^dagger J, so a coincidence probability is
p = tr[rho (E (x) F)], the herald is tr[rho (E (x) I)] and the
unnormalized idler state is Tr_s[(E (x) I) rho].  The engine takes
the effects themselves, one or an (n, 2, 2) stack per arm, and one
contraction gives every probability.  It checks neither: each arm is
bounded once where it enters, by :func:`polcalc.check_passive`, which
forms the effect of a Jones stack and refuses one that is not finite
or whose eigenvalues exceed 1 (passive optics do not amplify light).
A caller with a Kraus set passes sum_k K_k^dagger K_k, unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import polcalc
from .polcalc import PolElement
from .qstate import TwoQubitDensity
from .textio import block

HERALD_EPS = 1e-15
# The engine's round-off bound: a probability may leave [0, 1] by this
# much, and a response no larger than it is not signal.
ROUNDOFF = 1e-12


class UnheraldableError(ZeroDivisionError):
    """Conditioning on a herald that never fires, first at effect row ``row``."""

    def __init__(self, row: int) -> None:
        super().__init__("herald probability is zero")
        self.row = row


def heralded_idler(
    rho: TwoQubitDensity, e: np.ndarray
) -> tuple[np.ndarray, float | np.ndarray]:
    """Unnormalized idler state after the signal passes the probe arm.

    ``e`` is the signal arm's effect E, (2, 2) or an (n, 2, 2) stack.
    Returns the 2x2 conditional (unnormalized) idler matrix
    Tr_s[(E (x) I) rho] and the herald probability, which equals its
    trace.  For a stacked effect both come stacked: (n, 2, 2) and (n,).
    """
    out = np.einsum("...ac,cbad->...bd", e, rho.matrix.reshape(2, 2, 2, 2))
    out = 0.5 * (out + out.conj().swapaxes(-1, -2))
    herald = np.real(np.trace(out, axis1=-2, axis2=-1))
    return out, float(herald) if herald.ndim == 0 else herald


def coincidence_probability(
    rho: TwoQubitDensity,
    e: np.ndarray,
    f: np.ndarray,
    conditional: bool = False,
) -> float | np.ndarray:
    """Coincidence probability p = tr[rho (E (x) F)].

    ``e`` is the signal arm's effect E = sum_k K_k^dagger K_k, (2, 2)
    or an (n, 2, 2) stack, and ``f`` an idler projector's effect
    F = J^dagger J, (2, 2) or (m, 2, 2); p equals the Kraus form
    sum_k tr[(K_k (x) J) rho (K_k (x) J)^dagger].  Both are taken as
    given: the caller forms and bounds them where each arm enters
    (:func:`polcalc.check_passive`).
    Two 2x2 effects give a float; stacks give an array of shape
    (n, m), (n,) or (m,), from one contraction.  With
    ``conditional=True`` each probability is divided by its herald
    probability; conditioning on a herald of probability ~0 raises
    :class:`UnheraldableError`.
    """
    # The contraction takes (n, 2, 2) stacks: only an arm of another shape
    # is reshaped, and then the result.
    p = np.einsum("abcd,ica,jdb->ij", rho.matrix.reshape(2, 2, 2, 2),
                  e if e.ndim == 3 else e.reshape(-1, 2, 2),
                  f if f.ndim == 3 else f.reshape(-1, 2, 2))
    # The clamp costs less on a contiguous copy than on the strided view.
    p = p.real.copy()
    np.maximum(p, 0.0, out=p)
    if conditional:
        _, herald = heralded_idler(rho, e)
        herald = np.reshape(herald, (-1, 1))
        if np.any(herald <= HERALD_EPS):
            raise UnheraldableError(int(np.argmax(herald <= HERALD_EPS)))
        p = p / herald
    if e.ndim == 3 == f.ndim:
        return p
    p = p.reshape(e.shape[:-2] + f.shape[:-2])
    return float(p) if p.ndim == 0 else p


@dataclass(eq=False)
class ResponseCurve:
    """Responses of one sample family over an orientation grid.

    ``raw[t, j]`` is the response of sample orientation ``thetas[t]``
    under projector ``j``.
    """

    family: str
    thetas: np.ndarray
    raw: np.ndarray

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.raw = np.asarray(self.raw, dtype=float)
        if self.raw.shape[0] != self.thetas.shape[0]:
            raise ValueError("theta grid and response rows disagree")
        if np.any(np.diff(self.thetas) <= 0.0):
            raise ValueError("theta grid must be strictly increasing")
        if np.any(self.thetas < 0.0) or np.any(self.thetas >= 180.0):
            raise ValueError("theta grid must lie in [0, 180)")


# The element of each sample family; the custom family (None) rotates
# a template element given with it instead.
SAMPLE_FAMILIES = {
    "LP": PolElement("ideal_polarizer", 0.0),
    "QWP": polcalc.QWP,
    "custom": None,
}


def sample_element(family: str, theta_deg: float,
                   template: PolElement | None = None) -> PolElement:
    """Concrete sample element of a family at one orientation."""
    if not (isinstance(family, str) and family in SAMPLE_FAMILIES):
        raise ValueError(f"unknown sample family {family!r}")
    base = SAMPLE_FAMILIES[family]
    if (base is None) == (template is None):
        raise ValueError("custom family needs a template element" if base is None
                         else f"{family} family takes no template element")
    return replace(template if base is None else base, theta_deg=theta_deg)


def sweep_family(
    rho: TwoQubitDensity,
    family: str,
    projectors: list[np.ndarray],
    probe_elements: list[PolElement] | None = None,
    *,
    thetas: np.ndarray,
    template: PolElement | None = None,
    conditional: bool = False,
) -> ResponseCurve:
    """Response curve of one sample family.

    For every grid orientation the signal-arm transformation is the
    sample followed by the probe-side projector chain; each idler
    projector contributes one response coordinate.  The chain stack and
    the projector stack each get one :func:`polcalc.check_passive`.
    """
    thetas = np.asarray(thetas, dtype=float)
    chain = polcalc.element_jones(sample_element(family, 0.0, template), thetas)
    if probe_elements:
        chain = polcalc.compose([chain, *probe_elements])
    raw = coincidence_probability(
        rho, polcalc.check_passive(chain),
        polcalc.check_passive(np.stack(projectors)), conditional=conditional,
    )
    return ResponseCurve(family=family, thetas=thetas, raw=raw)


def dataset_scale(responses) -> float:
    """Largest response of a dataset: the one scale that all of its
    response points are divided by, so that families stay comparable.
    A largest response at or below ``ROUNDOFF`` is round-off, not signal."""
    scale = max(float(np.max(r)) for r in responses)
    if scale <= ROUNDOFF:
        raise ValueError("cannot normalize an all-zero dataset")
    return scale


def curve_to_csv(curve: ResponseCurve, scale: float, path: str) -> None:
    """Write one curve as CSV: theta, the coordinates divided by the
    dataset ``scale``, then the raw ones."""
    n = curve.raw.shape[1]
    header = ",".join(["theta_deg", *[f"P{j + 1}" for j in range(n)],
                       *[f"raw{j + 1}" for j in range(n)]])
    table = np.column_stack([curve.thetas, curve.raw / scale, curve.raw])
    row = "%.6g" + ",%.9g" * 2 * n + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        # One % per 2,048 rows bounds the formatted text and its values.
        for start in range(0, len(table), 2048):
            rows = table[start:start + 2048]
            fh.write(block(row * len(rows), [c.tolist() for c in rows.T]))
