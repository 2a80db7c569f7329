"""Coincidence response engine for heralded polarimetry.

The signal photon interacts with the probed object (and any probe-side
projector); the idler photon is analyzed remotely.  Every response
quantity is a contraction of the joint two-photon state with 2x2
effects: the signal arm's Kraus set {K_k} enters only through its
effect E = sum_k K_k^dagger K_k and an idler projector J through
F = J^dagger J, so a coincidence probability is p = tr[rho (E (x) F)],
the herald is tr[rho (E (x) I)] and the unnormalized idler state is
Tr_s[(E (x) I) rho].  Probe-arm chains and idler projectors may come
as (n, 2, 2) stacks; the Kraus-sum bound (probe arm) and passivity
(projectors) are then checked once per stack, and one contraction
gives every probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import polcalc
from .polcalc import PolElement
from .qstate import TwoQubitDensity

KRAUS_SUM_TOL = 1e-9
HERALD_EPS = 1e-15


class UnheraldableError(ZeroDivisionError):
    """Conditioning on a herald that never fires."""


def _dagger(ops: np.ndarray) -> np.ndarray:
    return ops.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ProbeTransform:
    """Signal-side transformation as a set of Kraus operators.

    Each Kraus operator is a 2x2 matrix, or an (n, 2, 2) stack that
    describes n probe-arm transforms at once (one per sweep
    orientation).  ``effect`` is E = sum_k K_k^dagger K_k, with the
    shape of one operator; it is computed and checked against the
    trace-nonincreasing bound once, on construction.
    """

    kraus: tuple[np.ndarray, ...]
    effect: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if len(ops) == 0:
            raise ValueError("ProbeTransform needs at least one Kraus operator")
        shape = ops[0].shape
        if shape[-2:] != (2, 2) or len(shape) > 3 or \
                any(k.shape != shape for k in ops):
            raise ValueError("Kraus operators must be 2x2 (or equal stacks)")
        # eigvalsh returns finite values for a NaN matrix.
        if not all(np.isfinite(k).all() for k in ops):
            raise ValueError("Kraus operators must be finite")
        effect = sum(_dagger(k) @ k for k in ops)
        eigmax = np.max(np.linalg.eigvalsh(effect)[..., -1], initial=0.0)
        if eigmax > 1.0 + KRAUS_SUM_TOL:
            raise ValueError("Kraus operators exceed trace-nonincreasing bound")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "effect", effect)

    @classmethod
    def from_jones(cls, jones: np.ndarray) -> "ProbeTransform":
        # No separate passivity check: the Kraus-sum bound on J^dagger J
        # is the squared largest singular value, so it rejects as much.
        return cls((np.asarray(jones, dtype=complex),))

    @classmethod
    def from_elements(cls, elements: list[PolElement]) -> "ProbeTransform":
        return cls.from_jones(polcalc.compose(elements))

    @classmethod
    def from_mueller(cls, mueller: np.ndarray) -> "ProbeTransform":
        return cls(tuple(polcalc.kraus_from_mueller(mueller)))


def heralded_idler(
    rho: TwoQubitDensity, probe: ProbeTransform
) -> tuple[np.ndarray, float | np.ndarray]:
    """Unnormalized idler state after the signal passes the probe arm.

    Returns the 2x2 conditional (unnormalized) idler matrix
    Tr_s[(E (x) I) rho] and the herald probability, which equals its
    trace.  For a stacked probe both come stacked: (n, 2, 2) and (n,).
    """
    out = np.einsum("...ac,cbad->...bd", probe.effect,
                    rho.matrix.reshape(2, 2, 2, 2))
    out = 0.5 * (out + _dagger(out))
    herald = np.real(np.trace(out, axis1=-2, axis2=-1))
    return out, float(herald) if herald.ndim == 0 else herald


def coincidence_probability(
    rho: TwoQubitDensity,
    probe: ProbeTransform,
    idler_jones: np.ndarray,
    conditional: bool = False,
) -> float | np.ndarray:
    """Coincidence probability p = tr[rho (E (x) J^dagger J)].

    This equals the Kraus form sum_k tr[(K_k (x) J) rho (K_k (x) J)^dagger].
    One probe and one 2x2 projector give a float.  A stacked probe (n
    transforms) and/or an (m, 2, 2) projector stack give an array of
    shape (n, m), (n,) or (m,), from one batched passivity check of the
    projectors and one contraction.  With ``conditional=True`` each
    probability is divided by its herald probability; conditioning on
    a herald of probability ~0 raises :class:`UnheraldableError`.
    """
    j = np.asarray(idler_jones, dtype=complex)
    polcalc.check_passive(j)
    e = probe.effect
    p = np.einsum("abcd,ica,jdb->ij", rho.matrix.reshape(2, 2, 2, 2),
                  e.reshape(-1, 2, 2), (_dagger(j) @ j).reshape(-1, 2, 2))
    p = np.maximum(p.real, 0.0)
    if conditional:
        _, herald = heralded_idler(rho, probe)
        herald = np.reshape(herald, (-1, 1))
        if np.any(herald <= HERALD_EPS):
            raise UnheraldableError("herald probability is zero")
        p = p / herald
    p = p.reshape(e.shape[:-2] + j.shape[:-2])
    return float(p) if p.ndim == 0 else p


@dataclass
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


def default_theta_grid() -> np.ndarray:
    return np.arange(0.0, 180.0, 1.0)


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
    thetas: np.ndarray | None = None,
    template: PolElement | None = None,
    conditional: bool = False,
) -> ResponseCurve:
    """Response curve of one sample family.

    For every grid orientation the signal-arm transformation is the
    sample followed by the probe-side projector chain; each idler
    projector contributes one response coordinate.
    """
    if thetas is None:
        thetas = default_theta_grid()
    thetas = np.asarray(thetas, dtype=float)
    chain = polcalc.element_jones(sample_element(family, 0.0, template), thetas)
    if probe_elements:
        chain = polcalc.compose(probe_elements) @ chain
    raw = coincidence_probability(
        rho, ProbeTransform.from_jones(chain), np.stack(projectors),
        conditional=conditional,
    )
    return ResponseCurve(family=family, thetas=thetas, raw=raw)


def dataset_scale(responses) -> float:
    """Largest response of a dataset: the one scale that all of its
    response points are divided by, so that families stay comparable."""
    scale = max(float(np.max(r)) for r in responses)
    if scale <= 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    return scale


def curve_to_csv(curve: ResponseCurve, scale: float, path: str) -> None:
    """Write one curve as CSV: theta, the coordinates divided by the
    dataset ``scale``, then the raw ones."""
    n = curve.raw.shape[1]
    normalized = curve.raw / scale
    lines = [",".join(["theta_deg", *[f"P{j + 1}" for j in range(n)],
                       *[f"raw{j + 1}" for j in range(n)]])]
    for t in range(curve.thetas.size):
        cells = [f"{curve.thetas[t]:.6g}"]
        cells += [f"{v:.9g}" for v in normalized[t]]
        cells += [f"{v:.9g}" for v in curve.raw[t]]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
