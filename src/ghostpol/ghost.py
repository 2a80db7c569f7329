"""Coincidence response engine for heralded polarimetry.

The signal photon interacts with the probed object (and any probe-side
projector); the idler photon is analyzed remotely.  All response
quantities derive from Kraus conjugation of the joint two-photon state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polcalc
from .polcalc import PolElement
from .qstate import TwoQubitDensity

KRAUS_SUM_TOL = 1e-9
HERALD_EPS = 1e-15


class UnheraldableError(ZeroDivisionError):
    """Conditioning on a herald that never fires."""


@dataclass(frozen=True)
class ProbeTransform:
    """Signal-side transformation as a set of Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if len(ops) == 0:
            raise ValueError("ProbeTransform needs at least one Kraus operator")
        for k in ops:
            if k.shape != (2, 2):
                raise ValueError("Kraus operators must be 2x2")
        total = sum(k.conj().T @ k for k in ops)
        eigmax = np.linalg.eigvalsh(total)[-1]
        if eigmax > 1.0 + KRAUS_SUM_TOL:
            raise ValueError("Kraus operators exceed trace-nonincreasing bound")
        object.__setattr__(self, "kraus", ops)

    @classmethod
    def from_jones(cls, jones: np.ndarray) -> "ProbeTransform":
        polcalc.check_passive(jones)
        return cls((np.asarray(jones, dtype=complex),))

    @classmethod
    def from_elements(cls, elements: list[PolElement]) -> "ProbeTransform":
        return cls.from_jones(polcalc.compose(elements))

    @classmethod
    def from_mueller(cls, mueller: np.ndarray) -> "ProbeTransform":
        return cls(tuple(polcalc.kraus_from_mueller(mueller)))


def heralded_idler(
    rho: TwoQubitDensity, probe: ProbeTransform
) -> tuple[np.ndarray, float]:
    """Unnormalized idler state after the signal passes the probe arm.

    Returns the 2x2 conditional (unnormalized) idler matrix and the
    herald probability, which equals its trace.
    """
    out = np.zeros((2, 2), dtype=complex)
    for k in probe.kraus:
        big = np.kron(k, np.eye(2, dtype=complex))
        joint = big @ rho.matrix @ big.conj().T
        out += np.trace(joint.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    out = 0.5 * (out + out.conj().T)
    return out, float(np.real(np.trace(out)))


def coincidence_probability(
    rho: TwoQubitDensity,
    probe: ProbeTransform,
    idler_jones: np.ndarray,
    conditional: bool = False,
) -> float:
    """Coincidence probability for one idler projector.

    The joint (unconditioned) probability is
    sum_k tr[(K_k (x) J) rho (K_k (x) J)^dagger].  With
    ``conditional=True`` it is divided by the herald probability;
    conditioning on a herald of probability ~0 raises
    :class:`UnheraldableError`.
    """
    j = np.asarray(idler_jones, dtype=complex)
    polcalc.check_passive(j)
    p = 0.0
    for k in probe.kraus:
        big = np.kron(k, j)
        p += float(np.real(np.trace(big @ rho.matrix @ big.conj().T)))
    p = max(p, 0.0)
    if not conditional:
        return p
    _, herald = heralded_idler(rho, probe)
    if herald <= HERALD_EPS:
        raise UnheraldableError("herald probability is zero")
    return p / herald


@dataclass
class ResponseCurve:
    """Responses of one sample family over an orientation grid.

    ``raw[t, j]`` is the response of sample orientation ``thetas[t]``
    under projector ``j``; ``normalized`` is filled by
    :func:`normalize_dataset` and shares one scale across a dataset.
    """

    family: str
    thetas: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.raw = np.asarray(self.raw, dtype=float)
        if self.raw.shape[0] != self.thetas.shape[0]:
            raise ValueError("theta grid and response rows disagree")
        if np.any(np.diff(self.thetas) <= 0.0):
            raise ValueError("theta grid must be strictly increasing")
        if np.any(self.thetas < 0.0) or np.any(self.thetas >= 180.0):
            raise ValueError("theta grid must lie in [0, 180)")

    @property
    def n_projectors(self) -> int:
        return self.raw.shape[1]


def default_theta_grid(step_deg: float = 1.0) -> np.ndarray:
    return np.arange(0.0, 180.0, step_deg)


def sample_element(family: str, theta_deg: float,
                   template: PolElement | None = None) -> PolElement:
    """Concrete sample element of a family at one orientation."""
    if family == "LP":
        return PolElement("ideal_polarizer", theta_deg)
    if family == "QWP":
        return PolElement("retarder", theta_deg, retardance_rad=np.pi / 2.0)
    if family == "custom":
        if template is None:
            raise ValueError("custom family needs a template element")
        return PolElement(
            template.kind,
            theta_deg,
            extinction=template.extinction,
            retardance_rad=template.retardance_rad,
        )
    raise ValueError(f"unknown sample family {family!r}")


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
    probe_jones = (
        np.eye(2, dtype=complex)
        if not probe_elements
        else polcalc.compose(probe_elements)
    )
    idler = [np.asarray(j, dtype=complex) for j in projectors]
    raw = np.empty((thetas.size, len(idler)))
    for t, theta in enumerate(thetas):
        sample = polcalc.element_jones(sample_element(family, theta, template))
        probe = ProbeTransform.from_jones(probe_jones @ sample)
        for j, proj in enumerate(idler):
            raw[t, j] = coincidence_probability(rho, probe, proj,
                                                conditional=conditional)
    return ResponseCurve(family=family, thetas=thetas, raw=raw)


def normalize_dataset(curves: list[ResponseCurve]) -> list[ResponseCurve]:
    """Scale a whole dataset by its single global maximum response."""
    scale = max(float(np.max(c.raw)) for c in curves)
    if scale <= 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    return [
        ResponseCurve(
            family=c.family,
            thetas=c.thetas.copy(),
            raw=c.raw.copy(),
            normalized=c.raw / scale,
        )
        for c in curves
    ]


def curve_to_csv(curve: ResponseCurve, path: str) -> None:
    """Write one curve as CSV: theta, normalized coordinates, raw ones."""
    n = curve.n_projectors
    if curve.normalized is None:
        raise ValueError("normalize the dataset before exporting")
    header = (
        ["theta_deg"]
        + [f"P{j + 1}" for j in range(n)]
        + [f"raw{j + 1}" for j in range(n)]
    )
    lines = [",".join(header)]
    for t in range(curve.thetas.size):
        cells = [f"{curve.thetas[t]:.6g}"]
        cells += [f"{v:.9g}" for v in curve.normalized[t]]
        cells += [f"{v:.9g}" for v in curve.raw[t]]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
