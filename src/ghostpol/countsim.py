"""Monte Carlo coincidence counting with drift and accidentals.

Randomness is drawn from PCG64 streams spawned from one master seed
and keyed by index, never by evaluation order.  A repeated-run
simulation uses one stream per (family, run): its drift, then its
whole (theta, projector) block of counts.  A run therefore does not
depend on how many runs are simulated or on which families are
simulated with it, but it does depend on the whole theta grid and
projector set of its family.  Each run, and each tomography cell, is
one ``simulate_counts`` draw from its own stream.  No singles counts are
drawn: ``singles_background`` enters only through the accidental mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; load it with this module.
import numpy.random  # noqa: F401

from .ghost import ROUNDOFF, ResponseCurve
from .textio import block, count_column

# The first spawn-key entry of each ``stream``, one per purpose: single
# counts (tomography cells), repeated runs, the optimizer's start points.
TAG_CELL, TAG_RUN, TAG_START = 1, 3, 7

# Largest Poisson mean a config may ask for, per term of a cell mean.
# numpy's sampler refuses means above about 9.2e18, and counts stay
# exact integers in float64 arrays below 2**53 ~ 9.0e15.
MAX_MEAN = 1e15


@dataclass(frozen=True)
class CountModel:
    """Detection model parameters.

    Rates are per second, the coincidence window is in seconds,
    ``singles_background`` is the uncorrelated singles rate per arm and
    ``drift_amplitude`` is the half-width of the uniform per-run
    multiplicative drift.
    """

    pair_rate: float
    integration_time: float
    eff_signal: float = 1.0
    eff_idler: float = 1.0
    coincidence_window: float = 0.0
    singles_background: float = 0.0
    drift_amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.pair_rate < 0.0 or self.integration_time <= 0.0:
            raise ValueError("pair rate must be >= 0 and integration time > 0")
        for name in ("eff_signal", "eff_idler"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.coincidence_window < 0.0 or self.singles_background < 0.0:
            raise ValueError("window and singles rate must be >= 0")
        if not 0.0 <= self.drift_amplitude < 1.0:
            raise ValueError("drift amplitude must lie in [0, 1)")
        if self.signal_mean(1.0) + self.accidental_mean() == 0.0:
            raise ValueError("every count would be 0: the pair rate gives no "
                             "signal and there are no accidentals")

    def accidental_mean(self) -> float:
        """Mean accidental coincidences per integration window: 0 without
        a window, where the squared singles rate may overflow to inf."""
        if self.coincidence_window == 0.0:
            return 0.0
        return (
            self.singles_background
            * self.singles_background
            * self.coincidence_window
            * self.integration_time
        )

    def signal_mean(self, p_joint: float | np.ndarray,
                    drift_factor: float = 1.0) -> float | np.ndarray:
        """Mean signal coincidences for one joint probability or an array."""
        return (
            self.pair_rate
            * self.integration_time
            * self.eff_signal
            * self.eff_idler
            * p_joint
            * drift_factor
        )


@dataclass(eq=False)
class RunSet:
    """Repeated coincidence measurements over a (theta, projector) grid."""

    thetas: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.ndim != 3:
            raise ValueError("counts must be (runs, thetas, projectors)")
        if self.counts.shape[0] < 1 or self.counts.shape[1] < 1:
            raise ValueError("RunSet needs at least one run and one theta")
        empty = self.counts.sum(axis=(1, 2)) <= 0.0
        if np.any(empty):
            raise ValueError(f"run {np.argmax(empty)} has all-zero counts")


def stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def simulate_counts(
    p_joint: float | np.ndarray,
    model: CountModel,
    rng: np.random.Generator,
    drift_factor: float = 1.0,
) -> int | np.ndarray:
    """Poisson coincidence counts drawn from ``rng`` for one joint
    probability or an array of them, in C order."""
    if not np.all((p_joint >= -ROUNDOFF) & (p_joint <= 1.0 + ROUNDOFF)):
        raise ValueError("joint probability must lie in [0, 1]")
    p = np.clip(p_joint, 0.0, 1.0)
    return rng.poisson(model.signal_mean(p, drift_factor) + model.accidental_mean())


def simulate_runs(
    curve: ResponseCurve,
    model: CountModel,
    n_runs: int,
    seed: int,
    family_tag: int = 0,
) -> RunSet:
    """Simulate repeated runs over a whole response curve.

    Run ``r`` draws from the stream ``(TAG_RUN, family_tag, r)`` in a
    fixed order: one uniform in [-1, 1) for its multiplicative drift
    factor 1 + a * u (drawn even when a = 0), then the whole
    (theta, projector) block of Poisson counts in C order.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    counts = np.empty((n_runs, *curve.raw.shape), dtype=float)
    for r in range(n_runs):
        rng = stream(seed, (TAG_RUN, family_tag, r))
        drift = 1.0 + model.drift_amplitude * rng.uniform(-1.0, 1.0)
        counts[r] = simulate_counts(curve.raw, model, rng, drift)
    return RunSet(curve.thetas, counts)


def correct_counts(runs: RunSet, model: CountModel) -> np.ndarray:
    """Accidental-, efficiency- and drift-corrected counts.

    Per cell: subtract the accidental mean, divide by the detection
    efficiencies, clip negatives to zero; then rescale every run to
    the mean run total, removing common-mode drift.
    """
    corrected = runs.counts - model.accidental_mean()
    corrected /= model.eff_signal * model.eff_idler
    corrected = np.clip(corrected, 0.0, None)
    totals = corrected.sum(axis=(1, 2))
    if np.any(totals <= 0.0):
        raise ValueError(f"run {np.argmin(totals)} is all zero after corrections")
    target = totals.mean()
    corrected *= (target / totals)[:, None, None]
    return corrected


def runset_to_csv(runs: RunSet, corrected: np.ndarray, path: str) -> None:
    """Write raw and corrected counts, one row per cell and run."""
    cells = [f"{t:.6g},{p}," for t in runs.thetas.tolist()
             for p in range(runs.counts.shape[2])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run,theta_deg,projector_index,raw,corrected\n")
        # One % per run keeps the formatted text to one grid's rows.
        for r in range(runs.counts.shape[0]):
            raw, fmt = count_column(runs.counts[r].ravel())
            tail = fmt + ",%.9g"
            # Each row is "r,theta,projector," baked in, then the two counts.
            rows = f"{r}," + f"{tail}\n{r},".join(cells) + tail + "\n"
            fh.write(block(rows, [raw, corrected[r].ravel().tolist()]))
