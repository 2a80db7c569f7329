"""Monte Carlo coincidence counting with drift and accidentals.

Randomness is drawn from PCG64 streams spawned from one master seed
and keyed by index, never by evaluation order.  A repeated-run
simulation uses one stream per (family, run): its drift, then its
whole (theta, projector) block of counts.  A run therefore does not
depend on how many runs are simulated or on which families are
simulated with it, but it does depend on the whole theta grid and
projector set of its family.  Single counts (``simulate_counts``, used
by tomography) draw one stream per cell.  No singles counts are
drawn: ``singles_background`` enters only through the accidental mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; load it with this module.
import numpy.random  # noqa: F401

from .ghost import ResponseCurve

# Tags keeping per-purpose seed streams disjoint: the first spawn-key
# entry of a single-count stream and of a repeated-run stream.
_TAG_CELL = 1
_TAG_RUN = 3

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
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.coincidence_window < 0.0 or self.singles_background < 0.0:
            raise ValueError("window and singles rate must be >= 0")
        if not 0.0 <= self.drift_amplitude < 1.0:
            raise ValueError("drift amplitude must lie in [0, 1)")

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


@dataclass
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
        totals = self.counts.sum(axis=(1, 2))
        if np.any(totals <= 0.0):
            raise ValueError("RunSet contains an all-zero run")


def _generator(master_seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(seq))


def simulate_counts(
    p_joint: float,
    model: CountModel,
    seed: int,
    spawn_key: tuple[int, ...] = (),
) -> int:
    """One Poisson coincidence count for one joint probability."""
    if not -1e-12 <= p_joint <= 1.0 + 1e-12:
        raise ValueError("joint probability must lie in [0, 1]")
    mean = model.signal_mean(min(max(p_joint, 0.0), 1.0))
    mean += model.accidental_mean()
    rng = _generator(seed, (_TAG_CELL, *spawn_key))
    return int(rng.poisson(mean))


def simulate_runs(
    curve: ResponseCurve,
    model: CountModel,
    n_runs: int,
    seed: int,
    family_tag: int = 0,
) -> RunSet:
    """Simulate repeated runs over a whole response curve.

    Run ``r`` draws from the stream ``(_TAG_RUN, family_tag, r)`` in a
    fixed order: one uniform in [-1, 1) for its multiplicative drift
    factor 1 + a * u (drawn even when a = 0), then the whole
    (theta, projector) block of Poisson counts in C order.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    p = curve.raw
    if not np.all((p >= -1e-12) & (p <= 1.0 + 1e-12)):
        raise ValueError("joint probability must lie in [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    accidental = model.accidental_mean()
    counts = np.empty((n_runs, *p.shape), dtype=float)
    for r in range(n_runs):
        rng = _generator(seed, (_TAG_RUN, family_tag, r))
        drift = 1.0 + model.drift_amplitude * rng.uniform(-1.0, 1.0)
        counts[r] = rng.poisson(model.signal_mean(p, drift) + accidental)
    return RunSet(curve.thetas, counts)


def correct_counts(runs: RunSet, model: CountModel) -> np.ndarray:
    """Accidental-, efficiency- and drift-corrected counts.

    Per cell: subtract the accidental mean, divide by the detection
    efficiencies, clip negatives to zero; then rescale every run to
    the mean run total, removing common-mode drift.
    """
    if model.eff_signal <= 0.0 or model.eff_idler <= 0.0:
        raise ValueError("cannot correct with zero detection efficiency")
    corrected = runs.counts - model.accidental_mean()
    corrected /= model.eff_signal * model.eff_idler
    corrected = np.clip(corrected, 0.0, None)
    totals = corrected.sum(axis=(1, 2))
    if np.any(totals <= 0.0):
        raise ValueError("a run has no counts left after corrections")
    target = totals.mean()
    corrected *= (target / totals)[:, None, None]
    return corrected


def runset_to_csv(runs: RunSet, corrected: np.ndarray, path: str) -> None:
    """Write raw and corrected counts, one row per cell and run."""
    n_runs, n_theta, n_proj = runs.counts.shape
    thetas = [f"{t:.6g}" for t in runs.thetas.tolist() for _ in range(n_proj)]
    projectors = list(range(n_proj)) * n_theta
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run,theta_deg,projector_index,raw,corrected\n")
        # One run at a time keeps the formatted text to one grid's rows.
        for r in range(n_runs):
            fh.write("".join([
                "%d,%s,%d,%.9g,%.9g\n" % row
                for row in zip([r] * len(projectors), thetas, projectors,
                               runs.counts[r].ravel().tolist(),
                               corrected[r].ravel().tolist())
            ]))
