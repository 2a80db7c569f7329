"""Distinguishability analysis of response-space point clouds.

Each sample orientation yields a cloud of repeated response points;
its uncertainty is summarized by an axis-aligned 95% confidence
ellipsoid, and two samples count as distinguishable only when their
ellipsoids are strictly separated along the line joining the centers
(a conservative, sufficient criterion).

The criterion is one symmetric, broadcasting predicate, ``separable``:
a region holds one ellipsoid, ``(d,)`` center and semi-axes, or a
stack of them, ``(m, d)``.  A family's analysis holds one stack, row t
for orientation t: its statistics, mean, std and ci95, are one
``(3, n_thetas, n_axes)`` array, and its regions are built from the
mean and ci95 and floored once.  The greedy sweep tests a block of
candidate rows against the kept rows and each other in one call, then
admits the block's rows in order, as a row-by-row sweep would; the
cross-family exclusions test a block of one family's kept rows against
the other's in one call.  Each call works on axis-leading ``(d, ...)``
planes, the operands' transposes at one rank, and both pass views of a
stack's centers and semi-axes, copied once into contiguous ``(2, d, m)``
planes: a sum over the d axes is then d - 1 adds of whole planes.  Each
sum keeps the bits of a contiguous ``np.add.reduce(x, -1)``: numpy adds
fewer than 8 terms in order, as the planes are added, and 8 or more
pairwise, so from d = 8 on it reduces a contiguous ``(..., d)`` copy.

Both skip the kept rows outside an axis-0 window.  A region's support
half-width along any unit vector is at most its radius r, the norm of
its semi-axes, and the center distance is at least |dc0|, the distance
along axis 0; so two rows with |dc0| > (r_a + r_b)(1 + 1e-9) are
separable, also under ``separable``'s rounding, which the 1e-9 covers.
A block is tested only against the kept rows whose axis-0 centers lie
within the block's, widened on each side by that reach for its widest
row and the widest kept row.  The decisions are those of testing every
kept row, and the work and memory per block grow with the window, not
with the kept set.  The window does not help when one kept row is
wide, or not finite: it is then the whole kept set, at the cost of
testing every kept row plus one bisection per block.

The 95% Student t quantiles for 2..64 runs are a frozen table of
``scipy.special.stdtrit(n - 1, 0.975)``, equal to it bit for bit;
above it they come from the Cornish-Fisher series, refined by one
Newton step on the t distribution where the series alone is not
close enough.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .polcalc import PERIOD_DEG
from .textio import block

SEMI_AXIS_FLOOR = 1e-12
# Candidate rows the greedy sweep, and rows of one family the
# exclusions, test per separable call.
_BLOCK = 32
# Relative slack of the axis-0 window (see module docstring).
_WINDOW_SLACK = 1.0 + 1e-9


@dataclass(frozen=True, eq=False)
class EllipsoidRegion:
    """Axis-aligned ellipsoid, or an (m, d) stack of them; see module.

    Semi-axes are floored per row; indexing returns rows of a floored
    stack, which are not floored again.
    """

    center: np.ndarray
    semi_axes: np.ndarray

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float)
        scale = np.max(np.abs(center), axis=-1, keepdims=True, initial=1.0)
        semi = np.maximum(np.asarray(self.semi_axes, dtype=float),
                          SEMI_AXIS_FLOOR * scale)
        if semi.shape != center.shape:
            raise ValueError("center and semi-axes dimensions disagree")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "semi_axes", semi)

    def __getitem__(self, index) -> EllipsoidRegion:
        return _rows(self.center[index], self.semi_axes[index])


def _rows(center: np.ndarray, semi_axes: np.ndarray) -> EllipsoidRegion:
    """The region over floored arrays as they are: views stay views."""
    rows = object.__new__(EllipsoidRegion)
    object.__setattr__(rows, "center", center)
    object.__setattr__(rows, "semi_axes", semi_axes)
    return rows


@dataclass(eq=False)
class FamilyOutcome:
    """One family's regions, kept and excluded rows, and its ``stats``:
    mean, std and ci95, stacked as a ``(3, n_thetas, n_axes)`` array."""

    family: str
    thetas: np.ndarray
    stats: np.ndarray
    regions: EllipsoidRegion
    kept: list[int]
    cross_excluded: list[int] = field(default_factory=list)


@dataclass(eq=False)
class DistinguishabilityReport:
    families: list[FamilyOutcome]
    exclusions: list[tuple[str, float, str, float]]


def run_stats(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean, std, ci95)`` over the leading axis of (n_runs >= 2, ...) ``points``.

    ci95 is the 95% CI half-width, from the t quantile at n_runs - 1 dof.
    The bits are those of the ufuncs of ``mean`` and ``std(ddof=1)``, in
    their order, over a C-ordered array: no bit depends on memory layout,
    where numpy sums 8 or more runs pairwise if they are its inner loop."""
    pts = np.asarray(points, dtype=float, order="C")
    n = pts.shape[0]
    mean = np.add.reduce(pts, 0) / n
    std = np.sqrt(np.add.reduce(np.square(pts - mean), 0) / (n - 1))
    return mean, std, t975(n) * std / math.sqrt(n)


def summarize(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``run_stats`` of one cloud, ``points`` of shape (n_runs, n_axes)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two runs to summarize")
    return run_stats(pts)


# t975(n) for n = 2..64, from scipy.special.stdtrit(n - 1, 0.975).
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205, 2.228138851986274,
    2.200985160091639, 2.1788128296672284, 2.1603686564627913,
    2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087,
    2.085963447265864, 2.0796138447276795, 2.0738730679040254,
    2.0686576104190486, 2.0638985616280245, 2.0595385527532972,
    2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408,
    2.0369333434601016, 2.0345152974493383, 2.0322445093177186,
    2.030107928250343, 2.0280940009804502, 2.0261924630291093,
    2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824,
    2.0153675744437636, 2.014103388880846, 2.012895598919429,
    2.0117405137297655, 2.010634757624232, 2.0095752371292392,
    2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455,
    2.003240718847872, 2.002465459291007, 2.0017174841452356,
    2.000995378088267, 2.0002978220142604, 1.999623584994939,
    1.9989715170333788, 1.998340542520741,
)


# Cornish-Fisher terms g1..g4 of the t quantile in powers of 1/df, at
# the normal 0.975 quantile z (Abramowitz & Stegun 26.7.5).
_Z975 = 1.959963984540054
_CF975 = (
    (_Z975 ** 3 + _Z975) / 4.0,
    (5 * _Z975 ** 5 + 16 * _Z975 ** 3 + 3 * _Z975) / 96.0,
    (3 * _Z975 ** 7 + 19 * _Z975 ** 5 + 17 * _Z975 ** 3 - 15 * _Z975) / 384.0,
    (79 * _Z975 ** 9 + 776 * _Z975 ** 7 + 1482 * _Z975 ** 5 - 1920 * _Z975 ** 3
     - 945 * _Z975) / 92160.0,
)


def _t_within(t: float, df: int) -> float:
    """P(|T| < t) for Student's t with an integer df >= 1 (A&S 26.7.3-4)."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    term = 1.0 if df % 2 == 0 else math.cos(theta)
    total = term if df > 1 else 0.0  # at df = 1 the odd series is empty
    for k in range(2 + df % 2, df - 1, 2):
        term *= c2 * (k - 1) / k
        total += term
    if df % 2 == 0:
        return math.sin(theta) * total
    return 2.0 / math.pi * (theta + math.sin(theta) * total)


@functools.lru_cache(maxsize=None)
def t975(n_runs: int) -> float:
    """Two-sided 95% Student t quantile for the mean of ``n_runs`` runs.

    Above the table, the four-term Cornish-Fisher series; below
    df = 400, where it is off by more than 4e-14 (3.5e-10 at df = 64),
    one Newton step on ``_t_within`` follows.  Both stay within 1e-13
    of ``scipy.special.stdtrit`` relative, from 65 runs to 10^6.
    """
    if 2 <= n_runs < 2 + len(_T975):
        return _T975[n_runs - 2]
    if n_runs < 2:
        raise ValueError("a t quantile needs at least 2 runs")
    df = n_runs - 1
    g1, g2, g3, g4 = _CF975
    t = _Z975 + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df
    if df < 400:
        density = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                           - (df + 1) / 2 * math.log1p(t * t / df)
                           ) / math.sqrt(df * math.pi)
        t -= (_t_within(t, df) - 0.95) / (2.0 * density)
    return t


def _axis_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, in the order of a contiguous (..., d) reduce."""
    if len(x) < 8:
        return np.add.reduce(x, 0)
    return np.add.reduce(np.moveaxis(x, 0, -1).copy(), -1)


def _center_line(a: EllipsoidRegion, b: EllipsoidRegion):
    """Center distance and both support half-widths along the center line.

    Zero-distance rows use the first axis.
    """
    rank = max(a.center.ndim, b.center.ndim)
    ca, sa, cb, sb = (x[(None,) * (rank - x.ndim)].T
                      for x in (a.center, a.semi_axes, b.center, b.semi_axes))
    delta = cb - ca
    dist = np.sqrt(_axis_sum(delta * delta))
    u = np.zeros_like(delta)
    u[0] = 1.0
    np.divide(delta, dist, out=u, where=dist > 0.0)
    ua, ub = sa * u, sb * u
    return dist.T, np.sqrt(_axis_sum(ua * ua)).T, np.sqrt(_axis_sum(ub * ub)).T


def separable(a: EllipsoidRegion, b: EllipsoidRegion) -> bool | np.ndarray:
    """Strict center-line separation: one bool per pair or stacked row."""
    dist, half_a, half_b = _center_line(a, b)
    result = (dist > 0.0) & (half_a + half_b < dist)
    return bool(result) if result.ndim == 0 else result


def separation_margin(a: EllipsoidRegion, b: EllipsoidRegion) -> float | np.ndarray:
    """Signed slack of the center-line criterion (positive = separated)."""
    dist, half_a, half_b = _center_line(a, b)
    return dist - half_a - half_b


def _window_keys(regions: EllipsoidRegion) -> tuple[list[float], list[float], np.ndarray]:
    """Axis-0 centers, radii and (2, d, m) planes of a region stack's rows.

    A row with a number that is not finite gets radius inf, so that any
    window that it widens is the whole kept set; the semi-axis floor
    makes a row's semi-axes not finite when its center is not.
    """
    semi = regions.semi_axes
    radius = np.sqrt(np.add.reduce(semi * semi, -1))
    radius[np.isnan(radius)] = np.inf
    planes = np.array([regions.center.T, semi.T])
    return regions.center[:, 0].tolist(), radius.tolist(), planes


def _window(keys: list[float], key: list[float], reach: float) -> slice:
    """Positions of the sorted ``keys`` within ``reach`` x slack of ``key``'s span."""
    reach *= _WINDOW_SLACK
    if not reach < math.inf:
        return slice(None)
    return slice(bisect.bisect_left(keys, min(key) - reach),
                 bisect.bisect_right(keys, max(key) + reach))


def max_distinguishable_subset(regions: EllipsoidRegion) -> list[int]:
    """Greedy subset of mutually separable rows of a region stack.

    Sweeps the orientation-ordered rows starting at index 0 and keeps
    a sample iff it is separable from every sample kept so far.
    Every kept pair was tested on admission: no wrap-around re-check.
    Each block of rows is tested against itself and the kept rows in
    its axis-0 window (see module docstring), kept sorted by axis-0
    center along with the largest kept radius.
    """
    key, radius, planes = _window_keys(regions)
    kept: list[int] = []
    keys: list[float] = []   # kept axis-0 centers, sorted
    order: list[int] = []    # the kept rows, in that order
    widest = 0.0
    for start in range(0, len(key), _BLOCK):
        stop = min(start + _BLOCK, len(key))
        window = order[_window(keys, key[start:stop], widest + max(radius[start:stop]))]
        w = len(window)
        # ok[r, c]: block row r (as a) against window row c, then block
        # row c - w (as b); a kept row r rules out the rows ~ok[:, w + r].
        rows = planes.take(window + list(range(start, stop)), -1)
        ok = separable(_rows(*planes[:, :, None, start:stop].swapaxes(1, -1)),
                       _rows(*rows.swapaxes(1, -1)))
        alive = ok[:, :w].all(axis=1)
        for r in range(stop - start):
            if alive[r]:
                i = start + r
                kept.append(i)
                at = bisect.bisect_right(keys, key[i])
                keys.insert(at, key[i])
                order.insert(at, i)
                widest = max(widest, radius[i])
                alive &= ok[:, w + r]
    return kept


def cross_family_exclusions(
    outcome_a: FamilyOutcome, outcome_b: FamilyOutcome
) -> list[tuple[str, float, str, float]]:
    """Drop kept samples that collide with the other family.

    Conflicts of still-kept pairs go in row-major order over kept_a x
    kept_b; each drops the sample with the larger maximum semi-axis,
    ties from the second.  Returns (family, theta, other, other_theta).
    Each block of kept_a rows is tested against the kept_b rows in its
    axis-0 window only (see module docstring); every conflict lies in
    it, so each row still walks its conflicts in ascending column order.
    """
    rows, cols = list(outcome_a.kept), list(outcome_b.kept)
    if not rows or not cols:
        return []
    kept_a, kept_b = outcome_a.regions[rows], outcome_b.regions[cols]
    key_a, radius_a, planes_a = _window_keys(kept_a)
    key_b, radius_b, planes_b = _window_keys(kept_b)
    by_key = np.argsort(key_b)
    keys, widest = [key_b[c] for c in by_key], max(radius_b)
    width_a = np.max(kept_a.semi_axes, axis=-1)
    width_b = np.max(kept_b.semi_axes, axis=-1)
    dropped = np.zeros(len(cols), dtype=bool)
    exclusions: list[tuple[str, float, str, float]] = []
    for start in range(0, len(rows), _BLOCK):
        stop = min(start + _BLOCK, len(rows))
        reach = widest + max(radius_a[start:stop])
        window = np.sort(by_key[_window(keys, key_a[start:stop], reach)])
        conflict = ~separable(_rows(*planes_a[:, :, None, start:stop].swapaxes(1, -1)),
                              _rows(*planes_b.take(window, -1).swapaxes(1, -1)))
        for r, i in enumerate(rows[start:stop], start):
            for c in window[conflict[r - start]].tolist():
                if dropped[c]:
                    continue
                pair = [(outcome_a, i), (outcome_b, cols[c])]
                a_loses = width_a[r] > width_b[c]
                (loser, t), (other, o) = pair if a_loses else pair[::-1]
                loser.kept.remove(t)
                loser.cross_excluded.append(t)
                exclusions.append((loser.family, float(loser.thetas[t]),
                                   other.family, float(other.thetas[o])))
                if a_loses:
                    break
                dropped[c] = True
    return exclusions


def step_stats(kept_thetas: np.ndarray) -> tuple[float, float, float]:
    """Median, max and min angular gap between kept orientations.

    The gap set includes the wrap-around gap across the period.
    """
    thetas = np.sort(np.asarray(kept_thetas, dtype=float))
    if thetas.size == 0:
        raise ValueError("no kept orientations")
    if thetas.size == 1:
        return PERIOD_DEG, PERIOD_DEG, PERIOD_DEG
    gaps = np.sort(np.append(np.diff(thetas), PERIOD_DEG - thetas[-1] + thetas[0]))
    # The median as np.median takes it, without loading numpy.ma.
    mid = gaps.size // 2
    median = gaps[mid] if gaps.size % 2 else (gaps[mid - 1] + gaps[mid]) / 2.0
    return float(median), float(gaps[-1]), float(gaps[0])


def analyze_family(
    family: str, thetas: np.ndarray, run_points: np.ndarray
) -> FamilyOutcome:
    """Stacked stats, regions and greedy subset for one family.

    ``run_points`` has shape (n_runs, n_thetas, n_axes) in normalized
    response coordinates; each orientation is summarized on its own, a
    contiguous cloud of one (n_thetas, n_runs, n_axes) copy."""
    clouds = np.asarray(run_points, dtype=float).transpose(1, 0, 2).copy()
    stats = np.empty((3, len(clouds), clouds.shape[2]))
    mean, std, ci95 = stats
    for t, cloud in enumerate(clouds):
        mean[t], std[t], ci95[t] = summarize(cloud)
    regions = EllipsoidRegion(center=stats[0], semi_axes=stats[2])
    return FamilyOutcome(family, np.asarray(thetas, dtype=float), stats, regions,
                         kept=max_distinguishable_subset(regions))


def analyze_families(
    outcomes: list[FamilyOutcome],
) -> DistinguishabilityReport:
    """Apply cross-family exclusions pairwise."""
    exclusions: list[tuple[str, float, str, float]] = []
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            exclusions.extend(cross_family_exclusions(outcomes[i], outcomes[j]))
    return DistinguishabilityReport(families=outcomes, exclusions=exclusions)


def report_to_csv(report: DistinguishabilityReport, path: str) -> None:
    """One row per analyzed orientation with stats and kept flags."""
    n_axes = report.families[0].stats.shape[2] if report.families else 0
    header = ["family", "theta_deg", "kept", "cross_excluded"]
    header += [f"{name}{k + 1}" for name in ("mean", "std", "ci95_")
               for k in range(n_axes)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for o in report.families:
            # One % per family, its name baked into the row template.
            flags = np.zeros((2, o.thetas.size), dtype=int)
            flags[0, o.kept] = 1
            flags[1, o.cross_excluded] = 1
            stats = np.hstack(o.stats)
            row = o.family.replace("%", "%%") + ",%.6g,%d,%d" + ",%.9g" * stats.shape[1]
            fh.write(block((row + "\n") * o.thetas.size,
                           [o.thetas.tolist(), *flags.tolist(), *stats.T.tolist()]))


def summary_text(report: DistinguishabilityReport) -> str:
    lines = []
    for outcome in report.families:
        total = outcome.thetas.size
        lines.append(
            f"family {outcome.family}: kept {len(outcome.kept)} of {total} orientations"
        )
        if outcome.kept:
            lines.append("  angular step deg: median %.4g, max %.4g, min %.4g"
                         % step_stats(outcome.thetas[outcome.kept]))
    if report.exclusions:
        lines.append("cross-family exclusions:")
        for fam, theta, other, other_theta in report.exclusions:
            lines.append(
                f"  {fam} at {theta:.6g} deg vs {other} at {other_theta:.6g} deg"
            )
    else:
        lines.append("cross-family exclusions: none")
    return "\n".join(lines) + "\n"
