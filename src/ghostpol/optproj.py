"""Search for measurement settings that spread response points apart.

The figure of merit, :func:`objective_min_separation`, is the smallest
pairwise Euclidean distance between the normalized response points
that :func:`response_points` computes for a sample set from Jones
stacks; optimization is a seeded multi-start simplex search over the
orientation angles of the probe-side and idler-side projectors.

The search runs on one settings table: a ``(3, k)`` array with rows
``qwp_deg`` (NaN for a bare polarizer), ``lp_deg`` and ``extinction``,
one column per setting (the probe, if any, first), plus ``(k,)``
``qwp_first`` flags; :func:`settings_builder` builds its Jones stack.
Every table is passive by construction (waveplates are unitary, and
:func:`point_table` floors extinctions at 1, so no polarizer's axis
factor 1/sqrt(extinction) exceeds 1): :func:`optimize` checks the
samples once per run and each stage's table once, not each evaluation.

The simplex search, :func:`minimize`, is a port of
``scipy.optimize._optimize._minimize_neldermead`` from scipy 1.17.1
(BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy
Developers), kept to what is used here: the default initial simplex,
no bounds, no adaptive parameters, no iteration cap, and ``maxfev``,
``xatol`` and ``fatol``.  It gives the results of
``scipy.optimize.minimize(method="Nelder-Mead")`` bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import polcalc
from .countsim import TAG_START, stream
from .ghost import coincidence_probability
from .polcalc import QWP, PolElement
from .qstate import TwoQubitDensity


@dataclass(frozen=True)
class ProjectorParam:
    """Waveplate plus polarizer settings of one projector.

    ``qwp_deg`` may be None for a bare polarizer.  ``extinction`` is
    the polarizer intensity extinction ratio; infinity selects an
    ideal polarizer.  ``qwp_first`` gives the traversal order: True
    means the light crosses the waveplate before the polarizer.
    """

    qwp_deg: float | None
    lp_deg: float
    extinction: float = math.inf
    qwp_first: bool = True

    def __post_init__(self) -> None:
        for name in ("qwp_deg", "lp_deg"):
            angle = getattr(self, name)
            if angle is not None and not math.isfinite(angle):
                raise ValueError(f"{name} must be finite")
        if not self.extinction >= 1.0:
            raise ValueError("extinction must be >= 1")

    def elements(self) -> list[PolElement]:
        if math.isinf(self.extinction):
            lp = PolElement("ideal_polarizer", self.lp_deg)
        else:
            lp = PolElement("partial_polarizer", self.lp_deg,
                            extinction=self.extinction)
        if self.qwp_deg is None:
            return [lp]
        qwp = replace(QWP, theta_deg=self.qwp_deg)
        return [qwp, lp] if self.qwp_first else [lp, qwp]

    def jones(self) -> np.ndarray:
        return projector_jones((self,))[0]

    def mueller(self) -> np.ndarray:
        return polcalc.jones_to_mueller(self.jones())


@dataclass
class OptimizationConfig:
    """Settings and search options of one :func:`optimize` run, as
    ``configio`` parses them from a config's ``optimize`` section."""

    samples: tuple[PolElement, ...]
    projectors: tuple[ProjectorParam, ...]
    probe: ProjectorParam | None = None
    mode: str = "joint"
    vary_probe: bool = True
    vary_projectors: bool = True
    vary_extinction: bool = False
    restarts: int = 16
    max_evals: int = 4000

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise ValueError("objective needs at least two samples")
        if len(self.projectors) < 1:
            raise ValueError("need at least one idler projector")
        if self.mode not in ("joint", "sequential"):
            raise ValueError("mode must be 'joint' or 'sequential'")
        if self.restarts < 1 or self.max_evals < 1:
            raise ValueError("restarts and max_evals must be positive")
        if not self.vary_projectors and (self.probe is None or not self.vary_probe):
            raise ValueError("nothing to vary: needs vary_projectors, or a "
                             "probe with vary_probe")


@dataclass
class OptimizationResult:
    probe: ProjectorParam | None
    projectors: tuple[ProjectorParam, ...]
    objective: float
    n_evals: int
    converged: bool
    trace: list[dict] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class SimplexResult:
    """Best point of a :func:`minimize` run, its value and call count."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


class _OutOfBudget(Exception):
    pass


def _by_value(sim: np.ndarray, fsim: np.ndarray):
    ind = fsim.argsort()
    return sim.take(ind, 0), fsim.take(ind, 0)


def minimize(fun, x0: np.ndarray, maxfev: int, xatol: float,
             fatol: float) -> SimplexResult:
    """Nelder-Mead minimization of the scalar ``fun`` from ``x0``.

    ``fun`` receives a copy of each point and is called at most
    ``maxfev`` times; ``success`` means the simplex met both tolerances
    within that budget.  See the module docstring for the provenance.
    """
    x0 = np.array(x0, dtype=float).ravel()
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def f(x: np.ndarray) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfBudget
        nfev += 1
        return fun(x.copy())

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _OutOfBudget:
        pass
    # Sorted twice, as in scipy: argsort need not be stable, so the
    # second sort may reorder ties.
    sim, fsim = _by_value(*_by_value(sim, fsim))
    while nfev < maxfev:
        try:
            # The f-spread first: it is cheaper, and rarely passes.  The
            # comparisons below read these values too, before fsim changes.
            f0, *rest = values = fsim.tolist()
            if (all(abs(f0 - f) <= fatol for f in rest)
                    and np.max(np.abs(sim[1:] - sim[0])) <= xatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < f0:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < values[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # Outside contraction if the reflection improved on the
                # worst point, inside otherwise; shrink if it fails.
                if fxr < values[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < values[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _OutOfBudget:
            pass
        sim, fsim = _by_value(sim, fsim)
    return SimplexResult(sim[0], np.min(fsim), nfev, nfev < maxfev)


def settings_table(params: tuple[ProjectorParam, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(3, k)`` settings table and ``(k,)`` ``qwp_first`` flags of
    projector settings (see the module docstring)."""
    table = np.array([[math.nan if p.qwp_deg is None else p.qwp_deg,
                       p.lp_deg, p.extinction] for p in params]).T
    return table, np.array([p.qwp_first for p in params])


def table_params(table: np.ndarray,
                 qwp_first: np.ndarray) -> tuple[ProjectorParam, ...]:
    """Projector settings of the columns of a settings table."""
    return tuple(
        ProjectorParam(None if math.isnan(q) else q, lp, ext, first)
        for (q, lp, ext), first in zip(table.T.tolist(), qwp_first.tolist())
    )


def settings_builder(table: np.ndarray, qwp_first: np.ndarray,
                     coords: tuple[np.ndarray, np.ndarray] | None = None):
    """Prepared Jones stacks of a settings table: ``build(x)`` gives the
    stack of ``point_table(table, coords, x)`` for a ``(3, k)`` table,
    ``build(None)`` the ``table.shape[1:] + (2, 2)`` stack of ``table``, any
    mix of layouts; each call returns a new array.  One
    :func:`polcalc.jones_filler` pass builds all elements; a bare
    polarizer's waveplate, factor 1 at angle 0, is the exact identity.
    Complex polarizer factors can give -0 imaginary parts where real ones
    give +0; the stack's bytes are the same (see tests).

    What a stage fixes is prepared once: its table with each setting's
    angles reduced modulo 180 in crossing order (each setting's first element
    in row 0), a copy of it that each point is written into by one ``put``
    at the flat indices of the searched entries, and the filler with its
    buffers and views of the two element stacks it fills; a stage that
    searches an extinction rewrites the filler's factors each call."""
    bare = np.isnan(table[0])
    wave = np.where(bare, 1.0, polcalc.axis_factor(QWP))
    # Flat indices into the table: each setting's two angles in crossing
    # order, then its extinction.  Its inverse places the searched entries.
    layout = np.arange(table.size).reshape(table.shape)
    layout[:2] = np.where(qwp_first, layout[:2], layout[1::-1])
    base = np.concatenate((np.where(bare, 0.0, table[:1]), table[1:])).take(layout)
    base[:2] = polcalc.reduce_angle(base[:2])  # as _point_values reduces a point
    flat = None if coords is None else \
        np.argsort(layout, None)[np.ravel_multi_index(coords, table.shape)]
    floored = None if coords is None or 2 not in coords[0] else coords[0] == 2
    t = base.copy()

    def factors(extinction: np.ndarray) -> np.ndarray:
        return np.array([wave, 1.0 / np.sqrt(extinction)]).take(layout[:2])

    fill = polcalc.jones_filler(factors(base[2]), base[:2].shape)
    elements = tuple(fill(base[:2]))  # views of the one buffer that fill rewrites

    def build(x: np.ndarray | None) -> np.ndarray:
        if x is not None:
            if flat is None:
                raise IndexError("a builder made without coords takes no point")
            t.put(flat, _point_values(x, floored))
        s = base if x is None else t
        fill(s[:2], None if floored is None else factors(s[2]))
        return polcalc.compose(elements)

    return build


def projector_jones(params: tuple[ProjectorParam, ...]) -> np.ndarray:
    """(m, 2, 2) Jones stack of projector settings."""
    return settings_builder(*settings_table(params))(None)


def sample_jones(samples: tuple[PolElement, ...]) -> np.ndarray:
    """(n, 2, 2) Jones stack of the sample elements."""
    return np.stack([polcalc.element_jones(s) for s in samples])


def response_points(rho: TwoQubitDensity, samples: np.ndarray,
                    probe: np.ndarray | None,
                    projectors: np.ndarray) -> np.ndarray:
    """``(n, m)`` raw response coordinates of a :func:`sample_jones`
    stack seen through a 2x2 probe Jones matrix (or None) and an
    ``(m, 2, 2)`` projector Jones stack, one row per sample.  Both arms'
    chains share one stack, so one :func:`polcalc.effect` pass forms
    every effect."""
    if probe is not None:
        samples = polcalc.compose((samples, probe))
    e = polcalc.effect(np.concatenate((samples, projectors)))
    n = len(samples)
    return coincidence_probability(rho, e[:n], e[n:])


_pairs = functools.cache(lambda n: np.array(np.triu_indices(n, 1)))  # (2, P) rows


def objective_min_separation(points: np.ndarray) -> float:
    """Smallest pairwise distance between ``(n, m)`` response points
    divided by their largest entry; an all-zero set (a fully blocking
    probe) scores 0, and a single point inf."""
    peak = float(np.maximum.reduce(points, None))
    if peak <= 0.0:
        return 0.0
    rows = (points / peak).take(_pairs(len(points)), 0)
    d = rows[0] - rows[1]
    return math.sqrt(np.minimum.reduce(np.add.reduce(d * d, -1), initial=np.inf))


def _point_values(x: np.ndarray, floored: np.ndarray | None) -> np.ndarray:
    """Angles reduced; extinctions, where ``floored`` (None: nowhere), floored at 1."""
    angles = polcalc.reduce_angle(x)
    return angles if floored is None else np.where(floored, np.maximum(x, 1.0), angles)


def point_table(table: np.ndarray, coords: tuple[np.ndarray, np.ndarray],
                x: np.ndarray) -> np.ndarray:
    """Copy of ``table`` with the entries at ``coords`` (row and column
    indices) set to ``x``: angles modulo 180, extinctions floored at 1."""
    rows, cols = coords
    out = table.copy()
    out[rows, cols] = _point_values(x, rows == 2)
    return out


def _start_points(rows: np.ndarray, n_starts: int, x0: np.ndarray,
                  seed: int) -> np.ndarray:
    """Deterministic spread of starts: x0 first, then a stratified
    scramble of the search box (angle torus, extinction in [1, 10]).
    ``rows`` gives the table row of each coordinate."""
    rng = stream(seed, (TAG_START,))
    starts = np.empty((n_starts, len(rows)))
    starts[0] = x0
    extra = n_starts - 1
    for d, row in enumerate(rows):
        lo, hi = (1.0, 10.0) if row == 2 else (0.0, polcalc.PERIOD_DEG)
        bins = np.arange(extra) + rng.uniform(0.0, 1.0, size=extra)
        starts[1:, d] = lo + rng.permutation(bins) / extra * (hi - lo)
    return starts


def search_stages(config: OptimizationConfig) -> tuple[np.ndarray, np.ndarray, list]:
    """Settings table and ``qwp_first`` flags of a run, the probe first,
    and its stages: each one's name and the (rows, cols) coordinates it
    searches, the angles of its columns and, with ``vary_extinction``,
    their finite extinctions."""
    n_probe = 0 if config.probe is None else 1
    table, qwp_first = settings_table(
        (config.probe,) * n_probe + config.projectors)
    is_probe = np.arange(table.shape[1]) < n_probe
    probe_cols = is_probe & config.vary_probe
    proj_cols = ~is_probe & config.vary_projectors
    if config.mode == "sequential":
        stages = [("probe", probe_cols), ("projectors", proj_cols)]
    else:
        stages = [("joint", probe_cols | proj_cols)]
    # Angles are finite and a bare polarizer's qwp_deg is NaN, so
    # isfinite picks its angles and a partial polarizer's extinction.
    searched = np.isfinite(table)
    searched[2] &= config.vary_extinction
    # The transpose lists each setting's entries together; reversed, its
    # nonzero indices are (rows, cols).
    return table, qwp_first, [(name, np.nonzero((varied & searched).T)[::-1])
                              for name, varied in stages if varied.any()]


def optimize(config: OptimizationConfig, rho: TwoQubitDensity,
             seed: int) -> OptimizationResult:
    """Multi-start maximization of the minimum pairwise separation in
    state ``rho``, its starts scrambled from ``seed``.

    Each stage of :func:`search_stages` runs in turn from the best
    settings of the one before.  The returned settings never score
    below the best evaluated start point; ``converged`` reports whether
    any simplex run terminated within its evaluation budget.

    ``max_evals`` bounds the simplex runs, not the scored points: each
    restart of each stage scores its start point, then runs a simplex on
    share = max(1, max_evals // (stages * restarts)) evaluations, so a
    run scores at most stages * restarts * (1 + share) points.
    """
    n_probe = 0 if config.probe is None else 1
    table, qwp_first, stages = search_stages(config)
    samples = sample_jones(config.samples)
    polcalc.check_passive(samples)
    budget = max(1, config.max_evals // len(stages))
    total_evals, any_converged = 0, False
    trace: list[dict] = []

    for stage_name, coords in stages:
        build = settings_builder(table, qwp_first, coords)
        polcalc.check_passive(build(None))

        def score(x: np.ndarray) -> float:
            jones = build(x)
            probe = jones[0] if n_probe else None
            return -objective_min_separation(
                response_points(rho, samples, probe, jones[n_probe:]))

        starts = _start_points(coords[0], config.restarts, table[coords], seed)
        per_start = max(1, budget // config.restarts)
        best_val, best_x = -math.inf, None
        for s, start in enumerate(starts):
            start_val = -score(start)
            total_evals += 1
            if start_val > best_val:
                best_val, best_x = start_val, start.copy()
            res = minimize(score, start, maxfev=per_start, xatol=1e-4,
                           fatol=1e-10)
            total_evals += int(res.nfev)
            any_converged = any_converged or bool(res.success)
            final_val = -float(res.fun)
            if final_val > best_val:
                best_val, best_x = final_val, np.asarray(res.x, dtype=float)
            trace.append({"stage": stage_name, "restart": s,
                          "start_objective": start_val,
                          "final_objective": final_val,
                          "n_evals": int(res.nfev)})
        table = point_table(table, coords, best_x)

    settings = table_params(table, qwp_first)
    return OptimizationResult(
        probe=settings[0] if n_probe else None,
        projectors=settings[n_probe:],
        objective=best_val,
        n_evals=total_evals,
        converged=any_converged,
        trace=trace,
    )


def nearest_feasible(
    target_mueller: np.ndarray,
    extinction: float = math.inf,
    qwp_first: bool = True,
) -> tuple[ProjectorParam, float]:
    """Feasible waveplate-polarizer pair closest to a target matrix.

    Minimizes the Frobenius distance between the Mueller matrix of a
    quarter-wave retarder at angle a composed with a polarizer at
    angle b and the target.  A coarse 7.5-degree grid, scored in one call,
    seeds a simplex refinement, so distinct local basins are covered.
    """
    target = np.asarray(target_mueller, dtype=float)
    if target.shape != (4, 4):
        raise ValueError("target must be a 4x4 Mueller matrix")

    def distance_of(shape: tuple):
        """Distance from the target of each angle pair, (2,) + shape."""
        table = np.zeros((3,) + shape)
        table[2] = extinction
        build = settings_builder(table, np.full(shape, qwp_first),
                                 np.nonzero(np.ones((2,) + shape)))  # the angle rows

        def distance(x: np.ndarray) -> np.ndarray:
            d = polcalc.jones_to_mueller(build(np.ravel(x))) - target
            d = d.reshape(d.shape[:-2] + (16,))
            return np.sqrt(np.add.reduce(d * d, -1))

        return distance

    angles = np.arange(0.0, polcalc.PERIOD_DEG, 7.5)
    grid = np.array(np.meshgrid(angles, angles, indexing="ij")).reshape(2, -1)
    seed_d = distance_of(grid.shape[1:])(grid)
    best = int(np.argmin(seed_d))
    best_x, best_d = grid[:, best], float(seed_d[best])
    distance = distance_of(())
    res = minimize(lambda x: float(distance(x)), best_x, maxfev=4000,
                   xatol=1e-9, fatol=1e-14)
    x = polcalc.reduce_angle(res.x if res.fun <= best_d else best_x)
    return (ProjectorParam(float(x[0]), float(x[1]), extinction, qwp_first),
            float(min(res.fun, best_d)))
