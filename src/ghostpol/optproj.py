"""Search for measurement settings that spread response points apart.

The figure of merit is the smallest pairwise Euclidean distance
between the normalized response points of a configured sample set;
optimization is a seeded multi-start simplex search over the
orientation angles of the probe-side and idler-side projectors.

The simplex search, :func:`minimize`, is a port of
``scipy.optimize._optimize._minimize_neldermead`` from scipy 1.17.1
(BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy
Developers), kept to what is used here: the default initial simplex,
no bounds, no adaptive parameters, no iteration cap, and ``maxfev``,
``xatol`` and ``fatol``.  It gives the results of
``scipy.optimize.minimize(method="Nelder-Mead")`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import polcalc
from .ghost import ProbeTransform, coincidence_probability
from .polcalc import PolElement
from .qstate import TwoQubitDensity, bell_psi_plus

QWP_RETARDANCE = math.pi / 2.0


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

    def elements(self) -> list[PolElement]:
        if math.isinf(self.extinction):
            lp = PolElement("ideal_polarizer", self.lp_deg)
        else:
            lp = PolElement("partial_polarizer", self.lp_deg,
                            extinction=self.extinction)
        if self.qwp_deg is None:
            return [lp]
        qwp = PolElement("retarder", self.qwp_deg,
                         retardance_rad=QWP_RETARDANCE)
        return [qwp, lp] if self.qwp_first else [lp, qwp]

    def jones(self) -> np.ndarray:
        return projector_jones((self,))[0]

    def mueller(self) -> np.ndarray:
        return polcalc.jones_to_mueller(self.jones())


@dataclass
class OptimizationConfig:
    """Settings and search options of one :func:`optimize` run.

    ``configio`` parses a config's ``optimize`` section into this; the
    command line then fills ``state`` and ``seed`` from the whole config.
    """

    samples: tuple[PolElement, ...]
    projectors: tuple[ProjectorParam, ...]
    probe: ProjectorParam | None = None
    state: TwoQubitDensity | None = None
    mode: str = "joint"
    vary_probe: bool = True
    vary_projectors: bool = True
    vary_extinction: bool = False
    restarts: int = 16
    max_evals: int = 4000
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise ValueError("objective needs at least two samples")
        if len(self.projectors) < 1:
            raise ValueError("need at least one idler projector")
        if self.mode not in ("joint", "sequential"):
            raise ValueError("mode must be 'joint' or 'sequential'")
        if self.restarts < 1 or self.max_evals < 1:
            raise ValueError("restarts and max_evals must be positive")


@dataclass
class OptimizationResult:
    probe: ProjectorParam | None
    projectors: tuple[ProjectorParam, ...]
    objective: float
    n_evals: int
    converged: bool
    trace: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class SimplexResult:
    """Best point of a :func:`minimize` run, its value and call count."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


class _OutOfBudget(Exception):
    pass


def _by_value(sim: np.ndarray, fsim: np.ndarray):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


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
        return fun(np.copy(x))

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
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # Outside contraction if the reflection improved on the
                # worst point, inside otherwise; shrink if it fails.
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
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


def projector_jones(params: tuple[ProjectorParam, ...]) -> np.ndarray:
    """(m, 2, 2) Jones stack of projector settings.

    Settings whose elements agree up to their angles share one oriented
    element stack per element position and one stacked chain product.
    """
    out = np.empty((len(params), 2, 2), dtype=complex)
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(params):
        key = (p.qwp_deg is None, p.extinction, p.qwp_first)
        groups.setdefault(key, []).append(i)
    for rows in groups.values():
        out[rows] = polcalc.compose([
            polcalc.element_jones(el, [
                params[i].qwp_deg if el.kind == "retarder" else params[i].lp_deg
                for i in rows
            ])
            for el in params[rows[0]].elements()
        ])
    return out


def sample_jones(samples: tuple[PolElement, ...]) -> np.ndarray:
    """(n, 2, 2) Jones stack of the sample elements."""
    return np.stack([polcalc.element_jones(s) for s in samples])


def response_points(
    rho: TwoQubitDensity,
    samples: tuple[PolElement, ...] | np.ndarray,
    probe: ProjectorParam | None,
    projectors: tuple[ProjectorParam, ...],
) -> np.ndarray:
    """Raw response coordinates, one row per sample.

    ``samples`` may also be their :func:`sample_jones` stack, which a
    caller scoring many settings for one sample set builds once.  The
    probe and the projectors are built as one stack.
    """
    if not isinstance(samples, np.ndarray):
        samples = sample_jones(samples)
    if probe is None:
        idler = projector_jones(projectors)
    else:
        jones = projector_jones((probe, *projectors))
        samples, idler = jones[0] @ samples, jones[1:]
    return coincidence_probability(rho, ProbeTransform.from_jones(samples), idler)


def objective_min_separation(
    rho: TwoQubitDensity,
    samples: tuple[PolElement, ...] | np.ndarray,
    probe: ProjectorParam | None,
    projectors: tuple[ProjectorParam, ...],
) -> float:
    """Smallest pairwise distance between normalized response points.

    An all-zero response set (a fully blocking probe) scores 0.
    ``samples`` may be their Jones stack, as in :func:`response_points`.
    """
    pts = response_points(rho, samples, probe, projectors)
    peak = float(np.max(pts))
    if peak <= 0.0:
        return 0.0
    pts = pts / peak
    d = pts[:, None] - pts
    # vecdot rounds like np.linalg.norm of each difference vector;
    # norm(axis=-1) can differ in the last bit.
    sq = np.vecdot(d, d)
    np.fill_diagonal(sq, np.inf)
    return float(np.sqrt(np.min(sq)))


def _pack(settings: tuple[ProjectorParam | None, ...], varied: list[int],
          vary_extinction: bool) -> list[tuple[int, str]]:
    """Coordinates (settings index, field) of the varied settings."""
    coords: list[tuple[int, str]] = []
    for k in varied:
        if settings[k].qwp_deg is not None:
            coords.append((k, "qwp_deg"))
        coords.append((k, "lp_deg"))
        if vary_extinction and math.isfinite(settings[k].extinction):
            coords.append((k, "extinction"))
    return coords


def _apply(coords: list[tuple[int, str]], x: np.ndarray,
           settings: tuple[ProjectorParam | None, ...],
           ) -> tuple[ProjectorParam | None, ...]:
    """Settings with the coordinates set to ``x``: angles taken modulo
    180, extinction floored at 1."""
    changes: dict[int, dict[str, float]] = {}
    for value, (k, fieldname) in zip(x, coords):
        value = float(value)
        changes.setdefault(k, {})[fieldname] = (
            max(1.0, value) if fieldname == "extinction" else value % 180.0
        )
    out = list(settings)
    for k, fields in changes.items():
        out[k] = replace(out[k], **fields)
    return tuple(out)


def _start_points(coords: list[tuple[int, str]], n_starts: int,
                  x0: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic spread of starts: x0 first, then a stratified
    scramble of the search box (angle torus, extinction in [1, 10])."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(7,))))
    n_dim = len(coords)
    starts = np.empty((n_starts, n_dim))
    starts[0] = x0
    extra = n_starts - 1
    if extra > 0:
        grid = np.empty((extra, n_dim))
        for d, (_, fieldname) in enumerate(coords):
            lo, hi = (1.0, 10.0) if fieldname == "extinction" else (0.0, 180.0)
            bins = (np.arange(extra) + rng.uniform(0.0, 1.0, size=extra))
            grid[:, d] = lo + rng.permutation(bins) / extra * (hi - lo)
        starts[1:] = grid
    return starts


def optimize(config: OptimizationConfig) -> OptimizationResult:
    """Multi-start maximization of the minimum pairwise separation.

    The settings are searched as one tuple ``(probe, *projectors)``;
    index 0 is the probe and may be None.  The returned settings never
    score below the best evaluated start point; ``converged`` reports
    whether any simplex run terminated within its evaluation budget.
    """
    rho = config.state if config.state is not None else bell_psi_plus()
    settings = (config.probe, *config.projectors)
    probe_idx = [0] if config.vary_probe and config.probe is not None else []
    proj_idx = list(range(1, len(settings))) if config.vary_projectors else []
    if config.mode == "sequential":
        stages = [("probe", probe_idx), ("projectors", proj_idx)]
    else:
        stages = [("joint", probe_idx + proj_idx)]
    stages = [(name, varied) for name, varied in stages if varied]
    if not stages:
        raise ValueError("nothing to vary")

    samples = sample_jones(config.samples)
    budget = max(1, config.max_evals // len(stages))
    total_evals = 0
    any_converged = False
    trace: list[dict] = []

    for stage_name, varied in stages:
        coords = _pack(settings, varied, config.vary_extinction)
        base = settings

        def score(x: np.ndarray) -> float:
            trial = _apply(coords, x, base)
            return -objective_min_separation(rho, samples, trial[0], trial[1:])

        x0 = np.array([getattr(base[k], fieldname) for k, fieldname in coords])
        starts = _start_points(coords, config.restarts, x0, config.seed)
        per_start = max(1, budget // config.restarts)
        best_x = None
        best_val = -math.inf
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
            trace.append({
                "stage": stage_name,
                "restart": s,
                "start_objective": start_val,
                "final_objective": final_val,
                "n_evals": int(res.nfev),
            })
        settings = _apply(coords, best_x, base)

    return OptimizationResult(
        probe=settings[0],
        projectors=settings[1:],
        objective=best_val,
        n_evals=total_evals,
        converged=any_converged,
        trace=trace,
    )


def nearest_feasible(
    target_mueller: np.ndarray,
    extinction: float = math.inf,
    qwp_first: bool = True,
    grid_step_deg: float = 7.5,
) -> tuple[ProjectorParam, float]:
    """Feasible waveplate-polarizer pair closest to a target matrix.

    Minimizes the Frobenius distance between the Mueller matrix of a
    quarter-wave retarder at angle a composed with a polarizer at
    angle b and the target.  A coarse angle grid seeds a simplex
    refinement, so distinct local basins are covered.
    """
    target = np.asarray(target_mueller, dtype=float)
    if target.shape != (4, 4):
        raise ValueError("target must be a 4x4 Mueller matrix")

    def distance(x: np.ndarray) -> float:
        param = ProjectorParam(
            qwp_deg=float(x[0]) % 180.0,
            lp_deg=float(x[1]) % 180.0,
            extinction=extinction,
            qwp_first=qwp_first,
        )
        return float(np.linalg.norm(param.mueller() - target))

    angles = np.arange(0.0, 180.0, grid_step_deg)
    best_x = None
    best_d = math.inf
    for a in angles:
        for b in angles:
            d = distance(np.array([a, b]))
            if d < best_d:
                best_d, best_x = d, np.array([a, b])
    res = minimize(distance, best_x, maxfev=4000, xatol=1e-9, fatol=1e-14)
    x = res.x if res.fun <= best_d else best_x
    final = ProjectorParam(
        qwp_deg=float(x[0]) % 180.0,
        lp_deg=float(x[1]) % 180.0,
        extinction=extinction,
        qwp_first=qwp_first,
    )
    return final, float(min(res.fun, best_d))
