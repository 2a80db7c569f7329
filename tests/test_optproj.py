import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import os

from ghostpol import optproj
from ghostpol.configio import load_config, parse_config_text
from ghostpol.optproj import (
    OptimizationConfig,
    ProjectorParam,
    minimize,
    nearest_feasible,
    objective_min_separation,
    optimize,
    point_table,
    projector_jones,
    response_points,
    sample_jones,
    settings_jones,
    settings_table,
    table_params,
)
from ghostpol.polcalc import (
    STOKES_OPS, PolElement, compose, element_jones, rotation_jones,
)
from ghostpol.qstate import TwoQubitDensity, bell_psi_plus, werner

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")
RNG = np.random.default_rng(8)

LP_SAMPLES = (
    PolElement("ideal_polarizer", 0.0),
    PolElement("ideal_polarizer", 45.0),
)


def bare_lp(angle):
    return ProjectorParam(qwp_deg=None, lp_deg=angle)


def toy_config(**kwargs):
    defaults = dict(
        samples=LP_SAMPLES,
        projectors=(bare_lp(20.0),),
        probe=None,
        restarts=8,
        max_evals=800,
        seed=3,
    )
    defaults.update(kwargs)
    return OptimizationConfig(**defaults)


def test_projector_param_element_order():
    p = ProjectorParam(qwp_deg=62.0, lp_deg=90.0)
    kinds = [e.kind for e in p.elements()]
    assert kinds == ["retarder", "ideal_polarizer"]
    lp, qwp = p.elements()[1], p.elements()[0]
    npt.assert_allclose(
        p.jones(), element_jones(lp) @ element_jones(qwp), atol=1e-12
    )
    swapped = ProjectorParam(qwp_deg=62.0, lp_deg=90.0, qwp_first=False)
    assert [e.kind for e in swapped.elements()] == ["ideal_polarizer", "retarder"]


def test_projector_param_variants():
    assert len(bare_lp(10.0).elements()) == 1
    partial = ProjectorParam(qwp_deg=None, lp_deg=0.0, extinction=3.7)
    assert partial.elements()[0].kind == "partial_polarizer"
    m = ProjectorParam(qwp_deg=45.0, lp_deg=30.0).mueller()
    assert m.shape == (4, 4)
    assert m[0, 0] <= 1.0 + 1e-12


def test_response_points_match_malus_law():
    # For the entangled pair source, a polarizer pair at angles
    # (alpha, beta) from vertical coincides with rate sin^2(alpha+beta)/2.
    pts = response_points(bell_psi_plus(), sample_jones(LP_SAMPLES), None,
                          projector_jones((bare_lp(90.0),)))
    assert pts.shape == (2, 1)
    assert abs(pts[0, 0] - 0.5 * math.sin(math.radians(90.0)) ** 2) < 1e-12
    assert abs(pts[1, 0] - 0.5 * math.sin(math.radians(135.0)) ** 2) < 1e-12


def reference_jones(elements):
    """Chain Jones matrix as built before the stacks: R J0 R^dagger per
    element by matrix products, multiplied up one element at a time."""
    total = np.eye(2, dtype=complex)
    for el in elements:
        if el.kind == "ideal_polarizer":
            j0 = np.diag([0.0, 1.0]).astype(complex)
        elif el.kind == "partial_polarizer":
            j0 = np.diag([1.0 / np.sqrt(el.extinction), 1.0]).astype(complex)
        else:
            j0 = np.diag([np.exp(1.0j * el.retardance_rad), 1.0])
        r = rotation_jones(el.theta_deg)
        total = r @ j0 @ r.conj().T @ total
    return total


def reference_response_points(rho, samples, probe, projectors):
    """The kron-loop response_points the batched engine replaced."""
    probe_jones = np.eye(2) if probe is None else reference_jones(probe.elements())
    pts = np.empty((len(samples), len(projectors)))
    for i, sample in enumerate(samples):
        k = probe_jones @ reference_jones([sample])
        for j, proj in enumerate(projectors):
            big = np.kron(k, reference_jones(proj.elements()))
            pts[i, j] = max(0.0, float(np.real(
                np.trace(big @ rho.matrix @ big.conj().T))))
    return pts


def reference_min_separation(pts):
    pts = pts / float(np.max(pts))
    return min(float(np.linalg.norm(pts[i] - pts[j]))
               for i in range(len(pts)) for j in range(i + 1, len(pts)))


def random_param():
    return ProjectorParam(
        qwp_deg=None if RNG.uniform() < 0.3 else float(RNG.uniform(0.0, 180.0)),
        lp_deg=float(RNG.uniform(0.0, 180.0)),
        extinction=math.inf if RNG.uniform() < 0.5 else float(RNG.uniform(1.0, 9.0)),
        qwp_first=bool(RNG.uniform() < 0.7),
    )


# Every layout in one stack: bare or waveplate, ideal or partial,
# waveplate first or polarizer first, with angles outside [0, 180).
EVERY_LAYOUT = tuple(
    ProjectorParam(qwp_deg=qwp, lp_deg=lp, extinction=ext, qwp_first=first)
    for qwp, lp in ((None, 200.0), (-30.0, 47.5))
    for ext in (math.inf, 3.7)
    for first in (True, False)
)


def test_projector_stack_equals_per_setting_chains():
    mixed = tuple(RNG.permutation(EVERY_LAYOUT + EVERY_LAYOUT[:3]))
    for params in [mixed] + [
            tuple(random_param() for _ in range(int(RNG.integers(1, 6))))
            for _ in range(20)]:
        stack = projector_jones(params)
        assert np.array_equal(stack, np.stack([p.jones() for p in params]))
        for p, jones in zip(params, stack):
            assert np.array_equal(jones, compose(p.elements()))
            npt.assert_allclose(jones, reference_jones(p.elements()),
                                rtol=0, atol=1e-15)


def test_response_points_match_kron_loop_reference():
    for case in range(40):
        rho = werner(float(RNG.uniform())) if case % 2 else bell_psi_plus()
        samples = tuple(
            PolElement("ideal_polarizer", float(t)) if case % 3 else
            PolElement("retarder", float(t), retardance_rad=float(RNG.uniform(0, 6)))
            for t in RNG.uniform(0.0, 180.0, size=int(RNG.integers(2, 6)))
        )
        probe = None if case % 4 == 0 else random_param()
        projectors = tuple(random_param() for _ in range(int(RNG.integers(1, 4))))
        pts = response_points(rho, sample_jones(samples),
                              None if probe is None else probe.jones(),
                              projector_jones(projectors))
        ref = reference_response_points(rho, samples, probe, projectors)
        assert np.max(np.abs(pts - ref)) <= 1e-15
        if np.max(pts) > 0.0:
            # Same points in, bit-identical minimum out.
            assert objective_min_separation(pts) == reference_min_separation(pts)


def test_shipped_first_restart_regression():
    # The first restart of configs/optimize.yaml (its max_evals / restarts
    # budget): 1500 simplex evaluations plus the start point, reaching
    # the objective that restart 0 reports in the trace.csv of the
    # shipped optimize run.
    cfg = load_config(os.path.join(CONFIGS, "optimize.yaml"))
    result = optimize(replace(cfg.optimize, state=cfg.state, seed=cfg.seed,
                              restarts=1, max_evals=1500))
    assert result.n_evals == 1501
    assert f"{result.objective:.6g}" == "0.871092"


@pytest.mark.parametrize("mode, stages, n_evals",
                         [("joint", 1, 20), ("sequential", 2, 40)])
def test_max_evals_bounds_simplex_shares_not_scored_points(mode, stages,
                                                           n_evals):
    # Each restart of each stage scores its start point, then a simplex
    # on max(1, max_evals // (stages * restarts)) evaluations: here 1.
    cfg = load_config(os.path.join(CONFIGS, "optimize.yaml"))
    result = optimize(replace(cfg.optimize, state=cfg.state, seed=cfg.seed,
                              mode=mode, restarts=10, max_evals=10))
    assert result.n_evals == n_evals == stages * 10 * (1 + 1)
    assert [row["n_evals"] for row in result.trace] == [1] * (stages * 10)


# A sequential run varying partial-polarizer extinctions, with a
# projector whose polarizer comes first, and a joint run without a
# probe: the two settings layouts the shipped config does not reach.
SEQUENTIAL_PARTIAL = """
seed: 5
optimize:
  samples:
    - {family: LP, theta_deg: 0.0}
    - {family: QWP, theta_deg: 30.0}
    - {family: LP, theta_deg: 60.0}
  projectors:
    - {qwp_deg: 20.0, lp_deg: 100.0, extinction: 4.0, qwp_first: false}
    - {lp_deg: 40.0}
  probe: {qwp_deg: 62.0, lp_deg: 90.0, extinction: 6.0}
  mode: sequential
  vary_extinction: true
  restarts: 3
  max_evals: 600
"""

PROBELESS_JOINT = """
seed: 4
optimize:
  samples:
    - {family: LP, theta_deg: 0.0}
    - {family: LP, theta_deg: 45.0}
    - {family: QWP, theta_deg: 90.0}
    - {family: LP, theta_deg: 135.0}
  projectors:
    - {qwp_deg: 170.0, lp_deg: 7.5}
    - {lp_deg: 110.0, extinction: 20.0}
  restarts: 3
  max_evals: 600
"""


@pytest.mark.parametrize("text, n_evals, objective", [
    (SEQUENTIAL_PARTIAL, 606, "0.990408135"),
    (PROBELESS_JOINT, 603, "0.656814959"),
], ids=["sequential_partial", "probeless_joint"])
def test_small_run_regression(text, n_evals, objective):
    cfg = parse_config_text(text)
    result = optimize(replace(cfg.optimize, state=cfg.state, seed=cfg.seed))
    assert result.n_evals == n_evals
    assert f"{result.objective:.9g}" == objective
    assert [(p.qwp_deg is None, p.qwp_first, math.isinf(p.extinction))
            for p in result.projectors] == \
        [(p.qwp_deg is None, p.qwp_first, math.isinf(p.extinction))
         for p in cfg.optimize.projectors]
    assert (result.probe is None) == (cfg.optimize.probe is None)


def test_settings_table_round_trips():
    table, qwp_first = settings_table(EVERY_LAYOUT)
    assert table.shape == (3, 8) and qwp_first.shape == (8,)
    assert table_params(table, qwp_first) == EVERY_LAYOUT


def test_point_table_wraps_angles_and_floors_extinction():
    settings = (ProjectorParam(qwp_deg=5.0, lp_deg=20.0, extinction=3.0),
                bare_lp(40.0))
    table, qwp_first = settings_table(settings)
    coords = (np.array([0, 1, 2, 1]), np.array([0, 0, 0, 1]))
    out = point_table(table, coords, np.array([-10.0, 190.0, 0.5, 220.0]))
    assert table_params(out, qwp_first) == (
        ProjectorParam(qwp_deg=170.0, lp_deg=10.0, extinction=1.0),
        bare_lp(40.0))
    assert table_params(table, qwp_first) == settings
    # Extinctions at or above 1 pass through unchanged.
    out = point_table(table, (np.array([2]), np.array([0])), np.array([7.25]))
    assert out[2, 0] == 7.25


def test_objective_hand_value():
    # Points 0.5 and 0.25 normalize to 1.0 and 0.5.
    val = objective_min_separation(response_points(
        bell_psi_plus(), sample_jones(LP_SAMPLES), None,
        projector_jones((bare_lp(90.0),))))
    assert abs(val - 0.5) < 1e-12


def test_objective_scores_response_points():
    assert objective_min_separation(np.array([[0.5], [0.25]])) == 0.5
    assert objective_min_separation(np.zeros((3, 2))) == 0.0
    pts = np.random.default_rng(15).uniform(size=(7, 2))
    assert objective_min_separation(pts) == reference_min_separation(pts)


def test_objective_zero_for_dark_responses():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    samples = (
        PolElement("retarder", 10.0, retardance_rad=0.0),
        PolElement("retarder", 20.0, retardance_rad=0.0),
    )
    val = objective_min_separation(response_points(
        TwoQubitDensity(rho), sample_jones(samples), None,
        projector_jones((bare_lp(0.0),))))
    assert val == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        toy_config(samples=(LP_SAMPLES[0],))
    with pytest.raises(ValueError):
        toy_config(projectors=())
    with pytest.raises(ValueError):
        toy_config(mode="greedy")
    with pytest.raises(ValueError):
        toy_config(restarts=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"qwp_deg": None, "lp_deg": math.nan}, "lp_deg must be finite"),
    ({"qwp_deg": 10.0, "lp_deg": math.inf}, "lp_deg must be finite"),
    ({"qwp_deg": math.nan, "lp_deg": 10.0}, "qwp_deg must be finite"),
    ({"qwp_deg": -math.inf, "lp_deg": 10.0}, "qwp_deg must be finite"),
    ({"qwp_deg": None, "lp_deg": 10.0, "extinction": 0.5}, "extinction must be >= 1"),
    ({"qwp_deg": None, "lp_deg": 10.0, "extinction": math.nan},
     "extinction must be >= 1"),
], ids=["nan_lp", "inf_lp", "nan_qwp", "inf_qwp", "low_extinction", "nan_extinction"])
def test_projector_param_validates_itself(kwargs, message):
    # A NaN qwp_deg would read as "no waveplate" in the settings table,
    # and the others would fail only at the first evaluation.
    with pytest.raises(ValueError, match=message):
        ProjectorParam(**kwargs)
    ProjectorParam(qwp_deg=None, lp_deg=10.0, extinction=1.0)


def test_optimize_finds_full_separation():
    # The one-parameter landscape sin^2(x), sin^2(x+45) has its best
    # normalized separation 1.0 at x = 0 and x = 135.
    result = optimize(toy_config())
    assert result.objective > 0.999
    best = result.projectors[0].lp_deg % 180.0
    dist = min(
        min(abs(best - t), 180.0 - abs(best - t)) for t in (0.0, 135.0)
    )
    assert dist < 1.0
    assert result.n_evals > 0
    assert result.probe is None


def test_optimize_is_deterministic():
    a = optimize(toy_config())
    b = optimize(toy_config())
    assert a.objective == b.objective
    assert a.projectors == b.projectors
    assert a.n_evals == b.n_evals


def test_optimize_never_scores_below_evaluated_starts():
    result = optimize(toy_config(restarts=4, max_evals=40))
    start_scores = [row["start_objective"] for row in result.trace]
    assert result.objective >= max(start_scores) - 1e-12


def test_optimize_angles_stay_in_range():
    result = optimize(toy_config())
    for proj in result.projectors:
        assert 0.0 <= proj.lp_deg < 180.0


def test_trace_rows_are_labeled():
    result = optimize(toy_config(restarts=3, max_evals=120))
    assert len(result.trace) == 3
    for row in result.trace:
        assert row["stage"] == "joint"
        assert {"restart", "start_objective", "final_objective",
                "n_evals"} <= set(row)


def test_sequential_mode_stages():
    config = toy_config(
        probe=ProjectorParam(qwp_deg=62.0, lp_deg=90.0),
        projectors=(ProjectorParam(qwp_deg=170.0, lp_deg=7.5),),
        mode="sequential",
        restarts=2,
        max_evals=120,
    )
    result = optimize(config)
    stages = {row["stage"] for row in result.trace}
    assert stages == {"probe", "projectors"}
    assert result.probe is not None
    joint = optimize(toy_config(restarts=2, max_evals=60))
    assert {row["stage"] for row in joint.trace} == {"joint"}


def test_optimize_with_nothing_to_vary():
    with pytest.raises(ValueError):
        optimize(toy_config(vary_probe=False, vary_projectors=False))
    with pytest.raises(ValueError):
        optimize(toy_config(mode="sequential", vary_projectors=False))


def test_extinction_varies_only_when_enabled():
    base = ProjectorParam(qwp_deg=None, lp_deg=40.0, extinction=3.7)
    frozen = optimize(toy_config(projectors=(base,), restarts=2, max_evals=80))
    assert frozen.projectors[0].extinction == 3.7
    varied = optimize(
        toy_config(projectors=(base,), vary_extinction=True,
                   restarts=2, max_evals=80)
    )
    assert varied.projectors[0].extinction >= 1.0


def test_nearest_feasible_recovers_constructed_target():
    truth = ProjectorParam(qwp_deg=62.0, lp_deg=90.0)
    param, dist = nearest_feasible(truth.mueller())
    assert dist < 1e-6
    assert min(abs(param.qwp_deg - 62.0), 180.0 - abs(param.qwp_deg - 62.0)) < 0.5
    assert min(abs(param.lp_deg - 90.0), 180.0 - abs(param.lp_deg - 90.0)) < 0.5


def test_nearest_feasible_passes_through_extinction():
    truth = ProjectorParam(qwp_deg=18.0, lp_deg=110.0, extinction=3.7)
    param, dist = nearest_feasible(truth.mueller(), extinction=3.7)
    assert dist < 1e-6
    assert param.extinction == 3.7


def test_nearest_feasible_validates_shape():
    with pytest.raises(ValueError):
        nearest_feasible(np.eye(3))


def loop_mueller(j):
    """The per-entry jones_to_mueller that the batched one replaced."""
    m = np.empty((4, 4))
    jd = j.conj().T
    for i, si in enumerate(STOKES_OPS):
        for k, sk in enumerate(STOKES_OPS):
            m[i, k] = 0.5 * np.real(np.trace(si @ j @ sk @ jd))
    return m


def loop_nearest_feasible(target, extinction, qwp_first, grid_step_deg=7.5):
    """nearest_feasible as it was: one scalar distance per seed-grid
    point, each from the element chain of a ProjectorParam."""
    def distance(x):
        param = ProjectorParam(float(x[0]) % 180.0, float(x[1]) % 180.0,
                               extinction, qwp_first)
        return float(np.linalg.norm(
            loop_mueller(compose(param.elements())) - target))

    angles = np.arange(0.0, 180.0, grid_step_deg)
    best_x, best_d = None, math.inf
    for a in angles:
        for b in angles:
            d = distance(np.array([a, b]))
            if d < best_d:
                best_d, best_x = d, np.array([a, b])
    res = minimize(distance, best_x, maxfev=4000, xatol=1e-9, fatol=1e-14)
    x = res.x if res.fun <= best_d else best_x
    return (ProjectorParam(float(x[0]) % 180.0, float(x[1]) % 180.0,
                           extinction, qwp_first),
            float(min(res.fun, best_d)))


@pytest.mark.parametrize("extinction", [math.inf, 3.7])
@pytest.mark.parametrize("qwp_first", [True, False])
def test_nearest_feasible_equals_scalar_grid_loop(extinction, qwp_first):
    rng = np.random.default_rng(int(qwp_first) + 2 * math.isinf(extinction))
    targets = [
        ProjectorParam(float(rng.uniform(0.0, 180.0)),
                       float(rng.uniform(0.0, 180.0)),
                       extinction, qwp_first).mueller(),
        rng.normal(size=(4, 4)),
    ]
    for target in targets:
        assert nearest_feasible(target, extinction, qwp_first) == \
            loop_nearest_feasible(target, extinction, qwp_first)


def scipy_nelder_mead(fun, x0, maxfev, xatol, fatol):
    import scipy.optimize

    return scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options={
        "maxfev": maxfev, "xatol": xatol, "fatol": fatol})


def random_objective(rng, n):
    """A random bumpy function; some are stepped, so that simplex values
    tie, and some overwrite the point they are given."""
    a = rng.normal(size=(n, n))
    c = rng.normal(size=n)
    wiggle = rng.uniform(0.0, 2.0)
    stepped = rng.random() < 0.2
    mutates = rng.random() < 0.2

    def f(x):
        value = float(np.sum((a @ (x - c)) ** 2) + wiggle * np.sum(np.sin(3 * x)))
        if mutates:
            x[:] = 0.0
        return math.floor(value) if stepped else value
    return f


def test_minimize_port_equals_scipy_nelder_mead():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(2024)
    outcomes = set()
    for case in range(300):
        n = int(rng.integers(1, 9))
        f = random_objective(rng, n)
        x0 = rng.normal(scale=10.0 ** rng.uniform(-3, 2), size=n)
        x0[rng.random(n) < 0.3] = 0.0
        maxfev = int(rng.choice([1, 2, n + 1, n + 2, rng.integers(3, 2001)]))
        xatol, fatol = 10.0 ** rng.uniform(-9, -2), 10.0 ** rng.uniform(-14, -2)
        ours = minimize(f, x0.copy(), maxfev, xatol, fatol)
        ref = scipy_nelder_mead(f, x0.copy(), maxfev, xatol, fatol)
        assert ours.x.tobytes() == ref.x.tobytes(), case
        assert (ours.fun, ours.nfev, ours.success) == (
            ref.fun, ref.nfev, ref.success), case
        outcomes.add((ours.success, maxfev == 1))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_nearest_feasible_equals_scipy_nelder_mead(monkeypatch):
    pytest.importorskip("scipy")
    targets = [(ProjectorParam(qwp_deg=33.0, lp_deg=121.0).mueller(), math.inf),
               (ProjectorParam(qwp_deg=18.0, lp_deg=110.0, extinction=3.7)
                .mueller(), 3.7),
               (RNG.normal(size=(4, 4)), math.inf)]
    ours = [nearest_feasible(t, extinction=e) for t, e in targets]
    monkeypatch.setattr(optproj, "minimize", scipy_nelder_mead)
    assert ours == [nearest_feasible(t, extinction=e) for t, e in targets]
