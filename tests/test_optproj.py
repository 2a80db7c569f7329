import math
import os
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ghostpol import optproj, polcalc
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
    settings_builder,
    settings_table,
    table_params,
)
from ghostpol.ghost import coincidence_probability
from ghostpol.polcalc import QWP, PolElement, check_passive, compose, element_jones
from ghostpol.qstate import TwoQubitDensity, bell_psi_plus, werner
from helpers import CONFIGS, kron_loop_probability, loop_mueller, reference_jones

PSI_PLUS, SEED = bell_psi_plus(), 3
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


def reference_response_points(rho, samples, probe, projectors):
    """response_points from matrix-product chains and the kron loop."""
    probe_jones = np.eye(2) if probe is None else reference_jones(probe.elements())
    return np.array([[kron_loop_probability(rho, (probe_jones @ reference_jones([s]),),
                                            reference_jones(p.elements()))
                      for p in projectors] for s in samples])


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
            assert objective_min_separation(pts) == reference_min_separation_matrix(pts)


def test_response_points_equal_the_checked_path():
    # Evaluations give the engine unchecked effects, formed per arm.  A
    # settings table is passive by construction, so the checked effects
    # of each arm give the same bits, with a probe and without one.
    for case in range(60):
        rho = werner(float(RNG.uniform())) if case % 2 else bell_psi_plus()
        samples = sample_jones(tuple(
            PolElement("partial_polarizer", float(t), extinction=float(RNG.uniform(1, 9)))
            if case % 3 else PolElement("retarder", float(t), retardance_rad=1.0)
            for t in RNG.uniform(0.0, 180.0, size=int(RNG.integers(2, 6)))))
        n_probe = case % 4 != 0
        projectors = EVERY_LAYOUT if case < 2 else \
            tuple(random_param() for _ in range(int(RNG.integers(1, 4))))
        table, qwp_first = settings_table((random_param(),) * n_probe + projectors)
        coords = np.nonzero(np.isfinite(table))
        x = np.where(coords[0] == 2, RNG.uniform(0.2, 10.0, size=coords[0].size),
                     RNG.uniform(-360.0, 540.0, size=coords[0].size))
        jones = settings_builder(point_table(table, coords, x), qwp_first)(None)
        probe = jones[0] if n_probe else None
        pts = response_points(rho, samples, probe, jones[n_probe:])
        checked = coincidence_probability(
            rho, check_passive(samples if probe is None else
                               np.einsum("...ij,...jk->...ik", probe, samples)),
            check_passive(jones[n_probe:]))
        assert pts.shape == (samples.shape[0], len(projectors))
        assert pts.tobytes() == checked.tobytes()


@pytest.mark.parametrize("name", ["joint", "vary_extinction", "qwp_last", "fixed_probe"])
def test_prepared_scores_equal_the_unprepared_composition(monkeypatch, name):
    # The score that optimize gives a point through the stage it prepares,
    # against the point composed from scratch: its settings stack by
    # reference_settings_jones, the probe by compose, one stack by
    # np.concatenate, one effect pass and the engine.
    # The four stage kinds: joint, sequential with a searched extinction,
    # no probe, and a fixed probe.  Each stage's score is taken while the
    # stage runs, in place of its simplex.
    rng = np.random.default_rng(43)
    samples = LP_SAMPLES + (PolElement("retarder", 30.0, retardance_rad=1.0),
                            PolElement("partial_polarizer", 120.0, extinction=4.0))
    config = toy_config(**STAGE_CONFIGS[name], samples=samples, restarts=1)
    n_probe = int(config.probe is not None)
    sample_stack = sample_jones(samples)
    stages = []
    builder = optproj.settings_builder

    def spy_builder(table, qwp_first, coords=None):
        stages.append((table, qwp_first, coords))
        return builder(table, qwp_first, coords)

    def check_scores(score, x0, maxfev, xatol, fatol):
        table, qwp_first, coords = stages[-1]
        rows = coords[0]
        for _ in range(40):
            x = rng.uniform(-400.0, 400.0, size=rows.size)
            x[rng.random(rows.size) < 0.2] = -1e-14
            x = np.where(rows == 2, rng.uniform(0.2, 10.0, size=rows.size), x)
            jones = reference_settings_jones(point_table(table, coords, x), qwp_first)
            chain = compose((sample_stack, jones[0])) if n_probe else sample_stack
            e = polcalc.effect(np.concatenate((chain, jones[n_probe:])))
            n = len(chain)
            expected = -objective_min_separation(coincidence_probability(rho, e[:n], e[n:]))
            assert np.float64(score(x)).tobytes() == np.float64(expected).tobytes()
        return optproj.SimplexResult(x0, score(x0), 1, True)

    monkeypatch.setattr(optproj, "settings_builder", spy_builder)
    monkeypatch.setattr(optproj, "minimize", check_scores)
    for rho in (PSI_PLUS, werner(0.7)):
        stages.clear()
        optimize(config, rho, SEED)
        assert len(stages) == (2 if name == "vary_extinction" else 1)


@pytest.mark.parametrize("mode, probe, checks", [
    ("joint", None, 2),
    ("joint", ProjectorParam(qwp_deg=62.0, lp_deg=90.0), 2),
    ("sequential", ProjectorParam(qwp_deg=62.0, lp_deg=90.0), 3),
], ids=["joint", "joint_probe", "sequential_probe"])
def test_optimize_checks_once_per_run_and_stage(monkeypatch, mode, probe, checks):
    # The sample stack once, then each stage's settings table once; no
    # evaluation checks its effects again.
    shapes = []
    check = polcalc.check_passive

    def spy(jones):
        shapes.append(jones.shape)
        return check(jones)

    monkeypatch.setattr(polcalc, "check_passive", spy)
    result = optimize(toy_config(probe=probe, mode=mode, restarts=2,
                                 max_evals=60), PSI_PLUS, SEED)
    assert result.n_evals > checks
    assert shapes == [(2, 2, 2)] + [(1 + (probe is not None), 2, 2)] * (checks - 1)


def test_shipped_first_restart_regression():
    # The first restart of configs/optimize.yaml (its max_evals / restarts
    # budget): 1500 simplex evaluations plus the start point, reaching
    # the objective that restart 0 reports in the trace.csv of the
    # shipped optimize run.
    cfg = load_config(os.path.join(CONFIGS, "optimize.yaml"))
    result = optimize(replace(cfg.optimize, restarts=1, max_evals=1500),
                      cfg.state, cfg.seed)
    assert result.n_evals == 1501
    assert f"{result.objective:.6g}" == "0.871092"


@pytest.mark.parametrize("mode, stages, n_evals",
                         [("joint", 1, 20), ("sequential", 2, 40)])
def test_max_evals_bounds_simplex_shares_not_scored_points(mode, stages,
                                                           n_evals):
    # Each restart of each stage scores its start point, then a simplex
    # on max(1, max_evals // (stages * restarts)) evaluations: here 1.
    cfg = load_config(os.path.join(CONFIGS, "optimize.yaml"))
    result = optimize(replace(cfg.optimize, mode=mode, restarts=10, max_evals=10),
                      cfg.state, cfg.seed)
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
    result = optimize(cfg.optimize, cfg.state, cfg.seed)
    assert result.n_evals == n_evals
    assert f"{result.objective:.9g}" == objective
    assert [(p.qwp_deg is None, p.qwp_first, math.isinf(p.extinction))
            for p in result.projectors] == \
        [(p.qwp_deg is None, p.qwp_first, math.isinf(p.extinction))
         for p in cfg.optimize.projectors]
    assert (result.probe is None) == (cfg.optimize.probe is None)


def reference_oriented_jones(a, theta_deg):
    """R(theta) diag(a, 1) R(theta)^T as first written: one product per entry."""
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    cc, ss, cs = c * c, s * s, c * s
    out = np.empty(np.shape(t) + (2, 2), dtype=complex)
    out[..., 0, 0] = cc * a + ss
    out[..., 0, 1] = out[..., 1, 0] = cs * (a - 1.0)
    out[..., 1, 1] = ss * a + cc
    return out


def reference_settings_jones(table, qwp_first):
    """settings_jones as it was before the prepared builder: separate
    waveplate and polarizer stacks, ordered by np.where, multiplied by
    one BLAS-free einsum with no identity, as compose does.  Angles
    reduce as an element's do, twice modulo 180."""
    qwp_deg, lp_deg, extinction = table
    qwp = np.where(np.isnan(qwp_deg)[..., None, None], np.eye(2),
                   reference_oriented_jones(np.exp(1.0j * QWP.retardance_rad),
                                            np.asarray(qwp_deg) % 180.0 % 180.0))
    lp = reference_oriented_jones(1.0 / np.sqrt(extinction), lp_deg % 180.0 % 180.0)
    first = np.asarray(qwp_first)[..., None, None]
    return np.einsum("...ij,...jk->...ik", np.where(first, lp, qwp),
                     np.where(first, qwp, lp))


def test_jones_filler_equals_reference_bytes():
    rng = np.random.default_rng(20)
    theta = rng.uniform(0.0, 180.0, size=(3, 5))
    theta[0] = [0.0, 45.0, 90.0, 135.0, 180.0 - 1e-13]
    factors = [0.0, 0.3, 1.0, np.exp(1.0j * rng.uniform(0.0, 6.0)),
               rng.uniform(size=(3, 5)) + 0.0j,
               np.exp(1.0j * rng.uniform(0.0, 6.0, size=5))]
    for a in factors:
        ref = reference_oriented_jones(a, theta)
        assert polcalc.jones_filler(a, theta.shape)(theta).tobytes() == ref.tobytes()
        if np.ndim(a) == 0:
            # A scalar angle still gives one (2, 2) matrix.
            for scalar in (theta[0, 1], float(theta[0, 1])):
                jones = polcalc.jones_filler(a, ())(scalar)
                assert jones.shape == (2, 2)
                assert jones.tobytes() == \
                    reference_oriented_jones(a, scalar).tobytes()


def test_jones_filler_with_new_factors_equals_reference_bytes():
    # A stage that searches an extinction refills one filler with new
    # factors on each call; every fill has the bytes of a fresh build
    # from factors of the filler's dtype.
    rng = np.random.default_rng(33)
    theta = rng.uniform(0.0, 180.0, size=(3, 5))
    for start, factors in (
            (np.full((3, 5), 0.5), [0.0, 0.3, rng.uniform(size=(3, 5)), 1.0]),
            (np.full((3, 5), 1.0j), [np.exp(1.0j * rng.uniform(0.0, 6.0, size=5)),
                                     rng.uniform(size=(3, 5)) + 0.0j, 0.3])):
        fill = polcalc.jones_filler(start, theta.shape)
        assert fill(theta).tobytes() == reference_oriented_jones(start, theta).tobytes()
        for a in factors:
            theta = rng.uniform(-400.0, 400.0, size=(3, 5))
            jones = fill(theta, a)
            a = np.asarray(a, start.dtype)
            assert jones.tobytes() == reference_oriented_jones(a, theta).tobytes()
            # Without new factors, a fill keeps the last ones.
            assert fill(theta[::-1]).tobytes() == \
                reference_oriented_jones(a, theta[::-1]).tobytes()


def reference_min_separation_matrix(points):
    """objective_min_separation as it was: the full n x n matrix of
    squared distances, its diagonal set to inf."""
    peak = float(np.max(points))
    if peak <= 0.0:
        return 0.0
    pts = points / peak
    d = pts[:, None] - pts
    sq = np.add.reduce(d * d, -1)
    np.fill_diagonal(sq, np.inf)
    return float(np.sqrt(np.min(sq)))


def random_table(rng, k):
    """A (3, k) settings table of every layout.  Its angles lie in
    [-1e3, 1e3]; some are exact multiples of 45 degrees, some so little
    below 0 that modulo 180 they round to 180."""
    angles = rng.uniform(-1e3, 1e3, size=(2, k))
    pick = rng.random((2, k))
    angles[pick < 0.3] = 45.0 * rng.integers(-23, 23, size=(2, k))[pick < 0.3]
    angles[pick > 0.9] = -1e-14
    angles[0, rng.random(k) < 0.3] = np.nan
    extinction = np.where(rng.random(k) < 0.4, np.inf,
                          rng.choice([1.0, 2.0, 3.7, 1e6], size=k))
    return np.vstack([angles, extinction]), rng.random(k) < 0.5


def test_settings_builder_equals_reference_bytes():
    rng = np.random.default_rng(18)
    for case in range(400):
        table, qwp_first = random_table(rng, int(rng.integers(1, 6)))
        searched = np.isfinite(table) & (rng.random(table.shape) < 0.7)
        coords = np.nonzero(searched.T)[::-1]
        build = settings_builder(table, qwp_first, coords)
        assert build(None).tobytes() == \
            reference_settings_jones(table, qwp_first).tobytes(), case
        for _ in range(3):
            # Extinctions below 1 are floored; angles as in random_table.
            x = np.where(coords[0] == 2,
                         rng.choice([0.2, 1.0, 4.5, 1e3], size=coords[0].size),
                         random_table(rng, coords[0].size)[0][1])
            jones = build(x)
            ref = reference_settings_jones(point_table(table, coords, x),
                                           qwp_first)
            assert jones.tobytes() == ref.tobytes(), case


STAGE_CONFIGS = {
    "joint": dict(probe=ProjectorParam(qwp_deg=62.0, lp_deg=90.0),
                  projectors=(ProjectorParam(qwp_deg=170.0, lp_deg=7.5),
                              bare_lp(110.0))),
    "sequential": dict(probe=ProjectorParam(qwp_deg=62.0, lp_deg=90.0),
                       projectors=(ProjectorParam(qwp_deg=18.0, lp_deg=34.0),),
                       mode="sequential"),
    "bare_polarizers": dict(projectors=(bare_lp(20.0), bare_lp(110.0))),
    "qwp_last": dict(projectors=(
        ProjectorParam(qwp_deg=30.0, lp_deg=10.0, qwp_first=False),
        ProjectorParam(qwp_deg=45.0, lp_deg=95.0, extinction=3.7))),
    "vary_extinction": dict(
        probe=ProjectorParam(qwp_deg=None, lp_deg=90.0, extinction=2.0),
        projectors=(ProjectorParam(qwp_deg=30.0, lp_deg=10.0, extinction=3.7,
                                   qwp_first=False), bare_lp(50.0)),
        mode="sequential", vary_extinction=True),
    "fixed_probe": dict(probe=ProjectorParam(qwp_deg=62.0, lp_deg=90.0), vary_probe=False,
                        projectors=(ProjectorParam(qwp_deg=18.0, lp_deg=110.0),
                                    bare_lp(34.0))),
}


@pytest.mark.parametrize("name", STAGE_CONFIGS)
def test_prepared_build_equals_the_unprepared_reference(name):
    # settings_builder fixes a stage's indices and, without a searched
    # extinction, its axis factors; every point still gives the bytes of
    # the whole computation.  Angles include negatives, values >= 180 and
    # tiny negatives, whose x % 180 is 180.0 until the second % 180.
    rng = np.random.default_rng(29)
    table, qwp_first, stages = optproj.search_stages(
        toy_config(**STAGE_CONFIGS[name]))
    assert len(stages) == (2 if "mode" in STAGE_CONFIGS[name] else 1)
    floored = [(coords[0] == 2).any() for _, coords in stages]
    assert any(floored) == (name == "vary_extinction")
    for _, coords in stages:
        build = settings_builder(table, qwp_first, coords)
        rows = coords[0]
        for _ in range(50):
            x = rng.uniform(-400.0, 400.0, size=rows.size)
            x[rng.random(rows.size) < 0.3] = -1e-14
            x = np.where(rows == 2, rng.uniform(0.2, 10.0, size=rows.size), x)
            assert build(x).tobytes() == reference_settings_jones(
                point_table(table, coords, x), qwp_first).tobytes()
        table = point_table(table, coords, x)


@pytest.mark.parametrize("name", STAGE_CONFIGS)
def test_builds_and_responses_share_no_memory(name):
    # A stage writes every point into the same buffers, but each build and
    # each response is a new array: an earlier one keeps its bytes.
    rng = np.random.default_rng(33)
    table, qwp_first, stages = optproj.search_stages(
        toy_config(**STAGE_CONFIGS[name]))
    n_probe = int(STAGE_CONFIGS[name].get("probe") is not None)
    samples = sample_jones(LP_SAMPLES)
    for _, coords in stages:
        build = settings_builder(table, qwp_first, coords)
        rows = coords[0]
        x1, x2 = (np.where(rows == 2, rng.uniform(1.0, 10.0, rows.size),
                           rng.uniform(-400.0, 400.0, rows.size)) for _ in range(2))
        jones = [build(x1), build(x2), build(None)]
        before = [j.tobytes() for j in jones]
        points = [response_points(PSI_PLUS, samples, j[0] if n_probe else None,
                                  j[n_probe:]) for j in jones]
        for group in (jones, points):
            for i, a in enumerate(group):
                assert not any(np.shares_memory(a, b) for b in group[i + 1:])
        assert [j.tobytes() for j in jones] == before
        assert points[0].tobytes() == response_points(
            PSI_PLUS, samples, jones[0][0] if n_probe else None,
            jones[0][n_probe:]).tobytes()
        # build(None) after a point gives the stack of the table itself.
        assert before[2] == settings_builder(table, qwp_first)(None).tobytes()
        assert before[0] == \
            settings_builder(table, qwp_first, coords)(x1).tobytes()
        table = point_table(table, coords, x2)


def test_builder_without_coords_refuses_a_point():
    table, qwp_first = settings_table(
        (ProjectorParam(qwp_deg=30.0, lp_deg=10.0), bare_lp(50.0)))
    build = settings_builder(table, qwp_first)
    before = build(None).tobytes()
    with pytest.raises(IndexError):
        build(np.array([1.0, 2.0]))
    assert build(None).tobytes() == before


@pytest.mark.parametrize("shape", [(), (7,)], ids=["scalar", "grid"])
@pytest.mark.parametrize("extinction", [math.inf, 3.7])
@pytest.mark.parametrize("qwp_first", [True, False])
def test_settings_jones_equals_reference_bytes_on_grids(shape, extinction,
                                                       qwp_first):
    # The table shapes that nearest_feasible scores: one angle pair, or
    # one per seed-grid point.
    rng = np.random.default_rng(7)
    for _ in range(20):
        qwp_deg, lp_deg = rng.uniform(-1e3, 1e3, size=(2,) + shape)
        qwp_deg = np.where(rng.random(shape) < 0.3, 45.0 * 3, qwp_deg)
        table = np.array([qwp_deg, lp_deg, np.full_like(qwp_deg, extinction)])
        flags = np.full(shape, qwp_first)
        jones = settings_builder(table, flags)(None)
        assert jones.shape == shape + (2, 2)
        assert jones.tobytes() == reference_settings_jones(table, flags).tobytes()


@pytest.mark.parametrize("entry", [(1, 0), (2, 1)], ids=["lp_deg", "extinction"])
def test_settings_jones_keeps_nan_outside_the_bare_waveplate(entry):
    # Only a bare polarizer's waveplate angle may be NaN; a NaN anywhere
    # else still gives a NaN Jones matrix, which check_passive refuses.
    table, qwp_first = settings_table(EVERY_LAYOUT)
    table[entry] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jones = settings_builder(table, qwp_first)(None)
    assert np.isnan(jones[entry[1]]).any()
    with pytest.raises(ValueError):
        check_passive(jones)


def test_objective_equals_full_matrix_reference_bits():
    rng = np.random.default_rng(19)
    for case in range(500):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        pts = rng.uniform(size=(n, m))
        if case % 3 == 0:
            # Coarse values, so that pairs tie or coincide.
            pts = np.round(pts * 4.0) / 4.0
        got = objective_min_separation(pts)
        assert np.float64(got).tobytes() == \
            np.float64(reference_min_separation_matrix(pts)).tobytes(), case


def test_objective_of_one_point_is_inf():
    # No pair to separate: the pair form keeps the full matrix's inf.
    assert objective_min_separation(np.array([[0.25, 0.5]])) == math.inf
    assert objective_min_separation(np.zeros((1, 3))) == 0.0


def reference_start_points(rows, n_starts, x0, seed):
    """The start points as drawn before countsim owned the streams: an
    explicit SeedSequence with spawn key (7,), one pass per coordinate."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(7,))))
    starts = np.empty((n_starts, len(rows)))
    starts[0] = x0
    extra = n_starts - 1
    for d, row in enumerate(rows):
        lo, hi = (1.0, 10.0) if row == 2 else (0.0, 180.0)
        bins = np.arange(extra) + rng.uniform(0.0, 1.0, size=extra)
        starts[1:, d] = lo + rng.permutation(bins) / extra * (hi - lo)
    return starts


@pytest.mark.parametrize("rows", [[1], [0, 1], [1, 2, 1], [0, 1, 2, 0, 1, 2]])
def test_start_points_equal_the_explicit_stream(rows):
    rows = np.array(rows)
    for seed in (0, 3, 12345, 2**40):
        for n_starts in (1, 2, 8):
            x0 = RNG.uniform(0.0, 180.0, size=rows.size)
            npt.assert_array_equal(optproj._start_points(rows, n_starts, x0, seed),
                                   reference_start_points(rows, n_starts, x0, seed))


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


def test_tiny_negative_settings_reduce_to_zero():
    # -1e-14 % 180 rounds to 180.0; the second % 180 maps it to 0.
    table, qwp_first = settings_table((ProjectorParam(qwp_deg=5.0, lp_deg=20.0),))
    out = point_table(table, (np.array([0, 1]), np.array([0, 0])), np.full(2, -1e-14))
    assert out[:2, 0].tolist() == [0.0, 0.0]
    for first in (True, False):
        tiny = ProjectorParam(qwp_deg=-1e-14, lp_deg=-1e-14, qwp_first=first)
        zero = replace(tiny, qwp_deg=0.0, lp_deg=0.0)
        jones = projector_jones((tiny,)).tobytes()
        assert jones == compose(tiny.elements()).tobytes()
        assert jones == projector_jones((zero,)).tobytes()


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
    assert objective_min_separation(pts) == reference_min_separation_matrix(pts)


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
    result = optimize(toy_config(), PSI_PLUS, SEED)
    assert result.objective > 0.999
    best = result.projectors[0].lp_deg % 180.0
    dist = min(
        min(abs(best - t), 180.0 - abs(best - t)) for t in (0.0, 135.0)
    )
    assert dist < 1.0
    assert result.n_evals > 0
    assert result.probe is None


def test_optimize_is_deterministic():
    a = optimize(toy_config(), PSI_PLUS, SEED)
    b = optimize(toy_config(), PSI_PLUS, SEED)
    assert a.objective == b.objective
    assert a.projectors == b.projectors
    assert a.n_evals == b.n_evals


def test_optimize_never_scores_below_evaluated_starts():
    result = optimize(toy_config(restarts=4, max_evals=40), PSI_PLUS, SEED)
    start_scores = [row["start_objective"] for row in result.trace]
    assert result.objective >= max(start_scores) - 1e-12


def test_optimize_angles_stay_in_range():
    for config in (toy_config(), toy_config(**STAGE_CONFIGS["joint"], max_evals=200)):
        result = optimize(config, PSI_PLUS, SEED)
        for proj in result.projectors + (() if result.probe is None else (result.probe,)):
            assert 0.0 <= proj.lp_deg < 180.0
            assert proj.qwp_deg is None or 0.0 <= proj.qwp_deg < 180.0


def test_trace_rows_are_labeled():
    result = optimize(toy_config(restarts=3, max_evals=120), PSI_PLUS, SEED)
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
    result = optimize(config, PSI_PLUS, SEED)
    stages = {row["stage"] for row in result.trace}
    assert stages == {"probe", "projectors"}
    assert result.probe is not None
    joint = optimize(toy_config(restarts=2, max_evals=60), PSI_PLUS, SEED)
    assert {row["stage"] for row in joint.trace} == {"joint"}


def test_optimize_with_nothing_to_vary():
    with pytest.raises(ValueError):
        optimize(toy_config(vary_probe=False, vary_projectors=False),
                 PSI_PLUS, SEED)
    with pytest.raises(ValueError):
        optimize(toy_config(mode="sequential", vary_projectors=False), PSI_PLUS, SEED)


def test_extinction_varies_only_when_enabled():
    base = ProjectorParam(qwp_deg=None, lp_deg=40.0, extinction=3.7)
    frozen = optimize(toy_config(projectors=(base,), restarts=2, max_evals=80),
                      PSI_PLUS, SEED)
    assert frozen.projectors[0].extinction == 3.7
    varied = optimize(
        toy_config(projectors=(base,), vary_extinction=True,
                   restarts=2, max_evals=80), PSI_PLUS, SEED)
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


def loop_nearest_feasible(target, extinction, qwp_first, grid_step_deg=7.5):
    """nearest_feasible as it was: one scalar distance per seed-grid
    point, each from the element chain of a ProjectorParam."""
    def distance(x):
        param = ProjectorParam(float(x[0]) % 180.0, float(x[1]) % 180.0,
                               extinction, qwp_first)
        d = (loop_mueller(compose(param.elements())) - target).ravel()
        return float(np.sqrt(np.add.reduce(d * d)))

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


def valley(x):
    """A coupled quadratic in Python floats, the same on every platform."""
    x = x.tolist()
    coupling = x[0] * x[-1] - 1.0
    return sum((i + 1) * (v - 0.5 * i) * (v - 0.5 * i)
               for i, v in enumerate(x)) + 0.3 * coupling * coupling


@pytest.mark.parametrize("maxfev, x_hex, fun, nfev, success", [
    (4000, "4bf6b0525438d13f6c1c65610000e03f"
           "f90961180000f03f0b3471d70731f83f", 0.17852848930943255, 654, True),
    (37, "67667af04d55f13f8499ddcab81e03c0"
         "48b6f31febeb5f3f0000f0c90b73fe3f", 21.854184995127245, 37, False),
], ids=["tolerances", "budget"])
def test_minimize_regression(maxfev, x_hex, fun, nfev, success):
    # Frozen from the port before its stop test was reordered; needs no
    # scipy, unlike the comparison below.
    res = minimize(valley, np.array([1.0, -2.0, 0.0, 7.5]), maxfev=maxfev,
                   xatol=1e-6, fatol=1e-12)
    assert (res.x.tobytes().hex(), res.fun, res.nfev, res.success) == \
        (x_hex, fun, nfev, success)


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
