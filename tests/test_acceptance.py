"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts its stated tolerance
and runtime budget, and prints one `[PASS] criterion NN` line (visible
with `pytest -s`).  A failed assertion leaves the line unprinted, so
the printed list is the pass/fail record.
"""

import math
import time

import numpy as np
import numpy.testing as npt
from scipy import stats as scipy_stats

from ghostpol import countsim, discern, ghost, polcalc, tomo
from ghostpol.cli import main as cli_main
from ghostpol.ghost import ProbeTransform, coincidence_probability, sweep_family
from ghostpol.optproj import (
    OptimizationConfig,
    ProjectorParam,
    nearest_feasible,
    objective_min_separation,
    optimize,
    projector_jones,
    response_points,
    sample_jones,
)
from ghostpol.polcalc import (
    PolElement,
    compose,
    element_jones,
    jones_to_mueller,
    rotation_jones,
)
from ghostpol.qstate import (
    TwoQubitDensity,
    bell_psi_plus,
    concurrence,
    fidelity,
    linear_entropy,
    load_density_csv,
    metrics,
    save_density_csv,
    werner,
)

# Reference probe transfer matrix of the three-projection setup
# (quarter-wave plate at 62 deg after an ideal polarizer at 90 deg),
# frozen from the published characterization the package calibrates
# its sign conventions against.
REF_PROBE_THREE = np.array([
    [0.5000, -0.5000, 0.0, 0.0],
    [-0.1563, 0.1563, 0.0, 0.0],
    [0.2318, -0.2318, 0.0, 0.0],
    [0.4145, -0.4145, 0.0, 0.0],
])

# Same setup with the ideal polarizer replaced by a partial polarizer
# of extinction ratio 3.7.
REF_PROBE_TWO = np.array([
    [0.6351, -0.3649, 0.0, 0.0],
    [-0.1141, 0.1986, -0.2410, 0.4310],
    [0.1691, -0.2944, 0.3573, 0.2907],
    [0.3025, -0.5266, -0.2907, 0.0],
])

# Explicit density matrix whose metric triple sits at concurrence
# 0.88, normalized linear entropy 0.13 and reference-state fidelity
# 0.90; constructed once by a constrained search and frozen together
# with its independently computed metrics.
FIXTURE_RHO = np.array([
    [0.007879, -0.048417, -0.066421, -0.014398],
    [-0.048417, 0.308417, 0.431133, 0.072287],
    [-0.066421, 0.431133, 0.629317, 0.078072],
    [-0.014398, 0.072287, 0.078072, 0.054387],
])
FIXTURE_METRICS = {
    "concurrence": 0.879996836098,
    "linear_entropy": 0.129999874213,
    "fidelity": 0.900000000000,
}

QWP_RET = math.pi / 2.0


def lp(theta):
    return PolElement("ideal_polarizer", theta)


def qwp(theta):
    return PolElement("retarder", theta, retardance_rad=QWP_RET)


PROBE_ELEMENTS = [qwp(62.0), lp(90.0)]
PROJECTOR_JONES = [
    compose([qwp(170.0), lp(7.5)]),
    compose([qwp(18.0), lp(110.0)]),
    compose([qwp(45.0), lp(34.0)]),
]


def _report(number, elapsed, detail):
    print(f"[PASS] criterion {number:02d} ({elapsed:.2f}s): {detail}")


def test_criterion_01_three_projection_probe_matrix():
    t0 = time.perf_counter()
    m = jones_to_mueller(compose([lp(90.0), qwp(62.0)]))
    dev = float(np.max(np.abs(m - REF_PROBE_THREE)))
    assert dev < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, f"probe matrix max deviation {dev:.2e} < 1e-3")


def test_criterion_02_partial_polarizer_probe_matrix():
    t0 = time.perf_counter()
    m = jones_to_mueller(
        compose([PolElement("partial_polarizer", 90.0, extinction=3.7),
                 qwp(62.0)])
    )
    row_dev = float(np.max(np.abs(m[0] - REF_PROBE_TWO[0])))
    assert row_dev < 5e-3
    full_dev = float(np.max(np.abs(m - REF_PROBE_TWO)))
    # Back-solve the extinction ratio from the total-intensity row:
    # m00 = (1 + 1/k)/2 for a diattenuator followed by a retarder.
    k_ref = 1.0 / (2.0 * REF_PROBE_TWO[0, 0] - 1.0)
    k_ours = 1.0 / (2.0 * m[0, 0] - 1.0)
    assert abs(k_ref - 3.70) <= 0.02
    assert abs(k_ours - 3.70) <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        2,
        elapsed,
        f"first row dev {row_dev:.2e} < 5e-3, extinction back-solve "
        f"{k_ref:.4f}, full-matrix dev {full_dev:.2e} (logged)",
    )


def test_criterion_03_entanglement_metrics(tmp_path):
    t0 = time.perf_counter()
    rho = werner(0.92)
    c = concurrence(rho)
    # Independent eigenvalue-based computation of the same monotone.
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    rt = rho.matrix @ flip @ rho.matrix.conj() @ flip
    lams = np.sort(np.sqrt(np.abs(np.linalg.eigvals(rt).real)))[::-1]
    oracle = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
    assert abs(c - 0.880) <= 1e-6
    assert abs(c - oracle) <= 1e-12

    bell = metrics(bell_psi_plus())
    assert abs(bell.concurrence - 1.0) <= 1e-12
    assert abs(bell.linear_entropy) <= 1e-12
    assert abs(bell.fidelity - 1.0) <= 1e-12

    path = str(tmp_path / "fixture_rho.csv")
    save_density_csv(TwoQubitDensity(FIXTURE_RHO.astype(complex)), path)
    loaded = load_density_csv(path)
    got = metrics(loaded)
    assert abs(got.concurrence - FIXTURE_METRICS["concurrence"]) <= 1e-6
    assert abs(got.linear_entropy - FIXTURE_METRICS["linear_entropy"]) <= 1e-6
    assert abs(got.fidelity - FIXTURE_METRICS["fidelity"]) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        3,
        elapsed,
        f"concurrence(0.92) = {c:.6f}, loaded-matrix triple "
        f"({got.concurrence:.4f}, {got.linear_entropy:.4f}, {got.fidelity:.4f})",
    )


def _random_passive_jones(rng):
    g = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
    return g / (np.linalg.svd(g, compute_uv=False)[0] + 1e-12)


def _random_element(rng):
    kind = rng.choice(["ideal_polarizer", "partial_polarizer", "retarder"])
    theta = float(rng.uniform(0.0, 180.0))
    if kind == "partial_polarizer":
        return PolElement(kind, theta, extinction=float(rng.uniform(1.5, 20.0)))
    if kind == "retarder":
        return PolElement(kind, theta,
                          retardance_rad=float(rng.uniform(0.0, 2.0 * math.pi)))
    return PolElement(kind, theta)


def _bruteforce_joint(rho, k, j):
    big = [[0.0j] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    big[2 * a + b][2 * c + d] = k[a, c] * j[b, d]
    total = 0.0
    for i in range(4):
        for m in range(4):
            for n in range(4):
                total += (big[i][m] * rho[m, n] * np.conj(big[i][n])).real
    return total


def test_criterion_04_engine_matches_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
        dens = g @ g.conj().T
        state = TwoQubitDensity(dens / np.trace(dens))
        sample = _random_element(rng)
        probe_chain = [
            _random_element(rng) for _ in range(int(rng.integers(1, 3)))
        ]
        k = compose([sample] + probe_chain)
        j = compose([_random_element(rng)]) if rng.uniform() < 0.5 else \
            _random_passive_jones(rng)
        engine = coincidence_probability(state, ProbeTransform((k,)), j)
        oracle = _bruteforce_joint(state.matrix, k, j)
        worst = max(worst, abs(engine - oracle))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, elapsed, f"1000 tuples, worst |engine - bruteforce| {worst:.2e}")


def test_criterion_05_half_turn_periodicity_and_closure():
    t0 = time.perf_counter()
    rho = bell_psi_plus()
    probe_j = compose(PROBE_ELEMENTS)
    templates = {
        "LP": element_jones(lp(0.0)),
        "QWP": element_jones(qwp(0.0)),
    }

    def response(j0, theta_deg):
        rot = rotation_jones(theta_deg)
        inv = rotation_jones(-theta_deg)
        k = probe_j @ (rot @ j0 @ inv)
        return np.array([
            coincidence_probability(rho, ProbeTransform((k,)), pj)
            for pj in PROJECTOR_JONES
        ])

    worst = 0.0
    thetas = np.arange(0.0, 180.0, 1.0)
    for family, j0 in templates.items():
        for theta in thetas:
            worst = max(worst, float(np.max(np.abs(
                response(j0, theta) - response(j0, theta + 180.0)
            ))))
        curve = sweep_family(rho, family, PROJECTOR_JONES,
                             probe_elements=PROBE_ELEMENTS, thetas=thetas)
        closure = float(np.max(np.abs(curve.raw[0] - response(j0, 180.0))))
        worst = max(worst, closure)
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, elapsed, f"period and loop-closure deviation {worst:.2e}")


def test_criterion_06_tomography_recovery():
    t0 = time.perf_counter()
    exact = tomo.reconstruct_mle(tomo.expected_records(bell_psi_plus(), 1e6))
    fid = fidelity(exact.rho)
    assert fid >= 0.9999

    truth = werner(0.92)
    model = countsim.CountModel(pair_rate=1e6, integration_time=1.0)
    worst = 0.0
    for seed in range(10):
        records = tomo.simulate_tomography(truth, model, seed=seed)
        result = tomo.reconstruct_mle(records)
        worst = max(worst, abs(concurrence(result.rho) - 0.88))
    assert worst <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        6,
        elapsed,
        f"clean fidelity {fid:.6f}, worst |concurrence - 0.88| {worst:.4f} "
        "over 10 seeds",
    )


def test_criterion_07_confidence_interval_coverage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    n_trials, n_runs, n_axes = 10_000, 8, 2
    mu, sigma = 0.3, 0.07
    draws = rng.normal(mu, sigma, size=(n_trials, n_runs, n_axes))
    mean = draws.mean(axis=1)
    std = draws.std(axis=1, ddof=1)
    tq = float(scipy_stats.t.ppf(0.975, n_runs - 1))
    ci = tq * std / math.sqrt(n_runs)
    covered = np.abs(mean - mu) <= ci
    coverage = covered.mean(axis=0)
    assert np.all(np.abs(coverage - 0.95) <= 0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        7,
        elapsed,
        "coverage per axis " + ", ".join(f"{c:.4f}" for c in coverage),
    )


def _discrimination_outcome(curve, thetas, integration_time, seed):
    model = countsim.CountModel(
        pair_rate=5000.0,
        integration_time=integration_time,
        coincidence_window=3e-9,
        singles_background=20000.0,
        drift_amplitude=0.02,
    )
    runs = countsim.simulate_runs(curve, model, 8, seed)
    corrected = countsim.correct_counts(runs, model)
    scale = float(np.max(corrected.mean(axis=0)))
    return discern.analyze_family("LP", thetas, corrected / scale)


def test_criterion_08_discrimination_trends():
    t0 = time.perf_counter()
    thetas = np.arange(0.0, 180.0, 2.0)
    curve = sweep_family(bell_psi_plus(), "LP", PROJECTOR_JONES,
                         probe_elements=PROBE_ELEMENTS, thetas=thetas)

    kept_counts = []
    for integration_time in (0.1, 1.0, 10.0):
        outcome = _discrimination_outcome(curve, thetas, integration_time, 0)
        kept_counts.append(len(outcome.kept))
    assert kept_counts[0] <= kept_counts[1] <= kept_counts[2]

    rich = _discrimination_outcome(curve, thetas, 10.0, 0)
    min_step = discern.step_stats(thetas[rich.kept]).min_deg
    assert min_step <= 2.0 + 1e-9

    violations = 0
    for seed in range(20):
        outcome = _discrimination_outcome(curve, thetas, 1.0, seed)
        kept = outcome.kept
        for x in range(len(kept)):
            for y in range(x + 1, len(kept)):
                if not discern.separable(outcome.regions[kept[x]],
                                         outcome.regions[kept[y]]):
                    violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        8,
        elapsed,
        f"kept {kept_counts} over rising exposure, min step {min_step:.1f} "
        "deg, 0 separability violations in 20 seeded runs",
    )


def test_criterion_09_optimizer_sanity():
    t0 = time.perf_counter()
    truth = ProjectorParam(qwp_deg=62.0, lp_deg=90.0)
    recovered, dist = nearest_feasible(truth.mueller())
    qwp_err = min(abs(recovered.qwp_deg - 62.0),
                  180.0 - abs(recovered.qwp_deg - 62.0))
    lp_err = min(abs(recovered.lp_deg - 90.0),
                 180.0 - abs(recovered.lp_deg - 90.0))
    assert dist < 1e-6
    assert qwp_err < 0.5 and lp_err < 0.5

    samples = (lp(0.0), lp(45.0))
    rho = bell_psi_plus()

    def toy(angle):
        return objective_min_separation(response_points(
            rho, sample_jones(samples), None,
            projector_jones((ProjectorParam(None, float(angle)),))))

    grid = np.arange(0.0, 180.0, 0.1)
    values = np.array([toy(a) for a in grid])
    argmaxes = grid[values >= values.max() - 1e-9]
    config = OptimizationConfig(
        samples=samples,
        projectors=(ProjectorParam(None, 20.0),),
        probe=None,
        restarts=8,
        max_evals=800,
        seed=3,
    )
    result = optimize(config)
    best = result.projectors[0].lp_deg % 180.0
    gap = min(
        min(abs(best - a), 180.0 - abs(best - a)) for a in argmaxes
    )
    assert gap < 0.5
    assert result.objective >= values.max() - 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        9,
        elapsed,
        f"target recovered to ({qwp_err:.2e}, {lp_err:.2e}) deg, toy "
        f"optimum {best:.3f} deg within {gap:.2e} of the grid oracle",
    )


DETERMINISM_CONFIG = """
seed: 13
runs: 4
state: {kind: werner, p: 0.92}
probe:
  elements:
    - {kind: retarder, angle_deg: 62.0, retardance_rad: 1.5707963267948966}
    - {kind: ideal_polarizer, angle_deg: 90.0}
projectors:
  - elements:
      - {kind: retarder, angle_deg: 170.0, retardance_rad: 1.5707963267948966}
      - {kind: ideal_polarizer, angle_deg: 7.5}
  - elements:
      - {kind: retarder, angle_deg: 18.0, retardance_rad: 1.5707963267948966}
      - {kind: ideal_polarizer, angle_deg: 110.0}
samples:
  - {family: LP, thetas: {start: 0, stop: 180, step: 15}}
counting:
  pair_rate: 100000
  integration_time: 1.0
  coincidence_window: 3.0e-9
  singles_background: 20000
  drift_amplitude: 0.02
optimize:
  samples:
    - {family: LP, theta_deg: 0.0}
    - {family: LP, theta_deg: 45.0}
  projectors:
    - {qwp_deg: null, lp_deg: 20.0}
  restarts: 4
  max_evals: 300
"""


def test_criterion_10_byte_reproducibility(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "exp.yaml"
    config.write_text(DETERMINISM_CONFIG)
    compared = 0
    for command in ("sweep", "discriminate", "tomo", "optimize"):
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        for out in (out_a, out_b):
            code = cli_main(
                [command, "--config", str(config), "--out", str(out)]
            )
            assert code == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            compared += 1
    elapsed = time.perf_counter() - t0
    _report(
        10,
        elapsed,
        f"{compared} output files byte-identical across repeated runs "
        "of all four commands",
    )
