import numpy as np
import numpy.testing as npt
import pytest

from ghostpol.countsim import (
    TAG_CELL,
    TAG_RUN,
    TAG_START,
    CountModel,
    RunSet,
    correct_counts,
    runset_to_csv,
    simulate_counts,
    simulate_runs,
    stream,
)
from ghostpol.ghost import ResponseCurve
from helpers import ref_runset_to_csv

# Hand-worked correction example, frozen before the implementation ran.
# Model: accidentals 20000^2 * 3e-9 * 1 = 1.2 per cell, efficiency
# product 0.8 * 0.5 = 0.4.  Counts (2 runs, 1 theta, 2 projectors):
#   run 0: (10 - 1.2)/0.4 = 22,  (2 - 1.2)/0.4 = 2     total 24
#   run 1: (6 - 1.2)/0.4 = 12,   (1 - 1.2)/0.4 -> clip 0  total 12
# Mean total 18, so run 0 scales by 0.75 and run 1 by 1.5.
CORRECTION_ORACLE = np.array([[[16.5, 1.5]], [[18.0, 0.0]]])


def flat_curve(p=0.25, n_theta=4, n_proj=1):
    thetas = np.arange(n_theta, dtype=float)
    return ResponseCurve("LP", thetas, np.full((n_theta, n_proj), p))


def reference_runs(curve, model, n_runs, seed, family_tag=0):
    """Each run rebuilt from its own stream, one scalar draw at a time.

    Draw order: the drift uniform, the (theta, projector) counts in C
    order, then the two singles that ``simulate_runs`` once drew last
    and no longer draws: the counts must stay those of that stream.
    """
    n_theta, n_proj = curve.raw.shape
    counts = np.empty((n_runs, n_theta, n_proj))
    singles = np.empty((n_runs, 2))
    for r in range(n_runs):
        rng = stream(seed, (TAG_RUN, family_tag, r))
        drift = 1.0 + model.drift_amplitude * rng.uniform(-1.0, 1.0)
        for t in range(n_theta):
            for j in range(n_proj):
                p = min(max(curve.raw[t, j], 0.0), 1.0)
                mean = model.signal_mean(p, drift) + model.accidental_mean()
                counts[r, t, j] = rng.poisson(mean)
        for k in range(2):
            singles[r, k] = rng.poisson(
                model.singles_background * model.integration_time
            )
    return counts, singles


def test_model_validation():
    # A model that can only count zeros is refused; accidentals alone count.
    with pytest.raises(ValueError, match="every count would be 0"):
        CountModel(pair_rate=0.0, integration_time=1.0)
    CountModel(pair_rate=0.0, integration_time=1.0, coincidence_window=1e-9,
               singles_background=1e4)
    with pytest.raises(ValueError):
        CountModel(pair_rate=-1.0, integration_time=1.0)
    with pytest.raises(ValueError):
        CountModel(pair_rate=1.0, integration_time=0.0)
    with pytest.raises(ValueError):
        CountModel(pair_rate=1.0, integration_time=1.0, eff_signal=1.2)
    with pytest.raises(ValueError):
        CountModel(pair_rate=1.0, integration_time=1.0, coincidence_window=-1.0)
    with pytest.raises(ValueError):
        CountModel(pair_rate=1.0, integration_time=1.0, drift_amplitude=1.0)


@pytest.mark.parametrize("name", ["pair_rate", "integration_time",
                                  "coincidence_window", "singles_background"])
def test_model_refuses_non_finite_rates(name):
    # Accepted once; the first draw then failed inside numpy.
    model = dict(pair_rate=1e5, integration_time=1.0, coincidence_window=1e-9,
                 singles_background=1e4)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            CountModel(**{**model, name: bad})


def test_accidental_mean_value():
    model = CountModel(
        pair_rate=5000.0,
        integration_time=1.0,
        coincidence_window=3e-9,
        singles_background=20000.0,
    )
    assert abs(model.accidental_mean() - 1.2) < 1e-12


def test_signal_mean_composition():
    model = CountModel(
        pair_rate=2000.0, integration_time=2.0, eff_signal=0.5, eff_idler=0.25
    )
    assert abs(model.signal_mean(0.1) - 2000.0 * 2.0 * 0.5 * 0.25 * 0.1) < 1e-12
    assert abs(model.signal_mean(0.1, drift_factor=1.1) - 55.0) < 1e-12


def test_simulate_counts_is_deterministic():
    model = CountModel(pair_rate=1e4, integration_time=1.0)
    a = simulate_counts(0.3, model, stream(11, (0, 1, 2, 3)))
    b = simulate_counts(0.3, model, stream(11, (0, 1, 2, 3)))
    assert a == b
    c = simulate_counts(0.3, model, stream(11, (0, 1, 2, 4)))
    d = simulate_counts(0.3, model, stream(12, (0, 1, 2, 3)))
    assert isinstance(a, int)
    # Distinct streams are overwhelmingly unlikely to collide at this mean.
    assert (a != c) or (a != d)


def test_simulate_counts_rejects_bad_probability():
    model = CountModel(pair_rate=1e4, integration_time=1.0)
    for p in (1.5, -0.2, np.nan):
        with pytest.raises(ValueError):
            simulate_counts(p, model, stream(0, ()))


def test_zero_probability_zero_background_gives_zero():
    model = CountModel(pair_rate=1e6, integration_time=1.0)
    for key in range(20):
        assert simulate_counts(0.0, model, stream(3, (TAG_CELL, key))) == 0


def test_poisson_mean_and_variance():
    model = CountModel(pair_rate=4000.0, integration_time=1.0,
                       coincidence_window=3e-9, singles_background=20000.0)
    runs = simulate_runs(flat_curve(p=0.25, n_theta=4), model, n_runs=500, seed=5)
    mean = model.signal_mean(0.25) + model.accidental_mean()
    draws = runs.counts.ravel()
    n = draws.size
    assert abs(draws.mean() - mean) < 4.0 * np.sqrt(mean / n)
    assert 0.85 < draws.var() / mean < 1.15


def test_runs_are_reproducible_and_schedule_independent():
    model = CountModel(pair_rate=3000.0, integration_time=1.0,
                       drift_amplitude=0.05)
    curve = flat_curve(p=0.4, n_theta=5, n_proj=2)
    a = simulate_runs(curve, model, n_runs=3, seed=21)
    b = simulate_runs(curve, model, n_runs=3, seed=21)
    npt.assert_array_equal(a.counts, b.counts)
    # Extending the schedule must not disturb earlier runs.
    c = simulate_runs(curve, model, n_runs=5, seed=21)
    npt.assert_array_equal(c.counts[:3], a.counts)
    d = simulate_runs(curve, model, n_runs=3, seed=21, family_tag=1)
    assert np.any(d.counts != a.counts)
    with pytest.raises(ValueError, match="^need at least one run$"):
        simulate_runs(curve, model, n_runs=0, seed=21)


@pytest.mark.parametrize("drift", [0.0, 0.1])
def test_runs_match_per_run_stream_reference(drift):
    # Means from below 1 to ~1e5 cover both of numpy's Poisson samplers;
    # the edge values exercise the clip to [0, 1].
    raw = np.array([[0.0, 1.0, -1e-13], [1.0 + 1e-13, 0.5, 2e-5],
                    [0.3, 1e-4, 0.75], [0.05, 0.9, 1e-3]])
    curve = ResponseCurve("QWP", np.array([0.0, 10.0, 20.0, 30.0]), raw)
    model = CountModel(pair_rate=1e5, integration_time=1.0, eff_signal=0.9,
                       eff_idler=0.7, coincidence_window=3e-9,
                       singles_background=2e4, drift_amplitude=drift)
    for tag in (0, 2):
        runs = simulate_runs(curve, model, n_runs=4, seed=17, family_tag=tag)
        counts, singles = reference_runs(curve, model, 4, 17, family_tag=tag)
        npt.assert_array_equal(runs.counts, counts)


def test_run_does_not_depend_on_run_count():
    model = CountModel(pair_rate=3000.0, integration_time=1.0,
                       singles_background=500.0, drift_amplitude=0.05)
    curve = flat_curve(p=0.4, n_theta=5, n_proj=2)
    full = simulate_runs(curve, model, n_runs=6, seed=4, family_tag=1)
    for n in (1, 2, 5):
        part = simulate_runs(curve, model, n_runs=n, seed=4, family_tag=1)
        npt.assert_array_equal(part.counts, full.counts[:n])


def test_run_and_cell_streams_are_disjoint():
    # Tomography cells use (TAG_CELL, 3, idx), the same key length as a
    # run's (TAG_RUN, family_tag, r); the optimizer's starts use (TAG_START,).
    assert len({TAG_CELL, TAG_RUN, TAG_START}) == 3


@pytest.mark.parametrize("p", [1.5, -0.2, np.nan])
def test_simulate_runs_rejects_bad_probability(p):
    model = CountModel(pair_rate=1e4, integration_time=1.0)
    raw = np.full((3, 2), 0.5)
    raw[1, 1] = p
    with pytest.raises(ValueError, match="joint probability"):
        simulate_runs(ResponseCurve("LP", np.arange(3.0), raw), model, 2, seed=0)


def test_drift_scales_whole_run():
    # With large counts the per-run totals separate cleanly when drift
    # is on and cluster when it is off.
    curve = flat_curve(p=0.5, n_theta=6)
    quiet = CountModel(pair_rate=2e6, integration_time=1.0)
    noisy = CountModel(pair_rate=2e6, integration_time=1.0, drift_amplitude=0.2)
    t_quiet = simulate_runs(curve, quiet, n_runs=12, seed=9).counts.sum(axis=(1, 2))
    t_noisy = simulate_runs(curve, noisy, n_runs=12, seed=9).counts.sum(axis=(1, 2))
    assert t_noisy.std() > 10.0 * t_quiet.std()


def test_correction_matches_hand_oracle():
    model = CountModel(
        pair_rate=1000.0,
        integration_time=1.0,
        eff_signal=0.8,
        eff_idler=0.5,
        coincidence_window=3e-9,
        singles_background=20000.0,
        drift_amplitude=0.1,
    )
    runs = RunSet(thetas=np.array([0.0]),
                  counts=np.array([[[10.0, 2.0]], [[6.0, 1.0]]]))
    npt.assert_allclose(correct_counts(runs, model), CORRECTION_ORACLE, atol=1e-12)


def test_correction_removes_drift():
    curve = flat_curve(p=0.5, n_theta=6)
    model = CountModel(pair_rate=2e6, integration_time=1.0, drift_amplitude=0.2)
    runs = simulate_runs(curve, model, n_runs=10, seed=2)
    corrected = correct_counts(runs, model)
    totals = corrected.sum(axis=(1, 2))
    npt.assert_allclose(totals, totals[0], rtol=1e-12)
    raw_spread = runs.counts.sum(axis=(1, 2)).std()
    assert totals.std() < 1e-6 * raw_spread


def test_correction_error_cases():
    runs = RunSet(thetas=np.array([0.0]), counts=np.array([[[4.0]]]))
    # A zero efficiency cannot be corrected for, so no model holds one.
    with pytest.raises(ValueError, match=r"eff_signal must lie in \(0, 1\]"):
        CountModel(pair_rate=1.0, integration_time=1.0, eff_signal=0.0)
    swamped = CountModel(
        pair_rate=1.0,
        integration_time=1.0,
        coincidence_window=1e-6,
        singles_background=1e5,
    )
    with pytest.raises(ValueError, match="^run 0 is all zero after corrections$"):
        correct_counts(runs, swamped)
    # 5 accidentals per cell: run 0 keeps 4 counts, runs 1 and 2 none.
    runs = RunSet(np.array([0.0]), np.array([[[9.0]], [[4.0]], [[2.0]]]))
    with pytest.raises(ValueError, match="^run 1 is all zero after corrections$"):
        correct_counts(runs, CountModel(pair_rate=1.0, integration_time=5e-4,
                                        coincidence_window=1e-6,
                                        singles_background=1e5))


def test_runset_validation():
    with pytest.raises(ValueError):
        RunSet(np.array([0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="^run 0 has all-zero counts$"):
        RunSet(np.array([0.0]), np.zeros((2, 1, 1)))
    with pytest.raises(ValueError, match="^run 1 has all-zero counts$"):
        RunSet(np.array([0.0]), np.array([[[1.0]], [[0.0]], [[0.0]]]))
    for shape in ((0, 1, 1), (2, 0, 1)):
        with pytest.raises(ValueError, match="^RunSet needs at least one run and "
                                             "one theta$"):
            RunSet(np.zeros(shape[1]), np.ones(shape))
    ok = RunSet(np.array([0.0]), np.ones((2, 1, 1)))
    assert ok.counts.shape[0] == 2


def test_runset_csv_layout(tmp_path):
    curve = flat_curve(p=0.3, n_theta=3, n_proj=2)
    model = CountModel(pair_rate=5e4, integration_time=1.0)
    runs = simulate_runs(curve, model, n_runs=2, seed=1)
    corrected = correct_counts(runs, model)
    path = str(tmp_path / "runs.csv")
    runset_to_csv(runs, corrected, path)
    lines = (tmp_path / "runs.csv").read_text().strip().split("\n")
    assert lines[0] == "run,theta_deg,projector_index,raw,corrected"
    assert len(lines) == 1 + 2 * 3 * 2
    row = lines[1].split(",")
    assert row[0] == "0" and row[2] == "0"
    assert float(row[3]) == runs.counts[0, 0, 0]


def test_runset_csv_matches_reference_writer(tmp_path):
    rng = np.random.default_rng(3)
    path, want = str(tmp_path / "runs.csv"), str(tmp_path / "want.csv")
    for n_runs, n_theta, n_proj in [(1, 1, 1), (3, 7, 2), (8, 45, 3)]:
        thetas = np.sort(rng.uniform(0.0, 180.0, n_theta))
        thetas[0] = 0.0
        counts = rng.poisson(rng.lognormal(5.0, 4.0, (n_runs, n_theta, n_proj)))
        counts = counts.astype(float) + 1.0
        corrected = counts * rng.lognormal(0.0, 3.0, counts.shape)
        corrected.flat[::5] = 0.0
        corrected.flat[-1] = 1e-300
        runs = RunSet(thetas, counts)
        runset_to_csv(runs, corrected, path)
        ref_runset_to_csv(runs, corrected, want)
        with open(path, encoding="utf-8") as fh, open(want, encoding="utf-8") as ref:
            assert fh.read() == ref.read()
