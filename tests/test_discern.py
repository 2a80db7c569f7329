import copy

import numpy as np
import numpy.testing as npt
import pytest

from ghostpol import discern
from ghostpol.discern import (
    DistinguishabilityReport,
    EllipsoidRegion,
    FamilyOutcome,
    analyze_families,
    analyze_family,
    cross_family_exclusions,
    max_distinguishable_subset,
    report_to_csv,
    separable,
    separation_margin,
    step_stats,
    summarize,
    summary_text,
)
from helpers import random_report, ref_report_to_csv

RNG = np.random.default_rng(77)

# Frozen by hand: eight symmetric values have sample variance
# (49+25+9+1)*2/7 = 24, and the 97.5% t quantile at 7 dof is 2.364624,
# so the CI half-width is 2.364624 * sqrt(24/8) = 4.09565.
EIGHT_POINT_CLOUD = np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0])
EXPECTED_STD = np.sqrt(24.0)
EXPECTED_CI95 = 4.09565


def cloud_family(name, centers, sigma, n_runs=8, seed=0):
    """Synthetic (runs, thetas, axes) clouds around given 2D centers."""
    centers = np.asarray(centers, dtype=float)
    rng = np.random.default_rng(seed)
    pts = centers[None, :, :] + sigma * rng.normal(
        size=(n_runs, centers.shape[0], centers.shape[1])
    )
    thetas = np.linspace(0.0, 160.0, centers.shape[0])
    return analyze_family(name, thetas, pts)


def stack(regions):
    """One (m, d) region stack from a list of single regions."""
    return EllipsoidRegion(np.array([r.center for r in regions]),
                           np.array([r.semi_axes for r in regions]))


def test_summarize_matches_hand_computation():
    mean, std, ci95 = summarize(EIGHT_POINT_CLOUD[:, None])
    assert abs(mean[0]) < 1e-12
    assert abs(std[0] - EXPECTED_STD) < 1e-12
    assert abs(ci95[0] - EXPECTED_CI95) < 1e-4


def test_summarize_needs_two_runs():
    with pytest.raises(ValueError):
        summarize(np.array([[1.0, 2.0]]))


def test_region_floors_zero_width_axes():
    mean, _, ci95 = summarize(np.array([[1.0, 5.0], [1.0, 5.0], [1.0, 5.0]]))
    region = EllipsoidRegion(mean, ci95)
    assert np.all(region.semi_axes > 0.0)


def test_region_rows_are_not_floored_again():
    floored = EllipsoidRegion(np.array([[3.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2)))
    assert floored.semi_axes.tolist() == [[3e-12, 3e-12], [1e-12, 1e-12]]
    # Rows index the floored arrays as they are: a slice is a view.
    assert np.shares_memory(floored[1:].semi_axes, floored.semi_axes)
    row = floored[1]
    assert row.center.tolist() == [0.0, 0.0]
    assert row.semi_axes.tolist() == [1e-12, 1e-12]
    rows = floored[[1, 0], None]
    assert rows.center.shape == (2, 1, 2)
    npt.assert_array_equal(rows.semi_axes[:, 0], floored.semi_axes[[1, 0]])


def test_region_shape_mismatch():
    with pytest.raises(ValueError):
        EllipsoidRegion(center=np.zeros(2), semi_axes=np.ones(3))


def test_separability_one_dimensional_oracle():
    a = EllipsoidRegion(np.array([0.0]), np.array([1.0]))
    b = EllipsoidRegion(np.array([3.0]), np.array([1.0]))
    c = EllipsoidRegion(np.array([1.9]), np.array([1.0]))
    touching = EllipsoidRegion(np.array([2.0]), np.array([1.0]))
    assert separable(a, b)
    assert not separable(a, c)
    assert not separable(a, a)
    assert not separable(a, touching)
    stack = EllipsoidRegion(np.array([[3.0], [1.9], [0.0], [2.0]]),
                            np.ones((4, 1)))
    assert separable(a, stack).tolist() == [True, False, False, False]


def test_separation_margin_two_dimensional_oracle():
    # Centers 5 apart along u = (0.6, 0.8); supports sqrt(2.92) and
    # sqrt(2.08) sum to 3.15102, leaving 1.84898 of slack.
    a = EllipsoidRegion(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    b = EllipsoidRegion(np.array([3.0, 4.0]), np.array([2.0, 1.0]))
    assert abs(separation_margin(a, b) - 1.84898) < 1e-4
    assert separable(a, b)
    assert separation_margin(a, a) < 0.0


def test_margin_sign_agrees_with_predicate():
    for _ in range(200):
        a = EllipsoidRegion(RNG.uniform(-1, 1, 2), RNG.uniform(0.01, 0.5, 2))
        b = EllipsoidRegion(RNG.uniform(-1, 1, 2), RNG.uniform(0.01, 0.5, 2))
        assert separable(a, b) == (separation_margin(a, b) > 0.0)
        assert separable(a, b) == separable(b, a)


def test_greedy_subset_oracle():
    semis = np.array([0.6])
    regions = [
        EllipsoidRegion(np.array([c]), semis) for c in (0.0, 1.0, 2.0, 10.0)
    ]
    assert max_distinguishable_subset(stack(regions)) == [0, 2, 3]


def test_greedy_subset_keeps_first_of_identical():
    region = EllipsoidRegion(np.array([0.5]), np.array([0.1]))
    assert max_distinguishable_subset(stack([region] * 5)) == [0]


def test_greedy_subset_is_mutually_separable():
    for trial in range(50):
        regions = [
            EllipsoidRegion(RNG.uniform(0, 1, 2), RNG.uniform(0.005, 0.08, 2))
            for _ in range(30)
        ]
        kept = max_distinguishable_subset(stack(regions))
        for x in range(len(kept)):
            for y in range(x + 1, len(kept)):
                assert separable(regions[kept[x]], regions[kept[y]])


def test_cross_family_drops_larger_region():
    wide = cloud_family("LP", [[0.0, 0.0]], sigma=0.2, seed=1)
    narrow = cloud_family("QWP", [[0.02, 0.0]], sigma=0.01, seed=2)
    exclusions = cross_family_exclusions(wide, narrow)
    assert wide.kept == [] and wide.cross_excluded == [0]
    assert narrow.kept == [0]
    assert len(exclusions) == 1
    assert exclusions[0][0] == "LP" and exclusions[0][2] == "QWP"


def test_cross_family_tie_drops_second_family():
    a = cloud_family("LP", [[0.0, 0.0]], sigma=0.05, seed=3)
    b = cloud_family("QWP", [[0.0, 0.0]], sigma=0.05, seed=3)
    exclusions = cross_family_exclusions(a, b)
    assert a.kept == [0]
    assert b.kept == [] and b.cross_excluded == [0]
    assert exclusions[0][0] == "QWP"


def test_cross_family_leaves_separated_pairs_alone():
    a = cloud_family("LP", [[0.0, 0.0], [1.0, 0.0]], sigma=0.005, seed=4)
    b = cloud_family("QWP", [[0.0, 1.0], [1.0, 1.0]], sigma=0.005, seed=5)
    assert cross_family_exclusions(a, b) == []
    assert a.kept == [0, 1] and b.kept == [0, 1]


def test_cross_family_with_nothing_kept_excludes_nothing():
    a = cloud_family("LP", [[0.0, 0.0]], sigma=0.05, seed=3)
    b = cloud_family("QWP", [[0.0, 0.0]], sigma=0.05, seed=3)
    b.kept = []
    for pair in ((a, b), (b, a)):
        assert cross_family_exclusions(*pair) == []
        assert a.kept == [0] and a.cross_excluded == b.cross_excluded == []


def test_step_stats_oracle():
    median, largest, smallest = step_stats(np.array([0.0, 30.0, 90.0]))
    assert median == 60.0
    assert largest == 90.0
    assert smallest == 30.0
    assert all(type(v) is float for v in (median, largest, smallest))


def test_step_stats_degenerate_cases():
    assert step_stats(np.array([40.0])) == (180.0, 180.0, 180.0)
    with pytest.raises(ValueError):
        step_stats(np.array([]))


def test_step_stats_median_equals_numpy_median():
    for size in range(2, 60):
        if size % 3:
            thetas = np.sort(RNG.uniform(0.0, 180.0, size))
        else:
            # Uniform grids: equal gaps, so the two middle values tie.
            thetas = np.arange(size) * (180.0 / size) + RNG.uniform(0.0, 1.0)
        gaps = np.append(np.diff(thetas), 180.0 - thetas[-1] + thetas[0])
        median, _, _ = step_stats(RNG.permutation(thetas))
        assert median == float(np.median(gaps))


def test_t975_table_equals_stdtrit():
    pytest.importorskip("scipy")
    from scipy import special

    assert len(discern._T975) == 63
    for n in range(2, 65):
        assert discern.t975(n) == float(special.stdtrit(n - 1, 0.975)), n
    assert discern.t975(8) == 2.364624251592784


def test_t975_above_the_table_is_within_1e_13_of_stdtrit():
    pytest.importorskip("scipy")
    from scipy import special

    n = np.arange(65, 10 ** 6 + 1)
    # The uncached function, so that 10^6 values do not fill the cache.
    ours = np.array([discern.t975.__wrapped__(k) for k in n.tolist()])
    rel = np.abs(ours / special.stdtrit(n - 1, 0.975) - 1.0)
    assert rel.max() <= 1e-13, n[np.argmax(rel)]


def test_t975_above_the_table_needs_no_scipy():
    # The series at the normal quantile, and the Newton step on the exact
    # two-sided probability (A&S 26.7.3-4), checked at small df by hand.
    assert discern._t_within(1.0, 2) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-15)
    assert discern._t_within(1.0, 3) == pytest.approx(
        2.0 / np.pi * (np.pi / 6.0 + 0.5 * np.sqrt(3.0) / 2.0), rel=1e-15)
    assert discern.t975(100) == pytest.approx(1.9842169515864174, rel=1e-13)
    with pytest.raises(ValueError):
        discern.t975(1)


def test_t_within_equals_scipy_at_small_df():
    # At df = 1 the odd series is empty: 2 theta / pi, 0.7048 at t = 2.
    stats = pytest.importorskip("scipy.stats")
    t = np.array([0.05, 0.5, 1.0, 2.0, 5.0, 40.0])
    for df in range(1, 11):
        ours = [discern._t_within(x, df) for x in t.tolist()]
        npt.assert_allclose(ours, stats.t.cdf(t, df) - stats.t.sf(t, df), rtol=1e-13, err_msg=df)


def test_analyze_family_keeps_well_separated_clouds():
    centers = [[0.0, 0.0], [0.4, 0.1], [0.8, 0.3], [0.2, 0.9]]
    outcome = cloud_family("LP", centers, sigma=0.002, seed=6)
    assert outcome.kept == [0, 1, 2, 3]
    assert outcome.stats.shape == (3, 4, 2)
    assert outcome.regions.center.shape == outcome.regions.semi_axes.shape == (4, 2)


def test_analyze_family_collapses_identical_clouds():
    centers = [[0.5, 0.5]] * 6
    outcome = cloud_family("LP", centers, sigma=0.05, seed=7)
    assert len(outcome.kept) <= 2


def test_analyze_families_fills_steps_and_exclusions():
    a = cloud_family("LP", [[0.0, 0.0], [1.0, 0.0]], sigma=0.004, seed=8)
    b = cloud_family("QWP", [[1.0 + 1e-4, 1e-4], [0.0, 1.0]], sigma=0.08, seed=9)
    report = analyze_families([a, b])
    assert isinstance(report, DistinguishabilityReport)
    assert a.kept and step_stats(a.thetas[a.kept])[2] > 0.0
    assert len(report.exclusions) >= 1
    dropped = report.exclusions[0]
    assert dropped[0] == "QWP"


def test_report_csv_and_summary(tmp_path):
    a = cloud_family("LP", [[0.0, 0.0], [1.0, 0.0]], sigma=0.004, seed=10)
    report = analyze_families([a])
    path = str(tmp_path / "report.csv")
    report_to_csv(report, path)
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert lines[0] == (
        "family,theta_deg,kept,cross_excluded,"
        "mean1,mean2,std1,std2,ci95_1,ci95_2"
    )
    assert len(lines) == 3
    text = summary_text(report)
    assert "family LP: kept 2 of 2 orientations" in text
    assert "cross-family exclusions: none" in text


# Reference: the scalar pair-at-a-time code that the broadcasting
# kernel replaced.  The oracle tests below require identical decisions,
# margins, kept lists and exclusion rows from the batched code.

def ref_support(region, u):
    return float(np.sqrt(np.sum((region.semi_axes * u) ** 2)))


def ref_separable(a, b):
    delta = b.center - a.center
    dist = float(np.sqrt(np.add.reduce(delta * delta)))
    if dist <= 0.0:
        return False
    u = delta / dist
    return ref_support(a, u) + ref_support(b, u) < dist


def ref_margin(a, b):
    delta = b.center - a.center
    dist = float(np.sqrt(np.add.reduce(delta * delta)))
    if dist <= 0.0:
        u = np.zeros(a.center.shape)
        u[0] = 1.0
    else:
        u = delta / dist
    return dist - ref_support(a, u) - ref_support(b, u)


def ref_apart(a, rows):
    """ref_separable of region ``a`` against each row of a stack, in turn."""
    return (ref_separable(a, rows[k]) for k in range(len(rows.center)))


# The one reference greedy and exclusion walk, in the orders that the
# package's docstrings state, over a predicate of one region against a
# stack of rows.  The scalar-reference tests pass ref_apart.  The
# windowed, non-finite and dense tests pass the package's separable,
# which then tests each row against every kept row: no window and no
# pruning, the "unpruned" references that those tests name.

def ref_greedy(regions, apart):
    kept = []
    for i in range(len(regions.center)):
        if all(apart(regions[i], regions[kept])):
            kept.append(i)
    # Every kept pair was tested on admission and the predicate is
    # symmetric, so the first and last kept rows are separable.
    assert len(kept) < 2 or all(apart(regions[kept[-1]], regions[kept[:1]]))
    return kept


def ref_exclusions(outcome_a, outcome_b, apart):
    """Still-kept pairs in row-major order over kept_a x kept_b."""
    exclusions = []
    for i in list(outcome_a.kept):
        ra, cols = outcome_a.regions[i], list(outcome_b.kept)
        for j, ok in zip(cols, apart(ra, outcome_b.regions[cols])):
            if ok:
                continue
            pair = [(outcome_a, i), (outcome_b, j)]
            a_loses = np.max(ra.semi_axes) > np.max(outcome_b.regions[j].semi_axes)
            (loser, t), (other, o) = pair if a_loses else pair[::-1]
            loser.kept.remove(t)
            loser.cross_excluded.append(t)
            exclusions.append((loser.family, float(loser.thetas[t]),
                               other.family, float(other.thetas[o])))
            if a_loses:
                break
    return exclusions


def random_regions(rng, n, d, spread=1.0):
    """Regions with repeated centers and semi-axes drawn from few values.

    The few semi-axis values (0.0 is floored) make exact ties in the
    largest semi-axis common; every fifth center repeats another.
    """
    centers = rng.uniform(0.0, spread, (n, d))
    centers[rng.integers(0, n, n // 5)] = centers[rng.integers(0, n, n // 5)]
    semis = rng.choice([0.0, 0.01, 0.02, 0.04, 0.07], size=(n, d))
    return [EllipsoidRegion(c, s) for c, s in zip(centers, semis)]


def random_outcome(rng, family, n, d, spread):
    regions = stack(random_regions(rng, n, d, spread))
    return FamilyOutcome(
        family=family,
        thetas=np.sort(rng.uniform(0.0, 180.0, n)),
        stats=None,
        regions=regions,
        kept=ref_greedy(regions, ref_apart),
    )


# Axis counts of the scalar-reference tests: numpy sums 8 or more
# contiguous terms pairwise, fewer in order, so both sides of 8 and a
# count past 12.
AXIS_COUNTS = (*range(1, 13), 16)


def test_separable_broadcasts_like_scalar_reference():
    rng = np.random.default_rng(11)
    seen_zero_distance = 0
    for d in AXIS_COUNTS:
        regions = random_regions(rng, 24, d, spread=0.3 / np.sqrt(d))
        stacked = stack(regions)
        want = [[ref_separable(a, b) for b in regions] for a in regions]
        want_margin = [[ref_margin(a, b) for b in regions] for a in regions]
        for a, row, margin_row in zip(regions, want, want_margin):
            got = separable(a, stacked)
            margins = separation_margin(a, stacked)
            assert got.dtype == bool and got.shape == (24,)
            assert got.tolist() == row, d
            assert margins.tolist() == margin_row, d
            assert separable(a, regions[0]) is row[0]
            assert separation_margin(a, regions[0]) == margin_row[0]
        # Operands of unequal rank, either way round.
        assert separable(stacked[:, None], stacked).tolist() == want
        assert separation_margin(stacked[:, None], stacked).tolist() == want_margin
        flipped = separation_margin(regions[3], stacked[:, None, None])
        assert flipped.shape == (24, 1, 1)
        assert flipped[:, 0, 0].tolist() == [ref_margin(regions[3], b) for b in regions]
        # Zero-distance rows: the region against itself and repeated centers.
        same = np.array([[(a.center == b.center).all() for b in regions] for a in regions])
        assert not np.array(want)[same].any()
        seen_zero_distance += int(same.sum()) - 24
    assert seen_zero_distance > 0


def test_margins_do_not_depend_on_the_operands_memory_layout():
    # From 8 axes on, numpy sums a contiguous last axis pairwise and a
    # strided one in order.  The scalar references pin the contiguous
    # order; a Fortran-ordered stack must give the same margins.
    rng = np.random.default_rng(17)
    for d in AXIS_COUNTS:
        for nonfinite in (None, np.nan):
            rows = mixed_stack(rng, 70, d, nonfinite=nonfinite)
            fortran = EllipsoidRegion(np.asfortranarray(rows.center),
                                      np.asfortranarray(rows.semi_axes))
            pick = rng.integers(0, 70, 50)
            for a, b in (((slice(0, 32), None), pick), (pick, 5),
                         (3, (slice(None), None, None))):
                with np.errstate(invalid="ignore"):
                    want = separation_margin(rows[a], rows[b]).tobytes()
                    assert separation_margin(fortran[a], fortran[b]).tobytes() == want, d
                    assert separation_margin(fortran[a], rows[b]).tobytes() == want, d


def test_greedy_subset_matches_scalar_reference():
    rng = np.random.default_rng(12)
    for trial in range(78):
        d = AXIS_COUNTS[trial % len(AXIS_COUNTS)]
        spread = rng.uniform(0.05, 1.0) / np.sqrt(d)
        regions = stack(random_regions(rng, 60, d, spread=spread))
        assert max_distinguishable_subset(regions) == ref_greedy(regions, ref_apart)
    assert max_distinguishable_subset(
        EllipsoidRegion(np.zeros((0, 2)), np.zeros((0, 2)))) == []
    # The sweep admits rows 32 at a time: sizes on both sides of a block
    # edge, a stack of one repeated center and floored zero-width
    # regions on a coarse lattice (many repeated centers).
    for n in (1, 31, 32, 33, 65, 300):
        for d in (1, 2, 3, 8, 16):
            cases = [
                random_regions(rng, n, d, spread=rng.uniform(0.05, 1.0) / np.sqrt(d)),
                [EllipsoidRegion(np.full(d, 0.3), s)
                 for s in rng.choice([0.0, 0.01], size=(n, d))],
                [EllipsoidRegion(c, np.zeros(d))
                 for c in np.round(rng.uniform(0.0, 1.0, (n, d)), 1)],
            ]
            for regions in map(stack, cases):
                assert (max_distinguishable_subset(regions)
                        == ref_greedy(regions, ref_apart)), (n, d)
            assert max_distinguishable_subset(stack(cases[1])) == [0]


def test_cross_family_exclusions_match_scalar_reference():
    rng = np.random.default_rng(13)
    seen_a_drop = seen_b_drop = 0
    for trial in range(39):
        d = AXIS_COUNTS[trial % len(AXIS_COUNTS)]
        spread = rng.uniform(0.1, 0.6) / np.sqrt(d)
        families = [random_outcome(rng, name, 30, d, spread)
                    for name in ("LP", "QWP", "custom")]
        expected = copy.deepcopy(families)
        ref_rows = []
        for i in range(3):
            for j in range(i + 1, 3):
                ref_rows += ref_exclusions(expected[i], expected[j], ref_apart)
        report = analyze_families(families)
        assert report.exclusions == ref_rows
        for got, want in zip(families, expected):
            assert got.kept == want.kept
            assert got.cross_excluded == want.cross_excluded
        seen_a_drop += sum(row[0] == "LP" for row in ref_rows)
        seen_b_drop += sum(row[0] == "QWP" for row in ref_rows)
    assert seen_a_drop > 0 and seen_b_drop > 0


def test_report_csv_matches_row_by_row_reference(tmp_path):
    rng = np.random.default_rng(14)
    seen_empty_kept = seen_crossed = 0
    for trial in range(60):
        report = random_report(rng, d=1 + trial % 3)
        report_to_csv(report, str(tmp_path / "got.csv"))
        ref_report_to_csv(report, str(tmp_path / "want.csv"))
        got, want = (tmp_path / "got.csv"), (tmp_path / "want.csv")
        assert got.read_bytes() == want.read_bytes()
        seen_empty_kept += sum(not f.kept for f in report.families)
        seen_crossed += sum(bool(f.cross_excluded) for f in report.families)
    assert seen_empty_kept > 0 and seen_crossed > 0
    empty = DistinguishabilityReport(families=[], exclusions=[])
    report_to_csv(empty, str(tmp_path / "empty.csv"))
    header = (tmp_path / "empty.csv").read_text()
    assert header == "family,theta_deg,kept,cross_excluded\n"


@pytest.mark.parametrize("n_runs", [2, 3, 8, 65, 1000])
def test_summarize_is_bit_equal_to_numpy_mean_and_std(n_runs):
    rng = np.random.default_rng(n_runs)
    for n_axes in (1, 2, 3, 4):
        # Offsets far above the spread, so that the summation order shows.
        runs = (rng.uniform(-1e3, 1e3, (1, 5, n_axes))
                + rng.normal(size=(n_runs, 5, n_axes)) * 10.0 ** rng.uniform(-6, 1))
        clouds = [runs[:, 2, :], np.ascontiguousarray(runs.transpose(1, 0, 2))[2]]
        nan_cloud = runs[:, 3, :].copy()
        nan_cloud[n_runs // 2, 0] = np.nan
        for cloud in clouds + [nan_cloud]:
            mean, std, ci95 = summarize(cloud)
            want = np.std(cloud, axis=0, ddof=1)
            assert mean.tobytes() == np.mean(cloud, axis=0).tobytes()
            assert std.tobytes() == want.tobytes()
            assert ci95.tobytes() == (discern.t975(n_runs) * want
                                      / np.sqrt(n_runs)).tobytes()
        assert np.isnan(mean[0]) and np.isnan(std[0]) and np.isnan(ci95[0])
        assert np.isfinite(mean[1:]).all()


@pytest.mark.parametrize("n_runs", [2, 3, 7, 8, 9, 16, 64, 129])
def test_run_stats_bits_do_not_depend_on_memory_layout(n_runs):
    # From 8 runs numpy sums a run axis that is its inner loop pairwise,
    # as in a Fortran-ordered cloud; C order fixes the summation order.
    rng = np.random.default_rng(n_runs)
    for n_axes in range(1, 17):
        runs = (rng.uniform(-1e3, 1e3, (1, 5, n_axes))
                + rng.normal(size=(n_runs, 5, n_axes)) * 10.0 ** rng.uniform(-6, 1))
        want = [x.tobytes() for x in discern.run_stats(runs[:, 2].copy())]
        clouds = [runs[:, 2], np.asfortranarray(runs[:, 2]),
                  np.ascontiguousarray(runs.transpose(1, 0, 2))[2]]
        for cloud in clouds:
            for stats in (summarize(cloud), discern.run_stats(cloud)):
                assert [x.tobytes() for x in stats] == want
        stack = [x.tobytes() for x in discern.run_stats(runs)]
        assert [x.tobytes() for x in discern.run_stats(np.asfortranarray(runs))] == stack


def test_analyze_family_takes_an_empty_grid():
    outcome = analyze_family("LP", np.zeros(0), np.zeros((8, 0, 3)))
    assert outcome.stats.shape == (3, 0, 3) and outcome.kept == []


def mixed_stack(rng, n, d, wide=False, nonfinite=None):
    """Mixed radii over five decades, repeated centers, one wide row or
    rows with a NaN or inf center or semi-axis."""
    centers = rng.uniform(0.0, rng.uniform(0.05, 2.0), (n, d))
    centers[rng.integers(0, n, n // 4)] = centers[rng.integers(0, n, n // 4)]
    centers[:, 0] = np.round(centers[:, 0], int(rng.integers(1, 4)))
    semis = 10.0 ** rng.uniform(-6.0, -1.0, (n, d))
    if wide:
        semis[rng.integers(0, n)] = 0.5
    if nonfinite is not None:
        for row in rng.integers(0, n, 2):
            target = centers if rng.random() < 0.5 else semis
            target[row, rng.integers(0, d)] = nonfinite
    return EllipsoidRegion(centers, semis)


def assert_same_exclusions(outcomes):
    expected = copy.deepcopy(outcomes)
    want = []
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            want += ref_exclusions(expected[i], expected[j], separable)
    assert analyze_families(outcomes).exclusions == want
    for got, ref in zip(outcomes, expected):
        assert got.kept == ref.kept
        assert got.cross_excluded == ref.cross_excluded
    return want


def test_windowed_greedy_and_exclusions_match_unpruned_references():
    rng = np.random.default_rng(15)
    seen_exclusions = 0
    for trial in range(120):
        d = 1 + trial % 3
        wide = trial % 4 == 1
        nonfinite = (None, None, np.nan, np.inf, -np.inf)[trial % 5]
        outcomes = []
        for name in ("LP", "QWP"):
            regions = mixed_stack(rng, int(rng.integers(1, 200)), d, wide, nonfinite)
            with np.errstate(all="ignore"):
                kept = max_distinguishable_subset(regions)
                assert kept == ref_greedy(regions, separable), trial
            outcomes.append(FamilyOutcome(
                name, np.arange(len(regions.center), dtype=float), None,
                regions, kept))
        with np.errstate(all="ignore"):
            seen_exclusions += len(assert_same_exclusions(outcomes))
    assert seen_exclusions > 50


def test_window_reaches_touching_rows_and_wide_block_rows():
    # 1-D rows whose center distance equals their summed semi-axes touch,
    # so they are not separable: the window of row 32's block must still
    # hold row 0.
    center = np.concatenate([[0.0], 100.0 + 10.0 * np.arange(31), [2.0]])[:, None]
    semi = np.concatenate([[1.0], np.full(31, 0.1), [1.0]])[:, None]
    touching = EllipsoidRegion(center, semi)
    assert max_distinguishable_subset(touching) == list(range(32))
    # A wide block row must widen the window beyond the kept rows' reach.
    center = np.append(np.arange(32.0) * 0.1, 1.0 + 31 * 0.1)[:, None]
    semi = np.append(np.full(32, 0.01), 1.0)[:, None]
    regions = EllipsoidRegion(center, semi)
    assert max_distinguishable_subset(regions) == ref_greedy(regions, separable)
    assert max_distinguishable_subset(regions) == list(range(32))


def test_nonfinite_rows_are_tested_against_every_kept_row():
    # A row with a number that is not finite separates from nothing.  It
    # comes first in its block and lies far from every kept row on
    # axis 0, so an axis-0 window would hold no kept row.
    finite = np.column_stack([np.arange(64.0) * 10.0, np.zeros(64)])
    cases = [([5000.0, np.inf], [0.1, 0.1]), ([5000.0, -np.inf], [0.1, 0.1]),
             ([5000.0, np.nan], [0.1, 0.1]), ([np.nan, 0.0], [0.1, 0.1]),
             ([5000.0, 0.0], [0.1, np.nan]), ([5000.0, 0.0], [np.inf, 0.1])]
    for bad_center, bad_semi in cases:
        center = np.vstack([finite, [bad_center], finite[:31] + 9000.0])
        semi = np.vstack([np.full((64, 2), 0.1), [bad_semi], np.full((31, 2), 0.1)])
        regions = EllipsoidRegion(center, semi)
        with np.errstate(all="ignore"):
            kept = max_distinguishable_subset(regions)
            assert kept == ref_greedy(regions, separable), bad_center
            assert 64 not in kept and len(kept) == 95
            # The same row kept first: nothing after it is admitted.
            first = regions[[64] + list(range(64))]
            assert max_distinguishable_subset(first) == ref_greedy(first, separable) == [0]
            # A kept row of one family that is not finite collides with
            # every kept row of the other, near or not.
            outcomes = [FamilyOutcome(name, np.arange(65.0), None, rows,
                                      list(range(len(rows.center))))
                        for name, rows in (("LP", first), ("QWP", regions[:64]))]
            assert len(assert_same_exclusions(outcomes)) >= 1


DENSE = """
seed: 1
runs: {runs}
probe: {{elements: [{{kind: retarder, angle_deg: 62.0, retardance_rad: 1.5707963267948966}},
                   {{kind: partial_polarizer, angle_deg: 90.0, extinction: 3.7}}]}}
projectors: [{{elements: [{{kind: retarder, angle_deg: 18.0, retardance_rad: 1.5707963267948966}},
                         {{kind: ideal_polarizer, angle_deg: 110.0}}]}}]
samples: [{samples}]
counting: {{pair_rate: {rate}, integration_time: 1.0}}
"""


def dense_outcomes(families, step, runs, rate):
    """The families of the one-projector ``dense`` config at another size,
    scaled as ``cli.cmd_discriminate`` scales them."""
    from ghostpol import cli, configio, ghost

    samples = ", ".join(f"{{family: {f}, thetas: {{start: 0, stop: 180, step: {step}}}}}"
                        for f in families)
    cfg = configio.parse_config_text(DENSE.format(runs=runs, samples=samples, rate=rate))
    curves = cli._sweep_curves(cfg)
    corrected = [corr for _, corr in cli._measure(cfg, curves)]
    scale = ghost.dataset_scale(discern.run_stats(c)[0] for c in corrected)
    return [analyze_family(curve.family, curve.thetas, corr / scale)
            for curve, corr in zip(curves, corrected)]


@pytest.mark.parametrize("families, step, runs, rate, n_exclusions", [
    (["LP"], 0.1, 111, 1.0e14, 0),            # dense, 1,800 of 18,000 rows
    (["LP", "QWP"], 0.2, 30, 1.0e9, 40),      # dense-2, 900 of 9,000 rows
    (["LP", "QWP"], 0.4, 8, 1.0e8, 57),
])
def test_dense_configs_at_reduced_size_match_unpruned_references(
        families, step, runs, rate, n_exclusions):
    outcomes = dense_outcomes(families, step, runs, rate)
    for o in outcomes:
        assert o.kept == ref_greedy(o.regions, separable)
        assert len(o.kept) > 100
    assert len(assert_same_exclusions(outcomes)) == n_exclusions


def test_cross_family_exclusions_memory_is_bounded_by_the_window():
    import tracemalloc

    # Two families of 3,000 kept rows along one curve; the second is
    # shifted so that some of its rows collide with the first.  Testing
    # every pair at once would take about 9M pairs x 46 bytes.
    x = np.linspace(0.0, 10.0, 3000)
    outcomes = []
    for name, shift in (("LP", 0.0), ("QWP", 0.0021)):
        center = np.column_stack([x + shift, np.sin(x)])
        semi = np.full(center.shape, 1e-3)
        semi[::7] = 2e-3
        outcomes.append(FamilyOutcome(name, x, None, EllipsoidRegion(center, semi),
                                      list(range(3000))))
    tracemalloc.start()
    try:
        exclusions = cross_family_exclusions(*outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(exclusions) > 100
    assert peak < 8 * 2 ** 20, peak


def test_report_csv_matches_one_format_per_row_writer(tmp_path):
    rng = np.random.default_rng(16)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for trial in range(40):
        report = random_report(rng, d=1 + trial % 4)
        report.families[0].family = "%s%%d"
        if trial % 5 == 0:
            d = report.families[0].stats.shape[2]
            empty = np.zeros((0, d))
            report.families.append(FamilyOutcome(
                "none", np.zeros(0), np.zeros((3, 0, d)),
                EllipsoidRegion(empty, empty), []))
        report_to_csv(report, str(got))
        ref_report_to_csv(report, str(want))
        assert got.read_bytes() == want.read_bytes()
