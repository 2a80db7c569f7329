import warnings

import numpy as np
import numpy.testing as npt
import pytest

from ghostpol import ghost, polcalc
from ghostpol.ghost import (
    ResponseCurve,
    UnheraldableError,
    coincidence_probability,
    curve_to_csv,
    dataset_scale,
    heralded_idler,
    sample_element,
    sweep_family,
)
from ghostpol.polcalc import (
    EFFECT_TOL, PolElement, check_passive, compose, effect, element_jones,
)
from ghostpol.qstate import bell_psi_plus, werner
from helpers import (kron_loop_heralded_idler, kron_loop_probability, lp, qwp,
                     random_density, random_element, random_passive_jones)

RNG = np.random.default_rng(31337)


def random_chain():
    return compose([random_element(RNG) for _ in range(int(RNG.integers(1, 4)))])


def random_state():
    return werner(float(RNG.uniform())) if RNG.uniform() < 0.5 else random_density(RNG)


def random_channel():
    """Multi-Kraus probe: the Kraus pair {sqrt(w) J1, sqrt(1 - w) J2} of
    the convex mix w M(J1) + (1 - w) M(J2) of two element chains'
    Mueller matrices."""
    w = float(RNG.uniform(0.1, 0.9))
    return (np.sqrt(w) * random_chain(), np.sqrt(1.0 - w) * random_chain())


def signal_effect(kraus):
    """E = sum_k K_k^dagger K_k of a Kraus set, formed by the caller."""
    return sum(k.conj().T @ k for k in kraus)


def test_engine_matches_kron_loop_reference():
    for case in range(300):
        rho = random_state()
        kraus = random_channel() if case % 3 == 0 else (random_chain(),)
        e = signal_effect(kraus)
        j = random_chain() if case % 2 else random_passive_jones(RNG)
        for conditional in (False, True):
            new = coincidence_probability(rho, e, check_passive(j),
                                          conditional=conditional)
            assert isinstance(new, float)
            old = kron_loop_probability(rho, kraus, j, conditional=conditional)
            assert abs(new - old) <= 1e-15
        reduced, herald = heralded_idler(rho, e)
        ref_reduced, ref_herald = kron_loop_heralded_idler(rho, kraus)
        assert np.max(np.abs(reduced - ref_reduced)) <= 1e-15
        assert abs(herald - ref_herald) <= 1e-15


def test_stacked_engine_matches_kron_loop_reference():
    chains = np.stack([random_chain() for _ in range(7)])
    idlers = np.stack([random_chain() for _ in range(3)])
    stacked = check_passive(chains)
    f = check_passive(idlers)
    assert stacked.shape == (7, 2, 2) and f.shape == (3, 2, 2)
    for rho in (werner(0.92), random_density(RNG)):
        for conditional in (False, True):
            grid = coincidence_probability(rho, stacked, f,
                                           conditional=conditional)
            row = coincidence_probability(rho, stacked, f[1],
                                          conditional=conditional)
            col = coincidence_probability(rho, check_passive(chains[4]), f,
                                          conditional=conditional)
            assert grid.shape == (7, 3) and row.shape == (7,)
            assert col.shape == (3,)
            npt.assert_array_equal(row, grid[:, 1])
            npt.assert_array_equal(col, grid[4])
            for n in range(7):
                for m in range(3):
                    ref = kron_loop_probability(
                        rho, (chains[n],), idlers[m], conditional=conditional)
                    assert abs(grid[n, m] - ref) <= 1e-15
        reduced, herald = heralded_idler(rho, stacked)
        assert reduced.shape == (7, 2, 2) and herald.shape == (7,)
        for n in range(7):
            ref = kron_loop_heralded_idler(rho, (chains[n],))
            assert np.max(np.abs(reduced[n] - ref[0])) <= 1e-15
    # Validation covers every member of a stack.
    bad = chains.copy()
    bad[3] = 1.5 * np.eye(2)
    with pytest.raises(ValueError):
        check_passive(bad)
    with pytest.raises(ValueError):
        check_passive(1.5 * idlers)


@pytest.mark.parametrize("conditional", [False, True])
def test_engine_shapes_are_slices_of_the_stacked_grid(conditional):
    # Whatever the arms' shapes, each result has the bytes of the matching
    # slice of the one (n, m) grid over both flattened stacks: two 2x2
    # effects give a float, and otherwise e.shape[:-2] + f.shape[:-2].
    # Its own generator, so the draws of the other tests stay as they were.
    rng = np.random.default_rng(41)
    g = rng.normal(size=(10, 2, 2)) + 1.0j * rng.normal(size=(10, 2, 2))
    jones = g / (np.linalg.svd(g, compute_uv=False)[:, :1, None] + 1e-12)
    e = check_passive(jones[:6]).reshape(2, 3, 2, 2)
    f = check_passive(jones[6:])
    for rho in (werner(0.92), random_density(rng)):
        grid = coincidence_probability(rho, e.reshape(-1, 2, 2), f,
                                       conditional=conditional)
        assert grid.shape == (6, 4)
        cases = [(e[0, 2], f[1], (), grid[2, 1]),
                 (e[1], f[3], (3,), grid[3:, 3]),
                 (e[0, 1], f, (4,), grid[1]),
                 (e[1], f, (3, 4), grid[3:]),
                 (e, f, (2, 3, 4), grid.reshape(2, 3, 4))]
        for signal, idler, shape, expected in cases:
            got = coincidence_probability(rho, signal, idler,
                                          conditional=conditional)
            assert isinstance(got, float) == (shape == ())
            assert np.shape(got) == shape
            assert np.asarray(got).tobytes() == expected.tobytes()


def test_probe_transform_validation():
    # The probe arm's transform is bounded on its effect.
    with pytest.raises(ValueError, match="non-passive Jones matrix"):
        check_passive(np.diag([1.5, 0.0]))


NON_FINITE = [np.diag([np.nan, 1.0]), np.diag([np.inf, 0.5]),
              np.array([[0.5, 0.0], [np.nan, 0.5]]),
              np.stack([np.eye(2), np.diag([1.0, np.nan])])]


@pytest.mark.parametrize("op", NON_FINITE)
def test_non_finite_signal_operator_is_a_value_error(op):
    # The largest eigenvalue of a NaN effect is NaN, which compares false
    # against the bound, so the bound alone would accept it and every
    # probability would be NaN.  The matrix is checked before the bound:
    # inf - inf warns in its closed form.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Jones matrix must be finite"):
            check_passive(op)


@pytest.mark.parametrize("op", NON_FINITE)
def test_non_finite_idler_projector_is_a_value_error(op):
    # The engine takes effects as given; the idler arm is checked where
    # it enters, here in sweep_family.
    projectors = list(np.reshape(op, (-1, 2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Jones matrix must be finite"):
            sweep_family(bell_psi_plus(), "LP", projectors,
                         thetas=np.array([0.0, 30.0]))


def test_sweep_refuses_an_amplifying_idler_projector():
    projectors = [element_jones(lp(10.0)), np.diag([1.0 + 1e-6, 0.5])]
    with pytest.raises(ValueError, match="non-passive Jones matrix"):
        sweep_family(bell_psi_plus(), "QWP", projectors,
                     probe_elements=[qwp(62.0), lp(90.0)],
                     thetas=np.array([0.0, 30.0]))


@pytest.mark.parametrize("excess", [1.1e-9, 0.9e-9])
def test_both_arms_bound_the_effect(excess):
    # The bound is on lambda_max(J^dagger J) = sigma_max^2 in both arms:
    # sigma_max = sqrt(1 + 1.1e-9) ~ 1 + 5.5e-10 amplifies by 1.1e-9.
    # A QWP sample is unitary, so the signal chain keeps that sigma_max.
    jones = np.diag([np.sqrt(1.0 + excess), 0.0])
    thetas = np.array([0.0, 30.0])
    signal = dict(projectors=[np.eye(2)], probe_elements=[jones])
    idler = dict(projectors=[jones])
    for arm in (signal, idler):
        if excess > EFFECT_TOL:
            with pytest.raises(ValueError, match="non-passive Jones matrix"):
                sweep_family(bell_psi_plus(), "QWP", thetas=thetas, **arm)
        else:
            sweep_family(bell_psi_plus(), "QWP", thetas=thetas, **arm)
    if excess <= EFFECT_TOL:
        npt.assert_array_equal(check_passive(jones), effect(jones))


def test_both_arms_reach_one_passivity_check(monkeypatch):
    checked = []
    check = polcalc.check_passive

    def spy(jones):
        checked.append(np.shape(jones))
        return check(jones)

    monkeypatch.setattr(polcalc, "check_passive", spy)
    # The engine checks neither effect; a sweep checks each arm once.
    coincidence_probability(bell_psi_plus(), np.eye(2), np.eye(2))
    assert checked == []
    sweep_family(bell_psi_plus(), "LP", [element_jones(lp(a)) for a in (0.0, 45.0)],
                 probe_elements=[qwp(62.0)], thetas=np.arange(0.0, 180.0, 1.0),
                 conditional=True)
    assert checked == [(180, 2, 2), (2, 2, 2)]


def test_heralded_idler_anticorrelation():
    reduced, herald = heralded_idler(
        bell_psi_plus(), check_passive(element_jones(lp(0.0)))
    )
    assert abs(herald - 0.5) < 1e-12
    npt.assert_allclose(reduced, np.diag([0.5, 0.0]), atol=1e-12)


def test_heralded_idler_matches_direct_oracle():
    # With k = I the idler state is the partial trace over the signal:
    # I/2 for the Bell state, heralded with probability 1.
    cases = [(werner(0.92), element_jones(lp(37.0)), None),
             (bell_psi_plus(), np.eye(2), (np.eye(2) / 2.0, 1.0))]
    for rho, k, known in cases:
        reduced, herald = heralded_idler(rho, check_passive(k))
        expected, expected_herald = kron_loop_heralded_idler(rho, (k,))
        npt.assert_allclose(reduced, expected, atol=1e-12)
        assert abs(herald - expected_herald) < 1e-12
        if known is not None:
            npt.assert_allclose(reduced, known[0], atol=1e-12)
            assert abs(herald - known[1]) < 1e-12


def test_coincidences_of_crossed_and_parallel_analyzers():
    rho = bell_psi_plus()
    probe = check_passive(element_jones(lp(0.0)))
    same = coincidence_probability(rho, probe, check_passive(element_jones(lp(0.0))))
    crossed = coincidence_probability(rho, probe,
                                      check_passive(element_jones(lp(90.0))))
    assert abs(same) < 1e-12
    assert abs(crossed - 0.5) < 1e-12
    # Polarizers at a and 180 - a deg block every coincidence; on 124 of
    # these 360 angles the contraction rounds below 0, and the engine clamps.
    thetas = np.arange(0.0, 180.0, 0.5)
    grid = coincidence_probability(
        rho, check_passive(element_jones(lp(0.0), thetas)),
        check_passive(element_jones(lp(0.0), 180.0 - thetas)))
    assert np.all(grid >= 0.0) and np.all(np.diag(grid) < 1e-12)


def test_conditional_probability_normalizes_by_herald():
    rho = bell_psi_plus()
    probe = check_passive(element_jones(lp(0.0)))
    p = coincidence_probability(
        rho, probe, check_passive(element_jones(lp(90.0))), conditional=True
    )
    assert abs(p - 1.0) < 1e-12


def test_conditioning_on_dead_herald_raises():
    # A fully blocking probe arm never heralds, also inside a stack.
    f = check_passive(element_jones(lp(0.0)))
    with pytest.raises(UnheraldableError):
        coincidence_probability(
            bell_psi_plus(), np.zeros((2, 2)), f, conditional=True
        )
    stacked = np.stack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(UnheraldableError) as blocked:
        coincidence_probability(bell_psi_plus(), stacked, f, conditional=True)
    assert blocked.value.row == 1
    assert str(blocked.value) == "herald probability is zero"


def test_identity_probe_gives_half_for_any_polarizer():
    rho = bell_psi_plus()
    probe = check_passive(np.eye(2))
    for theta in RNG.uniform(0.0, 180.0, size=8):
        p = coincidence_probability(rho, probe,
                                    check_passive(element_jones(lp(theta))))
        assert abs(p - 0.5) < 1e-12


def test_joint_probability_against_bruteforce_oracle():
    for _ in range(50):
        rho = random_density(RNG)
        k = random_passive_jones(RNG)
        j = random_passive_jones(RNG)
        engine = coincidence_probability(rho, check_passive(k), check_passive(j))
        oracle = kron_loop_probability(rho, (k,), j)
        assert abs(engine - oracle) < 1e-12


def test_joint_never_exceeds_herald():
    for _ in range(20):
        rho = random_density(RNG)
        probe = check_passive(random_passive_jones(RNG))
        j = random_passive_jones(RNG)
        p = coincidence_probability(rho, probe, check_passive(j))
        _, herald = heralded_idler(rho, probe)
        assert p <= herald + 1e-12


def test_reduction_consistency():
    # The joint probability equals tr[J rho_r J^dagger] on the heralded
    # reduced state.
    for _ in range(20):
        rho = random_density(RNG)
        probe = check_passive(random_passive_jones(RNG))
        j = random_passive_jones(RNG)
        p = coincidence_probability(rho, probe, check_passive(j))
        reduced, _ = heralded_idler(rho, probe)
        assert abs(p - np.trace(j @ reduced @ j.conj().T).real) < 1e-12


def test_engine_is_linear_in_the_signal_effect():
    # A mixed signal arm w E1 + (1 - w) E2 gives the mix of the two
    # responses, so a Kraus set needs nothing beyond its summed effect.
    for _ in range(50):
        rho = random_density(RNG)
        e1, e2 = check_passive(random_chain()), check_passive(random_chain())
        f = check_passive(random_passive_jones(RNG))
        w = float(RNG.uniform())
        mixed = w * e1 + (1.0 - w) * e2
        p1, p2 = (coincidence_probability(rho, e, f) for e in (e1, e2))
        assert abs(coincidence_probability(rho, mixed, f)
                   - (w * p1 + (1.0 - w) * p2)) <= 1e-15
        (r1, h1), (r2, h2) = heralded_idler(rho, e1), heralded_idler(rho, e2)
        reduced, herald = heralded_idler(rho, mixed)
        assert np.max(np.abs(reduced - (w * r1 + (1.0 - w) * r2))) <= 1e-15
        assert abs(herald - (w * h1 + (1.0 - w) * h2)) <= 1e-15


def test_sweep_identity_sample_is_constant():
    template = PolElement("retarder", 0.0, retardance_rad=0.0)
    curve = sweep_family(
        bell_psi_plus(),
        "custom",
        [element_jones(lp(10.0))],
        thetas=np.arange(0.0, 180.0, 15.0),
        template=template,
    )
    npt.assert_allclose(curve.raw, np.full_like(curve.raw, curve.raw[0, 0]), atol=1e-12)


def per_family_sample_element(family, theta_deg, template=None):
    """sample_element as written out per family before the family table."""
    if family == "LP":
        return PolElement("ideal_polarizer", theta_deg)
    if family == "QWP":
        return PolElement("retarder", theta_deg, retardance_rad=np.pi / 2.0)
    return PolElement(template.kind, theta_deg, extinction=template.extinction,
                      retardance_rad=template.retardance_rad)


def test_sample_element_equals_per_family_construction():
    assert list(ghost.SAMPLE_FAMILIES) == ["LP", "QWP", "custom"]
    thetas = [0.0, 1e-12, 17.3, 90.0, 179.99999999999997, 180.0, 180.5,
              271.25, 359.9, 360.0, 1000.0, -0.5, -180.0]
    templates = [PolElement("ideal_polarizer", 33.0),
                 PolElement("partial_polarizer", 140.0, extinction=3.7),
                 PolElement("partial_polarizer", 5.0, extinction=np.inf),
                 PolElement("retarder", 71.0, retardance_rad=0.5),
                 PolElement("retarder", 0.0, retardance_rad=-7.0)]
    cases = [("LP", None), ("QWP", None)] + [("custom", t) for t in templates]
    for family, template in cases:
        for theta in thetas:
            new = sample_element(family, theta, template)
            old = per_family_sample_element(family, theta, template)
            assert new == old, (family, template, theta)
            assert new.theta_deg.hex() == old.theta_deg.hex()
            assert np.array_equal(element_jones(new), element_jones(old))


def test_sample_element_rejects_bad_family_or_template():
    with pytest.raises(ValueError, match="unknown sample family 'HWP'"):
        sample_element("HWP", 0.0)
    with pytest.raises(ValueError, match="unknown sample family"):
        sample_element(["LP"], 0.0)
    with pytest.raises(ValueError, match="custom family needs a template"):
        sample_element("custom", 0.0)
    for family in ("LP", "QWP"):
        with pytest.raises(ValueError, match=f"{family} family takes no template"):
            sample_element(family, 0.0, lp(0.0))


def test_sweep_closes_loop_over_half_turn():
    projs = [element_jones(p) for p in (lp(7.5), lp(110.0), lp(34.0))]
    for family in ("LP", "QWP"):
        curve = sweep_family(
            bell_psi_plus(), family, projs, probe_elements=[qwp(62.0), lp(90.0)],
            thetas=np.arange(0.0, 180.0, 30.0),
        )
        start = curve.raw[0]
        wrapped_sample = sample_element(family, 180.0)
        assert wrapped_sample.theta_deg == 0.0
        npt.assert_allclose(curve.raw[0], start, atol=1e-12)


def test_sweep_against_pointwise_computation():
    projs = [element_jones(qwp(45.0)) @ element_jones(lp(34.0))]
    thetas = np.array([0.0, 20.0, 40.0])
    curve = sweep_family(
        bell_psi_plus(), "LP", projs, probe_elements=[qwp(62.0), lp(90.0)],
        thetas=thetas,
    )
    for t, theta in enumerate(thetas):
        k = compose([lp(theta), qwp(62.0), lp(90.0)])
        p = coincidence_probability(
            bell_psi_plus(), check_passive(k), check_passive(projs[0])
        )
        assert abs(curve.raw[t, 0] - p) < 1e-12


def test_curve_grid_validation():
    with pytest.raises(ValueError):
        ResponseCurve("LP", np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ResponseCurve("LP", np.array([0.0, 190.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ResponseCurve("LP", np.array([0.0, 10.0]), np.zeros((3, 1)))


def test_curve_refuses_nan_angles():
    # A NaN angle fails every comparison, so the old checks kept it.
    message = r"^theta grid must be strictly increasing in \[0, 180\)$"
    for grid in ([np.nan], [np.nan, 10.0], [0.0, np.nan], [0.0, np.nan, 10.0]):
        with pytest.raises(ValueError, match=message):
            ResponseCurve("LP", np.array(grid), np.zeros((len(grid), 1)))


def test_normalize_dataset_shares_one_scale():
    c1 = ResponseCurve("LP", np.array([0.0, 10.0]), np.array([[0.2], [0.4]]))
    c2 = ResponseCurve("QWP", np.array([0.0, 10.0]), np.array([[0.1], [0.8]]))
    scale = dataset_scale(c.raw for c in (c1, c2))
    assert scale == 0.8
    assert abs(np.max(c2.raw / scale) - 1.0) < 1e-15
    npt.assert_allclose(c1.raw / scale, c1.raw / 0.8, atol=1e-15)
    assert np.max(c1.raw / scale) <= 1.0


def test_normalize_rejects_all_zero():
    c = ResponseCurve("LP", np.array([0.0]), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        dataset_scale([c.raw])
    # A largest response within the round-off bound is no signal either.
    for top in (1.9e-33, ghost.ROUNDOFF):
        with pytest.raises(ValueError, match="^cannot normalize an all-zero dataset$"):
            dataset_scale([np.array([[0.0, top]])])
    assert dataset_scale([np.array([[0.0, 2.0 * ghost.ROUNDOFF]])]) == 2e-12


def test_curve_csv_layout(tmp_path):
    projs = [element_jones(lp(a)) for a in (7.5, 110.0, 34.0)]
    curve = sweep_family(bell_psi_plus(), "LP", projs,
                         thetas=np.arange(0.0, 180.0, 1.0))
    scale = dataset_scale([curve.raw])
    path = str(tmp_path / "curve.csv")
    curve_to_csv(curve, scale, path)
    lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
    assert lines[0] == "theta_deg,P1,P2,P3,raw1,raw2,raw3"
    assert len(lines) == 181
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 7
