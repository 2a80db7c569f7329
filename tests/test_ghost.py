import numpy as np
import numpy.testing as npt
import pytest

from ghostpol import ghost
from ghostpol.ghost import (
    ProbeTransform,
    ResponseCurve,
    UnheraldableError,
    coincidence_probability,
    curve_to_csv,
    dataset_scale,
    default_theta_grid,
    heralded_idler,
    sample_element,
    sweep_family,
)
from ghostpol.polcalc import (
    PolElement, check_passive, compose, element_jones, jones_to_mueller,
)
from ghostpol.qstate import TwoQubitDensity, bell_psi_plus, werner

RNG = np.random.default_rng(31337)


def lp(theta):
    return PolElement("ideal_polarizer", theta)


def qwp(theta):
    return PolElement("retarder", theta, retardance_rad=np.pi / 2.0)


def random_density():
    g = RNG.normal(size=(4, 4)) + 1.0j * RNG.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitDensity(rho / np.trace(rho))


def random_passive_jones():
    g = RNG.normal(size=(2, 2)) + 1.0j * RNG.normal(size=(2, 2))
    return g / (np.linalg.svd(g, compute_uv=False)[0] + 1e-12)


def joint_probability_oracle(rho, k, j):
    """tr[(K x J) rho (K x J)^dagger] by explicit index sums."""
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


def kron_loop_probability(rho, probe, idler_jones, conditional=False):
    """The engine before the effect contraction, kept as the reference:
    one 4x4 Kraus conjugation per Kraus operator, herald from the
    explicit partial trace."""
    j = np.asarray(idler_jones, dtype=complex)
    p = 0.0
    for k in probe.kraus:
        big = np.kron(k, j)
        p += float(np.real(np.trace(big @ rho.matrix @ big.conj().T)))
    p = max(p, 0.0)
    if not conditional:
        return p
    _, herald = kron_loop_heralded_idler(rho, probe)
    return p / herald


def kron_loop_heralded_idler(rho, probe):
    out = np.zeros((2, 2), dtype=complex)
    for k in probe.kraus:
        big = np.kron(k, np.eye(2, dtype=complex))
        joint = big @ rho.matrix @ big.conj().T
        out += np.trace(joint.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    out = 0.5 * (out + out.conj().T)
    return out, float(np.real(np.trace(out)))


def random_element():
    kind = RNG.choice(["ideal_polarizer", "partial_polarizer", "retarder"])
    theta = float(RNG.uniform(0.0, 180.0))
    if kind == "partial_polarizer":
        return PolElement(kind, theta, extinction=float(RNG.uniform(1.0, 20.0)))
    if kind == "retarder":
        return PolElement(kind, theta,
                          retardance_rad=float(RNG.uniform(0.0, 2.0 * np.pi)))
    return lp(theta)


def random_chain():
    return compose([random_element() for _ in range(int(RNG.integers(1, 4)))])


def random_state():
    return werner(float(RNG.uniform())) if RNG.uniform() < 0.5 else random_density()


def random_channel():
    """Multi-Kraus probe: a convex mix of two element chains' Mueller
    matrices, which from_mueller splits into several Kraus operators."""
    w = float(RNG.uniform(0.1, 0.9))
    m = w * jones_to_mueller(random_chain()) + \
        (1.0 - w) * jones_to_mueller(random_chain())
    return ProbeTransform.from_mueller(m)


def test_engine_matches_kron_loop_reference():
    for case in range(300):
        rho = random_state()
        probe = random_channel() if case % 3 == 0 else \
            ProbeTransform.from_jones(random_chain())
        j = random_chain() if case % 2 else random_passive_jones()
        for conditional in (False, True):
            new = coincidence_probability(rho, probe, j, conditional=conditional)
            assert isinstance(new, float)
            old = kron_loop_probability(rho, probe, j, conditional=conditional)
            assert abs(new - old) <= 1e-15
        reduced, herald = heralded_idler(rho, probe)
        ref_reduced, ref_herald = kron_loop_heralded_idler(rho, probe)
        assert np.max(np.abs(reduced - ref_reduced)) <= 1e-15
        assert abs(herald - ref_herald) <= 1e-15
    assert len(random_channel().kraus) > 1


def test_stacked_engine_matches_kron_loop_reference():
    chains = np.stack([random_chain() for _ in range(7)])
    idlers = np.stack([random_chain() for _ in range(3)])
    stacked = ProbeTransform.from_jones(chains)
    assert stacked.effect.shape == (7, 2, 2)
    for rho in (werner(0.92), random_density()):
        for conditional in (False, True):
            grid = coincidence_probability(rho, stacked, idlers,
                                           conditional=conditional)
            row = coincidence_probability(rho, stacked, idlers[1],
                                          conditional=conditional)
            col = coincidence_probability(
                rho, ProbeTransform.from_jones(chains[4]), idlers,
                conditional=conditional)
            assert grid.shape == (7, 3) and row.shape == (7,)
            assert col.shape == (3,)
            npt.assert_array_equal(row, grid[:, 1])
            npt.assert_array_equal(col, grid[4])
            for n in range(7):
                for m in range(3):
                    ref = kron_loop_probability(
                        rho, ProbeTransform((chains[n],)), idlers[m],
                        conditional=conditional)
                    assert abs(grid[n, m] - ref) <= 1e-15
        reduced, herald = heralded_idler(rho, stacked)
        assert reduced.shape == (7, 2, 2) and herald.shape == (7,)
        for n in range(7):
            ref = kron_loop_heralded_idler(rho, ProbeTransform((chains[n],)))
            assert np.max(np.abs(reduced[n] - ref[0])) <= 1e-15
    # Validation covers every member of a stack.
    bad = chains.copy()
    bad[3] = 1.5 * np.eye(2)
    with pytest.raises(ValueError):
        ProbeTransform.from_jones(bad)
    with pytest.raises(ValueError):
        ProbeTransform((bad,))
    with pytest.raises(ValueError):
        coincidence_probability(werner(0.5), stacked, 1.5 * idlers)
    with pytest.raises(ValueError):
        ProbeTransform((np.eye(2), np.zeros((3, 2, 2))))


def test_probe_transform_validation():
    with pytest.raises(ValueError):
        ProbeTransform(())
    with pytest.raises(ValueError):
        ProbeTransform((np.eye(3),))
    with pytest.raises(ValueError):
        ProbeTransform((np.diag([1.5, 0.0]),))
    # Two balanced branches of a depolarizing-style map stay admissible.
    ProbeTransform((np.diag([0.7, 0.0]), np.diag([0.0, 0.7])))


NON_FINITE = [np.diag([np.nan, 1.0]), np.diag([np.inf, 0.5]),
              np.array([[0.5, 0.0], [np.nan, 0.5]]),
              np.stack([np.eye(2), np.diag([1.0, np.nan])])]


@pytest.mark.parametrize("op", NON_FINITE)
def test_non_finite_signal_operator_is_a_value_error(op):
    # eigvalsh of a NaN effect returns finite values, so the Kraus-sum
    # bound alone would accept it and every probability would be NaN.
    with pytest.raises(ValueError, match="Kraus operators must be finite"):
        ProbeTransform((op,))
    with pytest.raises(ValueError, match="Kraus operators must be finite"):
        ProbeTransform((np.zeros_like(op), op))


@pytest.mark.parametrize("op", NON_FINITE)
def test_non_finite_idler_projector_is_a_value_error(op):
    # The SVD of the passivity check fails on NaN with LinAlgError.
    probe = ProbeTransform.from_jones(element_jones(lp(0.0), np.array([0.0, 30.0])))
    with pytest.raises(ValueError, match="Jones matrix must be finite"):
        coincidence_probability(bell_psi_plus(), probe, op)
    with pytest.raises(ValueError, match="Jones matrix must be finite"):
        check_passive(op)


def test_kraus_bound_rejects_every_non_passive_jones():
    # from_jones relies on the Kraus-sum bound alone: lambda_max(J^dagger J)
    # is the squared largest singular value, so every matrix that
    # check_passive rejects must fail it too.  The samples sit on the
    # edge, with largest singular value within 3e-9 of 1.
    rng = np.random.default_rng(7)
    jones = rng.normal(size=(20000, 2, 2)) + 1.0j * rng.normal(size=(20000, 2, 2))
    smax = np.linalg.svd(jones, compute_uv=False)[:, 0]
    jones *= ((1.0 + rng.uniform(-3e-9, 3e-9, size=20000)) / smax)[:, None, None]
    rejected = 0
    for j in jones:
        try:
            check_passive(j)
        except ValueError:
            rejected += 1
            with pytest.raises(ValueError):
                ProbeTransform.from_jones(j)
    assert rejected > 1000


def test_heralded_idler_anticorrelation():
    reduced, herald = heralded_idler(
        bell_psi_plus(), ProbeTransform.from_elements([lp(0.0)])
    )
    assert abs(herald - 0.5) < 1e-12
    npt.assert_allclose(reduced, np.diag([0.5, 0.0]), atol=1e-12)


def test_heralded_idler_matches_direct_oracle():
    rho = werner(0.92)
    probe = ProbeTransform.from_elements([lp(37.0)])
    reduced, herald = heralded_idler(rho, probe)
    k = probe.kraus[0]
    big = np.kron(k, np.eye(2))
    joint = big @ rho.matrix @ big.conj().T
    expected = joint.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    npt.assert_allclose(reduced, expected, atol=1e-12)
    assert abs(herald - np.trace(expected).real) < 1e-12


def test_coincidences_of_crossed_and_parallel_analyzers():
    rho = bell_psi_plus()
    probe = ProbeTransform.from_elements([lp(0.0)])
    same = coincidence_probability(rho, probe, element_jones(lp(0.0)))
    crossed = coincidence_probability(rho, probe, element_jones(lp(90.0)))
    assert abs(same) < 1e-12
    assert abs(crossed - 0.5) < 1e-12


def test_conditional_probability_normalizes_by_herald():
    rho = bell_psi_plus()
    probe = ProbeTransform.from_elements([lp(0.0)])
    p = coincidence_probability(
        rho, probe, element_jones(lp(90.0)), conditional=True
    )
    assert abs(p - 1.0) < 1e-12


def test_conditioning_on_dead_herald_raises():
    # A fully blocking probe arm never heralds, also inside a stack.
    blocking = ProbeTransform((np.zeros((2, 2)),))
    with pytest.raises(UnheraldableError):
        coincidence_probability(
            bell_psi_plus(), blocking, element_jones(lp(0.0)), conditional=True
        )
    stacked = ProbeTransform((np.stack([np.eye(2), np.zeros((2, 2))]),))
    with pytest.raises(UnheraldableError):
        coincidence_probability(
            bell_psi_plus(), stacked, element_jones(lp(0.0)), conditional=True
        )


def test_identity_probe_gives_half_for_any_polarizer():
    rho = bell_psi_plus()
    probe = ProbeTransform.from_jones(np.eye(2))
    for theta in RNG.uniform(0.0, 180.0, size=8):
        p = coincidence_probability(rho, probe, element_jones(lp(theta)))
        assert abs(p - 0.5) < 1e-12


def test_joint_probability_against_bruteforce_oracle():
    for _ in range(50):
        rho = random_density()
        k = random_passive_jones()
        j = random_passive_jones()
        engine = coincidence_probability(rho, ProbeTransform((k,)), j)
        oracle = joint_probability_oracle(rho.matrix, k, j)
        assert abs(engine - oracle) < 1e-12


def test_joint_never_exceeds_herald():
    for _ in range(20):
        rho = random_density()
        probe = ProbeTransform((random_passive_jones(),))
        j = random_passive_jones()
        p = coincidence_probability(rho, probe, j)
        _, herald = heralded_idler(rho, probe)
        assert p <= herald + 1e-12


def test_reduction_consistency():
    # The joint probability equals tr[J rho_r J^dagger] on the heralded
    # reduced state.
    for _ in range(20):
        rho = random_density()
        probe = ProbeTransform((random_passive_jones(),))
        j = random_passive_jones()
        p = coincidence_probability(rho, probe, j)
        reduced, _ = heralded_idler(rho, probe)
        assert abs(p - np.trace(j @ reduced @ j.conj().T).real) < 1e-12


def test_kraus_mixing_invariance():
    # A unitary remix of the Kraus set describes the same map.
    k1 = 0.6 * random_passive_jones()
    k2 = 0.6 * random_passive_jones()
    u = np.linalg.qr(RNG.normal(size=(2, 2)) + 1.0j * RNG.normal(size=(2, 2)))[0]
    mixed = (
        u[0, 0] * k1 + u[0, 1] * k2,
        u[1, 0] * k1 + u[1, 1] * k2,
    )
    rho = random_density()
    a = ProbeTransform((k1, k2))
    b = ProbeTransform(mixed)
    j = random_passive_jones()
    assert abs(
        coincidence_probability(rho, a, j) - coincidence_probability(rho, b, j)
    ) < 1e-12
    ra, ha = heralded_idler(rho, a)
    rb, hb = heralded_idler(rho, b)
    npt.assert_allclose(ra, rb, atol=1e-12)
    assert abs(ha - hb) < 1e-12


def test_nonphysical_mueller_probe_refused():
    with pytest.raises(ValueError):
        ProbeTransform.from_mueller(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_probe_from_mueller_matches_jones_route():
    rho = random_density()
    j_sample = element_jones(qwp(25.0))
    via_jones = ProbeTransform.from_jones(j_sample)
    via_mueller = ProbeTransform.from_mueller(jones_to_mueller(j_sample))
    proj = element_jones(lp(120.0))
    assert abs(
        coincidence_probability(rho, via_jones, proj)
        - coincidence_probability(rho, via_mueller, proj)
    ) < 1e-10


def test_default_grid_covers_half_turn():
    grid = default_theta_grid()
    assert grid.size == 180
    assert grid[0] == 0.0
    assert grid[-1] == 179.0


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
            bell_psi_plus(), ProbeTransform((k,)), projs[0]
        )
        assert abs(curve.raw[t, 0] - p) < 1e-12


def test_curve_grid_validation():
    with pytest.raises(ValueError):
        ResponseCurve("LP", np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ResponseCurve("LP", np.array([0.0, 190.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ResponseCurve("LP", np.array([0.0, 10.0]), np.zeros((3, 1)))


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


def test_curve_csv_layout(tmp_path):
    projs = [element_jones(lp(a)) for a in (7.5, 110.0, 34.0)]
    curve = sweep_family(bell_psi_plus(), "LP", projs)
    scale = dataset_scale([curve.raw])
    path = str(tmp_path / "curve.csv")
    curve_to_csv(curve, scale, path)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "theta_deg,P1,P2,P3,raw1,raw2,raw3"
    assert len(lines) == 181
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 7
