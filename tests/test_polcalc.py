import numpy as np
import numpy.testing as npt
import pytest

from ghostpol import qstate, tomo
from ghostpol.polcalc import (
    EFFECT_TOL,
    ELEMENT_KINDS,
    PAULIS,
    QWP,
    STOKES_OPS,
    PolElement,
    check_passive,
    compose,
    effect,
    element_jones,
    jones_to_mueller,
    oriented_jones,
)
from helpers import (FOREIGN_PARAMETERS, REF_PROBE_THREE, REF_PROBE_TWO, loop_mueller,
                     qwp, random_element, reference_jones, rotation_jones)

RNG = np.random.default_rng(20240814)


# Test-only Stokes helpers, referenced to the same vertical axis as
# ``STOKES_OPS``.
def stokes_from_jones_vector(vec: np.ndarray) -> np.ndarray:
    """Stokes vector of a (possibly unnormalized) Jones vector."""
    v = np.asarray(vec, dtype=complex).reshape(2)
    return np.real(np.trace(STOKES_OPS @ np.outer(v, v.conj()), axis1=1, axis2=2))


def coherency_from_stokes(stokes: np.ndarray) -> np.ndarray:
    """Coherency matrix C with tr(sigma_i C) = S_i."""
    s = np.asarray(stokes, dtype=float).reshape(4)
    return 0.5 * np.tensordot(s, STOKES_OPS, 1)


def test_rotation_quarter_turn():
    npt.assert_allclose(rotation_jones(90.0), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_rotation_matches_trig():
    t = np.deg2rad(30.0)
    expected = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    npt.assert_allclose(rotation_jones(30.0), expected, atol=1e-15)


def test_rotation_composition():
    for a, b in RNG.uniform(0.0, 360.0, size=(20, 2)):
        npt.assert_allclose(
            rotation_jones(a) @ rotation_jones(b),
            rotation_jones(a + b),
            atol=1e-12,
        )


def test_ideal_polarizer_axis_vertical():
    npt.assert_allclose(
        element_jones(PolElement("ideal_polarizer", 0.0)),
        np.diag([0.0, 1.0]),
        atol=1e-15,
    )


def test_ideal_polarizer_rotated_to_horizontal():
    npt.assert_allclose(
        element_jones(PolElement("ideal_polarizer", 90.0)),
        np.diag([1.0, 0.0]),
        atol=1e-15,
    )


def test_partial_polarizer_amplitude():
    j = element_jones(PolElement("partial_polarizer", 0.0, extinction=3.7))
    npt.assert_allclose(j, np.diag([1.0 / np.sqrt(3.7), 1.0]), atol=1e-15)
    assert abs(j[0, 0].real - 0.51988) < 1e-5


def test_quarter_wave_at_45_matches_composition_oracle():
    r = rotation_jones(45.0)
    expected = r @ np.diag([1.0j, 1.0]) @ r.conj().T
    npt.assert_allclose(element_jones(qwp(45.0)), expected, atol=1e-14)


def test_element_periodicity():
    for _ in range(20):
        el = random_element(RNG)
        shifted = PolElement(el.kind, el.theta_deg + 180.0,
                             extinction=el.extinction,
                             retardance_rad=el.retardance_rad)
        npt.assert_allclose(element_jones(el), element_jones(shifted), atol=1e-12)
        assert 0.0 <= shifted.theta_deg < 180.0


@pytest.mark.parametrize("theta", [-1e-20, -1e-14])
def test_tiny_negative_angles_reduce_to_zero(theta):
    # theta % 180 rounds to 180.0; the second % 180 maps it to 0.
    for el in (PolElement("ideal_polarizer", 0.0), qwp(0.0),
               PolElement("partial_polarizer", 0.0, extinction=3.7)):
        tiny = PolElement(el.kind, theta, el.extinction, el.retardance_rad)
        assert tiny.theta_deg == 0.0
        zero = element_jones(el).tobytes()
        assert element_jones(tiny).tobytes() == zero
        assert element_jones(el, np.array([30.0, theta]))[1].tobytes() == zero


def test_closed_form_matches_matrix_products():
    for _ in range(200):
        el = random_element(RNG)
        npt.assert_allclose(element_jones(el), reference_jones([el]),
                            rtol=0, atol=1e-15)


def test_element_stack_equals_elementwise_calls():
    # Angles outside [0, 180) reduce like an element's own orientation.
    thetas = np.concatenate([RNG.uniform(-400.0, 400.0, size=40),
                             [0.0, 45.0, 90.0, 180.0, -90.0]])
    for _ in range(6):
        el = random_element(RNG)
        stack = element_jones(el, thetas)
        assert stack.shape == (thetas.size, 2, 2)
        for t, theta in enumerate(thetas):
            single = element_jones(PolElement(
                el.kind, float(theta), extinction=el.extinction,
                retardance_rad=el.retardance_rad))
            assert np.array_equal(stack[t], single)
    assert element_jones(qwp(0.0), np.zeros((3, 4))).shape == (3, 4, 2, 2)


def test_oriented_jones_takes_a_factor_per_angle():
    # One call over mixed kinds equals one element_jones call per element.
    elements = [random_element(RNG) for _ in range(30)]
    factors = np.array([
        0.0 if el.kind == "ideal_polarizer" else
        1.0 / np.sqrt(el.extinction) if el.kind == "partial_polarizer" else
        np.exp(1.0j * el.retardance_rad)
        for el in elements])
    stack = oriented_jones(factors, [el.theta_deg for el in elements])
    for jones, el in zip(stack, elements):
        assert np.array_equal(jones, element_jones(el))
    assert oriented_jones(0.5, np.zeros((3, 4))).shape == (3, 4, 2, 2)


def test_compose_broadcasts_stacks():
    a = [random_element(RNG) for _ in range(3)]
    thetas = RNG.uniform(0.0, 180.0, size=5)
    stack = compose([element_jones(a[0], thetas), a[1], element_jones(a[2])])
    assert stack.shape == (5, 2, 2)
    for t, theta in enumerate(thetas):
        first = PolElement(a[0].kind, float(theta), extinction=a[0].extinction,
                           retardance_rad=a[0].retardance_rad)
        assert np.array_equal(stack[t], compose([first, a[1], a[2]]))


def test_element_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PolElement("partial_polarizer", 0.0, extinction=0.5)
    with pytest.raises(ValueError):
        PolElement("retarder", 0.0)
    with pytest.raises(ValueError):
        PolElement("circular_polarizer", 0.0)


def test_element_kind_table():
    assert ELEMENT_KINDS == {"ideal_polarizer": (),
                             "partial_polarizer": ("extinction",),
                             "retarder": ("retardance_rad",)}
    assert QWP == PolElement("retarder", 0.0, retardance_rad=np.pi / 2.0)
    with pytest.raises(ValueError, match="partial_polarizer needs extinction"):
        PolElement("partial_polarizer", 0.0)
    with pytest.raises(ValueError, match="retarder needs retardance_rad"):
        PolElement("retarder", 0.0)
    # Kinds that are not strings, such as YAML lists, are unknown too.
    with pytest.raises(ValueError, match="unknown element kind"):
        PolElement(["retarder"], 0.0)


@pytest.mark.parametrize("kind, name", FOREIGN_PARAMETERS)
def test_element_rejects_a_parameter_its_kind_does_not_take(kind, name):
    own = {p: 2.0 for p in ELEMENT_KINDS[kind]}
    PolElement(kind, 0.0, **own)
    with pytest.raises(ValueError, match=f"^{kind} takes no {name}$"):
        PolElement(kind, 0.0, **own, **{name: 2.0})


def test_compose_empty_rejected():
    with pytest.raises(ValueError):
        compose([])


def test_compose_order_last_element_leftmost():
    a = PolElement("ideal_polarizer", 90.0)
    b = qwp(62.0)
    npt.assert_allclose(
        compose([a, b]), element_jones(b) @ element_jones(a), atol=1e-15
    )


def test_passivity_of_generated_elements():
    for _ in range(30):
        check_passive(element_jones(random_element(RNG)))
    with pytest.raises(ValueError):
        check_passive(np.diag([1.2, 0.0]))
    # One amplifying member fails a whole stack; an empty stack passes.
    stack = np.stack([element_jones(random_element(RNG)) for _ in range(4)])
    check_passive(stack)
    stack[2] = np.diag([1.0 + 1e-6, 0.5])
    with pytest.raises(ValueError):
        check_passive(stack)
    check_passive(np.zeros((0, 2, 2)))


def random_unitaries(rng, n):
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return np.linalg.qr(z)[0]


def jones_with_top_effect(rng, n, top):
    """(n, 2, 2) Jones stack whose largest effect eigenvalue is ``top``
    on one random member and below 1 on the others."""
    s = np.sqrt(rng.uniform(0.0, 1.0, size=(n, 2)))
    s[rng.integers(n), 0] = np.sqrt(top)
    return random_unitaries(rng, n) * s[:, None, :] @ random_unitaries(rng, n)


def test_passivity_bound_matches_eigvalsh():
    # The bound's closed-form eigenvalue, read from the refusal, against
    # LAPACK's on amplifying stacks.
    rng = np.random.default_rng(31)
    for _ in range(200):
        jones = jones_with_top_effect(rng, int(rng.integers(1, 9)), rng.uniform(1.1, 4.0))
        reference = np.linalg.eigvalsh(effect(jones))[:, -1].max()
        with pytest.raises(ValueError, match="largest effect eigenvalue") as info:
            check_passive(jones)
        closed = float(str(info.value).rsplit(" ", 1)[1])
        assert abs(closed - reference) <= 2e-15 * reference


def test_passivity_bound_sits_at_its_tolerance():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        check_passive(random_unitaries(rng, n))
        check_passive(jones_with_top_effect(rng, n, 1.0 + 0.5 * EFFECT_TOL))
        with pytest.raises(ValueError, match="non-passive Jones matrix"):
            check_passive(jones_with_top_effect(rng, n, 1.0 + 2.0 * EFFECT_TOL))


def test_compose_returns_a_new_array():
    m = element_jones(qwp(30.0))
    for chain in ([m], m[None]):
        out = compose(chain)
        out[...] = 0.0
        npt.assert_array_equal(m, element_jones(qwp(30.0)))


def test_stokes_operators_are_the_signed_paulis():
    # The typed table that STOKES_OPS replaced: the derived one has its
    # bytes, signed zeros included.
    typed = np.array([
        np.eye(2),
        [[-1.0, 0.0], [0.0, 1.0]],
        [[0.0, -1.0], [-1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
    ], dtype=complex)
    assert STOKES_OPS.dtype == typed.dtype and STOKES_OPS.shape == typed.shape
    assert STOKES_OPS.tobytes() == typed.tobytes()
    assert qstate.PAULIS is PAULIS and tomo.PAULIS is PAULIS


def test_mueller_of_vertical_polarizer_total_transmission():
    m = jones_to_mueller(np.diag([0.0, 1.0]))
    assert abs(m[0, 0] - 0.5) < 1e-15


def test_mueller_stack_equals_entrywise_traces():
    # The matrix-product chain per entry, as the batched form must keep it.
    stack = RNG.normal(size=(3, 50, 2, 2)) + 1j * RNG.normal(size=(3, 50, 2, 2))
    muellers = jones_to_mueller(stack)
    assert muellers.shape == (3, 50, 4, 4)
    for j, m in zip(stack.reshape(-1, 2, 2), muellers.reshape(-1, 4, 4)):
        assert np.array_equal(m, loop_mueller(j))
        assert np.array_equal(jones_to_mueller(j), m)
    with pytest.raises(ValueError):
        jones_to_mueller(np.eye(3))


def test_stokes_stack_forms_equal_their_loops():
    # coherency_from_stokes and stokes_from_jones_vector as they were,
    # one Stokes operator at a time.
    for _ in range(50):
        s = RNG.normal(size=4)
        c = np.zeros((2, 2), dtype=complex)
        for si, op in zip(s, STOKES_OPS):
            c += 0.5 * si * op
        assert np.array_equal(coherency_from_stokes(s), c)
        v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        coh = np.outer(v, v.conj())
        assert np.array_equal(stokes_from_jones_vector(v), np.array(
            [np.real(np.trace(op @ coh)) for op in STOKES_OPS]))


def test_mueller_action_matches_coherency_oracle():
    # Independent route: build a coherency matrix from a Stokes vector,
    # conjugate by the Jones matrix, read the Stokes vector back.
    for _ in range(40):
        el = random_element(RNG)
        j = element_jones(el)
        m = jones_to_mueller(j)
        s_in = np.concatenate([[1.0], RNG.uniform(-0.57, 0.57, size=3)])
        c = coherency_from_stokes(s_in)
        c_out = j @ c @ j.conj().T
        s_out = np.array([np.real(np.trace(op @ c_out)) for op in STOKES_OPS])
        npt.assert_allclose(m @ s_in, s_out, atol=1e-12)


def test_mueller_multiplicativity():
    for _ in range(20):
        j1 = element_jones(random_element(RNG))
        j2 = element_jones(random_element(RNG))
        npt.assert_allclose(
            jones_to_mueller(j1 @ j2),
            jones_to_mueller(j1) @ jones_to_mueller(j2),
            atol=1e-12,
        )


def test_mueller_passivity_structure():
    for _ in range(20):
        m = jones_to_mueller(element_jones(random_element(RNG)))
        assert m[0, 0] <= 1.0 + 1e-12
        assert np.all(np.abs(m) <= m[0, 0] + 1e-12)


def test_reference_probe_three_matrix():
    m = jones_to_mueller(compose([PolElement("ideal_polarizer", 90.0), qwp(62.0)]))
    npt.assert_allclose(m, REF_PROBE_THREE, atol=1e-3)
    npt.assert_allclose(m[0], [0.5, -0.5, 0.0, 0.0], atol=1e-3)


def test_reference_probe_two_matrix_first_row():
    m = jones_to_mueller(
        compose([PolElement("partial_polarizer", 90.0, extinction=3.7), qwp(62.0)])
    )
    npt.assert_allclose(m[0], REF_PROBE_TWO[0], atol=5e-3)


def test_stokes_of_basis_states():
    s_v = stokes_from_jones_vector([0.0, 1.0])
    npt.assert_allclose(s_v, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
    s_h = stokes_from_jones_vector([1.0, 0.0])
    npt.assert_allclose(s_h, [1.0, -1.0, 0.0, 0.0], atol=1e-15)
    s_r = stokes_from_jones_vector([1.0 / np.sqrt(2.0), 1.0j / np.sqrt(2.0)])
    npt.assert_allclose(s_r, [1.0, 0.0, 0.0, 1.0], atol=1e-15)
