import numpy as np
import numpy.testing as npt
import pytest

from ghostpol.qstate import (
    StateValidationError,
    TwoQubitDensity,
    bell_psi_plus,
    concurrence,
    fidelity,
    linear_entropy,
    load_density_csv,
    metrics,
    psi_plus_vector,
    save_density_csv,
    werner,
)
from helpers import random_density

RNG = np.random.default_rng(77)


def wootters_oracle(matrix):
    # Spin-flip eigenvalue route, written out independently.
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    product = matrix @ flip @ matrix.conj() @ flip
    lams = np.sort(np.sqrt(np.abs(np.linalg.eigvals(product))))[::-1]
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def test_bell_state_entries():
    rho = bell_psi_plus().matrix
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
    npt.assert_allclose(rho, expected, atol=1e-15)


def test_bell_state_has_the_bytes_of_the_validated_projector():
    # Built unvalidated, the Bell state keeps the bytes that validation
    # gave |Psi+><Psi+|: its trace, 0.9999999999999998, divided out.
    vec = psi_plus_vector()
    validated = TwoQubitDensity(np.outer(vec, vec.conj())).matrix
    assert bell_psi_plus().matrix.tobytes() == validated.tobytes()
    assert np.all(validated[1:3, 1:3] == 0.5)


def test_validation_rejects_a_matrix_that_is_not_4x4():
    with pytest.raises(StateValidationError, match="^density matrix must be 4x4$"):
        TwoQubitDensity(np.eye(3, dtype=complex) / 3.0)


def test_validation_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.3
    with pytest.raises(StateValidationError):
        TwoQubitDensity(bad)


def test_validation_rejects_negative_eigenvalue():
    bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(StateValidationError):
        TwoQubitDensity(bad)


def test_validation_rejects_wrong_trace():
    with pytest.raises(StateValidationError):
        TwoQubitDensity(np.eye(4, dtype=complex) / 2.0)
    # A zero matrix passes every earlier check; the trace check stops it.
    with pytest.raises(StateValidationError, match=r"trace 0\.0 != 1$"):
        TwoQubitDensity(np.zeros((4, 4), dtype=complex))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_validation_rejects_non_finite_entries(value):
    bad = np.eye(4, dtype=complex) / 4.0
    bad[1, 2] = bad[2, 1] = value
    with pytest.raises(StateValidationError, match="non-finite"):
        TwoQubitDensity(bad)


def test_validation_clips_eigenvalue_dust():
    vec = psi_plus_vector()
    rho = np.outer(vec, vec.conj())
    rho -= 2e-10 * np.diag([1.0, -1.0, -1.0, 1.0])
    with pytest.warns(UserWarning) as record:
        state = TwoQubitDensity(rho)
    # The warning points at the line that built the state.
    assert record[0].filename == __file__
    assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-16
    assert abs(np.trace(state.matrix).real - 1.0) < 1e-12


def test_werner_parameter_range():
    with pytest.raises(ValueError):
        werner(1.2)
    with pytest.raises(ValueError):
        werner(-0.1)


def test_concurrence_closed_form_on_mixture_family():
    for p in np.linspace(0.0, 1.0, 21):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence(werner(p)) - expected) < 1e-10


def test_concurrence_reference_point():
    assert abs(concurrence(werner(0.92)) - 0.88) < 1e-9


def test_concurrence_matches_independent_oracle_on_random_states():
    for _ in range(25):
        rho = random_density(RNG)
        assert abs(concurrence(rho) - wootters_oracle(rho.matrix)) < 1e-9


def test_concurrence_of_pure_bell_state():
    assert abs(concurrence(bell_psi_plus()) - 1.0) < 1e-12


def test_linear_entropy_endpoints():
    assert abs(linear_entropy(bell_psi_plus())) < 1e-12
    maximally_mixed = TwoQubitDensity(np.eye(4, dtype=complex) / 4.0)
    assert abs(linear_entropy(maximally_mixed) - 1.0) < 1e-12


def test_linear_entropy_mixture_value():
    # tr rho^2 = p^2 + p(1-p)/2 + (1-p)^2/4 for the isotropic mixture.
    p = 0.92
    purity = p * p + p * (1.0 - p) / 2.0 + (1.0 - p) ** 2 / 4.0
    expected = 4.0 / 3.0 * (1.0 - purity)
    assert abs(linear_entropy(werner(p)) - expected) < 1e-12
    assert abs(expected - 0.1536) < 1e-10


def test_fidelity_convention():
    assert abs(fidelity(bell_psi_plus()) - 1.0) < 1e-12
    assert abs(fidelity(werner(0.92)) - 0.94) < 1e-12


def test_metrics_of_bell_state():
    npt.assert_allclose(
        metrics(bell_psi_plus()),
        [1.0, 0.0, 1.0, 1.0],
        atol=1e-12,
    )


def test_purity_range():
    for _ in range(10):
        rho = random_density(RNG)
        assert 0.25 - 1e-12 <= rho.purity() <= 1.0 + 1e-12


def test_density_csv_roundtrip(tmp_path):
    rho = random_density(RNG)
    path = str(tmp_path / "state.csv")
    save_density_csv(rho, path)
    back = load_density_csv(path)
    npt.assert_allclose(back.matrix, rho.matrix, atol=1e-10)
    lines = (tmp_path / "state.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    (tmp_path / "state.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(StateValidationError, match="^density CSV rows need 8 numbers$"):
        load_density_csv(path)
