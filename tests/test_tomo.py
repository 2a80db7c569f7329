import warnings

import numpy as np
import numpy.testing as npt
import pytest

from ghostpol.countsim import CountModel
from ghostpol.qstate import TwoQubitDensity, bell_psi_plus, concurrence, fidelity, werner
from ghostpol.tomo import (
    ANALYSIS_STATES,
    CANONICAL_PAIRS,
    TomographyRecord,
    _params_from_t,
    _t_matrix,
    canonical_projections,
    expected_records,
    pair_vector,
    projection_probability,
    reconstruct_mle,
    records_from_csv,
    records_to_csv,
    simulate_tomography,
)

RNG = np.random.default_rng(2024)

try:
    import scipy.optimize  # noqa: F401
    HAVE_SCIPY = True
except ImportError:
    HAVE_SCIPY = False
# Only the maximum-likelihood fit imports scipy; the rest of tomo runs
# without it.
needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="reconstruct_mle needs scipy")


def random_density():
    g = RNG.normal(size=(4, 4)) + 1.0j * RNG.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitDensity(rho / np.trace(rho))


def test_analysis_states_are_unit_and_paired():
    for vec in ANALYSIS_STATES.values():
        assert abs(np.vdot(vec, vec) - 1.0) < 1e-12
    for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
        assert abs(np.vdot(ANALYSIS_STATES[a], ANALYSIS_STATES[b])) < 1e-12


def test_canonical_pairs_structure():
    pairs = canonical_projections()
    assert len(pairs) == 16
    assert len(set(pairs)) == 16
    assert pairs[:4] == [("H", "H"), ("H", "V"), ("V", "V"), ("V", "H")]


def test_rectilinear_block_sums_to_total():
    for _ in range(10):
        rho = random_density()
        total = sum(
            projection_probability(rho, a, b)
            for a, b in (("H", "H"), ("H", "V"), ("V", "H"), ("V", "V"))
        )
        assert abs(total - 1.0) < 1e-12


def test_projection_probabilities_of_bell_state():
    rho = bell_psi_plus()
    assert abs(projection_probability(rho, "H", "V") - 0.5) < 1e-12
    assert abs(projection_probability(rho, "H", "H")) < 1e-12
    assert abs(projection_probability(rho, "D", "D") - 0.5) < 1e-12
    assert abs(projection_probability(rho, "R", "R") - 0.5) < 1e-12
    assert abs(projection_probability(rho, "R", "L")) < 1e-12


def test_pair_vector_order():
    vec = pair_vector("H", "V")
    npt.assert_allclose(vec, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_record_validation():
    with pytest.raises(ValueError):
        TomographyRecord("H", "Q", 10.0)
    with pytest.raises(ValueError):
        TomographyRecord("H", "V", -1.0)


def test_expected_records_scale_with_flux():
    recs = expected_records(bell_psi_plus(), 2000.0)
    assert len(recs) == 16
    flux = sum(r.counts for r in recs[:4])
    assert abs(flux - 2000.0) < 1e-9
    by_pair = {(r.basis_a, r.basis_b): r.counts for r in recs}
    assert abs(by_pair[("H", "V")] - 1000.0) < 1e-9


def test_simulate_tomography_deterministic():
    model = CountModel(pair_rate=1e5, integration_time=1.0)
    a = simulate_tomography(werner(0.9), model, seed=4)
    b = simulate_tomography(werner(0.9), model, seed=4)
    assert [r.counts for r in a] == [r.counts for r in b]
    c = simulate_tomography(werner(0.9), model, seed=5)
    assert [r.counts for r in a] != [r.counts for r in c]


@needs_scipy
def test_mle_recovers_bell_state_from_clean_counts():
    result = reconstruct_mle(expected_records(bell_psi_plus(), 1e6))
    assert result.converged
    assert fidelity(result.rho) > 0.9999
    assert np.max(np.abs(result.rho.matrix - bell_psi_plus().matrix)) < 1e-3


@needs_scipy
def test_mle_does_not_warn_about_its_own_round_off(tmp_path):
    # rho = T^dagger T is PSD; the Bell counts, as written to CSV, leave
    # an eigenvalue of about -5e-16, which is clipped without a warning.
    path = str(tmp_path / "records.csv")
    records_to_csv(expected_records(bell_psi_plus(), 1e6), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = reconstruct_mle(records_from_csv(path))
    assert fidelity(result.rho) > 0.9999


@needs_scipy
def test_mle_recovers_mixed_state_from_clean_counts():
    rho = werner(0.92)
    result = reconstruct_mle(expected_records(rho, 1e6))
    assert result.converged
    assert np.max(np.abs(result.rho.matrix - rho.matrix)) < 1e-3
    assert abs(concurrence(result.rho) - concurrence(rho)) < 1e-3


@needs_scipy
def test_mle_respects_slot_order():
    # A product state pins the reconstruction to one basis slot, which
    # would move if the two analyzer labels were swapped anywhere.
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    result = reconstruct_mle(expected_records(TwoQubitDensity(rho), 1e6))
    assert result.rho.matrix[1, 1].real > 0.999


# The (re index, row, col, im index) slot table that the index arrays
# replaced.
PARAM_SLOTS = (
    (0, 0, 0, None), (1, 1, 1, None), (2, 2, 2, None), (3, 3, 3, None),
    (4, 1, 0, 5), (6, 2, 1, 7), (8, 3, 2, 9),
    (10, 2, 0, 11), (12, 3, 1, 13), (14, 3, 0, 15),
)


def test_cholesky_layout_matches_slot_table():
    params = np.random.default_rng(5).normal(size=16)
    ref = np.zeros((4, 4), dtype=complex)
    for re_idx, row, col, im_idx in PARAM_SLOTS:
        ref[row, col] = params[re_idx] + (
            1.0j * params[im_idx] if im_idx is not None else 0.0
        )
    assert np.array_equal(_t_matrix(params), ref)
    assert np.array_equal(_params_from_t(ref), params)


@needs_scipy
def test_mle_from_noisy_counts_lands_near_truth():
    truth = werner(0.92)
    model = CountModel(pair_rate=1e6, integration_time=1.0)
    for seed in (0, 1):
        records = simulate_tomography(truth, model, seed=seed)
        result = reconstruct_mle(records)
        assert result.converged
        assert abs(concurrence(result.rho) - concurrence(truth)) < 0.02


@needs_scipy
def test_mle_survives_degenerate_flux_block():
    # Zero counts in the four flux-normalizing slots force the fallback
    # initial guess; the fit must still return a valid state.
    counts = {pair: 0.0 for pair in CANONICAL_PAIRS}
    counts[("D", "D")] = 500.0
    counts[("R", "L")] = 400.0
    records = [TomographyRecord(a, b, counts[(a, b)]) for a, b in CANONICAL_PAIRS]
    result = reconstruct_mle(records)
    assert abs(np.trace(result.rho.matrix).real - 1.0) < 1e-9


def test_mle_input_validation():
    recs = expected_records(bell_psi_plus(), 1000.0)
    with pytest.raises(ValueError):
        reconstruct_mle(recs[:15])
    doubled = recs[:15] + [recs[0]]
    with pytest.raises(ValueError):
        reconstruct_mle(doubled)
    zeros = [TomographyRecord(a, b, 0.0) for a, b in CANONICAL_PAIRS]
    with pytest.raises(ValueError):
        reconstruct_mle(zeros)


def test_records_csv_roundtrip(tmp_path):
    records = expected_records(werner(0.8), 12345.0)
    path = str(tmp_path / "records.csv")
    records_to_csv(records, path)
    back = records_from_csv(path)
    assert [(r.basis_a, r.basis_b) for r in back] == list(CANONICAL_PAIRS)
    npt.assert_allclose(
        [r.counts for r in back], [r.counts for r in records], rtol=1e-8
    )


def test_records_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\nH,V,3\n")
    with pytest.raises(ValueError):
        records_from_csv(str(path))
