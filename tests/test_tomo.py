import warnings

import numpy as np
import numpy.testing as npt
import pytest

from ghostpol.countsim import CountModel
from ghostpol.qstate import TwoQubitDensity, bell_psi_plus, concurrence, fidelity, werner
from ghostpol import tomo
from ghostpol.tomo import (
    ANALYSIS_STATES,
    CANONICAL_PAIRS,
    GRADIENT_TOL,
    TomographyRecord,
    _params_from_t,
    _t_matrix,
    pair_vector,
    projection_probability,
    reconstruct_mle,
    records_from_csv,
    records_to_csv,
    simulate_tomography,
)
from helpers import expected_records, random_density

RNG = np.random.default_rng(2024)

try:
    import scipy.optimize  # noqa: F401
    HAVE_SCIPY = True
except ImportError:
    HAVE_SCIPY = False
# The package runs without scipy; only the tests that compare against it
# need it.
needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="the oracle is scipy")


def test_analysis_states_are_unit_and_paired():
    for vec in ANALYSIS_STATES.values():
        assert abs(np.vdot(vec, vec) - 1.0) < 1e-12
    for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
        assert abs(np.vdot(ANALYSIS_STATES[a], ANALYSIS_STATES[b])) < 1e-12


def test_canonical_pairs_structure():
    assert len(CANONICAL_PAIRS) == 16
    assert len(set(CANONICAL_PAIRS)) == 16
    assert CANONICAL_PAIRS[:4] == (("H", "H"), ("H", "V"), ("V", "V"),
                                   ("V", "H"))


def test_rectilinear_block_sums_to_total():
    for _ in range(10):
        rho = random_density(RNG)
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


def reference_tomography(rho, model, seed):
    """simulate_tomography as it was: cell i draws one Poisson count
    from its own stream, spawn key (1, 3, i)."""
    records = []
    for i, (a, b) in enumerate(CANONICAL_PAIRS):
        p = projection_probability(rho, a, b)
        mean = model.signal_mean(min(max(p, 0.0), 1.0)) + model.accidental_mean()
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(1, 3, i))
        count = np.random.Generator(np.random.PCG64(seq)).poisson(mean)
        records.append((a, b, float(count)))
    return records


@pytest.mark.parametrize("pair_rate", [1e5, 5.0e9])
@pytest.mark.parametrize("accidentals", [False, True], ids=["clean", "accidentals"])
def test_simulate_tomography_matches_per_cell_stream_reference(pair_rate, accidentals):
    model = CountModel(pair_rate=pair_rate, integration_time=1.0, eff_signal=0.9,
                       eff_idler=0.7, coincidence_window=3e-9 if accidentals else 0.0,
                       singles_background=2e4)
    for rho in (bell_psi_plus(), werner(0.8), random_density(np.random.default_rng(3))):
        for seed in (0, 41):
            records = simulate_tomography(rho, model, seed)
            assert [(r.basis_a, r.basis_b, r.counts) for r in records] == \
                reference_tomography(rho, model, seed)


def test_mle_recovers_bell_state_from_clean_counts():
    result = reconstruct_mle(expected_records(bell_psi_plus(), 1e6))
    assert result.converged
    assert fidelity(result.rho) > 0.9999
    assert np.max(np.abs(result.rho.matrix - bell_psi_plus().matrix)) < 1e-3


def test_mle_does_not_warn_about_its_own_round_off(tmp_path):
    # rho = T^dagger T is PSD by construction, so the Bell counts, as
    # written to CSV, do not reach the eigenvalue clip and its warning.
    path = str(tmp_path / "records.csv")
    records_to_csv(expected_records(bell_psi_plus(), 1e6), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = reconstruct_mle(records_from_csv(path))
    assert fidelity(result.rho) > 0.9999


def test_mle_recovers_mixed_state_from_clean_counts():
    rho = werner(0.92)
    result = reconstruct_mle(expected_records(rho, 1e6))
    assert result.converged
    assert np.max(np.abs(result.rho.matrix - rho.matrix)) < 1e-3
    assert abs(concurrence(result.rho) - concurrence(rho)) < 1e-3


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


def test_mle_from_noisy_counts_lands_near_truth():
    truth = werner(0.92)
    model = CountModel(pair_rate=1e6, integration_time=1.0)
    for seed in (0, 1):
        records = simulate_tomography(truth, model, seed=seed)
        result = reconstruct_mle(records)
        assert result.converged
        assert abs(concurrence(result.rho) - concurrence(truth)) < 0.02


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


def test_wrong_record_set_names_each_wrong_pair():
    records = expected_records(werner(0.9), 1e5)
    extra = [TomographyRecord("A", "A", 5.0)]
    for bad, wrong in (
            (records[:15], "missing R,L"),
            (records[1:] + records[1:2], "missing H,H; repeated H,V"),
            (records + extra, "not canonical A,A"),
            (records[:14] + extra * 2, "missing H,L R,L; repeated A,A; "
                                       "not canonical A,A")):
        with pytest.raises(ValueError) as info:
            reconstruct_mle(bad)
        assert str(info.value) == (
            f"need exactly the 16 canonical projection records: {wrong}")


def test_records_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\nH,V,3\n")
    with pytest.raises(ValueError):
        records_from_csv(str(path))


# 2 B^-1 as the literal it was before tomo derived it from the Paulis.
INVERSION_X2 = np.array([
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2, -2, 0],
    [1, -1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, -1, -1, -1, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, -2, -2, 0, 4, 0, -2, -2, 0, 0, 0],
    [-1, -1, -1, -1, 0, 0, -2, -2, 4, 0, 0, 0, 0, 2, 2, 0],
    [-1, 1, 1, -1, 0, 0, -2, 2, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, -1, -1, -1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, -2, -2, 0, 0, 0, 0, 4, -2, -2, 0, 0, 0],
    [-1, -1, -1, -1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 2, 2, -4],
    [-1, 1, 1, -1, 2, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, -1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, -2, 0, 0, 0],
    [1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, -2, 0],
    [1, -1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
])


def test_derived_inversion_table_equals_the_literal():
    assert np.issubdtype(tomo._INVERSION_X2.dtype, np.integer)
    npt.assert_array_equal(tomo._INVERSION_X2, INVERSION_X2)


def test_inversion_table_inverts_the_canonical_system():
    # p_i = sum_k B_ik c_k for rho = sum_k c_k Gamma_k; the table is 2 B^-1.
    basis = np.einsum("ia,kab,ib->ik", tomo._PAIR_VECS.conj(), tomo._GAMMAS,
                      tomo._PAIR_VECS).real
    npt.assert_allclose(tomo._INVERSION_X2 / 2.0 @ basis, np.eye(16), atol=1e-14)
    npt.assert_allclose(np.linalg.inv(basis), tomo._INVERSION_X2 / 2.0, atol=1e-12)


def test_linear_inversion_is_exact_on_clean_counts():
    for _ in range(5):
        rho = random_density(RNG)
        counts = np.array([r.counts for r in expected_records(rho, 1e6)])
        est = np.einsum("i,iab->ab", counts / counts[:4].sum(), tomo._RHO_FROM_PROBS)
        npt.assert_allclose(est, rho.matrix, atol=1e-12)


def test_cholesky_factor_is_lower_triangular_or_refused():
    for _ in range(5):
        a = random_density(RNG).matrix + 1e-3 * np.eye(4)
        t = tomo._cholesky(a)
        assert np.array_equal(t, np.tril(t))
        assert np.all(np.diag(t).real > 0.0) and np.all(np.diag(t).imag == 0.0)
        npt.assert_allclose(t.conj().T @ t, a, atol=1e-14)
    assert tomo._cholesky(bell_psi_plus().matrix - 1e-3 * np.eye(4)) is None


def test_quadratic_forms_give_the_projection_norms():
    params = np.random.default_rng(9).normal(size=16)
    tv = _t_matrix(params) @ tomo._PAIR_VECS.T
    npt.assert_allclose(np.einsum("s,ist,t->i", params, tomo._QUAD, params),
                        np.sum(np.abs(tv) ** 2, axis=0), rtol=1e-13)


def test_fit_is_converged_exactly_when_the_gradient_test_passes(monkeypatch):
    records = simulate_tomography(werner(0.92), CountModel(1e6, 1.0), seed=1)
    total = sum(r.counts for r in records)
    done = reconstruct_mle(records)
    assert done.converged and done.gradient_norm <= GRADIENT_TOL * total
    monkeypatch.setattr(tomo, "MAX_ITERATIONS", 3)
    cut = reconstruct_mle(records)
    assert cut.iterations == 3 and not cut.converged
    assert cut.gradient_norm > GRADIENT_TOL * total
    assert cut.log_likelihood < done.log_likelihood


def test_fit_stops_when_no_step_passes_the_armijo_test(monkeypatch):
    # With the gradient's sign flipped every search direction climbs, so
    # the line search runs out of step lengths before the first step.
    deviance_and_grad = tomo._deviance_and_grad

    def uphill(x, counts, total):
        f, g = deviance_and_grad(x, counts, total)
        return f, -g

    monkeypatch.setattr(tomo, "_deviance_and_grad", uphill)
    stalled = reconstruct_mle(simulate_tomography(werner(0.92), CountModel(1e6, 1.0), 1))
    assert stalled.iterations == 0 and stalled.converged is False
    assert np.all(np.isfinite(stalled.rho.matrix)) and stalled.gradient_norm > 0.0


def _old_nll_and_grad(params, counts, pair_mat):
    """The objective of the L-BFGS-B fit that the BFGS replaced: the
    Poisson negative log-likelihood with the flux profiled out."""
    t = _t_matrix(params)
    tau = float(np.real(np.sum(t.conj() * t)))
    g = t @ pair_mat.T
    probs = np.real(np.sum(g.conj() * g, axis=0)) / tau
    flux = counts.sum() / probs.sum()
    mu = np.clip(flux * probs, 1e-12, None)
    coeff = 1.0 - counts / mu
    grad = (2.0 * flux / tau) * ((g * coeff) @ pair_mat.conj()
                                 - float(coeff @ probs) * t)
    return float(np.sum(mu - counts * np.log(mu))), _params_from_t(grad)


def lbfgsb_log_likelihood(records):
    """Log-likelihood that scipy's L-BFGS-B reached before the BFGS:
    started from the eigenvalue-clipped linear inversion plus 1e-6 I,
    stopped by its relative-reduction test (ftol 1e-15)."""
    from scipy.optimize import minimize

    counts = np.array([r.counts for r in records])
    rho = np.einsum("i,iab->ab", counts / counts[:4].sum(), tomo._RHO_FROM_PROBS)
    w, v = np.linalg.eigh(rho)
    rho = (v * np.clip(w, 0.0, None)) @ v.conj().T
    flip = np.eye(4)[::-1]
    chol = np.linalg.cholesky(flip @ (rho / np.trace(rho).real + 1e-6 * np.eye(4)) @ flip)
    x0 = _params_from_t((flip @ chol @ flip).conj().T)
    res = minimize(_old_nll_and_grad, x0, args=(counts, tomo._PAIR_VECS), jac=True,
                   method="L-BFGS-B", options={"maxiter": 10_000, "maxfun": 100_000,
                                               "gtol": 1e-8, "ftol": 1e-15})
    return -float(res.fun)


def oracle_record_sets():
    """23 record sets: the shipped config on 5 seeds, random interior
    states, near-pure and Bell states with few and with many counts, and
    three clean (noise-free) sets."""
    rng = np.random.default_rng(7)
    shipped = CountModel(pair_rate=1e6, integration_time=1.0)
    few, some = CountModel(1e3, 1.0), CountModel(1e5, 1.0)
    sets = [simulate_tomography(werner(0.92), shipped, seed) for seed in range(5)]
    for seed in range(4):
        sets.append(simulate_tomography(random_density(rng), some, seed))
    sets += [simulate_tomography(werner(0.999), some, seed) for seed in range(4)]
    sets += [simulate_tomography(bell_psi_plus(), few, seed) for seed in range(4)]
    sets += [simulate_tomography(bell_psi_plus(), shipped, seed) for seed in range(3)]
    product = np.zeros((4, 4), dtype=complex)
    product[1, 1] = 1.0
    sets += [expected_records(rho, 1e6) for rho in
             (bell_psi_plus(), werner(0.92), TwoQubitDensity(product))]
    return sets


@needs_scipy
def test_fit_reaches_at_least_the_lbfgsb_likelihood():
    sets = oracle_record_sets()
    assert len(sets) >= 20
    for k, records in enumerate(sets):
        result = reconstruct_mle(records)
        total = sum(r.counts for r in records)
        assert result.converged, k
        assert result.gradient_norm <= GRADIENT_TOL * total, k
        ref = lbfgsb_log_likelihood(records)
        # The same optimum may differ in the last digits of its sum.
        assert result.log_likelihood >= ref - 1e-14 * abs(ref), (k, ref)
