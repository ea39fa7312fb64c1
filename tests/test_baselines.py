"""LMMSE OAMP, matched-filter OAMP and plain AMP reference algorithms."""

import numpy as np
import pytest

from mamp import (
    DenseOperator,
    PriorParams,
    build_iid_gaussian_operator,
    build_structured_operator,
    exact_moments_from_singular_values,
    lmmse_le,
    make_geometric_singular_values,
    run_amp,
    run_bo_mamp,
    run_bo_oamp,
    run_mf_oamp,
    sample_instance,
    tables_from_singular_values,
)
from mamp.operators import StructuredOperator


def structured_instance(N=2048, delta=0.5, kappa=10.0, mu=0.1, snr_db=30.0, seed=0):
    M = int(delta * N)
    d = make_geometric_singular_values(min(M, N), kappa, float(N))
    op = build_structured_operator(M, N, d, rng_seed=seed)
    prior = PriorParams(mu=mu)
    inst = sample_instance(op, prior, snr_db=snr_db, rng_seed=seed + 1)
    return inst, prior, d


class TestLmmseLE:
    def test_identical_eigenvalues_unit_delta(self):
        inst, prior, d = structured_instance(N=256, delta=1.0, kappa=1.0)
        v_phi = 0.2
        x = np.zeros(256, dtype=complex)
        r, v_gamma = lmmse_le(x, v_phi, inst, inst.y - inst.operator.apply(x))
        rho = inst.noise_var / v_phi
        # eps = 1/(rho + 1): the transfer lands exactly on the noise floor
        assert v_gamma == pytest.approx(inst.noise_var, rel=1e-10)
        np.testing.assert_allclose(
            r, inst.operator.apply_adjoint(inst.y), rtol=1e-10, atol=1e-12
        )

    def test_high_rho_degrades_to_matched_filter(self):
        inst, prior, d = structured_instance(N=256)
        lam1 = float(np.sum(d**2)) / 256
        v_phi = 1e-9  # rho -> infinity
        rho = inst.noise_var / v_phi
        d_sq = d**2
        eps = float(np.sum(d_sq / (rho + d_sq))) / 256
        assert eps == pytest.approx(lam1 / rho, rel=1e-4)

    def test_spectral_solve_matches_explicit_inverse(self):
        inst, prior, d = structured_instance(N=64, delta=0.5, kappa=4.0)
        op = inst.operator
        A = op.dense()
        v_phi = 0.3
        rho = inst.noise_var / v_phi
        x_t = np.random.default_rng(0).standard_normal(64) + 0j
        r, v_gamma = lmmse_le(x_t, v_phi, inst, inst.y - op.apply(x_t))
        M_mat = rho * np.eye(op.M) + A @ A.conj().T
        gamma_hat = A.conj().T @ np.linalg.solve(M_mat, inst.y - A @ x_t)
        eps = np.trace(A.conj().T @ np.linalg.solve(M_mat, A)).real / op.N
        np.testing.assert_allclose(r, gamma_hat / eps + x_t, rtol=1e-10, atol=1e-12)
        assert v_gamma == pytest.approx(v_phi * (1 / eps - 1), rel=1e-10)

    def test_requires_singular_values(self):
        op = build_iid_gaussian_operator(16, 32, rng_seed=0)
        prior = PriorParams(mu=0.5)
        inst = sample_instance(op, prior, snr_db=20.0, rng_seed=1)
        x = np.zeros(32, dtype=complex)
        with pytest.raises(ValueError):
            lmmse_le(x, 1.0, inst, inst.y - op.apply(x))


class TestBoOamp:
    def test_first_iteration_is_standalone_lmmse(self):
        inst, prior, _ = structured_instance(N=512)
        res = run_bo_oamp(inst, prior, 1)
        delta = inst.operator.delta
        v_phi0 = ((np.vdot(inst.y, inst.y).real / 512) - delta * inst.noise_var) / 1.0
        x = np.zeros(512, dtype=complex)
        r, v_gamma = lmmse_le(x, v_phi0, inst, inst.y - inst.operator.apply(x))
        assert res.records[0].v_gamma == pytest.approx(v_gamma, rel=1e-12)

    def test_converges_on_illconditioned(self):
        inst, prior, _ = structured_instance(N=2048, kappa=10.0)
        res = run_bo_oamp(inst, prior, 20)
        assert res.status == "ok"
        assert res.mse[-1] < res.mse[0] * 1e-2


class TestMfOamp:
    def test_equals_lmmse_oamp_for_identical_singular_values(self):
        inst, prior, d = structured_instance(N=1024, kappa=1.0)
        prof = exact_moments_from_singular_values(d, 1024, 10, M=512)
        res_mf = run_mf_oamp(inst, prior, 10, prof)
        res_bo = run_bo_oamp(inst, prior, 10)
        np.testing.assert_allclose(res_mf.mse, res_bo.mse, rtol=1e-10)

    def test_worse_than_memory_filter_when_illconditioned(self):
        inst, prior, d = structured_instance(N=2048, kappa=10.0)
        prof = exact_moments_from_singular_values(d, 2048, 30, M=1024)
        tab = tables_from_singular_values(d, 2048, 30, M=1024)
        res_mf = run_mf_oamp(inst, prior, 30, prof)
        res_mamp = run_bo_mamp(inst, prior, tab, 30, 3)
        assert res_mf.mse[-1] > res_mamp.mse[-1]

    def test_unitary_case_converges_after_one_application(self):
        inst, prior, d = structured_instance(N=512, delta=1.0, kappa=1.0)
        prof = exact_moments_from_singular_values(d, 512, 5, M=512)
        res = run_mf_oamp(inst, prior, 5, prof)
        assert res.mse[1] == pytest.approx(res.mse[0], rel=1e-9)
        assert res.mse[-1] == pytest.approx(res.mse[0], rel=1e-9)


class TestAmp:
    def test_recovers_on_iid_gaussian(self):
        op = build_iid_gaussian_operator(1024, 2048, rng_seed=0)
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=30.0, rng_seed=1)
        res = run_amp(inst, prior, 30)
        assert res.status == "ok"
        assert 10 * np.log10(res.mse[-1]) < -30.0

    def test_flags_divergence_on_illconditioned(self):
        inst, prior, _ = structured_instance(N=2048, kappa=100.0)
        res = run_amp(inst, prior, 30)
        assert res.status == "diverged" or res.mse[-1] > 1e-2

    def test_noiseless_gaussian_exact_recovery(self):
        # overdetermined least-squares limit: geometric convergence to the
        # (negligible) noise floor
        op = build_iid_gaussian_operator(1024, 512, rng_seed=3)
        prior = PriorParams(mu=1.0)
        inst = sample_instance(op, prior, snr_db=120.0, rng_seed=4)
        res = run_amp(inst, prior, 50)
        assert res.mse[np.isfinite(res.mse)][-1] < 1e-6

    def test_onsager_term_improves_over_naive_iteration(self):
        op = build_iid_gaussian_operator(1024, 2048, rng_seed=5)
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=30.0, rng_seed=6)
        res = run_amp(inst, prior, 15)
        assert np.all(np.diff(res.trajectory("v_hat")[np.isfinite(res.mse)]) < 1e-3)


class CountingStructured(StructuredOperator):
    """Structured operator that counts its forward and adjoint transforms."""

    transforms = 0

    def apply(self, x):
        self.transforms += 1
        return super().apply(x)

    def apply_adjoint(self, y):
        self.transforms += 1
        return super().apply_adjoint(y)


class CountingDense(DenseOperator):
    """Dense operator that counts its forward and adjoint products."""

    transforms = 0

    def apply(self, x):
        self.transforms += 1
        return super().apply(x)

    def apply_adjoint(self, y):
        self.transforms += 1
        return super().apply_adjoint(y)


class TestTransformCounts:
    T = 10

    def counted_run(self, op, algo):
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=30.0, rng_seed=1)
        eigs = np.sqrt(np.clip(op.gram_eigenvalues(), 0.0, None))
        d = np.sort(eigs)[::-1][: min(op.M, op.N)]
        op.transforms = 0
        if algo == "bo_mamp":
            tables = tables_from_singular_values(d, op.N, self.T, M=op.M)
            res = run_bo_mamp(inst, prior, tables, self.T, 3)
        elif algo == "bo_oamp":
            res = run_bo_oamp(inst, prior, self.T)
        else:
            profile = exact_moments_from_singular_values(d, op.N, self.T, M=op.M)
            res = run_mf_oamp(inst, prior, self.T, profile)
        assert res.status == "ok" and len(res.records) == self.T
        return op.transforms

    def structured(self):
        N, M = 512, 256
        d = make_geometric_singular_values(M, 10.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=3)
        return CountingStructured(M, N, op.singular_values, op.perm)

    @pytest.mark.parametrize("algo", ["bo_mamp", "bo_oamp", "mf_oamp"])
    def test_two_per_iteration_on_structured(self, algo):
        assert self.counted_run(self.structured(), algo) == 2 * self.T

    def test_bo_mamp_three_per_iteration_on_dense(self):
        # the Gram product reuses the previous step's A^H r_hat: one A for it,
        # one A^H for the output, one A for the residual
        op = CountingDense(build_iid_gaussian_operator(128, 256, rng_seed=2).matrix)
        assert self.counted_run(op, "bo_mamp") == 3 * self.T
