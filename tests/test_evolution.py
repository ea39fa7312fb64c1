"""Covariance evolution, correlated-noise sampling and fixed-point consistency."""

import threading
import tracemalloc

import numpy as np
import pytest

from mamp import (
    CorrelatedNoiseSampler,
    NearSingularCovarianceError,
    PriorParams,
    bo_oamp_fixed_point_exact,
    exact_moments_from_singular_values,
    make_geometric_singular_values,
    oamp_fixed_point,
    run_bo_mamp_se,
    run_bo_oamp_se,
    run_mf_oamp_se,
    scalar_mmse,
    tables_from_singular_values,
)
from mamp import evolution, spectral
from mamp.denoisers import CHUNK, DenoiserOutput, complex_normal
from mamp.evolution import series_gamma_se


def _sampler(n, rng, rows):
    return CorrelatedNoiseSampler(n, rng, rows=rows, last=np.empty(n, dtype=complex))


class TestCorrelatedNoiseSampler:
    def test_first_coordinate_variance(self):
        rng = np.random.default_rng(0)
        sampler = _sampler(200_000, rng, rows=1)
        V = np.array([[0.7 + 0j]])
        eta = sampler.sample(V, 1)
        assert np.mean(np.abs(eta) ** 2) == pytest.approx(0.7, abs=3 * 0.7 / np.sqrt(200_000))

    def test_hand_conditional_coefficients(self):
        # V = [[1, .5], [.5, 1]]: regression weight .5, innovation variance .75
        rng = np.random.default_rng(1)
        n = 400_000
        sampler = _sampler(n, rng, rows=2)
        V = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        eta1 = sampler.sample(V, 1)
        eta2 = sampler.sample(V, 2)
        resid = eta2 - 0.5 * eta1
        assert np.mean(np.abs(resid) ** 2) == pytest.approx(0.75, abs=0.01)
        assert np.mean(np.conj(eta1) * eta2).real == pytest.approx(0.5, abs=0.01)

    def test_batch_realizes_target_covariance(self):
        rng = np.random.default_rng(2)
        n = 1_000_000
        sampler = _sampler(n, rng, rows=3)
        V = np.array(
            [[1.0, 0.6, 0.3], [0.6, 1.0, 0.55], [0.3, 0.55, 0.9]], dtype=complex
        )
        H = np.stack([sampler.sample(V, t) for t in range(1, 4)], axis=1)
        emp = H.conj().T @ H / n
        # three standard errors of each Monte-Carlo covariance entry
        tol = 3.0 / np.sqrt(n) * 2.0
        np.testing.assert_allclose(emp.conj(), V, atol=tol)

    def test_returned_draws_stay_as_drawn(self):
        n, t_max = 64, 40
        idx = np.arange(t_max)
        V = (0.5 ** np.abs(idx[:, None] - idx[None, :])).astype(complex)
        sampler = _sampler(n, np.random.default_rng(5), rows=t_max)
        draws, copies = [], []
        for t in range(1, t_max + 1):
            draws.append(sampler.sample(V, t))
            copies.append(draws[-1].copy())
        for eta, copy in zip(draws, copies):
            assert not eta.flags.writeable
            assert np.array_equal(eta, copy)

    def test_sized_sampler_draws_in_place_with_schur_complement_variances(self):
        n, T = 64, 12
        rng = np.random.default_rng(6)
        B = rng.standard_normal((T, T)) + 1j * rng.standard_normal((T, T))
        V = B @ B.conj().T / T + 0.1 * np.eye(T)
        last = np.empty(n, dtype=complex)
        sampler = CorrelatedNoiseSampler(n, np.random.default_rng(7), rows=T, last=last)
        draws = [sampler.sample(V, t) for t in range(1, T + 1)]
        # the first T - 1 rows are consecutive rows of one buffer, the last
        # draw is written to the given vector
        start = draws[0].__array_interface__["data"][0]
        for k, eta in enumerate(draws[:-1]):
            assert eta.__array_interface__["data"][0] == start + k * eta.nbytes
        assert np.shares_memory(draws[-1], last)
        assert not draws[-1].flags.writeable
        # the conditional variance of coordinate t given 1..t-1 is the Schur
        # complement of V[:t-1, :t-1], i.e. |L[t-1, t-1]|^2 of V = L L^H
        schur = np.abs(np.diag(np.linalg.cholesky(V))) ** 2
        np.testing.assert_allclose(sampler.variances, schur, rtol=1e-12)

    def test_prefetched_draws_equal_complex_normal_draws_from_the_same_generator(self):
        # the sampler draws each coordinate's normals one coordinate ahead, on
        # its pool thread; the rows are the conditional mean plus a
        # complex_normal draw, as if drawn in place on the caller
        n, T = 3 * CHUNK + 8, 6
        idx = np.arange(T)
        V = (0.6 ** np.abs(idx[:, None] - idx[None, :])).astype(complex)
        sampler = _sampler(n, np.random.default_rng(8), rows=T)
        try:
            draws = [sampler.sample(V, t).copy() for t in range(1, T + 1)]
        finally:
            sampler.close()
        rng = np.random.default_rng(8)
        for t, (eta, v_g) in enumerate(zip(draws, sampler.variances), start=1):
            if t == 1:
                want = complex_normal(rng, n, v_g)
            else:
                alpha = np.linalg.solve(V[: t - 1, : t - 1], V[: t - 1, t - 1])
                want = np.conj(alpha) @ np.stack(draws[: t - 1])
                complex_normal(rng, n, v_g, out=want, add=True)
            assert np.array_equal(eta.view(np.uint64), want.view(np.uint64)), t

    def test_near_singular_raises(self):
        rng = np.random.default_rng(3)
        sampler = _sampler(100, rng, rows=2)
        V = np.array([[1.0, 1.0], [1.0, 0.5]], dtype=complex)  # not PSD
        sampler.sample(V, 1)
        with pytest.raises(NearSingularCovarianceError):
            sampler.sample(V, 2)

    def test_tiny_negative_innovation_clamped(self):
        rng = np.random.default_rng(4)
        sampler = _sampler(1000, rng, rows=2)
        V = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]], dtype=complex)
        eta1 = sampler.sample(V, 1)
        eta2 = sampler.sample(V, 2)  # conditional variance ~ -1e-14 -> 0
        resid = eta2 - eta1
        assert np.max(np.abs(resid)) < 1e-6

    def test_clamped_variance_is_counted(self):
        sampler = _sampler(100, np.random.default_rng(4), rows=2)
        # Schur complement of the first coordinate: -1e-12, within tol
        V = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]], dtype=complex)
        sampler.sample(V, 1)
        assert sampler.clamped == 0
        sampler.sample(V, 2)
        assert sampler.clamped == 1
        assert sampler.variances[1] == 0.0


class TestEvolutionRuns:
    def setup_method(self):
        self.N = 1024
        self.M = 512
        self.d = make_geometric_singular_values(self.M, 10.0, float(self.N))
        self.tab = tables_from_singular_values(self.d, self.N, 40, M=self.M)
        self.prior = PriorParams(mu=0.1)
        self.sigma2 = 1e-3

    def test_gaussian_prior_first_step_closed_form(self):
        # with a Gaussian prior the extrinsic output carries no information:
        # its error is -x, so the cross-covariance with the initial error is 1
        prior = PriorParams(mu=1.0)
        se = run_bo_mamp_se(self.tab, prior, self.sigma2, 2, L=2, nle_mode="mc",
                            n_mc=200_000, rng_seed=0)
        V = se.debug["ledger"]
        assert V[1, 0].real == pytest.approx(1.0, abs=3 * 2 / np.sqrt(200_000))

    def test_noiseless_input_noiseless_output(self):
        assert scalar_mmse(1e-10, self.prior) < 1e-7

    def test_mc_and_deterministic_agree(self):
        se_mc = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 25, L=3,
                               nle_mode="mc", n_mc=100_000, rng_seed=1)
        se_det = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 25, L=3,
                                nle_mode="deterministic")
        db_mc = 10 * np.log10(se_mc.mse)
        db_det = 10 * np.log10(se_det.mse)
        # the deterministic variant models damping as keep-or-replace, so the
        # fast transient may deviate by ~1 dB; the plateau must coincide
        assert np.max(np.abs(db_mc - db_det)) < 2.0
        assert np.max(np.abs(db_mc[-5:] - db_det[-5:])) < 0.15

    def test_ledger_hermitian_and_monotone(self):
        se = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 20, L=3,
                            nle_mode="mc", n_mc=50_000, rng_seed=2)
        V = se.debug["ledger"][:21, :21]
        np.testing.assert_allclose(V, V.conj().T, atol=1e-12)
        diag = np.concatenate([[1.0], se.trajectory("v_phi_bar")])
        assert np.all(np.diff(diag) <= 1e-12)
        eig_min = np.linalg.eigvalsh(V).min()
        assert eig_min > -1e-8

    def test_banded_after_damping(self):
        se = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 15, L=3,
                            nle_mode="mc", n_mc=50_000, rng_seed=3)
        V = se.debug["ledger"]
        for t in range(2, 16):
            band = V[t, max(0, t - 2) : t]
            np.testing.assert_allclose(band.real, V[t, t].real, rtol=1e-8)

    def test_unstable_covariance_keeps_the_partial_record(self, monkeypatch):
        sample = CorrelatedNoiseSampler.sample

        def failing_sample(sampler, V_gamma, t):
            if t == 3:
                raise NearSingularCovarianceError("forced at iteration 3")
            return sample(sampler, V_gamma, t)

        monkeypatch.setattr(CorrelatedNoiseSampler, "sample", failing_sample)
        se = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 6, L=3,
                            nle_mode="mc", n_mc=2_000, rng_seed=0)
        assert se.status == "unstable_covariance"
        assert [r.t for r in se.records] == [1, 2, 3]
        for rec in se.records[:2]:
            fields = [rec.v_gamma, rec.v_phi_bar, rec.v_hat, rec.mse, rec.theta, rec.xi]
            assert np.all(np.isfinite(fields))
            assert rec.zeta.size == rec.t + 1  # the zero estimate and t candidates
        last = se.records[2]
        assert np.all(np.isfinite([last.theta, last.xi, last.v_gamma]))
        assert np.all(np.isnan([last.v_hat, last.mse, last.v_phi_bar]))
        assert last.zeta.size == 0
        assert np.all(np.isnan(se.mse[2:]))
        assert se.v_hat == se.records[1].mse

    @pytest.mark.parametrize("nle_mode", ["mc", "deterministic"])
    @pytest.mark.parametrize(
        "eps, v_gamma", [(0.0, np.nan), (0.5, -1.0)], ids=["no_normalizer", "negative"]
    )
    def test_degenerate_stop_keeps_the_records_before_it(
        self, monkeypatch, nle_mode, eps, v_gamma
    ):
        weights = evolution.memory_weights

        def degenerate_weights(V, scaled, t, *args):
            w = weights(V, scaled, t, *args)
            return (*w[:4], eps, v_gamma) if t == 3 else w

        monkeypatch.setattr(evolution, "memory_weights", degenerate_weights)
        se = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 6, L=3,
                            nle_mode=nle_mode, n_mc=2_000, rng_seed=0)
        assert se.status == "degenerate"
        assert [r.t for r in se.records] == [1, 2]
        assert se.v_hat == se.records[1].mse
        assert not se.debug["ledger"][3].any()
        assert not se.debug["V_gamma"][2].any()

    def test_monte_carlo_early_stop_keeps_the_posterior(self, monkeypatch):
        denoise = evolution.bg_mmse
        calls = []

        def stalling_denoiser(r, v, prior, out):
            res = denoise(r, v, prior, out)
            calls.append(v)
            if len(calls) == 3:
                return DenoiserOutput(res.posterior_mean, res.posterior_var, None)
            return res

        monkeypatch.setattr(evolution, "bg_mmse", stalling_denoiser)
        se = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 6, L=3,
                            nle_mode="mc", n_mc=2_000, rng_seed=0)
        assert se.status == "early_stop_nle"
        assert [r.t for r in se.records] == [1, 2, 3]
        last = se.records[2]
        assert np.isfinite(last.mse) and last.mse == last.v_hat == se.v_hat
        assert np.isnan(last.v_phi_bar) and last.zeta.size == 0
        assert not se.debug["ledger"][3].any()

    def test_clamped_variances_reach_the_debug_dict(self, monkeypatch):
        sample = CorrelatedNoiseSampler.sample

        def clamping_sample(sampler, V_gamma, t):
            if t == 2:
                # the second coordinate's Schur complement becomes -1e-12
                V_gamma = V_gamma.copy()
                V_gamma[1, 1] = abs(V_gamma[1, 0]) ** 2 / V_gamma[0, 0].real - 1e-12
            return sample(sampler, V_gamma, t)

        se = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 4, L=3,
                            nle_mode="mc", n_mc=2_000, rng_seed=0)
        assert se.debug["clamped_variances"] == 0
        monkeypatch.setattr(CorrelatedNoiseSampler, "sample", clamping_sample)
        se = run_bo_mamp_se(self.tab, self.prior, self.sigma2, 4, L=3,
                            nle_mode="mc", n_mc=2_000, rng_seed=0)
        assert se.debug["clamped_variances"] == 1

    @pytest.mark.parametrize("end", ["ok", "early_stop_nle", "raises"])
    def test_no_thread_outlives_the_monte_carlo_evolution(self, monkeypatch, end):
        class Stop(Exception):
            pass

        denoise = evolution.bg_mmse
        before = set(threading.enumerate())
        during = []

        def ending_denoiser(r, v, prior, out):
            # the sampler's pool thread is alive, drawing the next coordinate
            during.append(set(threading.enumerate()) - before)
            res = denoise(r, v, prior, out)
            if len(during) == 2 and end == "raises":
                raise Stop
            if len(during) == 2 and end == "early_stop_nle":
                return DenoiserOutput(res.posterior_mean, res.posterior_var, None)
            return res

        monkeypatch.setattr(evolution, "bg_mmse", ending_denoiser)
        run = lambda: run_bo_mamp_se(self.tab, self.prior, self.sigma2, 4, L=3,
                                     nle_mode="mc", n_mc=2_000, rng_seed=0)
        if end == "raises":
            with pytest.raises(Stop):
                run()
        else:
            assert run().status == end
        assert all(len(new) == 1 for new in during[:2])
        assert set(threading.enumerate()) == before

    def test_monte_carlo_path_holds_only_what_a_later_step_reads(self):
        # 2T - 1 history rows and 2.5 rows of work vectors at the peak; the
        # chunk-sized scratch adds ~1.3 rows at this n_mc
        T, n_mc = 10, 20_000
        run = lambda n: run_bo_mamp_se(self.tab, self.prior, self.sigma2, T, L=3,
                                       nle_mode="mc", n_mc=n, rng_seed=0)
        run(200)  # the denoiser's lazy SciPy import is not the evolution's
        tracemalloc.start()
        try:
            se = run(n_mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert se.status == "ok"
        assert peak < (2 * T + 4) * 16 * n_mc

    def test_fixed_xi_reaches_same_fixed_point(self, monkeypatch):
        from mamp import core

        tab = tables_from_singular_values(self.d, self.N, 200, M=self.M)
        vg_fp, vp_fp = oamp_fixed_point(tab, self.prior, self.sigma2)
        for xi_star in (0.5, 1.0, 2.0):
            # xi = xi_star from t = 2 on; t = 1 keeps its xi = 1
            monkeypatch.setattr(core, "optimize_xi", lambda *args: xi_star)
            se = run_bo_mamp_se(tab, self.prior, self.sigma2, 200, L=3,
                                nle_mode="deterministic")
            assert se.trajectory("v_phi_bar")[-1] == pytest.approx(vp_fp, rel=1e-6), xi_star


class TestScalarEvolutions:
    def test_bo_oamp_evolution_decreases(self):
        spectrum = exact_moments_from_singular_values(
            make_geometric_singular_values(512, 10.0, 1024.0), 1024, 1
        )
        se = run_bo_oamp_se(spectrum, PriorParams(mu=0.1), 1e-3, 20)
        v_phi = se.trajectory("v_phi_bar")
        assert np.all(np.diff(v_phi[np.isfinite(v_phi)]) < 0)

    def test_mf_oamp_evolution_matches_lmmse_for_flat_spectrum(self):
        spectrum = exact_moments_from_singular_values(np.full(512, np.sqrt(2.0)), 1024, 1)
        se_mf = run_mf_oamp_se(spectrum, PriorParams(mu=0.1), 1e-3, 15)
        se_bo = run_bo_oamp_se(spectrum, PriorParams(mu=0.1), 1e-3, 15)
        np.testing.assert_allclose(se_mf.mse, se_bo.mse, rtol=1e-9)


class TestFixedPoint:
    def test_identical_eigenvalues_unit_delta_noise_floor(self):
        tab = tables_from_singular_values(np.ones(256), 256, 10, M=256)
        prior = PriorParams(mu=0.1)
        sigma2 = 1e-3
        vg, vp = oamp_fixed_point(tab, prior, sigma2)
        assert vg == pytest.approx(sigma2, rel=1e-10)

    def test_series_transfer_equals_eigenvalue_transfer(self):
        d = make_geometric_singular_values(256, 20.0, 512.0)
        tab = tables_from_singular_values(d, 512, 30, M=256)
        sigma2 = 1e-2
        from mamp.evolution import lmmse_gamma_se

        for v in (1.0, 0.1, 0.01):
            v_series = series_gamma_se(v, tab, sigma2)
            v_eig = lmmse_gamma_se(v, tab.spectrum, sigma2)
            assert v_series == pytest.approx(v_eig, rel=1e-9)

    def test_series_transfer_equals_eigenvalue_transfer_with_bounded_extremes(self):
        # lambda_min = 0 and the trace bound on lambda_max: the series stops
        # at the decay of the weights, not at the unit radius of the extremes
        from mamp import bound_extremal_eigenvalues, exact_moments_from_singular_values
        from mamp.evolution import lmmse_gamma_se

        d = make_geometric_singular_values(256, 20.0, 512.0)
        prof = exact_moments_from_singular_values(d, 512, 30, M=256)
        _, lam_up = bound_extremal_eigenvalues(float(prof.moments[60]), 60, 512)
        tab = tables_from_singular_values(d, 512, 30, M=256, lambda_extremes=(0.0, lam_up))
        spec = tab.spectrum
        assert 0.5 * (spec.lambda_max - spec.lambda_min) / tab.lambda_dagger == 1.0
        sigma2 = 1e-2
        for v in (1.0, 0.1, 0.01):
            v_series = series_gamma_se(v, tab, sigma2)
            v_eig = lmmse_gamma_se(v, tab.spectrum, sigma2)
            assert v_series == pytest.approx(v_eig, rel=1e-9)

    def test_series_transfer_keeps_relative_accuracy_at_small_variances(self):
        # at 40 dB and v_phi ~ 5.6e-6 the result is ~1e-4: a tail bound
        # against an absolute 1e-12 left it 2.4e-8 off the eigenvalue route
        from mamp.evolution import lmmse_gamma_se

        d = make_geometric_singular_values(1024, 10.0, 1024.0)
        tab = tables_from_singular_values(d, 1024, 30, M=1024)
        for v in (5.6e-6, 1e-3, 1.0):
            v_series = series_gamma_se(v, tab, 1e-4)
            assert v_series == pytest.approx(lmmse_gamma_se(v, tab.spectrum, 1e-4), rel=1e-11)

    @pytest.mark.parametrize("mode", ["bounded", "exact"])
    def test_fixed_point_series_lengths_on_the_paper_config(self, monkeypatch, mode):
        # term counts, not times: with bounded moments a tail bound that
        # decays at (lambda_max - lambda_min) / (2 ld) = 1 asked for 2**18 terms
        from dataclasses import replace
        from pathlib import Path

        from mamp import harness
        from mamp.spectral import MomentTables

        lengths = []
        extend = MomentTables.w_scaled_extended

        def recording_extend(tables, n):
            lengths.append(n)
            return extend(tables, n)

        ini = Path(__file__).resolve().parents[1] / "configs" / "illconditioned_damping.ini"
        config = replace(harness.ExperimentConfig.from_file(str(ini)), moment_mode=mode)
        tab = harness._spectral_inputs(config, harness._build_operator(config, 0))
        monkeypatch.setattr(MomentTables, "w_scaled_extended", recording_extend)
        oamp_fixed_point(tab, PriorParams(mu=config.mu), config.sigma2)
        # one request per series evaluation; starting below v* keeps every
        # series inside the 2T + 2 stored weights, so none is extended
        assert len(lengths) <= 10
        assert max(lengths) < len(tab.w_scaled) <= 64
        assert getattr(tab, "_w_ext", None) is None

    def test_fixed_points_agree_between_routes(self):
        prior = PriorParams(mu=0.1)
        for kappa, delta, snr in ((10.0, 0.5, 30.0), (100.0, 1.0, 20.0)):
            N = 1024
            M = int(delta * N)
            d = make_geometric_singular_values(min(M, N), kappa, float(N))
            tab = tables_from_singular_values(d, N, 50, M=M)
            sigma2 = 10 ** (-snr / 10)
            _, vp = oamp_fixed_point(tab, prior, sigma2)
            _, vp_eig = bo_oamp_fixed_point_exact(tab.spectrum, prior, sigma2)
            assert vp == pytest.approx(vp_eig, rel=1e-8)

    def test_both_routes_run_the_safeguarded_secant_bit_for_bit(self):
        # the solver written out: start at phi_se(sigma2 / w0), a Picard step,
        # then secant steps on log v inside the bracket (below, above], the
        # Picard step or bisection where a step would leave it; then the
        # Picard chain from v = 1 on the eigenvalue-exact map, which stops
        # 0.05 above the root or, where it stalls above that, brackets the
        # larger root below its predicted limit and solves again there
        import math

        from mamp.evolution import _phi_se, lmmse_gamma_se

        def secant(gamma_of, prior, u, below, above, tol):
            last = None
            while True:
                v_gamma = gamma_of(math.exp(u))
                g = math.log(_phi_se(v_gamma, prior)) - u
                below, above = (u, above) if g > 0 else (below, u)
                step = g
                if last is not None and last[1] != g:
                    step = g * (u - last[0]) / (last[1] - g)
                if abs(step) < tol or above - below < tol:
                    return v_gamma, u
                if not below < u + step < above:
                    step = g if below < u + g < above else (below + above) / 2 - u
                last = u, g
                u += step

        def solve(gamma_of, chain_of, w0, prior, sigma2, tol=1e-13):
            def chain_g(u):
                return math.log(_phi_se(chain_of(math.exp(u)), prior)) - u

            u0 = math.log(_phi_se(sigma2 / w0, prior))
            v_gamma, root = secant(gamma_of, prior, u0, -math.inf, 0.0, tol)
            top, last = 0.0, None
            while top > root + 0.05:
                step = chain_g(top)
                if last is not None and last[1] != step:
                    limit = top - step * (top - last[0]) / (step - last[1])
                    c = 2 * limit - (top + step)
                    if root + 0.05 < c < top + step and chain_g(c) > 0:
                        v_gamma, root = secant(gamma_of, prior, c, c, top + step, tol)
                last = top, step
                top += step
            return v_gamma, math.exp(root)

        # the second case steps through the knee of the denoiser's curve,
        # where secant steps leave the bracket and Picard steps replace them;
        # the third has two stable fixed points, and the chain moves the
        # search from the lower one to the upper one
        cases = ((0.1, 10.0, 0.5, 1e-3), (0.3, 1.0, 0.25, 1e-4), (0.1, 1.0, 0.15, 1e-5))
        for mu, kappa, delta, sigma2 in cases:
            prior = PriorParams(mu=mu)
            N = 1024
            M = int(delta * N)
            d = make_geometric_singular_values(M, kappa, float(N))
            tab = tables_from_singular_values(d, N, 50, M=M)
            exact = lambda v: lmmse_gamma_se(v, tab.spectrum, sigma2)
            assert oamp_fixed_point(tab, prior, sigma2) == solve(
                lambda v: series_gamma_se(v, tab, sigma2), exact, tab.w0, prior, sigma2
            )
            w0 = float(np.sum(d**2)) / N
            assert bo_oamp_fixed_point_exact(tab.spectrum, prior, sigma2) == solve(
                exact, exact, w0, prior, sigma2
            )

    def test_two_stable_fixed_points_give_the_one_reached_from_v_one(self):
        # delta = 0.15 sits between the algorithmic and information-theoretic
        # thresholds of mu = 0.1 at 50-60 dB: v -> phi_se(gamma(v)) crosses
        # the diagonal near 3e-6 (reached from below), 0.067 and 0.6 (reached
        # from v = 1, as every evolution starts); both routes report 0.6
        from mamp.evolution import lmmse_gamma_se
        from oracles import relaxed_fixed_point

        prior = PriorParams(mu=0.1)
        N, M = 512, 76
        d = make_geometric_singular_values(M, 1.0, float(N))
        tab = tables_from_singular_values(d, N, 200, M=M)
        for snr in (50.0, 60.0):
            sigma2 = 10 ** (-snr / 10)
            _, v_oracle = relaxed_fixed_point(lambda v: lmmse_gamma_se(v, tab.spectrum, sigma2), prior, 1e-12)
            v_tail = run_bo_oamp_se(tab.spectrum, prior, sigma2, 300).trajectory("v_phi_bar")[-1]
            assert v_oracle > 0.5
            _, v_series = oamp_fixed_point(tab, prior, sigma2)
            _, v_exact = bo_oamp_fixed_point_exact(tab.spectrum, prior, sigma2)
            for v in (v_series, v_exact):
                assert v == pytest.approx(v_oracle, rel=1e-10)
                assert v == pytest.approx(v_tail, rel=1e-12)

    def test_series_noise_near_a_high_fixed_point_ends_in_bisection(self, monkeypatch):
        # mu = 0.3 above delta = 0.25 leaves v* near 0.88, where the series
        # needs 2**18 terms and its rounding makes the transfer noisy at
        # ~1e-10: secant and Picard steps then leave the bracket, and only
        # bisecting it ends the search
        from mamp.evolution import lmmse_gamma_se

        prior = PriorParams(mu=0.3)
        N, M, sigma2 = 512, 128, 1e-3
        d = make_geometric_singular_values(M, 100.0, float(N))
        tab = tables_from_singular_values(d, N, 30, M=M)
        monkeypatch.setattr(evolution, "_MAX_SWEEPS", 40)
        _, v_series = oamp_fixed_point(tab, prior, sigma2)
        _, v_exact = bo_oamp_fixed_point_exact(tab.spectrum, prior, sigma2)
        assert v_exact > 0.5
        assert v_series == pytest.approx(v_exact, rel=1e-9)
        assert series_gamma_se(v_exact, tab, sigma2) == pytest.approx(
            lmmse_gamma_se(v_exact, tab.spectrum, sigma2), rel=1e-9
        )

    def test_no_more_work_than_the_relaxed_iteration_on_the_grid(self, monkeypatch):
        # criterion 2's grid plus delta = 4 and mu in {0.05, 0.3}, and the
        # slow case mu = 0.1, kappa = 100, delta = 0.25 at 40 dB, and two
        # cases with two stable fixed points: wherever the relaxed iteration
        # from v = 1 converges, the secant solver reaches the same fixed point
        # with no more series evaluations and no longer a series, and lands
        # no farther from the eigenvalue-exact one (or within 1e-11 of it)
        import itertools

        from mamp.evolution import lmmse_gamma_se
        from mamp.spectral import MomentTables
        from oracles import relaxed_fixed_point

        lengths = []
        extend = MomentTables.w_scaled_extended

        def recording_extend(tables, n):
            lengths.append(n)
            return extend(tables, n)

        def run(solver):
            lengths.clear()
            result = solver()
            return result, len(lengths), max(lengths)

        monkeypatch.setattr(MomentTables, "w_scaled_extended", recording_extend)
        grid = list(itertools.product((0.05, 0.1, 0.3), (1.0, 10.0, 100.0), (0.5, 1.0, 4.0), (20.0, 30.0)))
        grid += [(0.1, 100.0, 0.25, 40.0), (0.1, 1.0, 0.15, 50.0), (0.1, 1.0, 0.15, 60.0)]
        N, failures = 512, []
        for mu, kappa, delta, snr in grid:
            prior = PriorParams(mu=mu)
            M = int(delta * N)
            sigma2 = 10 ** (-snr / 10)
            d = make_geometric_singular_values(min(M, N), kappa, float(N))
            tab = tables_from_singular_values(d, N, 200, M=M)
            series = lambda v: series_gamma_se(v, tab, sigma2)
            exact = lambda v: lmmse_gamma_se(v, tab.spectrum, sigma2)
            try:
                (_, v_old), n_old, len_old = run(lambda: relaxed_fixed_point(series, prior, 1e-10))
            except ValueError:
                continue  # the series at v = 1 needs more than _MAX_TERMS terms
            _, v_old_x = relaxed_fixed_point(exact, prior, 1e-12)
            (_, v_new), n_new, len_new = run(lambda: oamp_fixed_point(tab, prior, sigma2))
            _, v_new_x = bo_oamp_fixed_point_exact(tab.spectrum, prior, sigma2)
            gap_old = abs(v_old - v_old_x) / v_old_x
            gap_new = abs(v_new - v_new_x) / v_new_x
            if (
                n_new > n_old
                or len_new > len_old
                or gap_new > max(gap_old, 1e-11)
                or abs(v_new - v_old) > 1e-8 * v_old
            ):
                failures.append((mu, kappa, delta, snr, n_old, n_new, len_old, len_new, gap_old, gap_new))
        assert not failures

    def test_series_raises_when_truncated_at_max_terms(self, monkeypatch):
        d = make_geometric_singular_values(256, 20.0, 512.0)
        tab = tables_from_singular_values(d, 512, 30, M=256)
        monkeypatch.setattr(evolution, "_MAX_TERMS", 64)
        with pytest.raises(ValueError, match=r"tail bound .* at 64 terms"):
            series_gamma_se(1.0, tab, 1e-2)

    @pytest.mark.parametrize("T", [3, 30])
    def test_estimate_built_tables_raise(self, T, monkeypatch):
        # at the shipped T = 30 a short series can fit in the stored 2T + 2
        # weights, but the estimate's weights past t ~ 20 are not reliable
        from mamp import build_moment_tables, build_structured_operator
        from mamp import estimate_moments_power_recursion

        op = build_structured_operator(128, 256, make_geometric_singular_values(128, 10.0, 256.0), rng_seed=0)
        monkeypatch.setattr(spectral, "_N_PROBES", 2)
        prof = estimate_moments_power_recursion(op, T, rng_seed=0)
        tab = build_moment_tables(prof, T)
        with pytest.raises(ValueError, match="eigenvalue-built tables"):
            oamp_fixed_point(tab, PriorParams(mu=0.1), 1e-3)
