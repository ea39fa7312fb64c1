"""Long-memory recursion: relaxation, weight optimization, damping, full runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamp import (
    DegenerateNormalizationError,
    InvalidLedgerError,
    MampConfig,
    PriorParams,
    build_structured_operator,
    gamma_covariance_row,
    make_geometric_singular_values,
    optimal_damping,
    optimize_theta,
    optimize_xi,
    run_bo_mamp,
    sample_instance,
    tables_from_singular_values,
    xi_cost_coefficients,
)
from mamp.core import (
    Ledger,
    damp_into,
    damping_window,
    divide_in_place,
    estimate_phi_covariance,
    mean_squared_error,
    memory_le_step,
)
from mamp.denoisers import CHUNK
from mamp.operators import build_iid_gaussian_operator

from oracles import dense_memory_filter_terms


def small_problem(M=16, N=32, kappa=6.0, snr_db=20.0, mu=0.25, seed=0, T=6, L=3):
    d = make_geometric_singular_values(min(M, N), kappa, float(N))
    op = build_structured_operator(M, N, d, rng_seed=seed)
    prior = PriorParams(mu=mu)
    inst = sample_instance(op, prior, snr_db=snr_db, rng_seed=seed + 100)
    tab = tables_from_singular_values(d, N, T, M=M)
    return inst, prior, tab, MampConfig(tables=tab, T=T, L=L, collect_debug=True)


class TestTheta:
    def test_hand_value(self):
        theta = optimize_theta(1.0, 0.25)
        assert theta == pytest.approx(0.8, rel=1e-14)

    def test_bounded_extremes_keep_contraction(self):
        # with (0, lambda_max_up) bounds the relaxation stays below 2/(rho+lambda_max)
        lam_max, lam_max_up = 1.6, np.sqrt(2.72)
        for rho in (0.05, 0.5, 5.0):
            theta_approx = optimize_theta(0.5 * (0.0 + lam_max_up), rho)
            assert 0 < theta_approx < 2.0 / (rho + lam_max)


class TestXiCoefficients:
    def test_first_iteration_short_circuit(self):
        tab = tables_from_singular_values(np.ones(8), 8, 4, M=8)
        V = np.array([[1.0 + 0j]])
        c0, c1, c2, c3 = xi_cost_coefficients(np.empty(0), V, tab, 0.01)
        assert (c0, c2, c3) == (0.0, 0.0, 0.0)
        assert c1 == pytest.approx(0.01)  # sigma^2 w0 with wbar00 = 0

    def test_identical_eigenvalue_collapse(self):
        tab = tables_from_singular_values(np.ones(8), 8, 4, M=8)
        V = np.eye(3, dtype=complex) * 0.5
        c0, c1, c2, c3 = xi_cost_coefficients(np.array([0.3, 0.2]), V, tab, 0.01)
        assert c0 == 0.0 and c2 == 0.0 and c3 == 0.0
        assert c1 == pytest.approx(0.01)

    def test_rational_form_matches_double_sum(self):
        """The (c0..c3) closed form reproduces the full double sum at any xi."""
        rng = np.random.default_rng(4)
        d = make_geometric_singular_values(8, 5.0, 16.0)
        tab = tables_from_singular_values(d, 16, 5, M=8)
        t = 4
        sigma2 = 0.03
        scaled_prev = rng.uniform(0.1, 0.6, t - 1)
        B = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
        V = (B @ B.conj().T) / 4 + np.eye(t)
        c0, c1, c2, c3 = xi_cost_coefficients(scaled_prev, V, tab, sigma2)
        for xi in (-1.3, 0.7, 2.9):
            weights = np.append(scaled_prev, xi)
            eps = float(weights @ tab.w_scaled[t - np.arange(1, t + 1)])
            rational = (c1 * xi**2 - 2 * c2 * xi + c3) / (tab.w0 * (xi + c0)) ** 2
            direct = 0.0
            for i in range(1, t + 1):
                for j in range(1, t + 1):
                    direct += (
                        weights[i - 1]
                        * weights[j - 1]
                        * (
                            sigma2 * tab.w_scaled[2 * t - i - j]
                            + (V[i - 1, j - 1] * tab.wbar_scaled[t - i, t - j]).real
                        )
                    )
            direct /= eps**2
            assert rational == pytest.approx(direct, rel=1e-10)


class TestXiOptimizer:
    def test_zero_denominator_saturates(self):
        xi, degenerate = optimize_xi(1.0, 0.0, 0.0, 2.0, 1e6)
        assert xi == 1e6 and not degenerate

    def test_hand_ratio_beats_grid(self):
        c = (1.0, 2.0, 1.0, 3.0)
        xi, _ = optimize_xi(*c, 1e6)
        assert xi == pytest.approx(4.0 / 3.0, rel=1e-14)

        def cost(x):
            return (c[1] * x**2 - 2 * c[2] * x + c[3]) / (x + c[0]) ** 2

        grid = np.linspace(-10, 10, 4001)
        grid = grid[np.abs(grid + c[0]) > 1e-3]
        assert cost(xi) <= np.min(cost(grid)) + 1e-12

    def test_fully_degenerate_returns_unit(self):
        xi, degenerate = optimize_xi(0.0, 0.0, 0.0, 0.0, 1e6)
        assert xi == 1.0 and degenerate

    def test_saturation_keeps_sign(self):
        xi, _ = optimize_xi(0.0, 1.0, 1e-12, -1.0, 1e6)
        assert xi == -1e6


class TestDamping:
    def test_hand_two_by_two(self):
        sol = optimal_damping(np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex))
        np.testing.assert_allclose(sol.zeta, [0.0, 1.0], atol=1e-12)
        assert sol.variance == pytest.approx(1.0)
        assert not sol.singular

    def test_independent_errors_average(self):
        sol = optimal_damping(np.eye(2, dtype=complex))
        np.testing.assert_allclose(sol.zeta, [0.5, 0.5], rtol=1e-14)
        assert sol.variance == pytest.approx(0.5)

    def test_beats_random_feasible_directions(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        V = B @ B.conj().T + 0.5 * np.eye(3)
        sol = optimal_damping(V)
        w = rng.standard_normal((10_000, 3)) + 1j * rng.standard_normal((10_000, 3))
        w += (1.0 - w.sum(axis=1))[:, None] / 3.0  # project onto sum = 1
        costs = np.einsum("ki,ij,kj->k", w.conj(), V, w).real
        assert sol.variance <= costs.min() + 1e-10
        assert sol.variance <= V.diagonal().real.min()

    def test_singular_block_keeps_previous(self):
        V = np.ones((3, 3), dtype=complex)
        sol = optimal_damping(V)
        assert sol.singular
        np.testing.assert_allclose(sol.zeta, [0.0, 1.0, 0.0])
        assert sol.variance == pytest.approx(1.0)

    def test_invalid_blocks_raise(self):
        with pytest.raises(InvalidLedgerError):
            optimal_damping(np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex))
        with pytest.raises(InvalidLedgerError):
            optimal_damping(np.array([[np.nan, 0], [0, 1.0]], dtype=complex))

    def test_window_length_respects_limit(self):
        with pytest.raises(ValueError):
            optimal_damping(np.eye(4, dtype=complex), L=3)


def draw_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def damp_vectors(ledger, t, new_rows):
    """Damp candidate vectors against histories whose rows are the damped errors.

    new_rows lists (H, candidate) pairs; the first pair's sample covariances
    (mean of conj(a) b over a row) feed the ledger.
    """
    (H, new), *_ = new_rows
    row = H[:t] @ np.conj(new) / H.shape[1]
    diag = float(np.vdot(new, new).real) / H.shape[1]
    return ledger.damp(t, row, diag, list(new_rows))


class TestLedger:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), L=st.integers(2, 4), T=st.integers(2, 8)
    )
    def test_stays_hermitian_psd_and_nonincreasing(self, seed, L, T):
        rng = np.random.default_rng(seed)
        n = 32
        H = np.zeros((T + 1, n), dtype=complex)
        H[0] = draw_complex(rng, n)
        ledger = Ledger(T, L, float(np.vdot(H[0], H[0]).real) / n)
        V = ledger.V
        for t in range(1, T + 1):
            # a candidate correlated with the damped errors so far, plus fresh
            # noise: every block the ledger sees is a sample Gram matrix
            new = 0.5 * (draw_complex(rng, t) @ H[:t])
            new += 10.0 ** rng.uniform(-3, 0) * draw_complex(rng, n)
            cand = damping_window(ledger.effective, t + 1, L)
            sources = [H[i - 1] if i <= t else new for i in cand]
            sol = damp_vectors(ledger, t, [(H, new)])
            Vt = V[: t + 1, : t + 1]
            assert np.array_equal(Vt, Vt.conj().T)
            scale = float(np.max(np.abs(Vt)))
            assert np.linalg.eigvalsh(Vt).min() >= -1e-12 * scale
            assert V[t, t].real <= V[t - 1, t - 1].real * (1.0 + 1e-9)
            if sol.singular:
                assert np.array_equal(H[t], H[t - 1])
            else:
                expected = np.zeros(n, dtype=complex)
                for zk, src in zip(sol.zeta, sources):
                    expected += zk * src
                assert np.array_equal(H[t], expected)
            # the ledger is the Gram matrix of the damped errors it tracks
            gram = H[: t + 1].conj() @ H[: t + 1].T / n
            np.testing.assert_allclose(Vt, gram, rtol=0, atol=1e-9 * scale)

    def test_duplicate_candidate_takes_the_singular_fallback(self):
        # dyadic entries make the duplicate's elimination pivot exactly zero;
        # with generic complex entries rounding leaves a tiny pivot and the
        # solve just splits the weight between the two equal candidates
        T = 3
        rng = np.random.default_rng(3)
        X = np.zeros((T + 1, 4), dtype=complex)
        Z = np.zeros((T + 1, 8), dtype=complex)
        X[0], Z[0] = 1.0, draw_complex(rng, 8)
        ledger = Ledger(T, 3, 1.0)
        V = ledger.V
        orthogonal = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)
        sol = damp_vectors(ledger, 1, [(X, orthogonal), (Z, draw_complex(rng, 8))])
        assert not sol.singular and ledger.effective == [1, 2]
        # candidate 3 repeats damped estimate 2, the last one retained
        t = 2
        before = V.copy()
        sol = damp_vectors(ledger, t, [(X, X[t - 1].copy()), (Z, draw_complex(rng, 8))])
        assert sol.singular
        assert ledger.effective == [1, 2]
        for H in (X, Z):
            assert np.array_equal(H[t].view(np.uint64), H[t - 1].view(np.uint64))
        assert np.array_equal(V[t, :t], V[t - 1, :t])
        assert V[t, t] == V[t - 1, t - 1]
        Vt = V[: t + 1, : t + 1]
        assert np.array_equal(Vt, Vt.conj().T)
        assert np.array_equal(V[:t, :t], before[:t, :t])


class TestChunkedKernels:
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_equal_the_whole_vector_expressions_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        draw = lambda: rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sources = [draw() for _ in range(3)]
        zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        expected = np.zeros(n, dtype=complex)
        for zk, src in zip(zeta, sources):
            expected += zk * src
        out = draw()
        damp_into(out, zeta, sources)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        a, b = sources[:2]
        assert mean_squared_error(a, b) == float(np.mean(np.abs(a - b) ** 2))
        quotient = a / 1.7
        assert np.array_equal(divide_in_place(a, 1.7).view(np.uint64), quotient.view(np.uint64))


class TestCovarianceEstimate:
    def test_perfect_estimate_hits_noise_floor(self):
        inst, prior, tab, _ = small_problem(M=512, N=1024, seed=3)
        z_perfect = inst.y - inst.operator.apply(inst.x_true)
        _, diag = estimate_phi_covariance(
            z_perfect, np.zeros((0, 512), complex), 1024, inst.noise_var,
            0.5, tab.w0,
        )
        assert abs(diag) < 5e-3

    def test_zero_estimate_has_unit_error(self):
        inst, prior, tab, _ = small_problem(M=2048, N=4096, seed=4, snr_db=30.0)
        _, diag = estimate_phi_covariance(
            inst.y, np.zeros((0, 2048), complex), 4096, inst.noise_var, 0.5, tab.w0
        )
        assert diag == pytest.approx(1.0, abs=0.1)

    def test_tracks_ground_truth_covariance(self):
        """Residual products vs true error inner products on a large run."""
        N, M = 16384, 8192
        d = make_geometric_singular_values(M, 10.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=0)
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=30.0, rng_seed=1)
        tab = tables_from_singular_values(d, N, 8, M=M)
        res = run_bo_mamp(inst, prior, MampConfig(tables=tab, T=8, L=3, collect_debug=True))
        X = res.debug["X"]
        V = res.debug["ledger"]
        for t in (3, 5, 7):
            f = X[t] - inst.x_true
            truth = float(np.vdot(f, f).real) / N
            assert V[t, t].real == pytest.approx(truth, rel=0.05)


class TestMemoryLEStep:
    def test_identical_eigenvalues_collapse_to_matched_filter(self):
        inst, prior, tab, cfg = small_problem(M=32, N=64, kappa=1.0, T=4, L=1)
        res = run_bo_mamp(inst, prior, cfg)
        X = res.debug["X"]
        rs = res.debug["r_history"]
        op = inst.operator
        for t in range(1, 4):
            x_t = X[t - 1]
            expected = op.apply_adjoint(inst.y - op.apply(x_t)) / tab.w0 + x_t
            np.testing.assert_allclose(rs[t - 1], expected, rtol=1e-9, atol=1e-12)

    def test_first_iteration_is_scaled_matched_filter(self):
        inst, prior, tab, cfg = small_problem()
        res = run_bo_mamp(inst, prior, cfg)
        expected = inst.operator.apply_adjoint(inst.y) / tab.w0
        np.testing.assert_allclose(res.debug["r_history"][0], expected, rtol=1e-10)

    def test_expanded_filter_matches_recursion(self):
        """Dense polynomial expansion of the memory filter reproduces r_t."""
        inst, prior, tab, cfg = small_problem(M=24, N=48, T=3, seed=6)
        res = run_bo_mamp(inst, prior, cfg)
        A = inst.operator.dense()
        _, W, w = dense_memory_filter_terms(A, tab.lambda_dagger, 4)
        powers, _, _ = dense_memory_filter_terms(A, tab.lambda_dagger, 4)
        B_powers = powers
        thetas = res.trajectory("theta")
        xis = res.trajectory("xi")
        X = res.debug["X"]
        N = inst.operator.N
        for t in (1, 2, 3):
            varthetas = np.array(
                [xis[i - 1] * np.prod(thetas[i : t]) for i in range(1, t + 1)]
            )
            Q = sum(
                varthetas[i - 1] * A.conj().T @ B_powers[t - i] for i in range(1, t + 1)
            )
            eps = sum(varthetas[i - 1] * w[t - i] for i in range(1, t + 1))
            r_expanded = Q @ inst.y
            for i in range(1, t + 1):
                H = varthetas[i - 1] * (w[t - i] * np.eye(N) - W[t - i])
                r_expanded = r_expanded + H @ X[i - 1]
            r_expanded /= eps
            np.testing.assert_allclose(
                res.debug["r_history"][t - 1], r_expanded, rtol=1e-8, atol=1e-10
            )
            # divergence-free trace constraints of the expanded filter
            assert np.trace(Q @ A).real / (N * eps) == pytest.approx(1.0, rel=1e-10)
            for i in range(1, t + 1):
                H = varthetas[i - 1] * (w[t - i] * np.eye(N) - W[t - i])
                assert abs(np.trace(H)) / N < 1e-10


    def test_in_place_step_equals_its_expressions_and_reuses_the_adjoint(self):
        """On a dense operator, the step's A^H r_hat stands in for the next
        Gram product's adjoint; the in-place arithmetic keeps the bits of the
        written-out update."""
        op = build_iid_gaussian_operator(24, 48, rng_seed=3)
        rng = np.random.default_rng(4)
        cn = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r_hat, z_bar, X, p = cn(24), cn(24), np.stack([cn(48), cn(48)]), cn(2).real
        xi, theta, eps, ld = 0.7, 0.4, 1.3, 2.1
        new_hat = xi * z_bar + theta * (ld * r_hat - op.apply(op.apply_adjoint(r_hat)))
        r_ref = (op.apply_adjoint(new_hat) - p.astype(complex) @ X) / eps
        bits = lambda a: a.view(np.uint64)
        for adjoint in (None, op.apply_adjoint(r_hat)):
            acc = r_hat.copy()
            out_hat, r, u = memory_le_step(acc, z_bar, X, p, xi, theta, eps, op, ld, adjoint)
            assert out_hat is acc
            assert np.array_equal(bits(out_hat), bits(new_hat))
            assert np.array_equal(bits(r), bits(r_ref))
            assert np.array_equal(bits(u), bits(op.apply_adjoint(new_hat)))

    def test_structured_step_keeps_no_adjoint(self):
        inst, _, tab, _ = small_problem()
        op = inst.operator
        X = np.zeros((1, op.N), dtype=complex)
        *_, u = memory_le_step(
            np.zeros(op.M, dtype=complex), inst.y, X, np.array([-tab.w0]), 1.0, 0.5,
            tab.w0, op, tab.lambda_dagger,
        )
        assert u is None

    @pytest.mark.parametrize("eps", [0.0, np.nan, np.inf])
    def test_degenerate_normalizer_raises_before_any_update(self, eps):
        inst, _, tab, _ = small_problem()
        op = inst.operator
        r_hat = np.zeros(op.M, dtype=complex)
        X = np.zeros((1, op.N), dtype=complex)
        with pytest.raises(DegenerateNormalizationError):
            memory_le_step(
                r_hat, inst.y, X, np.array([-tab.w0]), 1.0, 0.5, eps, op, tab.lambda_dagger
            )
        assert not r_hat.any()


class TestGammaCovariance:
    def test_first_iteration_unroll(self):
        d = make_geometric_singular_values(8, 4.0, 16.0)
        tab = tables_from_singular_values(d, 16, 4, M=8)
        sigma2 = 0.01
        V = np.array([[1.0 + 0j]])
        w0 = tab.w0
        row = gamma_covariance_row([np.array([1.0])], [w0], V, tab, sigma2)
        expected = (sigma2 * w0 + tab.wbar_scaled[0, 0]) / w0**2
        assert row[0].real == pytest.approx(expected, rel=1e-12)

    def test_identical_eigenvalues_noise_floor(self):
        tab = tables_from_singular_values(np.ones(8), 8, 4, M=8)
        sigma2 = 0.02
        row = gamma_covariance_row([np.array([1.0])], [1.0], np.eye(1, dtype=complex), tab, sigma2)
        assert row[0].real == pytest.approx(sigma2, rel=1e-12)

    def test_closed_form_consistent_with_double_sum(self):
        """Diagonal from the rational coefficients equals the covariance row."""
        inst, prior, tab, cfg = small_problem(M=64, N=128, T=5, seed=9)
        from mamp import run_bo_mamp_se

        se = run_bo_mamp_se(tab, prior, inst.noise_var, 5, L=3, nle_mode="mc",
                            n_mc=2000, rng_seed=0)
        for t in range(1, 6):
            assert se.debug["V_gamma"][t - 1, t - 1].real == pytest.approx(
                se.trajectory("v_gamma")[t - 1], rel=1e-10
            )


class TestFullRun:
    def test_heavy_noise_stays_bounded_and_monotone(self):
        N, M = 4096, 2048
        d = make_geometric_singular_values(M, 10.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=2)
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=0.0, rng_seed=3)
        tab = tables_from_singular_values(d, N, 15, M=M)
        res = run_bo_mamp(inst, prior, MampConfig(tables=tab, T=15, L=3))
        v_hat = res.trajectory("v_hat")
        assert np.nanmax(v_hat) <= 1.0
        ledger = np.concatenate([[res.debug["v_init"]], res.trajectory("v_phi_bar")])
        ledger = ledger[np.isfinite(ledger)]
        assert np.all(np.diff(ledger) <= 1e-12)
        assert not res.diverged

    def test_final_mse_reaches_lmmse_recursion(self):
        """Ill-conditioned reference setting: the cheap memory filter lands
        within half a dB of the LMMSE recursion after 30 iterations."""
        from mamp import run_bo_oamp

        N, M = 8192, 4096
        d = make_geometric_singular_values(M, 10.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=0)
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=30.0, rng_seed=1)
        tab = tables_from_singular_values(d, N, 30, M=M)
        res_m = run_bo_mamp(inst, prior, MampConfig(tables=tab, T=30, L=3))
        res_o = run_bo_oamp(inst, prior, 30)
        gap = abs(10 * np.log10(res_m.mse[-1]) - 10 * np.log10(res_o.mse[-1]))
        assert gap < 0.5

    def test_tables_too_small_raise(self):
        inst, prior, tab, _ = small_problem(T=4)
        with pytest.raises(ValueError):
            run_bo_mamp(inst, prior, MampConfig(tables=tab, T=10, L=3))

    def test_records_have_expected_shape(self):
        inst, prior, tab, cfg = small_problem()
        res = run_bo_mamp(inst, prior, cfg)
        assert len(res.records) == cfg.T
        assert res.mse.shape == (cfg.T,)
        assert res.status == "ok"
        assert np.all(np.isfinite(res.mse))
