"""Long-memory recursion: relaxation, weight optimization, damping, full runs."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamp import (
    DegenerateNormalizationError,
    InvalidLedgerError,
    PriorParams,
    build_structured_operator,
    gamma_covariance_row,
    make_geometric_singular_values,
    optimal_damping,
    optimize_theta,
    optimize_xi,
    run_amp,
    run_bo_mamp,
    run_bo_oamp,
    run_mf_oamp,
    sample_instance,
    tables_from_singular_values,
    xi_cost_coefficients,
)
from mamp import core
from mamp.core import (
    DOT_CHUNK,
    GEMV_ENTRIES,
    EPS_FLOOR,
    IterationRecord,
    Ledger,
    blocked_matvec,
    chunked_vdot,
    damp_into,
    damping_window,
    divide_in_place,
    estimate_phi_covariance,
    mean_squared_error,
    memory_le_step,
    residual_error_estimate,
)
from mamp.denoisers import CHUNK, DenoiserOutput
from mamp.operators import build_iid_gaussian_operator

from oracles import dense_memory_filter_terms


def small_problem(M=16, N=32, kappa=6.0, snr_db=20.0, mu=0.25, seed=0, T=6, L=3):
    d = make_geometric_singular_values(min(M, N), kappa, float(N))
    op = build_structured_operator(M, N, d, rng_seed=seed)
    prior = PriorParams(mu=mu)
    inst = sample_instance(op, prior, snr_db=snr_db, rng_seed=seed + 100)
    tab = tables_from_singular_values(d, N, T, M=M)
    return inst, prior, tab, dict(T=T, L=L, collect_debug=True)


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
        assert optimize_xi(1.0, 0.0, 0.0, 2.0) == core.C_MAX

    def test_hand_ratio_beats_grid(self):
        c = (1.0, 2.0, 1.0, 3.0)
        xi = optimize_xi(*c)
        assert xi == pytest.approx(4.0 / 3.0, rel=1e-14)

        def cost(x):
            return (c[1] * x**2 - 2 * c[2] * x + c[3]) / (x + c[0]) ** 2

        grid = np.linspace(-10, 10, 4001)
        grid = grid[np.abs(grid + c[0]) > 1e-3]
        assert cost(xi) <= np.min(cost(grid)) + 1e-12

    def test_fully_degenerate_returns_unit(self):
        assert optimize_xi(0.0, 0.0, 0.0, 0.0) == 1.0

    def test_saturation_keeps_sign(self):
        assert optimize_xi(0.0, 1.0, 1e-12, -1.0) == -core.C_MAX


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

    @settings(max_examples=100, deadline=None)
    @given(
        l=st.integers(2, 8),
        ridge=st.floats(1e-3, 1.0),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_beats_random_feasible_directions(self, l, ridge, scale, seed):
        # random Hermitian positive-definite blocks: the weights sum to one
        # and no feasible weight, a single candidate included, does better
        rng = np.random.default_rng(seed)
        B = draw_complex(rng, l, l)
        V = scale * (B @ B.conj().T / l + ridge * np.eye(l))
        sol = optimal_damping(V)
        assert not sol.singular
        assert abs(sol.zeta.sum() - 1.0) <= 1e-12
        best = float(np.real(sol.zeta.conj() @ V @ sol.zeta))
        assert best == pytest.approx(sol.variance, rel=1e-10)
        w = draw_complex(rng, 64, l)
        w += (1.0 - w.sum(axis=1))[:, None] / l  # project onto sum = 1
        w = np.vstack([w, np.eye(l)])
        costs = np.einsum("ki,ij,kj->k", w.conj(), V, w).real
        assert np.all(best <= costs * (1.0 + 1e-10))

    def test_singular_block_keeps_previous(self):
        V = np.ones((3, 3), dtype=complex)
        sol = optimal_damping(V)
        assert sol.singular
        np.testing.assert_allclose(sol.zeta, [0.0, 1.0, 0.0])
        assert sol.variance == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_generic_complex_duplicate_is_singular(self, seed):
        # the last candidate repeats the second's covariances; LAPACK meets
        # no exactly zero pivot and solves it at condition number ~1e17
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        V = np.empty((3, 3), dtype=complex)
        V[:2, :2] = B @ B.conj().T / 4
        V[2, :2], V[:2, 2], V[2, 2] = V[1, :2], V[:2, 1], V[1, 1].real
        sol = optimal_damping(V)
        assert sol.singular
        np.testing.assert_array_equal(sol.zeta, [0.0, 1.0, 0.0])
        assert sol.variance == V[1, 1].real

    def test_rank_test_leaves_an_ill_conditioned_block_alone(self):
        # smallest pivot 2e-11 of the largest entry, below the least (4.7e-11)
        # that full runs of the shipped configs produce: solved, not flagged
        V = np.array([[1.0, 1.0 - 1e-11], [1.0 - 1e-11, 1.0]], dtype=complex)
        sol = optimal_damping(V)
        assert not sol.singular
        np.testing.assert_allclose(sol.zeta, [0.5, 0.5], rtol=1e-4)

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
    return ledger.damp(t, row, diag, list(new_rows), IterationRecord(t, np.nan))


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


    @pytest.mark.parametrize("seed", range(6))
    def test_generic_complex_duplicate_keeps_its_window_slot_free(self, seed):
        # the candidate repeats damped estimate 2's covariances exactly, with
        # generic complex entries: the fallback keeps estimate 2 and the
        # window, where a plain solve kept the duplicate (or weights ~1e15)
        rng = np.random.default_rng(seed)
        n, T = 8, 3
        Z = np.zeros((T + 1, n), dtype=complex)
        Z[0] = draw_complex(rng, n)
        ledger = Ledger(T, 3, float(np.vdot(Z[0], Z[0]).real) / n)
        V = ledger.V
        assert not damp_vectors(ledger, 1, [(Z, draw_complex(rng, n))]).singular
        t = 2
        sol = ledger.damp(
            t, V[t - 1, :t].copy(), float(V[t - 1, t - 1].real),
            [(Z, Z[t - 1].copy())], IterationRecord(t, np.nan),
        )
        assert sol.singular
        assert ledger.effective == [1, 2]
        assert np.array_equal(Z[t], Z[t - 1])
        assert V[t, t] == V[t - 1, t - 1]


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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 3 * DOT_CHUNK + 7), seed=st.integers(0, 2**32 - 1))
    def test_squared_norm_sums_single_thread_chunks_in_order(self, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = chunked_vdot(z, z).real
        parts = [z[i : i + DOT_CHUNK] for i in range(0, n, DOT_CHUNK)]
        assert norm == sum(np.vdot(c, c) for c in parts).real
        # any order of summing n nonnegative squares is within about n eps / 2
        # of the exact sum, relative, so two orders are within about n eps
        ref = np.vdot(z, z).real
        assert abs(norm - ref) <= (n + 2) * np.finfo(float).eps * ref

    @pytest.mark.parametrize("k", [1, 2, 5, 15, 29])
    def test_blocked_vector_matrix_product_equals_the_one_call_product(self, k):
        # the sampler's conditional mean: each output column is one BLAS
        # call's, and block widths are multiples of 8, so no column moves
        rng = np.random.default_rng(k)
        n = 40_000
        M = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        a = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        out = np.empty(n, dtype=complex)
        assert blocked_matvec(a, M, out=out) is out
        assert np.array_equal(out.view(np.uint64), (a @ M).view(np.uint64))

    @pytest.mark.parametrize("k", [1, 5, 29])
    @pytest.mark.parametrize("n", [7, 40_000, 40_003])
    def test_blocked_matrix_vector_product_sums_small_blocks(self, monkeypatch, k, n):
        rng = np.random.default_rng(n + k)
        M = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sizes = []
        matmul = np.matmul

        def recording_matmul(x, y, **kwargs):
            sizes.append(x.shape[-2] * x.shape[-1])
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(core.np, "matmul", recording_matmul)
        got = blocked_matvec(M, v)
        monkeypatch.undo()
        # the blocks' products run in one call, each block below OpenBLAS's
        # threading threshold; the tail is narrower than a block
        assert len(sizes) == 1 and sizes[0] < GEMV_ENTRIES
        # any two orders of summing n products are within about 2 n eps of
        # each other, relative to the sum of the products' moduli
        bound = 2 * (n + 2) * np.finfo(float).eps * (np.abs(M) @ np.abs(v))
        assert np.all(np.abs(got - M @ v) <= bound)


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
        res = run_bo_mamp(inst, prior, tab, 8, 3, collect_debug=True)
        X = res.debug["X"]
        V = res.debug["ledger"]
        for t in (3, 5, 7):
            f = X[t] - inst.x_true
            truth = float(np.vdot(f, f).real) / N
            assert V[t, t].real == pytest.approx(truth, rel=0.05)


class TestMemoryLEStep:
    def test_identical_eigenvalues_collapse_to_matched_filter(self):
        inst, prior, tab, cfg = small_problem(M=32, N=64, kappa=1.0, T=4, L=1)
        res = run_bo_mamp(inst, prior, tab, **cfg)
        X = res.debug["X"]
        rs = res.debug["r_history"]
        op = inst.operator
        for t in range(1, 4):
            x_t = X[t - 1]
            expected = op.apply_adjoint(inst.y - op.apply(x_t)) / tab.w0 + x_t
            np.testing.assert_allclose(rs[t - 1], expected, rtol=1e-9, atol=1e-12)

    def test_first_iteration_is_scaled_matched_filter(self):
        inst, prior, tab, cfg = small_problem()
        res = run_bo_mamp(inst, prior, tab, **cfg)
        expected = inst.operator.apply_adjoint(inst.y) / tab.w0
        np.testing.assert_allclose(res.debug["r_history"][0], expected, rtol=1e-10)

    def test_expanded_filter_matches_recursion(self):
        """Dense polynomial expansion of the memory filter reproduces r_t."""
        inst, prior, tab, cfg = small_problem(M=24, N=48, T=3, seed=6)
        res = run_bo_mamp(inst, prior, tab, **cfg)
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


    @pytest.mark.parametrize("kind", ["dense", "structured"])
    def test_in_place_step_equals_its_expressions(self, kind):
        """From the carried B r_hat, B = ld I - A A^H, the in-place step keeps
        the bits of the written-out r_hat_t, output r and B r_hat_t, and hands
        B r_hat_t back in the buffer it was given.  The correction sum_i p_i x_i
        is added in order from zero."""
        if kind == "dense":
            op = build_iid_gaussian_operator(24, 48, rng_seed=3)
        else:
            d = make_geometric_singular_values(24, 6.0, 48.0)
            op = build_structured_operator(24, 48, d, rng_seed=3)
        rng = np.random.default_rng(4)
        cn = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b_r_hat, z_bar, X, p = cn(24), cn(24), np.stack([cn(48), cn(48)]), cn(2).real
        xi, theta, eps, ld = 0.7, 0.4, 1.3, 2.1
        new_hat = xi * z_bar + theta * b_r_hat
        b_ref = ld * new_hat - op.apply_gram(new_hat)
        r_ref = (op.apply_adjoint(new_hat) - (0 + p[0] * X[0] + p[1] * X[1])) / eps
        bits = lambda a: a.view(np.uint64)
        acc = b_r_hat.copy()
        out_b, r = memory_le_step(acc, z_bar, X, p, xi, theta, eps, op, ld)
        assert out_b is acc
        assert np.array_equal(bits(out_b), bits(b_ref))
        assert np.array_equal(bits(r), bits(r_ref))

    @pytest.mark.parametrize("eps", [0.0, np.nan, np.inf])
    def test_degenerate_normalizer_raises_before_any_update(self, eps):
        inst, _, tab, _ = small_problem()
        op = inst.operator
        b_r_hat = np.zeros(op.M, dtype=complex)
        X = np.zeros((1, op.N), dtype=complex)
        with pytest.raises(DegenerateNormalizationError):
            memory_le_step(
                b_r_hat, inst.y, X, np.array([-tab.w0]), 1.0, 0.5, eps, op, tab.lambda_dagger
            )
        assert not b_r_hat.any()


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
        res = run_bo_mamp(inst, prior, tab, 15, 3)
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
        res_m = run_bo_mamp(inst, prior, tab, 30, 3)
        res_o = run_bo_oamp(inst, prior, 30)
        gap = abs(10 * np.log10(res_m.mse[-1]) - 10 * np.log10(res_o.mse[-1]))
        assert gap < 0.5

    def test_noise_floor_clamps_the_first_candidate(self):
        # a flat spectrum, four measurements per unknown and 120 dB: the first
        # extrinsic estimate's residual energy falls below the floor
        N, M = 256, 1024
        d = make_geometric_singular_values(N, 1.0, float(M))
        op = build_structured_operator(M, N, d, rng_seed=0)
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=120.0, rng_seed=1)
        tab = tables_from_singular_values(d, N, 20, M=M)
        res = run_bo_mamp(inst, prior, tab, 20, 3)
        assert res.status == "ok" and res.debug["noise_floor_reached"]
        floor = EPS_FLOOR * res.debug["v_init"]
        v_phi_bar = res.trajectory("v_phi_bar")
        assert v_phi_bar[0] == pytest.approx(floor, rel=1e-9)
        assert np.all(v_phi_bar <= floor)

    @pytest.mark.parametrize("model", ["structured", "iid"])
    def test_start_estimate_below_zero_starts_at_the_unit_floor(self, model):
        # at -30 dB the residual-energy estimate of x = 0 is noise: -103 at
        # seed 0; the floor falls back to EPS_FLOOR of the unit prior power
        N, M, T = 256, 128, 10
        if model == "structured":
            d = make_geometric_singular_values(M, 10.0, float(N))
            op = build_structured_operator(M, N, d, rng_seed=0)
        else:
            op = build_iid_gaussian_operator(M, N, 0)
            d = np.sqrt(op.gram_eigenvalues())
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=-30.0, rng_seed=0)
        assert residual_error_estimate(inst.y, N, inst.noise_var, 0.5, 1.0) < 0
        tab = tables_from_singular_values(d, N, T, M=M)
        res = run_bo_mamp(inst, prior, tab, T, 3)
        assert res.status == "ok" and res.debug["noise_floor_reached"]
        assert res.debug["v_init"] == EPS_FLOOR
        oamps = [run_mf_oamp(inst, prior, T, tab.spectrum)]
        if model == "structured":
            oamps.append(run_bo_oamp(inst, prior, T))
        for res in oamps:
            assert res.status == "ok", res.name
            assert res.records[0].v_phi_bar == EPS_FLOOR, res.name

    @pytest.mark.parametrize("stop", ["degenerate", "early_stop_nle"])
    def test_a_stop_at_iteration_3_keeps_the_best_estimate(self, monkeypatch, stop):
        inst, prior, tab, _ = small_problem(M=256, N=512, seed=5)
        weights, denoise = core.memory_weights, core.bg_mmse
        outs = []

        def vanishing_weights(V, scaled, t, *args):
            w = weights(V, scaled, t, *args)
            # what memory_weights returns for a vanished normalizer
            return (*w[:4], 0.0, np.nan) if t == 3 else w

        def recording_denoiser(r, v, prior):
            outs.append(denoise(r, v, prior))
            if len(outs) == 3:
                # a posterior worse than its input has no extrinsic
                return DenoiserOutput(outs[-1].posterior_mean, 2.0 * v, None)
            return outs[-1]

        if stop == "degenerate":
            monkeypatch.setattr(core, "memory_weights", vanishing_weights)
        monkeypatch.setattr(core, "bg_mmse", recording_denoiser)
        res = run_bo_mamp(inst, prior, tab, 6, 3)
        assert res.status == stop
        assert [r.t for r in res.records] == ([1, 2] if stop == "degenerate" else [1, 2, 3])
        for rec in res.records[:2]:
            assert np.isfinite(rec.v_phi_bar) and rec.zeta.size > 0
        if stop == "early_stop_nle":
            # the stopping record keeps its input level and no damping
            last = res.records[2]
            assert last.v_hat == 2.0 * last.v_gamma
            assert last.v_phi_bar == res.debug["ledger"][2, 2].real
            assert last.zeta.size == 0 and not res.debug["ledger"][3].any()
            assert last.v_hat > res.v_hat
        # the estimate falls back to the best posterior seen
        best = min(outs[:2], key=lambda o: o.posterior_var)
        assert res.v_hat == best.posterior_var and res.x_hat is best.posterior_mean

    def test_tables_too_small_raise(self):
        inst, prior, tab, _ = small_problem(T=4)
        with pytest.raises(ValueError):
            run_bo_mamp(inst, prior, tab, 10, 3)

    def test_records_have_expected_shape(self):
        inst, prior, tab, cfg = small_problem()
        res = run_bo_mamp(inst, prior, tab, **cfg)
        assert len(res.records) == cfg["T"]
        assert res.mse.shape == (cfg["T"],)
        assert res.status == "ok"
        assert np.all(np.isfinite(res.mse))


class TestInvalidInput:
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "imag_inf"]
    )
    @pytest.mark.parametrize("algo", ["bo_mamp", "bo_oamp", "mf_oamp", "amp"])
    def test_nonfinite_observation_ends_by_name(self, algo, bad, monkeypatch):
        inst, prior, tab, kw = small_problem()
        inst.y[3] = bad

        def no_transform(v):
            raise AssertionError("transform on an invalid observation")

        for method in ("apply", "apply_adjoint", "apply_gram"):
            monkeypatch.setattr(inst.operator, method, no_transform)
        run = {
            "bo_mamp": lambda: run_bo_mamp(inst, prior, tab, kw["T"], kw["L"]),
            "bo_oamp": lambda: run_bo_oamp(inst, prior, kw["T"]),
            "mf_oamp": lambda: run_mf_oamp(inst, prior, kw["T"], tab.spectrum),
            "amp": lambda: run_amp(inst, prior, kw["T"]),
        }[algo]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run()
        assert res.status == "invalid_input"
        assert res.debug["reason"] == "observation y contains non-finite entries"
        assert res.records == []
