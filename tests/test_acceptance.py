"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every criterion line.
Shared expensive runs (the ill-conditioned reference setting) are computed
once per session.
"""

import itertools

import numpy as np
import pytest

from mamp import (
    PriorParams,
    bg_mmse,
    bo_oamp_fixed_point_exact,
    bound_extremal_eigenvalues,
    build_iid_gaussian_operator,
    build_moment_tables,
    build_structured_operator,
    estimate_moments_power_recursion,
    exact_moments_from_singular_values,
    lmmse_le,
    make_geometric_singular_values,
    oamp_fixed_point,
    optimal_damping,
    optimize_xi,
    run_amp,
    run_bo_mamp,
    run_bo_mamp_se,
    run_bo_oamp,
    sample_instance,
    tables_from_singular_values,
)
from mamp.spectral import BINOMIAL_CANCELLATION_THRESHOLD

from oracles import bg_posterior_oracle, dense_memory_filter_terms

REFERENCE = dict(N=8192, delta=0.5, kappa=10.0, mu=0.1, snr_db=30.0, T=30)


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _db(x):
    return 10.0 * np.log10(x)


@pytest.fixture(scope="module")
def reference_runs():
    """Ten damped seeds, one undamped seed and the covariance evolution at the
    ill-conditioned reference setting."""
    N, delta = REFERENCE["N"], REFERENCE["delta"]
    M = int(delta * N)
    T = REFERENCE["T"]
    d = make_geometric_singular_values(M, REFERENCE["kappa"], float(N))
    prior = PriorParams(mu=REFERENCE["mu"])
    sigma2 = 10 ** (-REFERENCE["snr_db"] / 10)
    tab = tables_from_singular_values(d, N, T, M=M)
    runs_l3 = []
    for seed in range(10):
        op = build_structured_operator(M, N, d, rng_seed=seed)
        inst = sample_instance(op, prior, REFERENCE["snr_db"], rng_seed=1000 + seed)
        runs_l3.append(
            (
                inst,
                run_bo_mamp(
                    inst, prior, tab, T, 3, collect_debug=True
                ),
            )
        )
    inst0 = runs_l3[0][0]
    run_l1 = run_bo_mamp(inst0, prior, tab, T, 1)
    # 4e5 samples push the evolution's own Monte-Carlo noise well below the
    # finite-size deviation of the ten-seed simulation mean (~0.37 dB at the
    # transient knee), so the 0.5 dB check does not ride on the sampler seed
    se = run_bo_mamp_se(tab, prior, sigma2, T, L=3, nle_mode="mc", n_mc=400_000,
                        rng_seed=42)
    return dict(tab=tab, prior=prior, sigma2=sigma2, runs_l3=runs_l3,
                run_l1=run_l1, se=se, d=d, N=N, M=M, T=T)


class TestAcceptance:
    def test_criterion_01_equivalence_on_flat_spectrum(self):
        """Long-memory and LMMSE recursions coincide for identical singular values."""
        N, delta, T = 2048, 0.5, 20
        M = int(delta * N)
        d = make_geometric_singular_values(M, 1.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=0)
        prior = PriorParams(mu=0.1)
        inst = sample_instance(op, prior, snr_db=30.0, rng_seed=1)
        tab = tables_from_singular_values(d, N, T, M=M)
        # no damping window: the flat-spectrum run needs none and the
        # comparison target has none
        res_m = run_bo_mamp(inst, prior, tab, T, 1)
        res_o = run_bo_oamp(inst, prior, T)
        rel = np.abs(res_m.mse - res_o.mse) / res_o.mse
        ok = bool(np.all(rel <= 1e-10))
        assert _report(1, ok, f"max relative MSE gap {np.max(rel):.3e} (tol 1e-10)")

    def test_criterion_02_fixed_point_consistency(self):
        """Evolution tail, geometric-series fixed point and eigenvalue-exact
        fixed point agree across condition numbers, loads and SNRs."""
        prior = PriorParams(mu=0.1)
        N = 2048
        worst_se, worst_cross = 0.0, 0.0
        for kappa, delta, snr in itertools.product(
            (1.0, 10.0, 100.0), (0.5, 1.0), (20.0, 30.0)
        ):
            M = int(delta * N)
            sigma2 = 10 ** (-snr / 10)
            d = make_geometric_singular_values(min(M, N), kappa, float(N))
            tab = tables_from_singular_values(d, N, 200, M=M)
            _, vp_fp = oamp_fixed_point(tab, prior, sigma2)
            _, vp_eig = bo_oamp_fixed_point_exact(tab.spectrum, prior, sigma2)
            se = run_bo_mamp_se(tab, prior, sigma2, 200, L=3, nle_mode="deterministic")
            worst_se = max(worst_se, abs(se.trajectory("v_phi_bar")[-1] - vp_fp) / vp_fp)
            worst_cross = max(worst_cross, abs(vp_fp - vp_eig) / vp_eig)
        ok = worst_se <= 1e-4 and worst_cross <= 1e-8
        assert _report(
            2,
            ok,
            f"evolution@200 vs fixed point {worst_se:.3e} (tol 1e-4); "
            f"series vs eigenvalue-exact {worst_cross:.3e} (tol 1e-8)",
        )

    def test_criterion_03_evolution_matches_simulation(self, reference_runs):
        """Ten-seed mean MSE tracks the covariance evolution within 0.5 dB."""
        mses = np.stack([r.mse for _, r in reference_runs["runs_l3"]])
        sim_db = _db(mses.mean(axis=0))
        se_db = _db(reference_runs["se"].mse)
        gap = float(np.max(np.abs(sim_db - se_db)))
        ok = gap <= 0.5
        assert _report(3, ok, f"max |simulation - evolution| {gap:.3f} dB (tol 0.5)")

    def test_criterion_04_damping_necessity(self, reference_runs):
        """Damped run is monotone; undamped run trails by 3 dB or diverges.

        The damped posterior-variance trajectory is monotone up to the jitter
        of the residual-estimated covariances (bounded here at 1e-4 relative,
        i.e. 0.0004 dB, far below any resolvable scale).  The second clause is
        asserted exactly as stated; see the design notes for the measured
        behaviour of the undamped run at this condition number.
        """
        _, res3 = reference_runs["runs_l3"][0]
        res1 = reference_runs["run_l1"]
        v_hat3 = res3.trajectory("v_hat")
        v_hat3 = v_hat3[np.isfinite(v_hat3)]
        monotone = bool(np.all(np.diff(v_hat3) <= 1e-4 * v_hat3[1:]))
        final3 = _db(res3.mse[-1])
        final1 = _db(res1.mse[-1])
        gain = final1 - final3
        ok = monotone and (gain >= 3.0 or res1.diverged)
        assert _report(
            4,
            ok,
            f"L=3 monotone: {monotone}; gain over L=1 at t=30: {gain:.2f} dB "
            f"(need >= 3) or L=1 diverged: {res1.diverged}",
        )

    def test_criterion_05_monotone_and_banded_ledger(self, reference_runs):
        """Ledger diagonal nonincreasing; within-band entries equal diagonals."""
        ok_mono = True
        for _, res in reference_runs["runs_l3"]:
            diag = np.concatenate(
                [[res.debug["v_init"]], res.trajectory("v_phi_bar")]
            )
            diag = diag[np.isfinite(diag)]
            ok_mono &= bool(np.all(np.diff(diag) <= 1e-12))
        se = reference_runs["se"]
        V = se.debug["ledger"]
        worst_se_band = 0.0
        for t in range(2, se.T + 1):
            band = V[t, max(0, t - 2) : t].real
            worst_se_band = max(
                worst_se_band, float(np.max(np.abs(band - V[t, t].real) / V[t, t].real))
            )
        worst_sim_band = 0.0
        N = reference_runs["N"]
        delta = REFERENCE["delta"]
        sigma2 = reference_runs["sigma2"]
        w0 = reference_runs["tab"].w0
        for inst, res in reference_runs["runs_l3"]:
            Z = res.debug["Z"]
            for t in range(5, res.T):
                l = min(3, t + 1)
                diag_est = (np.vdot(Z[t], Z[t]).real / N - delta * sigma2) / w0
                for tau in range(t + 2 - l, t + 1):
                    vb = ((np.vdot(Z[tau - 1], Z[t])) / N - delta * sigma2) / w0
                    worst_sim_band = max(
                        worst_sim_band, abs(vb.real - diag_est) / abs(diag_est)
                    )
        ok = ok_mono and worst_se_band <= 1e-8 and worst_sim_band <= 0.05
        assert _report(
            5,
            ok,
            f"monotone: {ok_mono}; evolution band error {worst_se_band:.2e} "
            f"(tol 1e-8); simulated band error {worst_sim_band:.2e} (tol 0.05)",
        )

    def test_criterion_06_moment_machinery(self):
        """Binomial vs direct traces, probe estimation accuracy, trace bound."""
        N, M, kappa = 2048, 1024, 10.0
        d = make_geometric_singular_values(M, kappa, float(N))
        T = 20
        prof = exact_moments_from_singular_values(d, N, T, M=M)
        tb = build_moment_tables(prof, T)
        td = tables_from_singular_values(d, N, T, M=M)
        tmax = min(40, BINOMIAL_CANCELLATION_THRESHOLD)
        rel_b = max(
            abs(tb.b_at(t) - td.b_at(t)) / abs(td.b_at(t)) for t in range(tmax + 1)
        )
        ok_b = rel_b <= 1e-8

        N2 = 4096
        M2 = N2 // 2
        d2 = make_geometric_singular_values(M2, kappa, float(N2))
        op = build_structured_operator(M2, N2, d2, rng_seed=5)
        exact = exact_moments_from_singular_values(d2, N2, 4, M=M2)
        est = estimate_moments_power_recursion(op, 4, rng_seed=0)
        rel_est = float(
            np.max(np.abs(est.moments[1:9] - exact.moments[1:9]) / exact.moments[1:9])
        )
        ok_est = rel_est <= 0.05

        rng = np.random.default_rng(0)
        ok_bound = True
        for _ in range(50):
            J = int(rng.integers(4, 200))
            lam = rng.uniform(0.05, 5.0, J)
            Nn = int(J * rng.uniform(1.0, 3.0))
            tau = int(rng.integers(1, 12))
            _, up = bound_extremal_eigenvalues(float(np.sum(lam**tau)) / Nn, tau, Nn)
            ok_bound &= bool(up >= lam.max() - 1e-12)
        ok = ok_b and ok_est and ok_bound
        assert _report(
            6,
            ok,
            f"binomial vs direct (t<={tmax}) {rel_b:.2e} (tol 1e-8); "
            f"probe estimates {rel_est:.3f} (tol 0.05); bound holds: {ok_bound}",
        )

    def test_criterion_07_optimizer_oracles(self):
        """Closed-form weight and damping optimizers beat brute-force search."""
        rng = np.random.default_rng(2)
        worst_margin = -np.inf
        for _ in range(100):
            # realizable coefficient sets: c1 > 0 and c2^2 <= c1 c3 keep the
            # quadratic numerator (a variance) nonnegative for every weight
            c1 = rng.uniform(0.1, 3.0)
            c3 = rng.uniform(0.0, 3.0)
            c2 = np.sqrt(c1 * c3) * rng.uniform(-1.0, 1.0)
            c0 = rng.normal()
            xi = optimize_xi(c0, c1, c2, c3)

            def cost(x):
                return (c1 * x**2 - 2 * c2 * x + c3) / (x + c0) ** 2

            grid = np.linspace(-10, 10, 1000)
            grid = grid[np.abs(grid + c0) > 1e-2]
            margin = float(np.min(cost(grid)) - cost(np.clip(xi, -10, 10)))
            worst_margin = max(worst_margin, -margin)
        ok_xi = worst_margin <= 1e-9

        worst_zeta = -np.inf
        for _ in range(100):
            size = int(rng.integers(1, 5))
            B = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            V = B @ B.conj().T + 0.2 * np.eye(size)
            sol = optimal_damping(V)
            w = rng.standard_normal((10_000, size)) + 1j * rng.standard_normal(
                (10_000, size)
            )
            w += (1.0 - w.sum(axis=1))[:, None] / size
            costs = np.einsum("ki,ij,kj->k", w.conj(), V, w).real
            worst_zeta = max(worst_zeta, float(sol.variance - costs.min()))
        ok_zeta = worst_zeta <= 1e-9
        ok = ok_xi and ok_zeta
        assert _report(
            7,
            ok,
            f"weight optimizer excess over grid {worst_margin:.2e}; "
            f"damping excess over 1e4 random feasible {worst_zeta:.2e}",
        )

    def test_criterion_08_denoiser_quadrature_grid(self):
        """Closed-form posterior matches Bessel-radial quadrature on a grid."""
        worst = 0.0
        for mu in (0.1, 0.5, 1.0):
            prior = PriorParams(mu=mu)
            r_grid = np.linspace(0.0, 4.0 * np.sqrt(prior.component_var + 1.0), 20)
            v_grid = np.logspace(-4, 0, 20)
            for v in v_grid:
                out = bg_mmse(r_grid.astype(complex), float(v), prior)
                for k, r in enumerate(r_grid):
                    mean, var = bg_posterior_oracle(float(r), float(v), mu)
                    scale = max(1.0, abs(mean))
                    worst = max(
                        worst,
                        abs(out.posterior_mean[k].real - mean) / scale,
                    )
                # per-entry posterior variances, averaged by bg_mmse, are
                # checked through the scalar at a single-entry call
            for v in (1e-3, 1e-1):
                for r in (0.5, 2.0):
                    out = bg_mmse(np.array([r + 0j]), v, prior)
                    _, var = bg_posterior_oracle(r, v, mu)
                    worst = max(worst, abs(out.posterior_var - var))
        ok = worst <= 1e-8
        assert _report(8, ok, f"max deviation from quadrature {worst:.2e} (tol 1e-8)")

    def test_criterion_09_orthogonality_scaling(self):
        """Normalized error correlations shrink with the system size."""
        mu, snr, kappa, delta = 0.1, 30.0, 10.0, 0.5
        prior = PriorParams(mu=mu)
        T = 10
        # the defined pairs: t' <= t, and the x_true column
        pairs = np.zeros((T, T + 1), dtype=bool)
        pairs[:, :T] = np.tril(np.ones((T, T), dtype=bool))
        pairs[:, T] = True
        medians = {}
        for N in (1024, 4096):
            M = int(delta * N)
            d = make_geometric_singular_values(M, kappa, float(N))
            tab = tables_from_singular_values(d, N, T, M=M)
            vals = []
            for seed in range(20):
                op = build_structured_operator(M, N, d, rng_seed=3000 + seed)
                inst = sample_instance(op, prior, snr_db=snr, rng_seed=4000 + seed)
                res = run_bo_mamp(
                    inst, prior, tab, T, 3, collect_debug=True
                )
                X = res.debug["X"]
                V = res.debug["ledger"]
                mat = np.full((T, T + 1), np.nan)
                for t in range(1, len(res.debug["r_history"]) + 1):
                    g = res.debug["r_history"][t - 1] - inst.x_true
                    vg = res.records[t - 1].v_gamma
                    for tp in range(1, t + 1):
                        f = X[tp - 1] - inst.x_true
                        vf = V[tp - 1, tp - 1].real
                        mat[t - 1, tp - 1] = abs(np.vdot(f, g)) / N / np.sqrt(vg * vf)
                    mat[t - 1, T] = abs(np.vdot(inst.x_true, g)) / N / np.sqrt(vg)
                vals.append(mat)
            medians[N] = np.nanmedian(np.array(vals)[:, pairs], axis=0)
        defined = np.isfinite(medians[1024])
        decreasing = medians[4096][defined] < medians[1024][defined]
        n_bad = int(np.sum(~decreasing))
        ok = n_bad == 0
        assert _report(
            9,
            ok,
            f"{int(defined.sum())} correlation pairs, non-decreasing medians: {n_bad}; "
            f"median shrink ratio {np.nanmedian(medians[4096] / medians[1024]):.3f}",
        )

    def test_criterion_10_iid_baseline_ordering(self):
        """Plain AMP matches the memory filter on IID ensembles and loses badly
        on the ill-conditioned structured ensemble."""
        N, delta, mu, snr, T = 4096, 0.5, 0.1, 30.0, 30
        M = int(delta * N)
        prior = PriorParams(mu=mu)
        op = build_iid_gaussian_operator(M, N, rng_seed=0)
        inst = sample_instance(op, prior, snr_db=snr, rng_seed=1)
        tab = tables_from_singular_values(np.sqrt(op.gram_eigenvalues()), N, T, M=M)
        res_amp = run_amp(inst, prior, T)
        res_mamp = run_bo_mamp(inst, prior, tab, T, 3)
        gap_iid = abs(_db(res_amp.mse[-1]) - _db(res_mamp.mse[-1]))
        ok_iid = gap_iid <= 1.0

        d = make_geometric_singular_values(M, 10.0, float(N))
        op_s = build_structured_operator(M, N, d, rng_seed=2)
        inst_s = sample_instance(op_s, prior, snr_db=snr, rng_seed=3)
        tab_s = tables_from_singular_values(d, N, T, M=M)
        res_amp_s = run_amp(inst_s, prior, T)
        res_mamp_s = run_bo_mamp(inst_s, prior, tab_s, T, 3)
        amp_final = res_amp_s.mse[np.isfinite(res_amp_s.mse)]
        deficit = (
            _db(amp_final[-1]) - _db(res_mamp_s.mse[-1]) if len(amp_final) else np.inf
        )
        ok_struct = res_amp_s.status == "diverged" or deficit >= 3.0
        ok = ok_iid and ok_struct
        assert _report(
            10,
            ok,
            f"IID gap {gap_iid:.2f} dB (tol 1.0); structured: AMP diverged="
            f"{res_amp_s.status == 'diverged'} or deficit {deficit:.1f} dB (need >= 3)",
        )

    def test_criterion_11_dense_oracles(self):
        """Small-size dense materializations validate every fast path at 1e-10."""
        N, M, T = 48, 24, 3
        d = make_geometric_singular_values(M, 6.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=4)
        prior = PriorParams(mu=0.25)
        inst = sample_instance(op, prior, snr_db=20.0, rng_seed=5)
        tab = tables_from_singular_values(d, N, T, M=M)
        A = op.dense()
        rng = np.random.default_rng(6)

        worst_op = 0.0
        for _ in range(8):
            v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            worst_op = max(
                worst_op,
                float(np.max(np.abs(op.apply(v) - A @ v)))
                / float(np.max(np.abs(A @ v))),
            )
        ok_op = worst_op <= 1e-10

        res = run_bo_mamp(
            inst, prior, tab, T, 3, collect_debug=True
        )
        powers, W, w = dense_memory_filter_terms(A, tab.lambda_dagger, T + 1)
        thetas = res.trajectory("theta")
        xis = res.trajectory("xi")
        X = res.debug["X"]
        worst_le, worst_tr = 0.0, 0.0
        for t in range(1, T + 1):
            var = np.array([xis[i - 1] * np.prod(thetas[i:t]) for i in range(1, t + 1)])
            Q = sum(var[i - 1] * A.conj().T @ powers[t - i] for i in range(1, t + 1))
            eps = sum(var[i - 1] * w[t - i] for i in range(1, t + 1))
            r_exp = Q @ inst.y
            for i in range(1, t + 1):
                H = var[i - 1] * (w[t - i] * np.eye(N) - W[t - i])
                r_exp = r_exp + H @ X[i - 1]
                worst_tr = max(worst_tr, abs(np.trace(H)) / N)
            r_exp /= eps
            ref = res.debug["r_history"][t - 1]
            worst_le = max(
                worst_le,
                float(np.max(np.abs(ref - r_exp))) / float(np.max(np.abs(ref))),
            )
            worst_tr = max(worst_tr, abs(np.trace(Q @ A).real / (N * eps) - 1.0))
        ok_le = worst_le <= 1e-10
        ok_tr = worst_tr <= 1e-10

        v_phi = 0.4
        rho = inst.noise_var / v_phi
        x_t = rng.standard_normal(N) + 0j
        r_spec, v_gamma = lmmse_le(x_t, v_phi, inst, inst.y - inst.operator.apply(x_t))
        Minv = np.linalg.solve(rho * np.eye(M) + A @ A.conj().T, np.eye(M))
        gamma_hat = A.conj().T @ Minv @ (inst.y - A @ x_t)
        eps_d = np.trace(A.conj().T @ Minv @ A).real / N
        r_dense = gamma_hat / eps_d + x_t
        worst_lmmse = float(np.max(np.abs(r_spec - r_dense))) / float(
            np.max(np.abs(r_dense))
        )
        ok_lmmse = worst_lmmse <= 1e-10

        ok = ok_op and ok_le and ok_tr and ok_lmmse
        assert _report(
            11,
            ok,
            f"operator {worst_op:.1e}; expanded filter {worst_le:.1e}; "
            f"trace constraints {worst_tr:.1e}; spectral LMMSE {worst_lmmse:.1e} "
            "(all tol 1e-10)",
        )
