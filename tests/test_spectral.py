"""Spectral moments, trace tables, estimation and extremal-eigenvalue bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamp import (
    PriorParams,
    bo_oamp_fixed_point_exact,
    bound_extremal_eigenvalues,
    build_moment_tables,
    build_structured_operator,
    estimate_moments_power_recursion,
    exact_moments_from_singular_values,
    make_geometric_singular_values,
    oamp_fixed_point,
    run_bo_oamp_se,
    tables_from_singular_values,
)
from mamp import spectral
from mamp.evolution import lmmse_gamma_se
from mamp.spectral import BINOMIAL_CANCELLATION_THRESHOLD, SpectralProfile

from oracles import shifted_traces_mp


def _naive_w_scaled(d_sq, lambda_dagger, N, n_terms):
    """Reference: w'_t = sum(d_sq * ratio**t) / N, one term at a time."""
    ratio = (lambda_dagger - d_sq) / lambda_dagger
    out = np.empty(n_terms)
    power = np.ones_like(ratio)
    for t in range(n_terms):
        out[t] = (d_sq * power).sum() / N
        power = power * ratio
    return out


def radius(tab):
    """Spectral radius (lambda_max - lambda_min)/2 of the shifted matrix ld I - A A^H."""
    return 0.5 * (tab.spectrum.lambda_max - tab.spectrum.lambda_min)


class TestExactMoments:
    def test_two_eigenvalue_hand_case(self):
        d = np.sqrt(np.array([1.6, 0.4]))
        prof = exact_moments_from_singular_values(d, 2, 2, M=2)
        assert prof.moments[1] == pytest.approx(1.0, rel=1e-14)
        assert prof.moments[2] == pytest.approx(1.36, rel=1e-14)
        assert prof.lambda_min == pytest.approx(0.4)
        assert prof.lambda_max == pytest.approx(1.6)
        assert prof.lambda_dagger == pytest.approx(1.0)

    def test_identical_eigenvalues_flat_moments(self):
        prof = exact_moments_from_singular_values(np.ones(8), 8, 3, M=8)
        np.testing.assert_allclose(prof.moments, 1.0, rtol=1e-14)

    def test_underloaded_structural_zero(self):
        # more measurements than signal entries: A A^H is rank deficient
        prof = exact_moments_from_singular_values(np.ones(4), 4, 2, M=8)
        assert prof.lambda_min == 0.0


class TestMomentEstimation:
    def test_estimates_close_to_exact(self):
        N, M = 4096, 2048
        d = make_geometric_singular_values(M, 10.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=5)
        exact = exact_moments_from_singular_values(d, N, 4, M=M)
        est = estimate_moments_power_recursion(op, 4, rng_seed=0)
        rel = np.abs(est.moments[1:9] - exact.moments[1:9]) / exact.moments[1:9]
        assert np.max(rel) < 0.05
        assert est.provenance == "estimated"

    def test_isometry_estimates_norm_preserving(self, monkeypatch):
        # unitary operator: every power iterate keeps the probe norm, so all
        # estimated moments coincide and approach 1 with the probe dimension
        monkeypatch.setattr(spectral, "_N_PROBES", 1)
        op = build_structured_operator(1024, 1024, np.ones(1024), rng_seed=1)
        est = estimate_moments_power_recursion(op, 3, rng_seed=0)
        np.testing.assert_allclose(est.moments[1:], est.moments[1], rtol=1e-10)
        assert est.moments[1] == pytest.approx(1.0, abs=0.15)

    def test_error_shrinks_with_system_size(self, monkeypatch):
        """Median max relative error over seeds drops from N=1024 to N=4096."""
        monkeypatch.setattr(spectral, "_N_PROBES", 1)
        medians = {}
        for N in (1024, 4096):
            M = N // 2
            d = make_geometric_singular_values(M, 10.0, float(N))
            op = build_structured_operator(M, N, d, rng_seed=5)
            exact = exact_moments_from_singular_values(d, N, 4, M=M)
            errs = []
            for seed in range(20):
                est = estimate_moments_power_recursion(op, 4, rng_seed=seed)
                errs.append(
                    np.max(np.abs(est.moments[1:9] - exact.moments[1:9]) / exact.moments[1:9])
                )
            medians[N] = np.median(errs)
        assert medians[4096] < medians[1024]


class TestExtremalBounds:
    def test_two_eigenvalue_bound(self):
        lo, up = bound_extremal_eigenvalues(1.36, 2, 2)
        assert lo == 0.0
        assert up == pytest.approx(np.sqrt(2.72), rel=1e-12)
        assert up >= 1.6

    def test_loose_bound_on_flat_spectrum(self):
        lo, up = bound_extremal_eigenvalues(1.0, 4, 16)
        assert up == pytest.approx(2.0, rel=1e-12)
        assert up >= 1.0

    def test_bound_tightens_with_order(self):
        d = np.sqrt(np.array([1.6, 0.4]))
        prof = exact_moments_from_singular_values(d, 2, 8, M=2)
        ups = [
            bound_extremal_eigenvalues(float(prof.moments[tau]), tau, 2)[1]
            for tau in range(2, 16, 2)
        ]
        assert np.all(np.diff(ups) <= 1e-12)
        assert all(u >= 1.6 for u in ups)

    def test_validity_on_random_spectra(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            J = int(rng.integers(4, 128))
            lam = rng.uniform(0.05, 5.0, J)
            N = int(J * rng.uniform(1.0, 3.0))
            tau = int(rng.integers(1, 12))
            lam_tau = float(np.sum(lam**tau)) / N
            lo, up = bound_extremal_eigenvalues(lam_tau, tau, N)
            assert lo == 0.0
            assert up >= lam.max() - 1e-12


class TestMomentTables:
    def test_identical_eigenvalue_collapse(self):
        tab = tables_from_singular_values(np.ones(8), 8, 4, M=8)
        assert tab.b_at(0) == pytest.approx(1.0)
        assert tab.w0 == pytest.approx(1.0)
        for t in range(1, 8):
            assert tab.b_at(t) == 0.0
            assert tab.w_at(t) == 0.0
        assert tab.wbar_at(0, 0) == 0.0

    def test_two_eigenvalue_hand_expansion(self):
        d = np.sqrt(np.array([1.6, 0.4]))
        tab = tables_from_singular_values(d, 2, 2, M=2)
        assert tab.b_at(1) == pytest.approx(0.0, abs=1e-14)
        assert tab.b_at(2) == pytest.approx(0.36, rel=1e-12)
        assert tab.w_at(0) == pytest.approx(1.0, rel=1e-12)
        assert tab.w_at(1) == pytest.approx(-0.36, rel=1e-12)
        assert tab.wbar_at(0, 0) == pytest.approx(0.36, rel=1e-12)

    def test_w0_equals_first_moment(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            J = int(rng.integers(3, 40))
            d = rng.uniform(0.2, 2.0, J)
            N = J + int(rng.integers(0, 20))
            tab = tables_from_singular_values(d, N, 5, M=J)
            assert tab.w0 == pytest.approx(float(np.sum(d**2)) / N, rel=1e-12)

    def test_symmetry_of_quadratic_couplings(self):
        d = make_geometric_singular_values(12, 8.0, 24.0)
        tab = tables_from_singular_values(d, 24, 6, M=12)
        np.testing.assert_allclose(tab.wbar_scaled, tab.wbar_scaled.T, rtol=1e-12)

    def test_weight_magnitude_bound(self):
        # |w_t| <= lambda_max * ((lambda_max - lambda_min)/2)**t
        d = make_geometric_singular_values(10, 6.0, 20.0)
        tab = tables_from_singular_values(d, 20, 6, M=10)
        for t in range(0, 12):
            assert abs(tab.w_at(t)) <= tab.spectrum.lambda_max * radius(tab)**t + 1e-12

    def test_binomial_matches_direct_up_to_threshold(self):
        N, M = 2048, 1024
        d = make_geometric_singular_values(M, 10.0, float(N))
        prof = exact_moments_from_singular_values(d, N, 12, M=M)
        tb = build_moment_tables(prof, 12)
        td = tables_from_singular_values(d, N, 12, M=M)
        tmax = min(2 * 12, BINOMIAL_CANCELLATION_THRESHOLD)
        for t in range(tmax + 1):
            assert tb.b_at(t) == pytest.approx(td.b_at(t), rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        eigs=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=64),
        extra=st.integers(0, 64),
        T=st.integers(1, 12),
    )
    def test_binomial_sum_is_correctly_rounded(self, eigs, extra, T):
        # every scaled trace is the float nearest the exact sum of its float
        # inputs, whatever the cancellation
        eigs = np.array(eigs)
        N = len(eigs) + extra
        prof = exact_moments_from_singular_values(np.sqrt(eigs), N, T, M=len(eigs))
        tab = build_moment_tables(prof, T)
        expected = shifted_traces_mp(prof.moments, prof.lambda_dagger)
        assert tab.b_scaled[: 2 * T + 1].tolist() == expected

    def test_binomial_rejects_short_profile(self):
        prof = exact_moments_from_singular_values(np.ones(4), 4, 2, M=4)
        with pytest.raises(ValueError):
            build_moment_tables(prof, 5)

    def test_nonfinite_moments_raise(self):
        prof = SpectralProfile(
            np.array([1.0, 1.0, np.inf, 1.0, 1.0]), 0.0, 2.0, "estimated", None, 4
        )
        with pytest.raises(FloatingPointError):
            build_moment_tables(prof, 2)

    def test_extension_preserves_prefix(self):
        d = make_geometric_singular_values(6, 4.0, 12.0)
        tab = tables_from_singular_values(d, 12, 3, M=6)
        w_ext = tab.w_scaled_extended(40)
        np.testing.assert_allclose(w_ext[: len(tab.w_scaled)], tab.w_scaled, rtol=1e-14)

    def test_extension_prefix_is_stored_table_exactly(self):
        # an eigenvalue at lambda_dagger has ratio ~0, so its power underflows
        # and is dropped at t = 64, inside the 2T+2 = 82 stored entries
        d = make_geometric_singular_values(64, 10.0, 128.0)
        ld = 0.5 * (d[0] ** 2 + d[-1] ** 2)
        d = np.append(d, np.sqrt(ld))
        T = 40
        tab = tables_from_singular_values(d, 130, T, M=65)
        w_ext = tab.w_scaled_extended(1000)
        assert np.array_equal(w_ext[: 2 * T + 2], tab.w_scaled)
        naive = _naive_w_scaled(d**2, tab.lambda_dagger, 130, 2 * T + 2)
        assert np.array_equal(tab.w_scaled[:64], naive[:64])
        np.testing.assert_allclose(tab.w_scaled, naive, rtol=1e-13)

    def test_extension_is_exactly_zero_past_underflow(self):
        # ratios in [0.02, 0.98]: every power drops below the smallest normal
        # double by t = 35,100, and from the next 64-term block boundary the
        # series must be exact zeros, not subnormal powers stuck at 2**-1074
        d = np.sqrt(np.linspace(0.02, 0.98, 40))
        tab = tables_from_singular_values(d, 40, 2, M=40, lambda_extremes=(0.0, 2.0))
        ratio = (tab.lambda_dagger - d**2) / tab.lambda_dagger
        t_under = int(np.ceil(np.max(np.log(np.finfo(float).tiny) / np.log(ratio))))
        w = tab.w_scaled_extended(60_000)
        assert t_under < 36_000
        assert np.all(w[t_under + 64 :] == 0.0)
        assert np.all(w[: t_under - 1000] > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        d_sq=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=24),
        zero_floor=st.booleans(),
        stretch=st.floats(1.0, 1.5),
        extra=st.integers(0, 8),
        n=st.integers(4, 300),
    )
    def test_extension_matches_naive_loop(self, d_sq, zero_floor, stretch, extra, n):
        d = np.sqrt(d_sq)
        d_sq = d**2
        lo = 0.0 if zero_floor else float(d_sq.min())
        hi = float(d_sq.max()) * stretch
        N = len(d) + extra
        tab = tables_from_singular_values(d, N, 1, M=len(d), lambda_extremes=(lo, hi))
        w = tab.w_scaled_extended(n)
        naive = _naive_w_scaled(d_sq, tab.lambda_dagger, N, n + 1)
        # no eigenvalue can be dropped before the first block boundary
        assert np.array_equal(w[:64], naive[:64])
        # later sums may run over fewer terms: a reordered sum of at most 24
        # terms differs by a few ulps of the sum of absolute terms
        ratio = np.abs((tab.lambda_dagger - d_sq) / tab.lambda_dagger)
        scale = (d_sq * ratio ** np.arange(n + 1)[:, None]).sum(axis=1) / N
        live = np.abs(naive) > 1e-250
        assert np.all(np.abs(w - naive)[live] <= 1e-13 * scale[live])


class TestWeightDecay:
    @settings(max_examples=60, deadline=None)
    @given(
        d_sq=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=24),
        zero_floor=st.booleans(),
        stretch=st.floats(1.0, 1.5),
        extra=st.integers(0, 8),
        n=st.integers(4, 2000),
    )
    def test_extension_decays_at_the_weight_rate(self, d_sq, zero_floor, stretch, extra, n):
        d = np.sqrt(d_sq)
        d_sq = d**2
        lo = 0.0 if zero_floor else float(d_sq.min())
        hi = float(d_sq.max()) * stretch
        tab = tables_from_singular_values(
            d, len(d) + extra, 1, M=len(d), lambda_extremes=(lo, hi)
        )
        q = tab.weight_decay
        # the eigenvalues lie inside the extremes, up to the rounding of ld
        assert 0.0 <= q <= radius(tab) / tab.lambda_dagger + 1e-15
        w = tab.w_scaled_extended(n)
        # a chain of s products carries s roundings; the absolute slack covers
        # sums that reach the subnormal range
        bound = tab.w0 * q ** np.arange(n + 1)
        assert np.all(np.abs(w) <= bound * (1 + 1e-12) + 1e-300)

    def test_bounded_extremes_decay_faster_than_their_radius(self):
        # with lambda_min = 0 assumed, the radius over ld is exactly 1, while the
        # spectrum itself sits strictly inside (0, 2 ld)
        d = make_geometric_singular_values(256, 10.0, 512.0)
        tab = tables_from_singular_values(d, 512, 5, M=256, lambda_extremes=(0.0, 120.0))
        assert radius(tab) / tab.lambda_dagger == 1.0
        ld = tab.lambda_dagger
        want = max(ld - d.min() ** 2, d.max() ** 2 - ld) / ld
        assert tab.weight_decay == pytest.approx(want, rel=1e-15)

    def test_exact_extremes_give_the_spectral_radius(self):
        d = make_geometric_singular_values(64, 10.0, 128.0)
        tab = tables_from_singular_values(d, 128, 5, M=64)
        assert tab.weight_decay == pytest.approx(radius(tab) / tab.lambda_dagger, rel=1e-15)

    def test_zero_when_the_only_eigenvalue_sits_at_lambda_dagger(self):
        assert tables_from_singular_values(np.ones(8), 8, 4, M=8).weight_decay == 0.0
        # structural zeros carry no weight and do not count
        tab = tables_from_singular_values(
            np.array([1.0, 0.0, 0.0]), 3, 4, M=3, lambda_extremes=(0.0, 2.0)
        )
        assert tab.weight_decay == 0.0

    def test_zero_when_no_eigenvalue_is_positive(self):
        tab = tables_from_singular_values(np.zeros(4), 4, 2, M=4, lambda_extremes=(0.0, 1.0))
        assert tab.weight_decay == 0.0
        assert np.all(tab.w_scaled_extended(100) == 0.0)


class TestEstimatedSpectrumRefusal:
    """Every reader of the eigenvalues refuses an estimated spectrum alike."""

    READERS = {
        "weight_decay": lambda tab: tab.weight_decay,
        "w_scaled_extended": lambda tab: tab.w_scaled_extended(len(tab.w_scaled)),
        "lmmse_gamma_se": lambda tab: lmmse_gamma_se(0.5, tab.spectrum, 1e-3),
        "run_bo_oamp_se": lambda tab: run_bo_oamp_se(
            tab.spectrum, PriorParams(mu=0.1), 1e-3, 5
        ),
        "oamp_fixed_point": lambda tab: oamp_fixed_point(tab, PriorParams(mu=0.1), 1e-3),
        "bo_oamp_fixed_point_exact": lambda tab: bo_oamp_fixed_point_exact(
            tab.spectrum, PriorParams(mu=0.1), 1e-3
        ),
    }

    @pytest.mark.parametrize("reader", list(READERS))
    def test_reader_raises_the_spectrum_refusal(self, reader):
        d = make_geometric_singular_values(64, 10.0, 128.0)
        op = build_structured_operator(64, 128, d, rng_seed=0)
        tab = build_moment_tables(estimate_moments_power_recursion(op, 3, rng_seed=0), 3)
        assert tab.spectrum.eigs is None
        with pytest.raises(ValueError, match="eigenvalue-built tables") as refusal:
            tab.spectrum.eigenvalues()
        with pytest.raises(ValueError) as raised:
            self.READERS[reader](tab)
        assert str(raised.value) == str(refusal.value)


class TestOneSpectrum:
    """The tables' spectrum keeps the bits of the singular-value arrays it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        J=st.integers(1, 300),
        extra=st.integers(0, 300),
        wide=st.booleans(),
        kappa=st.floats(1.0, 100.0),
        T=st.integers(1, 40),
        v=st.floats(1e-6, 1.0),
        sigma2=st.floats(1e-6, 1.0),
    )
    def test_w0_and_lmmse_transfer_keep_their_bits(self, J, extra, wide, kappa, T, v, sigma2):
        # wide: M = J <= N; otherwise N = J < M and A A^H has M - N zeros
        M, N = (J, J + extra) if wide else (J + extra, J)
        d = make_geometric_singular_values(J, kappa, float(max(M, N)))
        tab = tables_from_singular_values(d, N, T, M=M)
        assert tab.w0 == tab.spectrum.moments[1]
        # the transfer as it read (d, N) before the tables carried the spectrum
        eps = float(np.sum(d**2 / (sigma2 / v + d**2))) / N
        assert lmmse_gamma_se(v, tab.spectrum, sigma2) == v * (1.0 / eps - 1.0)

    @pytest.mark.parametrize(
        "N, M, d, mu, sigma2, want",
        [
            (512, 256, ("geometric", 10.0), 0.1, 1e-3,
             (0.0015063842767148688, 0.00016908784290247262)),
            (256, 1024, ("geometric", 100.0), 0.3, 10**-1.5,
             (0.03809139063129539, 0.02030986117585642)),
            (300, 300, ("uniform", 7), 0.05, 1e-4,
             (3.2936971245205834e-05, 1.7339240468848231e-06)),
        ],
    )
    def test_exact_fixed_point_keeps_its_bits(self, N, M, d, mu, sigma2, want):
        # (v_gamma, v_phi) that bo_oamp_fixed_point_exact(d, N, ...) returned
        # when it took the singular values and N
        kind, param = d
        J = min(M, N)
        if kind == "geometric":
            d = make_geometric_singular_values(J, param, float(max(M, N)))
        else:
            d = np.random.default_rng(param).uniform(0.1, 3.0, J)
        spectrum = tables_from_singular_values(d, N, 1, M=M).spectrum
        assert bo_oamp_fixed_point_exact(spectrum, PriorParams(mu=mu), sigma2) == want
