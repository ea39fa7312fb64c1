"""Spike-and-slab denoiser: closed form vs quadrature, extrinsic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from mamp import (
    NonImprovingNLEError,
    PriorParams,
    bg_mmse,
    scalar_mmse,
)
from mamp import denoisers
from mamp.denoisers import sample_prior

from oracles import (
    bg_posterior_oracle,
    bg_scalar_mmse_mp,
    bg_scalar_mmse_oracle,
    extrinsic_nle,
    mmse_of_noise_level,
)


def reference_bg_mmse(r, v, prior):
    """bg_mmse written one expression per quantity; the package must match its bits."""
    vx = prior.component_var
    log_odds = (
        np.log((1.0 - prior.mu) / prior.mu)
        + np.log((vx + v) / v)
        - (np.abs(r) ** 2) * vx / (v * (vx + v))
        if prior.mu < 1.0
        else np.full(np.shape(r), -np.inf)
    )
    pi = expit(-log_odds)
    gain = vx / (vx + v)
    mean = pi * gain * r
    second = pi * (gain * v + gain**2 * np.abs(r) ** 2)
    var = second - np.abs(mean) ** 2
    v_hat = float(np.mean(var))
    if v_hat >= v:
        return mean, v_hat, None, None
    v_ext = 1.0 / (1.0 / v_hat - 1.0 / v)
    return mean, v_hat, v_ext * (mean / v_hat - r / v), v_ext


class TestPriorParams:
    def test_normalization(self):
        p = PriorParams(mu=0.25)
        assert p.mu * p.component_var == pytest.approx(1.0)

    @pytest.mark.parametrize("mu", [0.0, -0.1, 1.5])
    def test_invalid_mu(self, mu):
        with pytest.raises(ValueError):
            PriorParams(mu=mu)

    def test_sample_normalized(self):
        rng = np.random.default_rng(0)
        x = sample_prior(PriorParams(mu=0.1), 1 << 16, rng)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, abs=0.05)


class TestPosterior:
    def test_zero_observation_gives_zero_mean(self):
        out = bg_mmse(np.zeros(4, dtype=complex), 0.3, PriorParams(mu=0.2))
        np.testing.assert_allclose(out.posterior_mean, 0.0)

    def test_pure_gaussian_is_wiener_filter(self):
        prior = PriorParams(mu=1.0)
        r = np.array([1.0 + 2.0j, -0.5 + 0.1j])
        v = 0.4
        out = bg_mmse(r, v, prior)
        gain = 1.0 / (1.0 + v)
        np.testing.assert_allclose(out.posterior_mean, gain * r, rtol=1e-14)
        assert out.posterior_var == pytest.approx(gain * v, rel=1e-14)

    def test_matches_quadrature_oracle_pointwise(self):
        prior = PriorParams(mu=0.1)
        out = bg_mmse(np.array([1.0 + 0j]), 0.01, prior)
        mean, var = bg_posterior_oracle(1.0, 0.01, 0.1)
        assert out.posterior_mean[0].real == pytest.approx(mean, abs=1e-8)
        assert out.posterior_var == pytest.approx(var, abs=1e-8)

    def test_phase_equivariance(self):
        prior = PriorParams(mu=0.3)
        r0 = 1.3
        phase = np.exp(1j * 0.7)
        a = bg_mmse(np.array([r0 + 0j]), 0.2, prior).posterior_mean[0]
        b = bg_mmse(np.array([r0 * phase]), 0.2, prior).posterior_mean[0]
        np.testing.assert_allclose(b, a * phase, rtol=1e-12)

    def test_extreme_observation_no_overflow(self):
        out = bg_mmse(np.array([200.0 + 0j]), 1e-4, PriorParams(mu=0.05))
        assert np.all(np.isfinite(out.posterior_mean))
        assert np.isfinite(out.posterior_var)

    def test_invalid_noise_level(self):
        with pytest.raises(ValueError):
            bg_mmse(np.zeros(2, dtype=complex), -1.0, PriorParams(mu=0.5))

    def test_score_identity_against_log_evidence(self):
        """Posterior mean equals r + (v/2) d/dr log Z(r) on the real axis."""
        prior = PriorParams(mu=0.2)
        v, vx = 0.15, prior.component_var
        s = vx + v

        def log_evidence(r):
            comp0 = (1 - prior.mu) / (np.pi * v) * np.exp(-(r**2) / v)
            comp1 = prior.mu / (np.pi * s) * np.exp(-(r**2) / s)
            return np.log(comp0 + comp1)

        h = 1e-6
        for r0 in (0.2, 0.9, 1.7):
            grad = (log_evidence(r0 + h) - log_evidence(r0 - h)) / (2 * h)
            expected = r0 + 0.5 * v * grad
            got = bg_mmse(np.array([r0 + 0j]), v, prior).posterior_mean[0].real
            assert got == pytest.approx(expected, abs=1e-5)

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
            min_size=1,
            max_size=40,
        ),
        v=st.floats(1e-6, 20.0),
        mu=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    )
    def test_equals_reference_formulas_exactly(self, parts, v, mu):
        prior = PriorParams(mu=mu)
        re, im = np.array(parts).T
        r = re + 1j * im
        out = bg_mmse(r, v, prior)
        mean, v_hat, ext_mean, ext_var = reference_bg_mmse(r, v, prior)
        assert np.array_equal(out.posterior_mean, mean)
        assert out.posterior_var == v_hat
        if ext_mean is None:
            assert out.extrinsic_mean is None and out.extrinsic_var is None
        else:
            assert np.array_equal(out.extrinsic_mean, ext_mean)
            assert out.extrinsic_var == ext_var

    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    @pytest.mark.parametrize("mu", [1.0, 0.1])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "float"])
    def test_chunked_passes_match_reference_bits_at_chunk_edges(
        self, extra, mu, layout
    ):
        """bg_mmse works in chunks of CHUNK entries; sizes C - 1, C, C + 1 and
        3C + 7 put the last chunk at every edge case.  The input is read once as
        contiguous complex, so a strided view or a float array gives the bits
        of its contiguous complex copy."""
        C = denoisers.CHUNK
        n = 3 * C + 7 if extra is None else C + extra
        prior = PriorParams(mu=mu)
        rng = np.random.default_rng(n)
        v = 0.05
        x = sample_prior(prior, n, rng)
        r = x + np.sqrt(v / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if layout == "strided":
            buf = np.zeros(2 * n, dtype=complex)
            buf[::2] = r
            r_in = buf[::2]
        elif layout == "float":
            r_in = r.real.copy()
            r = r_in.astype(complex)
        else:
            r_in = r
        mean, v_hat, ext_mean, ext_var = reference_bg_mmse(r, v, prior)
        assert ext_mean is not None
        out = bg_mmse(r_in, v, prior)
        ext, v_ext = extrinsic_nle(r_in, v, prior)
        bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
        assert np.array_equal(bits(out.posterior_mean), bits(mean))
        assert out.posterior_var == v_hat
        assert np.array_equal(bits(out.extrinsic_mean), bits(ext_mean))
        assert np.array_equal(bits(ext), bits(ext_mean))
        assert out.extrinsic_var == v_ext == ext_var


class TestExtrinsic:
    def test_harmonic_identity_at_half_variance(self):
        # synthetic posterior variance v/2 gives extrinsic variance exactly v
        prior = PriorParams(mu=1.0)
        v = 1.0
        x, v_ext = extrinsic_nle(np.array([0.5 + 0j]), v, prior)
        # Wiener: v_hat = v/(1+v) = 0.5 = v/2 here, so v_ext must equal v... and
        # for the Gaussian prior the extrinsic carries no information at all
        assert v_ext == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(x, 0.0, atol=1e-12)

    def test_information_combining_identity(self):
        prior = PriorParams(mu=0.2)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v = 0.7
        out = bg_mmse(r, v, prior)
        assert 1.0 / out.posterior_var == pytest.approx(
            1.0 / v + 1.0 / out.extrinsic_var, rel=1e-12
        )

    def test_non_improving_raises(self):
        prior = PriorParams(mu=0.5)
        with pytest.raises(NonImprovingNLEError):
            # essentially noiseless pseudo-observation of a zero vector makes
            # the empirical posterior variance collapse above the  tiny v on
            # a constant input away from both mixture modes
            extrinsic_nle(np.full(4, 3.16227j), 1e-9, prior)

    def test_chained_denoising_does_not_lose_information(self):
        prior = PriorParams(mu=0.1)
        rng = np.random.default_rng(7)
        x = sample_prior(prior, 1 << 14, rng)
        v = 0.05
        noise = (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))) * np.sqrt(v / 2)
        out = bg_mmse(x + noise, v, prior)
        ext, v_ext = extrinsic_nle(x + noise, v, prior)
        # feeding the extrinsic estimate back at its stated level cannot be
        # worse than the first posterior
        eta = (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))) * np.sqrt(v_ext / 2)
        out2 = bg_mmse(x + eta, v_ext, prior)
        assert out2.posterior_var <= out.posterior_var * 1.05


class TestScalarMMSE:
    def test_noiseless_limit(self):
        assert scalar_mmse(1e-9, PriorParams(mu=0.3)) < 1e-6
        assert mmse_of_noise_level(1e-9, PriorParams(mu=0.3), 10_000, 0) < 1e-6

    def test_gaussian_closed_form(self):
        got = mmse_of_noise_level(1.0, PriorParams(mu=1.0), 200_000, 1)
        assert got == pytest.approx(0.5, abs=0.01)
        assert scalar_mmse(1.0, PriorParams(mu=1.0)) == pytest.approx(0.5, rel=1e-10)

    def test_monte_carlo_matches_quadrature(self):
        prior = PriorParams(mu=0.1)
        n = 400_000
        for v in (0.001, 0.05):
            mc = mmse_of_noise_level(v, prior, n, rng_seed=3)
            exact = scalar_mmse(v, prior)
            # spike-and-slab per-symbol errors are heavy-tailed; allow 3 std
            # errors of the empirical mean estimated conservatively
            assert abs(mc - exact) < 3 * 10 * exact / np.sqrt(n)

    @pytest.mark.parametrize("mu", [0.01, 0.05, 0.1, 0.3, 0.5, 0.9])
    def test_matches_mpmath_oracle(self, mu):
        prior = PriorParams(mu=mu)
        for v in np.logspace(-8, 1, 10):
            assert scalar_mmse(v, prior) == pytest.approx(
                bg_scalar_mmse_mp(v, mu), rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize(
        "mu,v", [(1e-4, 1e-14), (0.3, 3.16e-4), (0.01, 1e4), (0.2, 1e3), (0.999, 1e5)]
    )
    def test_matches_mpmath_oracle_at_extremes(self, mu, v):
        # far below 0 dB the spike decays within a fraction of the logistic
        # transition, and near the noiseless end u* sits many widths out
        assert scalar_mmse(v, PriorParams(mu=mu)) == pytest.approx(
            bg_scalar_mmse_mp(v, mu), rel=1e-12, abs=0.0
        )

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(1e-3, 1.0),
        log_v=st.floats(-10.0, 4.0),
        log_step=st.floats(1e-3, 2.0),
    )
    def test_positive_below_lmmse_and_increasing(self, mu, log_v, log_step):
        prior = PriorParams(mu=mu)
        v = 10.0**log_v
        m = scalar_mmse(v, prior)
        # the LMMSE error of a unit-power signal bounds every prior's MMSE;
        # mu = 1 meets it, up to rounding
        assert 0.0 < m <= v / (1.0 + v) * (1.0 + 1e-14)
        assert m < scalar_mmse(v * 10.0**log_step, prior)

    def test_quadrature_matches_independent_oracle(self):
        # the quad oracle cancels at high SNR; these levels are where it holds
        prior = PriorParams(mu=0.1)
        for v in (0.01, 0.2):
            assert scalar_mmse(v, prior) == pytest.approx(
                bg_scalar_mmse_oracle(v, 0.1), rel=1e-8
            )

    def test_monotone_in_noise_level(self):
        prior = PriorParams(mu=0.15)
        grid = np.logspace(-4, 0, 9)
        vals = [scalar_mmse(v, prior) for v in grid]
        assert np.all(np.diff(vals) > 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mmse_of_noise_level(0.1, PriorParams(mu=0.5), 0, 0)
        with pytest.raises(ValueError):
            mmse_of_noise_level(-0.1, PriorParams(mu=0.5), 10, 0)

