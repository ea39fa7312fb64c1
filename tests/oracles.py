"""Independent numerical oracles used by the test suite.

The spike-and-slab posterior moments are computed here by direct quadrature
over the prior mixture times the Gaussian likelihood, never reusing the
closed-form gain/odds expressions from the package: the angular integral is
carried out with Bessel kernels and the radial integral with adaptive
quadrature.  A plain two-dimensional adaptive integral validates the Bessel
route on a handful of points.  The scalar MMSE has a 40-digit mpmath oracle
built from Bayes' rule, and a Monte-Carlo one that runs the package's
denoiser.  `extrinsic_nle` states the extrinsic step's contract (raise when
the posterior does not improve) on top of the package's denoiser.
`relaxed_fixed_point` is the plain relaxed iteration the secant fixed-point
solver is checked against.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from numpy.random import Generator, default_rng
from scipy import integrate
from scipy.special import ive

from mamp.denoisers import (
    NonImprovingNLEError,
    PriorParams,
    bg_mmse,
    complex_normal,
    extrinsic_variance,
    sample_prior,
)
from mamp.evolution import _phi_se


def bg_posterior_oracle(r_abs: float, v: float, mu: float) -> tuple[float, float]:
    """(posterior mean along the observation phase, posterior variance).

    Prior: zero with probability 1-mu, else CN(0, 1/mu).  Observation model
    r = x + CN(0, v) evaluated at |r| = r_abs (phase invariance).  All radial
    integrands are written with exponentially-scaled Bessel functions so the
    peak exponent, (r^2/v) (1 - v a)/(v a) with a = 1/vx + 1/v, stays <= 0.
    """
    vx = 1.0 / mu
    a = 1.0 / vx + 1.0 / v
    # every term shares the slab-marginal exponent -r^2/(vx+v); folding it out
    # keeps all integrands O(1) for arbitrarily large |r|
    log_common = -r_abs**2 / (vx + v)

    # With z = 2 rho |r| / v the radial weight's exponent, -a rho^2 + z -
    # r^2/v - log_common, is -a (rho - rho_peak)^2 with rho_peak = |r| / (v a):
    # a peak of width ~1/sqrt(a), ~1e-2 at v = 1e-4.  Written as a square it
    # does not cancel terms of size r^2/v, and 40 widths on either side of
    # the peak leave out less than e^-1600 of it.
    rho_peak = r_abs / (v * a)
    width = 1.0 / np.sqrt(a)
    rho_lo = max(0.0, rho_peak - 40.0 * width)
    rho_hi = rho_peak + 40.0 * width

    def _radial(power):
        def f(rho):
            z = 2.0 * rho * r_abs / v
            log_w = -a * (rho - rho_peak) ** 2
            return rho**power * np.exp(log_w) * ive(0 if power != 2 else 1, z)

        val, _ = integrate.quad(
            f, rho_lo, rho_hi, points=[rho_peak], epsabs=1e-14, epsrel=1e-12, limit=400
        )
        return val

    slab_scale = 2.0 / (np.pi * vx * v)
    z0 = slab_scale * _radial(1)
    z_spike = (1.0 - mu) * np.exp(-r_abs**2 / v - log_common) / (np.pi * v)
    Z = z_spike + mu * z0
    n_mean = mu * slab_scale * _radial(2)  # uses the first-order Bessel kernel
    n_second = mu * slab_scale * _radial(3)
    mean = n_mean / Z
    second = n_second / Z
    return float(mean), float(second - mean**2)


def bg_posterior_oracle_2d(r_abs: float, v: float, mu: float) -> tuple[float, float]:
    """Same moments via plain 2-D adaptive quadrature (slow; spot checks only)."""
    vx = 1.0 / mu

    def like(xr, xi):
        return np.exp(-((r_abs - xr) ** 2 + xi**2) / v) / (np.pi * v)

    def slab(xr, xi):
        return np.exp(-(xr**2 + xi**2) / vx) / (np.pi * vx)

    opts = dict(epsabs=1e-13, epsrel=1e-11)
    lim = 6.0 * np.sqrt(vx)

    def integ(f):
        val, _ = integrate.dblquad(f, -lim, lim, -lim, lim, **opts)
        return val

    z_slab = integ(lambda xi, xr: slab(xr, xi) * like(xr, xi))
    Z = (1.0 - mu) * like(0.0, 0.0) + mu * z_slab
    n_mean = mu * integ(lambda xi, xr: xr * slab(xr, xi) * like(xr, xi))
    n_second = mu * integ(lambda xi, xr: (xr**2 + xi**2) * slab(xr, xi) * like(xr, xi))
    mean = n_mean / Z
    return float(mean), float(n_second / Z - mean**2)


def bg_scalar_mmse_oracle(v: float, mu: float) -> float:
    """Scalar MMSE at noise level v by integrating the oracle posterior mean
    against the exponential-mixture law of |r|^2.

    Each mixture component is integrated in z = |r|^2 / scale against e^-z,
    split where the support probability turns, at its logistic centre u* and
    u* + 60 widths (the breakpoints bg_scalar_mmse_mp uses; nothing else is
    taken from the closed form), and cut at z = 60: |x_hat| <= |r|, so the
    tail left out is below scale * 61 e^-60 ~ 5e-25 scale.  Out there the
    oracle's own radial quadrature loses its tolerance to roundoff.

    As 1 - E|x_hat|^2 in double precision it cancels at high SNR: it is off by
    ~0.3% at v = 3e-4 and returns NaN at v = 1e-5; trust it only for
    v >~ 1e-3.  bg_scalar_mmse_mp holds at any v.
    """
    vx = 1.0 / mu
    s = vx + v
    alpha = vx / (v * s)
    u_star = max(np.log((1.0 - mu) / mu) + np.log(s / v), 0.0) / alpha

    # E|x_hat|^2 = int p(u) |mean(sqrt(u))|^2 du over u = |r|^2
    def mean_sq(u):
        m, _ = bg_posterior_oracle(np.sqrt(u), v, mu)
        return m**2

    z_end = 60.0
    acc = 0.0
    for weight, scale in ((1.0 - mu, v), (mu, s)):
        turns = np.array([u_star, u_star + 60.0 / alpha]) / scale
        edges = np.unique(np.clip([0.0, *turns, z_end], 0.0, z_end))
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = integrate.quad(
                lambda z: np.exp(-z) * mean_sq(scale * z),
                lo,
                hi,
                epsabs=1e-13,
                epsrel=1e-11,
                limit=200,
            )
            acc += weight * val
    return 1.0 - acc


def bg_scalar_mmse_mp(v: float, mu: float, dps: int = 40) -> float:
    """Scalar MMSE at noise level v as a dps-digit mpmath integral.

    Integrates the posterior variance pi (g v + g^2 u) - pi^2 g^2 u of the
    complex spike-and-slab prior over u = |r|^2, whose law is the mixture of
    the spike's Exp(v) and the slab's Exp(s), s = 1/mu + v.  The support
    probability pi comes from Bayes' rule on those two densities; the
    logistic's centre u* and width only place the breakpoints, at u* and
    u* + 60 widths, so tanh-sinh quadrature sees its narrow transition.
    """
    with mp.workdps(dps):
        v, mu = mp.mpf(v), mp.mpf(mu)
        vx = 1 / mu
        s = vx + v
        g = vx / s
        alpha = vx / (v * s)
        c = mp.log((1 - mu) / mu) + mp.log(s / v)
        u_star = max(c, 0) / alpha

        def posterior_var(u):
            # p(u) [pi (g v + g^2 u) - pi^2 g^2 u] with pi = slab / p(u) and
            # 1 - pi = spike / p(u), p(u) = spike + slab
            slab = mu * mp.exp(-u / s) / s
            spike = (1 - mu) * mp.exp(-u / v) / v
            return slab * (g * v + g**2 * u * spike / (spike + slab))

        points = sorted({mp.mpf(0), u_star, u_star + 60 / alpha})
        return float(mp.quad(posterior_var, points + [mp.inf]))


def mmse_of_noise_level(
    v_gamma: float, prior: PriorParams, n_mc: int, rng_seed: int | Generator
) -> float:
    """Monte-Carlo scalar MMSE E|x_hat(x + sqrt(v) eta) - x|^2 at noise level v."""
    if n_mc < 1:
        raise ValueError(f"n_mc must be positive, got {n_mc}")
    if v_gamma <= 0:
        raise ValueError(f"v_gamma must be positive, got {v_gamma}")
    rng = rng_seed if isinstance(rng_seed, Generator) else default_rng(rng_seed)
    x = sample_prior(prior, n_mc, rng)
    eta = complex_normal(rng, n_mc, 1.0)
    mean = bg_mmse(x + np.sqrt(v_gamma) * eta, v_gamma, prior).posterior_mean
    return float(np.mean(np.abs(mean - x) ** 2))


def extrinsic_nle(
    r: np.ndarray, v_gamma: float, prior: PriorParams
) -> tuple[np.ndarray, float]:
    """The extrinsic part of bg_mmse, raising when the posterior does not improve.

    Raises NonImprovingNLEError when the posterior variance is not strictly
    below v_gamma, where bg_mmse returns no extrinsic estimate.
    """
    out = bg_mmse(r, v_gamma, prior)
    if out.extrinsic_mean is None:
        raise NonImprovingNLEError(
            f"posterior variance {out.posterior_var:.3e} >= input level {v_gamma:.3e}"
        )
    return out.extrinsic_mean, extrinsic_variance(out.posterior_var, v_gamma)


def dense_memory_filter_terms(A: np.ndarray, lambda_dagger: float, t_max: int):
    """Dense powers of the shifted Gram matrix and their traces, for expanding
    the memory filter on small instances."""
    M = A.shape[0]
    N = A.shape[1]
    B = lambda_dagger * np.eye(M) - A @ A.conj().T
    powers = [np.eye(M, dtype=complex)]
    for _ in range(t_max):
        powers.append(powers[-1] @ B)
    W = [A.conj().T @ P @ A for P in powers]
    w = [np.trace(Wk).real / N for Wk in W]
    return powers, W, w


def relaxed_fixed_point(gamma_of, prior: PriorParams, tol: float, max_sweeps: int = 10_000):
    """Fixed point of v -> phi_se(gamma_of(v)) by the 0.5-relaxed Picard iteration.

    Starts at v = 1 and stops once a sweep changes v by less than tol
    relative; that last step is relaxed too.  Returns (gamma_of(v*), v*).
    A slow, plain reference for the package's secant solver.
    """
    v = 1.0
    for _ in range(max_sweeps):
        v_new = _phi_se(gamma_of(v), prior)
        converged = abs(v_new - v) / v < tol
        v = v + 0.5 * (v_new - v)
        if converged:
            break
    return float(gamma_of(v)), float(v)


def shifted_traces_mp(moments, lambda_dagger: float, dps: int = 400) -> list[float]:
    """b'_t = sum_i C(t, i) (-1)^i lambda_i / lambda_dagger**i, t < len(moments).

    Each sum runs in dps-digit mpmath on the given float inputs, so it holds
    the exact value to far more digits than a double; the float of it is the
    correctly rounded b'_t.
    """
    with mp.workdps(dps):
        ld = mp.mpf(float(lambda_dagger))
        lam = [mp.mpf(float(m)) / ld**i for i, m in enumerate(moments)]
        return [
            float(mp.fsum(mp.binomial(t, i) * (-1) ** i * lam[i] for i in range(t + 1)))
            for t in range(len(moments))
        ]
