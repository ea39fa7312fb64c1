"""Bernoulli-Gaussian prior: symbol-wise MMSE denoiser and its extrinsic form.

The closed-form posterior below is the standard spike-and-slab computation:
with nonzero probability mu and slab variance 1/mu the signal has unit power,
and the pseudo-observation is r = x + CN(0, v).  All formulas are validated
against an independent quadrature oracle in the test suite before use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, default_rng
from scipy.special import expit


class NonImprovingNLEError(RuntimeError):
    """Denoiser posterior variance did not improve on the input noise level."""


@dataclass(frozen=True)
class PriorParams:
    """Bernoulli-Gaussian prior with E|x|^2 = mu * component_var = 1."""

    mu: float
    field: str = "complex"

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must be in (0, 1], got {self.mu}")
        if self.field not in ("complex", "real"):
            raise ValueError(f"field must be 'complex' or 'real', got {self.field!r}")

    @property
    def component_var(self) -> float:
        return 1.0 / self.mu


@dataclass
class DenoiserOutput:
    posterior_mean: np.ndarray
    posterior_var: float
    extrinsic_mean: np.ndarray | None
    extrinsic_var: float | None


_DRAW_CHUNK = 1 << 16


def complex_normal(rng: Generator, shape, var: float) -> np.ndarray:
    """IID CN(0, var) draw, filled in place through one reused float buffer.

    All real parts are drawn first, then all imaginary parts, so the result is
    bit-identical to ``(rng.standard_normal(shape) + 1j *
    rng.standard_normal(shape)) * np.sqrt(var / 2)`` and leaves the generator
    in the same state, without that expression's full-size temporaries.
    """
    out = np.empty(shape, dtype=complex)
    flat = out.reshape(-1)
    scale = np.sqrt(var / 2.0)
    buf = np.empty(min(flat.size, _DRAW_CHUNK))
    for part in (flat.real, flat.imag):
        for start in range(0, flat.size, _DRAW_CHUNK):
            block = buf[: flat.size - start]
            rng.standard_normal(out=block)
            np.multiply(block, scale, out=part[start : start + block.size])
    return out


def sample_prior(prior: PriorParams, n: int, rng: Generator) -> np.ndarray:
    """IID draw of length n from the prior (complex field returns CN slabs)."""
    support = rng.random(n) < prior.mu
    if prior.field == "complex":
        slab = complex_normal(rng, n, prior.component_var)
    else:
        slab = rng.standard_normal(n) * np.sqrt(prior.component_var)
    return np.where(support, slab, 0.0).astype(complex)


def _posterior_moments(r: np.ndarray, v: float, prior: PriorParams):
    """Per-entry posterior mean and variance of the spike-and-slab posterior."""
    vx = prior.component_var
    gain = vx / (vx + v)
    # a complex slab has two real degrees of freedom and a real one has one;
    # k rescales the Gaussian exponents accordingly
    k = 1.0 if prior.field == "complex" else 2.0
    x = r if prior.field == "complex" else np.real(r)
    # the output and two float buffers carry every per-entry quantity: fewer
    # live arrays than the equivalent expressions, same operations in order
    mean = np.empty(np.shape(x), dtype=complex)
    power = np.abs(x, out=np.empty(np.shape(x)))
    np.square(power, out=power)
    pi = np.empty(np.shape(x))
    if prior.mu < 1.0:
        # minus the support log-odds, in log space to survive large |r|^2 / v
        np.multiply(power, vx, out=pi)
        pi /= k * v * (vx + v)
        pi -= np.log((1.0 - prior.mu) / prior.mu) + np.log((vx + v) / v) / k
        expit(pi, out=pi)
    else:
        pi.fill(1.0)
    var = power
    var *= gain**2
    var += gain * v
    var *= pi
    pi *= gain
    if prior.field == "complex":
        np.multiply(pi, x, out=mean)
    else:
        pi *= x
        mean[...] = pi
    mean_power = np.abs(mean, out=pi)
    np.square(mean_power, out=mean_power)
    var -= mean_power
    return mean, var


def bg_mmse(r: np.ndarray, v: float, prior: PriorParams) -> DenoiserOutput:
    """Symbol-wise MMSE estimate of x from r = x + CN(0, v).

    Returns the posterior mean, the entry-averaged posterior variance, and the
    Gaussian-extrinsic pair (None when the posterior did not improve on v).
    """
    if not (np.isfinite(v) and v > 0):
        raise ValueError(f"noise variance must be positive and finite, got {v}")
    r = np.asarray(r)
    if not np.all(np.isfinite(r)):
        raise ValueError("pseudo-observation contains non-finite entries")
    mean, var = _posterior_moments(r, v, prior)
    v_hat = float(np.mean(var))
    if v_hat < v:
        ext_mean, ext_var = _extrinsic_combine(r, v, mean, v_hat)
    else:
        ext_mean, ext_var = None, None
    return DenoiserOutput(mean, v_hat, ext_mean, ext_var)


def _extrinsic_combine(r, v_gamma, x_hat, v_hat):
    v_ext = 1.0 / (1.0 / v_hat - 1.0 / v_gamma)
    mean = x_hat / v_hat
    mean -= r / v_gamma
    mean *= v_ext
    return mean, v_ext


def extrinsic_nle(
    r: np.ndarray, v_gamma: float, prior: PriorParams
) -> tuple[np.ndarray, float]:
    """Orthogonal (extrinsic) denoising step shared by all the algorithms.

    Raises NonImprovingNLEError when the posterior variance is not strictly
    below v_gamma; callers terminate or hold their previous estimate.
    """
    out = bg_mmse(r, v_gamma, prior)
    if out.extrinsic_mean is None:
        raise NonImprovingNLEError(
            f"posterior variance {out.posterior_var:.3e} >= input level {v_gamma:.3e}"
        )
    return out.extrinsic_mean, out.extrinsic_var


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
    mean, _ = _posterior_moments(x + np.sqrt(v_gamma) * eta, v_gamma, prior)
    return float(np.mean(np.abs(mean - x) ** 2))


def scalar_mmse(v: float, prior: PriorParams) -> float:
    """Deterministic scalar MMSE at noise level v via radial quadrature.

    mmse(v) = 1 - E|x_hat(r)|^2 with the expectation over the marginal of
    |r|^2, an exponential mixture; each component is integrated on its own
    scale so the quadrature stays well conditioned for v << 1.
    """
    if v <= 0:
        raise ValueError(f"v must be positive, got {v}")
    if prior.field != "complex":
        raise NotImplementedError("deterministic scalar MMSE covers the complex field")
    mu, vx = prior.mu, prior.component_var
    s = vx + v
    gain = vx / s

    def pi_sq(u):
        log_odds = np.log((1.0 - mu) / mu) + np.log(s / v) - u * vx / (v * s)
        return expit(-log_odds) ** 2

    if mu == 1.0:
        return gain * v
    from scipy import integrate  # loaded on first use, not at import

    # E|x_hat|^2 = gain^2 * [ (1-mu) E_{u~Exp(v)} pi^2 u + mu E_{u~Exp(s)} pi^2 u ]
    i0, _ = integrate.quad(
        lambda z: z * np.exp(-z) * pi_sq(v * z), 0.0, np.inf, epsabs=1e-14, epsrel=1e-12
    )
    i1, _ = integrate.quad(
        lambda z: z * np.exp(-z) * pi_sq(s * z), 0.0, np.inf, epsabs=1e-14, epsrel=1e-12
    )
    second = gain**2 * ((1.0 - mu) * v * i0 + mu * s * i1)
    return float(1.0 - second)

