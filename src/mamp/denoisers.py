"""Bernoulli-Gaussian prior: symbol-wise MMSE denoiser and its extrinsic form.

The closed-form posterior below is the standard spike-and-slab computation:
with nonzero probability mu and slab variance 1/mu the signal has unit power,
and the pseudo-observation is r = x + CN(0, v).  Only the complex prior is
supported: the slab is circular complex Gaussian, like every noise draw, and
bg_mmse reads its input as complex.  All formulas are validated against an
independent quadrature oracle in the test suite before use.  Everything here,
the simulation denoiser's logistic included, is pure NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np


class NonImprovingNLEError(RuntimeError):
    """Denoiser posterior variance did not improve on the input noise level."""


@dataclass(frozen=True)
class PriorParams:
    """Complex Bernoulli-Gaussian prior with E|x|^2 = mu * component_var = 1."""

    mu: float

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must be in (0, 1], got {self.mu}")

    @property
    def component_var(self) -> float:
        return 1.0 / self.mu


@dataclass
class DenoiserOutput:
    posterior_mean: np.ndarray
    posterior_var: float
    extrinsic_mean: np.ndarray | None


# Entries per chunk of the element-wise passes over full-size vectors (draws,
# denoiser, damping): chunk-sized scratch stays in cache, and the outputs are
# the only full-size allocations.
CHUNK = 1 << 14


def chunks(n: int):
    """Slices of at most CHUNK entries that cover range(n) in order."""
    for start in range(0, n, CHUNK):
        yield slice(start, min(start + CHUNK, n))


def complex_normal(
    rng: np.random.Generator, shape, var: float, out: np.ndarray | None = None, add: bool = False
) -> np.ndarray:
    """IID CN(0, var) draw, filled in place through one reused float buffer.

    All real parts are drawn first, then all imaginary parts, so the result is
    bit-identical to ``(rng.standard_normal(shape) + 1j *
    rng.standard_normal(shape)) * np.sqrt(var / 2)`` and leaves the generator
    in the same state, without that expression's full-size temporaries.  The
    draw goes into ``out`` (contiguous complex, of the given shape) when it is
    passed; with ``add`` it is added to what ``out`` holds, which gives the
    bits of ``out + draw``.
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    flat = out.reshape(-1)
    scale = np.sqrt(var / 2.0)
    buf = np.empty(min(flat.size, CHUNK))
    for part in (flat.real, flat.imag):
        for sl in chunks(flat.size):
            target = part[sl]
            block = buf[: target.size]
            rng.standard_normal(out=block)
            if add:
                block *= scale
                target += block
            else:
                np.multiply(block, scale, out=target)
    return out


def sample_prior(prior: PriorParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """IID draw of length n from the prior: CN(0, 1/mu) slabs on the support."""
    support = rng.random(n) < prior.mu
    slab = complex_normal(rng, n, prior.component_var)
    return np.where(support, slab, 0.0)


def _posterior_moments(r, v: float, prior: PriorParams, scratch, mean=None, var=None):
    """Per-entry posterior mean and variance of the spike-and-slab posterior.

    Written chunk by chunk into mean and var (allocated when not given)
    through two chunk-sized float buffers taken from scratch; every entry
    sees the same operations, in the same order, as the whole-array
    expressions would apply.
    """
    vx = prior.component_var
    gain = vx / (vx + v)
    if prior.mu < 1.0:
        log_odds_scale = v * (vx + v)
        log_odds_shift = np.log((1.0 - prior.mu) / prior.mu) + np.log((vx + v) / v)
    if mean is None:
        mean, var = np.empty(r.shape, dtype=complex), np.empty(r.shape)
    r_flat, mean_flat, var_flat = r.reshape(-1), mean.reshape(-1), var.reshape(-1)
    for sl in chunks(r_flat.size):
        rb, mb, vb = r_flat[sl], mean_flat[sl], var_flat[sl]
        power, pi = scratch[: rb.size], scratch[CHUNK : CHUNK + rb.size]
        # |r|^2 as re^2 + im^2; any non-finite part of r makes it non-finite
        np.square(rb.real, out=power)
        power += np.square(rb.imag, out=pi)
        if not np.isfinite(power).all() and not np.all(np.isfinite(rb)):
            raise ValueError("pseudo-observation contains non-finite entries")
        if prior.mu < 1.0:
            # minus the support log-odds, in log space to survive large |r|^2 / v
            np.multiply(power, vx, out=pi)
            pi /= log_odds_scale
            pi -= log_odds_shift
            # logistic 1 / (1 + e^{-z}); e^{-z} overflows to inf, and the
            # weight to 0, where z < -709
            np.negative(pi, out=pi)
            with np.errstate(over="ignore"):
                np.exp(pi, out=pi)
            pi += 1.0
            np.reciprocal(pi, out=pi)
        else:
            pi.fill(1.0)
        np.multiply(power, gain**2, out=vb)
        vb += gain * v
        vb *= pi
        pi *= gain
        np.multiply(pi, rb, out=mb)
        np.square(mb.real, out=power)
        power += np.square(mb.imag, out=pi)
        vb -= power
    return mean, var


def bg_mmse(r: np.ndarray, v: float, prior: PriorParams, out=None) -> DenoiserOutput:
    """Symbol-wise MMSE estimate of x from r = x + CN(0, v).

    Returns the posterior mean, the entry-averaged posterior variance, and the
    Gaussian-extrinsic pair (None when the posterior did not improve on v).
    out, when given, is a workspace (mean, var, ext) of contiguous arrays of
    r's shape: complex posterior mean, float per-entry posterior variance and
    complex extrinsic mean, written in place and returned.  ext may be r
    itself; r is left untouched when the extrinsic is None.  Without out the
    three are allocated, and var is freed before ext is allocated.
    """
    if not (np.isfinite(v) and v > 0):
        raise ValueError(f"noise variance must be positive and finite, got {v}")
    r = np.ascontiguousarray(r, dtype=complex)
    mean, var, ext = out or (None, None, None)
    scratch = np.empty(2 * CHUNK)
    mean, var = _posterior_moments(r, v, prior, scratch, mean, var)
    v_hat = float(np.mean(var))
    del var  # without a workspace, freed before the extrinsic pass allocates
    v_ext = extrinsic_variance(v_hat, v)
    ext_mean = None
    if v_ext is not None:
        ext_mean = _extrinsic_combine(r, v, mean, v_hat, v_ext, scratch, ext)
    return DenoiserOutput(mean, v_hat, ext_mean)


def extrinsic_variance(v_post: float, v_in: float) -> float | None:
    """Extrinsic variance 1 / (1/v_post - 1/v_in); None unless v_post < v_in."""
    if not v_post < v_in:
        return None
    return 1.0 / (1.0 / v_post - 1.0 / v_in)


def _extrinsic_combine(r, v_gamma, x_hat, v_hat, v_ext, scratch, mean=None):
    """v_ext (x_hat / v_hat - r / v_gamma), chunk by chunk, into mean.

    mean is allocated when not given.  Each chunk of r is scaled into scratch
    before that chunk of mean is written, so mean may be r.  NumPy divides a
    complex array by a real scalar by multiplying both parts by the
    reciprocal, so the float-view products below give the same bits.
    """
    if mean is None:
        mean = np.empty_like(x_hat)
    r_flat, x_flat, m_flat = r.reshape(-1), x_hat.reshape(-1), mean.reshape(-1)
    for sl in chunks(m_flat.size):
        mb = m_flat[sl].view(float)
        r_scaled = scratch[: mb.size]
        np.multiply(r_flat[sl].view(float), 1.0 / v_gamma, out=r_scaled)
        np.multiply(x_flat[sl].view(float), 1.0 / v_hat, out=mb)
        mb -= r_scaled
        mb *= v_ext
    return mean


# Fixed rule of scalar_mmse: 24-node Gauss-Legendre panels, one below the
# logistic transition and _MMSE_PANELS on each side of its centre.  Nothing is
# left past _MMSE_WIDTHS scale lengths (e^-45 ~ 3e-20) of either side, nor
# past _MMSE_SLAB_WIDTHS slab variances, where the slab itself has decayed.
_MMSE_PANELS = 8
_MMSE_WIDTHS = 45.0
_MMSE_SLAB_WIDTHS = 50.0


@cache
def _gauss_legendre_24():
    # built on the first scalar_mmse call: only it loads numpy.polynomial
    return np.polynomial.legendre.leggauss(24)


def scalar_mmse(v: float, prior: PriorParams) -> float:
    """Deterministic scalar MMSE at noise level v by a fixed quadrature rule.

    Integrates the posterior variance, a sum of positive terms, so nothing
    cancels at high SNR (as 1 - E|x_hat|^2 would):

        mmse(v) = mu g v + g^2 E_u[u pi(u) (1 - pi(u))]

    with g = vx / s, s = vx + v, u = |r|^2 ~ (1-mu) Exp(v) + mu Exp(s), and the
    support probability pi(u) = sigma(alpha u - c), alpha = vx / (v s),
    c = log((1-mu)/mu) + log(s/v); the first term uses E[pi] = mu.  Against
    the law of u, pi (1 - pi) = mu/s e^{-u/s} sigma(c - alpha u), so the
    integrand follows the slab below the transition centre u* = max(c, 0) /
    alpha, falls over the transition width 1/alpha and decays like e^{-u/v}
    above it.  The panels cover [u* - 45/alpha, u*] and [u*, u* + 45 v], with
    one more for what lies below, all clipped to [0, 50 s].  Against 40-digit
    quadrature it holds to ~4e-16 relative for mu in [1e-5, 1 - 1e-6] and v
    in [1e-16, 1e6].
    """
    if v <= 0:
        raise ValueError(f"v must be positive, got {v}")
    mu, vx = prior.mu, prior.component_var
    s = vx + v
    gain = vx / s
    if mu == 1.0:
        return gain * v
    alpha = vx / (v * s)
    c = np.log((1.0 - mu) / mu) + np.log(s / v)
    end = _MMSE_SLAB_WIDTHS * s
    centre = min(max(c, 0.0) / alpha, end)
    below = max(centre - _MMSE_WIDTHS / alpha, 0.0)
    above = min(centre + _MMSE_WIDTHS * v, end)
    edges = np.concatenate((
        [0.0],
        np.linspace(below, centre, _MMSE_PANELS + 1),
        np.linspace(centre, above, _MMSE_PANELS + 1)[1:],
    ))
    nodes, weights = _gauss_legendre_24()
    half = 0.5 * np.diff(edges)[:, None]
    u = edges[:-1, None] + half * (1.0 + nodes)
    # mu/s e^{-u/s} sigma(-z) as one exponent, -u/s - softplus(z): neither
    # tail cancels and nothing overflows
    z = alpha * u - c
    density = np.exp(-u / s - np.maximum(z, 0.0) - np.log1p(np.exp(-np.abs(z))))
    integral = (mu / s) * float(np.sum(half * (weights * u * density)))
    return float(mu * gain * v + gain**2 * integral)
