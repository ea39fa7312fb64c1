"""Reference algorithms: LMMSE-based OAMP/VAMP, matched-filter OAMP, plain AMP.

All three consume the same instances and report the same per-iteration record
schema as the long-memory solver, so curves are comparable point by point.
The simulated runs track the input error level with the same residual-energy
estimator used by the long-memory solver; the scalar recursions in
`evolution` start from the idealized unit variance instead.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AlgorithmResult,
    IterationRecord,
    chunked_vdot,
    divide_in_place,
    invalid_input,
    mean_squared_error,
    noise_floor,
    residual,
    residual_error_estimate,
)
from .denoisers import PriorParams, bg_mmse
from .operators import SystemInstance
from .spectral import SpectralProfile


def lmmse_transfer(
    v_phi: float, eigs: np.ndarray, N: int, sigma2: float
) -> tuple[float, float]:
    """LMMSE transfer (v_gamma, eps) on the N-sided Gram eigenvalues eigs.

    eps = sum_k eigs_k / (rho + eigs_k) / N with rho = sigma^2 / v_phi, and
    v_gamma = v_phi (1/eps - 1).
    """
    rho = sigma2 / v_phi
    eps = float(np.sum(eigs / (rho + eigs))) / N
    return v_phi * (1.0 / eps - 1.0), eps


def mf_transfer(v_phi: float, lambda1: float, lambda2: float, sigma2: float) -> float:
    """Matched-filter output variance at input level v_phi from lambda_1, lambda_2."""
    return (sigma2 * lambda1 + v_phi * (lambda2 - lambda1**2)) / lambda1**2


def lmmse_le(
    x_t: np.ndarray, v_phi: float, instance: SystemInstance, z: np.ndarray
) -> tuple[np.ndarray, float]:
    """Spectral-domain LMMSE linear step with divergence-free scaling.

    Applies the per-mode gain d_i / (rho + d_i^2) with rho = sigma^2 / v_phi,
    then rescales by the trace normalizer so the output is an unbiased
    pseudo-observation of x with variance v_phi (1/eps - 1).  z is the
    residual y - A x_t.
    """
    op = instance.operator
    d = op.singular_values
    if d is None:
        raise ValueError("LMMSE step needs the operator's singular values")
    sigma2 = instance.noise_var
    d_sq = d**2
    v_gamma, eps = lmmse_transfer(v_phi, d_sq, op.N, sigma2)
    rho = sigma2 / v_phi
    scale = np.full(op.M, 1.0 / rho)
    scale[: len(d)] = 1.0 / (rho + d_sq)  # entries beyond J are killed by A^H
    r = divide_in_place(op.apply_adjoint(scale * z), eps)
    r += x_t
    return r, v_gamma


def _run_oamp(
    name: str, instance: SystemInstance, prior: PriorParams, T: int, lambda1: float,
    le_step,
) -> AlgorithmResult:
    """OAMP loop shared by the baselines: le_step(x, v_phi, z) -> (r, v_gamma).

    The input error level v_phi is the residual-energy estimate with trace
    normalizer lambda1, raised to `noise_floor` of its first value.
    """
    if (invalid := invalid_input(name, T, instance.y)) is not None:
        return invalid
    op, sigma2 = instance.operator, instance.noise_var
    N, delta = op.N, op.delta
    x = np.zeros(N, dtype=complex)
    z = instance.y  # y - A 0
    v_phi = residual_error_estimate(z, N, sigma2, delta, lambda1)
    floor = noise_floor(v_phi)
    v_phi = max(v_phi, floor)
    records: list[IterationRecord] = []
    status = "ok"
    x_hat, v_hat = None, np.inf
    for t in range(1, T + 1):
        r, v_gamma = le_step(x, v_phi, z)
        if not np.isfinite(v_gamma) or v_gamma <= 0:
            status = "degenerate"
            break
        out = bg_mmse(r, v_gamma, prior)
        mse = mean_squared_error(out.posterior_mean, instance.x_true)
        x_hat, v_hat = out.posterior_mean, out.posterior_var
        records.append(IterationRecord(t, v_gamma, v_phi, out.posterior_var, mse))
        if out.extrinsic_mean is None:
            status = "early_stop_nle"
            break
        x = out.extrinsic_mean
        z = residual(instance.y, op, x)
        v_phi = residual_error_estimate(z, N, sigma2, delta, lambda1)
        v_phi = max(v_phi, floor)
    return AlgorithmResult(name, T, records, x_hat, float(v_hat), status)


def run_bo_oamp(
    instance: SystemInstance, prior: PriorParams, T: int
) -> AlgorithmResult:
    """LMMSE OAMP/VAMP with the shared extrinsic denoiser."""
    d = instance.operator.singular_values
    if d is None:
        raise ValueError("LMMSE OAMP needs the operator's singular values")
    lambda1 = float(np.sum(d**2)) / instance.operator.N
    return _run_oamp(
        "bo_oamp", instance, prior, T, lambda1,
        lambda x, v_phi, z: lmmse_le(x, v_phi, instance, z),
    )


def run_mf_oamp(
    instance: SystemInstance,
    prior: PriorParams,
    T: int,
    spectrum: SpectralProfile,
) -> AlgorithmResult:
    """Non-memory matched-filter OAMP: cheap linear step, shared denoiser.

    Reads only the first two moments of the spectrum, lambda_1 and lambda_2.
    """
    op = instance.operator
    sigma2 = instance.noise_var
    lam1, lam2 = float(spectrum.moments[1]), float(spectrum.moments[2])

    def le_step(x, v_phi, z):
        r = divide_in_place(op.apply_adjoint(z), lam1)
        np.add(x, r, out=r)
        return r, mf_transfer(v_phi, lam1, lam2, sigma2)

    return _run_oamp("mf_oamp", instance, prior, T, lam1, le_step)


def run_amp(instance: SystemInstance, prior: PriorParams, T: int) -> AlgorithmResult:
    """Plain AMP (posterior denoiser, Onsager-corrected residual), undamped.

    Intended for IID ensembles; on ill-conditioned operators it is expected to
    diverge, which is flagged once the residual energy grows 10x above its
    initial level.
    """
    if (invalid := invalid_input("amp", T, instance.y)) is not None:
        return invalid
    op = instance.operator
    N, M = op.N, op.M
    delta = op.delta
    x = np.zeros(N, dtype=complex)
    onsager = np.zeros(M, dtype=complex)
    records: list[IterationRecord] = []
    status = "ok"
    x_hat, v_hat = None, np.inf
    v_first = None
    for t in range(1, T + 1):
        z = residual(instance.y, op, x)
        z += onsager
        v = chunked_vdot(z, z).real / M
        if v_first is None:
            v_first = v
        if v > 10.0 * v_first or not np.isfinite(v):
            status = "diverged"
            break
        r = op.apply_adjoint(z)
        np.add(x, r, out=r)
        out = bg_mmse(r, v, prior)
        mse = mean_squared_error(out.posterior_mean, instance.x_true)
        x = out.posterior_mean
        x_hat, v_hat = x, out.posterior_var
        records.append(IterationRecord(t, v, v, out.posterior_var, mse))
        # Onsager term: average denoiser divergence equals v_hat / v exactly
        onsager = np.multiply((out.posterior_var / v) / delta, z, out=z)
    return AlgorithmResult("amp", T, records, x_hat, float(v_hat), status)
