"""Covariance state evolution of the long-memory solver and shared fixed points.

The evolution runs the simulation's own kernel: `core.memory_weights` for the
linear side (relaxation, scaled memory weights, output variance) and
`core.Ledger.damp` for the optimal damping and the error-covariance ledger,
so the two cannot drift apart.  Only the denoiser side is its own: either
Monte Carlo over a correlated Gaussian noise history (the faithful covariance
recursion, whose damped errors the ledger damps alongside) or the scalar MMSE
curve, exploiting the banded structure that optimal damping enforces on the
estimate-error covariance matrix.  Both converge to the analytic LMMSE fixed
point, which is also computed directly from a geometric operator series.  The
scalar OAMP evolutions share one loop and differ only in their v_gamma map.
Every evolution returns the simulations' result type, `core.AlgorithmResult`,
with one `IterationRecord` per iteration reached and its predicted posterior
MSE as the record's mse, so simulations and evolutions are read alike.
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

from .core import (
    EPS_FLOOR,
    AlgorithmResult,
    IterationRecord,
    Ledger,
    gamma_covariance_row,
    memory_weights,
    optimize_theta,
)
from .denoisers import (
    NonImprovingNLEError,
    PriorParams,
    bg_mmse,
    complex_normal,
    sample_prior,
    scalar_mmse,
)
from .spectral import MomentTables


class NearSingularCovarianceError(RuntimeError):
    """The tracked noise covariance lost positive definiteness."""


class CorrelatedNoiseSampler:
    """Draws the per-iteration Gaussian noise batch consistent with V_gamma.

    Each new coordinate is generated conditionally on the stored history, so
    the running batch always realizes the tracked covariance even when a fresh
    joint factorization would be numerically indefinite.  Small negative
    conditional variances (within tolerance) are clamped to zero; larger ones
    raise NearSingularCovarianceError.  `variances` lists the conditional
    variance each draw used, after the clamp.

    Layout: coordinate t is stored as row t - 1 of a row-major (rows, n_mc)
    complex buffer, so a draw writes one contiguous row in place (conditional
    mean, then the innovation added chunk by chunk) and the conditional mean
    reads the earlier rows in place.  `rows` is the number of draws the buffer
    holds.  `history` is the read-only (n_mc, t) transposed view of the rows
    drawn so far.
    """

    def __init__(self, n_mc: int, rng, rows: int, tol: float = 1e-10):
        self.n = n_mc
        self.rng = rng
        self.tol = tol
        self._rows = np.empty((rows, n_mc), dtype=complex)
        self._t = 0
        self.variances: list[float] = []

    @property
    def history(self) -> np.ndarray:
        view = self._rows[: self._t].T
        view.flags.writeable = False
        return view

    def sample(self, V_gamma: np.ndarray, t: int) -> np.ndarray:
        """Batch for coordinate t (1-based) given rows 1..t of V_gamma.

        Returns a read-only view of the stored row.
        """
        if t == 1:
            alpha = None
            v_g = max(V_gamma[0, 0].real, 0.0)
        else:
            block = V_gamma[: t - 1, : t - 1]
            col = V_gamma[: t - 1, t - 1]
            try:
                alpha = np.linalg.solve(block, col)
            except np.linalg.LinAlgError as exc:
                raise NearSingularCovarianceError(str(exc)) from exc
            v_g = V_gamma[t - 1, t - 1].real - float(
                np.real(V_gamma[t - 1, : t - 1] @ alpha)
            )
            tol = self.tol * max(V_gamma[t - 1, t - 1].real, 1.0)
            if v_g < -tol:
                raise NearSingularCovarianceError(
                    f"conditional variance {v_g:.3e} at iteration {t}"
                )
            v_g = max(v_g, 0.0)
        eta = self._rows[self._t]
        if alpha is None:
            complex_normal(self.rng, self.n, v_g, out=eta)
        else:
            # conditional mean uses the conjugate weights; identical to the
            # plain transpose form whenever the covariance is real
            np.matmul(np.conj(alpha), self._rows[: self._t], out=eta)
            complex_normal(self.rng, self.n, v_g, out=eta, add=True)
        self._t += 1
        self.variances.append(v_g)
        eta = eta.view()
        eta.flags.writeable = False
        return eta


def _evolution_result(
    name: str, T: int, records: list[IterationRecord], status: str, debug=None
) -> AlgorithmResult:
    """An evolution's records as a result; v_hat is its last predicted MSE."""
    mse = [r.mse for r in records if np.isfinite(r.mse)]
    v_hat = float(mse[-1]) if mse else np.nan
    return AlgorithmResult(name, T, records, None, v_hat, status, debug or {})


def run_bo_mamp_se(
    tables: MomentTables,
    prior: PriorParams,
    sigma2: float,
    T: int,
    L: int = 3,
    nle_mode: str = "mc",
    n_mc: int = 100_000,
    rng_seed: int = 0,
    fixed_xi: float | None = None,
) -> AlgorithmResult:
    """Covariance evolution of the damped long-memory recursion.

    nle_mode="mc" evaluates the denoiser cross-covariances by Monte Carlo on a
    correlated noise history (the reference recursion); nle_mode="deterministic"
    replaces them with the scalar MMSE curve under the optimal-damping banded
    covariance structure, which is exact at the fixed point and noise-free, so
    long horizons can be checked to tight tolerances.  Each record's v_hat and
    mse hold the predicted posterior MSE; debug holds the ledger and V_gamma.
    """
    if nle_mode not in ("mc", "deterministic"):
        raise ValueError(f"unknown nle_mode {nle_mode!r}")
    if tables.T < T:
        raise ValueError(f"moment tables sized for T={tables.T}, need {T}")
    ledger = Ledger(T, L, 1.0)
    V_phi = ledger.V
    V_gamma = np.zeros((T, T), dtype=complex)

    rng = default_rng(rng_seed)
    mc = nle_mode == "mc"
    if mc:
        x = sample_prior(prior, n_mc, rng)
        sampler = CorrelatedNoiseSampler(n_mc, rng, rows=T)
        # damped estimate errors, row per iteration (row 0 is the zero estimate)
        err_hist = np.empty((T + 1, n_mc), dtype=complex)
        np.negative(x, out=err_hist[0])
        # holds x + eta, then the new undamped error
        r_buf = np.empty(n_mc, dtype=complex)

    scaled = np.array([1.0])
    weights_history: list[np.ndarray] = []
    eps_history: list[float] = []
    records: list[IterationRecord] = []
    status = "ok"

    for t in range(1, T + 1):
        theta, xi, scaled, _, eps, vg_diag = memory_weights(
            V_phi, scaled, t, tables, sigma2, fixed_xi
        )
        if eps == 0.0 or not np.isfinite(eps):
            status = "degenerate"
            break
        weights_history.append(scaled.copy())
        eps_history.append(eps)
        if mc:
            # the correlated-noise sampler needs the full covariance row;
            # the deterministic path only consumes the diagonal
            row_gamma = gamma_covariance_row(
                weights_history, eps_history, V_phi[:t, :t], tables, sigma2
            )
            V_gamma[t - 1, :t] = row_gamma
            V_gamma[: t - 1, t - 1] = np.conj(row_gamma[: t - 1])
        V_gamma[t - 1, t - 1] = vg_diag
        if not np.isfinite(vg_diag) or vg_diag <= 0:
            status = "degenerate"
            break
        rec = IterationRecord(t, vg_diag, theta=theta, xi=xi)
        records.append(rec)

        # denoiser side
        if mc:
            try:
                eta = sampler.sample(V_gamma[:t, :t], t)
            except NearSingularCovarianceError:
                status = "unstable_covariance"
                break
            out = bg_mmse(np.add(x, eta, out=r_buf), vg_diag, prior)
            rec.v_hat = rec.mse = out.posterior_var
            if out.extrinsic_mean is None:
                status = "early_stop_nle"
                break
            e_new = np.subtract(out.extrinsic_mean, x, out=r_buf)
            # the extrinsic mean is spent: its buffer takes conj(e_new), then
            # |e_new|^2 in its first n_mc floats
            spent = out.extrinsic_mean
            row = err_hist[:t] @ np.conjugate(e_new, out=spent) / n_mc
            sq = np.abs(e_new, out=spent.view(float)[:n_mc])
            diag = float(np.mean(np.square(sq, out=sq)))
            del out, spent, sq
        else:
            m_hat = scalar_mmse(vg_diag, prior)
            rec.v_hat = rec.mse = m_hat
            if m_hat >= vg_diag:
                status = "early_stop_nle"
                break
            m = 1.0 / (1.0 / m_hat - 1.0 / vg_diag)
            row = np.full(t, m, dtype=complex)
            diag = m
        diag = max(diag, EPS_FLOOR)
        sol = ledger.damp(t, row, diag, [(err_hist, e_new)] if mc else [])
        rec.v_phi_bar = V_phi[t, t].real
        rec.zeta, rec.trivial = sol.zeta.copy(), sol.singular

    debug = {"ledger": V_phi, "V_gamma": V_gamma}
    return _evolution_result("se_mamp", T, records, status, debug)


def _phi_se(v_gamma: float, prior: PriorParams) -> tuple[float, float]:
    """(posterior mmse, extrinsic variance) of the scalar denoiser map."""
    m_hat = scalar_mmse(v_gamma, prior)
    if m_hat >= v_gamma:
        raise NonImprovingNLEError(f"mmse {m_hat:.3e} >= {v_gamma:.3e}")
    return m_hat, 1.0 / (1.0 / m_hat - 1.0 / v_gamma)


def lmmse_gamma_se(v_phi: float, d: np.ndarray, N: int, sigma2: float) -> float:
    """Eigenvalue-exact LMMSE transfer v_gamma = v_phi (1/eps - 1)."""
    rho = sigma2 / v_phi
    d_sq = np.asarray(d, dtype=float) ** 2
    eps = float(np.sum(d_sq / (rho + d_sq))) / N
    return v_phi * (1.0 / eps - 1.0)


def _scalar_se(name: str, gamma_of, prior: PriorParams, T: int) -> AlgorithmResult:
    """Scalar evolution v_phi -> gamma_of(v_phi) -> phi_se from unit signal variance."""
    v_phi = 1.0
    records: list[IterationRecord] = []
    status = "ok"
    for t in range(1, T + 1):
        rec = IterationRecord(t, gamma_of(v_phi))
        records.append(rec)
        try:
            m_hat, v_phi = _phi_se(rec.v_gamma, prior)
        except NonImprovingNLEError:
            status = "early_stop_nle"
            break
        rec.v_phi_bar, rec.v_hat, rec.mse = v_phi, m_hat, m_hat
    return _evolution_result(name, T, records, status)


def run_bo_oamp_se(
    d: np.ndarray, N: int, prior: PriorParams, sigma2: float, T: int
) -> AlgorithmResult:
    """Scalar evolution of LMMSE OAMP/VAMP from unit signal variance."""
    return _scalar_se("se_oamp", lambda v: lmmse_gamma_se(v, d, N, sigma2), prior, T)


def run_mf_oamp_se(
    lambda1: float, lambda2: float, prior: PriorParams, sigma2: float, T: int
) -> AlgorithmResult:
    """Scalar evolution of matched-filter OAMP via first/second spectral moments."""
    return _scalar_se(
        "se_mf_oamp",
        lambda v: (sigma2 * lambda1 + v * (lambda2 - lambda1**2)) / lambda1**2,
        prior,
        T,
    )


def series_gamma_se(
    v_phi: float,
    tables: MomentTables,
    sigma2: float,
    series_tol: float = 1e-12,
    max_terms: int = 1 << 20,
) -> tuple[float, float]:
    """Matched-filter limit transfer via the geometric operator series.

    Evaluates eps* = theta sum_i (theta ld)^i w'_i and the double series for
    the output variance, grouped by total lag (the couplings split into a
    lag-only part and a separable product).  With q = tables.weight_decay,
    |w'_s| <= w0 q^s and |w'_s - w'_{s+1}| <= 2 w0 q^s, so the lag-s term is
    at most theta^2 (s+1) (x q)^s (sigma^2 w0 + v_phi (2 ld w0 + w0^2));
    the length doubles from 8 until that bound at the last lag drops below
    series_tol.  The tables are extended on demand, which requires
    eigenvalue-built tables.  Raises ValueError when the bound is still at
    or above series_tol once max_terms terms are reached.
    """
    ld = tables.lambda_dagger
    rho = sigma2 / v_phi
    theta = optimize_theta(ld, rho)
    x = theta * ld
    # terms contract at x * q < 1: q is the decay of the weights themselves,
    # at most the relaxed spectral radius rho_B / ld of the assumed extremes
    w0 = tables.w0
    contraction = x * tables.weight_decay
    coeff = theta**2 * (sigma2 * w0 + v_phi * (2 * ld * w0 + w0**2))

    def _tail_bound(s_idx: int) -> float:
        return coeff * (s_idx + 1) * contraction**s_idx

    n_terms = 8
    while _tail_bound(n_terms - 1) >= series_tol:
        if n_terms >= max_terms:
            raise ValueError(
                f"series truncated: tail bound {_tail_bound(n_terms - 1):.3e} >= "
                f"series_tol {series_tol:.1e} at max_terms = {max_terms}"
            )
        n_terms *= 2
    w = tables.w_scaled_extended(n_terms)
    # the three lag sums as one (3, n) product with x**s: back-to-back dots
    # stall in a threaded BLAS where one matrix-vector product does not
    head, lag = w[:n_terms], np.arange(1, n_terms + 1)
    rows = np.stack([head, lag * head, lag * (head - w[1:])])
    w_sum, sig_sum, wbar_sum = rows @ x ** np.arange(n_terms)
    eps_star = theta * float(w_sum)
    sig_part = sigma2 * float(sig_sum)
    wbar_part = v_phi * ld * float(wbar_sum)
    v_gamma = theta**2 * (sig_part + wbar_part) / eps_star**2 - v_phi
    return float(v_gamma), float(eps_star)


def _damped_fixed_point(gamma_of, prior, tol, max_sweeps, relax):
    """Damped iteration of v -> phi_se(gamma_of(v)) from v = 1: (gamma_of(v*), v*)."""
    v = 1.0
    for _ in range(max_sweeps):
        _, v_new = _phi_se(gamma_of(v), prior)
        converged = abs(v_new - v) / v < tol
        v = v + relax * (v_new - v)
        if converged:
            break
    return float(gamma_of(v)), float(v)


def oamp_fixed_point(
    tables: MomentTables,
    prior: PriorParams,
    sigma2: float,
    series_tol: float = 1e-12,
    tol: float = 1e-10,
    max_sweeps: int = 10_000,
    relax: float = 0.5,
) -> tuple[float, float]:
    """Shared fixed point (v_gamma*, v_phi*) of the LMMSE and long-memory maps."""
    gamma_of = lambda v: series_gamma_se(v, tables, sigma2, series_tol)[0]
    return _damped_fixed_point(gamma_of, prior, tol, max_sweeps, relax)


def bo_oamp_fixed_point_exact(
    d: np.ndarray,
    N: int,
    prior: PriorParams,
    sigma2: float,
    tol: float = 1e-12,
    max_sweeps: int = 10_000,
    relax: float = 0.5,
) -> tuple[float, float]:
    """Fixed point of the eigenvalue-exact LMMSE evolution (oracle route)."""
    gamma_of = lambda v: lmmse_gamma_se(v, d, N, sigma2)
    return _damped_fixed_point(gamma_of, prior, tol, max_sweeps, relax)
