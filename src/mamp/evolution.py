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
scalar OAMP evolutions share one loop and differ only in their v_gamma map,
the transfer their simulation calls.  Every evolution returns the
simulations' result type, `core.AlgorithmResult`, with one `IterationRecord`
per iteration reached and its predicted posterior MSE as the record's mse, so
simulations and evolutions are read alike.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import default_rng

from .baselines import lmmse_transfer, mf_transfer
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
    extrinsic_variance,
    sample_prior,
    scalar_mmse,
)
from .spectral import MomentTables, SpectralProfile


class NearSingularCovarianceError(RuntimeError):
    """The tracked noise covariance lost positive definiteness."""


# Relative size of a negative conditional variance the sampler clamps to zero.
_CLAMP_TOL = 1e-10


class CorrelatedNoiseSampler:
    """Draws the per-iteration Gaussian noise batch consistent with V_gamma.

    Each new coordinate is generated conditionally on the stored history, so
    the running batch always realizes the tracked covariance even when a fresh
    joint factorization would be numerically indefinite.  Negative
    conditional variances down to -_CLAMP_TOL max(V_gamma[t, t], 1) are
    clamped to zero and counted in `clamped`; lower ones raise
    NearSingularCovarianceError.  `variances` lists the conditional variance
    each draw used, after the clamp.

    Layout: coordinate t is stored as row t - 1 of a row-major (rows, n_mc)
    complex buffer, so a draw writes one contiguous row in place (conditional
    mean, then the innovation added chunk by chunk) and the conditional mean
    reads the earlier rows in place.  `rows` is the number of draws.  When
    `last` (a contiguous complex n_mc-vector) is given, the draw of
    coordinate `rows` is written there instead, and the buffer holds only
    the rows - 1 draws a later one reads.  `history` is the read-only
    (n_mc, t) transposed view of the stored rows drawn so far.
    """

    def __init__(self, n_mc: int, rng, rows: int, last=None):
        self.n = n_mc
        self.rng = rng
        self._rows = np.empty((rows - (last is not None), n_mc), dtype=complex)
        self._last = last
        self._t = 0
        self.variances: list[float] = []
        self.clamped = 0

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
            v_g = V_gamma[0, 0].real
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
            tol = _CLAMP_TOL * max(V_gamma[t - 1, t - 1].real, 1.0)
            if v_g < -tol:
                raise NearSingularCovarianceError(
                    f"conditional variance {v_g:.3e} at iteration {t}"
                )
        if v_g < 0.0:
            v_g = 0.0
            self.clamped += 1
        spare = self._last is not None and self._t == len(self._rows)
        eta = self._last if spare else self._rows[self._t]
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
    mse hold the predicted posterior MSE; debug holds the ledger, V_gamma and
    the number of conditional variances the sampler clamped to zero.

    The Monte-Carlo path holds, at its peak, the 2T - 1 history rows a later
    step reads (T - 1 stored noise draws, T damped errors) and three work
    vectors: the pseudo-observation and the denoiser's posterior mean and
    per-entry variance, each n_mc long.
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
        # damped estimate errors, row per iteration; row 0, the zero
        # estimate's, is -x, and the damping at t = T writes no row
        err_hist = np.empty((T, n_mc), dtype=complex)
        np.negative(sample_prior(prior, n_mc, rng), out=err_hist[0])
        # holds x + eta (the last eta is drawn into it), then the extrinsic
        # mean, then the new undamped error
        r_buf = np.empty(n_mc, dtype=complex)
        sampler = CorrelatedNoiseSampler(n_mc, rng, rows=T, last=r_buf)
        # bg_mmse's workspace; its spent mean and variance take conj(e_new)
        # and |e_new|^2
        work = np.empty(n_mc, dtype=complex), np.empty(n_mc), r_buf

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
            # x + eta and ext - x as eta - (-x) and ext + (-x): the same bits
            r = np.subtract(eta, err_hist[0], out=r_buf)
            out = bg_mmse(r, vg_diag, prior, work)
            rec.v_hat = rec.mse = out.posterior_var
            if out.extrinsic_mean is None:
                status = "early_stop_nle"
                break
            e_new = np.add(out.extrinsic_mean, err_hist[0], out=r_buf)
            row = err_hist[:t] @ np.conjugate(e_new, out=work[0]) / n_mc
            sq = np.abs(e_new, out=work[1])
            diag = float(np.mean(np.square(sq, out=sq)))
        else:
            m_hat = scalar_mmse(vg_diag, prior)
            rec.v_hat = rec.mse = m_hat
            m = extrinsic_variance(m_hat, vg_diag)
            if m is None:
                status = "early_stop_nle"
                break
            row = np.full(t, m, dtype=complex)
            diag = m
        diag = max(diag, EPS_FLOOR)
        sol = ledger.damp(t, row, diag, [(err_hist, e_new)] if mc and t < T else [])
        rec.v_phi_bar = V_phi[t, t].real
        rec.zeta, rec.trivial = sol.zeta.copy(), sol.singular

    clamped = sampler.clamped if mc else 0
    debug = {"ledger": V_phi, "V_gamma": V_gamma, "clamped_variances": clamped}
    return _evolution_result("se_mamp", T, records, status, debug)


def _phi_se(v_gamma: float, prior: PriorParams) -> tuple[float, float]:
    """(posterior mmse, extrinsic variance) of the scalar denoiser map."""
    m_hat = scalar_mmse(v_gamma, prior)
    v_ext = extrinsic_variance(m_hat, v_gamma)
    if v_ext is None:
        raise NonImprovingNLEError(f"mmse {m_hat:.3e} >= {v_gamma:.3e}")
    return m_hat, v_ext


def lmmse_gamma_se(v_phi: float, spectrum: SpectralProfile, sigma2: float) -> float:
    """Eigenvalue-exact LMMSE transfer v_gamma = v_phi (1/eps - 1) on spectrum.eigs."""
    return lmmse_transfer(v_phi, spectrum.eigs, spectrum.N, sigma2)[0]


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
    spectrum: SpectralProfile, prior: PriorParams, sigma2: float, T: int
) -> AlgorithmResult:
    """Scalar evolution of LMMSE OAMP/VAMP from unit signal variance."""
    return _scalar_se(
        "se_oamp", lambda v: lmmse_gamma_se(v, spectrum, sigma2), prior, T
    )


def run_mf_oamp_se(
    spectrum: SpectralProfile, prior: PriorParams, sigma2: float, T: int
) -> AlgorithmResult:
    """Scalar evolution of matched-filter OAMP via first/second spectral moments."""
    lam1, lam2 = float(spectrum.moments[1]), float(spectrum.moments[2])
    return _scalar_se(
        "se_mf_oamp", lambda v: mf_transfer(v, lam1, lam2, sigma2), prior, T
    )


# Relative tail bound at which the geometric series stops.
_SERIES_TOL = 1e-12
# Width, in log v, of the step or bracket at which a fixed-point search stops.
_ROOT_TOL = 1e-13
# Points a fixed-point search may evaluate before it gives up.
_MAX_SWEEPS = 200


def series_gamma_se(
    v_phi: float, tables: MomentTables, sigma2: float, max_terms: int = 1 << 20
) -> float:
    """Matched-filter limit transfer v_gamma via the geometric operator series.

    Evaluates eps* = theta sum_i (theta ld)^i w'_i and the double series for
    the output variance, grouped by total lag (the couplings split into a
    lag-only part and a separable product).  With q = tables.weight_decay,
    |w'_s| <= w0 q^s and |w'_s - w'_{s+1}| <= 2 w0 q^s, so the lag-s term is
    at most (s+1) (x q)^s times the lag-0 bound theta^2 (sigma^2 w0 +
    v_phi (2 ld w0 + w0^2)); the length doubles from 8 until that relative
    bound at the last lag drops below _SERIES_TOL, and is cut back to the
    stored weights when the bound holds there.  A relative bound keeps
    the result's relative accuracy at small sigma^2 and v_phi, where an
    absolute one would not.  The tables are extended on demand, which
    requires eigenvalue-built tables.  Raises ValueError when the bound is
    still at or above _SERIES_TOL once max_terms terms are reached.
    """
    ld = tables.lambda_dagger
    rho = sigma2 / v_phi
    theta = optimize_theta(ld, rho)
    x = theta * ld
    # terms contract at x * q < 1: q is the decay of the weights themselves,
    # at most the relaxed spectral radius rho_B / ld of the assumed extremes
    contraction = x * tables.weight_decay

    def _tail_bound(s_idx: int) -> float:
        return (s_idx + 1) * contraction**s_idx

    n_terms = 8
    while _tail_bound(n_terms - 1) >= _SERIES_TOL:
        if n_terms >= max_terms:
            raise ValueError(
                f"series truncated: tail bound {_tail_bound(n_terms - 1):.3e} >= "
                f"tolerance {_SERIES_TOL:.1e} at max_terms = {max_terms}"
            )
        n_terms *= 2
    # the stored weights cost nothing to read: stop there when they suffice
    stored = len(tables.w_scaled) - 1
    if stored < n_terms and _tail_bound(stored - 1) < _SERIES_TOL:
        n_terms = stored
    w = tables.w_scaled_extended(n_terms)
    # the three lag sums as one (3, n) product with x**s: back-to-back dots
    # stall in a threaded BLAS where one matrix-vector product does not
    head, lag = w[:n_terms], np.arange(1, n_terms + 1)
    rows = np.stack([head, lag * head, lag * (head - w[1:])])
    w_sum, sig_sum, wbar_sum = rows @ x ** np.arange(n_terms)
    eps_star = theta * float(w_sum)
    sig_part = sigma2 * float(sig_sum)
    wbar_part = v_phi * ld * float(wbar_sum)
    return float(theta**2 * (sig_part + wbar_part) / eps_star**2 - v_phi)


# Width, in log v, of the band above the root found from below that the
# certificate does not cover: a larger fixed point inside it is not excluded.
_UNIQUENESS_BAND = 0.05


def _secant_root(gamma_of, prior, u, below, above, max_sweeps):
    """Root of g(u) = log phi_se(gamma_of(e**u)) - u in (below, above].

    Points with g > 0 move `below` up and points with g <= 0 move `above`
    down.  The first step is the Picard step g, later ones the secant step
    through the last two points.  A step that is not finite or leaves the
    bracket is replaced by the Picard step, or by bisection of the bracket
    when that leaves it too.  Stops once the secant (or first) step or the
    bracket is below _ROOT_TOL and returns (gamma_of(e**u), u) at the last
    point evaluated; raises ValueError after max_sweeps points.
    """
    prev = None
    for _ in range(max_sweeps):
        v_gamma = gamma_of(math.exp(u))
        g = math.log(_phi_se(v_gamma, prior)[1]) - u
        if g > 0:
            below = u
        else:
            above = u
        step = g
        if prev is not None and prev[1] != g:
            step = g * (u - prev[0]) / (prev[1] - g)
        if abs(step) < _ROOT_TOL or above - below < _ROOT_TOL:
            return float(v_gamma), u
        if not below < u + step < above:
            step = g if below < u + g < above else 0.5 * (below + above) - u
        prev = u, g
        u += step
    raise ValueError(f"fixed point not reached in {max_sweeps} sweeps")


def _log_fixed_point(gamma_of, spectrum, prior, sigma2, max_sweeps):
    """Largest fixed point of v -> phi_se(gamma_of(v)), the one reached from v = 1.

    gamma_of is a transfer equal to the eigenvalue-exact one on spectrum.  The
    map F(v) = phi_se(gamma(v)) rises with v, and every fixed point lies
    at or below v = 1 (the MMSE denoiser's extrinsic variance is at most the
    unit prior variance).  Both transfer maps tend to the floor sigma2 /
    lambda_1 as v -> 0 (lambda_1 = sum d_k^2 / N), so u = log phi_se(floor)
    lies below every fixed point (when phi_se refuses that level the start is
    v = 1).  From there `_secant_root` finds a root r cheaply, with short
    series; it is the smallest root when there are several.

    The Picard chain top -> top + log F(e**top) - top from top = 0 then
    certifies it: F rises, so the chain stays at or above the largest fixed
    point, and F(v) <= F(e**top) < v on (F(e**top), e**top], so no fixed
    point lies above the chain.  The certificate holds once the chain is
    within _UNIQUENESS_BAND of r.  A chain that stalls above that is nearing
    a larger fixed point: the secant through its last two points predicts
    its limit p, and a point c below p (p's mirror of the next chain point)
    where g > 0 brackets that fixed point in (c, next chain point], where
    `_secant_root` solves again.  The chain runs on the eigenvalue-exact
    transfer, which costs one pass over the spectrum at any v, so a series
    is never summed near v = 1, where it is long.  Returns (gamma_of(v*),
    v*); raises ValueError when a search does not end within max_sweeps
    points.
    """

    def chain_g(u):
        v_gamma = lmmse_gamma_se(math.exp(u), spectrum, sigma2)
        return math.log(_phi_se(v_gamma, prior)[1]) - u

    try:
        u = math.log(_phi_se(sigma2 / float(spectrum.moments[1]), prior)[1])
    except NonImprovingNLEError:
        u = 0.0
    v_gamma, root = _secant_root(gamma_of, prior, u, -math.inf, 0.0, max_sweeps)
    top, prev = 0.0, None
    for _ in range(max_sweeps):
        if top <= root + _UNIQUENESS_BAND:
            return v_gamma, math.exp(root)
        step = chain_g(top)
        if prev is not None and prev[1] != step:
            limit = top - step * (top - prev[0]) / (step - prev[1])
            c = 2.0 * limit - (top + step)
            if root + _UNIQUENESS_BAND < c < top + step and chain_g(c) > 0:
                v_gamma, root = _secant_root(
                    gamma_of, prior, c, c, top + step, max_sweeps
                )
        prev = top, step
        top += step
    raise ValueError(f"fixed point not certified in {max_sweeps} sweeps")


def oamp_fixed_point(
    tables: MomentTables,
    prior: PriorParams,
    sigma2: float,
    max_sweeps: int = _MAX_SWEEPS,
) -> tuple[float, float]:
    """Shared fixed point (v_gamma*, v_phi*) of the LMMSE and long-memory maps.

    Runs on the geometric series, which needs eigenvalue-built tables:
    estimate-built ones raise ValueError even where the stored weights
    would cover the series.  The certifying chain from v = 1 runs on the
    eigenvalue-exact transfer of the same spectrum, which costs one pass
    over it at any v, where the series near v = 1 needs thousands of terms.
    """
    spectrum = tables.spectrum
    if spectrum.eigs is None:
        raise ValueError(
            "the series fixed point needs eigenvalue-built tables; "
            "estimate-built tables hold too few reliable weights"
        )
    gamma_of = lambda v: series_gamma_se(v, tables, sigma2)
    return _log_fixed_point(gamma_of, spectrum, prior, sigma2, max_sweeps)


def bo_oamp_fixed_point_exact(
    spectrum: SpectralProfile, prior: PriorParams, sigma2: float
) -> tuple[float, float]:
    """Fixed point of the eigenvalue-exact LMMSE evolution (oracle route)."""
    gamma_of = lambda v: lmmse_gamma_se(v, spectrum, sigma2)
    return _log_fixed_point(gamma_of, spectrum, prior, sigma2, _MAX_SWEEPS)
