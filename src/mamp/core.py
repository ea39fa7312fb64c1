"""Long-memory matched-filter recursion with orthogonalization and damping.

One iteration runs: relaxation choice -> memory-weight update -> weight-of-new-
residual optimization -> matched-filter linear step -> extrinsic denoising ->
residual-based error-covariance estimation -> minimum-variance damping over the
retained estimates.  Covariances of the damped estimates are tracked in a
ledger whose diagonal is provably nonincreasing under optimal damping.

All filter weights are stored scaled by lambda_dagger**lag (tables are scaled
the complementary way), so ill-conditioned long runs never touch overflowing
trace powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .denoisers import CHUNK, PriorParams, bg_mmse, chunks
from .operators import SystemInstance, TransformOperator
from .spectral import MomentTables

C_MAX = 1e6  # bound on the new-residual weight xi
EPS_FLOOR = 1e-12  # noise floor of the new estimate's error variance, relative
# smallest elimination pivot of a solvable damping block, relative to its
# largest entry; a candidate repeating a retained estimate falls below it
DAMPING_RANK_TOL = 1e-13
# OpenBLAS keeps a complex dot product of at most 10000 entries on one thread,
# so a reduction over chunks this long has the same bits at any thread count
DOT_CHUNK = 1 << 13
# ... and a complex matrix-vector product of fewer than this many entries
GEMV_ENTRIES = 1 << 12


class DegenerateNormalizationError(RuntimeError):
    """The orthogonalization normalizer vanished; the iteration cannot proceed."""


class InvalidLedgerError(ValueError):
    """A damping matrix was non-Hermitian or contained non-finite entries."""


def noise_floor(v_init: float) -> float:
    """Floor of an error level: EPS_FLOOR of the start estimate v_init.

    v_init, a residual-energy estimate, is noise and can be at or below zero;
    the floor is then EPS_FLOOR of the unit prior power E|x|^2 = 1, where the
    evolution starts.
    """
    return EPS_FLOOR * (v_init if v_init > 0 else 1.0)


def optimize_theta(lambda_dagger: float, rho_t: float) -> float:
    """Relaxation 1/(lambda_dagger + rho) minimizing the shifted-matrix spectral radius."""
    return 1.0 / (lambda_dagger + rho_t)


def output_covariance(
    V_phi: np.ndarray, lags_a: np.ndarray, lags_b: np.ndarray, tables: MomentTables,
    sigma2: float,
) -> np.ndarray:
    """Output-covariance kernel sigma^2 w'_{i+j} + V_phi wbar'_{i,j} at lags (i, j).

    Entry (k, l) couples the estimates at lags lags_a[k] and lags_b[l], whose
    error covariance is V_phi[k, l], in the covariance of two filter outputs.
    """
    noise = sigma2 * tables.w_scaled[lags_a[:, None] + lags_b[None, :]]
    return noise + V_phi * tables.wbar_scaled[np.ix_(lags_a, lags_b)]


def xi_cost_coefficients(
    scaled_prev: np.ndarray,
    V_phi: np.ndarray,
    tables: MomentTables,
    sigma2: float,
) -> tuple[float, float, float, float]:
    """Coefficients (c0, c1, c2, c3) of the rational per-iteration error cost.

    The matched-filter output variance as a function of the new-residual
    weight xi is (c1 xi^2 - 2 c2 xi + c3) / (w0 (xi + c0))^2.

    scaled_prev holds the memory weights vartheta_{t,i} * ld**(t-i) for
    i = 1..t-1; V_phi is the t x t estimate-error covariance block (its row t
    is consumed for the cross terms).
    """
    t = len(scaled_prev) + 1
    lags = np.arange(t - 1, -1, -1)  # t - i for i = 1..t
    K = output_covariance(V_phi[:t, :t], lags, lags, tables, sigma2)
    c1 = float(K[t - 1, t - 1].real)
    if t == 1:
        return 0.0, c1, 0.0, 0.0
    a = np.asarray(scaled_prev, dtype=float)
    c0 = float(a @ tables.w_scaled[lags[:-1]]) / tables.w0
    # contiguous real parts: a strided view would change the summation order
    c2 = -float(a @ K[t - 1, : t - 1].real.copy())
    c3 = float(a @ K[: t - 1, : t - 1].real.copy() @ a)
    return c0, c1, c2, c3


def optimize_xi(c0: float, c1: float, c2: float, c3: float) -> float:
    """Minimizer xi of the rational cost; saturates at C_MAX when unbounded.

    In the all-zero case the cost does not depend on xi and xi = 1.
    """
    denom = c1 * c0 + c2
    if denom != 0.0:
        xi = (c2 * c0 + c3) / denom
        if abs(xi) > C_MAX:
            xi = math.copysign(C_MAX, xi)
        return float(xi)
    if c0 == 0.0 and c1 == 0.0 and c2 == 0.0 and c3 == 0.0:
        return 1.0
    return C_MAX


def memory_weights(
    V: np.ndarray,
    scaled: np.ndarray,
    t: int,
    tables: MomentTables,
    sigma2: float,
) -> tuple[float, float, np.ndarray, np.ndarray, float, float]:
    """Linear side of iteration t, shared by the simulation and the evolution.

    V is the ledger (rows and columns 0..t-1 are read) and scaled the previous
    iteration's scaled memory weights.  Returns (theta, xi, scaled, p, eps,
    v_gamma): the relaxation, the new-residual weight (1 at t = 1), the new
    scaled weights, the orthogonalization coefficients p, their normalizer eps
    and the matched-filter output variance, which is nan when eps is 0 or not
    finite.
    """
    ld = tables.lambda_dagger
    theta = optimize_theta(ld, sigma2 / V[t - 1, t - 1].real)
    scaled_prev = scaled[: t - 1] * (theta * ld)
    c0, c1, c2, c3 = xi_cost_coefficients(scaled_prev, V[:t, :t], tables, sigma2)
    xi = 1.0 if t == 1 else optimize_xi(c0, c1, c2, c3)
    scaled = np.append(scaled_prev, xi)
    p = -scaled * tables.w_scaled[t - np.arange(1, t + 1)]
    eps = -float(p.sum())
    if eps == 0.0 or not np.isfinite(eps):
        return theta, xi, scaled, p, eps, np.nan
    return theta, xi, scaled, p, eps, (c1 * xi**2 - 2.0 * c2 * xi + c3) / eps**2


def memory_le_step(
    b_r_hat: np.ndarray,
    z_bar_t: np.ndarray,
    X: np.ndarray,
    p: np.ndarray,
    xi: float,
    theta: float,
    eps_gamma: float,
    operator: TransformOperator,
    lambda_dagger: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of r_hat_t = xi z_bar_t + theta B r_hat_{t-1}, B = ld I - A A^H.

    b_r_hat is B r_hat_{t-1} (zeros at t = 1); it is overwritten with
    B r_hat_t, which the next step takes.  The output is
    (A^H r_hat_t - sum_i p_i x_i) / eps_gamma over the full estimate history X,
    the sum formed by `damp_into`, and the Gram product reuses that
    A^H r_hat_t.  Returns (B r_hat_t, r).
    """
    if eps_gamma == 0.0 or not np.isfinite(eps_gamma):
        raise DegenerateNormalizationError(f"normalizer eps_gamma={eps_gamma}")
    # r_hat_t, then B r_hat_t, overwrite the carried buffer
    r_hat = np.multiply(theta, b_r_hat, out=b_r_hat)
    r_hat += xi * z_bar_t
    u = operator.apply_adjoint(r_hat)
    gram = operator.apply_gram(r_hat, adjoint=u)
    b_r_hat = np.multiply(lambda_dagger, r_hat, out=r_hat)
    b_r_hat -= gram
    # r takes the step's last allocation, so the temporaries are freed below
    # it and glibc does not trim the heap top and fault it in again each step
    correction = np.empty_like(u)
    damp_into(correction, p, X)
    r = np.subtract(u, correction, out=correction)
    return b_r_hat, divide_in_place(r, eps_gamma)


def estimate_phi_covariance(
    z_new: np.ndarray,
    Z_damped: np.ndarray,
    N: int,
    sigma2: float,
    delta: float,
    w0: float,
) -> tuple[np.ndarray, float]:
    """Residual-product estimate of the new estimate's error covariances.

    Returns (row, diag): row[t'-1] ~= cov(new error, damped error t') from
    z_new^H z_bar_{t'} / N - delta sigma^2, all divided by w0; diag from
    ||z_new||^2.  Clamping of a non-positive diag is left to the caller.
    """
    row = np.array([chunked_vdot(z_new, z_bar) for z_bar in Z_damped])
    row = row / N - delta * sigma2
    return row / w0, residual_error_estimate(z_new, N, sigma2, delta, w0)


def gamma_covariance_row(
    weights_history: list[np.ndarray],
    eps_history: list[float],
    V_phi: np.ndarray,
    tables: MomentTables,
    sigma2: float,
) -> np.ndarray:
    """Analytic matched-filter output covariances v^gamma_{t,t'} for t' = 1..t.

    Double sum over both memories of noise and estimate-error couplings; the
    scaled weights and scaled tables cancel each other's lambda_dagger powers
    term by term.
    """
    t = len(weights_history)
    a_t = weights_history[t - 1]
    lag_t = t - np.arange(1, t + 1)
    row = np.empty(t, dtype=complex)
    for tp in range(1, t + 1):
        a_p = weights_history[tp - 1]
        lag_p = tp - np.arange(1, tp + 1)
        K = output_covariance(V_phi[:t, :tp], lag_t, lag_p, tables, sigma2)
        val = a_t.astype(complex) @ K @ a_p
        row[tp - 1] = val / (eps_history[t - 1] * eps_history[tp - 1])
    return row


def _smallest_pivot(V: np.ndarray) -> float:
    """Smallest |pivot| of Gaussian elimination with partial pivoting on V.

    Pivots are chosen by |Re| + |Im|, as LAPACK's getrf behind
    np.linalg.solve chooses them.
    """
    U = V.copy()
    smallest = np.inf
    for k in range(len(U)):
        p = k + int(np.argmax(np.abs(U[k:, k].real) + np.abs(U[k:, k].imag)))
        U[[k, p]] = U[[p, k]]
        smallest = min(smallest, abs(U[k, k]))
        if U[k, k] == 0:
            break
        U[k + 1 :, k:] -= np.outer(U[k + 1 :, k] / U[k, k], U[k, k:])
    return smallest


@dataclass
class DampingSolution:
    zeta: np.ndarray
    variance: float
    singular: bool


def optimal_damping(V: np.ndarray, L: int | None = None) -> DampingSolution:
    """Minimum-variance convex combination weights over the candidate block.

    Solves min zeta^H V zeta subject to sum(zeta) = 1.  When V is numerically
    singular (an elimination pivot at or below DAMPING_RANK_TOL times its
    largest entry), or the solution fails the guaranteed-improvement property
    of a positive-definite block, falls back to keeping the previous estimate
    (weight on the second-to-last candidate) and reports singular=True.
    """
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise InvalidLedgerError(f"damping block must be square, got {V.shape}")
    if not np.all(np.isfinite(V)):
        raise InvalidLedgerError("damping block contains non-finite entries")
    scale = float(np.max(np.abs(V))) or 1.0
    if not np.allclose(V, V.conj().T, rtol=1e-8, atol=1e-12 * scale):
        raise InvalidLedgerError("damping block is not Hermitian")
    l = V.shape[0]
    if L is not None and l > L:
        raise ValueError(f"candidate block of size {l} exceeds damping length {L}")
    if l == 1:
        return DampingSolution(np.ones(1, dtype=complex), float(V[0, 0].real), False)
    diag = V.diagonal().real
    sol = None
    # LAPACK solves a rank-deficient block unless a pivot is exactly zero
    if _smallest_pivot(V) > DAMPING_RANK_TOL * scale:
        try:
            sol = np.linalg.solve(V, np.ones(l, dtype=complex))
        except np.linalg.LinAlgError:
            pass
    if sol is not None:
        denom = float(np.real(np.sum(sol)))
        if denom > 0.0 and np.all(np.isfinite(sol)):
            variance = 1.0 / denom
            if variance <= diag.min() * (1.0 + 1e-9):
                zeta = sol * variance
                return DampingSolution(zeta, variance, False)
    zeta = np.zeros(l, dtype=complex)
    zeta[l - 2] = 1.0
    return DampingSolution(zeta, float(diag[l - 2]), True)


def damp_into(out: np.ndarray, zeta: np.ndarray, sources: list) -> None:
    """out = sum_k zeta[k] sources[k], summed from zero chunk by chunk.

    Each product is formed scalar first in a chunk-sized buffer, so out has the
    bits of ``0 + zeta[0] * sources[0] + zeta[1] * sources[1] + ...`` without
    that expression's full-size temporaries.
    """
    buf = np.empty(min(out.size, CHUNK), dtype=complex)
    for sl in chunks(out.size):
        block, prod = out[sl], buf[: sl.stop - sl.start]
        block[...] = 0.0
        for zk, src in zip(zeta, sources):
            block += np.multiply(zk, src[sl], out=prod)


def chunked_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot(a, b) as the in-order sum of its DOT_CHUNK-entry chunks' vdots.

    Each chunk is one single-threaded BLAS call, so the result does not depend
    on the BLAS thread count.
    """
    total = 0j
    for start in range(0, a.size, DOT_CHUNK):
        total += np.vdot(a[start : start + DOT_CHUNK], b[start : start + DOT_CHUNK])
    return total


def blocked_matvec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """a @ b for a (k, n) matrix and a vector, as single-threaded BLAS calls.

    The matrix is cut into column blocks of fewer than GEMV_ENTRIES entries
    (of 8 columns past k = 511), their width a multiple of 8, and NumPy runs
    one matrix-vector product per block in C, so the result does not depend
    on the BLAS thread count.  vector @ matrix is written into out, block by
    block; it has the bits of the one-call product at one thread, except
    perhaps in a last block of one column.  matrix @ vector is returned, the
    blocks' partial products summed in one fixed order.
    """
    matrix = a if a.ndim == 2 else b
    k, n = matrix.shape
    width = max(8, (GEMV_ENTRIES - 1) // k // 8 * 8)
    q = n // width
    end = q * width
    blocks = matrix[:, :end].reshape(k, q, width).swapaxes(0, 1)
    if a.ndim == 2:
        parts = np.matmul(blocks, b[:end].reshape(q, width, 1))[:, :, 0]
        return parts.sum(axis=0) + a[:, end:] @ b[end:]
    np.matmul(a, blocks, out=out[:end].reshape(q, width))
    np.matmul(a, b[:, end:], out=out[end:])
    return out


def divide_in_place(z: np.ndarray, c: float) -> np.ndarray:
    """z / c in place for a contiguous complex z and a real c.

    NumPy divides a complex array by a real scalar by multiplying both parts
    by 1 / c; doing that on the float view gives the same bits, faster.
    """
    parts = z.view(float)
    parts *= 1.0 / c
    return z


def residual(y: np.ndarray, operator: TransformOperator, x: np.ndarray) -> np.ndarray:
    """y - A x, formed in the buffer of A x."""
    z = operator.apply(x)
    return np.subtract(y, z, out=z)


def residual_error_estimate(
    z: np.ndarray, N: int, sigma2: float, delta: float, scale: float
) -> float:
    """Residual-energy estimate (||z||^2 / N - delta sigma^2) / scale of an error level.

    scale is the trace normalizer of the linear step: w0 for the long-memory
    solver, lambda_1 for the baselines.
    """
    return (chunked_vdot(z, z).real / N - delta * sigma2) / scale


def mean_squared_error(estimate: np.ndarray, truth: np.ndarray | None) -> float:
    """mean |estimate - truth|^2 with the bits of that expression; nan without truth.

    The squared moduli are formed chunk by chunk and averaged in one call over
    the whole vector, which keeps the summation order.
    """
    if truth is None:
        return np.nan
    sq = np.empty(estimate.shape)
    diff = np.empty(min(estimate.size, CHUNK), dtype=complex)
    for sl in chunks(estimate.size):
        part = sq[sl]
        np.abs(np.subtract(estimate[sl], truth[sl], out=diff[: part.size]), out=part)
        np.square(part, out=part)
    return float(np.mean(sq))


def damping_window(effective: list[int], t_new: int, L: int) -> list[int]:
    """Last min(L, ...) retained estimate indices plus the new candidate t_new."""
    n_prev = min(L - 1, len(effective)) if L > 1 else 0
    return (effective[-n_prev:] if n_prev else []) + [t_new]


class Ledger:
    """Error covariances of the damped estimates, and the damping that updates them.

    V[s, s'] is the covariance of damped errors s and s' (0-based; V[0, 0] is
    the zero estimate's, v_init raised to the noise floor).  The floor is
    `noise_floor(v_init)`; `floor_hits` counts the candidates clamped to it,
    and the start level when it was raised.
    `effective` lists the 1-based indices of the estimates damping retained,
    from which each step's window is drawn.  The simulation and the state
    evolution share this kernel and differ only in the vectors they damp
    alongside it.
    """

    def __init__(self, T: int, L: int, v_init: float):
        self.floor = noise_floor(v_init)
        self.V = np.zeros((T + 1, T + 1), dtype=complex)
        self.V[0, 0] = max(v_init, self.floor)
        self.L = L
        self.effective = [1]
        self.floor_hits = int(v_init < self.floor)

    def damp(
        self, t: int, row: np.ndarray, diag: float, histories: list,
        rec: IterationRecord,
    ) -> DampingSolution:
        """Damp the new candidate t + 1 against the window; write row t of V.

        row[s - 1] is the covariance of the candidate's error with damped error
        s (s = 1..t) and diag its variance, clamped at the floor.  histories
        holds (H, new) pairs: H[t] becomes the damped combination of the
        window's rows of H, with new standing for the candidate.  On the
        singular fallback the previous damped estimate is kept: H[t] = H[t - 1]
        and V's row t repeats row t - 1.  rec gets the damped variance V[t, t]
        as v_phi_bar and the weights.
        """
        if diag <= self.floor:
            # residual energy at the noise floor: clamp and count
            diag = self.floor
            self.floor_hits += 1
        V = self.V
        # the candidate's covariances go in row and column t, so the window's
        # block is one fancy index; both outcomes below overwrite them
        V[t, :t] = row
        V[:t, t] = np.conj(row)
        V[t, t] = diag
        idx = [i - 1 for i in damping_window(self.effective, t + 1, self.L)]
        sol = optimal_damping(V[np.ix_(idx, idx)], self.L)
        if sol.singular:
            for H, _ in histories:
                H[t] = H[t - 1]
            V[t, : t + 1] = V[t - 1, : t + 1]
            V[t, t] = V[t - 1, t - 1]
            V[: t + 1, t] = np.conj(V[t, : t + 1])
        else:
            new_row = np.zeros(t, dtype=complex)
            for zk, i in zip(sol.zeta, idx):
                new_row += np.conj(zk) * V[i, :t]
            for H, new in histories:
                damp_into(H[t], sol.zeta, [H[i] if i < t else new for i in idx])
            V[t, :t] = new_row
            V[t, t] = sol.variance
            V[:t, t] = np.conj(new_row)
            self.effective.append(t + 1)
        rec.v_phi_bar = V[t, t].real
        rec.zeta = sol.zeta.copy()
        return sol


@dataclass
class IterationRecord:
    t: int
    v_gamma: float
    v_phi_bar: float = np.nan
    v_hat: float = np.nan
    mse: float = np.nan
    theta: float = np.nan
    xi: float = np.nan
    zeta: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class AlgorithmResult:
    name: str
    T: int
    records: list[IterationRecord]
    x_hat: np.ndarray | None
    v_hat: float
    status: str  # ok | diverged | early_stop_nle | degenerate | unstable_covariance | invalid_input
    debug: dict = field(default_factory=dict)

    def trajectory(self, attr: str) -> np.ndarray:
        out = np.full(self.T, np.nan)
        for rec in self.records:
            out[rec.t - 1] = getattr(rec, attr)
        return out

    @property
    def mse(self) -> np.ndarray:
        return self.trajectory("mse")

    @property
    def diverged(self) -> bool:
        """True when the run failed outright or the error grew 10x above its best."""
        if self.status == "diverged":
            return True
        v = self.trajectory("v_hat")
        v = v[np.isfinite(v)]
        if len(v) < 2:
            return False
        running_min = np.minimum.accumulate(v)
        return bool(np.any(v > 10.0 * running_min))


def invalid_input(name: str, T: int, y: np.ndarray) -> AlgorithmResult | None:
    """A simulation's result, with no records, when y holds a NaN or inf; else None."""
    if np.isfinite(y).all():
        return None
    reason = {"reason": "observation y contains non-finite entries"}
    return AlgorithmResult(name, T, [], None, np.inf, "invalid_input", reason)


def run_bo_mamp(
    instance: SystemInstance, prior: PriorParams, tables: MomentTables, T: int,
    L: int = 3, collect_debug: bool = False,
) -> AlgorithmResult:
    """Full damped long-memory matched-filter recovery on one instance.

    Per-iteration diagnostics report the matched-filter output variance, the
    post-damping ledger diagonal, the posterior variance, and the true MSE of
    the posterior estimate when the instance carries its ground truth.
    """
    op, y, sigma2 = instance.operator, instance.y, instance.noise_var
    N, M, delta = op.N, op.M, op.delta
    if tables.T < T:
        raise ValueError(f"moment tables sized for T={tables.T}, need {T}")
    if (invalid := invalid_input("bo_mamp", T, y)) is not None:
        return invalid
    ld = tables.lambda_dagger
    w0 = tables.w0

    X = np.zeros((T, N), dtype=complex)  # damped estimates, x_1 = 0
    Z = np.zeros((T, M), dtype=complex)  # damped residuals, z_1 = y
    Z[0] = y
    ledger = Ledger(T, L, residual_error_estimate(y, N, sigma2, delta, w0))
    V = ledger.V

    b_r_hat = np.zeros(M, dtype=complex)  # B r_hat_{t-1}, with r_hat_0 = 0
    scaled = np.array([1.0])  # memory weights of the current iteration
    records: list[IterationRecord] = []
    status = "ok"
    x_hat, v_hat = None, np.inf
    best = (np.inf, None, np.inf)
    r_history = [] if collect_debug else None

    for t in range(1, T + 1):
        theta, xi, scaled, p, eps, v_gamma = memory_weights(V, scaled, t, tables, sigma2)
        # a vanished or non-finite eps gives a nan v_gamma, so memory_le_step's
        # guard never fires here
        if not np.isfinite(v_gamma) or v_gamma <= 0:
            status = "degenerate"
            break
        b_r_hat, r = memory_le_step(b_r_hat, Z[t - 1], X[:t], p, xi, theta, eps, op, ld)
        if r_history is not None:
            r_history.append(r)

        out = bg_mmse(r, v_gamma, prior)
        mse = mean_squared_error(out.posterior_mean, instance.x_true)
        if out.posterior_var < best[0]:
            best = (out.posterior_var, out.posterior_mean, out.posterior_var)
        x_hat, v_hat = out.posterior_mean, out.posterior_var
        # an early stop records the input level; the damping below replaces it
        rec = IterationRecord(t, v_gamma, V[t - 1, t - 1].real, v_hat, mse, theta, xi)
        records.append(rec)
        if out.extrinsic_mean is None:
            status = "early_stop_nle"
            break
        x_new = out.extrinsic_mean
        z_new = residual(y, op, x_new)
        row, diag = estimate_phi_covariance(z_new, Z[:t], N, sigma2, delta, w0)
        # no step reads x_T+1 or z_T+1: the last damping updates the ledger only
        ledger.damp(t, row, diag, [(X, x_new), (Z, z_new)] if t < T else [], rec)
        # the new candidate now lives in X and Z (or was dropped): free it
        # before the next iteration's denoiser call allocates
        del out, x_new, z_new

    if status != "ok" and best[1] is not None and best[0] < v_hat:
        x_hat, v_hat = best[1], best[2]
    debug: dict = {
        "ledger": V,
        "effective": ledger.effective,
        "v_init": V[0, 0].real,
        "noise_floor_reached": ledger.floor_hits > 0,
    }
    if collect_debug:
        debug.update(X=X, Z=Z, r_history=r_history)
    return AlgorithmResult("bo_mamp", T, records, x_hat, float(v_hat), status, debug)
