"""Spectral moments of A A^H and the derived long-memory filter tables.

Everything the matched-filter recursion needs is a set of scalar traces:
moments lambda_t of the Gram spectrum, traces b_t of powers of the shifted
matrix B = lambda_dagger I - A A^H, the filter weights w_t and the quadratic
couplings wbar_{i,j}.  Raw traces grow like lambda_max**t, so the tables store
them scaled by lambda_dagger**t; every downstream combination of weights and
traces cancels the scaling exactly.  The tables carry the `SpectralProfile`
they were built on, the one spectrum a run reads: its eigenvalues feed the
series extension and the eigenvalue-exact LMMSE transfer, and its first two
moments the matched-filter baselines.

Trace convention: lambda_0 = 1 = tr(I_N)/N, i.e. b_t is the N-sided trace of
(lambda_dagger I - A^H A)**t.  The w_t and wbar tables are identical under the
M-sided convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .denoisers import complex_normal
from .operators import TransformOperator

# The alternating binomial expansion of the shifted-spectrum traces amplifies
# the 1e-16 relative error of double-precision input moments by roughly
# sum_i C(t,i) lambda_i / lambda_dagger**i (~3**t on unit-moment spectra), so
# agreement with the direct eigenvalue computation at 1e-8 relative holds up
# to about this order on desk-scale profiles (measured t* = 21..23 on
# condition-number-10 geometric spectra at N = 2048..4096).
BINOMIAL_CANCELLATION_THRESHOLD = 20


# The power-sum kernel works on blocks of up to 64 terms whose buffer holds at
# most 2**18 doubles (2 MB): 64 terms for up to 4096 eigenvalues, fewer for
# larger spectra, where a full block would add tens of MB to the set-up peak.
_POWER_BLOCK = 64
_BLOCK_ELEMENTS = 1 << 18
_TINY = np.finfo(float).tiny


def _power_sums(
    weights: np.ndarray, ratio: np.ndarray, n_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sums over k of ratio_k**t and of weights_k * ratio_k**t, t < n_terms.

    The powers come from the same chain of products as ``power = power *
    ratio`` starting at ones, written row by row into a block buffer (a
    cumulative product down axis 0 walks the buffer by column and is 5-20x
    slower), and each sum is a contiguous row sum, so the results equal the
    term-by-term loop bit for bit up to the first block boundary at which the
    power of some eigenvalue falls below the smallest normal double.  Those
    eigenvalues are dropped there: their powers would otherwise sit in the
    subnormal range (where a product such as 0.98 * 2**-1074 rounds back to
    2**-1074 and never reaches zero) and make every later term both slow and
    a rounding artefact.  Past that boundary a sum runs over fewer terms,
    which can move its last bits; once no eigenvalue is left, every remaining
    sum is exactly 0.0.
    """
    plain = np.zeros(n_terms)
    weighted = np.zeros(n_terms)
    power = np.ones_like(ratio)
    block = min(_POWER_BLOCK, n_terms, max(1, _BLOCK_ELEMENTS // len(ratio)))
    buf = np.empty(block * len(ratio))
    for start in range(0, n_terms, block):
        small = np.abs(power) < _TINY
        if small.any():
            keep = ~small
            power, ratio, weights = power[keep], ratio[keep], weights[keep]
            if not len(power):
                break
        rows = min(block, n_terms - start)
        P = buf[: rows * len(power)].reshape(rows, len(power))
        P[0] = power
        for i in range(1, rows):
            np.multiply(P[i - 1], ratio, out=P[i])
        power = P[-1] * ratio
        plain[start : start + rows] = P.sum(axis=1)
        P *= weights
        weighted[start : start + rows] = P.sum(axis=1)
    return plain, weighted


@dataclass
class SpectralProfile:
    """The Gram spectrum of a run: moments, extremes and, when known, eigenvalues.

    moments holds lambda_t (t = 0..order, lambda_0 = 1).  eigs holds the
    N-sided eigenvalues d_k^2 of A^H A that can be nonzero, J = min(M, N) of
    them (the other N - J are structural zeros), or None when the moments come
    from probe estimates; readers take them from eigenvalues(), which refuses
    the latter.  lambda_min and lambda_max are the exact extremes, or bounds
    on them (provenance "bounded" or "estimated").
    """

    moments: np.ndarray
    lambda_min: float
    lambda_max: float
    provenance: str  # exact | estimated | bounded
    eigs: np.ndarray | None
    N: int

    def __post_init__(self):
        self.moments = np.asarray(self.moments, dtype=float)
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")
        if self.provenance not in ("exact", "estimated", "bounded"):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def lambda_dagger(self) -> float:
        return 0.5 * (self.lambda_max + self.lambda_min)

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    def eigenvalues(self) -> np.ndarray:
        """eigs, or ValueError when the spectrum was estimated and holds none."""
        if self.eigs is None:
            raise ValueError(
                "the Gram eigenvalues are needed, and estimated moments hold "
                "none; use eigenvalue-built tables (exact or bounded moments)"
            )
        return self.eigs

    def to_dict(self) -> dict:
        return {
            "moments": self.moments.tolist(),
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "lambda_dagger": self.lambda_dagger,
            "provenance": self.provenance,
        }


def exact_moments_from_singular_values(
    d: np.ndarray, N: int, T: int, M: int | None = None
) -> SpectralProfile:
    """Spectrum of the singular values d, moments lambda_t = sum(d**(2t))/N, t <= 2T.

    M defaults to len(d) (square-or-wide Gram); when M exceeds the number of
    singular values, A A^H carries structural zero eigenvalues and
    lambda_min = 0.  The moments grow like lambda_max**t and overflow at long
    horizons: T = 1 gives lambda_0..lambda_2, all that an eigenvalue-built
    run reads.
    """
    d = np.asarray(d, dtype=float)
    J = len(d)
    if M is None:
        M = J
    if M < J:
        raise ValueError("M cannot be smaller than the number of singular values")
    d_sq = d**2
    moments = np.empty(2 * T + 1)
    moments[0] = 1.0
    # lambda_t = sum(d_sq * d_sq**(t-1)) / N, the same products as d_sq**t
    moments[1:] = _power_sums(d_sq, d_sq, 2 * T)[1] / N
    lam_min = 0.0 if M > J else float(d_sq.min())
    lam_max = float(d_sq.max())
    return SpectralProfile(moments, lam_min, lam_max, "exact", d_sq, N)


def _single_probe_moments(operator: TransformOperator, T: int, rng) -> np.ndarray:
    N = operator.N
    s = complex_normal(rng, N, 1.0 / N)
    log_sq_norm = 0.0
    moments = np.empty(2 * T + 1)
    moments[0] = 1.0
    for t in range(1, 2 * T + 1):
        s = operator.apply(s) if t % 2 == 1 else operator.apply_adjoint(s)
        nrm = np.linalg.norm(s)
        if nrm == 0:
            raise RuntimeError("probe vector vanished during the power recursion")
        log_sq_norm += 2.0 * np.log(nrm)
        s = s / nrm
        moments[t] = np.exp(log_sq_norm)
    return moments


# Probes the moment estimate averages.
_N_PROBES = 16


def estimate_moments_power_recursion(
    operator: TransformOperator, T: int, rng_seed: int
) -> SpectralProfile:
    """Estimate lambda_t from Gaussian probes and alternating applications.

    Each probe runs s_0 ~ CN(0, I/N); s_t applies A on odd steps and A^H on
    even steps, and lambda_t is read off as ||s_t||^2 (renormalized each step
    so only the accumulated log magnitude grows).  A single probe fluctuates
    at O(sqrt(lambda_2t / N) / lambda_t), around 10% at t = 8 on desk-scale
    geometric spectra, so the estimate averages _N_PROBES independent probes.
    Extremes come from the trace bound: lambda_min >= 0 and lambda_max <=
    (N lambda_tau)^(1/tau) at tau = 2T.
    """
    children = np.random.SeedSequence(rng_seed).spawn(_N_PROBES)
    moments = np.zeros(2 * T + 1)
    for child in children:
        moments += _single_probe_moments(operator, T, np.random.default_rng(child))
    moments /= _N_PROBES
    tau = 2 * T
    _, lam_max_up = bound_extremal_eigenvalues(float(moments[tau]), tau, operator.N)
    return SpectralProfile(moments, 0.0, lam_max_up, "estimated", None, operator.N)


def bound_extremal_eigenvalues(
    lambda_tau: float, tau: int, N: int
) -> tuple[float, float]:
    """(0, (N lambda_tau)^(1/tau)): valid lower/upper extremal-eigenvalue bounds."""
    if tau < 1 or lambda_tau <= 0:
        raise ValueError("need tau >= 1 and lambda_tau > 0")
    return 0.0, float((N * lambda_tau) ** (1.0 / tau))


@dataclass
class MomentTables:
    """Scaled filter tables: w_t / ld**t and wbar_{i,j} / ld**(i+j), ld = lambda_dagger.

    b_scaled, w_scaled run over t = 0..2T+1; wbar_scaled is (T+1) x (T+1).
    Unscaled accessors reconstruct raw traces (may overflow for very large t,
    which is exactly what the scaled storage avoids in the algorithms).
    spectrum is the spectrum they were built on; its extremes set ld.
    """

    b_scaled: np.ndarray
    w_scaled: np.ndarray
    wbar_scaled: np.ndarray
    T: int
    spectrum: SpectralProfile

    @property
    def lambda_dagger(self) -> float:
        return self.spectrum.lambda_dagger

    @property
    def w0(self) -> float:
        return float(self.w_scaled[0])

    @property
    def weight_decay(self) -> float:
        """Rate q with |w'_s| <= w0 q**s for every s.

        w'_s = sum_k d_k^2 r_k**s / N with r_k = (ld - d_k^2)/ld, so q is the
        largest |r_k| over the positive d_k^2 of spectrum.eigs (zero eigenvalues
        carry no weight; q = 0 when none is positive).  Extremes that enclose
        the spectrum give q <= (lambda_max - lambda_min) / (lambda_max +
        lambda_min), and bounds give a much smaller q than that: with
        lambda_min = 0 assumed, that ratio is exactly 1.
        Estimate-built tables keep no eigenvalues and raise ValueError.
        """
        eigs = self.spectrum.eigenvalues()
        eigs = eigs[eigs > 0]
        if not len(eigs):
            return 0.0
        ld = self.lambda_dagger
        return float(np.max(np.abs((ld - eigs) / ld)))

    def b_at(self, t: int) -> float:
        return float(self.b_scaled[t] * self.lambda_dagger**t)

    def w_at(self, t: int) -> float:
        return float(self.w_scaled[t] * self.lambda_dagger**t)

    def wbar_at(self, i: int, j: int) -> float:
        return float(self.wbar_scaled[i, j] * self.lambda_dagger ** (i + j))

    def w_scaled_extended(self, n: int) -> np.ndarray:
        """Scaled filter weights w'_0..w'_n, extending past the stored horizon.

        Only the 1-D weight sequence is produced (no quadratic couplings).
        The fixed-point solver starts below v* and keeps its series within a
        few dozen terms; long extensions are needed only at v far above v*.
        Extensions are cached on the instance and need the spectrum's
        eigenvalues; tables built on estimated moments raise ValueError.
        """
        if n < len(self.w_scaled):
            return self.w_scaled[: n + 1]
        cached = getattr(self, "_w_ext", None)
        if cached is not None and n < len(cached):
            return cached[: n + 1]
        eigs = self.spectrum.eigenvalues()
        ratio = (self.lambda_dagger - eigs) / self.lambda_dagger
        out = _power_sums(eigs, ratio, n + 1)[1]
        out /= self.spectrum.N
        self._w_ext = out
        return out


def _wbar_from_w(w_scaled: np.ndarray, lambda_dagger: float, T: int) -> np.ndarray:
    # wbar'_{i,j} = ld*(w'_{i+j} - w'_{i+j+1}) - w'_i w'_j, valid for i+j+1 <= 2T+1
    s = np.arange(0, 2 * T + 1)
    diag_part = lambda_dagger * (w_scaled[s] - w_scaled[s + 1])
    i = np.arange(T + 1)
    sums = i[:, None] + i[None, :]
    return diag_part[sums] - np.outer(w_scaled[: T + 1], w_scaled[: T + 1])


def tables_from_singular_values(
    d: np.ndarray,
    N: int,
    T: int,
    M: int | None = None,
    lambda_extremes: tuple[float, float] | None = None,
) -> MomentTables:
    """Filter tables computed directly on the Gram spectrum (stable at any T).

    The tables carry the spectrum of d with moments up to lambda_2 only, so
    no raw moment overflows at long horizons.  lambda_extremes overrides the
    exact (lambda_min, lambda_max), e.g. with the trace bounds when only
    approximate extremes are assumed known; the spectrum is then "bounded".
    """
    spectrum = exact_moments_from_singular_values(d, N, 1, M=M)
    if lambda_extremes is not None:
        lam_min, lam_max = lambda_extremes
        spectrum = replace(
            spectrum, lambda_min=lam_min, lambda_max=lam_max, provenance="bounded"
        )
    eigs = spectrum.eigs
    ld = spectrum.lambda_dagger
    plain, weighted = _power_sums(eigs, (ld - eigs) / ld, 2 * T + 2)
    # N-sided trace: A^H A has N - J structural zeros.
    b_scaled = (plain + (N - len(eigs))) / N
    w_scaled = weighted / N
    return MomentTables(b_scaled, w_scaled, _wbar_from_w(w_scaled, ld, T), T, spectrum)


def build_moment_tables(profile: SpectralProfile, T: int) -> MomentTables:
    """Filter tables from moments alone, via the binomial expansion of b_t.

    b_t = sum_i C(t, i) (-1)^i lambda_dagger**(t-i) lambda_i suffers severe
    cancellation in double precision (the alternating terms exceed the result
    by ~C(t, t/2) 2^t), so each scaled b_t is summed exactly as a ratio of
    integers, which int / int rounds to the nearest float once.  The input
    moments themselves are double precision, which limits agreement with the
    direct eigenvalue computation to t <= BINOMIAL_CANCELLATION_THRESHOLD.
    """
    if profile.order < 2 * T:
        raise ValueError(
            f"profile holds moments up to t={profile.order}, need 2T={2 * T}"
        )
    from math import comb

    ld = profile.lambda_dagger
    tmax = min(2 * T + 1, profile.order)
    moments = profile.moments[: tmax + 1]
    if not (np.all(np.isfinite(moments)) and np.isfinite(ld)):
        raise FloatingPointError("non-finite moment or lambda_dagger")
    # lambda_dagger = p / q and lambda_i = a_i / D, with q and D powers of two
    p, q = float(ld).as_integer_ratio()
    ratios = [float(m).as_integer_ratio() for m in moments]
    D = max(den for _, den in ratios)
    a = [n * (D // den) for n, den in ratios]
    b_scaled = np.array([sum(comb(t, i) * (-1) ** i * a[i] * p ** (t - i) * q**i
                             for i in range(t + 1)) / (D * p**t) for t in range(tmax + 1)])
    w_scaled = ld * (b_scaled[:-1] - b_scaled[1:])
    # trailing zero pads sit beyond every index the recursions consume
    w_scaled = np.append(w_scaled, np.zeros(2 * T + 2 - len(w_scaled)))
    b_scaled = np.append(b_scaled, np.zeros(2 * T + 2 - len(b_scaled)))
    return MomentTables(b_scaled, w_scaled, _wbar_from_w(w_scaled, ld, T), T, profile)
