"""Synthetic linear systems y = A x + n with fast structured transforms.

The structured operator realizes A = S @ P @ F where F is the unitary DFT,
P a random permutation and S a rectangular diagonal of singular values, so
apply/adjoint cost O(N log N).  A dense variant backs the IID-Gaussian
baseline and serves as a small-size test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .denoisers import PriorParams, complex_normal, sample_prior


def make_geometric_singular_values(J: int, kappa: float, energy: float) -> np.ndarray:
    """Singular values with constant ratio d_i/d_{i+1} = kappa**(1/J).

    The returned vector is decreasing, strictly positive, and scaled so that
    sum(d**2) == energy.
    """
    if J < 1:
        raise ValueError(f"J must be a positive integer, got {J}")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy}")
    ratio = kappa ** (1.0 / J)
    # d_i**2 = d_J**2 * ratio**(2*(J-i)), geometric sum fixes d_J.
    q = ratio**2
    if q == 1.0:
        # kappa == 1, or so close to 1 that the ratio rounds to 1 (0/0 below)
        return np.full(J, np.sqrt(energy / J))
    dJ_sq = energy * (q - 1.0) / (q**J - 1.0)
    powers = np.arange(J - 1, -1, -1, dtype=float)
    return np.sqrt(dJ_sq * q**powers)


class TransformOperator:
    """Common interface for the measurement operators."""

    M: int
    N: int
    singular_values: np.ndarray | None

    @property
    def delta(self) -> float:
        return self.M / self.N

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_gram(self, v: np.ndarray, adjoint: np.ndarray | None = None) -> np.ndarray:
        """A @ A^H @ v for v of length M.

        One adjoint and one forward application here, or only the forward one
        when the caller passes adjoint = A^H v, which it may already hold.  The
        structured operator overrides it with the diagonal S S^T, which needs
        no transform and ignores adjoint.
        """
        if adjoint is None:
            adjoint = self.apply_adjoint(v)
        return self.apply(adjoint)

    def dense(self) -> np.ndarray:
        raise NotImplementedError

    def gram_eigenvalues(self) -> np.ndarray:
        """The min(M, N) eigenvalues of A A^H that can be nonzero, descending, >= 0.

        The other |M - N| eigenvalues of the larger Gram matrix are zeros.
        """
        raise NotImplementedError


class StructuredOperator(TransformOperator):
    """A = S @ P @ F with unitary DFT F, permutation P, diagonal S.

    P is default_rng(perm_seed).permutation(N), drawn when apply,
    apply_adjoint, dense or .perm first reads it: spectrum reads
    (gram_eigenvalues, apply_gram) draw nothing and load no numpy.random.
    Immutable after construction; apply/apply_adjoint are pure and may be
    called concurrently, and threads racing on the first transform draw the
    same permutation from the same seed.
    """

    def __init__(
        self, M: int, N: int, singular_values: np.ndarray, perm_seed: int | list[int]
    ):
        J = min(M, N)
        d = np.asarray(singular_values, dtype=float)
        if d.shape != (J,):
            raise ValueError(
                f"expected {J} singular values for an {M}x{N} operator, got {d.shape}"
            )
        if np.any(d < 0):
            raise ValueError("singular values must be nonnegative")
        self.M = M
        self.N = N
        self.J = J
        self.singular_values = d
        self._d_sq = d**2
        self._perm_seed = perm_seed

    @cached_property
    def perm(self) -> np.ndarray:
        return np.random.default_rng(self._perm_seed).permutation(self.N)

    def apply(self, x: np.ndarray) -> np.ndarray:
        u = np.fft.fft(x, norm="ortho")
        out = np.zeros(self.M, dtype=complex)
        # S keeps only the first J permuted coordinates: the DFT bins perm[:J]
        out[: self.J] = self.singular_values * u[self.perm[: self.J]]
        return out

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        u = np.zeros(self.N, dtype=complex)
        u[self.perm[: self.J]] = self.singular_values * y[: self.J]
        # u is a fresh buffer: transforming it in place saves an N-vector
        return np.fft.ifft(u, norm="ortho", out=u)

    def apply_gram(self, v: np.ndarray, adjoint: np.ndarray | None = None) -> np.ndarray:
        # A A^H = S P F F^H P^T S^T = S S^T: d^2 on the first J entries
        out = np.zeros(self.M, dtype=complex)
        out[: self.J] = self._d_sq * v[: self.J]
        return out

    def dense(self) -> np.ndarray:
        F = np.fft.fft(np.eye(self.N), axis=0, norm="ortho")
        A = np.zeros((self.M, self.N), dtype=complex)
        A[: self.J, :] = self.singular_values[:, None] * F[self.perm[: self.J], :]
        return A

    def gram_eigenvalues(self) -> np.ndarray:
        return np.sort(self._d_sq)[::-1]


class DenseOperator(TransformOperator):
    """Explicit-matrix operator; used for IID ensembles and small oracles."""

    def __init__(self, matrix: np.ndarray):
        A = np.asarray(matrix, dtype=complex)
        if A.ndim != 2:
            raise ValueError("matrix must be 2-D")
        self.matrix = A
        self.M, self.N = A.shape
        self.singular_values = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        # conjugating the vector, not the matrix, avoids copying A per call
        return (np.conj(y) @ self.matrix).conj()

    def dense(self) -> np.ndarray:
        return self.matrix

    def gram_eigenvalues(self) -> np.ndarray:
        # scipy.linalg loads here, not at import: only dense spectra need it
        from scipy.linalg import eigh
        from scipy.linalg.blas import zherk

        # The C-ordered A is A^T in Fortran order, so herk on A.T with
        # trans = 'C' writes the lower triangle of conj(A A^H) -- same
        # eigenvalues -- without copying A or forming its conjugate.  The
        # Fortran-ordered result then goes to the same LAPACK divide-and-
        # conquer routine as np.linalg.eigvalsh, which is let overwrite it
        # instead of copying it.
        gram = zherk(1.0, self.matrix.T, trans=2, lower=1)
        eigs = eigh(
            gram, lower=True, eigvals_only=True, overwrite_a=True,
            check_finite=False, driver="evd",
        )
        # ascending from LAPACK; rounding can leave the zeros slightly negative
        return np.clip(eigs[::-1][: min(self.M, self.N)], 0.0, None)


def build_structured_operator(
    M: int, N: int, singular_values: np.ndarray, rng_seed: int | list[int]
) -> StructuredOperator:
    """Structured operator with the permutation default_rng(rng_seed).permutation(N).

    The seed is an int or a list of ints; the draw waits for the first transform.
    """
    return StructuredOperator(M, N, singular_values, rng_seed)


def build_iid_gaussian_operator(
    M: int, N: int, rng_seed: int | list[int] | np.random.Generator
) -> DenseOperator:
    """Dense matrix with IID CN(0, 1/M) entries, so tr(A A^H)/N ~= 1."""
    return DenseOperator(complex_normal(np.random.default_rng(rng_seed), (M, N), 1.0 / M))


@dataclass
class SystemInstance:
    """One synthetic problem: operator, ground truth, noise variance and observation."""

    operator: TransformOperator
    x_true: np.ndarray
    noise_var: float
    y: np.ndarray


def sample_instance(
    operator: TransformOperator,
    prior: PriorParams,
    snr_db: float,
    rng_seed: int | list[int] | np.random.Generator,
) -> SystemInstance:
    """Draw x from the prior, add CN(0, sigma^2 I) noise with SNR = 1/sigma^2."""
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    rng = np.random.default_rng(rng_seed)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    x = sample_prior(prior, operator.N, rng)
    n = complex_normal(rng, operator.M, sigma2)
    y = operator.apply(x) + n
    return SystemInstance(operator, x, sigma2, y)
