"""Structured-operator construction, instance sampling, dense-oracle agreement."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import zherk

from mamp import (
    DenseOperator,
    PriorParams,
    build_iid_gaussian_operator,
    build_structured_operator,
    make_geometric_singular_values,
    sample_instance,
)
from mamp.denoisers import complex_normal, sample_prior


def reference_complex_normal(rng, shape, var):
    """The CN(0, var) draw as one expression; complex_normal must match its bits."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(
        var / 2.0
    )


def reference_structured_apply(op, x):
    """Permute all N DFT bins, then keep the first J."""
    u = np.fft.fft(x, norm="ortho")[op.perm]
    out = np.zeros(op.M, dtype=complex)
    out[: op.J] = op.singular_values * u[: op.J]
    return out


def reference_structured_adjoint(op, y):
    """Zero-pad to N, then gather through the inverse permutation."""
    u = np.zeros(op.N, dtype=complex)
    u[: op.J] = op.singular_values * y[: op.J]
    return np.fft.ifft(u[np.argsort(op.perm)], norm="ortho")


class TestGeometricSingularValues:
    def test_two_term_hand_solution(self):
        # d1 = 2 d2 and d1^2 + d2^2 = 2 force d^2 = (1.6, 0.4)
        d = make_geometric_singular_values(2, 4.0, 2.0)
        np.testing.assert_allclose(d**2, [1.6, 0.4], rtol=1e-14)

    def test_unit_ratio_is_flat(self):
        d = make_geometric_singular_values(3, 1.0, 3.0)
        np.testing.assert_allclose(d, np.ones(3), rtol=1e-15)

    def test_ratio_rounding_to_one_is_flat(self):
        # 1 + 2^-52: kappa**(1/J) rounds to exactly 1, the geometric sum to 0/0
        d = make_geometric_singular_values(3, 1.0 + 2.0**-52, 3.0)
        np.testing.assert_allclose(d, np.ones(3), rtol=1e-15)

    def test_energy_and_extremal_ratio(self):
        J, kappa = 16, 10.0
        d = make_geometric_singular_values(J, kappa, 16.0)
        assert abs(np.sum(d**2) - 16.0) < 1e-12
        np.testing.assert_allclose(d[0] / d[-1], kappa ** ((J - 1) / J), rtol=1e-12)
        assert np.all(np.diff(d) < 0)

    def test_constant_consecutive_ratio(self):
        d = make_geometric_singular_values(9, 7.0, 5.0)
        ratios = d[:-1] / d[1:]
        np.testing.assert_allclose(ratios, 7.0 ** (1 / 9), rtol=1e-12)

    @pytest.mark.parametrize("J,kappa,energy", [(0, 2.0, 1.0), (4, 0.5, 1.0), (4, 2.0, 0.0)])
    def test_invalid_parameters(self, J, kappa, energy):
        with pytest.raises(ValueError):
            make_geometric_singular_values(J, kappa, energy)


class TestStructuredOperator:
    def test_unitary_square_case(self):
        op = build_structured_operator(4, 4, np.ones(4), rng_seed=0)
        v = np.arange(4) + 1j * np.arange(4, 0, -1)
        np.testing.assert_allclose(op.apply(op.apply_adjoint(v)), v, atol=1e-12)

    def test_wide_operator_matches_dense(self):
        op = build_structured_operator(2, 4, np.array([1.3, 0.7]), rng_seed=3)
        A = op.dense()
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        structured = op.apply_adjoint(op.apply(e1))
        dense = A.conj().T @ (A @ e1)
        np.testing.assert_allclose(structured, dense, atol=1e-12)

    @pytest.mark.parametrize("M,N", [(8, 16), (16, 16), (24, 16), (32, 64)])
    def test_apply_agrees_with_dense_matrix(self, M, N):
        rng = np.random.default_rng(5)
        J = min(M, N)
        d = make_geometric_singular_values(J, 5.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=7)
        A = op.dense()
        for _ in range(4):
            v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            np.testing.assert_allclose(op.apply(v), A @ v, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(
                op.apply_adjoint(u), A.conj().T @ u, rtol=1e-10, atol=1e-12
            )

    def test_same_seed_same_permutation(self):
        d = np.ones(8)
        op1 = build_structured_operator(8, 8, d, rng_seed=42)
        op2 = build_structured_operator(8, 8, d, rng_seed=42)
        assert np.array_equal(op1.perm, op2.perm)

    def test_permutation_is_bijection(self):
        op = build_structured_operator(16, 32, np.ones(16), rng_seed=1)
        assert sorted(op.perm.tolist()) == list(range(32))

    def test_normalized_gram_trace(self):
        N, M = 64, 32
        d = make_geometric_singular_values(M, 10.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=0)
        assert abs(np.sum(op.gram_eigenvalues()) / N - 1.0) < 1e-12

    def test_underloaded_identity_gram(self):
        # square diagonal stacked over zeros with unit singular values: A^H A = I
        op = build_structured_operator(8, 4, np.ones(4), rng_seed=2)
        v = np.random.default_rng(0).standard_normal(4) + 0j
        np.testing.assert_allclose(op.apply_adjoint(op.apply(v)), v, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_structured_operator(8, 16, np.ones(4), rng_seed=0)

    @pytest.mark.parametrize("M,N", [(8, 16), (16, 16), (24, 16)])
    def test_transforms_equal_full_permutation_reference(self, M, N):
        d = make_geometric_singular_values(min(M, N), 5.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=9)
        rng = np.random.default_rng(10)
        for _ in range(4):
            v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            assert np.array_equal(op.apply(v), reference_structured_apply(op, v))
            assert np.array_equal(
                op.apply_adjoint(u), reference_structured_adjoint(op, u)
            )

    @pytest.mark.parametrize("M,N", [(12, 16), (1 << 16, 1 << 17)])
    def test_adjoint_in_place_has_the_bits_of_a_fresh_inverse_fft(self, M, N):
        d = make_geometric_singular_values(min(M, N), 10.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=3)
        rng = np.random.default_rng(11)
        y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        u = np.zeros(N, dtype=complex)
        u[op.perm[: op.J]] = d * y[: op.J]
        assert np.array_equal(op.apply_adjoint(y), np.fft.ifft(u, norm="ortho"))

    @given(
        shape=st.sampled_from(["wide", "square", "tall"]),
        J=st.integers(1, 48),
        extra=st.integers(1, 48),
        kappa=st.floats(1.0, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_gram_equals_apply_of_adjoint(self, shape, J, extra, kappa, seed):
        M, N = {"wide": (J, J + extra), "square": (J, J), "tall": (J + extra, J)}[shape]
        d = make_geometric_singular_values(J, kappa, float(max(M, N)))
        op = build_structured_operator(M, N, d, rng_seed=seed)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        gram = op.apply_gram(v)
        ref = op.apply(op.apply_adjoint(v))
        assert gram.shape == (M,)
        assert np.all(gram[J:] == 0)
        assert np.linalg.norm(gram - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_gram_ignores_a_given_adjoint(self):
        d = make_geometric_singular_values(8, 7.0, 16.0)
        op = build_structured_operator(8, 16, d, rng_seed=4)
        v = np.arange(8) + 1j
        assert np.array_equal(op.apply_gram(v, adjoint=np.ones(16)), op.apply_gram(v))

    @pytest.mark.parametrize("M,N", [(8, 16), (16, 16), (24, 16), (5, 3)])
    def test_gram_matches_dense_product(self, M, N):
        d = make_geometric_singular_values(min(M, N), 7.0, float(N))
        op = build_structured_operator(M, N, d, rng_seed=4)
        A = op.dense()
        rng = np.random.default_rng(6)
        for _ in range(4):
            v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            np.testing.assert_allclose(
                op.apply_gram(v), A @ (A.conj().T @ v), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize(
        "d, match",
        [
            (np.ones(3), "expected 4 singular values"),
            (np.ones(5), "expected 4 singular values"),
            (np.ones((4, 1)), "expected 4 singular values"),
            (np.array([1.0, 1.0, -0.5, 1.0]), "nonnegative"),
        ],
        ids=["short", "long", "column", "negative"],
    )
    def test_invalid_singular_values_raise(self, d, match):
        with pytest.raises(ValueError, match=match):
            build_structured_operator(4, 8, d, rng_seed=0)


class TestDeferredPermutation:
    @pytest.mark.parametrize("seed", [7, [7, 0x0FEA]], ids=["int", "entropy"])
    def test_perm_has_the_bits_of_an_eager_draw(self, seed):
        op = build_structured_operator(4, 16, np.ones(4), seed)
        assert np.array_equal(op.perm, np.random.default_rng(seed).permutation(16))

    def test_spectrum_reads_leave_the_permutation_undrawn(self):
        op = build_structured_operator(4, 8, np.arange(4.0, 0.0, -1.0), 3)
        op.gram_eigenvalues()
        op.apply_gram(np.ones(4, dtype=complex))
        assert "perm" not in vars(op)
        op.apply_adjoint(np.ones(4, dtype=complex))
        assert np.array_equal(op.perm, np.random.default_rng(3).permutation(8))

    def test_racing_first_transforms_agree(self):
        x = complex_normal(np.random.default_rng(0), 128, 1.0)
        ref = build_structured_operator(64, 128, np.ones(64), [5, 0x0FEA]).apply(x)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                op = build_structured_operator(64, 128, np.ones(64), [5, 0x0FEA])
                with ThreadPoolExecutor(max_workers=8) as pool:
                    outs = list(pool.map(lambda _: op.apply(x), range(8), timeout=30))
                assert all(np.array_equal(out, ref) for out in outs)
        finally:
            sys.setswitchinterval(interval)


class TestAdjointProperties:
    """Both operators at random shapes, wide, square and tall (M > N)."""

    @given(
        kind=st.sampled_from(["structured", "dense"]),
        M=st.integers(1, 48),
        N=st.integers(1, 48),
        kappa=st.floats(1.0, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_adjoint_and_gram_identities(self, kind, M, N, kappa, seed):
        if kind == "structured":
            d = make_geometric_singular_values(min(M, N), kappa, float(max(M, N)))
            op = build_structured_operator(M, N, d, rng_seed=seed)
        else:
            op = build_iid_gaussian_operator(M, N, rng_seed=seed)
        rng = np.random.default_rng(seed)
        x, y = complex_normal(rng, N, 1.0), complex_normal(rng, M, 1.0)
        Ax, AHy = op.apply(x), op.apply_adjoint(y)
        norm = np.linalg.norm
        # <Ax, y> = y^H A x and <x, A^H y> = (A^H y)^H x
        gap = abs(np.vdot(y, Ax) - np.vdot(AHy, x))
        assert gap <= 1e-13 * (norm(Ax) * norm(y) + norm(x) * norm(AHy))
        gram, ref = op.apply_gram(y), op.apply(AHy)
        assert gram.shape == (M,)
        assert norm(gram - ref) <= 1e-13 * norm(ref)
        assert np.array_equal(op.apply_gram(y, adjoint=AHy), gram)


class TestSampleInstance:
    def test_snr_to_noise_variance(self):
        op = build_structured_operator(8, 16, np.ones(8), rng_seed=0)
        inst = sample_instance(op, PriorParams(mu=0.5), snr_db=30.0, rng_seed=1)
        assert inst.noise_var == pytest.approx(1e-3, rel=1e-12)

    def test_dense_gaussian_signal_normalization(self):
        N = 1 << 14
        op = build_structured_operator(N // 2, N, np.full(N // 2, np.sqrt(2.0)), rng_seed=0)
        inst = sample_instance(op, PriorParams(mu=1.0), snr_db=20.0, rng_seed=3)
        assert np.mean(np.abs(inst.x_true) ** 2) == pytest.approx(1.0, abs=4 / np.sqrt(N))

    def test_observation_is_signal_through_operator_plus_noise(self):
        op = build_structured_operator(16, 32, np.ones(16), rng_seed=4)
        prior = PriorParams(mu=0.2)
        inst = sample_instance(op, prior, snr_db=15.0, rng_seed=5)
        # redraw x, then n, from the same seed, in sample_instance's order
        rng = np.random.default_rng(5)
        x = sample_prior(prior, 32, rng)
        n = complex_normal(rng, 16, inst.noise_var)
        assert np.array_equal(inst.x_true, x)
        assert np.array_equal(inst.y, op.apply(x) + n)

    def test_determinism(self):
        op = build_structured_operator(16, 32, np.ones(16), rng_seed=4)
        a = sample_instance(op, PriorParams(mu=0.2), snr_db=15.0, rng_seed=9)
        b = sample_instance(op, PriorParams(mu=0.2), snr_db=15.0, rng_seed=9)
        assert np.array_equal(a.x_true, b.x_true)
        assert np.array_equal(a.y, b.y)

    def test_rejects_nonfinite_snr(self):
        op = build_structured_operator(4, 8, np.ones(4), rng_seed=0)
        with pytest.raises(ValueError):
            sample_instance(op, PriorParams(mu=0.5), snr_db=np.inf, rng_seed=0)


class TestIIDOperator:
    def test_trace_normalization(self):
        op = build_iid_gaussian_operator(512, 1024, rng_seed=0)
        tr = np.sum(np.abs(op.matrix) ** 2) / op.N
        assert tr == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("M, N", [(32, 64), (300, 700)])
    def test_matrix_equals_one_expression_draw(self, M, N):
        # 300 x 700 spans several draw chunks
        op = build_iid_gaussian_operator(M, N, rng_seed=12)
        ref = reference_complex_normal(np.random.default_rng(12), (M, N), 1.0 / M)
        assert op.matrix.shape == (M, N)
        assert np.array_equal(op.matrix, ref)

    def test_determinism(self):
        a = build_iid_gaussian_operator(32, 64, rng_seed=11)
        b = build_iid_gaussian_operator(32, 64, rng_seed=11)
        assert np.array_equal(a.matrix, b.matrix)

    def test_adjoint_matches_conjugate_transpose(self):
        op = build_iid_gaussian_operator(48, 96, rng_seed=5)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        np.testing.assert_allclose(
            op.apply_adjoint(u), op.matrix.conj().T @ u, rtol=1e-13, atol=1e-13
        )

    def test_gram_takes_the_adjoint_it_is_given(self):
        op = build_iid_gaussian_operator(48, 96, rng_seed=5)
        rng = np.random.default_rng(9)
        v = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        u = op.apply_adjoint(v)
        assert np.array_equal(op.apply_gram(v, adjoint=u), op.apply_gram(v))
        assert np.array_equal(op.apply_gram(v, adjoint=u), op.apply(u))

    @pytest.mark.parametrize("M, N", [(48, 96), (96, 48)])
    def test_gram_eigenvalues_match_explicit_product(self, M, N):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        eigs = DenseOperator(A).gram_eigenvalues()
        ref = np.linalg.eigvalsh(A @ A.conj().T)[::-1][: min(M, N)]
        np.testing.assert_allclose(eigs, ref, rtol=1e-12, atol=1e-12 * ref.max())

    @pytest.mark.parametrize("M, N", [(48, 96), (96, 48)])
    def test_gram_eigenvalues_equal_eigvalsh_of_herk_output(self, M, N):
        op = build_iid_gaussian_operator(M, N, rng_seed=8)
        gram = zherk(1.0, op.matrix.T, trans=2, lower=1)
        ref = np.linalg.eigvalsh(gram, UPLO="L")[::-1][: min(M, N)]
        assert np.array_equal(op.gram_eigenvalues(), np.clip(ref, 0.0, None))


class TestGramEigenvalues:
    """Both operators hand out the min(M, N) Gram eigenvalues that can be nonzero."""

    @staticmethod
    def build(kind, M, N):
        if kind == "dense":
            return build_iid_gaussian_operator(M, N, rng_seed=4)
        # ascending singular values: the operator sorts their squares
        d = make_geometric_singular_values(min(M, N), 10.0, float(N))[::-1]
        return build_structured_operator(M, N, d, rng_seed=4)

    @pytest.mark.parametrize("kind", ["dense", "structured"])
    @pytest.mark.parametrize("M, N", [(24, 40), (40, 40), (40, 24)])
    def test_length_order_and_sign(self, kind, M, N):
        eigs = self.build(kind, M, N).gram_eigenvalues()
        assert eigs.shape == (min(M, N),)
        assert np.all(eigs >= 0.0)
        assert np.all(np.diff(eigs) <= 0.0)

    @pytest.mark.parametrize("kind", ["dense", "structured"])
    def test_tall_operator_drops_the_structural_zeros(self, kind):
        # A A^H of a 40 x 24 operator has rank 24: its 16 other eigenvalues
        # are zeros, up to rounding for the dense one
        op = self.build(kind, 40, 24)
        full = np.linalg.eigvalsh(op.dense() @ op.dense().conj().T)[::-1]
        eigs = op.gram_eigenvalues()
        np.testing.assert_allclose(eigs, full[:24], rtol=1e-12)
        assert eigs.min() > 1e3 * np.abs(full[24:]).max()


class TestComplexNormal:
    @pytest.mark.parametrize(
        "shape, var",
        [(0, 1.0), (1, 0.3), (5, 2.0), (70_000, 1e-3), ((3, 40_000), 1.0 / 3)],
    )
    def test_equals_one_expression_draw(self, shape, var):
        rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
        z = complex_normal(rng, shape, var)
        ref = reference_complex_normal(ref_rng, shape, var)
        assert z.shape == ref.shape and z.dtype == ref.dtype
        assert np.array_equal(z, ref)
        # the generator is left where the expression leaves it
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_draws_into_out_or_adds_to_it(self):
        n, var = 70_000, 0.3
        rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
        base = reference_complex_normal(np.random.default_rng(1), n, 1.0)
        out = base.copy()
        assert complex_normal(rng, n, var, out=out, add=True) is out
        assert np.array_equal(out, base + reference_complex_normal(ref_rng, n, var))
        assert complex_normal(rng, n, var, out=out) is out
        assert np.array_equal(out, reference_complex_normal(ref_rng, n, var))
