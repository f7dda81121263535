"""Dense symmetric kernels against independent oracles and matrix identities."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmtlaw._serialize import write_matrix_csv, write_spectrum_csv
from rmtlaw.elliptical_solver import scaled_gram
from rmtlaw.linalg import (
    SYM_RTOL,
    as_corr_matrix,
    as_sym_matrix,
    corr_from_cov,
    load_matrix_csv,
    load_spectrum_csv,
    matrix_sqrt_psd,
    operator_norm,
    sample_correlation,
    sample_covariance,
    sym_eigenvalues,
    toeplitz_corr,
)


def char_poly_coefficients(A):
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    n = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A @ M) / k)
    return np.array(coeffs)


class TestSymEigenvalues:
    def test_hand_2x2(self):
        eigs = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eigs, [1.0, 3.0])

    def test_char_poly_oracle_6x6(self):
        rng = np.random.Generator(np.random.Philox(12345))
        B = rng.normal(size=(6, 6))
        A = (B + B.T) / 2
        roots = np.sort(np.roots(char_poly_coefficients(A)).real)
        assert np.allclose(sym_eigenvalues(A), roots, atol=1e-8)

    def test_constructed_spectrum(self):
        # Q diag(lams) Q' has exactly lams as its spectrum.
        rng = np.random.Generator(np.random.Philox(7))
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        lams = np.array([-2.0, -0.5, 0.0, 1.5, 4.0])
        A = Q @ np.diag(lams) @ Q.T
        assert np.allclose(sym_eigenvalues(A), lams, atol=1e-12)

    def test_subnormal_squares(self):
        A = np.full((4, 4), 1e-160)
        A[0, 1] = A[1, 0] = 2.5
        clean = np.where(np.abs(A) < 1.0, 0.0, A)
        assert np.allclose(sym_eigenvalues(A), sym_eigenvalues(clean), rtol=0.0, atol=1e-12)

    def test_no_tiny_entries_keeps_bytes(self):
        # Nothing is below the cut, and exact zeros (-0.0 too) stay as they are.
        rng = np.random.Generator(np.random.Philox(5))
        A = rng.normal(size=(6, 6))
        A = A + A.T
        A[0, 1] = A[1, 0] = -0.0
        A[2, 3] = A[3, 2] = 0.0
        assert sym_eigenvalues(A).tobytes() == np.linalg.eigvalsh(A).tobytes()

    def test_ascending_order(self):
        eigs = sym_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.all(np.diff(eigs) >= 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_exactly_symmetric_input_is_not_copied(self):
        # X'X goes to eigvalsh as it is: beside it, only boolean masks.
        p = 300
        X = np.random.Generator(np.random.Philox(8)).normal(size=(400, p))
        A = X.T @ X
        sym_eigenvalues(A)
        tracemalloc.start()
        try:
            sym_eigenvalues(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * p * p


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)

    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0)


class TestSampleCovariance:
    def test_two_pass_oracle(self):
        rng = np.random.Generator(np.random.Philox(3))
        Y = rng.normal(size=(7, 3))
        S = sample_covariance(Y)
        n = Y.shape[0]
        mean = Y.mean(axis=0)
        expected = np.zeros((3, 3))
        for i in range(n):
            d = Y[i] - mean
            expected += np.outer(d, d)
        expected /= n - 1
        assert np.allclose(S, expected, atol=1e-12)

    def test_constant_columns_zero(self):
        Y = np.ones((5, 2))
        assert np.allclose(sample_covariance(Y), 0.0)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((1, 3)))

    @settings(max_examples=200, deadline=None)
    @given(
        Y=arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.integers(1, 40)),
            elements=st.floats(-1e3, 1e3),
        ),
        layout=st.sampled_from(["C", "F", "reversed", "strided"]),
    )
    def test_exactly_symmetric(self, Y, layout):
        # numpy runs X'X as one symmetric rank-k update, whatever the layout.
        views = {
            "C": Y,
            "F": np.asfortranarray(Y),
            "reversed": Y[:, ::-1],
            "strided": np.repeat(Y, 2, axis=1)[:, ::2],
        }
        S = sample_covariance(views[layout])
        assert np.array_equal(S, S.T)


class TestSampleCorrelation:
    def test_unit_diagonal(self):
        rng = np.random.Generator(np.random.Philox(5))
        Y = rng.normal(size=(20, 4))
        C = sample_correlation(Y)
        assert np.allclose(np.diag(C), 1.0)
        assert np.all(np.abs(C) <= 1.0)

    def test_perfect_correlation(self):
        x = np.arange(10.0)
        Y = np.column_stack([x, 2 * x + 1])
        C = sample_correlation(Y)
        assert C[0, 1] == pytest.approx(1.0)

    def test_anticorrelation(self):
        x = np.arange(10.0)
        Y = np.column_stack([x, -x])
        assert sample_correlation(Y)[0, 1] == pytest.approx(-1.0)

    def test_degenerate_column(self):
        Y = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(ValueError, match="degenerate column.*index 1"):
            sample_correlation(Y)

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.Philox(11))
        Y = rng.normal(size=(30, 5))
        D = np.array([0.1, 2.0, 5.0, 0.7, 1.3])
        C1 = sample_correlation(Y)
        C2 = sample_correlation(Y * D)
        assert np.allclose(sym_eigenvalues(C1), sym_eigenvalues(C2), atol=1e-10)


class TestCorrFromCov:
    def test_hand_values(self):
        S = np.array([[4.0, 2.0], [2.0, 9.0]])
        G = corr_from_cov(S)
        assert np.allclose(np.diag(G), 1.0)
        assert G[0, 1] == pytest.approx(2.0 / 6.0)

    def test_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            corr_from_cov(np.array([[0.0, 0.0], [0.0, 1.0]]))

    @given(
        arrays(np.float64, (5, 5), elements=st.floats(-1e100, 1e100)),
        arrays(np.float64, (5,), elements=st.floats(1e-100, 1e100)),
    )
    @settings(max_examples=100, deadline=None)
    def test_exactly_symmetric_unit_diagonal_bounded(self, B, d):
        # Any symmetric S with a positive diagonal, positive semidefinite or
        # not; entries of C past +-1 are clipped.
        S = (B + B.T) / 2
        np.fill_diagonal(S, d)
        C = corr_from_cov(S)
        assert C.tobytes() == C.T.tobytes()
        assert np.all(np.diag(C) == 1.0)
        assert np.all(np.abs(C) <= 1.0)


class TestToeplitzCorr:
    def test_entries(self):
        for p in (1, 2, 4, 9):
            for r in (0.5, -0.7, 0.999):
                G = toeplitz_corr(p, r)
                i, j = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
                assert np.array_equal(G, r ** np.abs(i - j))
                assert G.flags.c_contiguous and G.flags.writeable

    def test_identity_at_zero(self):
        assert np.array_equal(toeplitz_corr(3, 0.0), np.eye(3))

    def test_r_range(self):
        with pytest.raises(ValueError):
            toeplitz_corr(3, 1.0)

    def test_p_positive(self):
        with pytest.raises(ValueError):
            toeplitz_corr(0, 0.5)


class TestMatrixSqrtPsd:
    def test_square_recovers(self):
        rng = np.random.Generator(np.random.Philox(9))
        B = rng.normal(size=(5, 5))
        A = B @ B.T
        R = matrix_sqrt_psd(A)
        assert np.allclose(R @ R, A, atol=1e-10)
        assert np.allclose(R, R.T)

    def test_diagonal(self):
        R = matrix_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(R, np.diag([2.0, 3.0]))

    def test_not_psd(self):
        with pytest.raises(ValueError, match="not PSD"):
            matrix_sqrt_psd(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_tiny_negative_clamped(self):
        A = np.diag([1.0, -1e-14])
        R = matrix_sqrt_psd(A)
        assert R[1, 1] == 0.0


class TestAsSymMatrix:
    def test_averages_rounding(self):
        A = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
        S = as_sym_matrix(A)
        assert S[0, 1] == S[1, 0]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            as_sym_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            as_sym_matrix(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "A",
        [
            [[1.5e308, 1.0], [1.0, 1.0]],  # exactly symmetric
            [[1.0, 1.5e308], [np.nextafter(1.5e308, 0.0), 1.0]],  # within SYM_RTOL
        ],
    )
    def test_entries_near_float_max_stay_finite(self, A):
        A = np.array(A)
        assert np.max(np.abs(A - A.T)) <= SYM_RTOL * np.max(np.abs(A))
        with np.errstate(over="raise"):
            S = as_sym_matrix(A)
        assert S[0, 1] == S[1, 0] and np.all(np.isfinite(S))
        assert np.all(np.isfinite(sym_eigenvalues(A)))


class TestInputsUntouched:
    """Results are built in arrays of their own: the caller's are never
    shared, changed or made read-only."""

    @pytest.mark.parametrize("check", [as_sym_matrix, as_corr_matrix])
    @pytest.mark.parametrize("nudge", [0.0, 1e-14])
    def test_validated_matrix_shares_no_memory(self, check, nudge):
        A = toeplitz_corr(5, 0.5)
        A[0, 1] += nudge
        for M in (A, A.T, np.asfortranarray(A)):
            before = M.tobytes()
            S = check(M)
            assert not np.shares_memory(S, M)
            assert S.flags.writeable and M.flags.writeable and M.tobytes() == before

    def test_sym_eigenvalues_leaves_input(self):
        tiny = np.full((4, 4), 1e-160)  # entries below eps^2 max|A| are zeroed
        tiny[0, 1] = tiny[1, 0] = 2.5
        for M in (tiny, toeplitz_corr(6, 0.3), np.asfortranarray(tiny)):
            before = M.tobytes()
            sym_eigenvalues(M)
            assert M.tobytes() == before

    @pytest.mark.parametrize(
        "build",
        [
            sample_covariance,
            sample_correlation,
            lambda Y: scaled_gram(Y, 3),
            lambda Y: corr_from_cov(Y.T @ Y),
        ],
    )
    def test_data_matrix_unchanged(self, build):
        Y = np.random.Generator(np.random.Philox(3)).normal(size=(20, 5)) + 2.0
        before = Y.tobytes()
        M = build(Y)
        assert Y.tobytes() == before and not np.shares_memory(M, Y)


class TestCsvRoundTrips:
    def test_matrix(self, tmp_path):
        M = np.array([[1.5, -2.0], [0.25, 1e-9]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        assert np.array_equal(load_matrix_csv(path), M)

    def test_spectrum(self, tmp_path):
        eigs = np.array([-1.0, 0.0, 2.5])
        path = tmp_path / "e.csv"
        write_spectrum_csv(path, eigs)
        assert np.array_equal(load_spectrum_csv(path), eigs)

    def test_spectrum_must_ascend(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2.0\n1.0\n")
        with pytest.raises(ValueError):
            load_spectrum_csv(path)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("# eigenvalues\n\n0.5\n1.5  # last\n")
        assert np.array_equal(load_spectrum_csv(path), [0.5, 1.5])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_spectrum_from_a_pipe(self):
        # The file is read once: a pipe cannot be read a second time.
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as w:
            w.write("# eigenvalues\n0.5\n1.5\n")
        with os.fdopen(read_end) as r:
            assert np.array_equal(load_spectrum_csv(f"/dev/fd/{r.fileno()}"), [0.5, 1.5])

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n"])
    @pytest.mark.parametrize("load", [load_matrix_csv, load_spectrum_csv])
    def test_no_data_rows_refused(self, tmp_path, text, load):
        path = tmp_path / "none.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="none.csv has no data rows"):
                load(path)


def _sym_strategy(n, scale=5.0):
    return arrays(
        np.float64,
        (n, n),
        elements=st.floats(min_value=-scale, max_value=scale, allow_nan=False),
    ).map(lambda B: (B + B.T) / 2)


@given(_sym_strategy(4), _sym_strategy(4, scale=0.5))
@settings(max_examples=60, deadline=None)
def test_weyl_perturbation(A, E):
    # |lam_i(A+E) - lam_i(A)| <= ||E||_2 for every i
    gap = np.max(np.abs(sym_eigenvalues(A + E) - sym_eigenvalues(A)))
    assert gap <= operator_norm(E) + 1e-9


@given(_sym_strategy(4))
@settings(max_examples=60, deadline=None)
def test_norm_is_max_abs_eigenvalue(A):
    eigs = sym_eigenvalues(A)
    assert operator_norm(A) == pytest.approx(np.max(np.abs(eigs)), abs=1e-12)


@given(
    _sym_strategy(5),
    arrays(
        np.float64,
        (5,),
        elements=st.floats(min_value=-3, max_value=3, allow_nan=False),
    ),
)
@settings(max_examples=60, deadline=None)
def test_rank_one_update_ecdf(A, v):
    # A rank-one update moves the spectral ECDF by at most 1/p in sup norm.
    p = A.shape[0]
    e1 = sym_eigenvalues(A)
    e2 = sym_eigenvalues(A + np.outer(v, v))
    grid = np.concatenate([e1, e2])
    # Tolerance band absorbs eigvalsh rounding at coincident eigenvalues.
    eps = 1e-8 * (1.0 + np.max(np.abs(grid)))
    lo1 = np.searchsorted(e1, grid, side="right") / p
    hi1 = np.searchsorted(e1, grid + eps, side="right") / p
    lo2 = np.searchsorted(e2, grid, side="right") / p
    hi2 = np.searchsorted(e2, grid + eps, side="right") / p
    assert np.max(lo1 - hi2) <= 1.0 / p + 1e-12
    assert np.max(lo2 - hi1) <= 1.0 / p + 1e-12


@given(_sym_strategy(4))
@settings(max_examples=40, deadline=None)
def test_orthogonal_invariance(A):
    rng = np.random.Generator(np.random.Philox(42))
    Q, _ = np.linalg.qr(rng.normal(size=A.shape))
    assert np.allclose(
        sym_eigenvalues(Q @ A @ Q.T), sym_eigenvalues(A), atol=1e-8
    )
