"""Dense real symmetric-matrix kernels.

Eigendecomposition, operator norm, sample covariance/correlation, and the
structured population matrices used by the experiments. Matrices are plain
float64 numpy arrays; validation helpers enforce the symmetric-input
contract before anything reaches LAPACK.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "as_sym_matrix",
    "as_corr_matrix",
    "sym_eigenvalues",
    "operator_norm",
    "sample_covariance",
    "sample_correlation",
    "corr_from_cov",
    "toeplitz_corr",
    "matrix_sqrt_psd",
    "copula_cov",
    "load_matrix_csv",
    "load_spectrum_csv",
]

# Inputs are symmetrized when the asymmetry is within this relative
# tolerance; anything larger is treated as caller error.
SYM_RTOL = 1e-12
# matrix_sqrt_psd clamps eigenvalues in [-PSD_TOL * ||M||_2, 0) to zero.
PSD_TOL = 1e-10
# sym_eigenvalues zeroes entries below this fraction of the largest one.
_TINY_RTOL = np.finfo(np.float64).eps ** 2


def _as_matrix(M, name: str = "matrix") -> NDArray[np.float64]:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} must have finite entries")
    return A


def as_sym_matrix(M, name: str = "matrix") -> NDArray[np.float64]:
    """Validate a symmetric matrix and return its exactly symmetric form.

    Asymmetry up to SYM_RTOL relative to the entry scale is removed by
    averaging with the transpose; larger asymmetry raises.
    """
    A = _as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if asym > SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    return (A + A.T) / 2.0


def as_corr_matrix(M, name: str = "R") -> NDArray[np.float64]:
    """as_sym_matrix plus a unit diagonal within 1e-12."""
    A = as_sym_matrix(M, name)
    if np.any(np.abs(np.diag(A) - 1.0) > 1e-12):
        raise ValueError(f"{name} must have unit diagonal")
    return A


def sym_eigenvalues(M) -> NDArray[np.float64]:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    Nonzero entries below eps^2 * max|A| are zeroed first, which moves each
    eigenvalue by at most p * eps^2 * max|A|: eigvalsh loses accuracy when
    entries' squares are subnormal (+-2.50035 for +-2.5 with 1e-160
    entries). Exact zeros are left alone, so -0.0 keeps its sign.
    """
    A = as_sym_matrix(M)
    mag = np.abs(A)
    A[(mag < _TINY_RTOL * mag.max(initial=0.0)) & (A != 0.0)] = 0.0
    return np.linalg.eigvalsh(A)


def operator_norm(M) -> float:
    """Spectral norm of a symmetric matrix: max |eigenvalue|."""
    eigs = sym_eigenvalues(M)
    return float(np.max(np.abs(eigs)))


def _as_data_matrix(Y, min_rows: int = 1) -> NDArray[np.float64]:
    A = _as_matrix(Y, "data matrix")
    if A.shape[0] < min_rows:
        raise ValueError(f"data matrix needs at least {min_rows} rows, got {A.shape[0]}")
    return A


def sample_covariance(Y) -> NDArray[np.float64]:
    """Column-centered X'X scaled by 1/(n-1); numpy makes X'X exactly symmetric."""
    A = _as_data_matrix(Y, min_rows=2)
    centered = A - A.mean(axis=0)
    return centered.T @ centered / (A.shape[0] - 1)


def _degenerate_columns(Y: NDArray[np.float64], variances: NDArray[np.float64]) -> NDArray[np.bool_]:
    # A constant column can leave O(eps)-sized centering residue, so compare
    # the variance against the squared rounding scale of the column.
    col_scale = np.maximum(1.0, np.max(np.abs(Y), axis=0))
    return variances <= (1e-12 * col_scale) ** 2


def sample_correlation(Y) -> NDArray[np.float64]:
    """Sample correlation matrix; unit diagonal exactly, entries in [-1, 1]."""
    A = _as_data_matrix(Y, min_rows=2)
    S = sample_covariance(A)
    bad = np.nonzero(_degenerate_columns(A, np.diag(S)))[0]
    if bad.size:
        raise ValueError(f"degenerate column (zero variance) at index {bad[0]}")
    return corr_from_cov(S)


def corr_from_cov(S) -> NDArray[np.float64]:
    """Correlation matrix of a covariance matrix: D^{-1/2} S D^{-1/2}."""
    A = as_sym_matrix(S, "covariance matrix")
    d = np.diag(A).copy()
    if np.any(d <= 0):
        raise ValueError("covariance matrix has a nonpositive diagonal entry")
    root = np.sqrt(d)
    # A and the outer product are exactly symmetric, so C is as well.
    C = np.clip(A / np.outer(root, root), -1.0, 1.0)
    np.fill_diagonal(C, 1.0)
    return C


def toeplitz_corr(p: int, r: float) -> NDArray[np.float64]:
    """Correlation matrix with entries r^|i-j| (positive definite for |r| < 1)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    r = float(r)
    if not np.isfinite(r) or abs(r) >= 1:
        raise ValueError("r must satisfy |r| < 1")
    # Row i of the reversed windows of r^|k|, k = 1-p..p-1, is r^|j-i|.
    c = r ** np.abs(np.arange(1 - p, p))
    return np.lib.stride_tricks.sliding_window_view(c, p)[::-1].copy()


def matrix_sqrt_psd(M) -> NDArray[np.float64]:
    """Symmetric PSD square root; eigenvalues in [-1e-10*||M||, 0) are clamped."""
    A = as_sym_matrix(M)
    eigvals, eigvecs = np.linalg.eigh(A)
    scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    if eigvals.size and eigvals[0] < -PSD_TOL * max(scale, 1e-300):
        raise ValueError(f"not PSD: smallest eigenvalue {eigvals[0]:.3e} below tolerance")
    eigvals = np.clip(eigvals, 0.0, None)
    Q = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    return (Q + Q.T) / 2.0


def copula_cov(R) -> NDArray[np.float64]:
    """Covariance arcsin(R_ij/2)/(2 pi) of copula data built from N(0, R)."""
    R = as_corr_matrix(R)
    if np.any(np.abs(R) > 1.0 + 1e-12):
        raise ValueError("R entries must lie in [-1, 1]")
    C = np.arcsin(R / 2.0) / (2.0 * np.pi)
    # arcsin(1/2) rounds one ulp above pi/6; the marginal variance is 1/12.
    np.fill_diagonal(C, 1.0 / 12.0)
    return C


def load_matrix_csv(path) -> NDArray[np.float64]:
    M = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    return _as_matrix(M)


def load_spectrum_csv(path) -> NDArray[np.float64]:
    eigs = np.loadtxt(path, ndmin=1, dtype=np.float64)
    if eigs.ndim != 1:
        raise ValueError("spectrum CSV must contain one eigenvalue per line")
    if not np.all(np.isfinite(eigs)):
        raise ValueError("spectrum must be finite")
    if np.any(np.diff(eigs) < 0):
        raise ValueError("spectrum must be sorted ascending")
    return eigs
