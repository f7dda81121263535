"""Dense real symmetric-matrix kernels.

Eigendecomposition, operator norm, sample covariance/correlation, and the
structured population matrices used by the experiments. Matrices are plain
float64 numpy arrays; validation helpers enforce the symmetric-input
contract before anything reaches LAPACK. Symmetry is first checked on the
bit patterns, so an exactly symmetric matrix (every X'X numpy builds, every
correlation and Toeplitz matrix) is validated without a copy.
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


def _symmetric(M, name: str) -> NDArray[np.float64]:
    """M as a float64 matrix, checked symmetric: M's own buffer when it is
    bit for bit equal to its transpose, else a new array averaged with it."""
    A = _as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    bits = A.view(np.uint64)
    if np.array_equal(bits, bits.T):
        return A
    scale = max(1.0, float(np.max(np.abs(A))))
    asym = float(np.max(np.abs(A - A.T)))
    if asym > SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    # Halves first, so entries near the float64 maximum do not overflow;
    # the same bytes as (A + A.T)/2 wherever neither half is subnormal.
    return 0.5 * A + 0.5 * A.T


def as_sym_matrix(M, name: str = "matrix") -> NDArray[np.float64]:
    """Validate a symmetric matrix and return its exactly symmetric form, in
    memory of its own. An exactly symmetric M is validated without a copy and
    copied once; asymmetry up to SYM_RTOL relative to the entry scale is
    removed by averaging with the transpose; larger asymmetry raises.
    """
    A = _symmetric(M, name)
    return A.copy() if np.may_share_memory(A, M) else A


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
    entries). Exact zeros are left alone, so -0.0 keeps its sign. An exactly
    symmetric M with no such entry goes to eigvalsh as it is, with no copy;
    M itself is never changed.
    """
    A = _symmetric(M, "matrix")
    t = _TINY_RTOL * max(A.max(initial=0.0), -A.min(initial=0.0))
    tiny = (-t < A) & (A < t) & (A != 0.0)
    if tiny.any():
        A = np.where(tiny, 0.0, A)
    del tiny
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
    S = centered.T @ centered
    S /= A.shape[0] - 1
    return S


def _degenerate_columns(Y: NDArray[np.float64], variances: NDArray[np.float64]) -> NDArray[np.bool_]:
    # A constant column can leave O(eps)-sized centering residue, so compare
    # the variance against the squared rounding scale of the column.
    col_scale = np.maximum(1.0, np.maximum(Y.max(axis=0), -Y.min(axis=0)))
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
    A = _symmetric(S, "covariance matrix")
    d = np.diag(A).copy()
    if np.any(d <= 0):
        raise ValueError("covariance matrix has a nonpositive diagonal entry")
    root = np.sqrt(d)
    # A and the outer product are exactly symmetric, so C is as well.
    C = np.outer(root, root)
    np.divide(A, C, out=C)
    np.clip(C, -1.0, 1.0, out=C)
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
    A = _symmetric(M, "matrix")
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


def _load_csv(path, ndmin: int, delimiter=None, skiprows: int = 0) -> NDArray[np.float64]:
    """np.loadtxt of a text file, read once (a pipe works too) and refused before
    numpy parses it when no data row (blank and '#' lines do not count) follows
    its first skiprows lines."""
    with open(path) as f:
        lines = f.readlines()
    if not any(line.split("#", 1)[0].strip() for line in lines[skiprows:]):
        raise ValueError(f"{path} has no data rows")
    return np.loadtxt(lines, delimiter=delimiter, skiprows=skiprows, ndmin=ndmin, dtype=np.float64)


def load_matrix_csv(path) -> NDArray[np.float64]:
    return _as_matrix(_load_csv(path, 2, delimiter=","))


def load_spectrum_csv(path) -> NDArray[np.float64]:
    eigs = _load_csv(path, 1)
    if eigs.ndim != 1:
        raise ValueError("spectrum CSV must contain one eigenvalue per line")
    if not np.all(np.isfinite(eigs)):
        raise ValueError("spectrum must be finite")
    if np.any(np.diff(eigs) < 0):
        raise ValueError("spectrum must be sorted ascending")
    return eigs
