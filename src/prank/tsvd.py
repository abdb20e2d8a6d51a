"""Dense SVD with a deterministic sign convention, Hankel matrix
construction, selector-truncated Hankel reconstruction and SSA
(anti-diagonal averaging) inversion.

Hankel filtering does not run a dense SVD: ``gram_tsvd`` takes the singular
values and one side's singular vectors from a single eigendecomposition of
the smaller Gram matrix and reconstructs by projection.  Squaring the matrix
costs the components below about sqrt(eps) * sigma_1 (1.5e-8 relative to
the matrix norm); everything above that matches the dense SVD.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConvergenceError, NonFiniteError, WindowError
from .report import StageRecord
from .selection import FixedRank, SelectionStrategy, evaluate


@dataclass(frozen=True)
class SVDFactorization:
    """A = U diag(S) V^H with orthonormal columns and nonincreasing S."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def svd(A: np.ndarray) -> SVDFactorization:
    """Economy SVD of a matrix or of a stack (..., m, n), deterministic up to
    the backend for a fixed input; each matrix of a stack factors as alone.

    ``_pivot_phase`` rotates each left vector so its largest-magnitude entry
    is real and positive, and the matching right vector alike, so U diag(S)
    V^H is unchanged.  NaN or infinite entries raise NonFiniteError, a
    backend failure ConvergenceError.
    """
    A = _finite(A)
    try:
        U, S, Vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    V = np.swapaxes(Vh.conj(), -1, -2)
    rot = _pivot_phase(U)
    return SVDFactorization(U * rot, S, V * rot)


def _pivot_phase(U: np.ndarray) -> np.ndarray:
    """Unit factors conj(p) / |p|, shape (..., 1, n), with p the
    largest-magnitude entry of each (nonzero) column of U: multiplied in,
    they make p real and positive.  For real U they are exactly +-1.0."""
    idx = np.argmax(np.abs(U), axis=-2)[..., None, :]
    pivots = np.take_along_axis(U, idx, axis=-2)
    return np.conj(pivots) / np.abs(pivots)


def _finite(A) -> np.ndarray:
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise NonFiniteError("matrix entries must be finite")
    return A


def auto_window(n: int) -> int:
    """Near-square default: maximizes min(L, K) to maximize separable rank."""
    return n // 2 + 1


def hankelize(series: np.ndarray, window: Optional[int] = None) -> np.ndarray:
    """The L x (n - L + 1) array H[a, b] = series[a + b], L = ``window`` or
    ``auto_window(n)``; n and L are H.shape[0] + H.shape[1] - 1 and H.shape[0]."""
    series = np.asarray(series)
    n = len(series)
    if n < 2:
        raise WindowError(f"series too short ({n} samples)")
    L = auto_window(n) if window is None else int(window)
    if not 1 <= L <= n:
        raise WindowError(f"window {L} outside [1, {n}]")
    K = n - L + 1
    return series[np.arange(L)[:, None] + np.arange(K)[None, :]]


def dehankelize_ssa(M: np.ndarray) -> np.ndarray:
    """Average each anti-diagonal back into a series of length L + K - 1.

    Real and imaginary parts are averaged independently.  The mean is taken
    around each anti-diagonal's first element so a matrix that is exactly
    Hankel inverts bit-exactly (deviations are identically zero there).
    """
    M = np.asarray(M)
    L, K = M.shape
    n = L + K - 1
    idx = np.arange(L)[:, None] + np.arange(K)[None, :]
    flat_idx = idx.ravel()
    counts = np.bincount(flat_idx, minlength=n)
    # anchor: first element along each anti-diagonal
    anchor = np.concatenate([M[0, :], M[1:, K - 1]])
    dev = M - anchor[idx]
    real = np.bincount(flat_idx, weights=dev.real.ravel(), minlength=n)
    if np.iscomplexobj(M):
        imag = np.bincount(flat_idx, weights=dev.imag.ravel(), minlength=n)
        return anchor + (real + 1j * imag) / counts
    return anchor.real + real / counts


def gram_tsvd(A: np.ndarray, selector: SelectionStrategy):
    """Selector-truncated reconstruction of A from its smaller Gram matrix.

    One ``eigh`` of G = A A^H (rows <= cols) or A^H A gives the singular
    values S = sqrt(max(w, 0)) of A, nonincreasing, and the singular vectors
    Q of that side.  The rank-r result is the projection
    Q_r diag(c / s) Q_r^H A, or A Q_r diag(c / s) Q_r^H, where c are the
    e15-cleaned values (c <= s) and c / s = 1 for every other selector;
    c / s = 0 where s = 0.  The scale never exceeds 1, so small singular
    values amplify nothing.  Singular values below about sqrt(eps) * S[0]
    are rounding noise.

    Returns (filtered, S, rank, model) with model the E15Model or None.
    """
    A = _finite(A)
    Ah = A.conj().T
    rows = A.shape[0] <= A.shape[1]
    try:
        w, Q = np.linalg.eigh(A @ Ah if rows else Ah @ A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    S = np.sqrt(np.maximum(w[::-1], 0.0))
    rank, model = evaluate(S, A.shape, selector)
    Qr = Q[:, ::-1][:, :rank]
    if model is None:
        scale = np.ones(rank)
    else:
        scale = np.divide(model.cleaned_s, S[:rank], out=np.zeros(rank), where=S[:rank] > 0)
    Qrh = Qr.conj().T
    filtered = (Qr * scale) @ (Qrh @ A) if rows else ((A @ Qr) * scale) @ Qrh
    return filtered, S, rank, model


def hankel_tsvd_series(
    series: np.ndarray,
    window: Optional[int] = None,
    selector: Union[SelectionStrategy, None] = None,
):
    """Hankelize, truncate by the selector, SSA back to a same-length series.

    Returns (filtered_series, StageRecord).  The truncation runs through
    ``gram_tsvd``; e15 selectors use the cleaned singular values in the
    reconstruction.
    """
    series = np.asarray(series)
    if len(series) < 4:
        raise WindowError(f"series too short for Hankel filtering ({len(series)} samples)")
    if selector is None:
        selector = FixedRank(len(series))
    t0 = time.perf_counter()
    H = hankelize(series, window)
    filtered, S, rank, model = gram_tsvd(H, selector)
    out = dehankelize_ssa(filtered)
    record = StageRecord(
        name="hankel",
        shape=H.shape,
        singular_values=S,
        rank=rank,
        model=model,
        seconds=time.perf_counter() - t0,
    )
    return out, record
