"""Dense SVD with a deterministic sign convention, selector-truncated
reconstruction, Hankel matrix construction and SSA (anti-diagonal
averaging) inversion.

Truncation does not run a dense SVD: ``_gram`` takes the singular values
and one side's singular vectors of a matrix, or of every matrix of a stack,
from one eigendecomposition of the smaller Gram matrix, selects the ranks
and returns the truncation as factors, (lhs * scale) @ rhs on either side.
``gram_tsvd`` forms that product for the Hankel and the per-line classic
filters; the PRF stage (``filters._unfolded``) returns the factors, and the
PRF filter, HiP and ``prf_tsvd`` each rebuild from them.  Squaring costs
the components below about sqrt(eps) * sigma_1 (1.5e-8 of each matrix's
norm); everything above that matches the dense SVD, which only ``svd``
runs.  Each matrix is normalised by a power of two before it is squared,
so finite data of any magnitude is taken.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NonFiniteError, ShapeError, WindowError
from .report import StageRecord
from .selection import E15, SelectionStrategy, _unit_exponent, evaluate


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
    largest-magnitude entry of each column of U: multiplied in, they make p
    real and positive.  For real U they are exactly +-1.0; a zero column
    gets 1."""
    idx = np.argmax(np.abs(U), axis=-2)[..., None, :]
    pivots = np.take_along_axis(U, idx, axis=-2)
    mag = np.abs(pivots)
    return np.divide(np.conj(pivots), mag, out=np.ones_like(pivots), where=mag > 0)


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
    L = _window(n, window)
    K = n - L + 1
    return series[np.arange(L)[:, None] + np.arange(K)[None, :]]


def _window(n: int, window: Optional[int]) -> int:
    """The window length L of an n-sample series: ``window`` or ``auto_window(n)``, in [1, n].
    A ``window`` that is not an integer (a bool or a float) raises WindowError, never floored."""
    if window is not None and (isinstance(window, bool) or not isinstance(window, Integral)):
        raise WindowError(f"window must be an integer, got {window!r}")
    L = auto_window(n) if window is None else int(window)
    if not 1 <= L <= n:
        raise WindowError(f"window {L} outside [1, {n}]")
    return L


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


def _gram(A: np.ndarray, selector: SelectionStrategy):
    """The one Gram path of ``gram_tsvd`` and the PRF stage.

    One ``eigh`` of G = A A^H (m <= n) or A^H A, stacked for a stack (..., m,
    n), gives the singular values S = sqrt(max(w, 0)) of each matrix,
    nonincreasing, and the singular vectors of that side; one ``evaluate``
    selects every rank.  The scale c / s of each of the first r = max(rank)
    values is the e15-cleaned value over s (c <= s), 1 for every other
    selector, and 0 beyond a matrix's own rank or where s = 0.

    Finite data of any magnitude is taken: squaring would overflow above
    about 1e154 and underflow below about 1e-154, so each matrix is first
    normalised by a power of two (``_unit_exponent``) and S is scaled back,
    exactly.  Every selector sees S itself (e15 normalises what it squares;
    an absolute threshold is not scale-free); only e15's shape rule is
    checked here, before the eigendecomposition.  NaN or infinite entries
    raise NonFiniteError, a backend failure ConvergenceError.

    Returns (S, rank, model, lhs, rhs, scale), the truncation being
    (lhs * scale) @ rhs, scale of shape (..., 1, r): lhs = U_r and
    rhs = U_r^H A when m <= n, else lhs = A V_r and rhs = V_r^H.
    """
    A = np.asarray(A)
    if isinstance(selector, E15) and min(A.shape[-2:]) < 2:
        raise ShapeError(f"e15 on a {A.shape[-2]} x {A.shape[-1]} matrix: one value is its own noise tail")
    e = _unit_exponent(A, (-2, -1))
    An = A * np.ldexp(1.0, e)[..., None, None]
    Anh = np.swapaxes(An.conj(), -1, -2)
    left = A.shape[-2] <= A.shape[-1]
    try:
        w, Q = np.linalg.eigh(An @ Anh if left else Anh @ An)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    S = np.ldexp(np.sqrt(np.maximum(w[..., ::-1], 0.0)), -e[..., None])
    rank, model = evaluate(S, A.shape[-2:], selector)
    r = int(np.max(rank, initial=0))
    s = S[..., :r]
    if model is None:
        scale = (np.arange(r) < np.expand_dims(rank, -1)) * 1.0
    else:
        scale = np.divide(model.cleaned_s[..., :r], s, out=np.zeros(s.shape), where=s > 0)
    Qr = Q[..., ::-1][..., :r]
    Qrh = np.swapaxes(Qr.conj(), -1, -2)
    lhs, rhs = (Qr, Qrh @ A) if left else (A @ Qr, Qrh)
    return S, rank, model, lhs, rhs, scale[..., None, :]


def gram_tsvd(A: np.ndarray, selector: SelectionStrategy):
    """Selector-truncated reconstruction of a matrix, or of each matrix of a
    stack (..., m, n), from its smaller Gram matrix (``_gram``).

    Each rank-r result is ``_gram``'s (lhs * scale) @ rhs, the projection
    Q_r diag(c / s) Q_r^H A, or A Q_r diag(c / s) Q_r^H, where c are the
    e15-cleaned values (c <= s) and c / s = 1 for every other selector;
    c / s = 0 where s = 0.  A stack projects every matrix onto its first
    max(rank) vectors, with scale 0 beyond its own rank.  The scale never exceeds 1, so small singular
    values amplify nothing.  Finite data of any magnitude is taken, since
    each matrix is normalised by a power of two before it is squared.
    Squaring costs the components below about sqrt(eps) = 1.5e-8 of each
    matrix's norm: its singular values there are rounding noise.

    Returns (filtered, S, rank, model): rank an int and model the E15Model
    or None; for a stack, ranks of shape A.shape[:-2] and the stacked model.
    """
    S, rank, model, lhs, rhs, scale = _gram(A, selector)
    return (lhs * scale) @ rhs, S, rank, model


def hankel_tsvd_series(series: np.ndarray, window: Optional[int], selector: SelectionStrategy):
    """Hankelize, truncate by the selector, SSA back to a same-length series,
    for one series or each row of a stack (..., length), one ``gram_tsvd``
    call per row; e15 selectors use the cleaned singular values.  Returns
    (filtered, record): filtered shaped as ``series``, and the
    ``StageRecord.of_calls`` record "hankel" of every call's spectrum, rank
    and e15 fields."""
    series = np.asarray(series)
    length = series.shape[-1]
    if length < 4:
        raise WindowError(f"series too short for Hankel filtering ({length} samples)")
    t0 = time.perf_counter()
    L = _window(length, window)
    shape = (L, length - L + 1)
    rows = series.reshape(-1, length)
    out, calls = np.empty_like(rows), []
    for j, row in enumerate(rows):
        # a stack of one, so every field comes stacked (cleaned_s zero-padded)
        filtered, *call = gram_tsvd(hankelize(row, L)[None], selector)
        out[j] = dehankelize_ssa(filtered[0])
        calls.append(call)
    record = StageRecord.of_calls("hankel", shape, calls, time.perf_counter() - t0)
    return out.reshape(series.shape), record
