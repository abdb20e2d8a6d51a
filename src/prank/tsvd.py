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

The Hankel row stage (``hankel_tsvd_series``) runs the same three steps on
each row's Hankel matrix, read as a window view of the row, with the
selection inside the eigendecomposition (``_split_eig``): the whole
spectrum, the selection, then only the r kept vectors.  It averages the
anti-diagonals straight from the rank-r factors with FFTs; ``hankelize``
and ``dehankelize_ssa`` remain as the reference forms.

The row stage has two BLAS platforms.  ``_openblas`` binds, with ctypes,
the library that numpy.linalg links, whole or not at all (``_bind``): the
ten symbols of numpy's wheel OpenBLAS, its thread-count pair
scipy_openblas_{get,set}_num_threads64_, its pool shutdown
blas_thread_shutdown_ and the seven ILP64 LAPACKE routines of the split
kernel (scipy_LAPACKE_..64_).  With all ten, each row runs the split
kernel, and the rows spend the BLAS thread budget, one row per thread with
OpenBLAS held at one thread (``_each_row``); the hold is process-wide,
so BLAS calls from other threads run at one thread until the stage ends,
and a lone row is held too.  OpenBLAS's idle pool threads spin-wait for a
while after each threaded call, and holding the count at one does not stop
them, so a stage whose caller is the process's only Python thread shuts the
pool down before its rows and again after it restores the count, which
re-creates the pool; the next threaded BLAS call starts it anew.  Without
any one of them (MKL, a system or conda OpenBLAS, a failed open), each row
takes one full ``eigh`` (``_eig``), the rows run serially and BLAS is left
alone.  Only Linux with numpy's wheel was run.
"""

from __future__ import annotations

import ctypes
import threading
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from numbers import Integral
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError, DimensionMismatch, ShapeError, WindowError
from .report import StageRecord
from .selection import E15, SelectionStrategy, _finite, _select, _unit_exponent, evaluate


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
    V^H is unchanged.  Fewer than 2 dimensions raise DimensionMismatch, NaN
    or infinite entries NonFiniteError, a backend failure ConvergenceError.
    """
    A = _finite(_matrices(A))
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


def _matrices(A) -> np.ndarray:
    """``A`` as an array, one matrix or a stack (..., m, n); fewer than 2 dimensions raise DimensionMismatch."""
    A = np.asarray(A)
    if A.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got ndim={A.ndim}")
    return A


def auto_window(n: int) -> int:
    """Near-square default: maximizes min(L, K) to maximize separable rank."""
    return n // 2 + 1


def hankelize(series: np.ndarray, window: Optional[int] = None) -> np.ndarray:
    """The L x (n - L + 1) array H[a, b] = series[a + b], L = ``window`` or
    ``auto_window(n)``; n and L are H.shape[0] + H.shape[1] - 1 and H.shape[0].
    A series that is not 1-D raises DimensionMismatch."""
    series = np.asarray(series)
    if series.ndim != 1:
        raise DimensionMismatch(f"hankelize takes a 1-D series, got ndim={series.ndim}")
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
    A matrix that is not 2-D raises DimensionMismatch.
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise DimensionMismatch(f"dehankelize_ssa takes a 2-D matrix, got ndim={M.ndim}")
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


def _check_e15_shape(shape, selector: SelectionStrategy):
    """e15's shape rule, checked before the eigendecomposition: a 1 x n or n
    x 1 matrix has one value, its own noise tail, so it raises ShapeError."""
    if isinstance(selector, E15) and min(shape) < 2:
        raise ShapeError(f"e15 on a {shape[0]} x {shape[1]} matrix: one value is its own noise tail")


def _normal_gram(A: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of each A * 2^e of a stack (..., m, n): An An^H
    (m <= n) or An^H An.  ``e`` holds one exponent per matrix
    (``_unit_exponent``), so squaring neither overflows nor underflows; the
    normalised copy is dropped on return."""
    An = A * np.ldexp(1.0, e)[..., None, None]
    Anh = np.swapaxes(An.conj(), -1, -2)
    return An @ Anh if A.shape[-2] <= A.shape[-1] else Anh @ An


def _singular_values(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """S = sqrt(max(w, 0)) * 2^-e, nonincreasing, from the ascending eigenvalues w of ``_normal_gram``."""
    return np.ldexp(np.sqrt(np.maximum(w[..., ::-1], 0.0)), -e[..., None])


def _eig(A: np.ndarray, e: np.ndarray):
    """(S, Q) of a matrix or stack (..., m, n) from one ``eigh`` of each
    ``_normal_gram``: S nonincreasing and Q the Gram eigenvectors in S's
    order (a reversed view of ``eigh``'s).  A backend failure raises
    ConvergenceError.
    """
    G = _normal_gram(A, e)
    try:
        w, Q = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    return _singular_values(w, e), Q[..., ::-1]


def _rebuild(A: np.ndarray, S: np.ndarray, Q: np.ndarray, rank, model):
    """The factors (lhs, rhs, scale) of the rank-r truncation (lhs * scale) @ rhs
    of A, from S, the Gram eigenvectors Q in S's order (at least r of them:
    ``_eig``'s or ``_split_eig``'s) and a selection's ranks and model, r =
    max(rank).  scale, of shape (..., 1, r), is the e15-cleaned value over s
    (c <= s), 1 for every other selector, and 0 beyond a matrix's own rank or
    where s = 0.  lhs = U_r and rhs = U_r^H A when m <= n, else lhs = A V_r
    and rhs = V_r^H."""
    r = int(np.max(rank, initial=0))
    s = S[..., :r]
    if model is None:
        scale = (np.arange(r) < np.expand_dims(rank, -1)) * 1.0
    else:
        scale = np.divide(model.cleaned_s[..., :r], s, out=np.zeros(s.shape), where=s > 0)
    Qr = Q[..., :r]
    Qrh = np.swapaxes(Qr.conj(), -1, -2)
    lhs, rhs = (Qr, Qrh @ A) if A.shape[-2] <= A.shape[-1] else (A @ Qr, Qrh)
    return lhs, rhs, scale[..., None, :]


def _gram(A: np.ndarray, selector: SelectionStrategy):
    """The one Gram path of ``gram_tsvd`` and the PRF stage: ``_eig``, one
    ``evaluate`` over every matrix's spectrum, then ``_rebuild``.

    Finite data of any magnitude is taken: squaring would overflow above
    about 1e154 and underflow below about 1e-154, so each matrix is first
    normalised by a power of two (``_unit_exponent``) and S is scaled back,
    exactly.  Every selector sees S itself (e15 normalises what it squares;
    an absolute threshold is not scale-free); only e15's shape rule is
    checked here, before the eigendecomposition.  Fewer than 2 dimensions
    raise DimensionMismatch, NaN or infinite entries NonFiniteError, a
    backend failure ConvergenceError.

    Returns (S, rank, model, lhs, rhs, scale), the truncation being
    (lhs * scale) @ rhs.
    """
    A = _matrices(A)
    _check_e15_shape(A.shape[-2:], selector)
    S, Q = _eig(A, _unit_exponent(A, (-2, -1)))
    rank, model = evaluate(S, A.shape[-2:], selector)
    return (S, rank, model) + _rebuild(A, S, Q, rank, model)


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


def _antidiagonal_means(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``dehankelize_ssa(lhs @ rhs)`` for a stack of L x r and r x K factors,
    without forming the product: anti-diagonal t of lhs @ rhs sums to
    sum_i conv(lhs[:, i], rhs[i])[t], taken with one batched FFT of length
    2^ceil(log2 n), n = L + K - 1, and divided by the anti-diagonal's length."""
    L, K = lhs.shape[-2], rhs.shape[-1]
    n = L + K - 1
    size = 1 << (n - 1).bit_length()
    real = not (np.iscomplexobj(lhs) or np.iscomplexobj(rhs))
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    spectrum = np.sum(fft(np.swapaxes(lhs, -1, -2), size) * fft(rhs, size), axis=-2)
    t = np.arange(n)
    return ifft(spectrum, size)[..., :n] / np.minimum(np.minimum(t + 1, n - t), min(L, K))


def _split_eig(A: np.ndarray, e: np.ndarray, select):
    """(S, rank, model, Q) of a stack of one matrix A (1, m, n): S as ``_eig``
    gives it, (rank, model) = select(S), called once on the whole spectrum,
    and Q the first r = max(rank) Gram eigenvectors in S's order, (1, side, r).

    One tridiagonal reduction of the ``_normal_gram`` G (?sytrd/?hetrd)
    yields every eigenvalue (dsterf); only the r kept vectors are found, by
    inverse iteration on the tridiagonal (?stein, O(side * r)), and carried
    back through the reduction's reflectors (?ormtr/?unmtr, O(side^2 * r)):
    no full eigenvector matrix and no divide-and-conquer workspace, and G and
    the reduction are freed on return.  LAPACK reads the C-ordered G as its
    column-major transpose conj(G), so complex vectors come back conjugated.
    Off numpy's wheel (the module docstring's platforms), ``_eig`` runs and
    Q holds all of its vectors.  A nonzero LAPACK info raises ConvergenceError.
    """
    blas = _openblas()
    if blas is None:
        S, Q = _eig(A, e)
        return (S, *select(S), Q)
    G = _normal_gram(A, e)[0]
    reduce, values, inverse_iteration, back_transform = blas.routines[G.dtype]
    n = len(G)
    # the off-diagonal and tau need n - 1 entries; LAPACKE's NaN check of
    # ?stein reads n entries of the shifts, so every buffer has n
    d, off, tau = np.empty(n), np.empty(n), np.empty(n, G.dtype)
    _lapack_call(reduce, _COL_MAJOR, b"L", n, G, n, d, off, tau)
    w, work = d.copy(), off.copy()  # dsterf overwrites both; ?stein needs the tridiagonal
    _lapack_call(values, n, w, work)
    S = _singular_values(w, e)
    rank, model = select(S)
    r = int(np.max(rank, initial=0))
    Z = np.eye(r, n, dtype=G.dtype)  # column-major side x r: row k is vector k
    if r and w[-1] > 0:  # a zero G (an all-zero row) has unit vectors; ?stein would give NaN
        shifts = np.zeros(n)
        shifts[:r] = w[n - r:]  # ascending, as ?stein expects
        block, split, fail = np.ones(n, np.int64), np.full(n, n, np.int64), np.empty(n, np.int64)
        _lapack_call(inverse_iteration, _COL_MAJOR, n, d, off, r, shifts, block, split, Z, n, fail)
        Z = np.ascontiguousarray(Z[::-1])  # S's order
        _lapack_call(back_transform, _COL_MAJOR, b"L", b"L", b"N", n, r, G, n, tau, Z, n)
        np.conjugate(Z, out=Z)  # vectors of conj(G), as LAPACK read it, back to G's
    return S, rank, model, Z.T[None]


def _hankel_row(row: np.ndarray, L: int, select):
    """One row of ``hankel_tsvd_series``: (the filtered row, its (S, ranks,
    model) as a stack of one call).  The L x K Hankel matrix is a window view
    of the row, normalised by the row's own power of two; ``_split_eig``
    selects on its whole spectrum and returns only the kept vectors, and
    ``_antidiagonal_means`` averages the rank-r factors of ``_rebuild``.
    Calls no public function (``select`` is the stage's ``_select``), so it
    may run on any thread."""
    A = sliding_window_view(row, len(row) - L + 1)[None]
    S, rank, model, Q = _split_eig(A, _unit_exponent(row[None], -1), select)
    lhs, rhs, scale = _rebuild(A, S, Q, rank, model)
    return _antidiagonal_means(lhs * scale, rhs)[0], (S, rank, model)


_BLAS_LOCK = threading.Lock()  # held by every row stage that changes the BLAS thread count
_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


class _OpenBLAS(NamedTuple):
    """The ten symbols of numpy's wheel OpenBLAS, as ``_bind`` binds them (the module docstring's platforms)."""

    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    shutdown: Callable[[], int]
    routines: dict  # {dtype: (?sytrd/?hetrd, dsterf, ?stein, ?ormtr/?unmtr)}, float64 and complex128


@lru_cache(maxsize=None)
def _openblas():
    """The OpenBLAS that numpy.linalg calls, bound once (``_bind``).  A ctypes
    handle on numpy's ``_umath_linalg`` module also finds the symbols of the
    libraries it links, so this is numpy's own BLAS, whatever else the
    process has loaded.  None where the module cannot be imported or opened."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    return _bind(lib)


def _bind(lib):
    """The ``_OpenBLAS`` of a library handle, or None unless it exports all ten of the wheel's symbols (module docstring)."""
    c_int, c_char, i64 = ctypes.c_int, ctypes.c_char, ctypes.c_int64
    real, ints = _buffer(np.float64), _buffer(np.int64)
    try:
        threads = (_symbol(lib, "scipy_openblas_get_num_threads64_", c_int, []),
                   _symbol(lib, "scipy_openblas_set_num_threads64_", None, [c_int]),
                   _symbol(lib, "blas_thread_shutdown_", c_int, []))
        routines = {}
        for dtype, (reduce, stein, back) in ((np.float64, ("dsytrd", "dstein", "dormtr")),
                                             (np.complex128, ("zhetrd", "zstein", "zunmtr"))):
            mat = _buffer(dtype)
            routines[np.dtype(dtype)] = tuple(
                _symbol(lib, f"scipy_LAPACKE_{name}64_", i64, argtypes) for name, argtypes in (
                    (reduce, [c_int, c_char, i64, mat, i64, real, real, mat]),
                    ("dsterf", [i64, real, real]),
                    (stein, [c_int, i64, real, real, i64, real, ints, ints, mat, i64, ints]),
                    (back, [c_int, c_char, c_char, c_char, i64, i64, mat, i64, mat, mat, i64])))
    except AttributeError:
        return None
    return _OpenBLAS(*threads, routines)


def _buffer(dtype):
    """A ctypes argument type that takes only C-contiguous arrays of ``dtype``."""
    return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")


def _symbol(lib, name: str, restype, argtypes):
    """``lib``'s function ``name`` with its ctypes signature set; AttributeError where it is not exported."""
    fn = getattr(lib, name)
    fn.argtypes, fn.restype = argtypes, restype
    return fn


def _lapack_call(routine, *args):
    """Call a LAPACKE routine; a nonzero info raises ConvergenceError."""
    info = routine(*args)
    if info:
        raise ConvergenceError(f"LAPACK {routine.__name__} failed with info {info}")


def _each_row(count: int, run):
    """Call run(j) for every j in range(count), on the module docstring's platforms.

    On numpy's wheel the rows run one per thread on min(BLAS threads,
    count) threads, the caller's among them, with OpenBLAS held at one
    thread; the count is restored afterwards, and a module lock serialises
    such stages.  Where the caller is the process's only Python thread, the
    idle pool is shut down before any row runs and again after the restore,
    which re-creates it; the shutdown joins the pool threads, which a
    threaded BLAS call in flight on another thread could keep waiting, so
    with any other Python thread alive the pool is left running.  A lone
    row is held at one thread too: OpenBLAS results can differ in the last
    bits between thread counts, and a row's result must not depend on how
    many rows share its stage.  Off the wheel the rows run serially and BLAS
    is left alone.  After every thread has joined, the first error in row
    order is raised on the caller.
    """
    blas = _openblas() if count else None
    if blas is None:
        for j in range(count):
            run(j)
        return
    todo, errors = iter(range(count)), {}

    def work():
        for j in todo:  # one shared iterator: each row is taken once, in order
            if errors:
                return
            try:
                run(j)
            except BaseException as exc:
                errors[j] = exc
                return

    with _BLAS_LOCK:
        threads = blas.get_threads()
        blas.set_threads(1)
        try:
            if threading.active_count() == 1:
                blas.shutdown()
            pool = [threading.Thread(target=work) for _ in range(min(threads, count) - 1)]
            for thread in pool:
                thread.start()
            work()
            for thread in pool:
                thread.join()
        finally:
            blas.set_threads(threads)
            if threading.active_count() == 1:
                blas.shutdown()
    if errors:
        raise errors[min(errors)]


def hankel_tsvd_series(series: np.ndarray, window: Optional[int], selector: SelectionStrategy):
    """Hankelize, truncate by the selector, SSA back to a same-length series,
    for one series or each row of a stack (..., length); e15 selectors use
    the cleaned singular values.  Returns (filtered, record): filtered shaped
    as ``series``, and the ``StageRecord.of_calls`` record "hankel" of every
    row's spectrum, rank and e15 fields, one call per row.

    Rows are taken as float64 or complex128 (``np.result_type(series,
    float)``), so integer or single-precision input is neither truncated
    nor rounded on output.  The row kernel (``_hankel_row``) and how the
    rows share BLAS, under a process-wide one-thread hold (``_each_row``),
    are the module docstring's; a row's result does not depend on the other
    rows of its stack.  A 0-d series raises DimensionMismatch.  A series of
    fewer than 4 samples raises ShapeError, the one input rule of every
    Hankel variant, and so does, under e15, a window of 1 or of the series
    length; both raise before any row runs, even for an empty stack.
    """
    series = np.asarray(series)
    if series.ndim == 0:
        raise DimensionMismatch("hankel_tsvd_series takes a series or a stack of them, got ndim=0")
    length = series.shape[-1]
    if length < 4:
        raise ShapeError(f"Hankel filtering needs at least 4 samples ({length} samples)")
    t0 = time.perf_counter()
    L = _window(length, window)
    shape = (L, length - L + 1)
    _check_e15_shape(shape, selector)
    select = partial(_select, shape=shape, strategy=selector)
    rows = series.reshape(-1, length).astype(np.result_type(series, float), copy=False)
    out, calls = np.empty_like(rows), [None] * len(rows)

    def run(j):
        out[j], calls[j] = _hankel_row(rows[j], L, select)

    _each_row(len(rows), run)
    record = StageRecord.of_calls("hankel", shape, calls, time.perf_counter() - t0)
    return out.reshape(series.shape), record
