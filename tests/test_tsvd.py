import ctypes
import inspect
import os
import sys
import threading
import types

import numpy as np
import pytest

from prank import (
    E15,
    AbsoluteThreshold,
    ConvergenceError,
    DimensionMismatch,
    FixedRank,
    NonFiniteError,
    RelativeThreshold,
    ShapeError,
    WindowError,
    auto_window,
    dehankelize_ssa,
    gram_tsvd,
    hankel_tsvd_series,
    hankelize,
    svd,
)
from prank import filters, selection, tsvd
from prank.dataset import Domain, ResponseDataset
from prank.filters import PrankConfig, Variant
from prank.selection import evaluate


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------------------------------------- svd

def test_svd_identity():
    f = svd(np.eye(3))
    assert np.allclose(f.S, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    f = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(f.S, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(f.U), np.eye(3), atol=1e-12)
    assert np.allclose(np.abs(f.V), np.eye(3), atol=1e-12)


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(0)
    x = random_complex(rng, 4)
    y = random_complex(rng, 6)
    x *= 2.0 / np.linalg.norm(x)
    y *= 5.0 / np.linalg.norm(y)
    f = svd(np.outer(x, y.conj()))
    assert f.S[0] == pytest.approx(10.0, rel=1e-12)  # ||x|| * ||y||
    assert np.all(f.S[1:] <= 1e-12 * f.S[0])


@pytest.mark.parametrize("shape", [(5, 5), (8, 3), (3, 8)])
def test_svd_invariants(shape):
    rng = np.random.default_rng(42)
    for _ in range(5):
        A = random_complex(rng, shape)
        f = svd(A)
        recon = (f.U * f.S) @ f.V.conj().T
        assert np.linalg.norm(recon - A) <= 1e-12 * np.linalg.norm(A)
        p = min(shape)
        assert np.allclose(f.U.conj().T @ f.U, np.eye(p), atol=1e-12)
        assert np.allclose(f.V.conj().T @ f.V, np.eye(p), atol=1e-12)
        assert np.all(np.diff(f.S) <= 0)


def test_svd_sign_convention_and_determinism():
    rng = np.random.default_rng(1)
    A = random_complex(rng, (6, 4))
    f1 = svd(A)
    f2 = svd(A.copy())
    assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V)
    pivots = f1.U[np.argmax(np.abs(f1.U), axis=0), np.arange(4)]
    assert np.allclose(pivots.imag, 0.0, atol=1e-14)
    assert np.all(pivots.real > 0)


def test_svd_real_input_stays_real():
    rng = np.random.default_rng(2)
    f = svd(rng.standard_normal((5, 4)))
    assert not np.iscomplexobj(f.U) and not np.iscomplexobj(f.V)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("shape", [(5, 4, 3), (2, 3, 3, 6)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_svd_stack_equals_each_matrix(shape, kind):
    # one stacked call factors every matrix exactly as a call on it alone,
    # sign convention included
    rng = np.random.default_rng(4)
    A = random_complex(rng, shape) if kind == "complex" else rng.standard_normal(shape)
    f = svd(A)
    p = min(shape[-2:])
    assert f.U.shape == shape[:-1] + (p,) and f.V.shape == shape[:-2] + (shape[-1], p)
    for k in np.ndindex(shape[:-2]):
        g = svd(A[k])
        assert np.array_equal(f.U[k], g.U)
        assert np.array_equal(f.S[k], g.S)
        assert np.array_equal(f.V[k], g.V)


def low_rank_stack(rng, shape, kind):
    """Stack of rank-(k % 4) signals plus 0.01 noise; matrix 0 all zero."""
    draw = (lambda shp: random_complex(rng, shp)) if kind == "complex" else rng.standard_normal
    m, n = shape[-2:]
    stack = np.zeros(shape, dtype=complex if kind == "complex" else float).reshape(-1, m, n)
    for k in range(1, len(stack)):
        q = k % 4
        stack[k] = 10.0 * draw((m, q)) @ draw((q, n)) + 0.01 * draw((m, n))
    return stack.reshape(shape)


@pytest.mark.parametrize("shape", [(7, 12, 30), (2, 3, 30, 12)])  # m < n and m > n
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize(
    "selector", [FixedRank(0), FixedRank(2), FixedRank(50), RelativeThreshold(0.05), E15()]
)
def test_gram_tsvd_stack_equals_each_matrix(shape, kind, selector):
    # one stacked call truncates every matrix as a call on it alone, with
    # each matrix's own rank although the stack projects onto max(rank)
    rng = np.random.default_rng(11)
    A = low_rank_stack(rng, shape, kind)
    filtered, S, ranks, model = gram_tsvd(A, selector)
    assert filtered.shape == shape and ranks.shape == shape[:-2] and S.shape == shape[:-2] + (12,)
    assert np.iscomplexobj(filtered) == (kind == "complex")
    assert (model is not None) == isinstance(selector, E15)
    if isinstance(selector, (RelativeThreshold, E15)):
        assert len(np.unique(ranks)) > 1
    for k in np.ndindex(shape[:-2]):
        f, s, rank, _ = gram_tsvd(A[k], selector)
        assert ranks[k] == rank
        assert np.linalg.norm(S[k] - s) <= 1e-12 * np.linalg.norm(s)
        assert np.linalg.norm(filtered[k] - f) <= 1e-12 * np.linalg.norm(f)
    A[(-1,) * (len(shape) - 2) + (3, 5)] = np.nan
    with pytest.raises(NonFiniteError):
        gram_tsvd(A, selector)


@pytest.mark.parametrize("power", [530, -530])
@pytest.mark.parametrize("selector", [FixedRank(2), RelativeThreshold(0.05), E15()])
def test_gram_tsvd_stack_is_exactly_scale_equivariant_under_powers_of_two(power, selector):
    # each matrix of the stack has its own scale, and the squares of entries
    # near 2^+-530 (2^+-1060) lie outside the double range
    rng = np.random.default_rng(5)
    A = low_rank_stack(rng, (3, 7, 12), "complex") * np.ldexp(1.0, [0, 40, -40])[:, None, None]
    filtered, S, ranks, model = gram_tsvd(A, selector)
    big, big_S, big_ranks, big_model = gram_tsvd(A * 2.0**power, selector)
    assert np.any(ranks > 0) and np.array_equal(big_ranks, ranks)
    assert np.array_equal(big, filtered * 2.0**power) and np.array_equal(big_S, S * 2.0**power)
    if model is not None:
        for name in ("sigma_n", "mp_curve", "cleaned_s"):
            assert np.array_equal(getattr(big_model, name), getattr(model, name) * 2.0**power)


# ----------------------------------------------------------- truncation

def test_truncate_full_rank_reproduces():
    rng = np.random.default_rng(3)
    A = random_complex(rng, (7, 5))
    for M in (A, A.T):  # either side's Gram matrix
        filtered, _, rank, model = gram_tsvd(M, FixedRank(5))
        assert rank == 5 and model is None
        assert np.linalg.norm(filtered - M) <= 1e-12 * np.linalg.norm(M)


def test_truncate_zero_rank():
    filtered, _, rank, _ = gram_tsvd(np.diag([3.0, 2.0, 1.0]), FixedRank(0))
    assert rank == 0
    assert np.array_equal(filtered, np.zeros((3, 3)))


def test_truncate_rank_one_of_diagonal():
    filtered, S, _, _ = gram_tsvd(np.diag([3.0, 2.0, 1.0]), FixedRank(1))
    assert np.allclose(S, [3.0, 2.0, 1.0], atol=1e-12)
    assert np.allclose(filtered, np.diag([3.0, 0.0, 0.0]), atol=1e-12)


def test_eckart_young_monotonicity():
    rng = np.random.default_rng(5)
    A = random_complex(rng, (8, 6))
    f = svd(A)
    errors = [np.linalg.norm(A - (f.U[:, :r] * f.S[:r]) @ f.V[:, :r].conj().T) for r in range(7)]
    assert all(errors[r] >= errors[r + 1] - 1e-12 for r in range(6))


# ------------------------------------------------------------------- hankel

def test_hankelize_definition():
    H = hankelize(np.array([1.0, 2.0, 3.0]), window=2)
    assert np.array_equal(H, [[1.0, 2.0], [2.0, 3.0]])
    assert H.shape == (2, 2)  # window L = 2 rows, series length L + K - 1 = 3


def test_hankelize_auto_window_near_square():
    H = hankelize(np.arange(10.0))
    assert H.shape == (auto_window(10), 5) == (6, 5)


def test_hankelize_constant_series_rank_one():
    S = np.linalg.svd(hankelize(np.ones(20)), compute_uv=False)
    assert S[1] <= 1e-12 * S[0]


def test_hankelize_geometric_series_rank_one():
    t = np.arange(30)
    S = np.linalg.svd(hankelize(0.9 ** t), compute_uv=False)
    assert S[1] <= 1e-12 * S[0]


def test_hankelize_window_errors():
    with pytest.raises(WindowError):
        hankelize(np.array([1.0]))
    with pytest.raises(WindowError):
        hankelize(np.arange(5.0), window=0)
    with pytest.raises(WindowError):
        hankelize(np.arange(5.0), window=6)
    for window in (2.9, 3.0, True):  # not floored or cast
        with pytest.raises(WindowError, match="integer"):
            hankelize(np.arange(6.0), window)
    assert hankelize(np.arange(6.0), np.int64(2)).shape == (2, 5)


@pytest.mark.parametrize("call", [
    lambda: hankelize(np.ones((3, 5))),
    lambda: hankelize(np.float64(1.0)),
    lambda: dehankelize_ssa(np.ones(5)),
    lambda: dehankelize_ssa(np.ones((2, 3, 4))),
    lambda: gram_tsvd(np.ones(5), FixedRank(1)),
    lambda: svd(np.ones(5)),
    lambda: hankel_tsvd_series(np.float64(3.0), None, FixedRank(1)),
], ids=["hankelize-2d", "hankelize-0d", "dehankelize-1d", "dehankelize-3d", "gram_tsvd-1d", "svd-1d",
        "hankel_tsvd_series-0d"])
def test_kernels_reject_arrays_of_the_wrong_dimension(call):
    with pytest.raises(DimensionMismatch, match="ndim="):
        call()


def test_dehankelize_inverts_hankelize():
    rng = np.random.default_rng(6)
    for n, L in [(7, 3), (12, 6), (5, 5), (9, 1)]:
        s = random_complex(rng, n)
        assert np.array_equal(dehankelize_ssa(hankelize(s, L)), s)


def test_dehankelize_averages_antidiagonals():
    out = dehankelize_ssa(np.array([[1.0, 3.0], [5.0, 7.0]]))
    assert np.allclose(out, [1.0, 4.0, 7.0])


def test_dehankelize_zero_matrix():
    assert np.array_equal(dehankelize_ssa(np.zeros((3, 4))), np.zeros(6))


def test_dehankelize_linearity():
    rng = np.random.default_rng(7)
    M1 = random_complex(rng, (4, 5))
    M2 = random_complex(rng, (4, 5))
    alpha = 2.5 - 1.25j
    lhs = dehankelize_ssa(alpha * M1 + M2)
    rhs = alpha * dehankelize_ssa(M1) + dehankelize_ssa(M2)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("L, K, r", [(5, 9, 3), (7, 7, 7), (12, 4, 2), (1, 6, 1), (6, 1, 1), (8, 8, 0)])
def test_antidiagonal_means_of_factors_match_dehankelize(kind, L, K, r):
    # the FFT sums every anti-diagonal to rounding of the largest term, so the
    # tolerance is a few eps times the factors' product norm
    rng = np.random.default_rng(L * 100 + K * 10 + r)
    make = (lambda shape: random_complex(rng, shape)) if kind == "complex" else rng.standard_normal
    lhs, rhs = make((L, r)), make((r, K))
    out = tsvd._antidiagonal_means(lhs[None], rhs[None])[0]
    ref = dehankelize_ssa(lhs @ rhs)
    assert out.shape == (L + K - 1,) and np.iscomplexobj(out) == (kind == "complex")
    assert np.max(np.abs(out - ref), initial=0.0) <= 1e-14 * max(1.0, np.linalg.norm(lhs) * np.linalg.norm(rhs))


def test_hankel_rank_oracle_complex_exponentials():
    rng = np.random.default_rng(8)
    n = 120
    t = np.arange(n)
    for q in [1, 3, 5]:
        poles = np.exp((-rng.uniform(0.001, 0.02, q)) + 1j * rng.uniform(0.1, 3.0, q))
        amps = random_complex(rng, q)
        series = (amps[None, :] * poles[None, :] ** t[:, None]).sum(axis=1)
        S = np.linalg.svd(hankelize(series), compute_uv=False)
        assert S[q] <= 1e-9 * S[0]


# ------------------------------------------------------------- series filter

def damped_sinusoids(n=512, freqs=(0.12, 0.31), decays=(0.004, 0.007), seed=9):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    out = np.zeros(n)
    for f0, a0 in zip(freqs, decays):
        out += rng.uniform(0.5, 2.0) * np.exp(-a0 * t) * np.sin(2 * np.pi * f0 * t + rng.uniform(0, np.pi))
    return out


def test_hankel_tsvd_series_recovers_two_sinusoids():
    series = damped_sinusoids()
    # oracle: two real damped sinusoids generate a rank-4 Hankel matrix
    S = np.linalg.svd(hankelize(series), compute_uv=False)
    assert S[4] <= 1e-9 * S[0]
    out, record = hankel_tsvd_series(series, None, FixedRank(4))
    assert len(out) == len(series)
    assert np.linalg.norm(out - series) <= 1e-8 * np.linalg.norm(series)
    assert record.rank == 4
    assert record.model is None


def test_hankel_tsvd_series_full_rank_identity():
    rng = np.random.default_rng(10)
    series = rng.standard_normal(64)
    out, record = hankel_tsvd_series(series, None, FixedRank(10 ** 9))
    assert np.linalg.norm(out - series) <= 1e-10 * np.linalg.norm(series)
    assert record.rank == min(hankelize(series).shape)


def test_hankel_tsvd_series_e15_rejects_white_noise():
    # noise-only series: the fitted floor swallows (almost) everything
    for seed in range(5):
        rng = np.random.default_rng(seed)
        series = rng.standard_normal(1024)
        out, record = hankel_tsvd_series(series, None, E15(0.10))
        assert record.rank <= 2
        assert np.sum(np.abs(out) ** 2) < np.sum(series ** 2)
        assert record.model is not None
        assert record.model.sigma_n > 0


def long_series(complex_data, seed):
    """796 samples: a 399 x 398 Hankel matrix at the default window."""
    out = damped_sinusoids(n=796, seed=seed)
    return out + 1j * damped_sinusoids(n=796, freqs=(0.21,), seed=seed + 100) if complex_data else out


@pytest.fixture
def blas_platform(monkeypatch):
    """``blas_platform(*names)`` installs as ``tsvd._openblas``, in turn, each
    named lookup that it can return, made from this process's own, and
    yields its name: "wheel", numpy's wheel (all ten symbols: the split
    kernel on threaded rows); "none", anything else (``eigh`` on serial
    rows).  No names means both.  A platform this process lacks is left
    out, and a test left with none is skipped.  The platforms run in one
    test, not one each, so the test ids stay those of a single platform."""
    found = tsvd._openblas()
    lookups = {"none": None} if found is None else {"wheel": found, "none": None}

    def each(*names):
        names = [name for name in names or ("wheel", "none") if name in lookups]
        if not names:
            pytest.skip("this process's BLAS has none of the platform's parts")
        for name in names:
            monkeypatch.setattr(tsvd, "_openblas", lambda lookup=lookups[name]: lookup)
            yield name

    return each


def check_stack_equals_row_by_row(platforms, complex_data, selector):
    short = np.stack([noisy_series(complex_data, seed) for seed in range(3)])  # 150 x 250 Hankel matrices
    long = np.stack([long_series(complex_data, seed) for seed in range(3)])
    for _ in platforms:
        for rows, window in ((short, 150), (long, None)):
            out, record = hankel_tsvd_series(rows, window, selector)
            alone = [hankel_tsvd_series(row, window, selector) for row in rows]
            assert np.array_equal(out, np.stack([a for a, _ in alone]))
            assert record.extras["ranks"] == [rec.rank for _, rec in alone]
            assert record.extras["svd_calls"] == 3 and record.rank == max(record.extras["ranks"])
            assert np.array_equal(record.singular_values,
                                  np.mean([rec.singular_values for _, rec in alone], axis=0))
            if record.model is not None:
                for name, value in vars(record.model).items():
                    assert np.array_equal(value, np.concatenate([getattr(rec.model, name) for _, rec in alone]),
                                          equal_nan=True), name
        # no rows, as HiP hands over at PRF rank 0: no calls and an empty result
        empty, record = hankel_tsvd_series(short[:0], 150, selector)
        assert empty.shape == (0, short.shape[1]) and empty.dtype == short.dtype
        assert (record.extras["svd_calls"], record.extras["ranks"], record.rank) == (0, [], 0)
        assert record.model is None and not record.singular_values.any()


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("selector", [FixedRank(6), E15()])
def test_hankel_tsvd_series_stack_equals_row_by_row(blas_platform, complex_data, selector):
    check_stack_equals_row_by_row(blas_platform("wheel"), complex_data, selector)


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("selector", [FixedRank(6), E15()])
def test_hankel_tsvd_series_stack_equals_row_by_row_without_openblas(blas_platform, complex_data, selector):
    # where no OpenBLAS is bound, every row runs serially on the calling thread
    check_stack_equals_row_by_row(blas_platform("none"), complex_data, selector)


class CountingBlas:
    """A stand-in for the lookup of the platform in place, ``tsvd._openblas``,
    whose thread-count pair and pool shutdown record every call in ``log``:
    a set as its count, a shutdown as "shutdown"."""

    def __init__(self, threads):
        self.threads, self.log, self.routines = threads, [], tsvd._openblas().routines

    def lookup(self):
        return tsvd._OpenBLAS(self.get, self.set, self.shutdown, self.routines)

    def get(self):
        return self.threads

    def set(self, threads):
        self.log.append(threads)
        self.threads = threads

    def shutdown(self):
        self.log.append("shutdown")

    @property
    def sets(self):
        return [entry for entry in self.log if entry != "shutdown"]


def test_hankel_stage_restores_the_blas_thread_count(monkeypatch):
    blas = tsvd._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS in this process")
    get_threads = blas[0]
    before = get_threads()
    short = np.stack([noisy_series(False, seed) for seed in range(4)])  # 150 x 250 Hankel matrices
    long = np.stack([long_series(False, seed) for seed in range(3)])  # 399 x 398
    for rows, window in ((short, 150), (long, None)):
        hankel_tsvd_series(rows, window, E15())
        assert get_threads() == before
        rows[-1, 17] = np.nan
        with pytest.raises(NonFiniteError):
            hankel_tsvd_series(rows, window, E15())
        assert get_threads() == before
    if before < 2:
        return  # a one-thread stage has no worker to fail on
    # every long row is NaN, and the caller starts its row only once a worker's
    # row has run, so a worker raises first
    long[:, 17] = np.nan
    caller, worker_failed, row = threading.current_thread(), threading.Event(), tsvd._hankel_row

    def hankel_row(*args):
        if threading.current_thread() is caller:
            assert worker_failed.wait(timeout=60)
        try:
            return row(*args)
        finally:
            worker_failed.set()

    monkeypatch.setattr(tsvd, "_hankel_row", hankel_row)
    with pytest.raises(NonFiniteError):
        hankel_tsvd_series(long, None, E15())
    assert worker_failed.is_set() and get_threads() == before


def test_hankel_stage_holds_blas_at_one_thread(monkeypatch, blas_platform):
    for _ in blas_platform("wheel"):
        blas = CountingBlas(3)
        monkeypatch.setattr(tsvd, "_openblas", blas.lookup)
        rows = np.stack([noisy_series(False, seed) for seed in range(4)])  # 150 x 250 Hankel matrices
        hankel_tsvd_series(rows, 150, E15())
        assert blas.sets == [1, 3]
        rows[-1, 17] = np.nan  # the last row fails on a worker or the caller; the caller raises
        with pytest.raises(NonFiniteError):
            hankel_tsvd_series(rows, 150, E15())
        assert blas.sets == [1, 3] * 2
        # a lone row runs at one BLAS thread too, so its bits match a stack's
        hankel_tsvd_series(rows[0], 150, E15())
        assert blas.sets == [1, 3] * 3
        # so do rows of any size, alone or stacked
        long = np.stack([long_series(False, seed) for seed in range(2)])  # 399 x 398
        hankel_tsvd_series(long[0], None, E15())
        assert blas.sets == [1, 3] * 4
        hankel_tsvd_series(long, None, E15())
        assert blas.sets == [1, 3] * 5 and blas.threads == 3
        # an empty stack runs nothing and leaves the count alone
        hankel_tsvd_series(long[:0], None, E15())
        assert blas.sets == [1, 3] * 5


def logging_rows(monkeypatch, log):
    """Make every Hankel row append "row" to ``log`` before it runs."""
    row = tsvd._hankel_row

    def hankel_row(*args):
        log.append("row")
        return row(*args)

    monkeypatch.setattr(tsvd, "_hankel_row", hankel_row)


def test_hankel_stage_shuts_the_idle_blas_pool_down_first(monkeypatch, blas_platform):
    # the pool's idle threads spin beside the rows unless stopped: once per
    # stage, after the count is held at one and before any row
    rows = np.stack([noisy_series(False, seed) for seed in range(4)])  # 150 x 250 Hankel matrices
    for _ in blas_platform("wheel"):
        blas = CountingBlas(3)
        monkeypatch.setattr(tsvd, "_openblas", blas.lookup)
        logging_rows(monkeypatch, blas.log)
        hankel_tsvd_series(rows, 150, E15())
        assert blas.log == [1, "shutdown"] + ["row"] * 4 + [3]
        blas.log.clear()
        hankel_tsvd_series(rows[0], 150, E15())  # a lone row
        assert blas.log == [1, "shutdown", "row", 3]
        blas.log.clear()
        hankel_tsvd_series(rows[:0], 150, E15())  # an empty stack touches nothing
        assert blas.log == []
        monkeypatch.undo()  # unwraps the rows before the next platform wraps them


def test_hankel_stage_leaves_the_pool_running_beside_another_python_thread(monkeypatch, blas_platform):
    # a threaded BLAS call in flight on another thread could keep the
    # shutdown's join waiting, so with any other Python thread alive the
    # stage only holds the count at one
    rows = np.stack([noisy_series(False, seed) for seed in range(4)])
    idle = threading.Event()
    other = threading.Thread(target=idle.wait)
    other.start()
    try:
        for _ in blas_platform("wheel"):
            blas = CountingBlas(3)
            monkeypatch.setattr(tsvd, "_openblas", blas.lookup)
            logging_rows(monkeypatch, blas.log)
            hankel_tsvd_series(rows, 150, E15())
            assert blas.log == [1] + ["row"] * 4 + [3]
            monkeypatch.undo()  # unwraps the rows before the next platform wraps them
    finally:
        idle.set()
        other.join(timeout=60)
    assert not other.is_alive()


def test_hankel_stage_without_openblas_leaves_blas_untouched(monkeypatch, blas_platform):
    # where no OpenBLAS is bound, the process's own pool keeps its count and,
    # where the kernel lists a process's threads, every thread of it
    real = tsvd._openblas()
    tasks = "/proc/self/task"

    def state():
        return (None if real is None else real.get_threads(),
                len(os.listdir(tasks)) if os.path.isdir(tasks) else None)

    seen, row = [], tsvd._hankel_row

    def hankel_row(*args):
        seen.append(state())
        return row(*args)

    rows = np.stack([noisy_series(False, seed) for seed in range(3)])
    for _ in blas_platform("none"):
        hankel_tsvd_series(rows, 150, E15())  # gives the row threads of an earlier stage time to exit
        monkeypatch.setattr(tsvd, "_hankel_row", hankel_row)
        before = state()
        hankel_tsvd_series(rows, 150, E15())
    assert seen == [before] * 3


def test_hankel_stage_restarts_the_real_blas_pool(monkeypatch):
    # wake the pool with a threaded GEMM, then run a stage on the real lookup:
    # its rows match each row run alone, the count is back, and the pool that
    # OpenBLAS re-creates computes the same GEMM bit for bit
    blas = tsvd._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS in this process")
    shutdowns = []

    def shutdown():
        shutdowns.append(threading.active_count())
        return blas.shutdown()

    monkeypatch.setattr(tsvd, "_openblas", lambda: blas._replace(shutdown=shutdown))
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, 600, 600))
    before = blas.get_threads()
    rows = np.stack([noisy_series(False, seed) for seed in range(4)])
    alone = np.stack([hankel_tsvd_series(row, 150, E15())[0] for row in rows])
    product = a @ b
    out, _ = hankel_tsvd_series(rows, 150, E15())
    assert np.array_equal(out, alone)
    assert blas.get_threads() == before
    assert np.array_equal(a @ b, product)
    assert shutdowns == [1] * 5


def test_worker_threads_call_no_public_function(monkeypatch, blas_platform):
    # a tracer that wraps the public functions of these namespaces keeps one
    # span stack, so every wrapped call must run on the calling thread
    calls = []

    def wrap(fn):
        def traced(*args, **kwargs):
            calls.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return traced

    for module in (tsvd, filters, selection):
        for name, obj in list(vars(module).items()):
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__.startswith("prank."):
                monkeypatch.setattr(module, name, wrap(obj))
    rows = np.stack([noisy_series(False, seed) for seed in range(16)])
    for _ in blas_platform("wheel"):
        calls.clear()
        blas = CountingBlas(4)
        monkeypatch.setattr(tsvd, "_openblas", blas.lookup)
        tsvd.hankel_tsvd_series(rows, None, E15())
        _, report = filters.apply_filter(ResponseDataset(rows.reshape(4, 4, -1), Domain.TIME),
                                         PrankConfig(variant=Variant.PRANK_HIP))
        assert report.stage("hankel_in_prf").extras["svd_calls"] > 1
        assert blas.log == [1, "shutdown", 4] * 2  # both stages took the threaded path
        assert {name for name, _ in calls} >= {"hankel_tsvd_series", "apply_filter", "evaluate"}
        assert {ident for _, ident in calls} == {threading.get_ident()}


def test_hankel_stage_on_more_threads_than_cores_equals_row_by_row(monkeypatch, blas_platform):
    # eight threads over 48 short rows, switching as often as the interpreter
    # allows: a row taken twice or a result written to the wrong slot breaks the
    # bit-for-bit match with each row run alone
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((48, 40)) + np.sin(0.3 * np.arange(40))
    for _ in blas_platform("wheel"):
        blas = tsvd._openblas()
        before = blas.get_threads()
        eight = blas._replace(get_threads=lambda: 8,
                              set_threads=lambda n: blas.set_threads(before if n == 8 else n))
        monkeypatch.setattr(tsvd, "_openblas", lambda: eight)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out, record = hankel_tsvd_series(rows, None, E15())
        finally:
            sys.setswitchinterval(interval)
        alone = [hankel_tsvd_series(row, None, E15()) for row in rows]
        assert np.array_equal(out, np.stack([a for a, _ in alone]))
        assert record.extras["ranks"] == [rec.rank for _, rec in alone]
        assert blas.get_threads() == before


def test_hankel_tsvd_series_too_short():
    with pytest.raises(WindowError):
        hankel_tsvd_series(np.ones(3), None, FixedRank(1))


def test_hankel_tsvd_series_one_row_or_column_is_shape_error_under_e15():
    # a window of 1 or n gives a 1 x n or n x 1 Hankel matrix, whose one
    # singular value is its own e15 noise tail
    x = noisy_series(False, 0)
    for window in (1, len(x)):
        with pytest.raises(ShapeError, match="e15"):
            hankel_tsvd_series(x, window, E15())
        out, record = hankel_tsvd_series(x, window, FixedRank(1))
        assert record.rank == 1
        assert np.linalg.norm(out - x) <= 1e-10 * np.linalg.norm(x)


# ------------------------------------------------------------- Gram kernel

def dense_reference(series, window, selector):
    """The Hankel filter on a dense SVD: (filtered series, S, rank)."""
    H = hankelize(series, window)
    U, S, Vh = np.linalg.svd(H, full_matrices=False)
    rank, model = evaluate(S, H.shape, selector)
    s_used = model.cleaned_s if model is not None else S[:rank]
    return dehankelize_ssa((U[:, :rank] * s_used) @ Vh[:rank]), S, rank


def noisy_series(complex_data, seed):
    rng = np.random.default_rng(seed)
    out = damped_sinusoids(n=399, seed=seed) + 0.05 * rng.standard_normal(399)
    if complex_data:
        t = np.arange(399)
        out = out + 1j * (np.exp(-0.003 * t) * np.sin(0.7 * t) + 0.05 * rng.standard_normal(399))
    return out


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("window", [150, 200, 250])  # L < K, L = K, L > K for n = 399
@pytest.mark.parametrize("selector", [FixedRank(6), E15()])
def test_gram_kernel_matches_dense_svd(complex_data, window, selector):
    for seed in range(3):
        series = noisy_series(complex_data, seed)
        out, record = hankel_tsvd_series(series, window, selector)
        ref, S, rank = dense_reference(series, window, selector)
        assert record.rank == rank
        assert (record.model is not None) == isinstance(selector, E15)
        assert np.iscomplexobj(out) == complex_data
        assert np.linalg.norm(out - ref) <= 1e-8 * np.linalg.norm(series)
        # Gram eigenvalues carry an absolute error of about eps * S[0]^2, so
        # values above 1e-4 * S[0] are off by at most ~1e-12 * S[0]
        kept = S > 1e-4 * S[0]
        assert np.all(np.abs(record.singular_values[kept] - S[kept]) <= 1e-10 * S[0])


def test_gram_kernel_keeps_components_above_the_squaring_floor():
    # a component 1e-6 below the dominant one sits well above sqrt(eps) = 1.5e-8
    t = np.arange(400)
    series = np.exp(-0.002 * t) * np.cos(0.3 * t) + 1e-6 * np.exp(-0.001 * t) * np.cos(1.3 * t)
    out, record = hankel_tsvd_series(series, None, FixedRank(4))
    assert record.singular_values[3] > 1e-7 * record.singular_values[0]
    assert np.linalg.norm(out - series) <= 1e-8 * np.linalg.norm(series)


def test_gram_kernel_deterministic_and_zero_safe():
    series = noisy_series(True, 4)
    a, rec_a = hankel_tsvd_series(series, None, E15())
    b, rec_b = hankel_tsvd_series(series.copy(), None, E15())
    assert np.array_equal(a, b) and np.array_equal(rec_a.singular_values, rec_b.singular_values)
    with np.errstate(all="raise"):
        filtered, S, rank, model = gram_tsvd(np.zeros((5, 7)), E15())
    assert rank == 0 and model is not None
    assert np.array_equal(filtered, np.zeros((5, 7))) and np.array_equal(S, np.zeros(5))


def test_gram_kernel_rejects_nonfinite():
    series = noisy_series(False, 0)
    series[17] = np.nan
    with pytest.raises(NonFiniteError):
        hankel_tsvd_series(series, None, E15())
    with pytest.raises(NonFiniteError):
        gram_tsvd(np.array([[1.0, np.inf], [0.0, 1.0]]), FixedRank(1))


def test_gram_kernel_maps_backend_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="converge"):
        gram_tsvd(np.eye(3), FixedRank(1))


# ------------------------------------------------------------- split kernel

def kernel_rows(complex_data, side):
    """Three rows of 2 * side samples: (side + 1) x side Hankel matrices of
    two damped sinusoids in noise, whose smallest singular value stays above
    about 1e-2 sigma_1 (a 2 x 2 one is just noise)."""
    rng = np.random.default_rng(side)
    t = np.arange(2 * side)
    clean = np.exp(-0.004 * t) * np.sin(0.3 * t) + 0.7 * np.exp(-0.002 * t) * np.cos(1.1 * t)
    rows = clean + 0.3 * rng.standard_normal((3, 2 * side))
    if complex_data:
        rows = rows + 1j * (np.exp(-0.003 * t) * np.sin(0.7 * t) + 0.3 * rng.standard_normal((3, 2 * side)))
    return rows


def split_and_eigh(blas_platform, rows, selector):
    """hankel_tsvd_series under "wheel" (the split kernel on threaded rows)
    and under "none" (``_eig`` on serial rows) as the reference: ([the
    wheel's result], reference), each a (filtered stack, ranks, spectrum of
    each row run alone)."""
    def run():
        out, record = hankel_tsvd_series(rows, None, selector)
        spectra = [hankel_tsvd_series(row, None, selector)[1].singular_values for row in rows]
        return out, record.extras["ranks"], np.array(spectra)

    results = {platform: run() for platform in blas_platform()}
    reference = results.pop("none")
    if not results:
        pytest.skip("no OpenBLAS in this process")
    return list(results.values()), reference


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("side", [2, 200, 300])
@pytest.mark.parametrize("selector", [E15(), FixedRank(4), AbsoluteThreshold(5.0), RelativeThreshold(0.05),
                                      FixedRank(300), FixedRank(10 ** 6)])  # the last two keep r = side
def test_split_kernel_matches_eigh_path(blas_platform, complex_data, side, selector):
    rows = kernel_rows(complex_data, side)
    results, (ref, ref_ranks, ref_S) = split_and_eigh(blas_platform, rows, selector)
    for out, ranks, S in results:
        assert ranks == ref_ranks
        if isinstance(selector, FixedRank):
            assert ranks == [min(selector.r, side)] * 3
        # both solve the same tridiagonal to eps * sigma_1^2 in the Gram eigenvalues,
        # so S differs by eps * sigma_1^2 / S, within 1e-13 sigma_1 at S >= 1e-2 sigma_1
        assert S.shape == (3, side) and np.all(np.abs(S - ref_S) <= 1e-13 * ref_S[:, :1])
        assert np.iscomplexobj(out) == complex_data
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("selector", [E15(), FixedRank(4), FixedRank(10 ** 6), AbsoluteThreshold(0.0),
                                      RelativeThreshold(1e-9)])
def test_split_kernel_on_a_zero_row(blas_platform, selector):
    # rank 0, or unit vectors of the zero Gram matrix: zeros either way, never NaN
    rows = np.zeros((2, 400))
    rows[1] = kernel_rows(False, 200)[0]
    results, (ref, ref_ranks, _) = split_and_eigh(blas_platform, rows, selector)
    for out, ranks, S in results:
        assert ranks[0] == ref_ranks[0] == (0 if not isinstance(selector, FixedRank) else min(selector.r, 200))
        assert np.array_equal(out[0], np.zeros(400)) and np.array_equal(ref[0], np.zeros(400))
        assert not S[0].any()
        assert np.linalg.norm(out[1] - ref[1]) <= 1e-12 * np.linalg.norm(ref[1])


@pytest.mark.parametrize("routine", [0, 1, 2, 3])
def test_split_kernel_maps_lapack_failure(monkeypatch, blas_platform, routine):
    def failing(fn):
        def call(*args):
            fn(*args)
            return 3
        call.__name__ = fn.__name__
        return call

    for _ in blas_platform("wheel"):
        blas = tsvd._openblas()
        table = {dtype: tuple(failing(fn) if k == routine else fn for k, fn in enumerate(fns))
                 for dtype, fns in blas.routines.items()}
        monkeypatch.setattr(tsvd, "_openblas", lambda: blas._replace(routines=table))
        for complex_data in (False, True):
            with pytest.raises(ConvergenceError, match="info 3"):
                hankel_tsvd_series(kernel_rows(complex_data, 20), None, FixedRank(4))


def test_split_eig_selects_once_on_the_whole_spectrum(blas_platform):
    # one select call sees all min(m, n) values; the wheel computes only the
    # max(rank) kept vectors, the eigh fallback hands back all of _eig's
    for platform in blas_platform():
        for complex_data in (False, True):
            row = kernel_rows(complex_data, 40)[0]
            A = hankelize(row, 30)[None]  # 30 x 51
            e = selection._unit_exponent(row[None], -1)
            seen = []

            def select(S):
                seen.append(S.copy())
                return np.array([3]), None

            S, rank, model, Q = tsvd._split_eig(A, e, select)
            assert len(seen) == 1 and seen[0].shape == (1, 30) and np.array_equal(seen[0], S)
            assert rank.tolist() == [3] and model is None
            assert Q.shape == ((1, 30, 3) if platform == "wheel" else (1, 30, 30))
            # the kept vectors span _eig's first three, whatever their signs or phases
            ref = tsvd._eig(A, e)[1][0, :, :3]
            assert np.allclose(Q[0, :, :3] @ Q[0, :, :3].conj().T, ref @ ref.conj().T, atol=1e-10)


def test_e15_window_of_one_row_or_column_raises_before_any_row(monkeypatch):
    # the shape rule is checked once per stage: no row runs, on any thread,
    # and an empty stack (HiP after PRF rank 0) raises too
    def each_row(count, run):
        raise AssertionError("a row stage started")

    monkeypatch.setattr(tsvd, "_each_row", each_row)
    x = noisy_series(False, 0)
    for rows in (x, np.stack([x, x]), np.empty((0, len(x)))):
        for window in (1, len(x)):
            with pytest.raises(ShapeError, match="e15"):
                hankel_tsvd_series(rows, window, E15())


# ------------------------------------------------------------- BLAS lookup

WHEEL_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
                 "blas_thread_shutdown_") + tuple(
    f"scipy_LAPACKE_{name}64_" for name in ("dsytrd", "zhetrd", "dsterf", "dstein", "zstein", "dormtr", "zunmtr"))


def wheel_library(*missing):
    """The ten wheel symbols of numpy's own library, bound afresh, as a
    namespace, less the ``missing`` names.  Skips the test off numpy's wheel."""
    if tsvd._openblas() is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS of numpy's wheel")
    from numpy.linalg import _umath_linalg
    lib = ctypes.CDLL(_umath_linalg.__file__)
    return types.SimpleNamespace(**{name: getattr(lib, name) for name in WHEEL_SYMBOLS if name not in missing})


def test_lookup_of_a_library_without_openblas_is_none():
    # the process's own symbols hold none of the wheel's: MKL's case
    assert tsvd._bind(ctypes.CDLL(None)) is None


def test_lookup_binds_the_whole_wheel_set():
    lib = wheel_library()
    blas = tsvd._bind(lib)
    c_int = ctypes.c_int
    assert (blas.get_threads, blas.set_threads, blas.shutdown) == (
        lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_, lib.blas_thread_shutdown_)
    assert [(fn.argtypes, fn.restype) for fn in blas[:3]] == [([], c_int), ([c_int], None), ([], c_int)]
    assert blas.routines == {
        np.dtype(dtype): tuple(getattr(lib, f"scipy_LAPACKE_{name}64_") for name in names)
        for dtype, names in ((np.float64, ("dsytrd", "dsterf", "dstein", "dormtr")),
                             (np.complex128, ("zhetrd", "dsterf", "zstein", "zunmtr")))}
    assert all(fn.restype is ctypes.c_int64 for fns in blas.routines.values() for fn in fns)
    assert blas.get_threads() == tsvd._openblas().get_threads()


@pytest.mark.parametrize("missing", WHEEL_SYMBOLS)
def test_lookup_without_a_wheel_symbol_is_none(missing):
    assert tsvd._bind(wheel_library(missing)) is None


def test_lookup_of_a_plain_openblas_is_none():
    # a system or conda OpenBLAS exports the plain thread pair: no platform of its own
    lib = wheel_library()
    lib.openblas_get_num_threads = vars(lib).pop("scipy_openblas_get_num_threads64_")
    lib.openblas_set_num_threads = vars(lib).pop("scipy_openblas_set_num_threads64_")
    assert tsvd._bind(lib) is None


def test_numpy_wheel_openblas_is_bound():
    # a numpy whose BLAS is the wheel's scipy-openblas must bind all ten symbols:
    # one renamed symbol would put every Hankel row on serial eigh (77 against 39 ms)
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not the wheel's scipy-openblas")
    assert tsvd._openblas() is not None


@pytest.mark.parametrize("failure", ["import", "open"])
def test_lookup_without_numpy_linalg_module_is_none(monkeypatch, failure):
    if failure == "import":
        monkeypatch.delattr(np.linalg, "_umath_linalg")
        monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
    else:
        def cannot_open(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", cannot_open)
    assert tsvd._openblas.__wrapped__() is None


def test_hankel_tsvd_series_takes_integer_rows_as_float():
    series = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
    out, record = hankel_tsvd_series(series, None, FixedRank(1))
    ref, _ = hankel_tsvd_series(series.astype(float), None, FixedRank(1))
    assert out.dtype == np.float64 and record.rank == 1
    assert np.array_equal(out, ref) and not np.array_equal(out, np.round(out))
    low, _ = hankel_tsvd_series(series.astype(np.complex64), None, FixedRank(1))
    assert low.dtype == np.complex128 and np.allclose(low, ref, rtol=0, atol=1e-12)
