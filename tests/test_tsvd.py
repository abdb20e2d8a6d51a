import numpy as np
import pytest

from prank import (
    E15,
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
], ids=["hankelize-2d", "hankelize-0d", "dehankelize-1d", "dehankelize-3d", "gram_tsvd-1d", "svd-1d"])
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


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("selector", [FixedRank(6), E15()])
def test_hankel_tsvd_series_stack_equals_row_by_row(complex_data, selector):
    rows = np.stack([noisy_series(complex_data, seed) for seed in range(3)])
    out, record = hankel_tsvd_series(rows, 150, selector)
    alone = [hankel_tsvd_series(row, 150, selector) for row in rows]
    assert np.array_equal(out, np.stack([a for a, _ in alone]))
    assert record.extras["ranks"] == [rec.rank for _, rec in alone]
    assert record.extras["svd_calls"] == 3 and record.rank == max(record.extras["ranks"])
    assert np.array_equal(record.singular_values, np.mean([rec.singular_values for _, rec in alone], axis=0))
    if record.model is not None:
        for name, value in vars(record.model).items():
            assert np.array_equal(value, np.concatenate([getattr(rec.model, name) for _, rec in alone]),
                                  equal_nan=True), name
    # no rows, as HiP hands over at PRF rank 0: no calls and an empty result
    empty, record = hankel_tsvd_series(rows[:0], 150, selector)
    assert empty.shape == (0, rows.shape[1]) and empty.dtype == rows.dtype
    assert (record.extras["svd_calls"], record.extras["ranks"], record.rank) == (0, [], 0)
    assert record.model is None and not record.singular_values.any()


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
