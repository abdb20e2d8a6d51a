import threading
import time

import numpy as np
import pytest

from prank import (
    E15,
    AbsoluteThreshold,
    DimensionMismatch,
    EmptyError,
    FilterReport,
    FixedRank,
    RelativeThreshold,
    StageRecord,
    ThresholdMode,
    e15,
    mp_fit,
    mp_quantile_curve,
)
from prank import selection
from prank.selection import evaluate

SHAPE = (200, 200)


def complex_noise(rng, m, n, sigma=1.0):
    return sigma * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


# ------------------------------------------------------------- rank choice

def test_relative_per_value_example():
    S = np.array([10.0, 5.0, 1.0, 0.1])
    assert evaluate(S, (4, 4), RelativeThreshold(0.02))[0] == 3


def test_fixed_rank_clamps():
    assert evaluate(np.array([10.0, 5.0, 1.0]), (3, 3), FixedRank(5))[0] == 3
    assert evaluate(np.array([10.0, 5.0, 1.0]), (3, 3), FixedRank(0))[0] == 0


def test_absolute_per_value_example():
    S = np.array([4.0, 3.0, 2.0, 1.0])
    assert evaluate(S, (4, 4), AbsoluteThreshold(2.5))[0] == 2


def test_absolute_cumulative():
    S = np.array([4.0, 3.0, 2.0, 1.0])
    # tail sums: r=0 -> 10, r=1 -> 6, r=2 -> 3
    assert evaluate(S, (4, 4), AbsoluteThreshold(3.5, ThresholdMode.CUMULATIVE))[0] == 2
    assert evaluate(S, (4, 4), AbsoluteThreshold(10.0, ThresholdMode.CUMULATIVE))[0] == 0
    assert evaluate(S, (4, 4), AbsoluteThreshold(0.5, ThresholdMode.CUMULATIVE))[0] == 4


def test_relative_cumulative():
    S = np.array([4.0, 3.0, 2.0, 1.0])
    # tail fractions: 1.0, 0.6, 0.3, 0.1
    assert evaluate(S, (4, 4), RelativeThreshold(0.3, ThresholdMode.CUMULATIVE))[0] == 2
    assert evaluate(S, (4, 4), RelativeThreshold(0.05, ThresholdMode.CUMULATIVE))[0] == 4


def test_zero_leading_singular_value():
    S = np.zeros(4)
    assert evaluate(S, (4, 4), RelativeThreshold(0.5))[0] == 0
    assert evaluate(S, (4, 4), RelativeThreshold(0.5, ThresholdMode.CUMULATIVE))[0] == 0


def test_selection_is_prefix():
    rng = np.random.default_rng(0)
    for _ in range(20):
        S = np.sort(rng.uniform(0, 10, size=12))[::-1]
        for strategy in [
            AbsoluteThreshold(rng.uniform(0, 10)),
            RelativeThreshold(rng.uniform(0.01, 0.99)),
        ]:
            r = evaluate(S, (12, 12), strategy)[0]
            if isinstance(strategy, AbsoluteThreshold):
                sat = S > strategy.eps
            else:
                sat = S / S[0] > strategy.p
            assert all(sat[:r])
            assert r == len(S) or not sat[r]


def test_empty_vector_raises():
    with pytest.raises(EmptyError):
        evaluate(np.zeros(0), (0, 0), FixedRank(1))
    with pytest.raises(EmptyError):
        mp_fit([], (0, 0))


@pytest.mark.parametrize("call", [
    lambda S, shape: evaluate(S, shape, FixedRank(9)),
    lambda S, shape: evaluate(S, shape, E15()),
    lambda S, shape: evaluate(np.stack([S, S]), shape, E15()),
    lambda S, shape: e15(S, shape),
    lambda S, shape: mp_fit(S, shape),
], ids=["evaluate-fixed", "evaluate-e15", "evaluate-stack", "e15", "mp_fit"])
@pytest.mark.parametrize("length", [3, 5])
def test_spectrum_length_must_be_min_of_shape(call, length):
    with pytest.raises(DimensionMismatch, match=f"{length} values, a \\(4, 4\\) matrix has 4"):
        call(np.ones(length), (4, 4))
    with pytest.raises(EmptyError):  # emptiness is reported first
        call(np.ones(0), (4, 4))


@pytest.mark.parametrize("call", [
    lambda: evaluate(np.float64(1.0), (1, 1), FixedRank(1)),
    lambda: e15(3.0, (2, 2)),
    lambda: mp_fit(3.0, (2, 2)),
], ids=["evaluate", "e15", "mp_fit"])
def test_zero_d_spectrum_is_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match="ndim=0"):
        call()


def test_strategy_validation():
    with pytest.raises(ValueError):
        RelativeThreshold(1.5)
    with pytest.raises(ValueError):
        AbsoluteThreshold(-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        AbsoluteThreshold(float("nan"))
    with pytest.raises(ValueError):
        E15(0.0)
    with pytest.raises(ValueError, match="tail_fraction"):
        E15(tail_fraction=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        evaluate(np.ones(4), (4, 4), FixedRank(-1))
    for r in (-1, 2.5, True):  # rejected when built, not floored or cast when evaluated
        with pytest.raises(ValueError, match="nonnegative integer"):
            FixedRank(r)
    with pytest.raises(TypeError):
        evaluate(np.ones(4), (4, 4), "e15")
    for strategy in (AbsoluteThreshold, RelativeThreshold):  # the mode's value string is not a mode
        with pytest.raises(ValueError, match="unknown threshold mode 'per_value'"):
            strategy(0.5, "per_value")


@pytest.mark.parametrize("kw", [{"mu": 5.0}, {"mu": 0.0}, {"tail_fraction": 2.0}])
def test_e15_helper_validates_like_the_strategy(kw):
    with pytest.raises(ValueError):
        e15(np.linspace(2.0, 1.0, 8), (8, 8), **kw)


@pytest.mark.parametrize("tail_fraction", [0.0, 1.0, 2.0, float("nan")])
def test_mp_fit_rejects_tail_fraction_outside_unit_interval(tail_fraction):
    with pytest.raises(ValueError, match="tail_fraction"):
        mp_fit(np.linspace(2.0, 1.0, 8), (8, 8), tail_fraction)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
def test_mp_quantile_curve_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        mp_quantile_curve((8, 8), sigma)


@pytest.mark.parametrize("corr", [-1.0, 0.5, float("nan")])
def test_mp_quantile_curve_rejects_corr_below_one(corr):
    with pytest.raises(ValueError, match="corr"):
        mp_quantile_curve((8, 8), 1.0, corr)


# ------------------------------------------------------- mp_quantile_curve

def test_curve_zero_sigma():
    assert np.array_equal(mp_quantile_curve(SHAPE, 0.0), np.zeros(200))


def test_curve_square_edge_matches_analytic():
    # beta = 1: lambda_plus = 4, so the top predicted value approaches 2*sigma*sqrt(m)
    curve = mp_quantile_curve(SHAPE, 1.0)
    assert curve[0] == pytest.approx(2.0 * np.sqrt(200), rel=0.02)


def test_curve_monotone_in_index_and_sigma():
    c1 = mp_quantile_curve((100, 60), 1.0)
    c2 = mp_quantile_curve((100, 60), 2.0)
    assert np.all(np.diff(c1) <= 1e-12)
    assert np.all(c2 >= c1)
    assert np.allclose(c2, 2.0 * c1, rtol=1e-12)


def test_curve_corr_truncates_effective_rank():
    curve = mp_quantile_curve((100, 40), 1.0, corr=4.0)  # n_eff = 10
    assert np.all(curve[:10] > 0)
    assert np.array_equal(curve[10:], np.zeros(30))


def test_curve_matches_seeded_noise():
    rng = np.random.default_rng(123)
    X = complex_noise(rng, 200, 200)
    S = np.linalg.svd(X, compute_uv=False)
    curve = mp_quantile_curve(SHAPE, 1.0)
    lo, hi = 20, 180
    rel = np.abs(S[lo:hi] - curve[lo:hi]) / curve[lo:hi]
    assert rel.max() <= 0.06


def test_curve_rectangular_matches_seeded_noise():
    rng = np.random.default_rng(5)
    X = complex_noise(rng, 4000, 16)
    S = np.linalg.svd(X, compute_uv=False)
    curve = mp_quantile_curve((4000, 16), 1.0)
    assert np.abs(S - curve).max() / curve[0] <= 0.02


# ----------------------------------------------------------------- mp_fit

def test_mp_fit_recovers_unit_sigma():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        S = np.linalg.svd(complex_noise(rng, 100, 100), compute_uv=False)
        sigma, corr = mp_fit(S, (100, 100))
        assert 0.9 <= sigma <= 1.1


def test_mp_fit_zero_tail():
    S = np.concatenate([np.array([10.0, 5.0]), np.zeros(10)])
    sigma, corr = mp_fit(S, (12, 12))
    assert sigma == 0.0 and corr == 1.0


def test_mp_fit_homogeneity():
    rng = np.random.default_rng(4)
    S = np.linalg.svd(complex_noise(rng, 64, 64), compute_uv=False)
    s1, c1 = mp_fit(S, (64, 64))
    s2, c2 = mp_fit(10.0 * S, (64, 64))
    assert s2 == pytest.approx(10.0 * s1, rel=1e-12)
    assert c1 == c2


def test_mp_fit_is_exact_where_the_tail_squares_to_subnormals():
    # each column twice: rank 100, so the fitted tail is rounding noise near
    # 1e-15; at 2^-600 its squares would underflow unless the fit normalises
    rng = np.random.default_rng(3)
    S = np.linalg.svd(np.repeat(complex_noise(rng, 200, 100), 2, axis=1), compute_uv=False)
    sigma, corr = mp_fit(S, (200, 200))
    assert mp_fit(2.0**-600 * S, (200, 200)) == (2.0**-600 * sigma, corr)


# -------------------------------------------------------------------- e15

def test_e15_noiseless_low_rank():
    S = np.concatenate([np.array([100.0, 50.0, 20.0, 10.0]), np.zeros(8)])
    model = e15(S, (40, 12), 0.10)
    assert model.sigma_n == 0.0
    assert np.allclose(model.cleanliness[:4], 1.0)
    assert model.rank == 4
    assert np.array_equal(model.cleaned_s, S[:4])


def test_e15_pure_noise_rank_small():
    ranks = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        S = np.linalg.svd(complex_noise(rng, 100, 100), compute_uv=False)
        ranks.append(e15(S, (100, 100), 0.10).rank)
    assert max(ranks) <= 3


def test_e15_planted_signal_cleaned_values():
    rng = np.random.default_rng(11)
    m = n = 100
    noise = complex_noise(rng, m, n)
    signal_s = np.array([100.0, 50.0, 20.0, 10.0]) * np.sqrt(m) / 5
    qu, _ = np.linalg.qr(complex_noise(rng, m, 4))
    qv, _ = np.linalg.qr(complex_noise(rng, n, 4))
    A = (qu * signal_s) @ qv.conj().T + noise
    S = np.linalg.svd(A, compute_uv=False)
    model = e15(S, (m, n), 0.10)
    assert model.rank == 4
    expected = np.sqrt(np.maximum(S[:4] ** 2 - model.mp_curve[:4] ** 2, 0.0))
    assert np.allclose(model.cleaned_s, expected)
    # the cleaned top value sits close to the planted scale
    assert model.cleaned_s[0] == pytest.approx(signal_s[0], rel=0.05)


def rank3_spectrum():
    """The spectrum of three planted components over 201 x 200 unit noise, and that shape."""
    rng = np.random.default_rng(14)
    m, n = 201, 200
    qu, _ = np.linalg.qr(complex_noise(rng, m, 3))
    qv, _ = np.linalg.qr(complex_noise(rng, n, 3))
    A = (qu * [300.0, 200.0, 100.0]) @ qv.conj().T + complex_noise(rng, m, n)
    return np.linalg.svd(A, compute_uv=False), (m, n)


@pytest.mark.parametrize("tail_fraction", [0.5, 0.25])
def test_e15_tail_misfit_covers_the_fitted_tail(tail_fraction):
    S, (m, n) = rank3_spectrum()
    _, model = evaluate(S, (m, n), E15(0.10, tail_fraction))
    tail = slice(int(n * (1.0 - tail_fraction)), None)
    expected = np.linalg.norm(S[tail] - model.mp_curve[tail]) / np.linalg.norm(S[tail])
    assert model.tail_misfit == pytest.approx(expected, rel=1e-12)
    text = FilterReport([StageRecord("prf", (m, n), S, model.rank, model)]).to_text()
    assert f"e15_tail_misfit: {expected:.4f}" in text


@pytest.mark.parametrize("factor", [7.0, 2.0**-600, 2.0**-3, 2.0**520, 2.0**600],
                         ids=["7", "2^-600", "2^-3", "2^520", "2^600"])
def test_e15_homogeneity(factor):
    # a power of two scales every field exactly, at any finite magnitude,
    # though the fit squares S (2^520 S overflows, 2^-600 S underflows)
    S, shape = rank3_spectrum()
    m1 = e15(S, shape, 0.10)
    m2 = e15(factor * S, shape, 0.10)
    assert m1.rank == 3 and m2.rank == m1.rank
    if factor == 7.0:
        assert np.allclose(m2.cleanliness, m1.cleanliness, atol=1e-12)
        assert m2.sigma_n == pytest.approx(7.0 * m1.sigma_n, rel=1e-12)
        assert np.allclose(m2.cleaned_s, 7.0 * m1.cleaned_s, rtol=1e-12)
        return
    assert np.array_equal(m2.cleanliness, m1.cleanliness) and m2.tail_misfit == m1.tail_misfit
    assert m2.sigma_n == factor * m1.sigma_n
    assert np.array_equal(m2.cleaned_s, factor * m1.cleaned_s)
    assert np.array_equal(m2.mp_curve, factor * m1.mp_curve)


def test_e15_invariants():
    rng = np.random.default_rng(13)
    S = np.sort(rng.uniform(0, 50, 64))[::-1]
    model = e15(S, (64, 64), 0.10)
    assert np.all(model.cleaned_s <= S[: model.rank] + 1e-12)
    assert np.all(model.mp_curve[:-1] >= model.mp_curve[1:] - 1e-12)
    assert np.all((model.cleanliness >= 0) & (model.cleanliness <= 1))
    assert model.rank <= len(S)


def test_e15_degenerate_zero_input():
    model = e15(np.zeros(16), (16, 16), 0.10)
    assert model.rank == 0
    assert model.sigma_n == 0.0
    assert np.isnan(model.tail_misfit)
    record = StageRecord("prf", (16, 16), np.zeros(16), 0, model)
    assert "e15_tail_misfit" not in FilterReport([record]).to_text()


def test_report_stage_lookup_unknown_name():
    report = FilterReport([StageRecord("prf", (4, 4), np.ones(4), 4)])
    assert report.stage("prf").rank == 4
    with pytest.raises(KeyError):
        report.stage("nope")


def test_threads_needing_one_new_shape_solve_it_once(monkeypatch):
    # the rows of a Hankel stage run on several threads and, in a fresh
    # process, all ask for the same uncached shape at once
    solves, real = [], selection._unit_curves

    def counting(*args):
        solves.append(args[0])
        time.sleep(0.05)  # long enough for the other thread to reach the cache
        return real(*args)

    monkeypatch.setattr(selection, "_unit_curves", counting)
    selection._corr_grid_curves.cache_clear()
    S, start, fits = np.linspace(1.0, 0.1, 30), threading.Barrier(2), []

    def work():
        start.wait(timeout=10)
        fits.append(mp_fit(S, (30, 40)))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(solves) == 1
    assert fits == [fits[0]] * 2
