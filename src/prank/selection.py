"""Truncation-rank selection: manual, threshold-based and automated e15.

The e15 path fits a Marchenko-Pastur quantile curve to the tail of the
singular values, scores each mode's cleanliness against the fitted noise
floor, thresholds at a user fraction mu and subtracts the fitted noise
energy from the retained singular values.  The quantile curves come from
Newton solves of the closed-form MP distribution function, once per shape.

Every strategy runs on a stack of spectra, shape (n, p), taken from n
matrices of one shape: ``evaluate`` accepts such a stack and selects all
rows in one array pass (for e15: the least-squares fits of every corr
candidate and row at once, then the best candidate per row).  A single
spectrum is the one-row case of the same code; ``mp_fit``, ``e15`` and
``evaluate`` on a 1-D vector return scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from numbers import Integral
from typing import Union

import numpy as np

from .errors import DimensionMismatch, EmptyError, NonFiniteError

CORR_GRID = tuple(np.arange(1.0, 4.0 + 1e-9, 0.25))
# Tail residuals closer than this fraction of the tail's energy are a tie.
# A tail that every candidate fits exactly (a single kept value, say) leaves
# only rounding between the residuals, which a scale of S can reorder.
_TIE_TOL = 1e-12


class ThresholdMode(Enum):
    PER_VALUE = "per_value"
    CUMULATIVE = "cumulative"


@dataclass(frozen=True)
class FixedRank:
    r: int

    def __post_init__(self):
        if isinstance(self.r, bool) or not isinstance(self.r, Integral) or self.r < 0:
            raise ValueError(f"rank must be a nonnegative integer, got {self.r!r}")


@dataclass(frozen=True)
class AbsoluteThreshold:
    eps: float
    mode: ThresholdMode = ThresholdMode.PER_VALUE

    def __post_init__(self):
        if not self.eps >= 0:
            raise ValueError(f"threshold must be nonnegative, got {self.eps}")
        if not isinstance(self.mode, ThresholdMode):
            raise ValueError(f"unknown threshold mode {self.mode!r}")


@dataclass(frozen=True)
class RelativeThreshold:
    p: float
    mode: ThresholdMode = ThresholdMode.PER_VALUE

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("relative threshold must lie in (0, 1)")
        if not isinstance(self.mode, ThresholdMode):
            raise ValueError(f"unknown threshold mode {self.mode!r}")


@dataclass(frozen=True)
class E15:
    mu: float = 0.10
    tail_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")


SelectionStrategy = Union[FixedRank, AbsoluteThreshold, RelativeThreshold, E15]


@dataclass(frozen=True)
class E15Model:
    """Fitted noise model and the resulting selection/reconstruction data.

    For a single spectrum the fields are scalars and length-p vectors, and
    ``cleaned_s`` has length ``rank``.  For a stack (..., p) of spectra every
    field gains the stack's leading axes, and ``cleaned_s`` is (..., p) with
    zeros beyond each spectrum's rank.

    ``tail_misfit`` is ||S - mp_curve|| / ||S|| over the fitted tail (zeros
    excluded), NaN for an all-zero tail; large means a poor MP fit.
    """

    sigma_n: float
    corr: float
    mp_curve: np.ndarray
    cleanliness: np.ndarray
    rank: int
    cleaned_s: np.ndarray
    tail_misfit: float


def _mp_cdf(t, beta):
    """MP distribution function of a unit-variance matrix with beta = N/M <= 1.

    On lam = (1 - sqrt(beta))^2 + 4 sqrt(beta) sin^2(t/2), t in [0, pi], the
    MP density is dF/dt = 2 sin^2 t / (pi lam), which integrates to

        F(t) = [sqrt(beta) sin t + beta t
                - (1 - beta) atan2(sqrt(beta) sin t, 1 - sqrt(beta) cos t)] / (pi beta).
    """
    rb = np.sqrt(beta)
    sin = np.sin(t)
    atan = np.arctan2(rb * sin, 1.0 - rb * np.cos(t))
    return (rb * sin + beta * t - (1.0 - beta) * atan) / (np.pi * beta)


def _unit_curves(m: int, widths, p: int) -> np.ndarray:
    """Length-p unit-sigma quantile curves of m x n_eff matrices, one row per
    n_eff in ``widths``: index k <= N = min(m, n_eff) holds sqrt(M lam(t_k)),
    M = max(m, n_eff), with F(t_k) = (N - k + 1/2)/N; later indices are zero.

    All roots are solved at once (past N, for a stand-in q = 1/2).  Bisection
    narrows each bracket below pi/p, near the smallest roots, where F can rise
    like t^3 and Newton from afar creeps; five bracketed Newton steps follow.
    """
    big, small = np.maximum(m, widths)[:, None], np.minimum(m, widths)[:, None]
    beta = small / big
    rb = np.sqrt(beta)
    q = (small - np.arange(1, p + 1) + 0.5) / small
    valid = q > 0.0
    q = np.where(valid, q, 0.5)

    def lam(t):
        return (1.0 - rb) ** 2 + 4.0 * rb * np.sin(0.5 * t) ** 2

    lo, hi, t = np.zeros(q.shape), np.full(q.shape, np.pi), np.full(q.shape, 0.5 * np.pi)
    bisections = max(6, int(p).bit_length())
    for step in range(bisections + 5):
        f = _mp_cdf(t, beta) - q
        lo, hi = np.where(f < 0.0, t, lo), np.where(f < 0.0, hi, t)
        if step < bisections:
            t = 0.5 * (lo + hi)
        else:
            t = np.clip(t - f * np.pi * lam(t) / (2.0 * np.sin(t) ** 2), lo, hi)
    return np.where(valid, np.sqrt(big * lam(t)), 0.0)


def mp_quantile_curve(shape: tuple, sigma: float, corr: float = 1.0) -> np.ndarray:
    """Predicted singular values of an i.i.d. complex Gaussian noise matrix.

    ``shape`` is the (rows, cols) of the data matrix; ``sigma`` the per-entry
    standard deviation; ``corr`` >= 1 reduces the effective column count to
    round(cols/corr).  The k-th value is sigma*sqrt(M)*sqrt(lam_k) with
    lam_k the (N - k + 1/2)/N quantile of the MP law, solved from its
    closed-form CDF to rounding.  Indices past the effective rank are zero.
    The result has length min(shape).  A negative or non-finite sigma, or a
    corr below 1 (or NaN), raises ValueError.
    """
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if not corr >= 1.0:
        raise ValueError(f"corr must be >= 1, got {corr}")
    m, n = shape
    p = min(m, n)
    if sigma == 0.0:
        return np.zeros(p)
    return sigma * _unit_curves(m, [max(1, round(n / corr))], p)[0]


@lru_cache(maxsize=128)
def _corr_grid_curves(m: int, n: int) -> np.ndarray:
    """Unit-sigma quantile curves for every corr in CORR_GRID, one per row."""
    curves = _unit_curves(m, [max(1, round(n / corr)) for corr in CORR_GRID], min(m, n))
    curves.setflags(write=False)
    return curves


def _spectra(S, shape: tuple) -> np.ndarray:
    """S as floats, each of its spectra checked to hold min(shape) values; a
    0-d S raises DimensionMismatch."""
    S = np.asarray(S, dtype=float)
    if S.ndim == 0:
        raise DimensionMismatch("expected a singular-value vector or a stack of them, got ndim=0")
    if S.shape[-1] == 0:
        raise EmptyError("empty singular-value vector")
    if S.shape[-1] != min(shape):
        raise DimensionMismatch(
            f"spectrum has {S.shape[-1]} values, a {tuple(shape)} matrix has {min(shape)}")
    return S


def _fit(S: np.ndarray, shape: tuple, tail_fraction: float) -> tuple:
    """Noise fit of every row of S (n, p): arrays (sigma_n, corr, mp_curve, tail_misfit).

    Fits all corr candidates of all rows in one pass.  Excluded tail values
    (exact zeros) enter the sums as zeros, so each row's sums run over its
    kept indices alone.
    """
    p = S.shape[-1]
    start = min(int(p * (1.0 - tail_fraction)), p - 1)
    units = _corr_grid_curves(*shape)
    keep = S[:, start:] > 0.0
    tail = np.where(keep, S[:, start:], 0.0)[:, None, :]
    c = np.where(keep[:, None, :], units[:, start:], 0.0)
    denom = np.sum(c * c, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.sum(tail * c, axis=-1) / denom
        resid = np.sum((tail - sigma[..., None] * c) ** 2, axis=-1)
    resid[denom == 0.0] = np.inf
    floor = resid.min(axis=-1, keepdims=True) + _TIE_TOL * np.sum(tail * tail, axis=-1)
    best = np.argmax(resid <= floor, axis=-1)  # ties go to the smallest corr
    rows = np.arange(len(S))
    fitted = denom[rows, best] > 0.0
    sigma = np.where(fitted, sigma[rows, best], 0.0)
    corr = np.where(fitted, np.asarray(CORR_GRID)[best], 1.0)
    curve = sigma[:, None] * units[best]
    resid = np.where(keep, S[:, start:] - curve[:, start:], 0.0)
    with np.errstate(invalid="ignore"):
        misfit = np.linalg.norm(resid, axis=-1) / np.linalg.norm(tail[:, 0], axis=-1)
    return sigma, corr, curve, misfit


def mp_fit(S: np.ndarray, shape: tuple, tail_fraction: float = 0.5) -> tuple:
    """(sigma_n, corr) of ``e15(S, shape, tail_fraction=tail_fraction)``: the noise fit.

    Grid search over corr in {1.0, 1.25, ..., 4.0}; for each candidate the
    scale sigma follows from closed-form least squares of the tail (last
    ``tail_fraction`` of the indices, exact zeros excluded) against the
    unit-sigma quantile curve.  Smallest-residual pair wins; ties, residuals
    within 1e-12 of the tail's energy, resolve to the smallest corr.  An
    all-zero tail yields (0.0, 1.0); a ``tail_fraction`` outside (0, 1)
    raises ValueError.  Exact at any finite magnitude, as ``e15``.
    """
    model = e15(S, shape, tail_fraction=tail_fraction)
    return model.sigma_n, model.corr


def _unit_exponent(A: np.ndarray, axis) -> np.ndarray:
    """Exponents e, one per slice of A over ``axis``, such that 2^e times the
    slice has its largest |entry| in [1, 2): an exact scaling under which
    squaring neither overflows nor underflows.  e is capped at 1023 so 2^e
    stays finite; a subnormal peak lands at 2^-51 or above.  NaN or infinite
    entries raise NonFiniteError."""
    peak = np.max(np.abs(A), axis=axis, initial=0.0)
    if not np.all(np.isfinite(peak)):
        raise NonFiniteError("matrix entries must be finite")
    return np.minimum(1 - np.frexp(peak)[1], 1023)


def _e15(S: np.ndarray, shape: tuple, mu: float, tail_fraction: float) -> E15Model:
    """e15 on every row of S (n, p); the stacked E15Model.  The fit and the
    cleaning square S, so each row runs at the power of two that brings its
    peak into [1, 2) (``_unit_exponent``) and sigma_n, mp_curve and
    cleaned_s are scaled back: exact at any finite magnitude."""
    e = _unit_exponent(S, -1)
    S = S * np.ldexp(1.0, e)[:, None]
    sigma_n, corr, curve, misfit = _fit(S, shape, tail_fraction)
    with np.errstate(divide="ignore", invalid="ignore"):
        cleanliness = np.where(S > 0.0, 1.0 - curve / np.where(S > 0.0, S, 1.0), 0.0)
    cleanliness = np.clip(cleanliness, 0.0, 1.0)
    above = cleanliness >= mu
    rank = np.where(above.all(axis=-1), S.shape[-1], np.argmin(above, axis=-1))
    kept = np.arange(S.shape[-1]) < rank[:, None]
    cleaned = np.where(kept, np.sqrt(np.maximum(S**2 - curve**2, 0.0)), 0.0)
    back = np.ldexp(1.0, -e)[:, None]
    return E15Model(sigma_n * back[:, 0], corr, curve * back, cleanliness, rank, cleaned * back, misfit)


def _first_row(model: E15Model) -> E15Model:
    sigma_n, corr, curve, clean, rank, cleaned, misfit = (x[0] for x in vars(model).values())
    return E15Model(float(sigma_n), float(corr), curve, clean, int(rank), cleaned[:rank], float(misfit))


def e15(S: np.ndarray, shape: tuple, mu: float = 0.10, tail_fraction: float = 0.5) -> E15Model:
    """Fit the noise floor and derive rank + cleaned singular values.

    cleanliness[k] = clamp(1 - mp_curve[k]/S[k], 0, 1) runs from ~0 at the
    noise ceiling to ~1 for the cleanest dominant mode; the selected rank is
    the longest prefix with cleanliness >= mu.  Retained singular values are
    root-difference cleaned: sqrt(max(S^2 - mp_curve^2, 0)).  Degenerate
    inputs produce rank 0 rather than an error; ``mu`` and ``tail_fraction``
    are checked as by ``E15``.
    """
    return evaluate(S, shape, E15(mu, tail_fraction))[1]


def evaluate(S: np.ndarray, shape: tuple, strategy: SelectionStrategy):
    """Truncation rank and fitted E15Model (None for the other strategies).

    Selection is always a prefix of the nonincreasing singular values:
    strict inequality against the threshold, first crossing wins.

    ``S`` is one singular-value vector of a ``shape`` matrix, or a stack
    (..., p) of them from matrices of that shape.  A stack returns an int
    array of ranks, shape S.shape[:-1], and, for e15, the stacked E15Model;
    entry k of either equals what ``evaluate(S[k], shape, strategy)`` returns.
    """
    S = _spectra(S, shape)
    ranks, model = _select(S.reshape(-1, S.shape[-1]), shape, strategy)
    if S.ndim == 1:
        return int(ranks[0]), None if model is None else _first_row(model)
    lead = S.shape[:-1]
    if model is not None:
        model = E15Model(*(np.reshape(x, lead + np.shape(x)[1:]) for x in vars(model).values()))
    return ranks.reshape(lead), model


def _tail_sums(S: np.ndarray) -> np.ndarray:
    """tails[:, r] = sum of S[:, r:], for r = 0 .. p."""
    return np.concatenate([np.cumsum(S[:, ::-1], axis=-1)[:, ::-1], np.zeros((len(S), 1))], axis=-1)


def _select(S: np.ndarray, shape: tuple, strategy: SelectionStrategy):
    """Ranks (n,) and stacked model for the rows of S (n, p)."""
    p = S.shape[-1]
    if isinstance(strategy, FixedRank):
        return np.full(len(S), min(strategy.r, p)), None
    if isinstance(strategy, AbsoluteThreshold):
        if strategy.mode is ThresholdMode.PER_VALUE:
            return np.sum(S > strategy.eps, axis=-1), None
        return np.argmax(_tail_sums(S) <= strategy.eps, axis=-1), None
    if isinstance(strategy, RelativeThreshold):
        with np.errstate(divide="ignore", invalid="ignore"):
            if strategy.mode is ThresholdMode.PER_VALUE:
                scale = S[:, 0]
                ranks = np.sum(S / scale[:, None] > strategy.p, axis=-1)
            else:
                scale = np.sum(S, axis=-1)
                ranks = np.argmax(_tail_sums(S) / scale[:, None] <= strategy.p, axis=-1)
        return np.where(scale == 0.0, 0, ranks), None
    if isinstance(strategy, E15):
        model = _e15(S, shape, strategy.mu, strategy.tail_fraction)
        return model.rank, model
    raise TypeError(f"unknown selection strategy {strategy!r}")
