"""Per-frequency, PRF and Hankel truncation filters plus the PRANK pipelines.

``apply_filter(ds, cfg)`` runs every ``Variant``; ``prf_tsvd`` runs the PRF
stage alone, in the domain of its input, and returns the principal
response functions.  Both return the filtered dataset and its
``FilterReport``, and are the only builders of one; shape, domain tag and
axis metadata of the input are always preserved.  Every variant is a chain
of stages (``_CHAINS``); a stage maps the (n_o, n_i, n_k) array to a new
one and hands back its ``StageRecord``s.  Each stage has one domain:
classic runs on spectral lines, the Hankel stages on the real time record
(an impulse response is a sum of damped exponentials, so its Hankel matrix
is low rank; an FRF's is not), and the PRF stage on whatever it is handed.
``apply_filter`` holds the chain's only dataset: it bridges the input to the
chain's domain once, folds the stages over its array, and bridges the
result back once.  All but classic use two stages:

- the PRF stage (``_unfolded``): unfolding, one eigendecomposition of the
  smaller Gram matrix (``tsvd._gram``, shared with ``gram_tsvd``), rank
  selection, and the factors of the rank-r rebuild (lhs * scale) @ rhs;
- the Hankel row stage (``tsvd.hankel_tsvd_series``): one Hankel TSVD per
  row, i.e. per (o, i) series or per retained PRF left singular vector:
  one tridiagonal reduction of the row's Gram matrix gives every singular
  value for the selection and then only the kept vectors, and the row is
  averaged back to a series from its rank-r factors.  How its rows share
  BLAS is the ``tsvd`` module docstring's platform rule.

PH and HP run the two in turn.  PRANK_HiP calls the PRF stage, runs the
Hankel row stage on the unit columns of lhs and rebuilds from the filtered
columns, cutting the number of Hankel factorizations (``svd_calls`` in the
reports) from n_o*n_i to the PRF rank.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import Optional

import numpy as np

from .dataset import Domain, ResponseDataset, flatten, to_frequency, to_time, unflatten
from .errors import AxisError, DomainError, ShapeError, WindowError
from .report import FilterReport, StageRecord
from .selection import E15, SelectionStrategy, _unit_exponent
from .tsvd import _gram, _pivot_phase, gram_tsvd, hankel_tsvd_series


class Variant(Enum):
    CLASSIC = "classic"
    PRF = "prf"
    HANKEL = "hankel"
    PRANK_PH = "ph"
    PRANK_HP = "hp"
    PRANK_HIP = "hip"


@dataclass(frozen=True)
class PrankConfig:
    """Pipeline selection, checked when built; ``domain`` accepts only
    ``Domain.TIME``, as stage domains are fixed."""

    variant: Variant = Variant.PRANK_HIP
    domain: Domain = Domain.TIME
    prf_selector: SelectionStrategy = field(default_factory=E15)
    hankel_selector: SelectionStrategy = field(default_factory=E15)
    hankel_window: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.domain is not Domain.TIME:
            raise DomainError(f"unsupported working domain {self.domain!r}: stage domains are fixed")
        for name in ("prf_selector", "hankel_selector"):
            if not isinstance(getattr(self, name), SelectionStrategy):
                raise ValueError(f"{name} must be a selection strategy, got {getattr(self, name)!r}")
        window = self.hankel_window
        if window is not None and (isinstance(window, bool) or not isinstance(window, Integral) or window < 1):
            raise WindowError(f"hankel_window must be None or a positive integer, got {window!r}")


def _classic(data: np.ndarray, cfg: PrankConfig):
    """Independent TSVD of the n_o x n_i slice at every spectral line.

    One stacked ``gram_tsvd`` call truncates all n_k slices: one stacked
    Gram eigendecomposition, one ``evaluate`` over the stacked spectra (for
    e15, one vectorised noise fit per line, all in one pass) and one batched
    projection.  Each line is one call of the record (``StageRecord.of_calls``).
    Under e15 a line needs 2 outputs and 2 inputs (``tsvd._gram``).
    """
    n_o, n_i, _ = data.shape
    if max(n_o, n_i) < 2:
        raise ShapeError("per-line filtering needs 2 outputs or 2 inputs")
    t0 = time.perf_counter()
    out, *call = gram_tsvd(data.transpose(2, 0, 1), cfg.prf_selector)
    record = StageRecord.of_calls("classic", (n_o, n_i), [call], time.perf_counter() - t0)
    return out.transpose(1, 2, 0), [record]


def _unfolded(data: np.ndarray, selector: SelectionStrategy):
    """The PRF stage: one Gram TSVD (``tsvd._gram``) of the n_k x n_o*n_i
    matrix A that ``flatten`` unfolds from the (n_o, n_i, n_k) array
    ``data``, as the factors of its rank-r rebuild (lhs * scale) @ rhs.

    Column j of lhs lies along the left singular vector u_j, in ``_gram``'s
    phase (the multiple depends on the Gram side, which only ``_gram``
    knows).  scale is c / s, with c the e15-cleaned values and c / s = 1 for
    every other selector, so a full rank gives A back without dividing by
    s.  Returns (lhs, rhs, scale, record).
    """
    n_o, n_i, _ = data.shape
    if n_o * n_i < 2:
        raise ShapeError("unfolded filtering needs at least 2 spatial entries")
    matrix = flatten(data)
    t0 = time.perf_counter()
    S, rank, model, lhs, rhs, scale = _gram(matrix, selector)
    return lhs, rhs, scale, StageRecord("prf", matrix.shape, S, rank, model, time.perf_counter() - t0)


def _unit_columns(M: np.ndarray):
    """(unit columns of M, a zero column where M's is zero; their norms).
    Below the squaring floor s is rounding noise, not ||A v||, so the norms
    are taken here, each column first normalised by a power of two so its
    squares cannot overflow."""
    unit = np.ldexp(1.0, _unit_exponent(M, 0))
    norm = np.linalg.norm(M * unit, axis=0) / unit
    return np.divide(M, norm, out=np.zeros_like(M), where=norm > 0), norm


def prf_tsvd(ds: ResponseDataset, selector: SelectionStrategy):
    """Single TSVD of the spectrally-unfolded dataset, in the domain of ``ds``.

    Returns (filtered, report, prfs) where prfs are the retained left
    singular vectors scaled by their singular values, one column per
    retained component, each phased as ``svd``'s (``_pivot_phase``).
    """
    t0 = time.perf_counter()
    lhs, rhs, scale, record = _unfolded(ds.data, selector)
    result = ds.with_data(unflatten((lhs * scale) @ rhs, ds.n_outputs, ds.n_inputs))
    report = FilterReport([record], time.perf_counter() - t0)
    return result, report, _unit_columns(lhs * _pivot_phase(lhs))[0] * record.singular_values[:lhs.shape[1]]


def _check_hankel_input(data: np.ndarray):
    """The one input check of both Hankel stages: at least 4 samples."""
    if data.shape[-1] < 4:
        raise ShapeError("Hankel filtering needs at least 4 samples")


def _prf(data: np.ndarray, cfg: PrankConfig):
    lhs, rhs, scale, record = _unfolded(data, cfg.prf_selector)
    return unflatten((lhs * scale) @ rhs, *data.shape[:2]), [record]


def _hankel(data: np.ndarray, cfg: PrankConfig):
    """Hankel-TSVD every (o, i) time series independently; blind to the rest
    (the series are split over threads by ``hankel_tsvd_series``)."""
    _check_hankel_input(data)
    out, record = hankel_tsvd_series(data, cfg.hankel_window, cfg.hankel_selector)
    return out, [record]


def _hip(data: np.ndarray, cfg: PrankConfig):
    """Mixed pipeline: Hankel-filter only the retained PRF left vectors.

    The Hankel row stage runs on the unit columns of the PRF stage's lhs,
    once per retained component instead of once per spatial entry; the
    filtered rows, times the columns' norms, replace lhs in the PRF rebuild,
    so the PRF singular values (e15-cleaned when applicable) and right
    vectors are reused.
    """
    _check_hankel_input(data)
    lhs, rhs, scale, prf = _unfolded(data, cfg.prf_selector)
    unit, norm = _unit_columns(lhs)
    rows, record = hankel_tsvd_series(unit.T, cfg.hankel_window, cfg.hankel_selector)
    record.name = "hankel_in_prf"
    return unflatten((rows.T * norm * scale) @ rhs, *data.shape[:2]), [prf, record]


# every variant as its domain and its stages, run in order; each maps (data, cfg) to (data, [StageRecord, ...])
_CHAINS = {
    Variant.CLASSIC: (Domain.FREQUENCY, (_classic,)),
    Variant.PRF: (Domain.TIME, (_prf,)),
    Variant.HANKEL: (Domain.TIME, (_hankel,)),
    Variant.PRANK_PH: (Domain.TIME, (_prf, _hankel)),
    Variant.PRANK_HP: (Domain.TIME, (_hankel, _prf)),
    Variant.PRANK_HIP: (Domain.TIME, (_hip,)),
}


def apply_filter(ds: ResponseDataset, cfg: PrankConfig):
    """Run the configured variant on a dataset in either domain: bridge ``ds``
    to the variant's domain once, fold its stages over the array, and build
    the one output dataset, bridged back onto the tag and axes of ``ds``."""
    domain, stages = _CHAINS[cfg.variant]
    if domain is Domain.TIME and ds.domain is Domain.FREQUENCY and ds.axis_start != 0.0:
        raise AxisError(f"variant {cfg.variant.value} runs on the time record, so it needs a spectrum that "
                        f"starts at 0, got axis_start = {ds.axis_start}; for a cut band use classic or prf_tsvd")
    t0 = time.perf_counter()
    work = ds if domain is ds.domain else (to_time if domain is Domain.TIME else to_frequency)(ds)
    data, records = work.data, []
    for stage in stages:
        data, stage_records = stage(data, cfg)
        records += stage_records
    result = work.with_data(data)
    if domain is not ds.domain:
        result = ds.with_data((to_time if ds.domain is Domain.TIME else to_frequency)(result).data)
    return result, FilterReport(records, time.perf_counter() - t0)
