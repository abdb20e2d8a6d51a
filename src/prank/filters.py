"""Per-frequency, PRF and Hankel truncation filters plus the PRANK pipelines.

``apply_filter(ds, cfg)`` runs every ``Variant``; ``prf_tsvd`` runs the PRF
stage alone, in the domain of its input, and returns the principal
response functions.  Both return the filtered dataset and its
``FilterReport``; shape, domain tag and axis metadata of the input are
always preserved.  Every variant is a chain of stages (``_CHAINS``) and
each stage has one domain: classic runs on spectral lines, the Hankel
stages on the real time record (an impulse response is a sum of damped
exponentials, so its Hankel matrix is low rank; an FRF's is not), and the
PRF stage on whatever it is handed.  ``apply_filter`` holds the single
bridge (``_working``): the input goes to the chain's domain once, the
result back once.  All but classic use two stages:

- the PRF stage (``_unfolded``): unfolding, one eigendecomposition of the
  smaller Gram matrix (``tsvd._gram``, shared with ``gram_tsvd``), rank
  selection, and the factors of the rank-r rebuild (lhs * scale) @ rhs;
- the Hankel row stage (``tsvd.hankel_tsvd_series``): one Hankel TSVD per
  row, i.e. per (o, i) series or per retained PRF left singular vector.

PH and HP run the two in turn.  PRANK_HiP calls the PRF stage, runs the
Hankel row stage on the unit columns of lhs and rebuilds from the filtered
columns, cutting the number of Hankel factorizations (``svd_calls`` in the
reports) from n_o*n_i to the PRF rank.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import Domain, ResponseDataset, flatten, to_frequency, to_time, unflatten
from .errors import AxisError, DomainError, ShapeError
from .report import FilterReport, StageRecord
from .selection import E15, SelectionStrategy
from .tsvd import _gram, _pivot_phase, _unit_exponent, gram_tsvd, hankel_tsvd_series


class Variant(Enum):
    CLASSIC = "classic"
    PRF = "prf"
    HANKEL = "hankel"
    PRANK_PH = "ph"
    PRANK_HP = "hp"
    PRANK_HIP = "hip"


@dataclass(frozen=True)
class PrankConfig:
    """Pipeline selection; ``domain`` accepts only ``Domain.TIME``, as stage domains are fixed."""

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


def _working(ds: ResponseDataset, domain: Domain):
    """The one domain bridge, called by ``apply_filter`` only: ``ds`` in ``domain``,
    and a restore that maps a dataset in ``domain`` back to the tag and axes of ``ds``."""
    if domain is ds.domain:
        return ds, lambda out: out
    there, back = (to_time, to_frequency) if domain is Domain.TIME else (to_frequency, to_time)
    return there(ds), lambda out: ds.with_data(back(out).data)


def _classic(ds: ResponseDataset, cfg: PrankConfig):
    """Independent TSVD of the n_o x n_i slice at every spectral line.

    One stacked ``gram_tsvd`` call truncates all n_k slices: one stacked
    Gram eigendecomposition, one ``evaluate`` over the stacked spectra (for
    e15, one vectorised noise fit per line, all in one pass) and one batched
    projection.  Each line is one call of the record (``StageRecord.of_calls``).
    Under e15 a line needs 2 outputs and 2 inputs (``tsvd._gram``).
    """
    n_o, n_i = ds.n_outputs, ds.n_inputs
    if max(n_o, n_i) < 2:
        raise ShapeError("per-line filtering needs 2 outputs or 2 inputs")
    t0 = time.perf_counter()
    out, *call = gram_tsvd(ds.data.transpose(2, 0, 1), cfg.prf_selector)
    record = StageRecord.of_calls("classic", (n_o, n_i), [call], time.perf_counter() - t0)
    return ds.with_data(out.transpose(1, 2, 0)), FilterReport([record], record.seconds)


def _unfolded(ds: ResponseDataset, selector: SelectionStrategy):
    """The PRF stage: one Gram TSVD (``tsvd._gram``) of the spectrally-unfolded
    n_k x n_o*n_i matrix A, as the factors of its rank-r rebuild
    (lhs * scale) @ rhs.

    Column j of lhs lies along the left singular vector u_j (the multiple
    depends on the Gram side, which only ``_gram`` knows) with
    ``_pivot_phase``'s convention; row j of rhs carries the conjugate phase,
    so the product is unchanged.  scale is c / s, with c the e15-cleaned
    values and c / s = 1 for every other selector, so a full rank gives A
    back without dividing by s.  Returns (lhs, rhs, scale, report).
    """
    n_o, n_i = ds.n_outputs, ds.n_inputs
    if n_o * n_i < 2:
        raise ShapeError("unfolded filtering needs at least 2 spatial entries")
    matrix = flatten(ds)
    t0 = time.perf_counter()
    S, rank, model, lhs, rhs, scale = _gram(matrix, selector)
    report = FilterReport([StageRecord("prf", matrix.shape, S, rank, model, time.perf_counter() - t0)])
    if rank == 0:
        report.flags.append("prf_rank_zero")
    rot = _pivot_phase(lhs)
    return lhs * rot, rhs * rot.conj().T, scale, report


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
    retained component.
    """
    t0 = time.perf_counter()
    lhs, rhs, scale, report = _unfolded(ds, selector)
    result = ds.with_data(unflatten((lhs * scale) @ rhs, ds.n_outputs, ds.n_inputs))
    report.total_seconds = time.perf_counter() - t0
    return result, report, _unit_columns(lhs)[0] * report.stages[0].singular_values[:lhs.shape[1]]


def _check_hankel_input(ds: ResponseDataset):
    """The one dataset check of both Hankel stages: at least 4 samples."""
    if ds.n_bins < 4:
        raise ShapeError("Hankel filtering needs at least 4 samples")


def _prf(ds: ResponseDataset, cfg: PrankConfig):
    lhs, rhs, scale, report = _unfolded(ds, cfg.prf_selector)
    return ds.with_data(unflatten((lhs * scale) @ rhs, ds.n_outputs, ds.n_inputs)), report


def _hankel(ds: ResponseDataset, cfg: PrankConfig):
    """Hankel-TSVD every (o, i) time series independently; blind to the rest."""
    _check_hankel_input(ds)
    out, record = hankel_tsvd_series(ds.data, cfg.hankel_window, cfg.hankel_selector)
    return ds.with_data(out), FilterReport([record], record.seconds)


def _hip(ds: ResponseDataset, cfg: PrankConfig):
    """Mixed pipeline: Hankel-filter only the retained PRF left vectors.

    The Hankel row stage runs on the unit columns of the PRF stage's lhs,
    once per retained component instead of once per spatial entry; the
    filtered rows, times the columns' norms, replace lhs in the PRF rebuild,
    so the PRF singular values (e15-cleaned when applicable) and right
    vectors are reused.
    """
    _check_hankel_input(ds)
    lhs, rhs, scale, report = _unfolded(ds, cfg.prf_selector)
    unit, norm = _unit_columns(lhs)
    rows, record = hankel_tsvd_series(unit.T, cfg.hankel_window, cfg.hankel_selector)
    record.name = "hankel_in_prf"
    report.stages.append(record)
    return ds.with_data(unflatten((rows.T * norm * scale) @ rhs, ds.n_outputs, ds.n_inputs)), report


# every variant as its domain and its stages, run in order; each maps (ds, cfg) to (ds, report)
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
    to the variant's domain, run its stages, bridge back."""
    domain, stages = _CHAINS[cfg.variant]
    if domain is Domain.TIME and ds.domain is Domain.FREQUENCY and ds.axis_start != 0.0:
        raise AxisError(f"variant {cfg.variant.value} runs on the time record, so it needs a spectrum that "
                        f"starts at 0, got axis_start = {ds.axis_start}; for a cut band use classic or prf_tsvd")
    t0 = time.perf_counter()
    work, restore = _working(ds, domain)
    report = FilterReport()
    for stage in stages:
        work, stage_report = stage(work, cfg)
        report.stages += stage_report.stages
        report.flags += stage_report.flags
    result = restore(work)
    report.total_seconds = time.perf_counter() - t0
    return result, report
