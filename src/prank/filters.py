"""Per-frequency, PRF and Hankel truncation filters plus the PRANK pipelines.

All filters return (filtered_dataset, FilterReport); shape, domain tag and
axis metadata of the input are always preserved.  Every variant is a chain
of stages (``_CHAINS``) and each stage has one domain: classic runs on
spectral lines, the Hankel stages on the real time record (an impulse
response is a sum of damped exponentials, so its Hankel matrix is low rank;
an FRF's is not), and the PRF stage on whatever it is handed.  ``_chain``
holds the single bridge (``_working``): the input goes to the chain's
domain once, the result back once.  All but classic use two stages:

- the PRF stage (``_unfolded``): unfolding, one eigendecomposition of the
  smaller Gram matrix (``tsvd._gram``, shared with ``gram_tsvd``), rank
  selection, rank-r rebuild by projection;
- the Hankel row stage (``tsvd.hankel_tsvd_series``): one Hankel TSVD per
  row, i.e. per (o, i) series or per retained PRF left singular vector.

PH and HP run the two in turn; PRANK_HiP runs the Hankel row stage on the
PRF left vectors inside the PRF stage, cutting the number of Hankel
factorizations (``svd_calls`` in the reports) from n_o*n_i to the PRF
rank.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import (
    Domain,
    ResponseDataset,
    _irfft_real_edges,
    flatten,
    to_frequency,
    to_time,
    unflatten,
)
from .errors import AxisError, DomainError, ShapeError
from .report import FilterReport, StageRecord
from .selection import E15, SelectionStrategy
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
    """The one domain bridge, called by ``_chain`` only: ``ds`` in ``domain``,
    and a restore that maps a dataset in ``domain`` back to the tag and axes of ``ds``."""
    if domain is ds.domain:
        return ds, lambda out: out
    if domain is Domain.TIME:
        return to_time(ds), lambda out: ds.with_data(np.fft.rfft(out.data, axis=-1))
    return to_frequency(ds), lambda out: ds.with_data(_irfft_real_edges(out.data, ds.n_bins))


def classic_tsvd(ds: ResponseDataset, selector: SelectionStrategy):
    """Independent TSVD of the n_o x n_i slice at every spectral line.

    One stacked ``gram_tsvd`` call truncates all n_k slices: one stacked
    Gram eigendecomposition, one ``evaluate`` over the stacked spectra (for
    e15, one vectorised noise fit per line, all in one pass) and one batched
    projection.  Each line is one call of the record (``StageRecord.of_calls``).
    Under e15 a line needs 2 outputs and 2 inputs (``tsvd._gram``).
    """
    if ds.domain is not Domain.FREQUENCY:
        raise DomainError("per-frequency-line filtering requires a frequency-domain dataset")
    n_o, n_i = ds.n_outputs, ds.n_inputs
    if max(n_o, n_i) < 2:
        raise ShapeError("per-line filtering needs 2 outputs or 2 inputs")
    t0 = time.perf_counter()
    out, S, ranks, model = gram_tsvd(ds.data.transpose(2, 0, 1), selector)
    record = StageRecord.of_calls("classic", (n_o, n_i), S, ranks, model, time.perf_counter() - t0)
    filtered = ds.with_data(out.transpose(1, 2, 0))
    return filtered, FilterReport([record], record.seconds)


def _unfolded(ds: ResponseDataset, selector: SelectionStrategy, hankel=None):
    """The PRF stage: one Gram TSVD (``tsvd._gram``) of the spectrally-unfolded
    n_k x n_o*n_i matrix A.

    The Gram side gives V_r when A is tall and U_r when it is wide; the
    prfs U_r S_r are A V_r or U_r S_r, with ``_pivot_phase``'s convention.
    The rebuild is the projection A V_r diag(c / s) V_r^H, or
    U_r diag(c / s) U_r^H A, with c the e15-cleaned values and c / s = 1 for
    every other selector, so a full rank gives A back without dividing by s.
    ``hankel = (window, selector)`` runs the Hankel row stage on the unit
    left vectors U_r (the normalised columns of A V_r when tall, a zero
    column where A v = 0) before the rebuild (PRANK_HiP).  Returns (filtered, report, prfs), prfs taken
    before any Hankel stage.
    """
    n_o, n_i = ds.n_outputs, ds.n_inputs
    if n_o * n_i < 2:
        raise ShapeError("unfolded filtering needs at least 2 spatial entries")
    matrix = flatten(ds)
    t0 = time.perf_counter()
    S, rank, model, Q, scale, left = _gram(matrix, selector)
    report = FilterReport([StageRecord("prf", matrix.shape, S, rank, model, time.perf_counter() - t0)])
    if rank == 0:
        report.flags.append("prf_rank_zero")
    s = S[:rank]
    if left:  # Q = U_r
        Q = Q * _pivot_phase(Q)
        prfs = Q * s
        lhs, rhs = Q, Q.conj().T @ matrix
    else:  # Q = V_r, and A V_r = U_r diag(s)
        prfs = matrix @ Q
        rot = _pivot_phase(prfs)
        prfs, Q = prfs * rot, Q * rot
        lhs, rhs = prfs, Q.conj().T
    if hankel is not None:
        # unit columns of A V_r: below the squaring floor s is rounding noise, not ||A v||
        norm = 1.0 if left else np.linalg.norm(prfs, axis=0)
        U = Q if left else np.divide(prfs, norm, out=np.zeros_like(prfs), where=norm > 0)
        rows, record = hankel_tsvd_series(U.T, *hankel)
        record.name = "hankel_in_prf"
        lhs = rows.T * norm
        report.stages.append(record)
    filtered = (lhs * scale) @ rhs
    result = ds.with_data(unflatten(filtered, n_o, n_i))
    report.total_seconds = time.perf_counter() - t0
    return result, report, prfs


def prf_tsvd(ds: ResponseDataset, selector: SelectionStrategy):
    """Single TSVD of the spectrally-unfolded dataset, in the domain of ``ds``.

    Returns (filtered, report, prfs) where prfs are the retained left
    singular vectors scaled by their singular values, one column per
    retained component.
    """
    return _unfolded(ds, selector)


def hankel_filter_dataset(ds: ResponseDataset, selector: SelectionStrategy, window: Optional[int] = None):
    """Hankel-TSVD every (o, i) time series independently; blind to the rest."""
    _check_hankel_input(ds)
    out, record = hankel_tsvd_series(ds.data, window, selector)
    return ds.with_data(out), FilterReport([record], record.seconds)


def _check_hankel_input(ds: ResponseDataset):
    """The one dataset check of both Hankel stages: a time record of at least 4 samples."""
    if ds.domain is not Domain.TIME:
        raise DomainError("Hankel filtering requires a time-domain dataset")
    if ds.n_bins < 4:
        raise ShapeError("Hankel filtering needs at least 4 samples")


def prank_ph(ds: ResponseDataset, cfg: PrankConfig):
    """PRF stage followed by per-entry Hankel filtering."""
    return _chain(ds, cfg, Variant.PRANK_PH)


def prank_hp(ds: ResponseDataset, cfg: PrankConfig):
    """Per-entry Hankel filtering followed by the PRF stage."""
    return _chain(ds, cfg, Variant.PRANK_HP)


def prank_hip(ds: ResponseDataset, cfg: PrankConfig):
    """Mixed pipeline: Hankel-filter only the retained PRF left vectors.

    The Hankel stage runs once per retained component instead of once per
    spatial entry; the PRF singular values (e15-cleaned when applicable)
    and right vectors are reused in the reconstruction.
    """
    return _chain(ds, cfg, Variant.PRANK_HIP)


def _classic(ds: ResponseDataset, cfg: PrankConfig):
    return classic_tsvd(ds, cfg.prf_selector)


def _prf(ds: ResponseDataset, cfg: PrankConfig):
    return _unfolded(ds, cfg.prf_selector)[:2]


def _hankel(ds: ResponseDataset, cfg: PrankConfig):
    return hankel_filter_dataset(ds, cfg.hankel_selector, cfg.hankel_window)


def _hip(ds: ResponseDataset, cfg: PrankConfig):
    _check_hankel_input(ds)
    return _unfolded(ds, cfg.prf_selector, (cfg.hankel_window, cfg.hankel_selector))[:2]


# every variant as its domain and its stages, run in order; each maps (ds, cfg) to (ds, report)
_CHAINS = {
    Variant.CLASSIC: (Domain.FREQUENCY, (_classic,)),
    Variant.PRF: (Domain.TIME, (_prf,)),
    Variant.HANKEL: (Domain.TIME, (_hankel,)),
    Variant.PRANK_PH: (Domain.TIME, (_prf, _hankel)),
    Variant.PRANK_HP: (Domain.TIME, (_hankel, _prf)),
    Variant.PRANK_HIP: (Domain.TIME, (_hip,)),
}


def _chain(ds: ResponseDataset, cfg: PrankConfig, variant: Variant):
    """Bridge ``ds`` to the variant's domain, run its stages, bridge back."""
    domain, stages = _CHAINS[variant]
    if domain is Domain.TIME and ds.domain is Domain.FREQUENCY and ds.axis_start != 0.0:
        raise AxisError(f"variant {variant.value} runs on the time record, so it needs a spectrum that "
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


def apply_filter(ds: ResponseDataset, cfg: PrankConfig):
    """Run the configured variant on a dataset in either domain (see ``_chain``)."""
    return _chain(ds, cfg, cfg.variant)
