"""Per-frequency, PRF and Hankel truncation filters plus the PRANK pipelines.

All filters return (filtered_dataset, FilterReport); shape, domain tag and
axis metadata of the input are always preserved.  Every variant is a chain
of stages (``_CHAINS``); all but classic are built from two:

- the PRF stage (``_unfolded``): working domain, unfolding, one dense SVD,
  rank selection, rank-r rebuild, restore;
- the Hankel row stage (``_hankel_rows``): one Hankel TSVD per row, i.e.
  per (o, i) series or per retained PRF left singular vector.

PH and HP run the two in turn; PRANK_HiP runs the Hankel row stage on the
PRF left vectors inside the PRF stage, cutting the number of Hankel
factorizations (``svd_calls`` in the reports) from n_o*n_i to the PRF
rank.  Each Hankel factorization is one Gram eigendecomposition
(``tsvd.gram_tsvd``), exact down to about 1.5e-8 of the Hankel matrix
norm; classic runs all its lines through one stacked ``gram_tsvd`` call,
with that floor per line, and only the PRF stage uses a dense SVD.  The
PRF record's ``seconds`` covers its SVD and rank selection only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
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
from .errors import DomainError, ShapeError
from .report import FilterReport, StageRecord
from .selection import E15, SelectionStrategy, evaluate
from .tsvd import gram_tsvd, hankel_tsvd_series, svd


class Variant(Enum):
    CLASSIC = "classic"
    PRF = "prf"
    HANKEL = "hankel"
    PRANK_PH = "ph"
    PRANK_HP = "hp"
    PRANK_HIP = "hip"


@dataclass(frozen=True)
class PrankConfig:
    """Pipeline selection; defaults follow the mixed time-based design."""

    variant: Variant = Variant.PRANK_HIP
    domain: Domain = Domain.TIME
    prf_selector: SelectionStrategy = field(default_factory=E15)
    hankel_selector: SelectionStrategy = field(default_factory=E15)
    hankel_window: Optional[int] = None


def _working(ds: ResponseDataset, domain: Optional[Domain]):
    """Convert ``ds`` to the requested working domain.

    Returns (working_dataset, restore) where restore maps a filtered 3-D
    array in the working domain back to a dataset with the original domain
    tag and axis metadata.  Time-domain datasets hold float64, so every
    stage on them runs on real arrays and returns real arrays.
    """
    if domain is None or domain == ds.domain:
        return ds, ds.with_data
    if ds.domain is Domain.FREQUENCY and domain is Domain.TIME:
        return to_time(ds), lambda data: ds.with_data(np.fft.rfft(data, axis=-1))
    return to_frequency(ds), lambda data: ds.with_data(_irfft_real_edges(data, ds.n_bins))


def classic_tsvd(ds: ResponseDataset, selector: SelectionStrategy):
    """Independent TSVD of the n_o x n_i slice at every spectral line.

    One stacked ``gram_tsvd`` call truncates all n_k slices: one stacked
    Gram eigendecomposition, one ``evaluate`` over the stacked spectra (for
    e15, one vectorised noise fit per line, all in one pass) and one batched
    projection.  The record's spectrum is the mean over the lines.
    """
    if ds.domain is not Domain.FREQUENCY:
        raise DomainError("per-frequency-line filtering requires a frequency-domain dataset")
    n_o, n_i, n_k = ds.data.shape
    if n_o < 2 and n_i < 2:
        raise ShapeError("per-line filtering needs at least 2 outputs or 2 inputs")
    t0 = time.perf_counter()
    out, S, ranks, _ = gram_tsvd(ds.data.transpose(2, 0, 1), selector)
    record = StageRecord(
        name="classic",
        shape=(n_o, n_i),
        singular_values=S.mean(axis=0),
        rank=int(ranks.max()),
        seconds=time.perf_counter() - t0,
        extras={
            "svd_calls": n_k,
            "rank_min": int(ranks.min()),
            "rank_max": int(ranks.max()),
            "rank_mean": float(ranks.mean()),
        },
    )
    filtered = ds.with_data(out.transpose(1, 2, 0))
    return filtered, FilterReport([record], record.seconds)


def _unfolded(ds: ResponseDataset, selector: SelectionStrategy, domain: Optional[Domain], hankel=None):
    """The PRF stage: one TSVD of the spectrally-unfolded dataset.

    Rebuilds (U_r * s) @ V_r^H with s the e15-cleaned values under e15 and
    S[:r] otherwise.  ``hankel = (selector, window)`` runs the Hankel row
    stage on the retained left vectors U_r before the rebuild (PRANK_HiP).
    Returns (filtered, report, prfs), prfs = U_r * S[:r] before any Hankel
    stage.
    """
    n_o, n_i = ds.n_outputs, ds.n_inputs
    if n_o * n_i < 2:
        raise ShapeError("unfolded filtering needs at least 2 spatial entries")
    t0 = time.perf_counter()
    work, restore = _working(ds, domain)
    matrix = flatten(work)
    t_prf = time.perf_counter()
    f = svd(matrix)
    rank, model = evaluate(f.S, matrix.shape, selector)
    report = FilterReport([StageRecord("prf", matrix.shape, f.S, rank, model, time.perf_counter() - t_prf)])
    if rank == 0:
        report.flags.append("prf_rank_zero")
    U_r = f.U[:, :rank]
    prfs = U_r * f.S[:rank]
    if hankel is not None:
        rows, record = _hankel_rows(U_r.T, *hankel, "hankel_in_prf")
        U_r = rows.T
        report.stages.append(record)
    s_used = model.cleaned_s if model is not None else f.S[:rank]
    filtered = (U_r * s_used) @ f.V[:, :rank].conj().T
    result = restore(unflatten(filtered, n_o, n_i))
    report.total_seconds = time.perf_counter() - t0
    return result, report, prfs


def _hankel_rows(rows: np.ndarray, selector: SelectionStrategy, window: Optional[int], name: str):
    """The Hankel row stage: one Hankel TSVD per row of ``rows`` (n, length).

    Returns (filtered rows, StageRecord).  The record keeps the first row's
    shape, spectrum and e15 model, the largest rank and every row's rank;
    no rows (PRF rank 0) give an empty record.  Later rows' records are
    dropped once their rank is read.
    """
    t0 = time.perf_counter()
    out = np.empty_like(rows)
    first = StageRecord(name, (0, 0), np.zeros(0), 0)
    ranks = []
    for j, row in enumerate(rows):
        out[j], rec = hankel_tsvd_series(row, window, selector)
        ranks.append(rec.rank)
        if j == 0:
            first = rec
    seconds = time.perf_counter() - t0
    extras = {"svd_calls": len(ranks), "ranks": ranks}
    return out, replace(first, name=name, rank=max(ranks, default=0), seconds=seconds, extras=extras)


def prf_tsvd(ds: ResponseDataset, selector: SelectionStrategy, domain: Optional[Domain] = None):
    """Single TSVD of the spectrally-unfolded dataset.

    Returns (filtered, report, prfs) where prfs are the retained left
    singular vectors scaled by their singular values, one column per
    retained component.
    """
    return _unfolded(ds, selector, domain)


def hankel_filter_dataset(
    ds: ResponseDataset,
    selector: SelectionStrategy,
    window: Optional[int] = None,
    domain: Optional[Domain] = Domain.TIME,
):
    """Hankel-TSVD every (o, i) series independently; blind to the rest."""
    if ds.n_bins < 4:
        raise ShapeError("Hankel filtering needs at least 4 spectral lines")
    t0 = time.perf_counter()
    work, restore = _working(ds, domain)
    out, record = _hankel_rows(work.data.reshape(-1, work.n_bins), selector, window, "hankel")
    return restore(out.reshape(work.data.shape)), FilterReport([record], time.perf_counter() - t0)


def prank_ph(ds: ResponseDataset, cfg: PrankConfig):
    """PRF stage followed by per-entry Hankel filtering."""
    return _chain(ds, cfg, _CHAINS[Variant.PRANK_PH])


def prank_hp(ds: ResponseDataset, cfg: PrankConfig):
    """Per-entry Hankel filtering followed by the PRF stage."""
    return _chain(ds, cfg, _CHAINS[Variant.PRANK_HP])


def prank_hip(ds: ResponseDataset, cfg: PrankConfig):
    """Mixed pipeline: Hankel-filter only the retained PRF left vectors.

    The Hankel stage runs once per retained component instead of once per
    spatial entry; the PRF singular values (e15-cleaned when applicable)
    and right vectors are reused in the reconstruction.
    """
    return _unfolded(ds, cfg.prf_selector, cfg.domain, (cfg.hankel_selector, cfg.hankel_window))[:2]


def _classic(ds: ResponseDataset, cfg: PrankConfig):
    work, restore = _working(ds, Domain.FREQUENCY)
    filtered, report = classic_tsvd(work, cfg.prf_selector)
    return restore(filtered.data), report


def _prf(ds: ResponseDataset, cfg: PrankConfig):
    return prf_tsvd(ds, cfg.prf_selector, cfg.domain)[:2]


def _hankel(ds: ResponseDataset, cfg: PrankConfig):
    return hankel_filter_dataset(ds, cfg.hankel_selector, cfg.hankel_window, cfg.domain)


# every variant as its stages, run in order; each maps (ds, cfg) to (ds, report)
_CHAINS = {
    Variant.CLASSIC: (_classic,),
    Variant.PRF: (_prf,),
    Variant.HANKEL: (_hankel,),
    Variant.PRANK_PH: (_prf, _hankel),
    Variant.PRANK_HP: (_hankel, _prf),
    Variant.PRANK_HIP: (prank_hip,),
}


def _chain(ds: ResponseDataset, cfg: PrankConfig, stages):
    t0 = time.perf_counter()
    report = FilterReport()
    for stage in stages:
        ds, stage_report = stage(ds, cfg)
        report.stages += stage_report.stages
        report.flags += stage_report.flags
    report.total_seconds = time.perf_counter() - t0
    return ds, report


def apply_filter(ds: ResponseDataset, cfg: PrankConfig):
    """Run the configured variant; frequency-only filters convert as needed."""
    if not isinstance(cfg.variant, Variant):
        raise ValueError(f"unknown variant {cfg.variant!r}")
    return _chain(ds, cfg, _CHAINS[cfg.variant])
