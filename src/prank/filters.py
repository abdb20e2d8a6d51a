"""Per-frequency, PRF and Hankel truncation filters plus the PRANK pipelines.

All filters return (filtered_dataset, FilterReport); shape, domain tag and
axis metadata of the input are always preserved.  The mixed PRANK_HiP
pipeline Hankel-filters only the retained PRF left singular vectors,
cutting the number of Hankel factorizations (``svd_calls`` in the reports)
from n_o*n_i to the PRF rank.  Each Hankel factorization is one Gram
eigendecomposition (``tsvd.gram_tsvd``), exact down to about 1.5e-8 of the
Hankel matrix norm; the PRF and classic stages use dense SVDs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import (
    Domain,
    FlatDataset,
    ResponseDataset,
    _irfft_real_edges,
    flatten,
    to_frequency,
    to_time,
    unflatten,
)
from .errors import ConvergenceError, DomainError, ShapeError
from .report import FilterReport, StageRecord
from .selection import E15, SelectionStrategy, evaluate
from .tsvd import _finite, hankel_tsvd_series, svd, truncate, truncate_cleaned


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
    tag and axis metadata.  Time-domain arrays are realized (the imaginary
    numerical dust of a real-valued reconstruction is dropped).
    """
    if domain is None or domain == ds.domain:
        if ds.domain is Domain.TIME:
            return ds, lambda data: ds.with_data(np.asarray(data).real.astype(np.complex128))
        return ds, lambda data: ds.with_data(data)
    if ds.domain is Domain.FREQUENCY and domain is Domain.TIME:
        work = to_time(ds)

        def restore(data):
            spectrum = np.fft.rfft(np.asarray(data).real, axis=-1)
            return ds.with_data(spectrum)

        return work, restore
    return to_frequency(ds), lambda data: ds.with_data(_irfft_real_edges(data, ds.n_bins))


def _work_matrix(flat: FlatDataset) -> np.ndarray:
    # exactly-real time data runs through the ~3x faster real SVD path
    return flat.matrix.real if flat.domain is Domain.TIME else flat.matrix


def classic_tsvd(ds: ResponseDataset, selector: SelectionStrategy):
    """Independent TSVD of the n_o x n_i slice at every spectral line.

    One batched SVD factors all n_k slices, one ``evaluate`` call selects
    every line's rank from the stacked spectra (for e15, one vectorised
    noise fit per line, all in one pass), and one batched product rebuilds
    the slices as (U * W) @ Vh, where row k of W holds line k's retained
    singular values (e15-cleaned under e15) and zeros beyond its rank.
    """
    if ds.domain is not Domain.FREQUENCY:
        raise DomainError("per-frequency-line filtering requires a frequency-domain dataset")
    n_o, n_i, n_k = ds.data.shape
    if n_o < 2 and n_i < 2:
        raise ShapeError("per-line filtering needs at least 2 outputs or 2 inputs")
    t0 = time.perf_counter()
    slices = _finite(ds.data).transpose(2, 0, 1)
    try:
        U, S, Vh = np.linalg.svd(slices, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    shape = (n_o, n_i)
    ranks, model = evaluate(S, shape, selector)
    if model is not None:
        W = model.cleaned_s
    else:
        W = np.where(np.arange(S.shape[1]) < ranks[:, None], S, 0.0)
    out = (U * W[:, None, :]) @ Vh
    record = StageRecord(
        name="classic",
        shape=shape,
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


def prf_tsvd(ds: ResponseDataset, selector: SelectionStrategy, domain: Optional[Domain] = None):
    """Single TSVD of the spectrally-unfolded dataset.

    Returns (filtered, report, prfs) where prfs are the retained left
    singular vectors scaled by their singular values, one column per
    retained component.
    """
    n_o, n_i = ds.n_outputs, ds.n_inputs
    if n_o * n_i < 2:
        raise ShapeError("unfolded filtering needs at least 2 spatial entries")
    t0 = time.perf_counter()
    work, restore = _working(ds, domain)
    flat = flatten(work)
    mat = _work_matrix(flat)
    f = svd(mat)
    rank, model = evaluate(f.S, mat.shape, selector)
    prfs = f.U[:, :rank] * f.S[:rank]
    if model is not None:
        filtered_mat = truncate_cleaned(f, rank, model.cleaned_s)
    else:
        filtered_mat = truncate(f, rank)
    data = unflatten(
        FlatDataset(filtered_mat, n_o, n_i, flat.domain, flat.axis_start, flat.axis_step, flat.unit_label),
        n_o,
        n_i,
    ).data
    result = restore(data)
    record = StageRecord("prf", mat.shape, f.S, rank, model, time.perf_counter() - t0)
    report = FilterReport([record], record.seconds)
    if rank == 0:
        report.flags.append("prf_rank_zero")
    return result, report, prfs


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
    arr = work.data.real if work.domain is Domain.TIME else work.data
    out = np.empty_like(arr)
    ranks = []
    first = None
    for o in range(ds.n_outputs):
        for i in range(ds.n_inputs):
            series, rec = hankel_tsvd_series(arr[o, i], window, selector)
            out[o, i] = series
            ranks.append(rec.rank)
            if first is None:
                first = rec
    record = StageRecord(
        name="hankel",
        shape=first.shape,
        singular_values=first.singular_values,
        rank=max(ranks),
        model=first.model,
        seconds=time.perf_counter() - t0,
        extras={"svd_calls": len(ranks), "ranks": ranks},
    )
    return restore(out), FilterReport([record], record.seconds)


def prank_ph(ds: ResponseDataset, cfg: PrankConfig):
    """PRF stage followed by per-entry Hankel filtering."""
    t0 = time.perf_counter()
    mid, rep1, _ = prf_tsvd(ds, cfg.prf_selector, cfg.domain)
    out, rep2 = hankel_filter_dataset(mid, cfg.hankel_selector, cfg.hankel_window, cfg.domain)
    return out, _merge(rep1, rep2, time.perf_counter() - t0)


def prank_hp(ds: ResponseDataset, cfg: PrankConfig):
    """Per-entry Hankel filtering followed by the PRF stage."""
    t0 = time.perf_counter()
    mid, rep1 = hankel_filter_dataset(ds, cfg.hankel_selector, cfg.hankel_window, cfg.domain)
    out, rep2, _ = prf_tsvd(mid, cfg.prf_selector, cfg.domain)
    return out, _merge(rep1, rep2, time.perf_counter() - t0)


def prank_hip(ds: ResponseDataset, cfg: PrankConfig):
    """Mixed pipeline: Hankel-filter only the retained PRF left vectors.

    The Hankel stage runs once per retained component instead of once per
    spatial entry; the PRF singular values (e15-cleaned when applicable)
    and right vectors are reused in the reconstruction.
    """
    n_o, n_i = ds.n_outputs, ds.n_inputs
    if n_o * n_i < 2:
        raise ShapeError("unfolded filtering needs at least 2 spatial entries")
    t0 = time.perf_counter()
    work, restore = _working(ds, cfg.domain)
    flat = flatten(work)
    mat = _work_matrix(flat)
    t_prf = time.perf_counter()
    f = svd(mat)
    rank, model = evaluate(f.S, mat.shape, cfg.prf_selector)
    s_used = model.cleaned_s if model is not None else f.S[:rank]
    prf_record = StageRecord("prf", mat.shape, f.S, rank, model, time.perf_counter() - t_prf)
    report = FilterReport([prf_record])
    if rank == 0:
        report.flags.append("prf_rank_zero")
    t_h = time.perf_counter()
    cleaned_U = np.zeros((mat.shape[0], rank), dtype=f.U.dtype)
    ranks = []
    first = None
    for j in range(rank):
        series, rec = hankel_tsvd_series(f.U[:, j], cfg.hankel_window, cfg.hankel_selector)
        cleaned_U[:, j] = series
        ranks.append(rec.rank)
        if first is None:
            first = rec
    filtered_mat = (cleaned_U * s_used) @ f.V[:, :rank].conj().T
    hankel_record = StageRecord(
        name="hankel_in_prf",
        shape=first.shape if first is not None else (0, 0),
        singular_values=first.singular_values if first is not None else np.zeros(0),
        rank=max(ranks) if ranks else 0,
        model=first.model if first is not None else None,
        seconds=time.perf_counter() - t_h,
        extras={"svd_calls": rank, "ranks": ranks},
    )
    report.stages.append(hankel_record)
    data = unflatten(
        FlatDataset(filtered_mat, n_o, n_i, flat.domain, flat.axis_start, flat.axis_step, flat.unit_label),
        n_o,
        n_i,
    ).data
    result = restore(data)
    report.total_seconds = time.perf_counter() - t0
    return result, report


def apply_filter(ds: ResponseDataset, cfg: PrankConfig):
    """Run the configured variant; frequency-only filters convert as needed."""
    if cfg.variant is Variant.CLASSIC:
        if ds.domain is Domain.TIME:
            filtered, report = classic_tsvd(to_frequency(ds), cfg.prf_selector)
            return ds.with_data(_irfft_real_edges(filtered.data, ds.n_bins)), report
        return classic_tsvd(ds, cfg.prf_selector)
    if cfg.variant is Variant.PRF:
        filtered, report, _ = prf_tsvd(ds, cfg.prf_selector, cfg.domain)
        return filtered, report
    if cfg.variant is Variant.HANKEL:
        return hankel_filter_dataset(ds, cfg.hankel_selector, cfg.hankel_window, cfg.domain)
    if cfg.variant is Variant.PRANK_PH:
        return prank_ph(ds, cfg)
    if cfg.variant is Variant.PRANK_HP:
        return prank_hp(ds, cfg)
    if cfg.variant is Variant.PRANK_HIP:
        return prank_hip(ds, cfg)
    raise ValueError(f"unknown variant {cfg.variant!r}")


def _merge(rep1: FilterReport, rep2: FilterReport, total: float) -> FilterReport:
    return FilterReport(rep1.stages + rep2.stages, total, rep1.flags + rep2.flags)
