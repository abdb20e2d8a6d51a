"""Per-stage filter records and their on-disk text/CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset import _atomic_write
from .selection import E15Model


@dataclass
class StageRecord:
    """One filtering stage: shape seen by the factorization, its spectrum, chosen rank.

    Each stage runs in one domain: classic on spectral lines, Hankel on time
    samples, PRF on what it is handed.  PRF stages take their spectrum from
    a dense SVD, Hankel and classic stages from the eigenvalues of each
    matrix's Gram matrix (``tsvd.gram_tsvd``), where values below about
    1.5e-8 of the largest are rounding noise; classic records the mean over
    its lines.  Stages that factor many matrices (per-entry or per-column
    Hankel passes) keep the first call's ``singular_values`` and ``model``;
    ``extras`` carries the per-call ranks and the factorization count as
    ``svd_calls``.  ``model.tail_misfit`` is the ``e15_tail_misfit`` of
    ``to_text``.  ``seconds`` covers the SVD and rank selection of a PRF
    stage, every per-row Hankel call of a Hankel stage; the chain's one
    domain bridge (``filters._chain``) and the PRF rebuild count only toward
    ``FilterReport.total_seconds``.
    """

    name: str
    shape: tuple
    singular_values: np.ndarray
    rank: int
    model: Optional[E15Model] = None
    seconds: float = 0.0
    extras: dict = field(default_factory=dict)


@dataclass
class FilterReport:
    stages: list = field(default_factory=list)
    total_seconds: float = 0.0
    flags: list = field(default_factory=list)

    def stage(self, name: str) -> StageRecord:
        for rec in self.stages:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def to_text(self) -> str:
        lines = [f"total_seconds: {self.total_seconds:.6f}"]
        if self.flags:
            lines.append("flags: " + ", ".join(self.flags))
        for rec in self.stages:
            lines.append("")
            lines.append(f"stage: {rec.name}")
            lines.append(f"  shape: {rec.shape[0]} x {rec.shape[1]}")
            lines.append(f"  rank: {rec.rank}")
            lines.append(f"  seconds: {rec.seconds:.6f}")
            if rec.model is not None:
                lines.append(f"  e15_sigma_n: {rec.model.sigma_n:.6e}")
                lines.append(f"  e15_corr: {rec.model.corr}")
                if not np.isnan(rec.model.tail_misfit):
                    lines.append(f"  e15_tail_misfit: {rec.model.tail_misfit:.4f}")
            for key, value in sorted(rec.extras.items()):
                lines.append(f"  {key}: {value}")
        return "\n".join(lines) + "\n"


def write_report(report: FilterReport, prefix) -> list:
    """Write ``<prefix>.report.txt`` plus one SV-curve CSV per stage."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = []
    text_path = prefix.with_name(prefix.name + ".report.txt")
    _atomic_write(text_path, report.to_text())
    paths.append(text_path)
    for idx, rec in enumerate(report.stages):
        csv_path = prefix.with_name(f"{prefix.name}.sv_{idx}_{rec.name}.csv")
        rows = ["index,singular_value" + (",mp_curve,cleanliness" if rec.model is not None else "")]
        for k, s in enumerate(rec.singular_values):
            if rec.model is not None:
                rows.append(f"{k},{float(s)!r},{float(rec.model.mp_curve[k])!r},"
                            f"{float(rec.model.cleanliness[k])!r}")
            else:
                rows.append(f"{k},{float(s)!r}")
        _atomic_write(csv_path, "\n".join(rows) + "\n")
        paths.append(csv_path)
    return paths
