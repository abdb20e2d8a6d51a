"""Per-stage filter records and their on-disk text/CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset import _atomic_write, _write_csv
from .selection import E15Model


@dataclass
class StageRecord:
    """One filtering stage: shape seen by the factorization, its spectrum, chosen rank.

    Every spectrum comes from a Gram eigendecomposition (the ``tsvd`` module
    docstring), so values below about 1.5e-8 of the largest are rounding
    noise.  The PRF stage factors one matrix; classic and the Hankel stages
    one ``shape`` matrix per call, whose (S, ranks, model) triples they hand
    ``of_calls``.  ``model.tail_misfit`` is the ``e15_tail_misfit`` of
    ``to_text``.  ``seconds`` covers the factorization and rank selection of
    a PRF stage, every call of a multi-call stage; the chain's one domain
    bridge (``filters.apply_filter``) and the PRF rebuild count only toward
    ``FilterReport.total_seconds``.
    """

    name: str
    shape: tuple
    singular_values: np.ndarray
    rank: int
    model: Optional[E15Model] = None
    seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    @classmethod
    def of_calls(cls, name, shape, calls, seconds):
        """The record of a stage that factors one ``shape`` matrix per call, from
        ``calls``, (S, ranks, model) triples stacked on a leading call axis
        (``gram_tsvd``'s or ``tsvd._hankel_row``'s), concatenated in order:
        the mean spectrum, the largest rank, the model, and in ``extras``
        ``svd_calls``, ``ranks`` and their min / max / mean.  No calls give
        zeros of width min(shape) and no model."""
        if not calls:
            extras = {"svd_calls": 0, "ranks": [], "rank_min": 0, "rank_max": 0, "rank_mean": 0.0}
            return cls(name, shape, np.zeros(min(shape)), 0, None, seconds, extras)
        S, ranks, models = zip(*calls)
        S, ranks = np.concatenate(S), np.concatenate(ranks)
        model = E15Model(*map(np.concatenate, zip(*(vars(m).values() for m in models)))) if models[0] else None
        extras = {"svd_calls": len(ranks), "ranks": ranks.tolist(), "rank_min": int(ranks.min()),
                  "rank_max": int(ranks.max()), "rank_mean": float(ranks.mean())}
        return cls(name, shape, S.mean(axis=0), int(ranks.max()), model, seconds, extras)


@dataclass
class FilterReport:
    stages: list = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def flags(self) -> list:
        """Failure signatures read off the records: ``prf_rank_zero``, a PRF stage kept no component."""
        return ["prf_rank_zero"] if any(rec.name == "prf" and rec.rank == 0 for rec in self.stages) else []

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
                lines += _model_lines(rec.model)
            for key, value in sorted(rec.extras.items()):
                lines.append(f"  {key}: {value}")
        return "\n".join(lines) + "\n"


_MODEL_FIELDS = (("sigma_n", "{:.6e}"), ("corr", "{}"), ("tail_misfit", "{:.4f}"))


def _model_lines(model: E15Model) -> list:
    """One line per e15 field; a stacked model gives min / median / max over
    its calls.  NaN misfits (all-zero tails) are left out."""
    lines = []
    for name, fmt in _MODEL_FIELDS:
        values = np.asarray(getattr(model, name), dtype=float)
        stacked = values.ndim > 0
        values = values[~np.isnan(values)]
        if values.size == 0:
            continue
        if stacked:
            # np.median would import numpy.ma, about 40 ms of every CLI run
            v = np.sort(values)
            stats = (v[0], (v[(len(v) - 1) // 2] + v[len(v) // 2]) / 2, v[-1])
            text = " / ".join(fmt.format(x) for x in stats) + " (min / median / max over calls)"
        else:
            text = fmt.format(values.item())
        lines.append(f"  e15_{name}: {text}")
    return lines


def _curves(rec: StageRecord) -> list:
    """The CSV columns of a stage: its spectrum and, under e15, the MP curve and
    cleanliness, each the mean over the calls when the model is stacked."""
    columns = [rec.singular_values]
    if rec.model is not None:
        columns += [np.reshape(x, (-1, len(rec.singular_values))).mean(axis=0)
                    for x in (rec.model.mp_curve, rec.model.cleanliness)]
    return columns


def write_report(report: FilterReport, prefix) -> list:
    """Write ``<prefix>.report.txt`` plus one SV-curve CSV per stage; a
    multi-call stage writes the means over its calls."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = []
    text_path = prefix.with_name(prefix.name + ".report.txt")
    _atomic_write(text_path, report.to_text())
    paths.append(text_path)
    for idx, rec in enumerate(report.stages):
        csv_path = prefix.with_name(f"{prefix.name}.sv_{idx}_{rec.name}.csv")
        header = ["index", "singular_value"] + (["mp_curve", "cleanliness"] if rec.model is not None else [])
        _write_csv(csv_path, header, ((k, *values) for k, values in enumerate(zip(*_curves(rec)))))
        paths.append(csv_path)
    return paths
