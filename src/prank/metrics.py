"""Dataset agreement metrics and diagnostic curve extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Domain, ResponseDataset, _write_csv
from .errors import ConvergenceError, DomainError, ShapeMismatch
from .selection import _finite, _unit_exponent


@dataclass(frozen=True)
class CoherenceReport:
    overall: float
    per_entry: np.ndarray
    per_bin: np.ndarray


def coh(x: complex, y: complex) -> float:
    """|x + y|^2 / (2(|x|^2 + |y|^2)) in [0, 1]; two zeros agree (1.0).

    Scale-free at any finite magnitude; NaN or infinite values raise NonFiniteError."""
    return float(_coh_field(x, y))


def _coh_field(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one power of two per entry pair scales both exactly, so the squares cannot overflow or underflow
    unit = np.ldexp(1.0, _unit_exponent(np.stack((a, b)), 0))
    a, b = a * unit, b * unit
    num = np.abs(a + b) ** 2
    den = 2.0 * (np.abs(a) ** 2 + np.abs(b) ** 2)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 1.0)


def consist(ref: ResponseDataset, other: ResponseDataset) -> CoherenceReport:
    """Mean per-(o, i, k) coherence plus per-entry and per-bin marginals.

    NaN or infinite entries raise NonFiniteError.
    """
    if ref.data.shape != other.data.shape:
        raise ShapeMismatch(f"shape {other.data.shape} != reference {ref.data.shape}")
    if ref.domain is not other.domain:
        raise ShapeMismatch("datasets live in different spectral domains")
    if ref.axis_start != other.axis_start or ref.axis_step != other.axis_step:
        raise ShapeMismatch("datasets have different spectral axes")
    field = _coh_field(ref.data, other.data)
    return CoherenceReport(float(field.mean()), field.mean(axis=2), field.mean(axis=(0, 1)))


def cmif(ds: ResponseDataset) -> np.ndarray:
    """Singular values of the n_o x n_i slice per frequency line.

    Returns an (n_k, min(n_o, n_i)) array, nonincreasing along each row,
    from one stacked values-only SVD; NaN or infinite data raise
    NonFiniteError, a backend failure ConvergenceError.
    """
    if ds.domain is not Domain.FREQUENCY:
        raise DomainError("CMIF is defined on frequency-domain data")
    try:
        return np.linalg.svd(_finite(ds.data.transpose(2, 0, 1)), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc


def zero_locations(ds: ResponseDataset, o: int, i: int, prominence: float = 0.9) -> np.ndarray:
    """Axis values of prominent magnitude minima (anti-resonances) of entry (o, i).

    A strict local minimum qualifies when it dips below 1 - prominence times
    the lower of the highest magnitudes on its two sides (running maxima
    from both ends, so the scan is linear), i.e. its relative depth
    1 - |Y_min|/|Y_side_max| exceeds ``prominence``.  The default 0.9 keeps
    only dips below 10% of the surrounding maxima, rejecting noise-floor
    wiggles; prominence = 1 and monotone curves yield an empty array.
    A prominence outside [0, 1] (or NaN) raises ValueError, NaN or infinite
    magnitudes NonFiniteError, and time-domain data DomainError.
    """
    if ds.domain is not Domain.FREQUENCY:
        raise DomainError("anti-resonances are defined on frequency-domain data")
    if not 0.0 <= prominence <= 1.0:
        raise ValueError(f"prominence must lie in [0, 1], got {prominence}")
    if not (0 <= o < ds.n_outputs and 0 <= i < ds.n_inputs):
        raise IndexError(f"entry ({o}, {i}) outside {ds.n_outputs}x{ds.n_inputs} dataset")
    mag = _finite(np.abs(ds.data[o, i]))
    before = np.maximum.accumulate(mag)  # before[t] = max(mag[:t + 1])
    after = np.maximum.accumulate(mag[::-1])[::-1]  # after[t] = max(mag[t:])
    t = 1 + np.flatnonzero((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))
    # a strict minimum lies below both side maxima, so side > 0
    side = np.minimum(before[t - 1], after[t + 1])
    return ds.axis[t[1.0 - mag[t] / side > prominence]]


def write_coherence_csv(report: CoherenceReport, path) -> None:
    """Flat CSV of the per-entry coherence matrix plus the overall mean."""
    rows = [(o, i, c) for (o, i), c in np.ndenumerate(report.per_entry)]
    _write_csv(path, ("output", "input", "coherence"), rows + [("overall", "", report.overall)])


def write_cmif_csv(curves: np.ndarray, axis: np.ndarray, path) -> None:
    header = ["axis_value"] + [f"sv{j}" for j in range(curves.shape[1])]
    _write_csv(path, header, ([x, *row] for x, row in zip(axis, curves)))
