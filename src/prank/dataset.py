"""3-D response container, PRF flattening, time/frequency bridge and file I/O."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    AxisError,
    DimensionMismatch,
    DomainError,
    FormatError,
    LengthError,
)

MAGIC = b"PRNKDS01"
# after the magic: counts (outputs, inputs, lines), domain tag, axis start
# and step, unit label length
_HEADER = struct.Struct("<IIIBddH")


class Domain(Enum):
    TIME = 0
    FREQUENCY = 1


def _cycle(unit_label: str) -> float:
    """One cycle in axis units: 2*pi for "rad/s" style labels, 1 for anything
    else (a cyclic frequency such as Hz)."""
    return 2.0 * np.pi if "rad" in unit_label.lower() else 1.0


@dataclass(frozen=True)
class ResponseDataset:
    """Immutable (n_o, n_i, n_k) response dataset.

    Axis bin k maps to ``axis_start + k * axis_step`` in the unit given by
    ``unit_label``.  Frequency-domain data are stored as complex128,
    time-domain data as float64: complex time input is accepted only when
    its imaginary part is exactly zero, and is stored real.  The stored
    array is a read-only copy (one ``np.array``), never the caller's own.
    """

    data: np.ndarray
    domain: Domain
    axis_start: float = 0.0
    axis_step: float = 1.0
    unit_label: str = "Hz"

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise DimensionMismatch(f"expected 3-D data, got ndim={data.ndim}")
        n_o, n_i, n_k = data.shape
        if n_o < 1 or n_i < 1 or n_k < 2:
            raise DimensionMismatch(f"invalid shape {data.shape}: need n_o,n_i >= 1 and n_k >= 2")
        if not (np.isfinite(self.axis_start) and 0 < self.axis_step < np.inf):
            raise AxisError(f"axis_start must be finite and axis_step positive and finite, "
                            f"got {self.axis_start} and {self.axis_step}")
        if self.domain is Domain.TIME:
            if np.iscomplexobj(data) and np.any(data.imag != 0.0):
                raise DomainError("time-domain data must have exactly zero imaginary part")
            data = np.array(data.real, dtype=np.float64, order="C")
        else:
            data = np.array(data, dtype=np.complex128, order="C")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n_outputs(self) -> int:
        return self.data.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.data.shape[1]

    @property
    def n_bins(self) -> int:
        return self.data.shape[2]

    @property
    def axis(self) -> np.ndarray:
        return self.axis_start + self.axis_step * np.arange(self.n_bins)

    def with_data(self, data: np.ndarray) -> "ResponseDataset":
        """Same domain and axis metadata, new values."""
        return ResponseDataset(data, self.domain, self.axis_start, self.axis_step, self.unit_label)


def flatten(data: np.ndarray) -> np.ndarray:
    """Unfold an (n_o, n_i, n_k) array into an n_k x (n_o*n_i) array whose
    column j holds entry (o, i) = (j % n_o, j // n_o): output index fastest."""
    n_o, n_i, n_k = data.shape
    # transpose to (k, i, o); C-order reshape gives column index j = i*n_o + o
    return data.transpose(2, 1, 0).reshape(n_k, n_o * n_i)


def unflatten(matrix: np.ndarray, n_o: int, n_i: int) -> np.ndarray:
    """The (n_o, n_i, n_k) array of an n_k x (n_o*n_i) matrix, the exact
    inverse of ``flatten``; other column counts raise DimensionMismatch."""
    n_k, n_cols = matrix.shape
    if n_cols != n_o * n_i:
        raise DimensionMismatch(f"matrix has {n_cols} columns, expected n_o*n_i = {n_o * n_i}")
    return matrix.reshape(n_k, n_i, n_o).transpose(2, 1, 0)


def to_time(ds: ResponseDataset) -> ResponseDataset:
    """Inverse-transform a one-sided spectrum into a real time record.

    The n_k bins are read as the one-sided spectrum of a real signal of
    length N = 2*(n_k - 1); imaginary parts of the DC and Nyquist bins are
    forced to zero before the Hermitian extension.  The inverse DFT carries
    the 1/N factor.
    """
    if ds.domain is Domain.TIME:
        raise DomainError("dataset is already in the time domain")
    if ds.axis_start != 0.0:
        raise AxisError(f"time bridge requires axis_start = 0, got {ds.axis_start}")
    n_samples = 2 * (ds.n_bins - 1)
    spectrum = np.array(ds.data)
    spectrum[..., 0] = spectrum[..., 0].real
    spectrum[..., -1] = spectrum[..., -1].real
    dt = _cycle(ds.unit_label) / (ds.axis_step * n_samples)
    return ResponseDataset(np.fft.irfft(spectrum, n=n_samples, axis=-1), Domain.TIME, 0.0, dt, "s")


def to_frequency(ds: ResponseDataset, unit_label: str = "Hz") -> ResponseDataset:
    """Forward-transform an even-length real time record to a one-sided spectrum.

    Keeps bins 0..N/2 inclusive.  ``unit_label`` selects the frequency unit
    of the output axis ("Hz" by default; a rad-style label applies the 2*pi
    factor so that to_time followed by to_frequency restores the axis).
    """
    if ds.domain is Domain.FREQUENCY:
        raise DomainError("dataset is already in the frequency domain")
    n_samples = ds.n_bins
    if n_samples % 2 != 0:
        raise LengthError(f"time record length must be even, got {n_samples}")
    spectrum = np.fft.rfft(ds.data, axis=-1)
    df = _cycle(unit_label) * (1.0 / ds.axis_step) / n_samples
    return ResponseDataset(spectrum, Domain.FREQUENCY, 0.0, df, unit_label)


def _atomic_write(path, data) -> None:
    """Write ``data`` (text as UTF-8, or bytes) to ``path`` through a temp
    file beside it and a rename, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        tmp.write_text(data, encoding="utf-8")
    else:
        tmp.write_bytes(data)
    os.replace(tmp, path)


def write_dataset(ds: ResponseDataset, path) -> None:
    """Write the little-endian binary container (atomically, see ``_atomic_write``).
    A unit label over 65535 bytes in UTF-8, more than its u16 length holds,
    raises FormatError before anything is written."""
    label = ds.unit_label.encode("utf-8")
    if len(label) > 0xFFFF:
        raise FormatError(f"unit label is {len(label)} bytes in UTF-8, the format holds at most 65535")
    header = MAGIC + _HEADER.pack(ds.n_outputs, ds.n_inputs, ds.n_bins, ds.domain.value,
                                  ds.axis_start, ds.axis_step, len(label))
    _atomic_write(path, header + label + ds.data.astype("<c16").tobytes())


def read_dataset(path) -> ResponseDataset:
    """Read a dataset written by write_dataset; bit-exact round trip."""
    blob = Path(path).read_bytes()
    magic = blob[: len(MAGIC)]
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    offset = len(MAGIC) + _HEADER.size
    if len(blob) < offset:
        raise FormatError(f"truncated header at byte {len(blob)}")
    n_o, n_i, n_k, dom, start, step, label_len = _HEADER.unpack_from(blob, len(MAGIC))
    if len(blob) < offset + label_len:
        raise FormatError(f"truncated unit label at byte {len(blob)}")
    try:
        label = blob[offset : offset + label_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"unit label is not UTF-8 at byte {offset + exc.start}") from exc
    offset += label_len
    count = n_o * n_i * n_k
    expected = offset + count * 16
    if len(blob) < expected:
        raise FormatError(f"truncated payload at byte {len(blob)}, expected {expected}")
    if len(blob) > expected:
        raise FormatError(f"{len(blob) - expected} trailing bytes after byte {expected}")
    # one complex read keeps every bit (real + 1j * imag would turn an
    # infinite imaginary part into a NaN real part); astype copies the
    # payload out of the unaligned buffer
    data = np.frombuffer(blob, dtype="<c16", count=count, offset=offset).astype(np.complex128)
    data = data.reshape(n_o, n_i, n_k)
    try:
        domain = Domain(dom)
    except ValueError as exc:
        raise FormatError(f"unknown domain tag {dom}") from exc
    return ResponseDataset(data, domain, start, step, label)


def _write_csv(path, header, rows) -> None:
    """Write a CSV table atomically: the ``header`` names, then one line per
    row, floats as ``repr(float(x))`` and ints and labels as text."""
    lines = [",".join(header)] + [",".join(_cell(x) for x in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    return str(x) if isinstance(x, (int, np.integer)) else repr(float(x))


def export_csv(ds: ResponseDataset, o: int, i: int, path) -> None:
    """Write one (o, i) entry as CSV: axis_value, real, imag, magnitude, phase."""
    if not (0 <= o < ds.n_outputs and 0 <= i < ds.n_inputs):
        raise IndexError(f"entry ({o}, {i}) outside {ds.n_outputs}x{ds.n_inputs} dataset")
    values = ds.data[o, i]
    # abs per value: np.abs over the array can differ in the last bit
    rows = ((x, v.real, v.imag, abs(v), a) for x, v, a in zip(ds.axis, values, np.angle(values)))
    _write_csv(path, ("axis_value", "real", "imag", "magnitude", "phase"), rows)


def export_all_csv(ds: ResponseDataset, directory) -> list:
    """Write one CSV per (o, i) entry into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for o in range(ds.n_outputs):
        for i in range(ds.n_inputs):
            path = directory / f"response_o{o}_i{i}.csv"
            export_csv(ds, o, i, path)
            paths.append(path)
    return paths
