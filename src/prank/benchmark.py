"""Lumped-parameter chain synthesis, modal superposition, noise and outliers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .dataset import Domain, ResponseDataset
from .errors import AxisError, DomainError


class Boundary(Enum):
    FIXED_FREE = "fixed-free"
    FREE_FREE = "free-free"


class Quantity(Enum):
    RECEPTANCE = "receptance"
    ACCELERANCE = "accelerance"


@dataclass(frozen=True)
class ChainSystem:
    """Mass-damper-stiffness chain; dampers sit parallel to the springs.

    Fixed-free chains carry n links (the first one to ground), free-free
    chains n - 1 inter-mass links.
    """

    masses: np.ndarray
    dampers: np.ndarray
    springs: np.ndarray
    boundary: Boundary = Boundary.FIXED_FREE

    def __post_init__(self):
        if not isinstance(self.boundary, Boundary):
            raise ValueError(f"boundary must be a Boundary, got {self.boundary!r}")
        m = np.asarray(self.masses, dtype=float)
        d = np.asarray(self.dampers, dtype=float)
        k = np.asarray(self.springs, dtype=float)
        n = len(m)
        links = n if self.boundary is Boundary.FIXED_FREE else n - 1
        if len(k) != links or len(d) != links:
            raise ValueError(f"{self.boundary.value} chain with {n} masses needs {links} links, "
                             f"got {len(k)} springs / {len(d)} dampers")
        if n < 1 or np.any(m <= 0) or np.any(k <= 0) or np.any(d < 0):
            raise ValueError("need one or more masses, masses > 0, springs > 0, dampers >= 0")
        for name, arr in (("masses", m), ("dampers", d), ("springs", k)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls, n: int, mass: float = 1.0, damper: float = 0.002, spring: float = 1.0,
                boundary: Boundary = Boundary.FIXED_FREE) -> "ChainSystem":
        links = n if boundary is Boundary.FIXED_FREE else n - 1
        return cls(np.full(n, mass), np.full(links, damper), np.full(links, spring), boundary)

    @property
    def n_dofs(self) -> int:
        return len(self.masses)

    def matrices(self):
        """(diag(masses), B^T diag(dampers) B, B^T diag(springs) B), with B
        the link-incidence matrix (a row per link, +-1 at the masses it
        joins): I - I_{-1} fixed-free, the first n - 1 rows of I_{+1} - I
        free-free."""
        n = self.n_dofs
        if self.boundary is Boundary.FIXED_FREE:
            B = np.eye(n) - np.eye(n, k=-1)
        else:
            B = (np.eye(n, k=1) - np.eye(n))[: n - 1]
        return np.diag(self.masses), B.T @ (self.dampers[:, None] * B), B.T @ (self.springs[:, None] * B)


@dataclass(frozen=True)
class ModalModel:
    """Eigenfrequencies (rad/s, nondecreasing), mass-normalized shapes (one
    column per mode) and per-mode viscous damping ratios.  Built only from
    finite values, nonnegative frequencies and damping, one of each per
    mode, and a ``Quantity``; anything else raises ValueError.  The arrays
    are stored as read-only copies: frequencies and damping as float64."""

    frequencies: np.ndarray
    shapes: np.ndarray
    damping: np.ndarray
    quantity: Quantity = Quantity.RECEPTANCE

    def __post_init__(self):
        if not isinstance(self.quantity, Quantity):
            raise ValueError(f"quantity must be a Quantity, got {self.quantity!r}")
        w = np.array(self.frequencies, dtype=float)
        shapes, damping = np.array(self.shapes), np.array(self.damping, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValueError("frequencies must be a finite 1-D array")
        if np.any(np.diff(w) < 0) or np.any(w < 0):
            raise ValueError("frequencies must be nonnegative and nondecreasing")
        if shapes.ndim != 2 or shapes.shape[1] != len(w) or not np.all(np.isfinite(shapes)):
            raise ValueError(f"shapes must be finite, one column per mode: {len(w)} modes, shape {shapes.shape}")
        if damping.shape != w.shape or not np.all(np.isfinite(damping)) or np.any(damping < 0):
            raise ValueError(f"damping must be finite and nonnegative, one value per mode: {len(w)} modes, "
                             f"shape {damping.shape}")
        for name, arr in (("frequencies", w), ("shapes", shapes), ("damping", damping)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)

    def with_damping(self, ratio: float) -> "ModalModel":
        return ModalModel(self.frequencies, self.shapes, np.full(self.n_modes, ratio), self.quantity)

    def with_quantity(self, quantity: Quantity) -> "ModalModel":
        return ModalModel(self.frequencies, self.shapes, self.damping, quantity)


@dataclass(frozen=True)
class NoiseModel:
    """Additive complex Gaussian noise with magnitude-proportional spread:
    sigma_real = a*|Y| + b, sigma_imag = c*|Y| + d, per entry and per bin."""

    a: float
    b: float
    c: float
    d: float
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 <= x < np.inf for x in (self.a, self.b, self.c, self.d)):
            raise ValueError("noise coefficients must be finite and nonnegative")


@dataclass(frozen=True)
class OffsetSpec:
    """Real constants added to whole output rows.

    ``entries`` is a sequence of (output_index, value) pairs.  A single
    entry for an output applies its value to every input; several entries
    for the same output assign values to successive inputs (first entry ->
    input 0, second -> input 1, ...) and must then cover all inputs.
    """

    entries: tuple

    def __init__(self, entries: Sequence):
        entries = tuple((int(o), float(v)) for o, v in entries)
        if not all(np.isfinite(v) for _, v in entries):
            raise ValueError("offsets must be finite")
        object.__setattr__(self, "entries", entries)


def _axis_checked(axis: np.ndarray) -> tuple:
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or len(axis) < 2:
        raise AxisError("frequency grid needs at least 2 points")
    steps = np.diff(axis)
    if np.any(steps <= 0):
        raise AxisError("frequency grid must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise AxisError("frequency grid must be uniform")
    return axis, float(axis[0]), float(steps[0])


def _select(indices: Optional[Sequence], n: int) -> np.ndarray:
    if indices is None:
        return np.arange(n)
    idx = np.asarray(indices, dtype=int)
    if np.any(idx < 0) or np.any(idx >= n):
        raise IndexError(f"DoF index outside [0, {n})")
    return idx


def _logger():
    """This module's logger, with a NullHandler so an unconfigured program
    prints nothing; ``logging`` is imported here, on the one path that logs."""
    import logging

    log = logging.getLogger(__name__)
    if not log.handlers:
        log.addHandler(logging.NullHandler())
    return log


def synthesize_direct(sys: ChainSystem, axis: np.ndarray,
                      outputs: Optional[Sequence] = None,
                      inputs: Optional[Sequence] = None) -> ResponseDataset:
    """Receptance by direct inversion of the dynamic stiffness A per bin.

    Bins that fail ``matrix_rank``'s test, s_min <= s_max * n * eps (a free-free
    chain at omega = 0), take one batched pseudoinverse, logged as a warning on
    the ``prank.benchmark`` logger with their count and first index; the rest
    one batched solve, each A factored alone.
    """
    axis, start, step = _axis_checked(axis)
    M, D, K = sys.matrices()
    n = sys.n_dofs
    out_idx = _select(outputs, n)
    in_idx = _select(inputs, n)
    rhs = np.eye(n)[:, in_idx]
    A = (-axis[:, None, None] ** 2 * M
         + 1j * axis[:, None, None] * D
         + K)
    singular = np.linalg.matrix_rank(A) < n
    X = np.empty((len(axis), n, len(in_idx)), dtype=complex)
    X[~singular] = np.linalg.solve(A[~singular], np.broadcast_to(rhs, (np.sum(~singular),) + rhs.shape))
    X[singular] = np.linalg.pinv(A[singular]) @ rhs
    if singular.any():
        bad = np.flatnonzero(singular)
        _logger().warning("singular dynamic stiffness at %d bin(s) (first at index %d); pseudoinverse used",
                          len(bad), bad[0])
    data = X[:, out_idx, :].transpose(1, 2, 0)
    return ResponseDataset(data, Domain.FREQUENCY, start, step, "rad/s")


def eigen(sys: ChainSystem) -> ModalModel:
    """Undamped modes of the chain with equivalent modal damping ratios.

    Shapes are mass-normalized, each with its largest-magnitude entry
    positive (``tsvd.svd``'s sign rule); damping ratios come from projecting
    the viscous damping matrix onto each mode (zero for rigid-body modes).
    M is diagonal, so with W = M^-1/2 the generalized problem K v = lam M v
    is the symmetric one (W K W) y = lam y, and v = W y.
    """
    from .tsvd import _pivot_phase  # the only user: synth and corrupt skip the filter stack

    _, D, K = sys.matrices()
    w = 1.0 / np.sqrt(sys.masses)
    vals, y = np.linalg.eigh(w[:, None] * K * w)
    vecs = w[:, None] * y
    vecs = vecs * _pivot_phase(vecs)
    # Springs are positive, so a free-free chain has exactly one rigid-body
    # mode, the smallest, and a fixed-free one none.  Its eigenvalue is rounding
    # of 0, up to about n eps max(vals), where the smallest flexible eigenvalue of
    # a 30-DoF chain with masses and springs of 1e-3 and 1e3 lies too, so no
    # tolerance tells them apart.  A rigid-body mode gets exactly 0.
    rigid = np.arange(len(vals)) < (sys.boundary is Boundary.FREE_FREE)
    freqs = np.where(rigid, 0.0, np.sqrt(np.clip(vals, 0.0, None)))
    flexible = freqs > 0.0
    # v^T D v of a semidefinite D: a negative value is rounding (a rigid-body mode)
    modal_damp = np.maximum(np.einsum("ij,ij->j", vecs, D @ vecs), 0.0)
    damping = np.zeros_like(freqs)
    damping[flexible] = modal_damp[flexible] / (2.0 * freqs[flexible])
    return ModalModel(freqs, vecs, damping)


def modal_frf(model: ModalModel, axis: np.ndarray,
              outputs: Optional[Sequence] = None,
              inputs: Optional[Sequence] = None) -> ResponseDataset:
    """Mode-superposition synthesis over the given frequency grid.

    Receptance: Y_oi = sum_j phi_oj phi_ij / (w_j^2 - w^2 + 2i*eps_j*w_j*w).
    Accelerance multiplies by -w^2; rigid-body modes, those at frequency 0
    (as ``eigen`` returns them), contribute their finite mass-line limit at
    w = 0 (receptance drops them at exactly w = 0, matching the pseudoinverse
    convention of synthesize_direct).
    """
    axis, start, step = _axis_checked(axis)
    n = model.shapes.shape[0]
    out_idx = _select(outputs, n)
    in_idx = _select(inputs, n)
    wj = model.frequencies
    eps = model.damping
    w = axis[:, None]
    denom = wj[None, :] ** 2 - w ** 2 + 2j * eps[None, :] * wj[None, :] * w
    rigid = wj == 0.0
    safe = np.where(denom != 0, denom, 1.0)
    if model.quantity is Quantity.ACCELERANCE:
        frac = np.where(denom != 0, -(w ** 2) / safe, 0.0)
        frac[:, rigid] = 1.0  # -w^2 / -w^2 for every w, including the w = 0 limit
    else:
        frac = np.where(denom != 0, 1.0 / safe, 0.0)
    data = np.einsum("om,im,km->oik", model.shapes[out_idx], model.shapes[in_idx], frac)
    return ResponseDataset(data, Domain.FREQUENCY, start, step, "rad/s")


def add_noise(ds: ResponseDataset, nm: NoiseModel) -> ResponseDataset:
    """Seeded complex Gaussian perturbation, independent per (o, i, k)."""
    if ds.domain is not Domain.FREQUENCY:
        raise DomainError("noise model is defined on frequency-domain data")
    mag = np.abs(ds.data)
    rng = np.random.default_rng(nm.seed)
    real = rng.normal(0.0, nm.a * mag + nm.b)
    imag = rng.normal(0.0, nm.c * mag + nm.d)
    return ds.with_data(ds.data + real + 1j * imag)


def add_offsets(ds: ResponseDataset, spec: OffsetSpec) -> ResponseDataset:
    """Add real constants to whole output rows (see OffsetSpec semantics)."""
    if ds.domain is not Domain.FREQUENCY:
        raise DomainError("offsets are defined on frequency-domain data")
    data = np.array(ds.data)
    n_o, n_i, _ = data.shape
    grouped: dict = {}
    for o, value in spec.entries:
        if not 0 <= o < n_o:
            raise IndexError(f"output index {o} outside [0, {n_o})")
        grouped.setdefault(o, []).append(value)
    for o, values in grouped.items():
        if len(values) == 1:
            data[o, :, :] += values[0]
        elif len(values) == n_i:
            data[o, :, :] += np.asarray(values)[:, None]
        else:
            raise IndexError(f"output {o}: got {len(values)} offsets, need 1 or {n_i}")
    return ds.with_data(data)
