"""Singular-value denoising and reconstruction for MIMO vibration datasets.

Per-frequency, PRF and Hankel/SSA truncation filters, their sequential and
mixed PRANK combinations, and automated Marchenko-Pastur (e15-style) rank
selection, over an immutable 3-D response container with a time/frequency
bridge.
"""

from .benchmark import (
    Boundary,
    ChainSystem,
    ModalModel,
    NoiseModel,
    OffsetSpec,
    Quantity,
    add_noise,
    add_offsets,
    eigen,
    modal_frf,
    synthesize_direct,
)
from .dataset import (
    Domain,
    ResponseDataset,
    export_all_csv,
    export_csv,
    flatten,
    read_dataset,
    to_frequency,
    to_time,
    unflatten,
    write_dataset,
)
from .errors import (
    AxisError,
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    EmptyError,
    FormatError,
    LengthError,
    NonFiniteError,
    PrankError,
    ShapeError,
    ShapeMismatch,
    WindowError,
)
from .filters import PrankConfig, Variant, apply_filter, prf_tsvd
from .metrics import CoherenceReport, cmif, coh, consist, zero_locations
from .report import FilterReport, StageRecord, write_report
from .selection import (
    E15,
    AbsoluteThreshold,
    E15Model,
    FixedRank,
    RelativeThreshold,
    SelectionStrategy,
    ThresholdMode,
    e15,
    mp_fit,
    mp_quantile_curve,
)
from .tsvd import (
    SVDFactorization,
    auto_window,
    dehankelize_ssa,
    gram_tsvd,
    hankel_tsvd_series,
    hankelize,
    svd,
)

__version__ = "0.1.0"
