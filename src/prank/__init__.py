"""Singular-value denoising and reconstruction for MIMO vibration datasets.

Per-frequency, PRF and Hankel/SSA truncation filters, their sequential and
mixed PRANK combinations, and automated Marchenko-Pastur (e15-style) rank
selection, over an immutable 3-D response container with a time/frequency
bridge.

``import prank`` loads no submodule: each public name (and each submodule,
``prank.tsvd``) resolves on first use, through ``__getattr__``, so a program
or a ``prank`` CLI process pays only for the modules it touches.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "benchmark": ("Boundary", "ChainSystem", "ModalModel", "NoiseModel", "OffsetSpec", "Quantity",
                  "add_noise", "add_offsets", "eigen", "modal_frf", "synthesize_direct"),
    "dataset": ("Domain", "ResponseDataset", "export_all_csv", "export_csv", "flatten",
                "read_dataset", "to_frequency", "to_time", "unflatten", "write_dataset"),
    "errors": ("AxisError", "ConvergenceError", "DimensionMismatch", "DomainError", "EmptyError",
               "FormatError", "LengthError", "NonFiniteError", "PrankError", "ShapeError",
               "ShapeMismatch", "WindowError"),
    "filters": ("PrankConfig", "Variant", "apply_filter", "prf_tsvd"),
    "metrics": ("CoherenceReport", "cmif", "coh", "consist", "zero_locations"),
    "report": ("FilterReport", "StageRecord", "write_report"),
    "selection": ("E15", "AbsoluteThreshold", "E15Model", "FixedRank", "RelativeThreshold",
                  "SelectionStrategy", "ThresholdMode", "e15", "mp_fit", "mp_quantile_curve"),
    "tsvd": ("SVDFactorization", "auto_window", "dehankelize_ssa", "gram_tsvd",
             "hankel_tsvd_series", "hankelize", "svd"),
}.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():  # a submodule nobody imported yet
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS.values()))
