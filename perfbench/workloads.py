"""Seeded inputs for the two benchmark workloads.

Every dataset is built through ``prank.benchmark`` by module attribute, so a
traced run records the synthesis and corruption spans.  The filter code
receives only the noisy datasets built here (or, for ``cli``, the files
written by ``prank synth`` and ``prank corrupt``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from prank import benchmark as pb
from prank.filters import Variant

VARIANTS = tuple(v.value for v in Variant)

# Table-1 noise and the output-2 row offsets of acceptance criteria 5 and 6.
TABLE1_NOISE = (0.003, 0.06, 0.003, 0.05)
TABLE1_OFFSETS = ((1, 0.22), (1, 0.16), (1, 0.18), (1, 0.16))
TABLE1_SEEDS_PER_RUN = 5


@dataclass(frozen=True)
class Case:
    """One filter input and the clean data its output is scored against."""

    label: str
    clean: object
    noisy: object


def realize_edges(ds):
    """Zero the imaginary part of the DC and Nyquist bins (a real signal's)."""
    data = np.array(ds.data)
    data[..., 0] = data[..., 0].real
    data[..., -1] = data[..., -1].real
    return ds.with_data(data)


def table1_clean():
    system = pb.ChainSystem.uniform(4)
    return realize_edges(pb.synthesize_direct(system, np.linspace(0.0, 4.0, 201)))


def table1_corrupt(clean, noise_seed):
    noisy = pb.add_noise(clean, pb.NoiseModel(*TABLE1_NOISE, seed=noise_seed))
    return pb.add_offsets(noisy, pb.OffsetSpec(TABLE1_OFFSETS))


def noise_seeds(seed):
    """The Table-1 noise seeds of workload seed ``seed``: 5 seed .. 5 seed + 4."""
    return range(TABLE1_SEEDS_PER_RUN * seed, TABLE1_SEEDS_PER_RUN * (seed + 1))


def build_table1(seed):
    """The ``table1`` cases of workload seed ``seed``; every variant runs on each."""
    clean = table1_clean()
    return tuple(Case(f"noise{s}", clean, table1_corrupt(clean, s)) for s in noise_seeds(seed))


def cli_synth_args(out_path):
    """``prank synth`` arguments for the Table-1 chain (201 bins, 0..4 rad/s)."""
    return ["synth", "--dofs", "4", "--boundary", "fixed-free", "--fmax", "4.0", "--df", "0.02",
            "-o", str(out_path)]


def cli_corrupt_args(clean_path, noise_seed, out_path):
    """``prank corrupt`` arguments: Table-1 noise plus offsets on output DoF 2."""
    args = ["corrupt", str(clean_path), "--noise", ",".join(str(x) for x in TABLE1_NOISE),
            "--seed", str(noise_seed)]
    for o, value in TABLE1_OFFSETS:
        args += ["--offset", f"{o + 1}:{value}"]
    return args + ["-o", str(out_path)]
