"""Batch command-line driver: synth / corrupt / filter / metrics / convert.

Subcommands read and write the binary dataset container and are
deterministic given their flags (including --seed).  Exit codes: 0 success,
1 numeric/runtime failure, 2 usage or format error.

Each subcommand imports the prank modules it calls when it runs, so a
``filter`` process never loads ``benchmark`` or ``metrics``, and ``synth`` or
``corrupt`` never load the filter stack.  ``entry`` is the process entry of
both ``prank`` and ``python -m prank.cli``.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from .dataset import (
    export_all_csv,
    read_dataset,
    to_frequency,
    to_time,
    write_dataset,
)
from .errors import ConvergenceError, NonFiniteError, PrankError

_USAGE_ERRORS = 2
_NUMERIC_ERRORS = 1
# filters.Variant's values, written out so the parser needs no prank.filters import
_VARIANTS = ("classic", "prf", "hankel", "ph", "hp", "hip")


# every subcommand accepts --config, and _inject_config has spliced the files' lines in before parsing;
# parsed alone, it finds every use of --config in any spelling argparse accepts (--config=PATH, --conf)
_CONFIG = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG.add_argument("--config", type=Path, action="append", help="key=value defaults file, repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prank",
        description="Denoise and reconstruct MIMO vibration response datasets "
                    "with truncated-SVD filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[_CONFIG], help="synthesize a chain-system FRF dataset")
    p.set_defaults(run=cmd_synth)
    p.add_argument("--dofs", type=int, default=4)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--damp", type=float, default=0.002)
    p.add_argument("--stiff", type=float, default=1.0)
    p.add_argument("--boundary", choices=["fixed-free", "free-free"], default="fixed-free")
    p.add_argument("--fmax", type=float, required=True, help="grid end (rad/s)")
    p.add_argument("--df", type=float, required=True, help="grid step (rad/s)")
    p.add_argument("--method", choices=["direct", "modal"], default="direct")
    p.add_argument("--modes", type=int, default=None, help="mode count for --method modal")
    p.add_argument("--modal-damping", type=float, default=None,
                   help="uniform modal damping ratio override (modal method)")
    p.add_argument("--quantity", choices=["receptance", "accelerance"], default="receptance")
    p.add_argument("-o", "--output", type=Path, required=True)

    p = sub.add_parser("corrupt", parents=[_CONFIG], help="add seeded noise and row offsets")
    p.set_defaults(run=cmd_corrupt)
    p.add_argument("input", type=Path)
    p.add_argument("--noise", type=str, default="0,0,0,0", metavar="A,B,C,D",
                   help="sigma_re = A|Y|+B, sigma_im = C|Y|+D")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset", action="append", default=[], metavar="DOF:VALUE",
                   help="real offset on an output DoF (1-based); repeat the same "
                        "DoF to give per-input values")
    p.add_argument("-o", "--output", type=Path, required=True)

    p = sub.add_parser("filter", parents=[_CONFIG], help="run a truncation filter or PRANK pipeline")
    p.set_defaults(run=cmd_filter)
    p.add_argument("input", type=Path)
    p.add_argument("--variant", choices=_VARIANTS, default="hip")
    p.add_argument("--domain", choices=["time"], default="time", help="ignored: stage domains are fixed")
    p.add_argument("--mu", type=float, default=0.10, help="e15 cleanliness threshold")
    p.add_argument("--tail-fraction", type=float, default=0.5,
                   help="fraction of the singular spectrum used by the noise fit")
    p.add_argument("--prf-rank", type=int, default=None,
                   help="fixed rank for the PRF/classic stage (overrides e15)")
    p.add_argument("--hankel-rank", type=int, default=None,
                   help="fixed rank for the Hankel stage (overrides e15)")
    p.add_argument("--window", type=str, default="auto", help="Hankel window length or 'auto'")
    p.add_argument("--report-prefix", type=Path, default=None,
                   help="prefix for the report text/CSV files (default: output path)")
    p.add_argument("-o", "--output", type=Path, required=True)

    p = sub.add_parser("metrics", parents=[_CONFIG], help="coherence and diagnostics between two datasets")
    p.set_defaults(run=cmd_metrics)
    p.add_argument("--ref", type=Path, required=True)
    p.add_argument("--test", type=Path, required=True)
    p.add_argument("--cmif", action="store_true", help="also export CMIF curves of the test file")
    p.add_argument("--zeros", type=str, default=None, metavar="DOF_OUT:DOF_IN",
                   help="report anti-resonance locations of this entry (1-based)")
    p.add_argument("--zero-prominence", type=float, default=0.9)
    p.add_argument("-o", "--output", type=Path, default=None,
                   help="prefix for CSV reports (omit to only print the summary)")

    p = sub.add_parser("convert", parents=[_CONFIG], help="domain conversion and CSV export")
    p.set_defaults(run=cmd_convert)
    p.add_argument("input", type=Path)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--to-time", action="store_true")
    group.add_argument("--to-freq", action="store_true")
    p.add_argument("--unit", type=str, default="Hz", help="frequency unit label for --to-freq")
    p.add_argument("--csv-dir", type=Path, default=None, help="export every entry as CSV here")
    p.add_argument("-o", "--output", type=Path, default=None)
    return parser


def _inject_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """Insert the key=value lines (a bare key: the flag --key) of every --config
    file, in the order given, as flags after the subcommand, so later lines win
    and explicit flags keep precedence (last one wins).

    The subcommand's parser first classifies every token before ``--`` as its
    own parse will, so an abbreviation that is ambiguous among all its options
    (``metrics --c``: --config or --cmif) exits 2 before any file is read."""
    commands = parser._subparsers._group_actions[0].choices  # argparse offers no public handle
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no subcommand: the full parse reports it
        return argv
    for token in argv[1:argv.index("--") if "--" in argv else None]:
        command._parse_optional(token)
    try:
        paths = _CONFIG.parse_known_args(argv[1:])[0].config or []
    except argparse.ArgumentError:  # --config without a path: the full parse reports it
        return argv
    tokens = []
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            tokens += [f"--{key.strip()}", value.strip()] if sep else [f"--{key.strip()}"]
    return argv[:1] + tokens + argv[1:]


def _parse_offsets(raw: list) -> benchmark.OffsetSpec:
    from . import benchmark

    entries = []
    for item in raw:
        dof, _, value = item.partition(":")
        o = int(dof) - 1  # CLI uses 1-based DoF numbering
        if o < 0:
            raise ValueError(f"output DoF must be >= 1, got {dof}")
        entries.append((o, float(value)))
    return benchmark.OffsetSpec(entries)


def _selector(fixed_rank, mu, tail_fraction):
    from . import selection

    if fixed_rank is not None:
        return selection.FixedRank(fixed_rank)
    return selection.E15(mu, tail_fraction)


def cmd_synth(args) -> int:
    from . import benchmark

    sys_ = benchmark.ChainSystem.uniform(
        args.dofs, args.mass, args.damp, args.stiff, benchmark.Boundary(args.boundary)
    )
    if args.fmax <= 0 or args.df <= 0:
        raise ValueError("--fmax and --df must be positive")
    axis = np.arange(0.0, args.fmax + 0.5 * args.df, args.df)
    if args.method == "direct":
        if args.quantity != "receptance" or args.modes is not None or args.modal_damping is not None:
            raise ValueError("direct synthesis produces receptance only and takes no --modes or "
                             "--modal-damping; use --method modal")
        ds = benchmark.synthesize_direct(sys_, axis)
    else:
        if args.modes is not None and args.modes < 1:
            raise ValueError(f"--modes must be >= 1, got {args.modes}")
        model = benchmark.eigen(sys_)
        if args.modes is not None:
            model = benchmark.ModalModel(
                model.frequencies[: args.modes],
                model.shapes[:, : args.modes],
                model.damping[: args.modes],
            )
        if args.modal_damping is not None:
            model = model.with_damping(args.modal_damping)
        model = model.with_quantity(benchmark.Quantity(args.quantity))
        ds = benchmark.modal_frf(model, axis)
    write_dataset(ds, args.output)
    return 0


def cmd_corrupt(args) -> int:
    from . import benchmark

    ds = read_dataset(args.input)
    coeffs = [float(x) for x in args.noise.split(",")]
    if len(coeffs) != 4:
        raise ValueError("--noise needs exactly four comma-separated values")
    ds = benchmark.add_noise(ds, benchmark.NoiseModel(*coeffs, seed=args.seed))
    if args.offset:
        ds = benchmark.add_offsets(ds, _parse_offsets(args.offset))
    write_dataset(ds, args.output)
    return 0


def cmd_filter(args) -> int:
    from . import filters, report

    ds = read_dataset(args.input)
    window = None if args.window == "auto" else int(args.window)
    cfg = filters.PrankConfig(
        variant=filters.Variant(args.variant),
        prf_selector=_selector(args.prf_rank, args.mu, args.tail_fraction),
        hankel_selector=_selector(args.hankel_rank, args.mu, args.tail_fraction),
        hankel_window=window,
    )
    filtered, rep = filters.apply_filter(ds, cfg)
    write_dataset(filtered, args.output)
    prefix = args.report_prefix if args.report_prefix is not None else args.output
    report.write_report(rep, prefix)
    print(rep.to_text(), end="")
    return 0


def cmd_metrics(args) -> int:
    from . import metrics

    ref = read_dataset(args.ref)
    test = read_dataset(args.test)
    zeros = {}
    if args.zeros is not None:  # before any output, so a bad entry or prominence writes nothing
        o_raw, _, i_raw = args.zeros.partition(":")
        o, i = int(o_raw) - 1, int(i_raw) - 1
        zeros = {name: metrics.zero_locations(ds, o, i, args.zero_prominence)
                 for name, ds in (("ref", ref), ("test", test))}
    curves = metrics.cmif(test) if args.cmif else None  # before any output, like --zeros
    rep = metrics.consist(ref, test)
    print(f"overall_coherence: {rep.overall:.6f}")
    if args.output is not None:
        metrics.write_coherence_csv(rep, Path(str(args.output) + ".coherence.csv"))
    if curves is not None:
        if args.output is not None:
            metrics.write_cmif_csv(curves, test.axis, Path(str(args.output) + ".cmif.csv"))
        else:
            print(f"cmif_first_line_max: {curves[:, 0].max():.6e}")
    for name, locs in zeros.items():
        print(f"zeros_{name}: " + ",".join(f"{x:.6g}" for x in locs))
    return 0


def cmd_convert(args) -> int:
    ds = read_dataset(args.input)
    if args.to_time:
        ds = to_time(ds)
    elif args.to_freq:
        ds = to_frequency(ds, args.unit)
    if args.csv_dir is not None:
        export_all_csv(ds, args.csv_dir)
    if args.output is not None:
        write_dataset(ds, args.output)
    elif args.csv_dir is None:
        raise ValueError("convert needs -o and/or --csv-dir")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_inject_config(parser, argv))
        return args.run(args)
    except (ConvergenceError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_ERRORS
    except (PrankError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERRORS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_ERRORS


def entry() -> None:
    """Run ``main`` on the process's arguments and exit with its code.

    ``gc.freeze()`` first moves every live object, numpy's import included, to
    the permanent generation, so the interpreter's exit-time collections skip
    them.  ``main`` itself leaves the collector alone: it also runs
    in-process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
