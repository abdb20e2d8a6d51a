"""prank benchmark: per-variant wall time and output coherence on seeded workloads.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 45 --trace 0

Run from anywhere; the program is imported from ``src`` next to this
directory.  The load is a closed loop: one caller makes one filter call at a
time, and each variant gets an equal share of ``--seconds`` (see
``run_calls``); each ``<variant>_s`` is the median over its calls.  Every
call's output is checked, and the last line printed is one JSON object.
With ``--trace 1`` the calls alternate untraced and traced, and the
per-layer metrics come from the traced spans.

Exit codes: 0 all checks passed, 1 a check failed (the JSON line is still
printed), 2 the program or its inputs could not be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("table1", "cli")
SETUP_REPEATS = 3
# Well above the 0.5 that an all-zero output scores against any reference.
COHERENCE_FLOOR = 0.6
CHILD_TIMEOUT_S = 120
# Caps the calls of a millisecond variant; 200 keep its median steady.
MAX_CALLS = 200


def pin_blas_threads():
    """Pin the BLAS pool to nproc; must run before numpy is first imported."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def load_program():
    """Pin the BLAS pool, then import the program; returns the thread count."""
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    # numpy (imported by all of these) must load after the BLAS pool is pinned
    global np, prank, spans, workloads
    import numpy as np
    import prank
    import prank.filters
    import spans
    import workloads

    return threads


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


@dataclass
class Tally:
    """Outcomes of every filter call in one run."""

    times: dict = field(default_factory=lambda: {v: [] for v in workloads.VARIANTS})
    traced_times: dict = field(default_factory=lambda: {v: [] for v in workloads.VARIANTS})
    attempted: int = 0
    failures: list = field(default_factory=list)
    first: dict = field(default_factory=dict)  # (variant, input) -> (data, ranks)
    coherence: dict = field(default_factory=dict)  # (variant, input) -> float

    def record(self, variant, case, seconds, traced, out, ranks, problem):
        """Check one call's output; a failed call stays in the denominator."""
        self.attempted += 1
        if seconds is not None:
            (self.traced_times if traced else self.times)[variant].append(seconds)
        key = (variant, case.label)
        if problem is None:
            problem = output_problem(case.noisy, out)
        if problem is None and key in self.first:
            data, first_ranks = self.first[key]
            if not np.array_equal(out.data, data) or ranks != first_ranks:
                problem = "output or ranks differ from the first call on the same input"
        if problem is None and key not in self.first:
            coh = prank.consist(case.clean, out).overall
            if coh < COHERENCE_FLOOR:
                problem = f"coherence {coh:.4f} below {COHERENCE_FLOOR}"
            else:
                self.first[key] = (out.data, ranks)
                self.coherence[key] = coh
        if problem is not None:
            self.failures.append(f"{variant} on {case.label}: {problem}")
            self.coherence.setdefault(key, 0.0)


def output_problem(ds_in, out):
    if out.data.shape != ds_in.data.shape:
        return f"shape {out.data.shape} != input {ds_in.data.shape}"
    if out.domain is not ds_in.domain:
        return f"domain {out.domain} != input {ds_in.domain}"
    if (out.axis_start, out.axis_step, out.unit_label) != (ds_in.axis_start, ds_in.axis_step,
                                                           ds_in.unit_label):
        return "axis metadata changed"
    if not np.all(np.isfinite(out.data)):
        return "non-finite output"
    return None


def report_ranks(report):
    return [(s.name, tuple(s.shape), int(s.rank), repr(sorted(s.extras.items())))
            for s in report.stages]


def run_calls(call, cases, seconds, traced):
    """Closed loop: one call at a time, always to the variant furthest behind.

    First every variant passes once over ``cases`` (twice when traced, the
    second pass traced), round-robin.  After that a variant's progress is
    the larger of the share of ``seconds / n_variants`` its calls have used
    and the share of MAX_CALLS it has made, and the variant with the least
    progress is called next, so each variant's calls spread over the whole
    run.  The run ends when every variant has reached its share; a call
    longer than the share runs once per pass.  When traced, passes over the
    inputs alternate untraced and traced.
    """
    variants = workloads.VARIANTS
    share = seconds / len(variants)
    first = (2 if traced else 1) * len(cases)
    spent = dict.fromkeys(variants, 0.0)
    calls = dict.fromkeys(variants, 0)

    def progress(variant):
        if calls[variant] < first:
            return calls[variant] / first - 1.0
        return max(spent[variant] / share, calls[variant] / MAX_CALLS)

    while True:
        variant = min(variants, key=progress)
        if progress(variant) >= 1.0:
            return
        k = calls[variant]
        spent[variant] += call(variant, cases[k % len(cases)], traced and (k // len(cases)) % 2 == 1)
        calls[variant] += 1


# ------------------------------------------------------------------- table1


def start_blas():
    """Start the BLAS thread pool before set-up is timed.

    Its first start can take up to a second on a loaded machine; like the
    interpreter start and the imports, it is not part of ``setup_s``.
    """
    np.linalg.svd(np.random.default_rng(0).standard_normal((256, 256)))


def table1_configs():
    return {v: prank.PrankConfig(variant=prank.Variant(v), domain=prank.Domain.TIME)
            for v in workloads.VARIANTS}


def cold_setup_seconds(seed):
    """``setup_s`` samples: the set-up timed in SETUP_REPEATS fresh processes.

    The warm-up is cold only once per process, so each sample needs a
    process of its own.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "setup_child.py"), str(seed)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SetupError(f"setup_child.py timed out after {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise SetupError(f"setup_child.py: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_table1(seed, seconds, tracer):
    start_blas()
    setup_samples = cold_setup_seconds(seed)
    configs = table1_configs()
    tally = Tally()

    def call(variant, case, traced, timed=True):
        if traced:
            tracer.variant = variant
            first_span = len(tracer.spans)
            misses = spans.cold_fit_count()
            tracer.install()
        t0 = time.perf_counter()
        try:
            out, report = prank.filters.apply_filter(case.noisy, configs[variant])
            problem = None
        except Exception as exc:  # a raising filter is a failed call, not a harness crash
            out = report = None
            problem = f"raised {type(exc).__name__}: {exc}"
        seconds_ = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.spans[first_span].attrs["cold_fits"] = spans.cold_fit_count() - misses
        ranks = report_ranks(report) if report is not None else None
        tally.record(variant, case, seconds_ if timed else None, traced, out, ranks, problem)
        return seconds_

    if tracer:
        tracer.install()
    cases = workloads.build_table1(seed)
    if tracer:
        tracer.uninstall()
    build_spans = list(tracer.spans) if tracer else []
    # Untimed here: the same set-up is timed in fresh processes.
    misses = spans.cold_fit_count()
    for variant in workloads.VARIANTS:
        call(variant, cases[0], traced=False, timed=False)
    setup_cold_fits = spans.cold_fit_count() - misses
    run_calls(call, cases, seconds, tracer is not None)

    metrics = end_to_end(tally, cases)
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        roots = [s for s in tracer.spans if s.parent is None and s.name == "filters.apply_filter"]
        metrics = per_layer(tracer, tally, roots, [build_spans])
        metrics["selection.setup_cold_fits"] = setup_cold_fits
    return tally, metrics


# ---------------------------------------------------------------------- cli


def run_cli(seed, seconds, tracer):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    work = OUT / f"cli-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    child_count = [0]

    def prank_cli(args, traced, variant=None):
        """One ``prank`` process; returns (seconds, CompletedProcess or None, error)."""
        if traced:
            child_count[0] += 1
            spans_json = work / f"spans{child_count[0]}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_json), "--"] + args
            tracer.variant = variant
            span = tracer.open("cli.process")
        else:
            cmd = [sys.executable, "-m", "prank.cli"] + args
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            error = None if proc.returncode == 0 else \
                f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
        except subprocess.TimeoutExpired:
            proc, error = None, f"timed out after {CHILD_TIMEOUT_S} s"
        seconds_ = time.perf_counter() - t0
        if traced:
            tracer.close(span)
            if spans_json.exists():
                child = json.loads(spans_json.read_text(encoding="utf-8"))
                tracer.adopt(child["spans"], span)
                span.attrs["cold_fits"] = child["cold_fits"]
        return seconds_, proc, error

    try:
        build_times, build_spans = [], []
        seeds = workloads.noise_seeds(seed)
        for rep in range(SETUP_REPEATS):
            first_span = len(tracer.spans) if tracer else 0
            clean_path = work / f"clean{rep}.prnk"
            noisy_paths = {f"noise{s}": work / f"noise{s}-{rep}.prnk" for s in seeds}
            total = 0.0
            for args in [workloads.cli_synth_args(clean_path)] + [
                    workloads.cli_corrupt_args(clean_path, s, noisy_paths[f"noise{s}"])
                    for s in seeds]:
                seconds_, _, error = prank_cli(args, tracer is not None)
                if error is not None:
                    raise SetupError(f"prank {args[0]}: {error}")
                total += seconds_
            build_times.append(total)
            if tracer:
                build_spans.append(tracer.spans[first_span:])
        clean = prank.read_dataset(clean_path)
        cases = tuple(workloads.Case(label, clean, prank.read_dataset(path))
                      for label, path in noisy_paths.items())
        tally = Tally()

        def call(variant, case, traced):
            out_path = work / f"filtered_{variant}.prnk"
            args = ["filter", str(noisy_paths[case.label]), "--variant", variant,
                    "--domain", "time", "-o", str(out_path)]
            seconds_, proc, problem = prank_cli(args, traced, variant)
            out = ranks = None
            if problem is None:
                out = prank.read_dataset(out_path)
                ranks = [line for line in proc.stdout.splitlines() if "seconds" not in line]
            tally.record(variant, case, seconds_, traced, out, ranks, problem)
            return seconds_

        run_calls(call, cases, seconds, tracer is not None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = end_to_end(tally, cases)
    metrics["setup_s"] = statistics.median(build_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if tracer:
        roots = [s for s in tracer.spans
                 if s.parent is None and s.name == "cli.process" and s.variant is not None]
        metrics = per_layer(tracer, tally, roots, build_spans)
        metrics["selection.setup_cold_fits"] = statistics.median(
            sum(s.attrs.get("cold_fits", 0) for s in b if s.name == "cli.process")
            for b in build_spans)
        kids = spans.children_index(tracer.spans)
        metrics["cli.import_s"] = statistics.median(
            k.seconds for r in roots for k in kids.get(r.id, ()) if k.name == "cli.import")
        metrics["dataset.io_bytes"] = statistics.median(
            sum(s.attrs.get("bytes", 0) for s in spans.subtree(r, kids) if s.name in spans.IO_SPANS)
            for r in roots)
    return tally, metrics


class SetupError(RuntimeError):
    pass


# ------------------------------------------------------------------ metrics


def end_to_end(tally, cases):
    metrics = {}
    for variant in workloads.VARIANTS:
        metrics[f"{variant}_s"] = statistics.median(tally.times[variant])
        metrics[f"{variant}_coh"] = statistics.fmean(
            tally.coherence[(variant, c.label)] for c in cases)
    metrics["ok_frac"] = 1.0 - len(tally.failures) / tally.attempted
    return metrics


def per_layer(tracer, tally, roots, build_spans):
    kids = spans.children_index(tracer.spans)
    metrics = {}
    for variant in tally.times:
        mine = [r for r in roots if r.variant == variant]
        for metric, value in spans.variant_layers(mine, kids).items():
            metrics[f"{variant}.{metric}"] = value
    metrics["benchmark.synth_s"] = statistics.median(
        spans.span_seconds(b, spans.SYNTH_SPANS) for b in build_spans)
    metrics["benchmark.corrupt_s"] = statistics.median(
        spans.span_seconds(b, spans.CORRUPT_SPANS) for b in build_spans)
    metrics["dataset.io_bytes"] = 0
    metrics["cli.import_s"] = 0.0
    traced = sum(statistics.median(t) for t in tally.traced_times.values())
    untraced = sum(statistics.median(t) for t in tally.times.values())
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "prank" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: the prank sources ({SRC / 'prank'}) or BENCHMARK.json are missing",
              file=sys.stderr)
        return 2
    env = environment(load_program())
    print("environment: " + json.dumps(env), flush=True)
    tracer = spans.Tracer(args.workload, args.seed) if args.trace else None
    try:
        if args.workload == "cli":
            tally, metrics = run_cli(args.seed, args.seconds, tracer)
        else:
            tally, metrics = run_table1(args.seed, args.seconds, tracer)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if tracer else "end_to_end"]}
    problems = list(tally.failures)
    if set(metrics) != set(declared):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    if tracer:
        problems += [f"span tiling: {p}" for p in spans.tiling_problems(tracer.spans)]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {declared.get(name, '?')}")
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {n: {"value": float(v), "unit": declared.get(n, "?")}
                    for n, v in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
