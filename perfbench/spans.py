"""Spans around the public functions of the prank modules, and the per-layer
numbers derived from them.

Wrappers go in at the namespaces the functions are called from:
``prank.filters`` imports ``svd``, ``evaluate``, ``flatten``, ``to_time`` and
the others by name, so wrapping ``prank.tsvd.svd`` alone would miss the PRF
SVD.  Nothing is wrapped until ``Tracer.install`` runs, and ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time

TRACED_NAMESPACES = ("prank.filters", "prank.tsvd", "prank.benchmark", "prank.report", "prank.cli")


def _svd_attrs(args, kwargs, result):
    """Computed (not measured) cost of an economy SVD with both factors.

    Golub-Reinsch with U1 and V: 14 m n^2 + 8 n^3 real flops for m >= n,
    four times that for complex data.  Bytes: the input read once and the
    factors written once.
    """
    a = args[0] if args else kwargs["A"]
    big, small = max(a.shape), min(a.shape)
    complex_data = a.dtype.kind == "c"
    flops = (14 * big * small ** 2 + 8 * small ** 3) * (4 if complex_data else 1)
    nbytes = a.itemsize * (a.size + big * small + small * small) + 8 * small
    return {"flops": flops, "bytes": nbytes}


def _hankel_series_attrs(args, kwargs, result):
    record = result[1]
    return {"rank": int(record.rank), "min_lk": int(min(record.shape))}


def _path_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


SPAN_ATTRS = {
    "tsvd.svd": _svd_attrs,
    "tsvd.hankel_tsvd_series": _hankel_series_attrs,
    "dataset.read_dataset": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "dataset.write_dataset": lambda a, k, r: {"bytes": _path_bytes(a[1])},
    "report.write_report": lambda a, k, r: {"bytes": sum(_path_bytes(p) for p in r)},
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "variant", "attrs")

    def __init__(self, id_, name, start, parent, variant):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.variant = variant
        self.attrs = {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``dump`` writes them out when the run ends."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.variant = None
        self.spans = []
        self._stack = []
        self._patched = []

    def install(self):
        for modname in TRACED_NAMESPACES:
            mod = importlib.import_module(modname)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("prank."):
                    continue
                setattr(mod, name, self._wrap(obj))
                self._patched.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent, self.variant)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn):
        label = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
        attrs_of = SPAN_ATTRS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def adopt(self, records, parent):
        """Append spans recorded by a child process under ``parent``."""
        base = len(self.spans)
        for rec in records:
            span = Span(base + rec["id"], rec["name"], rec["start"],
                        parent.id if rec["parent"] is None else base + rec["parent"],
                        parent.variant)
            span.end = rec["end"]
            span.attrs = rec.get("attrs", {})
            self.spans.append(span)

    def records(self):
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "workload": self.workload, "variant": s.variant, "seed": self.seed,
                 "attrs": s.attrs} for s in self.spans]

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")
        os.replace(tmp, path)


def children_index(spans):
    kids = {}
    for span in spans:
        kids.setdefault(span.parent, []).append(span)
    return kids


def tiling_problems(spans):
    """Children must lie inside their parent and must not overlap each other,
    so a span's duration is its self time plus its children's durations."""
    by_id = {s.id: s for s in spans}
    problems = []
    for parent_id, kids in children_index(spans).items():
        kids = sorted(kids, key=lambda s: s.start)
        if parent_id is not None:
            parent = by_id[parent_id]
            if kids[0].start < parent.start or kids[-1].end > parent.end:
                problems.append(f"{parent.name}#{parent.id}: a child lies outside it")
        for a, b in zip(kids, kids[1:]):
            if b.start < a.end:
                problems.append(f"{a.name}#{a.id} overlaps {b.name}#{b.id}")
    for span in spans:
        if span.end is None or span.end < span.start:
            problems.append(f"{span.name}#{span.id}: not closed")
    return problems


def self_seconds(span, kids):
    return span.seconds - sum(k.seconds for k in kids.get(span.id, ()))


def subtree(root, kids):
    out, todo = [], [root]
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(kids.get(span.id, ()))
    return out


# per-call layer metric -> (how, span names); "dur" sums inclusive durations
LAYER_SPANS = {
    "dataset.bridge_s": ("dur", ("dataset.to_time", "dataset.to_frequency")),
    "dataset.flatten_s": ("dur", ("dataset.flatten", "dataset.unflatten")),
    "dataset.io_s": ("dur", ("dataset.read_dataset", "dataset.write_dataset")),
    "selection.evaluate_calls": ("count", ("selection.evaluate",)),
    "selection.evaluate_s": ("dur", ("selection.evaluate",)),
    "tsvd.svd_calls": ("count", ("tsvd.svd",)),
    "tsvd.svd_s": ("dur", ("tsvd.svd",)),
    "tsvd.svd_flops": ("flops", ("tsvd.svd",)),
    "tsvd.svd_bytes": ("bytes", ("tsvd.svd",)),
    "tsvd.hankel_series_calls": ("count", ("tsvd.hankel_tsvd_series",)),
    "tsvd.hankelize_s": ("dur", ("tsvd.hankelize",)),
    "tsvd.truncate_s": ("dur", ("tsvd.truncate", "tsvd.truncate_cleaned")),
    "tsvd.ssa_avg_s": ("dur", ("tsvd.dehankelize_ssa",)),
    "report.write_s": ("dur", ("report.write_report",)),
    "report.bytes": ("bytes", ("report.write_report",)),
    "cli.main_s": ("dur", ("cli.main",)),
}
PER_CALL_EXTRA = ("filters.self_s", "selection.cold_fits")
RATIOS = ("tsvd.svd_gflops", "tsvd.vectors_used")
PER_VARIANT = tuple(LAYER_SPANS) + PER_CALL_EXTRA + RATIOS
GLOBAL = ("benchmark.synth_s", "benchmark.corrupt_s", "dataset.io_bytes",
          "selection.setup_cold_fits", "cli.import_s", "trace.overhead_frac")
SYNTH_SPANS = ("benchmark.synthesize_direct", "benchmark.eigen", "benchmark.modal_frf")
CORRUPT_SPANS = ("benchmark.add_noise", "benchmark.add_offsets")
IO_SPANS = LAYER_SPANS["dataset.io_s"][1]


def call_layers(root, kids):
    """Per-layer numbers of one variant call, from the spans under ``root``."""
    tree = subtree(root, kids)
    out = {}
    for metric, (how, names) in LAYER_SPANS.items():
        hits = [s for s in tree if s.name in names]
        if how == "dur":
            out[metric] = sum(s.seconds for s in hits)
        elif how == "count":
            out[metric] = len(hits)
        else:
            out[metric] = sum(s.attrs.get(how, 0) for s in hits)
    out["filters.self_s"] = sum(self_seconds(s, kids) for s in tree if s.name.startswith("filters."))
    out["selection.cold_fits"] = root.attrs.get("cold_fits", 0)
    return out


def variant_layers(roots, kids):
    """Median of each per-call number over a variant's traced calls, plus the
    achieved SVD rate and the share of Hankel singular vectors used, pooled
    over all of them."""
    per_call = [call_layers(r, kids) for r in roots]
    out = {m: statistics.median(c[m] for c in per_call) for m in tuple(LAYER_SPANS) + PER_CALL_EXTRA}
    flops = sum(c["tsvd.svd_flops"] for c in per_call)
    svd_s = sum(c["tsvd.svd_s"] for c in per_call)
    out["tsvd.svd_gflops"] = flops / svd_s / 1e9 if svd_s > 0 else 0.0
    series = [s for r in roots for s in subtree(r, kids) if s.name == "tsvd.hankel_tsvd_series"]
    min_lk = sum(s.attrs.get("min_lk", 0) for s in series)
    out["tsvd.vectors_used"] = sum(s.attrs.get("rank", 0) for s in series) / min_lk if min_lk else 0.0
    return out


def cold_fit_count():
    """Misses so far of the e15 quantile caches (each a fit for a new shape)."""
    selection = importlib.import_module("prank.selection")
    return sum(obj.cache_info().misses for obj in vars(selection).values()
               if hasattr(obj, "cache_info"))


def span_seconds(spans, names):
    return sum(s.seconds for s in spans if s.name in names)
