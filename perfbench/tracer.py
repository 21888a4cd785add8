"""Spans around the public functions of each mkdmts module, recorded from outside.

``Tracer.install`` replaces each target function with a wrapper that opens
a span (name, start, end, parent, attributes) and rebinds every name in the
package that refers to the original, so calls through ``from .x import f``
are traced too.  Spans stay in memory until ``write``.  Attributes such as
DTW cells or NQP problem size are computed from the call's inputs at the
boundary, so they survive a rewrite of the function's body.  A target that
no longer exists is listed in ``missing`` and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "mkdmts"


def rebind(orig, new) -> None:
    """Point every name in the loaded package modules that holds ``orig`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)


def _pair_cells(lengths) -> int:
    total = sum(lengths)
    return (total * total - sum(n * n for n in lengths)) // 2


def _gram_cells(args, kwargs, result):
    seen = args[0]
    return {"cells": seen.dims * _pair_cells([s.length for s in seen.sequences])}


def _cross_cells(args, kwargs, result):
    seen, z = args[0], args[1]
    return {"cells": seen.dims * z.length * sum(s.length for s in seen.sequences)}


def _spectral_cells(args, kwargs, result):
    unseen = args[0]
    return {"cells": unseen.dims * _pair_cells([s.length for s in unseen.sequences])}


def _problem_size(args, kwargs, result):
    return {"n": int(args[0].h.shape[0])}


def _train_iters(args, kwargs, result):
    return {"iters": len(result.loss_trace) - 1}


def _matrix_bytes(args, kwargs, result):
    m = args[1]
    return {"bytes": 16 + 8 * int(m.size)}


# (module, attribute, attribute function); the span is named "module.attribute".
TARGETS = [
    ("mtsdata", "synth_dataset", None),
    ("mtsdata", "save_dataset", None),
    ("mtsdata", "load_dataset", None),
    ("kernels", "dtw", None),
    ("kernels", "pairwise_dtw", None),
    ("kernels", "psd_repair", None),
    ("kernels", "build_kernelset", _gram_cells),
    ("kernels", "cross_kernel", _cross_cells),
    ("kernels", "save_kernelset", None),
    ("kernels", "load_kernelset", None),
    ("kernels", "build_or_load_kernelset", None),
    ("nqp", "nqp_solve", _problem_size),
    ("mkd", "train", _train_iters),
    ("mkd", "init_dictionary", None),
    ("mkd", "update_codes", None),
    ("mkd", "update_atom_samples", None),
    ("mkd", "update_atom_dims", None),
    ("mkd", "compute_loss", None),
    ("mkd", "atom_gram", None),
    ("mkd", "atom_data_cross", None),
    ("zeroshot", "encode", None),
    ("zeroshot", "partial_error", None),
    ("zeroshot", "encoding_matrix", None),
    ("zeroshot", "reconstruction_report", None),
    ("inclust", "Dendrogram.insert", None),
    ("inclust", "Dendrogram.flat_clusters", None),
    ("evalx", "spectral_baseline", _spectral_cells),
    ("evalx", "score_clustering", None),
    ("evalx", "run_experiment", None),
    ("ioutil", "write_matrix", _matrix_bytes),
    ("ioutil", "read_matrix", None),
    ("ioutil", "write_json", None),
    ("ioutil", "read_json", None),
]

# Names one module imports from another; install() reports any left unwrapped.
CROSS_IMPORTS = [
    ("evalx", "dtw"),
    ("mkd", "nqp_solve"),
    ("zeroshot", "nqp_solve"),
    ("zeroshot", "atom_gram"),
    ("kernels", "write_matrix"),
    ("mkd", "write_matrix"),
]


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index or -1, attributes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []
        self.unwrapped: list[str] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if attrs is not None:
                try:
                    tracer.spans[idx][4] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # signature changed: the count is absent, the call is still traced
            return result

        return traced

    def install(self) -> None:
        for modname, attr, attrs in TARGETS:
            name = f"{modname}.{attr}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{modname}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, orig, attrs)
            if path:
                setattr(owner, leaf, wrapper)
            else:
                rebind(orig, wrapper)
        for modname, attr in CROSS_IMPORTS:
            value = getattr(sys.modules.get(f"{PACKAGE}.{modname}"), attr, None)
            if value is not None and not hasattr(value, "__wrapped__"):
                self.unwrapped.append(f"{modname}.{attr}")

    def write(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "attrs": a}
            for n, s, e, p, a in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "unwrapped": self.unwrapped, "spans": rows}, fh)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, summed attributes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
        for key, value in attrs.items():
            row[key] = row.get(key, 0) + value
    return out


def _time_under(spans, name: str, ancestor: str) -> float:
    """Seconds spent in spans called ``name`` nested anywhere below an ``ancestor`` span."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += span[2] - span[1]
    return total


_NQP_CALLERS = {
    "mkd.update_atom_samples": "solve_sample",
    "mkd.update_codes": "solve_code",
    "zeroshot.encode": "solve_code",
    "mkd.update_atom_dims": "solve_dims",
}


def layer_metrics(tracer: Tracer, trees) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the recorded spans.

    ``trees`` are the dendrograms built while tracing; node counts and
    split outcomes come from their placement records.  A metric whose
    source function is missing is left out.
    """
    spans = tracer.spans
    rows = summarize(spans)
    have = {f"{m}.{a}" for m, a, _ in TARGETS} - set(tracer.missing)
    m: dict[str, float] = {}

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    def put(metric, source, value):
        if source in have:
            m[metric] = value

    for name in ("kernels.build_kernelset", "kernels.pairwise_dtw", "kernels.psd_repair",
                 "evalx.score_clustering", "mtsdata.synth_dataset",
                 "mtsdata.save_dataset", "mkd.train", "mkd.update_codes", "mkd.update_atom_samples",
                 "mkd.update_atom_dims", "mkd.compute_loss", "mkd.atom_gram", "mkd.atom_data_cross",
                 "zeroshot.encode", "zeroshot.reconstruction_report", "zeroshot.encoding_matrix",
                 "ioutil.write_matrix"):
        put(f"{name}.s", name, row(name)["s"])
    for name in ("kernels.cross_kernel", "kernels.dtw", "mkd.atom_gram", "zeroshot.encode",
                 "zeroshot.partial_error", "ioutil.write_matrix"):
        put(f"{name}.calls", name, row(name)["calls"])

    gram = row("kernels.build_kernelset")
    put("kernels.gram_cells", "kernels.build_kernelset", gram.get("cells", 0))
    put("kernels.gram_ns_per_cell", "kernels.build_kernelset", per(gram["s"], gram.get("cells", 0), 1e9))
    cross = row("kernels.cross_kernel")
    put("kernels.cross_kernel.ms_per_call", "kernels.cross_kernel", per(cross["s"], cross["calls"], 1e3))
    put("kernels.cross_cells", "kernels.cross_kernel", cross.get("cells", 0))
    put("kernels.cross_ns_per_cell", "kernels.cross_kernel", per(cross["s"], cross.get("cells", 0), 1e9))
    put("evalx.spectral_cells", "evalx.spectral_baseline", row("evalx.spectral_baseline").get("cells", 0))
    put("mkd.train.iters", "mkd.train", row("mkd.train").get("iters", 0))
    put("ioutil.write_matrix.bytes", "ioutil.write_matrix", row("ioutil.write_matrix").get("bytes", 0))

    if "nqp.nqp_solve" in have:
        split = {kind: [0, 0.0, 0] for kind in set(_NQP_CALLERS.values())}
        for name, start, end, parent, attrs in spans:
            kind = _NQP_CALLERS.get(spans[parent][0]) if name == "nqp.nqp_solve" and parent >= 0 else None
            if kind:
                split[kind][0] += 1
                split[kind][1] += end - start
                split[kind][2] += attrs.get("n", 0)
        for kind, (calls, secs, n) in split.items():
            m[f"nqp.{kind}.calls"] = calls
            m[f"nqp.{kind}.ms_per_call"] = per(secs, calls, 1e3)
        m["nqp.solve_sample.n"] = per(split["solve_sample"][2], split["solve_sample"][0], 1.0)

    if "inclust.Dendrogram.insert" in have:
        ins = row("inclust.Dendrogram.insert")
        m["inclust.insert.calls"] = ins["calls"]
        m["inclust.insert.s"] = ins["s"]
        m["inclust.nodes"] = sum(len(t.nodes()) for t in trees)
        for outcome in ("replaced", "children", "discarded"):
            m[f"inclust.split.{outcome}"] = sum(
                1 for t in trees for rec in t.records if getattr(rec, "split", None) == outcome
            )

    op_s = sum(e - s for n, s, e, _, _ in spans if n == "bench.op")
    for name in ("kernels.build_kernelset", "kernels.cross_kernel", "mkd.train",
                 "mkd.update_atom_samples", "evalx.spectral_baseline"):
        put(f"{name}.share_of_op", name, per(_time_under(spans, name, "bench.op"), op_s, 1.0))
    return m
