"""One benchmark process: set up a workload, then run and time its operations.

Started by run.py in a fresh interpreter with BLAS/OpenMP pinned to one
thread and ``src`` on the path.  Argument: one JSON object with the keys
workload, spec, seed, seconds, mode and work_dir.  Prints JSON lines:
``{"event": "ready", ...}`` once set up, then ``{"event": "result", ...}``
with the raw timings and every output run.py checks.  Modes after
set-up:

  run     operations for ``seconds``: an experiment starts another
          run_experiment while one more fits; the stream runs to the end
  trace   one untraced operation, then one traced (spans written to work_dir)
  record  one operation plus the partitions of every recorded order seed
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_metrics, rebind, summarize
from workloads import RECORDED_ORDER_SEEDS


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def file_digests(kernel_dir: Path) -> list[str]:
    """sha256 of every per-dimension kernel file, in dimension order."""
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(kernel_dir.glob("dim*.bin"))]


def data_sha256(*datasets) -> str:
    h = hashlib.sha256()
    for ds in datasets:
        for s in ds.sequences:
            h.update(f"{s.id}|{s.label}|".encode())
            h.update(np.ascontiguousarray(s.values, dtype="<f8").tobytes())
    return h.hexdigest()


def partition_sha256(pred: dict) -> str:
    groups: dict = {}
    for sid, cluster in pred.items():
        groups.setdefault(cluster, []).append(sid)
    canonical = sorted(sorted(g) for g in groups.values())
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Probe:
    """Timestamps at the describe boundary and capture of the built trees.

    A describe runs from the start of ``cross_kernel`` to the end of
    ``reconstruction_report`` for the same sequence.  Two clock reads per
    describe; no spans.
    """

    def __init__(self):
        self.describe_s: list[float] = []
        self.trees: list = []
        self._start = 0.0

    def install(self) -> None:
        from mkdmts import inclust, kernels, zeroshot

        cross_kernel, report, save = kernels.cross_kernel, zeroshot.reconstruction_report, inclust.Dendrogram.save
        probe = self

        def timed_cross_kernel(*args, **kwargs):
            probe._start = time.perf_counter()
            return cross_kernel(*args, **kwargs)

        def timed_report(*args, **kwargs):
            result = report(*args, **kwargs)
            probe.describe_s.append(time.perf_counter() - probe._start)
            return result

        def captured_save(tree, *args, **kwargs):
            probe.trees.append(tree)
            return save(tree, *args, **kwargs)

        rebind(cross_kernel, timed_cross_kernel)
        rebind(report, timed_report)
        inclust.Dendrogram.save = captured_save


def tree_outputs(tree, expected_ids) -> dict:
    out = {"validate_error": None}
    try:
        tree.validate_caches()
    except AssertionError as exc:
        out["validate_error"] = str(exc)
    pred = tree.flat_clusters()
    out["ids_ok"] = set(pred) == set(expected_ids)
    out["partition_sha256"] = partition_sha256(pred)
    return out


def cluster_orders(encodings: list, truth: dict) -> dict:
    """Partition, CE and NMI for every recorded order seed, from fixed encodings.

    Mirrors the arrival order both kinds use: sequence ``order[i]`` of the
    novel set arrives i-th, ``order = default_rng(seed).permutation(n)``.
    """
    from mkdmts import evalx, inclust

    out = {}
    for seed in RECORDED_ORDER_SEEDS:
        tree = inclust.Dendrogram(inclust.ClusterConfig())
        for idx in np.random.default_rng(seed).permutation(len(encodings)):
            tree.insert(*encodings[idx])
        pred = tree.flat_clusters()
        score = evalx.score_clustering(pred, truth)
        out[str(seed)] = {"partition_sha256": partition_sha256(pred), "ce": score.ce, "nmi": score.nmi}
    return out


# -- experiment kind: one cold run_experiment per operation -----------------


def setup_experiment(spec: dict, work_dir: Path) -> tuple[dict, dict]:
    from mkdmts import mtsdata

    seen, unseen, _ = mtsdata.synth_dataset(mtsdata.SynthConfig(**spec["config"]["synth"]))
    ctx = {"unseen": unseen}
    return ctx, {"data_sha256": data_sha256(seen, unseen)}


def experiment_op(spec, seed, ctx, work_dir, probe, span) -> dict:
    from mkdmts import evalx

    config = copy.deepcopy(spec["config"])
    config["cluster"] = {"order_seed": seed}
    out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=work_dir))
    first_describe = len(probe.describe_s)
    try:
        with span("bench.op"):
            t0 = time.perf_counter()
            report = evalx.run_experiment(config, out_dir)
            wall = time.perf_counter() - t0
        outputs = {
            "kernel_sha256": file_digests(out_dir / "kernels"),
            "loss_trace": report["loss_trace"],
            "dra_mean": report["dra_mean"],
            "per_id": {row["id"]: {"per_dim_error": row["per_dim_error"]} for row in report["attribution"]},
            "ce": report["clustering"]["incremental"]["ce"],
            "nmi": report["clustering"]["incremental"]["nmi"],
            **tree_outputs(probe.trees[-1], ctx["unseen"].ids()),
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    n_describe = len(probe.describe_s) - first_describe
    if n_describe != len(ctx["unseen"]):
        raise RuntimeError(f"saw {n_describe} describe calls, expected {len(ctx['unseen'])}")
    return {"wall_s": wall, "describes": n_describe, "outputs": outputs}


def record_experiment(ctx, probe) -> dict:
    tree = probe.trees[-1]
    members = {}
    for root in tree.roots:
        ids, mats = root.subtree_members()
        members.update(zip(ids, mats))
    unseen = ctx["unseen"]
    encodings = [(s.id, members[s.id]) for s in unseen.sequences]
    return cluster_orders(encodings, {s.id: int(s.label) for s in unseen.sequences})


# -- stream kind: describe and place novel sequences one at a time ----------


def setup_stream(spec: dict, work_dir: Path) -> tuple[dict, dict]:
    """Synthesize, cut the seen set, build kernels and train; persist them as the CLI flow does."""
    from mkdmts import kernels, mkd, mtsdata

    synth = spec["synth"]
    seen_all, unseen, _ = mtsdata.synth_dataset(mtsdata.SynthConfig(**synth))
    per_class = synth["samples_per_class"]
    keep = [c * per_class + i for c in range(synth["num_seen_classes"]) for i in range(spec["seen_per_class"])]
    seen = seen_all.subset(keep)
    ks = kernels.build_kernelset(seen, spec["bandwidth"])
    cfg = mkd.TrainConfig(**spec["train"])
    result = mkd.train(seen, ks, cfg)
    out_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=work_dir))
    try:
        mtsdata.save_dataset(seen, out_dir / "data", "seen")
        mtsdata.save_dataset(unseen, out_dir / "data", "unseen")
        kernels.save_kernelset(ks, out_dir / "kernels")
        mkd.save_model(result, out_dir / "model", cfg, ks.bandwidths)
        kernel_sha256 = file_digests(out_dir / "kernels")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    ctx = {"seen": seen, "unseen": unseen, "ks": ks, "dictionary": result.dictionary}
    outputs = {
        "data_sha256": data_sha256(seen, unseen),
        "kernel_sha256": kernel_sha256,
        "loss_trace": [float(x) for x in result.loss_trace],
    }
    return ctx, outputs


def per_id_outputs(described) -> dict:
    return {
        sid: {"code": [float(v) for v in x], "per_dim_error": [float(v) for v in rep.per_dim_error]}
        for _, sid, x, rep, _ in described
    }


def stream_pass(spec, seed, ctx, span, stop_at=None) -> dict:
    """All novel sequences arrive once in seeded order; returns timings and outputs.

    With ``stop_at`` (a perf_counter time) the pass ends early once that
    time has come; such a partial pass reports its describes only.
    """
    from mkdmts import evalx, inclust, kernels, zeroshot

    seen, unseen, ks, d = ctx["seen"], ctx["unseen"], ctx["ks"], ctx["dictionary"]
    labels = seen.labels()
    t_x, threshold = spec["train"]["t_x"], spec["threshold"]
    truth = {s.id: int(s.label) for s in unseen.sequences}
    order = np.random.default_rng(seed).permutation(len(unseen))
    tree = inclust.Dendrogram(inclust.ClusterConfig())
    latencies, described = [], []
    t_pass = time.perf_counter()
    for idx in order:
        if stop_at is not None and time.perf_counter() >= stop_at:
            return {"describe_s": latencies, "describes": len(latencies),
                    "outputs": {"partial": True, "per_id": per_id_outputs(described)}}
        z = unseen.sequences[idx]
        t0 = time.perf_counter()
        with span("bench.op"):
            ck = kernels.cross_kernel(seen, z, ks.bandwidths)
            x = zeroshot.encode(d, ks, ck, t_x)
            enc = zeroshot.encoding_matrix(d, x, z.id)
            rep = zeroshot.reconstruction_report(d, ks, ck, x, labels, threshold)
            tree.insert(z.id, enc.values)
        latencies.append(time.perf_counter() - t0)
        described.append((idx, z.id, x, rep, enc.values))
    with span("bench.score"):
        score = evalx.score_clustering(tree.flat_clusters(), truth)
    wall = time.perf_counter() - t_pass
    outputs = {
        "dra_mean": float(np.mean([rep.dra for _, _, _, rep, _ in described])),
        "per_id": per_id_outputs(described),
        "ce": score.ce,
        "nmi": score.nmi,
        **tree_outputs(tree, unseen.ids()),
    }
    encodings = [None] * len(unseen)
    for idx, sid, _, _, values in described:
        encodings[idx] = (sid, values)
    return {"wall_s": wall, "describe_s": latencies, "describes": len(latencies),
            "outputs": outputs, "tree": tree, "encodings": encodings, "truth": truth}


# -- entry point -----------------------------------------------------------


def failed_op(exc: Exception, describes: int) -> dict:
    return {"wall_s": None, "describes": describes, "error": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    job = json.loads(sys.argv[1])
    spec, seed, mode = job["spec"], job["seed"], job["mode"]
    work_dir = Path(job["work_dir"])
    stream = spec["kind"] == "stream"
    setup = setup_stream if stream else setup_experiment

    t0 = time.perf_counter()
    ctx, setup_outputs = setup(spec, work_dir)
    setup_wall = time.perf_counter() - t0
    emit({"event": "ready", "outputs": setup_outputs})

    tracer = None
    probe = Probe()
    if not stream:
        probe.install()

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    def one_op(stop_at=None):
        try:
            if stream:
                return stream_pass(spec, seed, ctx, span, stop_at)
            return experiment_op(spec, seed, ctx, work_dir, probe, span)
        except Exception as exc:  # a failing operation is counted, never dropped
            return failed_op(exc, len(ctx["unseen"]))

    ops, extra_setups, result = [], [], {}
    if mode == "run" and stream:
        # the stream runs for the whole window; the first pass always completes
        stop_at = time.perf_counter() + job["seconds"]
        ops.append(one_op())
        while time.perf_counter() < stop_at and "partial" not in ops[-1].get("outputs", {}):
            ops.append(one_op(stop_at))
    elif mode == "run":
        # start another run_experiment only while one more, as long as the last, still fits
        start = time.perf_counter()
        while True:
            t_op = time.perf_counter()
            ops.append(one_op())
            now = time.perf_counter()
            if (now - start) + (now - t_op) > job["seconds"]:
                break
    elif mode == "trace":
        ops.append(one_op())
        untraced_s = (ops[0]["wall_s"] or 0.0) + (setup_wall if stream else 0.0)
        tracer = Tracer()
        tracer.install()
        traced_s = 0.0
        if stream:
            with tracer.span("bench.setup"):
                t0 = time.perf_counter()
                ctx, outputs = setup(spec, work_dir)
                traced_s += time.perf_counter() - t0
            extra_setups.append(outputs)
        ops.append(one_op())
        traced_s += ops[-1]["wall_s"] or 0.0
        trees = [ops[-1]["tree"]] if "tree" in ops[-1] else probe.trees[-1:]
        result["layers"] = layer_metrics(tracer, trees)
        result["layers"]["trace.overhead_s"] = traced_s - untraced_s
        result["spans"] = summarize(tracer.spans)
        result["trace_missing"] = tracer.missing
        result["trace_unwrapped"] = tracer.unwrapped
        trace_file = work_dir / f"trace-{job['workload']}-seed{seed}.json"
        tracer.write(trace_file)
        result["trace_file"] = str(trace_file)
    elif mode == "record":
        op = one_op()
        ops.append(op)
        if stream:
            result["orders"] = cluster_orders(op["encodings"], op["truth"])
        else:
            result["orders"] = record_experiment(ctx, probe)

    describe_s = []
    for op in ops:
        describe_s.extend(op.pop("describe_s", []))
        op.pop("tree", None)
        op.pop("encodings", None)
        op.pop("truth", None)
    if not stream:
        describe_s = probe.describe_s
    result.update({
        "event": "result",
        "ops": ops,
        "extra_setups": extra_setups,
        "describe_s": describe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    })
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
