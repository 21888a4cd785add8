"""mkdmts benchmark: end-to-end and per-layer metrics with every output checked.

Usage (from the repository root):

  python3 perfbench/run.py --workload quickstart --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py                   # every workload in turn
  python3 perfbench/run.py --record          # rewrite perfbench/references.json

Each run starts fresh child processes (perfbench/child.py) with BLAS and
OpenMP pinned to one thread and ``src`` on the path.  With ``--trace 0``
three processes run one after another; each sets the workload up and then
measures for a third of ``--seconds``, so the samples of a run come from
three processes spread over the whole run.  The end-to-end metrics come
from these untraced runs.  With ``--trace 1`` one
process runs one untraced and one traced operation and reports the
per-layer metrics and the tracing overhead.  Every operation's outputs
are compared with references.json; a mismatch or an exception counts as a
failed operation.  Human-readable lines come first; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
REFERENCES = BENCH_DIR / "references.json"
PROCESSES_PER_RUN = 3
DEADLINE_S = 170.0
REL_TOL_LOSS = 1e-12
TOL_VALUES = 1e-9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result (program missing, crash, timeout)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(job: dict, deadline: float) -> dict:
    """Start one child, time spawn-to-ready, and return its ready and result events."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    events = {}
    try:
        for line in proc.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if not isinstance(event, dict) or "event" not in event:
                continue
            if event["event"] == "ready":
                event["setup_s"] = time.perf_counter() - t0
            events[event["event"]] = event
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or "ready" not in events or "result" not in events:
        raise BenchError(f"{job['workload']} child ({job['mode']}) exited with code {code} before reporting")
    return events


# -- output checks ----------------------------------------------------------


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _close_lists(a, b, tol) -> bool:
    return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))


def check_setup(out: dict, ref: dict) -> list[str]:
    bad = []
    if out.get("data_sha256") != ref["data_sha256"]:
        bad.append("dataset bytes differ")
    if "kernel_sha256" in out and out["kernel_sha256"] != ref["kernel_sha256"]:
        bad.append("kernel matrix bytes differ")
    if "loss_trace" in out and not _close_lists(out["loss_trace"], ref["loss_trace"], REL_TOL_LOSS):
        bad.append("loss trace differs")
    return bad


def check_op(out: dict, ref: dict, seed: int) -> tuple[list[str], set[str]]:
    """Run-level mismatches, and the ids whose own outputs differ."""
    bad_ids = set(out["per_id"]) - set(ref["per_id"])
    for sid, values in out["per_id"].items():
        expected = ref["per_id"].get(sid, {})
        if any(not _close_lists(values[k], expected.get(k, []), TOL_VALUES) for k in values):
            bad_ids.add(sid)
    if out.get("partial"):
        return [], bad_ids
    bad_ids |= set(ref["per_id"]) - set(out["per_id"])
    bad = check_setup({**out, "data_sha256": ref["data_sha256"]}, ref)
    if not _close(out["dra_mean"], ref["dra_mean"], TOL_VALUES):
        bad.append("dra_mean differs")
    if out["validate_error"] is not None:
        bad.append(f"validate_caches: {out['validate_error']}")
    if not out["ids_ok"]:
        bad.append("partition does not cover exactly the novel ids")
    order = ref["orders"].get(str(seed))
    if order is not None:
        if out["partition_sha256"] != order["partition_sha256"]:
            bad.append(f"partition differs from the one recorded for seed {seed}")
        if not (_close(out["ce"], order["ce"], 1e-12) and _close(out["nmi"], order["nmi"], 1e-12)):
            bad.append("ce/nmi differ")
    return bad, bad_ids


def tally(ops: list[dict], setup_bad: list[str], ref: dict, seed: int, stream: bool):
    """(attempted, failed, problems): operations are describes for a stream, runs otherwise."""
    attempted = failed = 0
    problems = list(setup_bad)
    for op in ops:
        units = op["describes"] if stream else 1
        attempted += units
        if "error" in op:
            problems.append(op["error"])
            failed += units
            continue
        bad, bad_ids = check_op(op["outputs"], ref, seed)
        problems.extend(bad)
        if bad_ids:
            problems.append(f"{len(bad_ids)} sequence(s) described differently")
        if setup_bad or bad:
            failed += units
        elif bad_ids:
            failed += min(units, len(bad_ids)) if stream else 1
    return attempted, failed, problems


# -- one run ------------------------------------------------------------------


def run_benchmark(workload: str, spec: dict, seed: int, seconds: float, trace: bool, ref: dict) -> dict:
    """One benchmark run: PROCESSES_PER_RUN children untraced, or one traced child."""
    deadline = time.monotonic() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    n_procs = 1 if trace else PROCESSES_PER_RUN
    job = {"workload": workload, "spec": spec, "seed": seed, "seconds": seconds / n_procs,
           "mode": "trace" if trace else "run", "work_dir": str(WORK_DIR)}
    setup_times, setup_bad, results = [], [], []
    for _ in range(n_procs):
        events = run_child(job, deadline)
        setup_times.append(events["ready"]["setup_s"])
        results.append(events["result"])
        for outputs in [events["ready"]["outputs"], *events["result"]["extra_setups"]]:
            setup_bad.extend(check_setup(outputs, ref))
    result = results[-1]
    ops = [op for r in results for op in r["ops"]]
    stream = spec["kind"] == "stream"
    attempted, failed, problems = tally(ops, setup_bad, ref, seed, stream)
    walls = [op["wall_s"] for op in ops if op.get("wall_s") is not None]
    describe_ms = [1e3 * s for r in results for s in r["describe_s"]]
    if not walls or not describe_ms:
        raise BenchError(f"no operation of {workload} completed: {problems[:3]}")
    last = next((op["outputs"] for op in reversed(ops) if "ce" in op.get("outputs", {})), {})
    return {
        "workload": workload,
        "kind": spec["kind"],
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "setup_s": setup_times,
        "wall_s": walls,
        "describe_ms": describe_ms,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "quality": {k: last.get(k) for k in ("ce", "nmi", "dra_mean")},
        "layers": result.get("layers"),
        "spans": result.get("spans"),
        "trace_missing": result.get("trace_missing", []),
        "trace_unwrapped": result.get("trace_unwrapped", []),
        "trace_file": result.get("trace_file"),
        "provenance": result["provenance"],
    }


def end_to_end(run: dict) -> dict[str, float]:
    p50, p90 = np.percentile(run["describe_ms"], [50, 90])
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "wall_s": statistics.median(run["wall_s"]),
        "describe_ms_p50": float(p50),
        "describe_ms_p90": float(p90),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def report(run: dict, declared: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    p = run["provenance"]
    mode = "traced" if run["trace"] else "untraced"
    print(f"workload {run['workload']}  seed {run['seed']}  ({mode})")
    print(f"machine: nproc={p['nproc']} cpu={p['cpu_model']!r} python={p['python']} numpy={p['numpy']} "
          f"scipy={p['scipy']} blas={p['blas']} (threads={p['blas_threads']})")
    n = len(run["describe_ms"])
    notes = {
        "setup_s": f"median of {len(run['setup_s'])} set-ups, each in a fresh process",
        "wall_s": f"median of {len(run['wall_s'])} "
                  + ("complete stream passes" if run["kind"] == "stream" else "run_experiment calls"),
        "describe_ms_p50": f"n={n} describes",
        "describe_ms_p90": f"n={n}, {n - math.ceil(0.9 * n)} beyond",
        "peak_rss_mb": "largest ru_maxrss of the measuring processes",
    }
    units = {name: m["unit"] for name, m in declared.items()}
    metrics = run["layers"] if run["trace"] else end_to_end(run)
    if not run["trace"]:
        for name, value in metrics.items():
            print(f"  {name:<16} {value:12.4f} {units.get(name, ''):<6} {notes[name]}")
    quality = {
        "ce": "clustering error of the incremental tree",
        "nmi": "against the held-back labels",
        "dra_mean": "mean share of dimensions reconstructed",
    }
    for name, note in quality.items():
        value = run["quality"].get(name)
        if value is not None:
            print(f"  {name:<16} {value:12.4f} {'fraction':<8} {note}")
    rate = run["failed"] / run["attempted"]
    print(f"  {'error_rate':<16} {rate:12.4f} {'fraction':<8} {run['failed']} of {run['attempted']} operations failed")
    for problem in run["problems"]:
        print(f"  check failed: {problem}")
    if run["trace"]:
        print(f"  tracing overhead {run['layers'].get('trace.overhead_s', float('nan')):.3f} s (traced minus untraced)")
        if run["trace_missing"]:
            print(f"  absent (function not found): {', '.join(run['trace_missing'])}")
        if run["trace_unwrapped"]:
            print(f"  imported names left untraced: {', '.join(run['trace_unwrapped'])}")
        print(f"  spans written to {run['trace_file']}")
        for name, row in sorted(run["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<36} calls {row['calls']:>7}  total {row['s']:9.4f} s  self {row['self_s']:9.4f} s")
        for name in declared:
            if name in metrics:
                print(f"  {name:<40} {metrics[name]:14.6g} {units[name]}")
    out = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in declared if name in metrics
        },
    }
    result_file = WORK_DIR / f"result-{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}.json"
    result_file.write_text(json.dumps({**{k: v for k, v in run.items() if k != "spans"}, "result": out}, indent=1))
    return out


# -- references ---------------------------------------------------------------


def record_reference(name: str, spec: dict) -> dict:
    """Run one operation of a workload and return its outputs as the reference."""
    WORK_DIR.mkdir(exist_ok=True)
    job = {"workload": name, "spec": spec, "seed": 0, "seconds": 0, "mode": "record", "work_dir": str(WORK_DIR)}
    events = run_child(job, time.monotonic() + 600)
    result = events["result"]
    op = result["ops"][0]
    if "error" in op:
        raise BenchError(f"{name}: {op['error']}")
    out = {**events["ready"]["outputs"], **op["outputs"]}
    if out["partition_sha256"] != result["orders"]["0"]["partition_sha256"]:
        raise BenchError(f"{name}: re-clustered partition disagrees with the run's own")
    return {
        "data_sha256": out["data_sha256"],
        "kernel_sha256": out["kernel_sha256"],
        "loss_trace": out["loss_trace"],
        "dra_mean": out["dra_mean"],
        "per_id": out["per_id"],
        "orders": result["orders"],
        "recorded_on": result["provenance"],
    }


def record(names) -> None:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        refs[name] = record_reference(name, WORKLOADS[name])
        print(f"recorded {name}: loss {refs[name]['loss_trace'][-1]:.6f}, dra_mean {refs[name]['dra_mean']:.4f}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite references.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mkdmts" / "__init__.py").is_file():
        print(f"mkdmts sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record([args.workload] if args.workload else sorted(WORKLOADS))
            return 0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m for m in declared["per_layer" if args.trace else "end_to_end"]}
        refs = json.loads(REFERENCES.read_text())
        for name in [args.workload] if args.workload else list(WORKLOADS):
            run = run_benchmark(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), refs[name])
            print(json.dumps(report(run, declared)), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
