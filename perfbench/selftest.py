"""Self-test of the benchmark on shrunken workloads; finishes in well under a minute.

  python3 perfbench/selftest.py

Checks that:
  - every end-to-end metric is printed by name with its unit and lands in
    the final JSON, and error_rate is 0 against freshly recorded references;
  - a tampered reference digest marks every operation failed (error_rate 1);
  - a traced run reports every per-layer metric;
  - in a directory holding only BENCHMARK.json and perfbench/ the benchmark
    exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "tiny_experiment": {
        "kind": "experiment",
        "config": {
            "synth": {"seed": 3, "num_seen_classes": 2, "num_unseen_classes": 2, "dims": 2,
                      "length_range": [8, 10], "samples_per_class": 4},
            "bandwidth": 4.0,
            "train": {"k": 2, "t_x": 1, "t_a": 2, "t_beta": 1, "seed": 3},
        },
    },
    "tiny_stream": {
        "kind": "stream",
        "synth": {"seed": 3, "num_seen_classes": 2, "num_unseen_classes": 2, "dims": 2,
                  "length_range": [8, 10], "samples_per_class": 6},
        "seen_per_class": 3,
        "bandwidth": 4.0,
        "train": {"k": 2, "t_x": 1, "t_a": 2, "t_beta": 1, "seed": 3},
        "threshold": 0.1,
    },
}


def bench(name, ref, trace, declared):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.report(run.run_benchmark(name, TINY[name], 1, 0.5, trace, ref), declared)
    return buf.getvalue(), result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for name in TINY:
        ref = run.record_reference(name, TINY[name])
        text, result = bench(name, ref, False, e2e)
        lines = text.splitlines()
        for metric, m in e2e.items():
            printed = any(line.split()[:1] == [metric] and f" {m['unit']} " in f"{line} " for line in lines)
            expect(printed and result["metrics"].get(metric, {}).get("unit") == m["unit"],
                   f"{name}: {metric} printed with unit {m['unit']}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{name}: error_rate 0 against fresh references")

        tampered = copy.deepcopy(ref)
        tampered["kernel_sha256"][0] = "0" * 64
        text, result = bench(name, tampered, False, e2e)
        expect(not result["correct"] and result["failed"] == result["attempted"] > 0,
               f"{name}: tampered kernel digest counted in error_rate")
        expect("error_rate             1.0000" in text, f"{name}: error_rate printed as 1")

        text, result = bench(name, ref, True, layers)
        missing = sorted(set(layers) - set(result["metrics"]))
        expect(not missing, f"{name}: traced run reports every per-layer metric {missing or ''}")

    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without the program: exit code {proc.returncode}, no result printed")
    print("self-test passed" if not failures else f"self-test FAILED: {len(failures)} check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
