#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of drotree).

    python3 bench/selftest.py

Run from the root of a drotree checkout; it takes about three minutes.
Checks that
  1. a fixed seed gives identical generated instances, oracle samples and
     sweep grids, and another seed gives other ones;
  2. every count metric of the traced run repeats exactly across two runs
     of each workload;
  3. the workload and metric names and units printed match BENCHMARK.json;
  4. without drotree's sources next to it the benchmark exits non-zero and
     prints no result.
Exits 0 when all hold and 1 otherwise, naming each failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from drotree import tree as treemod  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
TIMEOUT_S = 300


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inputs_of(cls, seed: int) -> str:
    """Everything round 0 and round 1 feed the program, serialized."""
    wl = cls(seed)
    wl.setup()
    out = []
    for r in (0, 1):
        inputs = wl.prepare(r)
        if cls is workloads.SolveScale:
            mid, large = inputs
            inputs = [treemod.to_dict(t) for t in [mid] + large]
        out.append(inputs)
    if hasattr(wl, "tree"):
        out.append(treemod.to_dict(wl.tree))
    return json.dumps(out, sort_keys=True)


def check_inputs(problems: list[str]) -> None:
    for name, cls in workloads.WORKLOADS.items():
        first = inputs_of(cls, SEED)
        if inputs_of(cls, SEED) != first:
            problems.append(f"{name}: seed {SEED} gave different inputs")
        if inputs_of(cls, SEED + 1) == first:
            problems.append(f"{name}: seeds {SEED} and {SEED + 1} gave "
                            "the same inputs")


def check_runs(problems: list[str]) -> None:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    deterministic = tracing.COUNTS + tracing.RATIOS

    for name in workloads.WORKLOADS:
        runs = [result_of(run_bench(name, 1)) for _ in range(2)]
        for res in runs:
            if not res["correct"]:
                problems.append(f"{name}: traced run not correct")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want_layer:
                problems.append(f"{name}: per-layer names or units differ "
                                "from BENCHMARK.json")
        for metric in deterministic:
            a, b = (r["metrics"][metric]["value"] for r in runs)
            if a != b:
                problems.append(f"{name}: {metric} did not repeat "
                                f"({a} then {b})")

    res = result_of(run_bench("oracle-water", 0))
    if not res["correct"]:
        problems.append("oracle-water: untraced run not correct")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want_e2e:
        problems.append("end-to-end names or units differ from BENCHMARK.json")


def check_bare_directory(problems: list[str]) -> None:
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench("oracle-water", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without drotree sources the benchmark did not "
                        "fail cleanly")


def main() -> int:
    problems: list[str] = []
    check_inputs(problems)
    check_bare_directory(problems)
    check_runs(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else
                          f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
