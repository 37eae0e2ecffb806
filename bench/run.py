#!/usr/bin/env python3
"""drotree benchmark: one workload, one run.

    python3 bench/run.py --workload oracle-water --seed 1 --seconds 10 --trace 0

Run from the root of a drotree checkout; drotree is imported from ./src.
The run sets up SETUP_REPEATS times, then measures whole rounds until at
least --seconds have passed and at least MIN_OPS ops (or the workload's
own min_ops) have run, checking every op's output. With --trace 0 it
prints the end-to-end metrics. With --trace 1 it runs round 0 once
untraced and once traced, prints the per-layer metrics and writes the
spans to .bench_out/. The last line of standard output is the result; the
line before it holds the details and the environment. See bench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
MIN_OPS = 30  # so the tail percentile, ten ops from the top, is p66 or above
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
    "op_tail_s": "s", "peak_rss_mib": "MiB", "extensive_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k)
                for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND ops beyond it
    (nearest rank), and that percentile."""
    lat = sorted(latencies)
    n = len(lat)
    pct = max(0, 100 * (n - TAIL_BEYOND) // n)
    rank = max(1, -(-pct * n // 100))
    return lat[rank - 1], pct


def end_to_end(setup_s, rounds) -> tuple[dict, dict]:
    wall = sum(r.wall_s for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    latencies = [s for r in rounds for s in r.op_s]
    tail_s, pct = tail(latencies)
    values = {
        "setup_s": setup_s,
        "wall_s": wall / len(rounds),
        "ops_per_s": attempted / wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "extensive_s": sum(r.extensive_s for r in rounds) / len(rounds),
    }
    details = {"op_samples": len(latencies), "op_tail_percentile": pct}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}, details


def run_round(wl, inputs, tracer=None):
    from workloads import Round

    rnd = Round(tracer)
    t0 = time.perf_counter()
    wl.run(inputs, rnd)
    rnd.wall_s = time.perf_counter() - t0 - rnd.check_s
    return rnd


def measure(cls, seed: int, seconds: float, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(seed)
        wl.setup()
        inputs = wl.prepare(0)
        setups.append(time.perf_counter() - t0)
    min_ops = getattr(cls, "min_ops", MIN_OPS)
    rounds = []
    while True:
        rounds.append(run_round(wl, inputs))
        elapsed = sum(r.wall_s for r in rounds)
        if elapsed >= seconds and sum(r.attempted for r in rounds) >= min_ops:
            break
        inputs = wl.prepare(len(rounds))
    metrics, details = end_to_end(import_s + statistics.median(setups),
                                  rounds)
    details.update(rounds=len(rounds), setup_repeats_s=setups,
                   import_s=import_s)
    return rounds, metrics, details


def measure_traced(cls, seed: int, header: dict):
    from tracing import Tracer, UNITS

    wl = cls(seed)
    wl.setup()
    plain = run_round(wl, wl.prepare(0))
    tracer = Tracer()
    tracer.install()
    try:
        wl = cls(seed)
        wl.setup()
        inputs = wl.prepare(0)
        tracer.phase = "round"
        traced = run_round(wl, inputs, tracer)
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{cls.name}-s{seed}.json")
    tracer.write(path, dict(header, metrics=values))
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    details = {"rounds": 1, "spans": len(tracer.spans), "trace_file": path,
               "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
    return [plain, traced], metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drotree", "__init__.py")):
        print(f"error: no drotree sources under {SRC}; run from the root "
              "of a drotree checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    import_s = time.perf_counter() - T_START
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment()}
    if args.trace:
        rounds, metrics, details = measure_traced(cls, args.seed, header)
    else:
        rounds, metrics, details = measure(cls, args.seed, args.seconds,
                                           import_s)
    attempted = sum(r.attempted for r in rounds)
    failures = [msg for r in rounds for _, msg in sorted(r.failures.items())]
    details.update(header, attempted=attempted, failed=len(failures),
                   fail_frac=len(failures) / attempted,
                   failures=failures[:20])
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
