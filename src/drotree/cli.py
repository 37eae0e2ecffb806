"""Command-line front end: solve, classify, assess, sweep, gen.

All file outputs are deterministic: dict keys are emitted in a fixed
order and floats are printed with 17 significant digits, so identical
inputs and flags give byte-identical artifacts. Values that are +inf in
Python (infeasible assessments) are written as null next to an
"infeasible": true flag, since JSON has no Infinity.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .effectiveness import (
    EFFECTIVE,
    INEFFECTIVE,
    UNIDENTIFIED,
    classification_report,
    classify_paths,
    classify_tree,
    sweep_point,
    to_dot,
)
from .errors import (DrotreeError, InstanceInfeasible, InstanceUnbounded,
                     NumericalBreakdown, ParseError)
from .gen import gen_random, gen_water_analog
from .lp import write_cplex_lp
from .oracle import (
    PATHS,
    REALIZATIONS,
    RemovalSet,
    assess_paths,
    assess_realizations,
    assessment_json,
    check_labels,
    identified_labels,
)
from .solver import build_extensive, solve_benders, solve_extensive
from .tree import load_instance, to_dict

USAGE_ERROR = 2
INSTANCE_ERROR = 3
DISAGREEMENT_ERROR = 4
NUMERICAL_ERROR = 5

MAX_GRID_POINTS = 100_000   # largest `sweep --gamma` grid


# ---------------------------------------------------------------- output

def format_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("non-finite float reached the writer; map to null first")
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with a fixed float format and insertion-order
    keys, so outputs are reproducible byte for byte."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {dump_json(str(k))}: {dump_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        inner = ",\n".join(f"{pad}  {dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _floats(seq) -> list[float]:
    return [float(v) for v in seq]


# ---------------------------------------------------------------- solve

def _outcome_json(tree, out) -> dict:
    order = [n.id for n in tree.nodes]
    return {
        "instance": tree.name,
        "solver": out.solver,
        "objective": out.objective,
        "gap": out.gap,
        "passes": out.passes,
        "gamma": _floats(tree.gamma),
        "policy": {nid: _floats(out.policy[nid]) for nid in order},
        "q_values": {nid: out.q_values[nid] for nid in order},
        "worst_case": {nid: _floats(out.worst_case[nid])
                       for nid in order if nid in out.worst_case},
    }


def _benders(tree, tol):
    """solve_benders, with one stderr line when it stops above tol."""
    out = solve_benders(tree, tol=tol)
    if out.gap > tol:
        print(f"warning: benders stopped after {out.passes} passes with "
              f"gap {format_float(out.gap)} above tol {format_float(tol)}",
              file=sys.stderr)
    return out


def _cmd_solve(args) -> int:
    tree = load_instance(args.instance)
    if args.dump_lp:
        lp, _ = build_extensive(tree)
        with open(args.dump_lp, "w") as fh:
            fh.write(write_cplex_lp(lp))
    if args.solver == "both":
        ext = solve_extensive(tree)
        ben = _benders(tree, args.tol)
        rel = abs(ext.objective - ben.objective) / max(1.0, abs(ext.objective))
        blob = _outcome_json(tree, ext)
        blob["cross_check"] = {
            "extensive": ext.objective,
            "benders": ben.objective,
            "rel_diff": rel,
            "benders_gap": ben.gap,
            "benders_passes": ben.passes,
        }
        print(f"extensive {format_float(ext.objective)}  "
              f"benders {format_float(ben.objective)}  "
              f"rel_diff {format_float(rel)}", file=sys.stderr)
    else:
        out = (solve_extensive(tree) if args.solver == "extensive"
               else _benders(tree, args.tol))
        blob = _outcome_json(tree, out)
    _emit(dump_json(blob) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- workers

def _chunks(seq, n):
    """Deal seq out to at most n workers in strides, so a run of costly
    neighbouring items is shared out; _merge undoes it."""
    return [seq[k::n] for k in range(min(n, len(seq)))]


def _merge(parts):
    """Inverse of _chunks: item i is entry i // n of part i % n."""
    parts = list(parts)
    n = len(parts)
    return [parts[i % n][i // n] for i in range(sum(map(len, parts)))]


def _map_items(fn, tree, items, jobs):
    """fn(tree, items), which returns one entry per item. With more than
    one worker (at most jobs, the item count and the cpu count), the
    items are dealt out to worker processes, which each get the parent's
    tree."""
    n = min(jobs, len(items), os.cpu_count() or 1)
    if n <= 1:
        return fn(tree, items)
    with ProcessPoolExecutor(max_workers=n) as pool:
        return _merge(pool.map(functools.partial(fn, tree),
                               _chunks(items, n)))


# ---------------------------------------------------------------- classify

def _cmd_classify(args) -> int:
    tree = load_instance(args.instance)
    out = solve_extensive(tree)
    cond = classify_tree(tree, out, args.c2_rule)
    paths = classify_paths(tree, out, args.c2_rule, cond)
    rep = classification_report(tree, out, args.c2_rule, cond, paths)

    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(tree, cond))

    disagreements = 0
    if args.oracle:
        records = check_labels(tree, out, identified_labels(cond, paths))
        disagreements = sum(1 for r in records if not r["agree"])
        rep["oracle"] = {
            "n_checked": len(records),
            "n_disagreements": disagreements,
            "disagreements": [r for r in records if not r["agree"]],
        }

    _emit(dump_json(rep) + "\n", args.out)
    s = rep["summary"]
    print(f"paths: {s['n_effective_paths']} effective, "
          f"{s['n_ineffective']} ineffective, "
          f"{s['n_unidentified']} unidentified", file=sys.stderr)
    if args.oracle:
        print(f"oracle: {rep['oracle']['n_checked']} checked, "
              f"{disagreements} disagreements", file=sys.stderr)
        if args.strict and disagreements:
            return DISAGREEMENT_ERROR
    return 0


# ---------------------------------------------------------------- assess

def _id_set(flag: str, spec: str) -> frozenset:
    ids = spec.split(",")
    if "" in ids:
        raise ParseError(f"bad {flag} {spec!r}; expected comma-separated "
                         "node ids")
    return frozenset(ids)


def _cmd_assess(args) -> int:
    tree = load_instance(args.instance)
    results = []
    if args.paths is not None:
        removal = RemovalSet(PATHS, _id_set("--paths", args.paths))
        res = assess_paths(tree, removal)
        baseline = res.baseline
        results.append(assessment_json(removal, res))
    else:
        removal = RemovalSet(REALIZATIONS,
                             _id_set("--realizations", args.realizations))
        out = solve_extensive(tree)
        baseline = out.objective
        results = [assessment_json(removal, res) for res in
                   assess_realizations(tree, removal, out).values()]
    blob = {"instance": tree.name, "baseline": baseline,
            "results": results}
    _emit(dump_json(blob) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- sweep

def _parse_grid(spec: str) -> list[float]:
    try:
        a, b, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise ParseError(f"bad --gamma grid {spec!r}; expected a:b:step")
    if not all(map(math.isfinite, (a, b, step))):
        raise ParseError(f"bad --gamma grid {spec!r}; a, b and step must be "
                         "finite")
    if step <= 0 or b < a:
        raise ParseError(f"bad --gamma grid {spec!r}; need step > 0 and b >= a")
    if a < 0.0 or b > 1.0:
        raise ParseError(f"bad --gamma grid {spec!r}; must stay inside [0, 1]")
    if (b - a) / step + 1 > MAX_GRID_POINTS:
        raise ParseError(f"bad --gamma grid {spec!r}; more than "
                         f"{MAX_GRID_POINTS} points")
    pts, i = [], 0
    while True:
        g = round(a + i * step, 12)
        if g > b + 1e-12:
            break
        pts.append(min(g, 1.0))
        i += 1
    return pts


def _sweep_rows(tree, gammas) -> list[str]:
    """One CSV row per grid point: gamma, objective and the path-label
    tally."""
    rows = []
    for g in gammas:
        out, paths = sweep_point(tree, g)
        labels = [p.label for p in paths]
        rows.append(",".join([format_float(g), format_float(out.objective)]
                             + [str(labels.count(lab)) for lab in
                                (EFFECTIVE, INEFFECTIVE, UNIDENTIFIED)]))
    return rows


def _cmd_sweep(args) -> int:
    tree = load_instance(args.instance)
    grid = _parse_grid(args.gamma)
    rows = _map_items(_sweep_rows, tree, grid, _resolve_jobs(args.jobs))
    header = "gamma,objective,n_effective_paths,n_ineffective,n_unidentified"
    _emit("\n".join([header, *rows]) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- gen

def _cmd_gen(args) -> int:
    kwargs = {} if args.gamma is None else {"gamma": args.gamma}
    if args.random:
        try:
            seed, t, branch = (int(tok) for tok in args.random.split(","))
        except ValueError:
            raise ParseError(
                f"bad --random spec {args.random!r}; expected seed,T,branch")
        tree = gen_random(seed=seed, T=t, branching=branch, **kwargs)
    else:
        try:
            seed = int(args.water)
        except ValueError:
            raise ParseError(f"bad --water seed {args.water!r}")
        tree = gen_water_analog(seed=seed, **kwargs)
    _emit(dump_json(to_dict(tree)) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- wiring

def _resolve_jobs(value) -> int:
    """Worker processes: --jobs, else DROTREE_JOBS, else the cpu count.
    A count below 1 is an input error."""
    what = f"--jobs {value}"
    if value is None:
        env = os.environ.get("DROTREE_JOBS", "").strip()
        if not env:
            return os.cpu_count() or 1
        what = f"DROTREE_JOBS value {env!r}"
        try:
            value = int(env)
        except ValueError:
            value = 0
    if value < 1:
        raise ParseError(f"bad {what}; expected an integer >= 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="drotree",
        description="Robust scenario-tree solve and scenario effectiveness "
                    "analysis.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one instance")
    sp.add_argument("instance")
    sp.add_argument("--solver", choices=["extensive", "benders", "both"],
                    default="extensive")
    sp.add_argument("--tol", type=_positive_float, default=1e-6,
                    help="benders stopping gap")
    sp.add_argument("--out", help="write solution JSON here (default stdout)")
    sp.add_argument("--dump-lp", help="also write the extensive LP in "
                                      "CPLEX LP format")
    sp.set_defaults(func=_cmd_solve)

    cp = sub.add_parser("classify", help="label realizations and paths")
    cp.add_argument("instance")
    cp.add_argument("--oracle", action="store_true",
                    help="re-check every identified label by re-solving")
    cp.add_argument("--strict", action="store_true",
                    help="exit 4 when the oracle disagrees")
    cp.add_argument("--c2-rule", dest="c2_rule",
                    choices=["c1_plus_c2", "c2_only"], default="c1_plus_c2",
                    help="mass rule for children sitting exactly at the "
                         "quantile (default c1_plus_c2)")
    cp.add_argument("--out", help="write report JSON here (default stdout)")
    cp.add_argument("--dot", help="write a graphviz rendering here")
    cp.set_defaults(func=_cmd_classify)

    ap = sub.add_parser("assess", help="re-solve with removals")
    ap.add_argument("instance")
    g = ap.add_mutually_exclusive_group(required=True)
    g.add_argument("--paths", help="comma-separated leaf ids to remove")
    g.add_argument("--realizations",
                   help="comma-separated same-stage node ids to remove")
    ap.add_argument("--out", help="write assessment JSON here (default stdout)")
    ap.set_defaults(func=_cmd_assess)

    wp = sub.add_parser("sweep", help="solve across a gamma grid")
    wp.add_argument("instance")
    wp.add_argument("--gamma", required=True,
                    help="grid a:b:step, applied uniformly to all stages")
    wp.add_argument("--out", help="write CSV here (default stdout)")
    wp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: DROTREE_JOBS or cpu count)")
    wp.set_defaults(func=_cmd_sweep)

    gp = sub.add_parser("gen", help="write a generated instance")
    gg = gp.add_mutually_exclusive_group(required=True)
    gg.add_argument("--random", help="seed,T,branch")
    gg.add_argument("--water", help="seed")
    gp.add_argument("--gamma", type=float, default=None,
                    help="uniform radius for the generated instance")
    gp.add_argument("--out", help="write instance JSON here (default stdout)")
    gp.set_defaults(func=_cmd_gen)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow or nan in the arithmetic is reported once, as the
        # NumericalBreakdown the solvers raise, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (InstanceInfeasible, InstanceUnbounded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INSTANCE_ERROR
    except NumericalBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (OSError, DrotreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
