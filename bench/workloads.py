"""The three benchmark workloads.

Each workload is a closed loop with one client and one operation (op) at a
time, calling drotree's public functions in-process. A run is a sequence of
rounds. Round r's inputs come only from (seed, r), so the same seed gives
the same inputs. Every op's output is checked; an exception or a failed
check counts the op as failed.

Calls into drotree go through module attributes (`solver.solve_extensive`,
not a name imported from drotree.solver), so that the wrappers the traced
run rebinds are the ones called.
"""

from __future__ import annotations

import json
import os
import time

from drotree import effectiveness, gen, oracle, solver
from drotree import tree as treemod

import scaletree

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# the paper's water analog, as `drotree gen --water 0 --gamma 0.95`
WATER_SEED = 0
WATER_GAMMA = 0.95

REL_REF = 1e-9      # objectives against the recorded reference
REL_SOLVERS = 1e-6  # extensive against Benders (acceptance criterion 2)
GAP_TOL = 1e-6      # Benders gap (acceptance criterion 2)

SWEEP_STEP = 0.01   # the reference grid; a round picks 11 of its points
SWEEP_POINTS = 11
ORACLE_SHARE = 8    # a round checks one label in eight of each group


def label_code(label: str) -> str:
    return label[0]  # Effective, Ineffective, Unidentified


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


def round_rng(seed: int, r: int) -> gen.SplitMix64:
    return gen.SplitMix64((seed << 20) + r)


def sample(rng: gen.SplitMix64, seq: list, k: int) -> list:
    """k distinct entries of seq by a partial Fisher-Yates shuffle, in
    their order in seq."""
    idx = list(range(len(seq)))
    for i in range(k):
        j = rng.randint(i, len(idx) - 1)
        idx[i], idx[j] = idx[j], idx[i]
    return [seq[i] for i in sorted(idx[:k])]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def water_tree():
    return gen.gen_water_analog(WATER_SEED, WATER_GAMMA)


def oracle_items(tree, cond, paths) -> list[tuple[str, str, str]]:
    """(kind, id, label) of every identified label, in the order
    `drotree classify --oracle` checks them."""
    items = [("cond", nid, cl.label) for nid, cl in cond.items()
             if cl.label != effectiveness.UNIDENTIFIED]
    items += [("path", p.leaf, p.label) for p in paths
              if p.label != effectiveness.UNIDENTIFIED]
    return items


def assess(tree, kind: str, nid: str, base):
    """One oracle assessment, as `drotree classify --oracle` runs it."""
    if kind == "cond":
        removal = oracle.RemovalSet(oracle.REALIZATIONS, frozenset({nid}))
        return oracle.assess_realizations(tree, removal, base)[
            tree.parent(nid)]
    removal = oracle.RemovalSet(oracle.PATHS, frozenset({nid}))
    return oracle.assess_paths(tree, removal, base)


def sweep_point(tree, gamma: float, rnd):
    """One `drotree sweep` grid point: (extensive outcome, path label
    codes)."""
    t = treemod.with_uniform_gamma(tree, gamma)
    ext = rnd.extensive(t)
    labels = "".join(label_code(p.label)
                     for p in effectiveness.classify_paths(t, ext))
    return ext, labels


def warm_up() -> None:
    """Both solvers on a 7-node tree, so first-call costs fall in set-up."""
    small = gen.gen_random(0, T=3, branching=2)
    solver.solve_extensive(small)
    solver.solve_benders(small)


class Round:
    """Op latencies, extensive-solve seconds and failures of one round.
    Output checks are neither timed (check_s is taken off the round's wall
    time) nor traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_s: list[float] = []
        self.attempted = 0
        self.failures: dict[int, str] = {}  # op index -> first problem
        self.extensive_s = 0.0
        self.check_s = 0.0
        self.wall_s = 0.0

    def extensive(self, tree):
        """solve_extensive, timed into extensive_s."""
        t0 = time.perf_counter()
        try:
            return solver.solve_extensive(tree)
        finally:
            self.extensive_s += time.perf_counter() - t0

    def fail(self, i: int, problem: str) -> None:
        self.failures.setdefault(i, problem)

    def check(self, fn, *args):
        """Run an output check outside the timings and the trace."""
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.phase = "check"
        try:
            return fn(*args)
        finally:
            if self.tracer is not None:
                self.tracer.phase = "round"
            self.check_s += time.perf_counter() - t0

    def op(self, label: str, fn, check):
        """Run and check one op. Returns its output, or None if it raised."""
        i = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing op is counted, the run goes on
            self.op_s.append(time.perf_counter() - t0)
            self.fail(i, f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.op = -1
        self.op_s.append(time.perf_counter() - t0)
        problem = self.check(check, out)
        if problem:
            self.fail(i, f"{label}: {problem}")
        return out

    def fail_unrun(self, n: int, problem: str) -> None:
        """Count n ops that cannot run because a step before them failed."""
        for _ in range(n):
            self.fail(self.attempted, problem)
            self.attempted += 1


class OracleWater:
    """`drotree classify --oracle` on the water analog: solve, classify,
    then one assessment (the op) per sampled identified label. Oracle
    bound: each path assessment is a full extensive solve with removals."""

    name = "oracle-water"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.ref = load_reference()["oracle"]
        self.tree = water_tree()
        warm_up()

    def prepare(self, r: int) -> list[list]:
        """One label in ORACLE_SHARE of each group (paths, stage-2 and
        stage-3 realizations), so every round keeps the full check's
        proportions."""
        rng = round_rng(self.seed, r)
        groups: dict[tuple, list] = {}
        for item in self.ref["items"]:
            kind, nid = item[0], item[1]
            key = (kind, self.tree.node(nid).stage)
            groups.setdefault(key, []).append(item)
        picked = []
        for key in sorted(groups):
            members = groups[key]
            picked += sample(rng, members, len(members) // ORACLE_SHARE)
        order = {tuple(item[:2]): i for i, item in enumerate(self.ref["items"])}
        return sorted(picked, key=lambda item: order[tuple(item[:2])])

    def run(self, items: list[list], rnd: Round) -> None:
        tree = self.tree
        try:
            base = rnd.extensive(tree)
            effectiveness.classification_report(tree, base)
            cond = effectiveness.classify_tree(tree, base)
            paths = effectiveness.classify_paths(tree, base, None, cond)
        except Exception as exc:  # counted against every op of the round
            rnd.fail_unrun(len(items), f"baseline: {type(exc).__name__}: {exc}")
            return
        problem = rnd.check(self._baseline_problem, base, cond, paths)
        if problem:
            rnd.fail_unrun(len(items), f"baseline: {problem}")
            return
        for item in items:
            kind, nid = item[0], item[1]
            rnd.op(f"{kind} {nid}", lambda: assess(tree, kind, nid, base),
                   lambda res: self._verdict_problem(res, item))

    def _baseline_problem(self, base, cond, paths) -> str | None:
        ref = self.ref
        err = rel_err(base.objective, ref["objective"])
        if err > REL_REF:
            return f"objective off the reference by {err:.3g}"
        got = {nid: label_code(cl.label) for nid, cl in cond.items()}
        if got != ref["cond_labels"]:
            return "realization labels differ from the reference"
        got = {p.leaf: label_code(p.label) for p in paths}
        if got != ref["path_labels"]:
            return "path labels differ from the reference"
        got = [list(i) for i in oracle_items(self.tree, cond, paths)]
        if got != [i[:3] for i in ref["items"]]:
            return "identified labels differ from the reference"
        return None

    @staticmethod
    def _verdict_problem(res, item) -> str | None:
        _, _, label, verdict, value, infeasible, borderline = item
        if res.verdict != label:
            return f"oracle verdict {res.verdict} disagrees with label {label}"
        if res.verdict != verdict:
            return f"verdict {res.verdict} differs from reference {verdict}"
        if (res.infeasible, res.borderline) != (infeasible, borderline):
            return "infeasible or borderline flag differs from the reference"
        if not infeasible and rel_err(res.value, value) > REL_REF:
            return f"value {res.value!r} differs from reference {value!r}"
        return None


class SweepWater:
    """`drotree sweep` on the water analog: per grid point (the op),
    re-gamma, extensive solve and path labels. Never touches the oracle,
    removals or Benders."""

    name = "sweep-water"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.ref = load_reference()["sweep"]
        self.tree = water_tree()
        warm_up()

    def prepare(self, r: int) -> list[int]:
        """One point from each of 11 equal slices of the reference grid,
        ascending, so each round spans gamma in [0, 1] like an 11-point
        sweep."""
        rng = round_rng(self.seed, r)
        n = len(self.ref["points"])
        cuts = [k * n // SWEEP_POINTS for k in range(SWEEP_POINTS + 1)]
        return [rng.randint(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:])]

    def run(self, grid: list[int], rnd: Round) -> None:
        prev = None
        for k in grid:
            ref = self.ref["points"][k]
            out = rnd.op(f"gamma {ref['gamma']}",
                         lambda: sweep_point(self.tree, ref["gamma"], rnd),
                         lambda res: self._point_problem(res, ref))
            if out is None:
                continue
            objective = out[0].objective
            if prev is not None and objective < prev - REL_REF * max(1.0, abs(prev)):
                rnd.fail(rnd.attempted - 1,
                         f"gamma {ref['gamma']}: objective decreased from "
                         f"{prev!r} to {objective!r}")
            prev = objective

    @staticmethod
    def _point_problem(res, ref) -> str | None:
        ext, labels = res
        err = rel_err(ext.objective, ref["objective"])
        if err > REL_REF:
            return f"objective off the reference by {err:.3g}"
        if labels != ref["path_labels"]:
            return "path labels differ from the reference"
        return None


class SolveScale:
    """`drotree solve --solver both` on trees past gen_random's caps. A
    round solves a mid-size tree with both solvers (one large dense root
    LP, kernel bound) and large trees with Benders only (about a thousand
    LPs under 20 rows each, bound by the cost of each call). The op is one
    solve."""

    name = "solve-scale"

    MID = (3, 8)     # 73 nodes, a 363-row extensive root LP
    LARGE = (3, 20)  # 421 nodes; most converge in two Benders passes
    N_LARGE = 3
    # 16 rounds: more than ten extensive solves in every run, so the tail
    # op (ten ops beyond it) is an extensive solve and not whichever
    # Benders tree needed the most passes; the median op is a Benders
    # solve of a large tree
    min_ops = 16 * (2 + N_LARGE)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        warm_up()

    def prepare(self, r: int):
        rng = round_rng(self.seed, r)
        mid = scaletree.gen_scale(rng.next_u64(), *self.MID)
        large = [scaletree.gen_scale(rng.next_u64(), *self.LARGE)
                 for _ in range(self.N_LARGE)]
        return mid, large

    def run(self, inputs, rnd: Round) -> None:
        mid, large = inputs
        ext = rnd.op(f"extensive {mid.name}",
                     lambda: rnd.extensive(mid),
                     lambda out: self._extensive_problem(mid, out))
        for t in [mid] + large:
            rnd.op(f"benders {t.name}",
                   lambda: solver.solve_benders(t),
                   lambda out: self._benders_problem(
                       t, out, ext if t is mid else None))

    @staticmethod
    def _extensive_problem(tree, out) -> str | None:
        err = rel_err(out.q_values[tree.root()], out.objective)
        if err > REL_REF:
            return f"policy value off the LP objective by {err:.3g}"
        return None

    @staticmethod
    def _benders_problem(tree, out, ext) -> str | None:
        """The gap, agreement with the extensive objective when there is
        one, and a re-evaluation of the policy with its feasibility
        checked."""
        if out.gap > GAP_TOL:
            return f"Benders gap {out.gap:.3g} above {GAP_TOL:g}"
        if ext is not None:
            err = rel_err(out.objective, ext.objective)
            if err > REL_SOLVERS:
                return f"extensive and Benders objectives differ by {err:.3g}"
        value = solver.evaluate_policy(tree, out.policy)[tree.root()]
        err = rel_err(value, out.objective)
        if err > REL_REF:
            return f"re-evaluated policy value off by {err:.3g}"
        return None


WORKLOADS = {w.name: w for w in (OracleWater, SweepWater, SolveScale)}
