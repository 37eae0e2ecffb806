"""Spans around the calls into each drotree module, and the per-layer
metrics computed from them.

The traced run rebinds each public entry point below to a wrapper, in
every loaded drotree module that holds it (so `solve_lp` is wrapped in
drotree.lp, drotree.solver and drotree.tvrisk alike), and restores the
originals afterwards. A span is [name, start, end, parent, op, phase,
note]: parent is the index of the enclosing span or -1, op the index of
the op within its round or -1, phase "setup" or "round", and note what the
metrics need from the call's arguments or result. Spans stay in memory and
are written out at the end of the run. The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from drotree import effectiveness, lp, oracle, solver, tree, tvrisk

SMALL_LP_ROWS = 100  # "small" LPs: the Benders node problems


def _lp_note(args, result):
    prob = args[0]
    ok = result is not None and result.status == lp.OPTIMAL
    return [len(prob.rows), prob.n_vars, ok]


def _labels_note(args, result):
    labels = result.values() if isinstance(result, dict) else result
    labels = list(labels or ())
    found = sum(1 for x in labels if x.label != effectiveness.UNIDENTIFIED)
    return [found, len(labels)]


def _assess_note(args, result):
    results = result.values() if isinstance(result, dict) else [result]
    return [[r.infeasible, r.borderline] for r in results if r is not None]


def _passes_note(args, result):
    return None if result is None else result.passes


# span name, the module and attribute of the original, note
ENTRY_POINTS = [
    ("lp", lp, "solve_lp", _lp_note),
    ("solver.build", solver, "build_extensive", None),
    ("solver.extensive", solver, "solve_extensive", None),
    ("solver.benders", solver, "solve_benders", _passes_note),
    ("tvrisk.wce", tvrisk, "worst_case_expectation", None),
    ("tvrisk.restricted", tvrisk, "worst_case_expectation_restricted", None),
    ("effectiveness.report", effectiveness, "classification_report", None),
    ("effectiveness.tree", effectiveness, "classify_tree", _labels_note),
    ("effectiveness.paths", effectiveness, "classify_paths", _labels_note),
    ("oracle.paths", oracle, "assess_paths", _assess_note),
    ("oracle.realizations", oracle, "assess_realizations", _assess_note),
    ("tree.load", tree, "from_dict", None),
    ("tree.regamma", tree, "with_uniform_gamma", None),
]
METHODS = [("tree.node_lp", tree.ScenarioTree, "node_lp", None)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.phase = "setup"
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                   self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if note is not None:
                    rec[6] = note(args, result)
        return wrapper

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items()
                if k == "drotree" or k.startswith("drotree.")]
        for name, module, attr, note in ENTRY_POINTS:
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, note)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for name, cls, attr, note in METHODS:
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, note))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write(self, path: str, header: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7)] + s[3:]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(header, span_fields=[
                "name", "start_s", "end_s", "parent", "op", "phase", "note"],
                spans=rows), fh, separators=(",", ":"))
            fh.write("\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over the round's spans; tree.load.busy_s also
        covers the set-up, where instances are built."""
        spans = self.spans
        m = {name: 0 for name in COUNTS}
        m.update({name: 0.0 for name in TIMES})
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_s[s[3]] += s[2] - s[1]

        def under(i: int, prefix: str) -> bool:
            p = spans[i][3]
            while p >= 0:
                if spans[p][0].startswith(prefix):
                    return True
                p = spans[p][3]
            return False

        seen_first_lp = set()
        labels_found = labels_total = 0
        assessments = oracle_lps = 0
        for i, (name, start, end, parent, _, phase, note) in enumerate(spans):
            d = end - start
            if name == "tree.load":
                m["tree.load.busy_s"] += d
            if phase != "round":
                continue
            pname = spans[parent][0] if parent >= 0 else None
            if name == "lp":
                rows, nvars, ok = note
                m["lp.calls"] += 1
                m["lp.busy_s"] += d
                m["lp.rows_sum"] += rows
                m["lp.vars_sum"] += nvars
                m["lp.nonoptimal"] += 0 if ok else 1
                m["lp.max_rows"] = max(m["lp.max_rows"], rows)
                m["lp.max_vars"] = max(m["lp.max_vars"], nvars)
                m["lp.max_busy_s"] = max(m["lp.max_busy_s"], d)
                if rows < SMALL_LP_ROWS:
                    m["lp.small_calls"] += 1
                    m["lp.small_busy_s"] += d
                if pname == "solver.extensive":
                    if parent in seen_first_lp:
                        m["solver.extract.lp_calls"] += 1
                        m["solver.extract.busy_s"] += d
                    else:
                        seen_first_lp.add(parent)
                        m["solver.root_lp_s"] += d
                elif pname == "solver.benders":
                    m["solver.benders.lp_calls"] += 1
                    m["solver.benders.lp_busy_s"] += d
                elif pname == "tvrisk.restricted":
                    m["tvrisk.restricted.lp_calls"] += 1
                if under(i, "oracle."):
                    oracle_lps += 1
            elif name == "solver.build":
                m["solver.build.calls"] += 1
                m["solver.build.busy_s"] += d
            elif name == "solver.extensive":
                m["solver.extensive.calls"] += 1
                m["solver.extensive.self_s"] += d - child_s[i]
            elif name == "solver.benders":
                m["solver.benders.passes"] += note or 0
                m["solver.benders.busy_s"] += d
                m["solver.benders.self_s"] += d - child_s[i]
            elif name in ("tvrisk.wce", "tvrisk.restricted"):
                m[name + ".calls"] += 1
                m[name + ".busy_s"] += d
            elif name.startswith("effectiveness."):
                if not under(i, "effectiveness."):
                    m["effectiveness.busy_s"] += d
                if note is not None:
                    labels_found += note[0]
                    labels_total += note[1]
            elif name.startswith("oracle."):
                m[name + ".calls"] += 1
                m[name + ".busy_s"] += d
                for infeasible, borderline in note or ():
                    assessments += 1
                    m["oracle.infeasible"] += int(infeasible)
                    m["oracle.borderline"] += int(borderline)
            elif name in ("tree.regamma", "tree.node_lp"):
                m[name + ".calls"] += 1
                m[name + ".busy_s"] += d
        m["effectiveness.identified_frac"] = (
            labels_found / labels_total if labels_total else 0.0)
        m["oracle.lp_per_assessment"] = (
            oracle_lps / assessments if assessments else 0.0)
        m["oracle.useful_lp_frac"] = (
            assessments / oracle_lps if oracle_lps else 0.0)
        return m


# metric names; count metrics are deterministic and must repeat exactly
COUNTS = [
    "lp.calls", "lp.rows_sum", "lp.vars_sum", "lp.nonoptimal",
    "lp.max_rows", "lp.max_vars", "lp.small_calls",
    "solver.build.calls", "solver.extensive.calls",
    "solver.extract.lp_calls", "solver.benders.passes",
    "solver.benders.lp_calls", "tvrisk.wce.calls",
    "tvrisk.restricted.calls", "tvrisk.restricted.lp_calls",
    "oracle.paths.calls", "oracle.realizations.calls", "oracle.infeasible",
    "oracle.borderline", "tree.regamma.calls", "tree.node_lp.calls",
]
RATIOS = [
    "effectiveness.identified_frac", "oracle.lp_per_assessment",
    "oracle.useful_lp_frac",
]
TIMES = [
    "lp.busy_s", "lp.max_busy_s", "lp.small_busy_s", "solver.build.busy_s",
    "solver.extensive.self_s", "solver.root_lp_s", "solver.extract.busy_s",
    "solver.benders.busy_s", "solver.benders.lp_busy_s",
    "solver.benders.self_s", "tvrisk.wce.busy_s",
    "tvrisk.restricted.busy_s", "effectiveness.busy_s", "oracle.paths.busy_s",
    "oracle.realizations.busy_s", "tree.load.busy_s", "tree.regamma.busy_s",
    "tree.node_lp.busy_s",
]

UNITS = {name: "count" for name in COUNTS}
UNITS.update({name: "s" for name in TIMES})
UNITS.update({
    "lp.rows_sum": "rows", "lp.max_rows": "rows",
    "lp.vars_sum": "vars", "lp.max_vars": "vars",
    "effectiveness.identified_frac": "ratio",
    "oracle.lp_per_assessment": "lp/assessment",
    "oracle.useful_lp_frac": "ratio",
    "trace.overhead_s": "s",
})
