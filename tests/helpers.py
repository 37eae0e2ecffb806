"""Hand-built instances, LP and tree checks, and oracle checks shared by
several test modules."""

import math
from fractions import Fraction

import numpy as np

from drotree.effectiveness import EFFECTIVE, INEFFECTIVE
from drotree.errors import InvalidRemoval, StageOutOfRange
from drotree.lp import LinearProgram, LpSolution, _tableau
from drotree.oracle import PATHS, RemovalSet, assess_paths
from drotree.solver import SolveOutcome, _evaluate, solve_extensive
from drotree.tree import ScenarioTree, from_dict
from drotree.tvrisk import FiniteDist, worst_case_expectation


def residuals(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """Signed constraint violations, one entry per row (0 when satisfied)."""
    out = np.zeros(len(lp.rows))
    for i, row in enumerate(lp.rows):
        lhs = sum(a * x[j] for j, a in row.coefs.items())
        if row.sense == "<=":
            out[i] = max(0.0, lhs - row.rhs)
        elif row.sense == ">=":
            out[i] = max(0.0, row.rhs - lhs)
        else:
            out[i] = abs(lhs - row.rhs)
    return out


def duality_report(lp: LinearProgram, sol: LpSolution) -> dict:
    """Feasibility, complementary slackness and gap diagnostics at a
    solution: the check of the duals that solve_lp reads off its final
    tableau.

    The gap is computed against the Lagrangian bound b'y + sum of bound
    contributions from the reduced costs, which equals c'x at an exact
    vertex optimum.
    """
    x, y = sol.primal, sol.duals
    feas = float(residuals(lp, x).max()) if lp.rows else 0.0
    lo_ok = float(np.max(np.maximum(0.0, lp.lower - x), initial=0.0))
    hi_ok = float(np.max(np.maximum(0.0, x - lp.upper), initial=0.0))
    # reduced costs of the original variables
    red = lp.objective.astype(float).copy()
    for i, row in enumerate(lp.rows):
        for j, a in row.coefs.items():
            red[j] -= y[i] * a
    comp = 0.0
    bound_term = 0.0
    for j in range(lp.n_vars):
        if math.isfinite(lp.lower[j]) and red[j] > 0:
            comp = max(comp, red[j] * abs(x[j] - lp.lower[j]))
            bound_term += red[j] * lp.lower[j]
        elif math.isfinite(lp.upper[j]) and red[j] < 0:
            comp = max(comp, -red[j] * abs(lp.upper[j] - x[j]))
            bound_term += red[j] * lp.upper[j]
    slack_comp = 0.0
    for i, row in enumerate(lp.rows):
        lhs = sum(a * x[j] for j, a in row.coefs.items())
        slack_comp = max(slack_comp, abs(y[i] * (lhs - row.rhs)))
    dual_obj = float(np.dot(y, [r.rhs for r in lp.rows]) + bound_term)
    gap = abs(sol.objective_value - dual_obj)
    return {
        "feasibility": max(feas, lo_ok, hi_ok),
        "complementarity": max(comp, slack_comp),
        "gap": gap,
    }


def _exact_solve(rows, rhs) -> list:
    """Solve M z = rhs in Fractions; M is square, given as one {column:
    value} dict per row. Sparse elimination: each step pivots the live
    row with the fewest entries on its column with the fewest live rows
    (lowest index among ties), then back-substitutes."""
    rows, rhs = [dict(r) for r in rows], list(rhs)
    col_rows = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    live, order = set(range(len(rows))), []
    while live:
        i = min(live, key=lambda r: (len(rows[r]), r))
        assert rows[i], "singular basis"
        j = min(rows[i], key=lambda c: (len(col_rows[c]), c))
        live.remove(i)
        for c in rows[i]:
            col_rows[c].discard(i)
        for k in list(col_rows[j]):
            f = rows[k][j] / rows[i][j]
            for c, v in rows[i].items():
                new = rows[k].get(c, 0) - f * v
                if new:
                    rows[k][c] = new
                    col_rows[c].add(k)
                else:
                    rows[k].pop(c, None)
                    col_rows[c].discard(k)
            rhs[k] -= f * rhs[i]
        order.append((i, j))
    z = [None] * len(rows)
    for i, j in reversed(order):
        rest = sum((v * z[c] for c, v in rows[i].items() if c != j),
                   Fraction(0))
        z[j] = (rhs[i] - rest) / rows[i][j]
    return z


def exact_lp_certificate(lp: LinearProgram, sol: LpSolution) -> Fraction:
    """Check in exact arithmetic that sol.basis is an optimal basis of
    the starting tableau that solve_lp builds for `lp` (its float entries
    taken as exact), and return that LP's exact optimum in lp's terms.

    Solves B z = b and B'y = c_B in Fractions, then asserts primal
    feasibility (z >= 0, basic artificials at 0) and dual feasibility
    (reduced costs >= 0 on every column but the artificials)."""
    tab, _, cost, art, maps = _tableau(lp)[:5]
    a, basis = tab[:, :-1], sol.basis
    exact = {}   # (row, column) -> Fraction of every nonzero entry

    def col(k):
        return {int(i): exact.setdefault((int(i), k), Fraction(a[i, k]))
                for i in np.flatnonzero(a[:, k])}

    basic = [col(k) for k in basis]
    rows = [{} for _ in range(a.shape[0])]
    for pos, entries in enumerate(basic):
        for i, v in entries.items():
            rows[i][pos] = v
    z = _exact_solve(rows, [Fraction(b) for b in tab[:, -1]])
    assert all(v >= 0 for v in z), "primal infeasible basis"
    assert all(v == 0 for v, k in zip(z, basis) if art[k]), \
        "an artificial is basic at a nonzero level"
    y = _exact_solve(basic, [Fraction(cost[k]) for k in basis])
    for k in np.flatnonzero(~art):
        reduced = Fraction(cost[k]) - sum(
            (y[i] * v for i, v in col(int(k)).items()), Fraction(0))
        assert reduced >= 0, f"column {k} has reduced cost {reduced}"
    shift = sum((Fraction(lp.objective[j]) * Fraction(const)
                 for j, (const, _) in enumerate(maps)), Fraction(0))
    return sum((Fraction(cost[k]) * v for v, k in zip(z, basis)),
               Fraction(0)) + shift


def project(tree: ScenarioTree, node_id: str, t: int) -> str:
    """Ancestor of node_id at stage t (the node itself at its stage)."""
    nd = tree.node(node_id)
    if not 1 <= t <= nd.stage:
        raise StageOutOfRange(
            f"cannot project node {node_id!r} (stage {nd.stage}) "
            f"to stage {t}")
    while nd.stage > t:
        nd = tree.node(nd.parent)
    return nd.id


def path_probability(tree: ScenarioTree, leaf_id: str) -> float:
    p = 1.0
    for nid in tree.path(leaf_id)[1:]:
        p *= tree.node(nid).q_cond
    return p


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def worst_case_is_unique(dist: FiniteDist, gamma: float, removed=()) -> bool:
    """Whether the maximizer worst_case_expectation returns is the only
    one. It is not when gamma > 0 and kept children tie exactly at the
    sup (the added mass could go to any of them), nor when a partially
    drained child has a kept sibling of exactly its value with mass left,
    which could have been drained instead."""
    h, q = dist.values, dist.probs
    p = worst_case_expectation(dist, gamma, removed).dist
    kept = np.ones(dist.n, dtype=bool)
    kept[list(removed)] = False
    drainable = kept & (h < h[kept].max())
    if gamma > 0.0 and int((kept & ~drainable).sum()) > 1:
        return False
    for i in np.flatnonzero(drainable & (p > 1e-15) & (q - p > 1e-15)):
        if int((drainable & (h == h[i]) & (q > 0)).sum()) > 1:
            return False
    return True


def leaf_value_tree(values, q=None, gamma=0.5, root_cost=0.0, name="toy"):
    """Two-stage tree whose leaf subproblems have fixed optimal values.

    Root: one costless decision (cost root_cost), no rows. Leaf k: one
    variable with unit cost forced above xi['d'] = values[k]. The total
    worst case is then root_cost*0 + worst_case(values) plus nothing else,
    which makes risk arithmetic checkable by hand.
    """
    n = len(values)
    if q is None:
        q = [1.0 / n] * n
    nodes = [{"id": "r", "stage": 1, "parent": None, "q": 1.0, "xi": {}}]
    for k, (v, p) in enumerate(zip(values, q)):
        nodes.append({"id": f"l{k}", "stage": 2, "parent": "r", "q": p,
                      "xi": {"d": float(v)}})
    return from_dict({
        "name": name,
        "stages": 2,
        "gamma": [gamma],
        "nodes": nodes,
        "stage_templates": [
            {"n_vars": 1, "cost": [root_cost], "rows": []},
            {"n_vars": 1, "cost": [1.0],
             "rows": [{"self": {"0": 1.0}, "link": {},
                       "sense": ">=", "rhs": {"xi": "d"}}]},
        ],
    })


def newsvendor_tree(gamma=0.0, shortage=1.5):
    """Order x at unit cost 1, then pay `shortage` per unit of unmet
    demand. Demand is 1 or 3, equally likely. With shortage 1.5 the
    optimal order moves from 1 (risk neutral, value 2.5) to 3 (radius
    at least 1/6, value 3.0); at radius g below 1/6 the value is
    2.5 + 3g with order 1."""
    return from_dict({
        "name": "newsvendor",
        "stages": 2,
        "gamma": [gamma],
        "nodes": [
            {"id": "r", "stage": 1, "parent": None, "q": 1.0, "xi": {}},
            {"id": "lo", "stage": 2, "parent": "r", "q": 0.5, "xi": {"d": 1.0}},
            {"id": "hi", "stage": 2, "parent": "r", "q": 0.5, "xi": {"d": 3.0}},
        ],
        "stage_templates": [
            {"n_vars": 1, "cost": [1.0], "rows": []},
            # shortage variable y >= d - x
            {"n_vars": 1, "cost": [shortage],
             "rows": [{"self": {"0": 1.0}, "link": {"0": 1.0},
                       "sense": ">=", "rhs": {"xi": "d"}}]},
        ],
    })


def chain_tree(depth=3, gamma=0.5):
    """Deterministic tree: one child per stage, so every risk functional
    collapses and the optimum equals a single-path LP."""
    nodes = [{"id": "n1", "stage": 1, "parent": None, "q": 1.0, "xi": {}}]
    for t in range(2, depth + 1):
        nodes.append({"id": f"n{t}", "stage": t, "parent": f"n{t - 1}",
                      "q": 1.0, "xi": {"d": float(t)}})
    templates = [{"n_vars": 1, "cost": [1.0],
                  "rows": [{"self": {"0": 1.0}, "link": {},
                            "sense": ">=", "rhs": 1.0}]}]
    for _ in range(depth - 1):
        templates.append({"n_vars": 1, "cost": [1.0],
                          "rows": [{"self": {"0": 1.0}, "link": {"0": 0.5},
                                    "sense": ">=", "rhs": {"xi": "d"}}]})
    return from_dict({
        "name": "chain",
        "stages": depth,
        "gamma": [gamma] * (depth - 1),
        "nodes": nodes,
        "stage_templates": templates,
    })


def steep_link_tree(scale):
    """Two-stage tree whose leaf costs-to-go reach about -3 * scale.

    Root: x in [0, 1] at no cost, no rows. Leaves d = 1 and 2, mass 0.5
    each, radius 0.5: one free variable y with unit cost and the row
    y + scale * x >= -scale * d. The optimum is -2 * scale at x = 1, so
    Benders' -1e8 theta floor is valid at scale 1e6 and cuts the
    cost-to-go off at scale 1e9.
    """
    nodes = [{"id": "r", "stage": 1, "parent": None, "q": 1.0, "xi": {}}]
    for k, d in enumerate((1.0, 2.0)):
        nodes.append({"id": f"l{k}", "stage": 2, "parent": "r", "q": 0.5,
                      "xi": {"d": d}})
    return from_dict({
        "name": "steep",
        "stages": 2,
        "gamma": [0.5],
        "nodes": nodes,
        "stage_templates": [
            {"n_vars": 1, "cost": [0.0], "rows": [],
             "var_bounds": [[0.0, 1.0]]},
            {"n_vars": 1, "cost": [1.0],
             "rows": [{"self": {"0": 1.0}, "link": {"0": scale},
                       "sense": ">=", "rhs": {"xi": "d", "scale": -scale}}],
             "var_bounds": [[None, None]]},
        ],
    })


def minimal_dict(**overrides):
    base = {
        "name": "mini",
        "stages": 2,
        "gamma": [0.5],
        "nodes": [
            {"id": "a", "stage": 1, "parent": None, "q": 1.0, "xi": {}},
            {"id": "b", "stage": 2, "parent": "a", "q": 0.6, "xi": {"d": 1.0}},
            {"id": "c", "stage": 2, "parent": "a", "q": 0.4, "xi": {"d": 2.0}},
        ],
        "stage_templates": [
            {"n_vars": 1, "cost": [1.0], "rows": []},
            {"n_vars": 1, "cost": [1.0],
             "rows": [{"self": {"0": 1.0}, "link": {},
                       "sense": ">=", "rhs": {"xi": "d"}}]},
        ],
    }
    base.update(overrides)
    return base


def policy_value_under_removal(tree: ScenarioTree, policy,
                               removals) -> float:
    """Value of a fixed policy with the removed children pinned to zero,
    for sandwich checks: restricted optimum <= this <= baseline."""
    q_values, _ = _evaluate(tree, policy, removals=removals)
    return q_values[tree.root()]


def verify_monotonicity(tree: ScenarioTree, small: RemovalSet,
                        large: RemovalSet,
                        outcome: SolveOutcome | None = None):
    """Check that removing more paths cannot raise the assessment value.
    Returns (holds, small result, large result); pairs whose larger set
    is infeasible are vacuously fine by the +inf convention."""
    if not small.ids <= large.ids:
        raise InvalidRemoval("sets are not nested")
    if outcome is None:
        outcome = solve_extensive(tree)
    r_small = assess_paths(tree, small, outcome)
    r_large = assess_paths(tree, large, outcome)
    if r_large.infeasible:
        return True, r_small, r_large
    tol = 1e-8 * max(1.0, abs(r_small.value))
    return r_large.value <= r_small.value + tol, r_small, r_large


def verify_union_intersection(tree: ScenarioTree, s_eff: RemovalSet,
                              s_ineff: RemovalSet, s_any: RemovalSet,
                              outcome: SolveOutcome | None = None) -> dict:
    """Check the closure facts on a triple: effective sets absorb unions,
    ineffective sets pass to intersections and subsets. The first two
    arguments must already carry the stated verdicts (re-checked here)."""
    if outcome is None:
        outcome = solve_extensive(tree)
    r_eff = assess_paths(tree, s_eff, outcome)
    r_ineff = assess_paths(tree, s_ineff, outcome)
    if r_eff.verdict != EFFECTIVE:
        raise InvalidRemoval("s_eff is not effective on this instance")
    if r_ineff.verdict != INEFFECTIVE:
        raise InvalidRemoval("s_ineff is not ineffective on this instance")

    union = RemovalSet(PATHS, s_eff.ids | s_any.ids)
    r_union = assess_paths(tree, union, outcome)
    union_ok = r_union.verdict == EFFECTIVE

    inter_ids = s_ineff.ids & s_any.ids
    if inter_ids:
        r_inter = assess_paths(tree, RemovalSet(PATHS, inter_ids), outcome)
        inter_ok = r_inter.verdict == INEFFECTIVE
        inter_value = r_inter.value
    else:
        # empty removal changes nothing by convention
        inter_ok, inter_value = True, outcome.objective

    sub_ids = frozenset(sorted(s_ineff.ids)[:max(1, len(s_ineff.ids) // 2)])
    r_sub = assess_paths(tree, RemovalSet(PATHS, sub_ids), outcome)
    sub_ok = r_sub.verdict == INEFFECTIVE

    return {
        "union_effective": union_ok,
        "intersection_ineffective": inter_ok,
        "subset_ineffective": sub_ok,
        "ok": union_ok and inter_ok and sub_ok,
        "union_value": r_union.value,
        "intersection_value": inter_value,
        "subset_value": r_sub.value,
        "baseline": outcome.objective,
    }
