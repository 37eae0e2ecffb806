"""Exact solvers for the nested worst-case problem on a scenario tree.

Two independent routes to the same optimum: one extensive LP over the whole
tree built from the per-node risk epigraph, and a nested Benders scheme
whose cuts outer-approximate each node's worst-case expected cost-to-go.
Agreement between the two is the main correctness check for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasiblePolicy,
    InstanceInfeasible,
    InstanceUnbounded,
    NumericalBreakdown,
)
from .lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, Row,
                 solve_lp, solve_lps)
from .tree import ScenarioTree
from .tvrisk import FiniteDist, removal_empties, worst_case_expectation

POLICY_FEAS_TOL = 1e-7


@dataclass(frozen=True)
class VarMap:
    """Columns of each node's decision block inside an extensive LP, and
    each child's risk rows (u - v_c >= 0, s_c + eta - v_c >= 0)."""

    x: dict[str, list[int]]
    risk_rows: dict[str, list[int]]


@dataclass
class SolveOutcome:
    objective: float
    policy: dict[str, np.ndarray]
    q_values: dict[str, float]
    # per internal node: worst-case child distribution, children order
    worst_case: dict[str, tuple[float, ...]]
    solver: str
    gap: float = 0.0
    passes: int = 0
    # proven lower bound on the optimum: Benders' last root LP value
    lower: float = -math.inf
    # baseline LPs solved with their final states, for the oracle's warm
    # re-solves: {node: (LpSolution, VarMap)}, living as long as the outcome
    states: dict = field(default_factory=dict, repr=False, compare=False)


def check_removals(tree: ScenarioTree, removals) -> dict[str, frozenset]:
    """Normalize a node -> removed-children mapping and reject removals
    that leave the restricted ambiguity set empty (tvrisk.removal_empties).
    Callers that want +inf semantics for emptiness must test for it
    before coming here."""
    out = {}
    for nid, gone in (removals or {}).items():
        gone = frozenset(gone)
        if not gone:
            continue
        kids = tree.children(nid)
        unknown = gone - set(kids)
        if unknown:
            raise ValueError(
                f"removal at {nid!r} names non-children {sorted(unknown)}")
        g = tree.gamma_for_children_of(nid)
        if removal_empties(tree.q_children(nid),
                           [i for i, c in enumerate(kids) if c in gone], g):
            raise InstanceInfeasible(
                f"removing {sorted(gone)} at {nid!r} empties its ambiguity "
                f"set of radius {g:.6g}")
        out[nid] = gone
    return out


def _subtree_root(tree: ScenarioTree, root, fixed_incoming) -> str:
    root_id = tree.root() if root is None else root
    if tree.node(root_id).stage > 1 and fixed_incoming is None:
        raise ValueError(f"subtree root {root_id!r} needs fixed_incoming")
    return root_id


def _stage_rows(nlp, x, parent_x=None, incoming=None):
    """One node's template rows as (coefs, sense, rhs), its variable j at
    column x[j]. A link to the parent decision goes to the parent's
    columns parent_x when given, else moves into the rhs at the fixed
    parent decision `incoming`; an rhs that is then not finite is a
    NumericalBreakdown."""
    for self_c, link_c, sense, rhs in nlp.rows:
        coefs = {x[j]: a for j, a in self_c.items() if a != 0.0}
        for j, a in link_c.items():
            if parent_x is None:
                rhs -= a * float(incoming[j])
            elif a != 0.0:
                coefs[parent_x[j]] = coefs.get(parent_x[j], 0.0) + a
        if not math.isfinite(rhs):
            raise NumericalBreakdown(
                f"row rhs {rhs!r} is not finite at the parent decision")
        yield coefs, sense, rhs


def build_extensive(tree: ScenarioTree, removals=None, root=None,
                    fixed_incoming=None):
    """Extensive epigraph LP for the (sub)tree hanging at `root`.

    Per node one decision block x, and its value as an expression over
    the columns: v = c'x at a leaf, and at an internal node

        v = c'x + gamma*u + (1-gamma)*eta + sum_c q_c * s_c,
        u >= v_c,   s_c >= v_c - eta,  s_c >= 0,

    whose minimum over (u, eta, s) is the worst-case expected child value
    gamma*sup + (1-gamma)*cvar_gamma. The objective is the root's v. At a
    node with removed children the rows u >= v_c and s_c >= v_c - eta
    and the column s_c of the removed c are left out and the weights q_c
    of the others stay: the minimum is then the restricted worst case of
    tvrisk.worst_case_expectation. Returns (LinearProgram, VarMap).
    """
    removals = check_removals(tree, removals)
    root_id = _subtree_root(tree, root, fixed_incoming)
    ids = tree.subtree_ids(root_id)

    lo: list[float] = []
    hi: list[float] = []

    def new_var(lb: float, ub: float) -> int:
        lo.append(lb)
        hi.append(ub)
        return len(lo) - 1

    xs: dict[str, list[int]] = {}
    value: dict[str, dict[int, float]] = {}
    for nid in ids:
        nlp = tree.node_lp(nid)
        xs[nid] = [new_var(float(nlp.lower[j]), float(nlp.upper[j]))
                   for j in range(nlp.n_vars)]
        value[nid] = {xs[nid][j]: float(cj)
                      for j, cj in enumerate(nlp.cost) if cj != 0.0}

    risk: dict[str, list] = {}   # per node: (coefs without -v_c, child c)
    for nid in ids:
        kids = tree.children(nid)
        if not kids:
            continue
        g = tree.gamma_for_children_of(nid)
        kept = [c for c in kids if c not in removals.get(nid, ())]
        risk[nid] = []
        if g > 0.0:
            u = new_var(-math.inf, math.inf)
            value[nid][u] = g
            risk[nid] += [({u: 1.0}, c) for c in kept]
        if g < 1.0:
            eta = new_var(-math.inf, math.inf)
            value[nid][eta] = 1.0 - g
            for c, qc in zip(kids, tree.q_children(nid)):
                if qc != 0.0 and c in kept:
                    s = new_var(0.0, math.inf)
                    value[nid][s] = qc
                    risk[nid].append(({s: 1.0, eta: 1.0}, c))

    risk_rows: dict[str, list[int]] = {}
    objective = np.zeros(len(lo))
    for k, a in value[root_id].items():
        objective[k] = a
    lp = LinearProgram(len(lo), objective, lower=np.array(lo),
                       upper=np.array(hi))
    for nid in ids:
        par = None if nid == root_id else xs[tree.parent(nid)]
        for coefs, sense, rhs in _stage_rows(tree.node_lp(nid), xs[nid],
                                             par, fixed_incoming):
            lp.add_row(coefs, sense, rhs)
        for coefs, c in risk.get(nid, ()):
            for k, a in value[c].items():
                coefs[k] = coefs.get(k, 0.0) - a
            risk_rows.setdefault(c, []).append(len(lp.rows))
            lp.add_row(coefs, ">=", 0.0)
    return lp, VarMap(xs, risk_rows)


def _risk_of_children(tree, nid, child_values, removals):
    """Worst-case expected child value at one node, honoring the removals
    that check_removals has validated. Returns (value, maximizer
    probabilities)."""
    kids = tree.children(nid)
    dist = FiniteDist(np.array([child_values[c] for c in kids]),
                      np.array(tree.q_children(nid)))
    gone = removals.get(nid, ())
    res = worst_case_expectation(dist, tree.gamma_for_children_of(nid),
                                 [i for i, c in enumerate(kids) if c in gone])
    return float(res.value), tuple(float(p) for p in res.dist)


def _evaluate(tree: ScenarioTree, policy, removals=None, root=None):
    """Bottom-up node values at a fixed policy on the (sub)tree hanging at
    `root`, and the worst-case child distributions realized along the way.
    It does not check the policy's feasibility; _check_policy does. Node
    LPs come from the tree's cache (ScenarioTree.node_lp)."""
    removals = removals or {}
    root_id = tree.root() if root is None else root
    q_values: dict[str, float] = {}
    worst: dict[str, tuple[float, ...]] = {}
    for level in reversed(_levels(tree, root_id)):
        for nid in level:
            nlp = tree.node_lp(nid)
            value = float(nlp.cost @ np.asarray(policy[nid], dtype=float))
            if tree.children(nid):
                future, pstar = _risk_of_children(tree, nid, q_values,
                                                  removals)
                value += future
                worst[nid] = pstar
            q_values[nid] = value
    return q_values, worst


def _levels(tree: ScenarioTree, root_id: str) -> list[list[str]]:
    """Nodes of the subtree at root_id, one list per stage from the
    root's down, each in file order."""
    sub = set(tree.subtree_ids(root_id))
    return [[nid for nid in tree.stage_nodes(t) if nid in sub]
            for t in range(tree.node(root_id).stage, tree.T + 1)]


def _check_policy(tree: ScenarioTree, policy, root_id: str,
                  fixed_incoming=None):
    """Raise InfeasiblePolicy naming the first node, in _evaluate's
    bottom-up order, whose decision violates its bounds or rows on the
    subtree at root_id; the root's parent decision is fixed_incoming."""
    for level in reversed(_levels(tree, root_id)):
        for nid in level:
            incoming = (fixed_incoming if nid == root_id
                        else policy[tree.parent(nid)])
            _check_node_feasible(nid, tree.node_lp(nid),
                                 np.asarray(policy[nid], dtype=float),
                                 incoming)


def _check_node_feasible(nid, nlp, x, incoming):
    if x.shape != (nlp.n_vars,):
        raise InfeasiblePolicy(
            f"node {nid!r}: decision has {x.size} entries, "
            f"template has {nlp.n_vars}")
    if np.any(x < nlp.lower - POLICY_FEAS_TOL) or \
            np.any(x > nlp.upper + POLICY_FEAS_TOL):
        raise InfeasiblePolicy(f"node {nid!r}: decision violates bounds")
    for self_c, link_c, sense, rhs in nlp.rows:
        lhs = sum(a * x[j] for j, a in self_c.items())
        if link_c:
            px = np.asarray(incoming, dtype=float)
            lhs += sum(a * px[j] for j, a in link_c.items())
        resid = lhs - rhs
        if sense == ">=" and resid < -POLICY_FEAS_TOL:
            raise InfeasiblePolicy(
                f"node {nid!r}: row residual {resid:.3e} below zero")
        if sense == "<=" and resid > POLICY_FEAS_TOL:
            raise InfeasiblePolicy(
                f"node {nid!r}: row residual {resid:.3e} above zero")
        if sense == "=" and abs(resid) > POLICY_FEAS_TOL:
            raise InfeasiblePolicy(
                f"node {nid!r}: equality residual {resid:.3e}")


def evaluate_policy(tree: ScenarioTree, policy) -> dict[str, float]:
    """Per-node values of a fixed feasible policy (upper bounds on the
    optimal cost-to-go). Raises InfeasiblePolicy naming the first node,
    bottom-up, whose rows or bounds are violated beyond tolerance."""
    _check_policy(tree, policy, tree.root())
    q_values, _ = _evaluate(tree, policy)
    return q_values

def _own_policy_check(tree, policy, root_id, fixed_incoming=None):
    """_check_policy on a policy a solver produced itself: a failure is
    the solve's, so it is a NumericalBreakdown."""
    try:
        _check_policy(tree, policy, root_id, fixed_incoming)
    except InfeasiblePolicy as exc:
        raise NumericalBreakdown(f"solved policy fails its check: {exc}") \
            from exc


def _checked(sol, what: str):
    if sol.status == INFEASIBLE:
        raise InstanceInfeasible(f"{what} is infeasible")
    if sol.status == UNBOUNDED:
        raise InstanceUnbounded(f"{what} is unbounded below")
    return sol


def solve_extensive(tree: ScenarioTree) -> SolveOutcome:
    """Solve the nested problem via the extensive epigraph LP.

    The root LP fixes the objective, but rows below children that receive
    zero worst-case weight feel no pressure, so the raw LP point is not
    trusted as a policy. Instead decisions are extracted top-down: each
    node's block is re-solved on its own subtree with the parent decision
    fixed, which forces the recursion to hold at every node. The subtree
    LPs of one level go to one solve_lps call. The LP holds node values
    only as expressions, so q_values are computed bottom-up at that
    policy. The root LP and each internal node's extraction LP, with
    their final states, stay on the outcome (SolveOutcome.states) for
    the oracle's warm re-solves."""
    lp, vm = build_extensive(tree)
    sol = _checked(solve_lp(lp, keep=True), "instance")
    root_id = tree.root()
    policy: dict[str, np.ndarray] = {
        root_id: np.array([sol.primal[j] for j in vm.x[root_id]])
    }
    states = {root_id: (sol, vm)}
    for level in _levels(tree, root_id)[1:]:
        subs = [build_extensive(tree, root=c,
                                fixed_incoming=policy[tree.parent(c)])
                for c in level]
        inner = bool(tree.children(level[0]))   # one stage per level
        sols = solve_lps([sub_lp for sub_lp, _ in subs], keep=inner)
        for c, (_, sub_vm), sub_sol in zip(level, subs, sols):
            sub_sol = _checked(sub_sol, f"subtree at {c!r}")
            policy[c] = np.array([sub_sol.primal[j] for j in sub_vm.x[c]])
            if inner:
                states[c] = (sub_sol, sub_vm)
    _own_policy_check(tree, policy, root_id)
    q_values, worst = _evaluate(tree, policy)
    return SolveOutcome(float(sol.objective_value), policy, q_values, worst,
                        "extensive", states=states)


def node_lp_state(tree: ScenarioTree, node: str, incoming=None,
                  outcome: SolveOutcome | None = None):
    """(LpSolution with its final state, VarMap) of node's subtree LP at
    the parent decision `incoming` (the root LP at the root): the one in
    `outcome`'s states, else solved here and, when an outcome is given,
    stored in its states. Both are the same bits."""
    if outcome is not None and node in outcome.states:
        return outcome.states[node]
    lp, vm = build_extensive(tree, root=node, fixed_incoming=incoming)
    what = "instance" if node == tree.root() else f"subtree at {node!r}"
    got = _checked(solve_lp(lp, keep=True), what), vm
    if outcome is not None:
        outcome.states[node] = got
    return got


# nested Benders --------------------------------------------------------


def _theta_floor(nlps) -> float:
    """Valid lower bound for any node's cost-to-go over these node LPs.
    Zero when every cost coefficient and every variable lower bound is
    nonnegative (then all stage costs are nonnegative); otherwise a crude
    large constant."""
    for nlp in nlps:
        if np.any(nlp.cost < 0.0) or np.any(nlp.lower < 0.0):
            return -1e8
    return 0.0


class _BendersNode:
    """One node's LP parts that no cut changes, and its cut rows, each
    made once; build appends them after the template rows, optimality
    rows first."""

    def __init__(self, nlp, is_leaf, theta_floor):
        self.nlp = nlp
        self.is_leaf = is_leaf
        extra = 0 if is_leaf else 1
        self.objective = np.concatenate([nlp.cost, np.ones(extra)])
        self.lower = np.concatenate([nlp.lower, np.full(extra, theta_floor)])
        self.upper = np.concatenate([nlp.upper, np.full(extra, math.inf)])
        self.opt_rows: list[Row] = []    # theta - b'x >= a
        self.feas_rows: list[Row] = []   # g'x <= r

    def build(self, incoming) -> LinearProgram:
        lp = LinearProgram(self.objective.size, self.objective,
                           lower=self.lower, upper=self.upper)
        for row in _stage_rows(self.nlp, range(self.nlp.n_vars),
                               incoming=incoming):
            lp.add_row(*row)
        lp.rows += self.opt_rows + self.feas_rows
        return lp

    def link_gradient(self, row_duals, n_parent) -> np.ndarray:
        """d(value)/d(incoming), one entry per parent variable, from the
        duals on the template rows (the leading entries of row_duals; cut
        rows follow them): the rhs seen by the LP is rhs - link @ incoming."""
        grad = np.zeros(n_parent)
        for dual, (_, link_c, _, _) in zip(row_duals, self.nlp.rows):
            d = float(dual)
            if d == 0.0:
                continue
            for j, a in link_c.items():
                grad[j] -= d * a
        return grad


def _forward(tree, work, levels, root_id, root_incoming):
    """One forward walk: each level's node LPs, at their parents'
    decisions and under their current cut rows, in one solve_lps call.
    Returns (xvals, sols), each node's decision and LP solution, or None
    after adding a feasibility row to the parent of the first infeasible
    node in file order. Results are taken in level order, so a later
    member's NumericalBreakdown is not raised past that node."""
    xvals: dict[str, np.ndarray] = {}
    sols: dict[str, object] = {}
    for level in levels:
        incomings = [root_incoming if nid == root_id
                     else xvals[tree.parent(nid)] for nid in level]
        results = solve_lps([work[nid].build(incoming)
                             for nid, incoming in zip(level, incomings)])
        for nid, incoming, sol in zip(level, incomings, results):
            if sol.status == UNBOUNDED:
                raise InstanceUnbounded(f"node {nid!r} subproblem unbounded")
            if sol.status == INFEASIBLE:
                if nid == root_id:
                    raise InstanceInfeasible("root subproblem infeasible")
                grad = work[nid].link_gradient(sol.farkas, incoming.size)
                # w(y) >= w(y0) + grad'(y - y0) must be forced <= 0
                rhs = float(grad @ incoming) - float(sol.phase1_value)
                coefs = {j: float(g) for j, g in enumerate(grad) if g != 0.0}
                work[tree.parent(nid)].feas_rows.append(Row(coefs, "<=", rhs))
                return None
            xvals[nid] = sol.primal[:work[nid].nlp.n_vars].copy()
            sols[nid] = sol
    return xvals, sols


def solve_benders(tree: ScenarioTree, tol: float = 1e-6,
                  max_iter: int = 200, removals=None, root=None,
                  fixed_incoming=None) -> SolveOutcome:
    """Nested Benders over the (sub)tree hanging at `root`.

    Each pass walks the tree forward (_forward) solving every node LP
    under its current cut rows, evaluates the visited policy exactly for
    an upper bound, then walks backward re-solving children and adding
    one aggregated optimality row per node. The forward walk solves one
    level per solve_lps call, the backward walk the internal children of
    one level per call. Child values are weighted by a worst-case
    distribution over the current approximations. A forward walk that
    meets an infeasible node cuts its parent and starts over. Stops when
    (upper - lower) <= tol * max(1, |lower|) or after max_iter passes;
    the outcome records the achieved gap and lower bound either way. A
    lower bound above the upper one by more than that tolerance means the
    theta floor (_theta_floor) was not a valid bound on some cost-to-go,
    and raises NumericalBreakdown rather than report a wrong optimum.
    Each completed pass is evaluated once: the outcome keeps the policy,
    values and worst-case distributions of the pass with the best upper
    bound, and that policy's feasibility is checked once, at the end.

    `removals`, `root` and `fixed_incoming` mean what they mean for
    build_extensive. Cut weights and upper bounds use the one closed form
    of tvrisk.worst_case_expectation at every node: gamma*sup + (1-gamma)*
    cvar over the kept children, with the level lowered by the removed
    mass. That maximum over a smaller set of distributions is still
    convex and monotone in the child values, so its cuts stay valid.
    Node LPs come from the tree's cache (ScenarioTree.node_lp), so every
    pass and every call on the same tree reuses them.
    """
    removals = check_removals(tree, removals)
    root_id = _subtree_root(tree, root, fixed_incoming)
    root_incoming = (np.zeros(0) if fixed_incoming is None
                     else np.asarray(fixed_incoming, dtype=float))
    levels = _levels(tree, root_id)
    ids = [nid for level in levels for nid in level]
    floor = _theta_floor(tree.node_lp(nid) for nid in ids)
    work = {nid: _BendersNode(tree.node_lp(nid), not tree.children(nid),
                              floor)
            for nid in ids}

    best_value = math.inf
    best = None   # (policy, q_values, worst) of the pass with best_value
    lower = -math.inf
    gap = math.inf
    passes = 0

    for passes in range(1, max_iter + 1):
        walk = _forward(tree, work, levels, root_id, root_incoming)
        if walk is None:
            continue  # repeat the pass with the strengthened parent
        xvals, fwd = walk

        lower = float(fwd[root_id].objective_value)
        q_values, worst = _evaluate(tree, xvals, removals, root=root_id)
        value = q_values[root_id]
        if value < best_value:
            best_value = value
            best = (xvals, q_values, worst)
        gap = (best_value - lower) / max(1.0, abs(lower))
        if gap < -tol:
            raise NumericalBreakdown(
                f"Benders lower bound {lower!r} exceeds its upper bound "
                f"{best_value!r}; the theta floor {floor!r} cuts off the "
                "cost-to-go")
        if gap <= tol:
            break

        # backward
        for level in reversed(levels[:-1]):
            inner = iter(solve_lps([work[c].build(xvals[nid])
                                    for nid in level
                                    for c in tree.children(nid)
                                    if not work[c].is_leaf]))
            for nid in level:
                kids = tree.children(nid)
                incoming = xvals[nid]
                values = {}
                grads = []
                for c in kids:
                    if work[c].is_leaf:
                        csol = fwd[c]  # pool unchanged since forward
                    else:
                        csol = next(inner)
                        if csol.status != OPTIMAL:
                            raise InstanceInfeasible(
                                f"backward child {c!r} not optimal")
                    values[c] = float(csol.objective_value)
                    grads.append(work[c].link_gradient(csol.duals,
                                                       incoming.size))
                _, pstar = _risk_of_children(tree, nid, values, removals)
                beta = np.zeros(incoming.size)
                alpha = 0.0
                for p, v, grad in zip(pstar, values.values(), grads):
                    if p == 0.0:
                        continue
                    beta += p * grad
                    alpha += p * (v - float(grad @ incoming))
                coefs = {incoming.size: 1.0}   # theta, after x
                coefs.update((j, -float(b)) for j, b in enumerate(beta)
                             if b != 0.0)
                work[nid].opt_rows.append(Row(coefs, ">=", alpha))

    if best is None:
        raise InstanceInfeasible("no feasible pass completed")
    policy, q_values, worst = best
    _own_policy_check(tree, policy, root_id, fixed_incoming)
    return SolveOutcome(best_value, policy, q_values, worst, "benders",
                        gap=float(gap), passes=passes, lower=lower)
