import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drotree.errors import (
    InfeasiblePolicy,
    InstanceInfeasible,
    InstanceUnbounded,
    NumericalBreakdown,
)
from drotree.gen import gen_random, gen_water_analog
from drotree.lp import OPTIMAL, LinearProgram, solve_lp, solve_lps
from drotree.solver import (
    build_extensive,
    evaluate_policy,
    solve_benders,
    solve_extensive,
)
from drotree.tree import from_dict, with_uniform_gamma
from drotree.tvrisk import FiniteDist, worst_case_expectation

from helpers import (chain_tree, duality_report, leaf_value_tree,
                     minimal_dict, newsvendor_tree, path_probability,
                     steep_link_tree, tv_distance)


def risk_neutral_lp_value(tree):
    """Independent oracle: deterministic-equivalent expectation LP, no
    epigraph variables, objective weighted by path probabilities."""
    ids = [n.id for n in tree.nodes]
    nlps = {nid: tree.node_lp(nid) for nid in ids}
    offset = {}
    total = 0
    for nid in ids:
        offset[nid] = total
        total += nlps[nid].n_vars
    obj = np.zeros(total)
    lower = np.zeros(total)
    upper = np.zeros(total)
    for nid in ids:
        nlp = nlps[nid]
        prob = path_probability(tree, nid) if tree.node(nid).stage == tree.T \
            else _node_prob(tree, nid)
        o = offset[nid]
        obj[o:o + nlp.n_vars] = prob * nlp.cost
        lower[o:o + nlp.n_vars] = nlp.lower
        upper[o:o + nlp.n_vars] = nlp.upper
    lp = LinearProgram(total, obj, lower=lower, upper=upper)
    for nid in ids:
        nlp = nlps[nid]
        o = offset[nid]
        par = tree.parent(nid)
        for self_c, link_c, sense, rhs in nlp.rows:
            coefs = {o + j: a for j, a in self_c.items()}
            for j, a in link_c.items():
                coefs[offset[par] + j] = coefs.get(offset[par] + j, 0.0) + a
            lp.add_row(coefs, sense, rhs)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    return sol.objective_value


def _node_prob(tree, nid):
    p = 1.0
    for anc in tree.path(nid)[1:]:
        p *= tree.node(anc).q_cond
    return p


def test_leaf_value_tree_matches_risk_arithmetic():
    # leaves valued 1, 2, 3 uniformly; root adds nothing
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    out = solve_extensive(tree)
    assert abs(out.objective - 17.0 / 6.0) <= 1e-9
    assert abs(out.q_values["r"] - out.objective) <= 1e-9
    assert np.allclose(out.worst_case["r"], [0.0, 1.0 / 6.0, 5.0 / 6.0])

    assert abs(solve_extensive(
        leaf_value_tree([1.0, 2.0, 3.0], gamma=0.0)).objective - 2.0) <= 1e-9
    assert abs(solve_extensive(
        leaf_value_tree([1.0, 2.0, 3.0], gamma=1.0)).objective - 3.0) <= 1e-9


def test_newsvendor_frozen_values():
    for gamma, value, order in [(0.0, 2.5, 1.0), (0.1, 2.8, 1.0),
                                (0.5, 3.0, 3.0), (1.0, 3.0, 3.0)]:
        out = solve_extensive(newsvendor_tree(gamma))
        assert abs(out.objective - value) <= 1e-8, gamma
        assert abs(out.policy["r"][0] - order) <= 1e-7, gamma


def test_deterministic_chain_equals_single_path_lp():
    tree = chain_tree(depth=3)
    out = solve_extensive(tree)
    # x1 = 1, x2 = 2 - 0.5, x3 = 3 - 0.5 * 1.5
    assert abs(out.objective - 4.75) <= 1e-9
    bend = solve_benders(tree, tol=1e-9)
    assert abs(bend.objective - 4.75) <= 1e-9
    assert bend.passes <= 2
    assert bend.gap <= 1e-9


def test_gamma_zero_matches_risk_neutral_expectation_lp():
    for seed, T, b, nv in [(3, 2, 3, 2), (4, 3, 2, 2), (5, 3, 3, 1),
                           (6, 4, 2, 3)]:
        tree = gen_random(seed, T=T, branching=b, n_vars=nv, gamma=0.0)
        got = solve_extensive(tree).objective
        want = risk_neutral_lp_value(tree)
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), seed


def test_gamma_one_is_minimax_on_two_leaves():
    tree = leaf_value_tree([4.0, 9.0], q=[0.9, 0.1], gamma=1.0)
    assert abs(solve_extensive(tree).objective - 9.0) <= 1e-9


def test_cross_solver_agreement_smoke():
    cases = [(11, 2, 2, 1, 0.3), (12, 3, 2, 2, 0.5), (13, 3, 3, 2, 0.7),
             (14, 4, 2, 2, 0.5), (15, 3, 4, 1, 0.0), (16, 2, 4, 3, 1.0)]
    for seed, T, b, nv, gamma in cases:
        tree = gen_random(seed, T=T, branching=b, n_vars=nv, gamma=gamma)
        ext = solve_extensive(tree)
        bend = solve_benders(tree, tol=1e-8)
        rel = abs(ext.objective - bend.objective) / max(1.0, abs(ext.objective))
        assert rel <= 1e-6, (seed, ext.objective, bend.objective)
        assert bend.gap <= 1e-6


def test_water_analog_cross_solver():
    tree = gen_water_analog(0, gamma=0.5)
    ext = solve_extensive(tree)
    bend = solve_benders(tree, tol=1e-8)
    rel = abs(ext.objective - bend.objective) / max(1.0, abs(ext.objective))
    assert rel <= 1e-6
    # the all-adverse child is the unique worst case at every node
    vals = {c: ext.q_values[c] for c in tree.children("root")}
    assert max(vals, key=vals.get) == "LHD"


def test_extensive_lp_has_two_risk_rows_per_child_and_no_value_columns():
    """Rows: the template rows and two risk rows per non-root node.
    Columns: the decisions, u and eta per internal node and one s per
    child. Removing a leaf drops its two risk rows and its s column and
    leaves every other row, bound and cost as it was."""
    tree = gen_water_analog(0, gamma=0.95)
    lp, vm = build_extensive(tree)
    ids = [n.id for n in tree.nodes]
    internal = [nid for nid in ids if tree.children(nid)]
    assert len(lp.rows) == (sum(len(tree.node_lp(nid).rows) for nid in ids)
                            + 2 * (len(ids) - 1))
    assert lp.n_vars == (sum(len(vm.x[nid]) for nid in ids)
                         + 2 * len(internal) + len(ids) - 1)

    leaf = tree.leaves()[3]
    cut, cut_vm = build_extensive(tree, removals={tree.parent(leaf): {leaf}})
    assert cut_vm.x == vm.x
    decisions = {k for x in vm.x.values() for k in x}
    risk = [i for i, row in enumerate(lp.rows)
            if set(row.coefs) & set(vm.x[leaf])
            and not set(row.coefs) <= decisions]
    assert len(risk) == 2
    (s,) = [k for k in lp.rows[risk[1]].coefs
            if lp.lower[k] == 0.0 and k not in vm.x[leaf]]

    def shift(k):
        return k - (k > s)

    want = [({shift(k): a for k, a in row.coefs.items()}, row.sense, row.rhs)
            for i, row in enumerate(lp.rows) if i not in risk]
    assert [(row.coefs, row.sense, row.rhs) for row in cut.rows] == want
    for field in ("objective", "lower", "upper"):
        assert np.array_equal(getattr(cut, field),
                              np.delete(getattr(lp, field), s))


def test_each_node_lp_is_built_once_per_tree(monkeypatch):
    import drotree.tree as tree_module

    built = []
    real = tree_module.materialize

    def counting(template, node_id, xi):
        built.append(node_id)
        return real(template, node_id, xi)

    monkeypatch.setattr(tree_module, "materialize", counting)
    tree = gen_water_analog(0, gamma=0.95)
    solve_extensive(tree)
    assert len(built) == len(tree.nodes) == 73
    solve_extensive(tree)
    solve_benders(tree)
    assert len(built) == 73


@pytest.mark.parametrize("tree, n_lps",
                         [(gen_water_analog(0, gamma=0.95), 154),
                          (gen_random(5, T=4, branching=2), 36)],
                         ids=["water", "random-5-4-2"])
def test_benders_node_lp_duals_verify(tree, n_lps, monkeypatch):
    # every optimal node LP's tableau duals close the duality gap
    import drotree.solver as solver_module

    solved = []

    def recording(lps):
        sols = solve_lps(lps)
        solved.extend(zip(lps, sols))
        return sols

    monkeypatch.setattr(solver_module, "solve_lps", recording)
    solve_benders(tree)
    # as many as Benders solved one at a time, every one optimal
    assert len(solved) == n_lps
    assert all(sol.status == OPTIMAL for _, sol in solved)
    for lp, sol in solved:
        rep = duality_report(lp, sol)
        scale = max(1.0, abs(sol.objective_value))
        assert rep["feasibility"] <= 1e-9 * scale
        assert rep["complementarity"] <= 1e-9 * scale
        assert rep["gap"] <= 1e-9 * scale


def test_benders_evaluates_each_pass_once(monkeypatch):
    import drotree.solver as solver_module

    calls = []
    real = solver_module._evaluate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_evaluate", counting)
    out = solve_benders(gen_water_analog(0, gamma=0.95))
    assert out.passes > 1
    assert len(calls) == out.passes


def test_recursion_consistency_and_subtree_probes():
    tree = gen_random(21, T=3, branching=3, n_vars=2, gamma=0.4)
    out = solve_extensive(tree)
    # recursion consistency is how q_values are built; probe it anyway
    for nid in tree.stage_nodes(2):
        kids = tree.children(nid)
        from drotree.tvrisk import FiniteDist, worst_case_expectation
        dist = FiniteDist(np.array([out.q_values[c] for c in kids]),
                          np.array(tree.q_children(nid)))
        res = worst_case_expectation(dist, tree.gamma_for_children_of(nid))
        nlp = tree.node_lp(nid)
        want = float(nlp.cost @ out.policy[nid]) + res.value
        assert abs(out.q_values[nid] - want) <= 1e-6 * max(1.0, abs(want))
    # subtree re-solves at the fixed incoming decision match the records
    for nid in tree.stage_nodes(2) + tree.stage_nodes(3):
        par = tree.parent(nid)
        lp, vm = build_extensive(tree, root=nid,
                                 fixed_incoming=out.policy[par])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        q = out.q_values[nid]
        assert abs(sol.objective_value - q) <= 1e-6 * max(1.0, abs(q)), nid


def test_worst_case_distributions_live_in_the_ball():
    tree = gen_random(31, T=3, branching=4, n_vars=2, gamma=0.35)
    out = solve_extensive(tree)
    for nid, p in out.worst_case.items():
        p = np.array(p)
        q = np.array(tree.q_children(nid))
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= -1e-12)
        assert tv_distance(p, q) <= 0.35 + 1e-9


def test_evaluate_policy_bounds_and_perturbation():
    tree = gen_random(41, T=3, branching=2, n_vars=2, gamma=0.6)
    out = solve_extensive(tree)
    values = evaluate_policy(tree, out.policy)
    root = tree.root()
    assert abs(values[root] - out.objective) <= 1e-6 * max(1.0, abs(values[root]))

    worse = {k: v.copy() for k, v in out.policy.items()}
    worse[root] = worse[root].copy()
    worse[root][-1] += 0.7  # pad a slack: stays feasible, costs extra
    bumped = evaluate_policy(tree, worse)
    assert bumped[root] >= out.objective - 1e-9

    zero = {n.id: np.zeros(tree.node_lp(n.id).n_vars) for n in tree.nodes}
    with pytest.raises(InfeasiblePolicy):
        evaluate_policy(tree, zero)  # zeroed slacks break the rows


def test_zero_policy_finite_on_zero_feasible_instance():
    tree = gen_random(42, T=2, branching=2, n_vars=2, gamma=0.5)
    assert tree.meta["zero_feasible"]
    policy = {}
    for node in tree.nodes:
        nlp = tree.node_lp(node.id)
        x = np.zeros(nlp.n_vars)
        # decisions at zero, slacks raised to cover every row
        for self_c, link_c, sense, rhs in nlp.rows:
            slack = [j for j in self_c if j >= 2]
            if sense == ">=" and slack:
                x[slack[0]] = max(x[slack[0]], rhs + 10.0)
        policy[node.id] = x
    values = evaluate_policy(tree, policy)
    assert math.isfinite(values[tree.root()])


def test_infeasible_and_unbounded_instances():
    d = minimal_dict()
    d["stage_templates"][0] = {
        "n_vars": 1, "cost": [1.0],
        "rows": [{"self": {"0": 1.0}, "link": {}, "sense": ">=", "rhs": 1.0}],
        "var_bounds": [[0.0, 0.5]],
    }
    with pytest.raises(InstanceInfeasible):
        solve_extensive(from_dict(d))

    d = minimal_dict()
    d["stage_templates"][1] = {"n_vars": 1, "cost": [-1.0], "rows": []}
    with pytest.raises(InstanceUnbounded):
        solve_extensive(from_dict(d))


def _feascut_tree():
    # child requires x2 + x1 >= 2 with x2 capped at 0.5: no complete
    # recourse, so Benders must cut the root until x1 >= 1.5
    return from_dict({
        "name": "feascut",
        "stages": 2,
        "gamma": [0.5],
        "nodes": [
            {"id": "r", "stage": 1, "parent": None, "q": 1.0, "xi": {}},
            {"id": "a", "stage": 2, "parent": "r", "q": 0.5, "xi": {}},
            {"id": "b", "stage": 2, "parent": "r", "q": 0.5, "xi": {}},
        ],
        "stage_templates": [
            {"n_vars": 1, "cost": [0.9], "rows": [],
             "var_bounds": [[0.0, 10.0]]},
            {"n_vars": 1, "cost": [1.0],
             "rows": [{"self": {"0": 1.0}, "link": {"0": 1.0},
                       "sense": ">=", "rhs": 2.0}],
             "var_bounds": [[0.0, 0.5]]},
        ],
    })


def test_benders_feasibility_cuts():
    tree = _feascut_tree()
    ext = solve_extensive(tree)
    bend = solve_benders(tree, tol=1e-9)
    assert abs(ext.objective - 1.8) <= 1e-8
    assert abs(bend.objective - ext.objective) <= 1e-6
    assert bend.policy["r"][0] >= 1.5 - 1e-7


def test_forward_walk_cuts_the_parent_of_the_first_infeasible_node():
    from drotree.solver import _BendersNode, _forward, _levels, _theta_floor

    tree = _feascut_tree()
    levels = _levels(tree, "r")
    ids = [nid for level in levels for nid in level]
    floor = _theta_floor(tree.node_lp(nid) for nid in ids)
    work = {nid: _BendersNode(tree.node_lp(nid), not tree.children(nid),
                              floor) for nid in ids}
    # at x_r = 0, node a (first in file order) needs x_r >= 1.5; the
    # walk stops there, so b adds no second row
    assert _forward(tree, work, levels, "r", np.zeros(0)) is None
    assert work["r"].feas_rows == [({0: -1.0}, "<=", -1.5)]
    assert all(not w.opt_rows and not w.feas_rows
               for nid, w in work.items() if nid != "r")
    xvals, sols = _forward(tree, work, levels, "r", np.zeros(0))
    assert list(xvals) == list(sols) == ["r", "a", "b"]
    assert xvals["r"] == pytest.approx([1.5])


def test_benders_iteration_limit_returns_best_bounds():
    tree = gen_random(51, T=3, branching=3, n_vars=2, gamma=0.5)
    out = solve_benders(tree, tol=1e-12, max_iter=1)
    assert out.passes == 1
    assert out.gap > 0.0
    full = solve_benders(tree, tol=1e-8)
    assert out.objective >= full.objective - 1e-9


def test_benders_inverted_bracket_is_a_breakdown():
    # costs-to-go reach -3e9, below the -1e8 theta floor: the floor
    # binds, the root picks x = 0 and the pass brackets the optimum
    # between -1e8 and -1e9, an inverted bracket Benders must not report
    tree = steep_link_tree(1e9)
    assert solve_extensive(tree).objective == pytest.approx(-2e9)
    with pytest.raises(NumericalBreakdown, match="theta floor"):
        solve_benders(tree)
    # at 1e6 the floor is a valid bound and both solvers agree
    tree = steep_link_tree(1e6)
    ext = solve_extensive(tree)
    bend = solve_benders(tree)
    assert ext.objective == pytest.approx(-2e6)
    assert bend.objective == pytest.approx(ext.objective, rel=1e-9)
    assert 0.0 <= bend.gap <= 1e-6


def test_near_tie_at_the_sup_converges_in_a_few_passes():
    # two kept children 1e-9 apart at the sup: the worst case's maximizer
    # must put the moved mass on the larger one, or the cuts weighted by
    # it keep Benders' lower bound below the optimum for all its passes
    values = [1e-9, 1.0, 2.0000000001, 3.0000000001, 3.000000001]
    q = [0.1850859003233256, 0.1850859003233256, 0.13881442524249418,
         0.1850859003233256, 0.30592787378752906]
    gamma = 0.6940721262124709
    tree = leaf_value_tree(values, q=q, gamma=gamma)
    removals = {"r": {"l0"}}
    ben = solve_benders(tree, tol=1e-10, removals=removals)
    assert ben.passes <= 3 and ben.gap <= 1e-10
    root = solve_lp(build_extensive(tree, removals=removals)[0])
    assert ben.objective == pytest.approx(root.objective_value, rel=1e-12)
    res = worst_case_expectation(
        FiniteDist(np.array(values), np.array(q)), gamma, {0})
    assert res.dist @ np.array(values) == pytest.approx(res.value, rel=1e-15)


def test_monotone_in_gamma():
    tree = gen_random(61, T=3, branching=3, n_vars=2, gamma=0.0)
    values = [solve_extensive(with_uniform_gamma(tree, g)).objective
              for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 1.0))
def test_extensive_objective_between_mean_and_minimax(seed, gamma):
    tree = gen_random(seed, T=2, branching=3, n_vars=1, gamma=gamma)
    value = solve_extensive(tree).objective
    lo = solve_extensive(with_uniform_gamma(tree, 0.0)).objective
    hi = solve_extensive(with_uniform_gamma(tree, 1.0)).objective
    assert lo - 1e-8 <= value <= hi + 1e-8


def _outcome_bits(out):
    """Every SolveOutcome field, floats and arrays as their raw bytes."""
    def raw(v):
        return np.asarray(v, dtype=float).tobytes()
    return (raw(out.objective),
            {k: raw(v) for k, v in out.policy.items()},
            {k: raw(v) for k, v in out.q_values.items()},
            {k: raw(v) for k, v in out.worst_case.items()},
            out.solver, out.passes, raw(out.lower), raw(out.gap))


@pytest.mark.parametrize("tree", [
    gen_water_analog(0, gamma=0.95), _feascut_tree(),
    *(gen_random(seed, T=3, branching=3) for seed in (1, 4, 9)),
    gen_random(5, T=4, branching=2),
    gen_random(7, T=3, branching=2, n_vars=2, gamma=0.5)],
    ids=lambda tree: tree.name)
def test_solvers_batched_match_one_at_a_time(tree, monkeypatch):
    """Both solvers give the same bits whether solve_lps stacks each
    level's LPs or solves them one at a time. On the feasibility-cut
    tree the forward walk meets an infeasible stage-2 node before the
    last node of its level and must stop there, as the one-at-a-time
    walk did."""
    import drotree.solver as solver_module

    runs = []
    for one_at_a_time in (False, True):
        with monkeypatch.context() as mp:
            if one_at_a_time:
                mp.setattr(solver_module, "solve_lps",
                           lambda lps, keep=False: [solve_lp(lp, keep)
                                                    for lp in lps])
            runs.append([_outcome_bits(solve(tree)) for solve in
                         (solve_benders, solve_extensive)])
    assert runs[0] == runs[1]
