import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import drotree.lp as lpmod
import drotree.oracle as oracle
import drotree.solver as solver_module
from drotree.effectiveness import (
    EFFECTIVE,
    INEFFECTIVE,
    UNIDENTIFIED,
    classify_paths,
    classify_tree,
    eff_tolerance,
)
from drotree.errors import (
    InstanceInfeasible,
    InvalidRemoval,
    NotSolved,
    NumericalBreakdown,
    UnknownNode,
)
from drotree.gen import gen_random, gen_water_analog
from drotree.lp import OPTIMAL, solve_lp
from drotree.oracle import (
    PATHS,
    REALIZATIONS,
    RemovalSet,
    _verdict,
    assess_paths,
    assess_realizations,
    assessment_json,
    check_labels,
    identified_labels,
)
from drotree.solver import (SolveOutcome, build_extensive, check_removals,
                            solve_benders, solve_extensive)
from drotree.tree import ScenarioTree, with_uniform_gamma
from drotree.tvrisk import FiniteDist, worst_case_expectation

from helpers import (leaf_value_tree, policy_value_under_removal,
                     verify_monotonicity, verify_union_intersection)


def paths(*ids):
    return RemovalSet(PATHS, frozenset(ids))


def reals(*ids):
    return RemovalSet(REALIZATIONS, frozenset(ids))


def test_worked_three_value_example():
    # uniform {1,2,3} at radius 1/2: worst case 17/6; dropping the middle
    # child forces its third of mass out, leaving 16/6
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    out = solve_extensive(tree)
    assert out.objective == pytest.approx(17 / 6)

    r = assess_paths(tree, paths("l1"), out)
    assert r.value == pytest.approx(16 / 6)
    assert r.baseline == pytest.approx(17 / 6)
    assert r.verdict == EFFECTIVE and not r.infeasible and not r.borderline

    cond = assess_realizations(tree, reals("l1"), out)
    assert set(cond) == {"r"}
    assert cond["r"].value == pytest.approx(16 / 6)
    assert cond["r"].verdict == EFFECTIVE


def test_remove_everything_is_infeasible_hence_effective():
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    out = solve_extensive(tree)
    for removal in (paths("l0", "l1", "l2"), paths("l0", "l1")):
        # removed mass 1 or 2/3 both exceed the radius 1/2
        r = assess_paths(tree, removal, out)
        assert r.infeasible and r.value == math.inf
        assert r.verdict == EFFECTIVE
    cond = assess_realizations(tree, reals("l0", "l1", "l2"), out)
    assert cond["r"].infeasible and cond["r"].verdict == EFFECTIVE


def test_removed_mass_rounding_above_radius_is_admitted():
    # removed mass 0.1 + 0.2 = 0.30000000000000004 against radius 0.3:
    # admitted by the removal tolerance, and every route agrees on the
    # restricted optimum 3.7, which equals the unrestricted one
    tree = leaf_value_tree([1.0, 2.0, 3.0, 4.0], q=[0.1, 0.2, 0.3, 0.4],
                           gamma=0.3)
    closed = worst_case_expectation(
        FiniteDist(np.array([1.0, 2.0, 3.0, 4.0]),
                   np.array([0.1, 0.2, 0.3, 0.4])), 0.3, {0, 1})
    assert closed.dist == pytest.approx([0.0, 0.0, 0.3, 0.7], abs=1e-15)
    removals = {"r": {"l0", "l1"}}
    root_lp = solve_lp(build_extensive(tree, removals=removals)[0])
    ben = solve_benders(tree, removals=removals)
    res = assess_paths(tree, paths("l0", "l1"))
    for value in (closed.value, root_lp.objective_value, ben.objective,
                  res.value):
        assert value == pytest.approx(3.7, abs=1e-12)
    assert res.baseline == pytest.approx(3.7, abs=1e-12)
    assert res.verdict == INEFFECTIVE and not res.infeasible


def test_path_baseline_needs_no_policy(monkeypatch):
    def no_policy(*args, **kwargs):
        raise AssertionError("solve_extensive called for a path assessment")

    monkeypatch.setattr(solver_module, "solve_extensive", no_policy)
    monkeypatch.setattr(oracle, "solve_extensive", no_policy, raising=False)
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    res = assess_paths(tree, paths("l1"))
    assert res.baseline == pytest.approx(17 / 6, abs=1e-12)
    assert res.value == pytest.approx(16 / 6, abs=1e-12)
    assert res.verdict == EFFECTIVE


def test_zero_mass_child_only_matters_at_the_sup():
    # q=0 child strictly below the sup: removal cannot bind
    tree = leaf_value_tree([1.0, 2.0, 1.5], q=[0.5, 0.5, 0.0], gamma=0.5)
    out = solve_extensive(tree)
    r = assess_paths(tree, paths("l2"), out)
    assert r.baseline == pytest.approx(2.0)
    assert r.verdict == INEFFECTIVE

    # q=0 child holding the sup: the adversary was using it
    tree = leaf_value_tree([1.0, 2.0, 3.0], q=[0.5, 0.5, 0.0], gamma=0.5)
    out = solve_extensive(tree)
    r = assess_paths(tree, paths("l2"), out)
    assert r.baseline == pytest.approx(2.5)
    assert r.value == pytest.approx(2.0)
    assert r.verdict == EFFECTIVE


def test_sandwich_and_locality_at_fixed_policy():
    tree = with_uniform_gamma(gen_random(seed=11, T=3, branching=3), 0.4)
    out = solve_extensive(tree)
    leaf = tree.leaves()[0]
    grouped = {tree.parent(leaf): {leaf}}

    restricted = solve_lp(build_extensive(tree, removals=grouped)[0])
    frozen = policy_value_under_removal(tree, out.policy, grouped)
    eps = 1e-7 * max(1.0, abs(out.objective))
    # restricted optimum <= original policy under restriction <= baseline
    assert restricted.objective_value <= frozen + eps
    assert frozen <= out.objective + eps

    # with the policy held fixed, nodes off the removed path keep their
    # recorded values exactly
    from drotree.solver import _evaluate
    qv, _ = _evaluate(tree, out.policy, removals=grouped)
    touched = set(tree.path(leaf))
    for nid, val in out.q_values.items():
        if nid not in touched:
            assert qv[nid] == pytest.approx(val, abs=1e-9)


def test_monotonicity_nested_pairs():
    tree = leaf_value_tree([1.0, 2.0, 3.0, 4.0], gamma=0.6)
    out = solve_extensive(tree)
    ok, r1, r2 = verify_monotonicity(tree, paths("l0"), paths("l0", "l1"), out)
    assert ok and r2.value <= r1.value + 1e-8

    ok, r1, r2 = verify_monotonicity(tree, paths("l0"), paths("l0"), out)
    assert ok and r1.value == r2.value

    # larger set infeasible: vacuously fine by the +inf convention
    ok, _, r2 = verify_monotonicity(
        tree, paths("l0"), paths("l0", "l1", "l2", "l3"), out)
    assert ok and r2.infeasible

    with pytest.raises(InvalidRemoval):
        verify_monotonicity(tree, paths("l1"), paths("l0"), out)


def test_union_intersection_subset_closure():
    # radius exactly the lowest child's mass: dropping it re-routes the
    # same mass, dropping the sup child hurts, so verdicts are known
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=1 / 3)
    out = solve_extensive(tree)
    assert out.objective == pytest.approx(8 / 3)
    assert assess_paths(tree, paths("l0"), out).verdict == INEFFECTIVE
    assert assess_paths(tree, paths("l2"), out).verdict == EFFECTIVE

    rep = verify_union_intersection(
        tree, paths("l2"), paths("l0"), paths("l1"), out)
    assert rep["ok"]
    assert rep["union_effective"] and rep["intersection_ineffective"]
    assert rep["subset_ineffective"]

    with pytest.raises(InvalidRemoval):
        verify_union_intersection(
            tree, paths("l0"), paths("l0"), paths("l1"), out)


def test_verdict_bands():
    value, label, borderline = _verdict(1.0 - 3e-6, 1.0)
    assert label == EFFECTIVE and borderline
    value, label, borderline = _verdict(1.0 - 2e-5, 1.0)
    assert label == EFFECTIVE and not borderline
    value, label, borderline = _verdict(1.0 - 5e-7, 1.0)
    assert label == INEFFECTIVE and not borderline
    with pytest.raises(NumericalBreakdown):
        _verdict(1.001, 1.0)


def test_removal_validation():
    tree = leaf_value_tree([1.0, 2.0, 3.0])
    out = solve_extensive(tree)
    with pytest.raises(InvalidRemoval):
        RemovalSet(PATHS, frozenset())
    with pytest.raises(InvalidRemoval):
        RemovalSet("Nodes", frozenset({"l0"}))
    with pytest.raises(InvalidRemoval):
        assess_paths(tree, paths("r"), out)  # not a leaf
    with pytest.raises(InvalidRemoval):
        assess_paths(tree, reals("l0"), out)  # wrong kind
    with pytest.raises(UnknownNode):
        assess_paths(tree, paths("nope"), out)
    with pytest.raises(InvalidRemoval):
        assess_realizations(tree, reals("r"), out)  # root removal
    with pytest.raises(NotSolved):
        assess_realizations(
            tree, reals("l0"), SolveOutcome(0.0, {}, {}, {}, "fake"))


def test_mixed_stage_realizations_rejected():
    tree = with_uniform_gamma(gen_random(seed=3, T=3, branching=2), 0.5)
    out = solve_extensive(tree)
    stage2 = tree.stage_nodes(2)[0]
    leaf = tree.leaves()[-1]
    with pytest.raises(InvalidRemoval):
        assess_realizations(tree, reals(stage2, leaf), out)


def test_realizations_grouped_under_parents_in_file_order():
    tree = with_uniform_gamma(gen_random(seed=3, T=3, branching=2), 0.5)
    parents = tree.stage_nodes(2)
    ids = [tree.children(p)[0] for p in reversed(parents)]
    assert oracle._group_by_parent(tree, ids) == {
        p: frozenset({tree.children(p)[0]}) for p in parents}
    assert list(oracle._group_by_parent(tree, ids)) == parents


def test_classifier_oracle_agreement_smoke():
    # miniature of the acceptance sweep: every identified conditional
    # label must match the re-solve verdict, and every identified path
    # label must match the path re-solve
    for seed in (1, 2):
        for g in (0.3, 0.7):
            tree = with_uniform_gamma(gen_random(seed=seed, T=3, branching=2), g)
            out = solve_extensive(tree)
            cond = classify_tree(tree, out)
            for nid, cl in cond.items():
                if cl.label == UNIDENTIFIED:
                    continue
                got = assess_realizations(tree, reals(nid), out)
                assert got[tree.parent(nid)].verdict == cl.label, (
                    f"seed {seed} gamma {g} node {nid}")
            for pl in classify_paths(tree, out, cond=cond):
                if pl.label == UNIDENTIFIED:
                    continue
                got = assess_paths(tree, paths(pl.leaf), out)
                assert got.verdict == pl.label, (
                    f"seed {seed} gamma {g} leaf {pl.leaf}")


def test_assessment_json_shape():
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    out = solve_extensive(tree)
    r = assess_paths(tree, paths("l0", "l1"), out)
    blob = assessment_json(paths("l0", "l1"), r)
    assert blob["value"] is None and blob["infeasible"]
    assert blob["removal"] == {"kind": PATHS, "ids": ["l0", "l1"]}
    r = assess_paths(tree, paths("l1"), out)
    blob = assessment_json(paths("l1"), r)
    assert blob["value"] == pytest.approx(16 / 6)
    assert blob["verdict"] == EFFECTIVE


def test_check_labels_records_each_identified_label():
    # the knife edge of the c2_only rule: it calls l1 ineffective, yet
    # removing l1 drops the value 2.8 -> 2.6
    tree = leaf_value_tree([1.0, 2.0, 3.0], q=[0.2, 0.5, 0.3])
    out = solve_extensive(tree)
    rule = "c2_only"
    cond = classify_tree(tree, out, rule)
    items = identified_labels(cond, classify_paths(tree, out, rule, cond))
    labels = [INEFFECTIVE, INEFFECTIVE, EFFECTIVE]
    assert items == [("cond", f"l{k}", lab) for k, lab in enumerate(labels)] \
        + [("path", f"l{k}", lab) for k, lab in enumerate(labels)]
    records = check_labels(tree, out, items)
    assert all(list(r) == ["kind", "id", "label", "verdict", "agree",
                           "value", "baseline", "infeasible"]
               for r in records)
    assert [(r["kind"], r["id"], r["label"]) for r in records] == items
    assert [r["agree"] for r in records] == [True, False, True] * 2
    assert [r["value"] for r in records] == pytest.approx([2.8, 2.6, 2.0] * 2)

    # children tied at the sup stay Unidentified, so nothing is checked
    tied = leaf_value_tree([2.0, 2.0, 2.0])
    out = solve_extensive(tied)
    cond = classify_tree(tied, out)
    assert identified_labels(cond, classify_paths(tied, out, cond=cond)) == []


def _every_check(tree, out):
    """One realization check per non-root node and one path check per
    leaf: (removals, root, incoming, result, pivots, phase-1 runs), the
    last two counted over the check."""
    counts = [0, 0]
    pivot, phase1_failed = lpmod._pivot, lpmod._phase1_failed

    def counting_pivot(*args):
        counts[0] += 1
        return pivot(*args)

    def counting_phase1(*args):
        counts[1] += 1
        return phase1_failed(*args)

    def restricted_build(tree, removals=None, **kwargs):
        assert not removals, "an oracle check built a restricted LP"
        return build_extensive(tree, **kwargs)

    checks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod, "_pivot", counting_pivot)
        mp.setattr(lpmod, "_phase1_failed", counting_phase1)
        mp.setattr(solver_module, "build_extensive", restricted_build)
        for nid in [n.id for n in tree.nodes][1:]:
            parent, before = tree.parent(nid), list(counts)
            grand = tree.parent(parent)
            res = assess_realizations(tree, reals(nid), out)[parent]
            checks.append(({parent: {nid}}, parent,
                           None if grand is None else out.policy[grand],
                           res, counts[0] - before[0], counts[1] - before[1]))
        for leaf in tree.leaves():
            before = list(counts)
            res = assess_paths(tree, paths(leaf), out)
            checks.append(({tree.parent(leaf): {leaf}}, None, None, res,
                           counts[0] - before[0], counts[1] - before[1]))
    return checks


def _cold(tree, removals, root, incoming):
    """The restricted LP of a check, built and solved from scratch."""
    return solve_lp(build_extensive(tree, removals=removals, root=root,
                                    fixed_incoming=incoming)[0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.floats(0.1, 0.9))
@example(1, 3, 0.5)   # 7 of its 21 checks keep the basis, 2 are empty
def test_property_certified_checks_match_the_restricted_lp(seed, branching,
                                                           gamma):
    """A check that takes no pivot either empties its ball (infeasible,
    Effective) or keeps the baseline's optimal basis; then the restricted
    LP solved from scratch has the baseline's verdict and lies within
    eff_tolerance of the baseline."""
    tree = gen_random(seed, T=3, branching=branching, gamma=gamma)
    out = solve_extensive(tree)
    for removals, root, incoming, res, pivots, _ in _every_check(tree, out):
        if pivots:
            continue
        try:
            check_removals(tree, removals)
        except InstanceInfeasible:
            assert res.infeasible and res.verdict == EFFECTIVE
            continue
        assert (res.value, res.verdict, res.infeasible, res.borderline) == (
            res.baseline, INEFFECTIVE, False, False)
        want = _cold(tree, removals, root, incoming)
        assert want.status == OPTIMAL
        assert _verdict(want.objective_value, res.baseline)[1:] == (
            INEFFECTIVE, False)
        assert abs(res.baseline - want.objective_value) <= eff_tolerance(
            res.baseline)


@settings(max_examples=12, deadline=None)
@given(st.one_of(st.none(), st.tuples(st.integers(0, 10**6),
                                      st.sampled_from([2, 3]),
                                      st.floats(0.1, 0.9))))
def test_property_warm_checks_match_the_cold_restricted_lp(spec):
    """Every check on water (spec None) or a gen_random tree re-solves
    warm, with no phase 1 and no restricted LP built: its value is the
    cold restricted LP's within 1e-12 relative (the baseline's when it
    takes no pivot), with the same verdict and flags. Checks against a
    copy of the outcome with no states solve their own baseline LPs and
    give the same bits."""
    tree = (gen_water_analog(0, gamma=0.95) if spec is None
            else gen_random(spec[0], T=3, branching=spec[1], gamma=spec[2]))
    out = solve_extensive(tree)
    warm = _every_check(tree, out)
    fresh = _every_check(tree, dataclasses.replace(out, states={}))
    for (removals, root, incoming, res, _, phase1), again in zip(warm, fresh):
        assert phase1 == 0
        assert again[3] == res
        if res.infeasible:
            continue
        want = _cold(tree, removals, root, incoming).objective_value
        assert abs(res.value - want) <= 1e-12 * max(1.0, abs(want))
        assert _verdict(want, res.baseline)[1:] == (res.verdict,
                                                    res.borderline)
    # the copy's checks solve each baseline LP they need once
    assert sum(check[5] for check in fresh) == _baseline_lps(tree, fresh)


def _baseline_lps(tree, checks) -> int:
    """How many baseline LPs the checks that empty no ball need: one per
    node whose LP they re-solve, the root's for a path check."""
    return len({root or tree.root()
                for _, root, _, res, _, _ in checks if not res.infeasible})


def test_benders_outcome_keeps_resolving():
    """A Benders outcome has no kept states, so its checks solve their
    own baseline LPs, each once, and re-solve warm from them."""
    tree = with_uniform_gamma(gen_random(seed=11, T=3, branching=3), 0.4)
    ben = solve_benders(tree)
    checks = _every_check(tree, ben)
    assert sum(phase1 for *_, phase1 in checks) == \
        _baseline_lps(tree, checks) == 1 + len(tree.stage_nodes(2))
    for removals, root, incoming, res, _, _ in checks:
        if not res.infeasible:
            want = _cold(tree, removals, root, incoming).objective_value
            assert _verdict(want, res.baseline)[1:] == (res.verdict,
                                                        res.borderline)


def test_outcome_keeps_its_states_across_another_solve(monkeypatch):
    """The baseline LPs live as long as their outcome: checks on one
    tree's outcome, run after solving another tree, solve no LP and give
    the results of checks on a new solve."""
    tree = gen_random(seed=1, T=3, branching=3, gamma=0.5)
    out = solve_extensive(tree)
    solve_extensive(gen_random(seed=2, T=3, branching=2))
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(solver_module, "solve_lp", lambda *args, **kwargs:
                   calls.append(args) or solve_lp(*args, **kwargs))
        checks = _every_check(tree, out)
    assert calls == []
    again = _every_check(tree, solve_extensive(tree))
    assert [c[3] for c in checks] == [c[3] for c in again]


def test_water_labels_are_checked_warm():
    """Water's 136 identified labels are checked with no LP solved: 34
    pivots in all, against 641 over the 11 restricted LPs that zero
    duals could not decide; a check with no pivot reports the
    baseline."""
    tree = gen_water_analog(0, gamma=0.95)
    out = solve_extensive(tree)
    cond = classify_tree(tree, out)
    items = identified_labels(cond, classify_paths(tree, out, cond=cond))
    assert len(items) == 136
    checks = {("cond" if root else "path", next(iter(*removals.values()))):
              (res, pivots, phase1)
              for removals, root, _, res, pivots, phase1
              in _every_check(tree, out)}
    assert sum(checks[kind, nid][1] for kind, nid, _ in items) == 34
    for kind, nid, label in items:
        res, pivots, phase1 = checks[kind, nid]
        assert res.verdict == label and phase1 == 0, (kind, nid)
        if not pivots:
            assert (res.verdict, res.value) == (INEFFECTIVE, res.baseline)


def _siblings_shuffled(tree, rnd):
    """The same tree with each node's children listed in another order."""
    key = {n.id: rnd.random() for n in tree.nodes}
    nodes = sorted(tree.nodes, key=lambda n: (n.stage, key[n.id]))
    return ScenarioTree(tree.name, tree.T, tuple(nodes), tree.gamma,
                        tree.stage_templates, dict(tree.meta))


def _everything(tree):
    """Objective, node values, labels, and every check's verdict and
    flags, each keyed by node id."""
    out = solve_extensive(tree)
    cond = classify_tree(tree, out)
    labels = {("cond", nid): cl.label for nid, cl in cond.items()}
    labels.update((("path", p.leaf), p.label)
                  for p in classify_paths(tree, out, cond=cond))
    checks = {(root is None, next(iter(*removals.values()))):
              (res.verdict, res.infeasible, res.borderline)
              for removals, root, _, res, _, _ in _every_check(tree, out)}
    return out, labels, checks


@settings(max_examples=15, deadline=None)
@given(st.one_of(st.none(), st.tuples(st.integers(0, 10**6),
                                      st.sampled_from([2, 3]),
                                      st.floats(0.1, 0.9))),
       st.randoms(use_true_random=False))
def test_property_sibling_order_changes_nothing(spec, rnd):
    """Listing siblings in another order leaves the objective and every
    node value within 1e-9 relative, and every label, oracle verdict and
    flag as they were, on water (spec None) and gen_random trees."""
    tree = (gen_water_analog(0, gamma=0.95) if spec is None
            else gen_random(spec[0], T=3, branching=spec[1], gamma=spec[2]))
    (out, labels, checks), (out2, labels2, checks2) = (
        _everything(t) for t in (tree, _siblings_shuffled(tree, rnd)))
    for nid, v in out.q_values.items():
        assert abs(out2.q_values[nid] - v) <= 1e-9 * max(1.0, abs(v)), nid
    assert abs(out2.objective - out.objective) <= 1e-9 * max(
        1.0, abs(out.objective))
    assert labels2 == labels and checks2 == checks
