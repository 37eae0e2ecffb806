import dataclasses
import math

import numpy as np
import pytest

import drotree.oracle as oracle
import drotree.solver as solver_module
from drotree.effectiveness import (
    EFFECTIVE,
    INEFFECTIVE,
    UNIDENTIFIED,
    ClassifierSettings,
    classify_paths,
    classify_tree,
)
from drotree.errors import (
    InstanceInfeasible,
    InvalidRemoval,
    NotSolved,
    NumericalBreakdown,
    UnknownNode,
)
from drotree.gen import gen_random
from drotree.lp import solve_lp
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
from drotree.solver import (SolveOutcome, build_extensive, solve_benders,
                            solve_extensive)
from drotree.tree import with_uniform_gamma
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


def _spy(monkeypatch, name):
    """Count calls of one name the oracle module uses."""
    calls = []
    real = getattr(oracle, name)

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, name, wrapper)
    return calls


def test_benders_decides_without_an_extensive_lp(monkeypatch):
    tree = with_uniform_gamma(gen_random(seed=11, T=3, branching=3), 0.4)
    out = solve_extensive(tree)
    leaf = tree.leaves()[0]
    node = tree.stage_nodes(3)[0]
    parent = tree.parent(node)
    want = {
        "path": solve_lp(build_extensive(
            tree, removals={tree.parent(leaf): {leaf}})[0]).objective_value,
        "cond": solve_lp(build_extensive(
            tree, removals={parent: {node}}, root=parent,
            fixed_incoming=out.policy[tree.parent(parent)])[0]
        ).objective_value,
    }
    builds = _spy(monkeypatch, "build_extensive")
    got = {"path": assess_paths(tree, paths(leaf), out),
           "cond": assess_realizations(tree, reals(node), out)[parent]}
    assert builds == []
    for key, res in got.items():
        assert res.value == pytest.approx(want[key], rel=1e-9)
        assert (res.verdict, res.borderline) == _verdict(
            want[key], res.baseline)[1:]


@pytest.mark.parametrize("undecided", ["straddles", "not_converged",
                                       "infeasible"])
def test_root_lp_decides_when_benders_cannot(monkeypatch, undecided):
    # worked example: the restricted optimum is 16/6 against 17/6
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    out = solve_extensive(tree)

    def fake_benders(*args, **kwargs):
        ben = solve_benders(*args, **kwargs)
        if undecided == "straddles":
            # bracket [value, baseline]: Effective at one end only
            return dataclasses.replace(ben, objective=out.objective, gap=0.0)
        if undecided == "not_converged":
            return dataclasses.replace(ben, gap=1.0)
        raise InstanceInfeasible("benders gave up")

    monkeypatch.setattr(oracle, "solve_benders", fake_benders)
    builds = _spy(monkeypatch, "build_extensive")
    r = assess_paths(tree, paths("l1"), out)
    cond = assess_realizations(tree, reals("l1"), out)["r"]
    assert len(builds) == 2
    for res in (r, cond):
        assert res.value == pytest.approx(16 / 6, abs=1e-12)
        assert res.verdict == EFFECTIVE and not res.infeasible


def test_check_labels_records_each_identified_label():
    # the knife edge of the c2_only rule: it calls l1 ineffective, yet
    # removing l1 drops the value 2.8 -> 2.6
    tree = leaf_value_tree([1.0, 2.0, 3.0], q=[0.2, 0.5, 0.3])
    out = solve_extensive(tree)
    rule = ClassifierSettings("c2_only")
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
