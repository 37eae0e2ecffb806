import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from drotree.effectiveness import (
    EFFECTIVE,
    INEFFECTIVE,
    UNIDENTIFIED,
    CondLabel,
    classification_report,
    classify_node_children,
    classify_paths,
    classify_tree,
    sweep_point,
    to_dot,
)
from drotree.errors import NotSolved, StageOutOfRange
from drotree.gen import gen_water_analog
from drotree.oracle import (PATHS, RemovalSet, assess_paths, check_labels,
                            identified_labels)
from drotree.solver import SolveOutcome, solve_extensive
from drotree.tree import from_dict, with_uniform_gamma
from drotree.tvrisk import (
    FiniteDist,
    worst_case_expectation,
    worst_case_expectation_restricted,
)

from helpers import chain_tree, leaf_value_tree


def fake_outcome(q_values):
    # classification only reads q_values; everything else is filler
    return SolveOutcome(0.0, {}, dict(q_values), {}, "fake")


def two_stage_labels(values, q=None, gamma=0.5, c2_rule="c1_plus_c2"):
    tree = leaf_value_tree(values, q=q, gamma=gamma)
    out = fake_outcome({f"l{k}": float(v) for k, v in enumerate(values)})
    return classify_node_children(tree, out, "r", c2_rule)


def test_rule_table_uniform_midrange():
    # default rule: cumulative mass at the quantile is 2/3 > 1/2 and the
    # quantile group is a singleton, so the middle child is effective
    labs = two_stage_labels([1.0, 2.0, 3.0], gamma=0.5)
    assert [c.label for c in labs] == [INEFFECTIVE, EFFECTIVE, EFFECTIVE]
    assert [c.category for c in labs] == ["C1", "C2", "C4"]
    assert labs[0].reason == "below-var"
    assert labs[1].reason == "at-var-singleton-above-gamma"
    assert labs[2].reason == "at-sup"


def test_sup_ties_need_a_static_drop():
    # two children tie at the sup. With plenty of nominal mass below,
    # removing either one still strictly shrinks the worst case, so both
    # stay effective; with nothing below (b=2 tie) the worst case is
    # unchanged by a removal and nothing may be claimed.
    labs = two_stage_labels([0.0, 5.0, 5.0], q=[0.8, 0.1, 0.1], gamma=0.3)
    assert [c.label for c in labs[1:]] == [EFFECTIVE, EFFECTIVE]
    assert [c.reason for c in labs[1:]] == ["at-sup-tie-drop"] * 2

    labs = two_stage_labels([5.0, 5.0], q=[0.4, 0.6], gamma=0.7)
    assert [c.label for c in labs] == [UNIDENTIFIED, UNIDENTIFIED]
    assert [c.reason for c in labs] == ["at-sup-tie"] * 2
    # the static certificate matches the arithmetic: with the tie the
    # restricted ball still reaches the sup
    dist = FiniteDist([0.0, 5.0, 5.0], [0.8, 0.1, 0.1])
    base = worst_case_expectation(dist, 0.3).value
    res = worst_case_expectation_restricted(dist, 0.3, {1})
    assert base == pytest.approx(2.5) and res.value == pytest.approx(2.0)


def test_sup_tie_with_heavy_child_is_effective_by_convention():
    # a tied sup child whose own mass exceeds the radius cannot be
    # removed at all, so the convention labels it effective
    labs = two_stage_labels([0.0, 5.0, 5.0], q=[0.2, 0.5, 0.3], gamma=0.3)
    assert labs[1].label == EFFECTIVE
    assert labs[1].reason == "removal-infeasible"
    assert labs[2].label == EFFECTIVE  # 0.3 <= gamma but the drop is real


def test_rule_table_var_boundary():
    # radius exactly the lowest child's mass: quantile sits on that child,
    # whose group mass equals the radius, so it is identifiably ineffective
    labs = two_stage_labels([1.0, 2.0, 3.0], gamma=1.0 / 3.0)
    assert [c.label for c in labs] == [INEFFECTIVE, EFFECTIVE, EFFECTIVE]
    assert [c.category for c in labs] == ["C2", "C3", "C4"]


def test_group_mass_variant_leaves_singleton_unresolved():
    # literal summary-table reading: the at-quantile group's own mass
    # (1/3) neither matches the radius nor clears it, so unresolved
    labs = two_stage_labels([1.0, 2.0, 3.0], gamma=0.5, c2_rule="c2_only")
    assert [c.label for c in labs] == [INEFFECTIVE, UNIDENTIFIED, EFFECTIVE]
    assert labs[1].reason == "at-var-residual"


def test_knife_edge_where_rules_split():
    # group mass at the quantile equals the radius exactly while children
    # strictly below exist. The group-mass reading calls the middle child
    # ineffective; removing it actually lowers the worst case, which the
    # default cumulative rule gets right. This knife edge is why the
    # cumulative rule is the default.
    values, q, gamma = [1.0, 2.0, 3.0], [0.2, 0.5, 0.3], 0.5
    group = two_stage_labels(values, q=q, gamma=gamma, c2_rule="c2_only")
    default = two_stage_labels(values, q=q, gamma=gamma)
    assert group[1].label == INEFFECTIVE
    assert default[1].label == EFFECTIVE

    dist = FiniteDist(values, q)
    base = worst_case_expectation(dist, gamma).value
    restr = worst_case_expectation_restricted(dist, gamma, frozenset({1}))
    assert base == pytest.approx(2.8)
    assert restr.value == pytest.approx(2.6)


@pytest.mark.parametrize("eps, label, reason", [
    (2e-10, EFFECTIVE, "at-var-singleton-above-gamma"),
    (5e-10, EFFECTIVE, "at-var-singleton-above-gamma"),
    (5e-11, INEFFECTIVE, "at-var-mass-equals-gamma"),
])
def test_knife_edge_mass_rule_defers_to_the_emptiness_rule(eps, label, reason):
    # "mass equals gamma" and the emptiness rule share the 1e-10 removal
    # tolerance: within it l0 is Ineffective; beyond it its removal
    # empties the ball, so the oracle finds it infeasible, hence Effective
    tree = leaf_value_tree([1.0, 2.0], q=[0.3 + eps, 0.7 - eps], gamma=0.3)
    out = solve_extensive(tree)
    cond = classify_tree(tree, out)
    assert (cond["l0"].label, cond["l0"].reason) == (label, reason)
    records = check_labels(tree, out,
                           identified_labels(cond, classify_paths(tree, out)))
    assert len(records) == 4
    assert all(r["agree"] for r in records)
    assert [r["infeasible"] for r in records if r["id"] == "l0"] == \
        [label == EFFECTIVE] * 2


# a hair above the edge: l1's cumulative mass clears gamma by 1e-7, and
# l2's value clears VaR by 1e-8; either removal lowers the worst case by
# less than eff_tolerance, so the oracle calls it Ineffective
HAIR_ABOVE_GAMMA = ([1.0, 2.0, 3.0], [0.2, 0.1 + 1e-7, 0.7 - 1e-7], 0.3)
HAIR_ABOVE_VAR = ([1.0, 2.0, 2.0 + 1e-8, 3.0], [0.25] * 4, 0.5)


@pytest.mark.parametrize("case, node, reason", [
    (HAIR_ABOVE_GAMMA, "l1", "at-var-singleton-above-gamma-no-drop"),
    (HAIR_ABOVE_VAR, "l2", "above-var-no-drop"),
])
def test_effective_proposal_without_a_drop_is_unidentified(case, node,
                                                           reason):
    values, q, gamma = case
    labs = {c.node: c for c in two_stage_labels(values, q=q, gamma=gamma)}
    assert (labs[node].label, labs[node].reason) == (UNIDENTIFIED, reason)
    # every other child keeps the label of the rule table
    assert {c.reason for n, c in labs.items() if n != node} <= \
        {"below-var", "at-var-mass-equals-gamma", "at-sup"}


@st.composite
def near_edge_two_stage(draw):
    """(values, q, gamma) of a two-stage leaf_value_tree with near ties:
    values are a few integer levels nudged by hairs up to 1e-7, sorted,
    and the mass of the lowest k children is gamma plus a hair up to
    1e-7. Apart from the hairs the data are coarse (gamma in twentieths,
    masses in small-integer ratios), so a drop is either hair-sized, far
    below the 1e-6 eff_tolerance floor, or far above it."""
    n = draw(st.integers(2, 4))
    hairs = st.sampled_from([0.0, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7])
    values = sorted(float(draw(st.integers(0, 3))) + draw(hairs)
                    for _ in range(n))
    gamma = draw(st.integers(1, 19)) / 20.0
    k = draw(st.integers(1, n - 1))
    edge = gamma + draw(st.sampled_from(
        [0.0, 5e-11, -5e-11, 2e-10, -2e-10, 1e-9, -1e-9, 1e-7, -1e-7]))
    low = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    high = draw(st.lists(st.integers(1, 4), min_size=n - k, max_size=n - k))
    q = ([edge * w / sum(low) for w in low]
         + [(1.0 - edge) * w / sum(high) for w in high])
    return values, q, gamma


@settings(max_examples=15, deadline=None)
@given(near_edge_two_stage())
@example(HAIR_ABOVE_GAMMA)
@example(HAIR_ABOVE_VAR)
def test_identified_labels_agree_with_the_oracle_near_the_edges(case):
    values, q, gamma = case
    tree = leaf_value_tree(values, q=q, gamma=gamma)
    out = solve_extensive(tree)
    cond = classify_tree(tree, out)
    items = identified_labels(cond, classify_paths(tree, out, cond=cond))
    assert [r for r in check_labels(tree, out, items) if not r["agree"]] == []


def test_sole_child_path_is_effective_by_convention():
    # removing the only child empties its parent's set at any radius,
    # including gamma = 1 where every arc label is Unidentified
    tree = chain_tree(depth=3, gamma=1.0)
    out = solve_extensive(tree)
    assert {c.label for c in classify_tree(tree, out).values()} == \
        {UNIDENTIFIED}
    [path] = classify_paths(tree, out)
    assert (path.leaf, path.label, path.reason) == \
        ("n3", EFFECTIVE, "removal-infeasible")
    res = assess_paths(tree, RemovalSet(PATHS, frozenset({"n3"})), out)
    assert res.infeasible and res.verdict == EFFECTIVE


def test_gamma_boundary_gives_unidentified():
    for g in (0.0, 1.0):
        labs = two_stage_labels([1.0, 2.0, 3.0], gamma=g)
        assert {c.label for c in labs} == {UNIDENTIFIED}
        assert {c.reason for c in labs} == {"gamma-boundary"}


def test_zero_mass_child_gives_unidentified():
    labs = two_stage_labels([1.0, 2.0, 3.0], q=[0.5, 0.5, 0.0])
    assert {c.label for c in labs} == {UNIDENTIFIED}
    assert {c.reason for c in labs} == {"zero-mass-child"}


def test_effective_set_shrinks_with_gamma():
    values = [1.0, 2.0, 3.0, 4.0]
    prev = None
    for g in (0.1, 0.3, 0.5, 0.7, 0.9):
        labs = two_stage_labels(values, gamma=g)
        eff = {c.node for c in labs if c.label == EFFECTIVE}
        if prev is not None:
            assert eff <= prev
        prev = eff


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.floats(-10, 10),
    st.floats(0.05, 0.95),
)
# drops of 7.5e-6 and 1e-5: between the thresholds 1e-6 * max(1, |value|)
# of the shifted and unshifted node values
@example([0.0, 0.0, 0.0, 1e-05], 8.0, 0.5)
@example([0.0, 0.0, 1e-05], 9.0, 0.5)
# a difference or a drop exactly on a band's edge, and a hair past it
@example([0.0, 1e-9], 1.0, 0.5)
@example([1e-9, -5.8e-23], 0.5, 0.5)
@example([0.0, 1e-6], 0.5, 0.5)
@example([1e-6, -1e-15], 5.0, 0.5)
def test_labels_invariant_to_uniform_shift(values, c, gamma):
    tree = leaf_value_tree(values, gamma=gamma)
    base = fake_outcome({f"l{k}": v for k, v in enumerate(values)})
    shifted = fake_outcome({f"l{k}": v + c for k, v in enumerate(values)})
    a = classify_node_children(tree, base, "r")
    b = classify_node_children(tree, shifted, "r")
    assert [x.label for x in a] == [y.label for y in b]
    assert [x.category for x in a] == [y.category for y in b]


def _tiny_three_stage():
    nodes = [{"id": "r", "stage": 1, "parent": None, "q": 1.0, "xi": {}}]
    for p in ("a", "b"):
        nodes.append({"id": p, "stage": 2, "parent": "r", "q": 0.5, "xi": {}})
        for k in (1, 2):
            nodes.append({"id": f"{p}{k}", "stage": 3, "parent": p,
                          "q": 0.5, "xi": {}})
    tpl = {"n_vars": 1, "cost": [0.0], "rows": []}
    return from_dict({"name": "tiny", "stages": 3, "gamma": [0.5, 0.5],
                      "nodes": nodes, "stage_templates": [tpl, tpl, tpl]})


def test_path_labels_combine_arc_labels():
    tree = _tiny_three_stage()
    cond = {
        "a": CondLabel("a", INEFFECTIVE, "C1", "below-var"),
        "b": CondLabel("b", EFFECTIVE, "C4", "at-sup"),
        "a1": CondLabel("a1", UNIDENTIFIED, "C2", "at-var-residual"),
        "a2": CondLabel("a2", EFFECTIVE, "C4", "at-sup"),
        "b1": CondLabel("b1", EFFECTIVE, "C3", "above-var"),
        "b2": CondLabel("b2", UNIDENTIFIED, "C2", "at-var-residual"),
    }
    paths = {p.leaf: p for p in classify_paths(tree, fake_outcome({}), cond=cond)}
    # one ineffective arc settles the path, witnessed by the shallowest
    assert paths["a1"].label == INEFFECTIVE and paths["a1"].witness == "a"
    assert paths["a2"].label == INEFFECTIVE and paths["a2"].witness == "a"
    assert paths["b1"].label == EFFECTIVE and paths["b1"].witness is None
    assert paths["b2"].label == UNIDENTIFIED and paths["b2"].witness is None


def test_water_high_radius_single_effective_path():
    tree = with_uniform_gamma(gen_water_analog(seed=0), 0.9)
    out = solve_extensive(tree)
    paths = classify_paths(tree, out)
    eff = [p for p in paths if p.label == EFFECTIVE]
    assert [p.leaf for p in eff] == ["LHD-LHD"]
    assert all(p.label == INEFFECTIVE for p in paths if p.leaf != "LHD-LHD")
    # witnesses sit as shallow as possible
    by_leaf = {p.leaf: p for p in paths}
    assert by_leaf["LLN-LLN"].witness == "LLN"
    assert by_leaf["LHD-LLN"].witness == "LHD-LLN"


def test_heavy_leaf_path_is_effective_by_convention():
    # leaf mass above the last-stage radius: the singleton path removal
    # empties the restricted ambiguity set, so the path is effective by
    # the +inf convention even though an upstream arc is ineffective
    from drotree.gen import gen_random

    tree = with_uniform_gamma(gen_random(seed=1, T=3, branching=2), 0.7)
    out = solve_extensive(tree)
    heavy = [l for l in tree.leaves()
             if tree.node(l).q_cond > tree.gamma_for_children_of(tree.parent(l))]
    assert "n5" in heavy
    by_leaf = {p.leaf: p for p in classify_paths(tree, out)}
    for leaf in heavy:
        assert by_leaf[leaf].label == EFFECTIVE
        assert by_leaf[leaf].reason == "removal-infeasible"
    # and the upstream arc really is ineffective, which the plain arc
    # rule would have propagated
    assert classify_tree(tree, out)["n2"].label == INEFFECTIVE
    assert tree.path("n5") == ["n0", "n2", "n5"]


def test_report_shape_and_determinism():
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    reports = []
    for _ in range(2):
        out = solve_extensive(tree)
        reports.append(json.dumps(classification_report(tree, out)))
    assert reports[0] == reports[1]

    rep = json.loads(reports[0])
    assert [n["id"] for n in rep["nodes"]] == ["l0", "l1", "l2"]
    assert rep["nodes"][0]["cond_label"] == INEFFECTIVE
    assert rep["summary"]["n_effective_paths"] == 2
    assert rep["summary"]["n_ineffective"] == 1
    assert rep["summary"]["n_unidentified"] == 0
    assert rep["summary"]["unidentified_node_fraction"] == 0.0
    assert rep["c2_mass_rule"] == "c1_plus_c2"


def test_dot_styles_follow_labels():
    tree = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    out = solve_extensive(tree)
    dot = to_dot(tree, classify_tree(tree, out))
    assert dot.startswith("digraph")
    assert '"r" -> "l0" [style=dotted penwidth=1];' in dot
    assert '"r" -> "l1" [style=solid penwidth=2];' in dot
    assert '"r" -> "l2" [style=solid penwidth=2];' in dot
    # the unresolved thin-solid style under the group-mass reading
    out = solve_extensive(tree)
    cond = classify_tree(tree, out, "c2_only")
    dot = to_dot(tree, cond)
    assert '"r" -> "l1" [style=solid penwidth=1];' in dot


def test_errors():
    tree = leaf_value_tree([1.0, 2.0])
    with pytest.raises(StageOutOfRange):
        classify_node_children(tree, fake_outcome({"l0": 1.0}), "l0")
    with pytest.raises(NotSolved):
        classify_node_children(tree, fake_outcome({}), "r")
    with pytest.raises(ValueError):
        classify_node_children(tree, fake_outcome({"l0": 1.0, "l1": 2.0}),
                               "r", c2_rule="nonsense")


def test_sweep_point_regammas_solves_and_labels():
    base = leaf_value_tree([1.0, 2.0, 3.0], gamma=0.5)
    out, paths = sweep_point(base, 0.2)
    tree = with_uniform_gamma(base, 0.2)
    want = solve_extensive(tree)
    assert out.objective == want.objective
    assert out.q_values == want.q_values
    assert paths == classify_paths(tree, want)
    assert base.gamma == (0.5,)


def test_report_from_given_labels_matches_its_own():
    tree = gen_water_analog(0, 0.95)
    out = solve_extensive(tree)
    for rule in ("c1_plus_c2", "c2_only"):
        cond = classify_tree(tree, out, rule)
        paths = classify_paths(tree, out, rule, cond)
        assert classification_report(tree, out, rule, cond, paths) == \
            classification_report(tree, out, rule)


def test_benchmark_call_forms_keep_their_labels():
    """The forms bench/ calls: the rule slot of classify_paths is None
    and never read when cond is given, and the other two take the
    default rule. On water they give the labels they gave before the
    rule became a plain string."""
    tree = gen_water_analog(0, 0.95)
    out = solve_extensive(tree)
    cond = classify_tree(tree, out)
    assert cond == classify_tree(tree, out, "c1_plus_c2")
    paths = classify_paths(tree, out, None, cond)
    assert paths == classify_paths(tree, out, "c1_plus_c2")
    assert Counter((c.label, c.reason) for c in cond.values()) == {
        (INEFFECTIVE, "below-var"): 63, (EFFECTIVE, "at-sup"): 9}
    assert Counter(p.label for p in paths) == {INEFFECTIVE: 63, EFFECTIVE: 1}
    rep = classification_report(tree, out)
    assert rep == classification_report(tree, out, "c1_plus_c2", cond, paths)
    assert rep["c2_mass_rule"] == "c1_plus_c2"
