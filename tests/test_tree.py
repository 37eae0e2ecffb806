import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drotree.errors import (
    ParseError,
    StageOutOfRange,
    UnknownNode,
    ValidationError,
)
from drotree.tree import ScenarioTree, from_dict, to_dict, with_uniform_gamma

from helpers import (chain_tree, leaf_value_tree, minimal_dict,
                     path_probability, project)


def test_round_trip():
    d = minimal_dict()
    tree = from_dict(d)
    again = from_dict(to_dict(tree))
    assert to_dict(tree) == to_dict(again)
    assert tree.T == 2
    assert tree.root() == "a"
    assert tree.leaves() == ["b", "c"]


def test_children_in_file_order():
    tree = leaf_value_tree([5.0, 1.0, 3.0])
    assert tree.children("r") == ["l0", "l1", "l2"]


def test_bad_q_sum_names_node():
    d = minimal_dict()
    d["nodes"][2]["q"] = 0.3  # children of "a" now sum to 0.9
    with pytest.raises(ValidationError, match="'a'"):
        from_dict(d)


def test_single_child_is_legal_but_bare_root_is_not():
    d = minimal_dict()
    d["nodes"] = d["nodes"][:2]
    d["nodes"][1]["q"] = 1.0
    tree = from_dict(d)
    assert tree.leaves() == ["b"]

    d = minimal_dict()
    del d["nodes"][1:]  # root alone: internal node with no children
    with pytest.raises(ValidationError):
        from_dict(d)


def test_parent_stage_consistency():
    d = minimal_dict(stages=3, gamma=[0.5, 0.5])
    d["stage_templates"].append(d["stage_templates"][1])
    d["nodes"].append({"id": "z", "stage": 3, "parent": "a", "q": 1.0,
                       "xi": {"d": 0.0}})
    with pytest.raises(ValidationError, match="'z'"):
        from_dict(d)


def test_gamma_length_and_range():
    with pytest.raises(ValidationError):
        from_dict(minimal_dict(gamma=[0.5, 0.5]))
    with pytest.raises(ValidationError):
        from_dict(minimal_dict(gamma=[1.5]))


def test_stage_one_template_cannot_link():
    d = minimal_dict()
    d["stage_templates"][0]["rows"] = [{"self": {"0": 1.0}, "link": {"0": 1.0},
                                        "sense": ">=", "rhs": 0.0}]
    with pytest.raises(ValidationError):
        from_dict(d)


def test_link_index_bounded_by_previous_stage():
    d = minimal_dict()
    d["stage_templates"][1]["rows"][0]["link"] = {"3": 1.0}
    with pytest.raises(ValidationError):
        from_dict(d)


def test_parse_error_on_malformed():
    with pytest.raises(ParseError):
        from_dict({"name": "x"})
    with pytest.raises(ParseError):
        from_dict(minimal_dict(nodes="nope"))


def test_queries_and_errors():
    tree = chain_tree(depth=4)
    assert project(tree, "n4", 2) == "n2"
    assert project(tree, "n4", 4) == "n4"
    assert tree.path("n3") == ["n1", "n2", "n3"]
    with pytest.raises(UnknownNode):
        tree.node("missing")
    with pytest.raises(StageOutOfRange):
        tree.stage_nodes(5)
    with pytest.raises(StageOutOfRange):
        project(tree, "n4", 0)
    with pytest.raises(StageOutOfRange):
        project(tree, "n2", 3)


def test_gamma_for_children_and_q_children():
    tree = leaf_value_tree([1.0, 2.0, 3.0], q=[0.2, 0.5, 0.3], gamma=0.25)
    assert tree.gamma_for_children_of("r") == 0.25
    assert np.allclose(tree.q_children("r"), [0.2, 0.5, 0.3])
    with pytest.raises(StageOutOfRange):
        tree.gamma_for_children_of("l0")


def test_with_uniform_gamma():
    tree = chain_tree(depth=3, gamma=0.5)
    bumped = with_uniform_gamma(tree, 0.9)
    assert bumped.gamma == (0.9, 0.9)
    assert tree.gamma == (0.5, 0.5)  # original untouched
    assert bumped.leaves() == tree.leaves()


def _random_tree(rng: np.random.Generator) -> ScenarioTree:
    T = int(rng.integers(2, 5))
    nodes = [{"id": "n0", "stage": 1, "parent": None, "q": 1.0, "xi": {}}]
    frontier = ["n0"]
    serial = 1
    for t in range(2, T + 1):
        nxt = []
        for pid in frontier:
            k = int(rng.integers(1, 4))
            w = rng.uniform(0.1, 1.0, size=k)
            w /= w.sum()
            # force exact unit mass in floating point
            w[-1] = 1.0 - w[:-1].sum()
            for j in range(k):
                nid = f"n{serial}"
                serial += 1
                nodes.append({"id": nid, "stage": t, "parent": pid,
                              "q": float(w[j]), "xi": {"d": float(rng.uniform())}})
                nxt.append(nid)
        frontier = nxt
    templates = [{"n_vars": 1, "cost": [1.0], "rows": []}]
    for _ in range(T - 1):
        templates.append({"n_vars": 1, "cost": [1.0],
                          "rows": [{"self": {"0": 1.0}, "link": {},
                                    "sense": ">=", "rhs": {"xi": "d"}}]})
    return from_dict({"name": "rand", "stages": T,
                      "gamma": [0.5] * (T - 1), "nodes": nodes,
                      "stage_templates": templates})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_path_probabilities_sum_to_one(seed):
    tree = _random_tree(np.random.default_rng(seed))
    total = sum(path_probability(tree, leaf) for leaf in tree.leaves())
    assert abs(total - 1.0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_project_is_consistent_with_parent(seed):
    tree = _random_tree(np.random.default_rng(seed))
    for leaf in tree.leaves():
        stage = tree.node(leaf).stage
        for t in range(2, stage + 1):
            anc = project(tree, leaf, t)
            assert tree.parent(anc) == project(tree, leaf, t - 1)
        assert project(tree, leaf, 1) == tree.root()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_children_and_parent_are_inverse(seed):
    tree = _random_tree(np.random.default_rng(seed))
    for node in tree.nodes:
        for cid in tree.children(node.id):
            assert tree.parent(cid) == node.id
        if node.parent is not None:
            assert node.id in tree.children(node.parent)


def test_subtree_ids_covers_descendants():
    tree = chain_tree(depth=3)
    assert tree.subtree_ids("n2") == ["n2", "n3"]
    assert tree.subtree_ids("n1") == ["n1", "n2", "n3"]
    # children listed before their parents: same sets, still file order
    d = to_dict(tree)
    d["nodes"] = d["nodes"][::-1]
    flipped = from_dict(d)
    assert flipped.subtree_ids("n1") == ["n3", "n2", "n1"]
    assert flipped.subtree_ids("n2") == ["n3", "n2"]
    with pytest.raises(UnknownNode):
        flipped.subtree_ids("ghost")


def test_load_instance_from_file(tmp_path):
    p = tmp_path / "mini.json"
    p.write_text(json.dumps(minimal_dict()))
    from drotree.tree import load_instance

    tree = load_instance(str(p))
    assert tree.name == "mini"
    with pytest.raises(ParseError):
        load_instance(str(tmp_path / "absent.json"))
