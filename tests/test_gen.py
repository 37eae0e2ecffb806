import json

import pytest
from hypothesis import given, settings, strategies as st

from drotree.errors import ParamOutOfRange
from drotree.gen import COMBOS, SplitMix64, gen_random, gen_water_analog
from drotree.tree import to_dict

from helpers import path_probability


def test_splitmix64_reference_vector():
    # first five outputs for seed 0, from the reference implementation
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_splitmix64_float_and_ranges():
    r = SplitMix64(123)
    xs = [r.random() for _ in range(200)]
    assert all(0.0 <= x < 1.0 for x in xs)
    r = SplitMix64(123)
    assert r.uniform(2.0, 3.0) == 2.0 + xs[0]
    r = SplitMix64(5)
    draws = {r.randint(1, 4) for _ in range(100)}
    assert draws == {1, 2, 3, 4}


def test_gen_random_deterministic_bytes():
    a = json.dumps(to_dict(gen_random(1, T=2, branching=2)), sort_keys=True)
    b = json.dumps(to_dict(gen_random(1, T=2, branching=2)), sort_keys=True)
    c = json.dumps(to_dict(gen_random(2, T=2, branching=2)), sort_keys=True)
    assert a == b
    assert a != c


def test_gen_random_parameter_validation():
    with pytest.raises(ParamOutOfRange):
        gen_random(1, T=5)
    with pytest.raises(ParamOutOfRange):
        gen_random(1, branching=0)
    with pytest.raises(ParamOutOfRange):
        gen_random(1, branching=5)
    with pytest.raises(ParamOutOfRange):
        gen_random(1, n_vars=4)
    with pytest.raises(ParamOutOfRange):
        gen_random(1, gamma=1.5)
    with pytest.raises(ParamOutOfRange):
        gen_random(1, T=3, gamma=[0.5])
    with pytest.raises(ParamOutOfRange):
        gen_random(1, dependence=-0.1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]),
       st.integers(1, 4), st.integers(1, 3))
def test_gen_random_output_is_a_valid_tree(seed, T, branching, n_vars):
    # from_dict re-runs all structural validation on the emitted dict
    tree = gen_random(seed, T=T, branching=branching, n_vars=n_vars,
                      gamma=0.3)
    assert tree.T == T
    assert len(tree.leaves()) == branching ** (T - 1)
    total = sum(path_probability(tree, leaf) for leaf in tree.leaves())
    assert abs(total - 1.0) <= 1e-9
    # probabilities bounded away from zero by the weight floor
    for node in tree.nodes:
        if node.parent is not None:
            assert node.q_cond > 0.01


def test_gen_random_dependence_pulls_fields_together():
    free = gen_random(11, T=3, branching=2, dependence=0.0)
    tied = gen_random(11, T=3, branching=2, dependence=1.0)
    leaf = tied.leaves()[0]
    parent = tied.parent(leaf)
    assert tied.node(leaf).xi["c"] == tied.node(parent).xi["c"]
    free_leaf = free.leaves()[0]
    assert free.node(free_leaf).xi["c"] != free.node(free.parent(free_leaf)).xi["c"]


def test_water_analog_shape():
    tree = gen_water_analog(0)
    assert tree.T == 3
    assert len(tree.nodes) == 73
    assert len(tree.leaves()) == 64
    assert sorted(tree.stage_nodes(2)) == sorted(COMBOS)
    assert set(COMBOS) == {s + d + f for s in "LH" for d in "LH" for f in "DN"}
    for combo in COMBOS:
        kids = tree.children(combo)
        assert kids == [f"{combo}-{c}" for c in COMBOS]


def test_water_analog_probabilities():
    tree = gen_water_analog(3)
    assert all(q == 0.125 for q in tree.q_children("root"))
    q3 = dict(zip(tree.children("LHD"), tree.q_children("LHD")))
    assert q3["LHD-LLN"] == 0.03
    assert abs(sum(q3.values()) - 1.0) == 0.0

    flat = gen_water_analog(3, asymmetric=False)
    assert all(q == 0.125 for q in flat.q_children("LHD"))


def test_water_analog_adverse_combination_is_supply_short():
    tree = gen_water_analog(0)
    xi = tree.node("LHD").xi
    assert xi["D"] > xi["S"]          # demand exceeds supply
    assert xi["R"] == 0.0             # and the plant is down
    xi = tree.node("LLN").xi
    assert xi["D"] < xi["S"]
    assert xi["R"] > 0.0


def test_water_analog_deterministic_and_seed_sensitive():
    a = json.dumps(to_dict(gen_water_analog(0)), sort_keys=True)
    b = json.dumps(to_dict(gen_water_analog(0)), sort_keys=True)
    c = json.dumps(to_dict(gen_water_analog(1)), sort_keys=True)
    assert a == b
    assert a != c
    # wobble stays within one percent of the base levels
    tree = gen_water_analog(12345)
    assert abs(tree.node("LLD").xi["S"] - 6.0) <= 0.06 + 1e-12
