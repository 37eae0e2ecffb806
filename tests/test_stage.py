import numpy as np
import pytest

from drotree.errors import MissingXiField, ParseError, ValidationError
from drotree.stage import (
    Coef,
    StageTemplate,
    TemplateRow,
    materialize,
    parse_template,
    template_to_json,
)

from helpers import leaf_value_tree


def test_coef_constant_and_field():
    c = Coef.const(2.5)
    assert c.value({}, where="x") == 2.5
    c = Coef(field="d", scale=2.0, offset=1.0)
    assert c.value({"d": 3.0}, where="x") == 7.0


def test_coef_missing_field_names_site():
    c = Coef(field="d")
    with pytest.raises(MissingXiField, match="node7.*'d'"):
        c.value({"e": 1.0}, where="node7")


def test_coef_value_that_overflows_names_site():
    c = Coef(field="d", scale=1e308)
    assert c.value({"d": 1.5}, where="node7") == 1.5e308
    for x in (2.0, -2.0):
        with pytest.raises(ValidationError, match="node7: .* is -?inf"):
            c.value({"d": x}, where="node7")


def test_coef_parse_forms():
    assert Coef.parse(3).value({}, where="w") == 3.0
    c = Coef.parse({"xi": "d", "scale": -1.0, "offset": 4.0})
    assert c.value({"d": 1.0}, where="w") == 3.0
    with pytest.raises(ParseError):
        Coef.parse({"bad": 1})
    with pytest.raises(ParseError):
        Coef.parse("three")


def test_parse_template_and_round_trip():
    obj = {
        "n_vars": 2,
        "cost": [1.0, {"xi": "c", "scale": 2.0}],
        "rows": [
            {"self": {"0": 1.0, "1": -1.0}, "link": {"0": 0.5},
             "sense": "<=", "rhs": {"xi": "d"}},
        ],
        "var_bounds": [[0.0, 10.0], [None, None]],
    }
    t = parse_template(obj, where="stage 2")
    assert t.n_vars == 2
    assert t.rows[0].sense == "<="
    assert t.var_bounds[1][1] is None
    again = parse_template(template_to_json(t), where="stage 2")
    assert template_to_json(again) == template_to_json(t)


def test_parse_template_rejects_bad_shapes():
    # semantic checks live in the template class
    with pytest.raises(ValidationError):
        parse_template({"n_vars": 1, "cost": [1.0],
                        "rows": [{"self": {"0": 1}, "link": {},
                                  "sense": "==", "rhs": 0}]}, where="w")
    with pytest.raises(ValidationError):
        parse_template({"n_vars": 2, "cost": [1.0], "rows": []}, where="w")
    # malformed input shapes are parse failures
    with pytest.raises(ParseError):
        parse_template({"cost": [1.0]}, where="w")
    with pytest.raises(ParseError):
        parse_template({"n_vars": 1, "cost": [1.0],
                        "rows": [{"self": {"0": "x"}, "link": {},
                                  "sense": ">=", "rhs": 0}]}, where="w")


def test_template_validation_rejects_var_index_out_of_range():
    with pytest.raises(ValidationError):
        StageTemplate(
            n_vars=1,
            cost=(Coef.const(1.0),),
            rows=(TemplateRow(self_coefs={1: Coef.const(1.0)}, link_coefs={},
                              sense=">=", rhs=Coef.const(0.0)),),
            var_bounds=((Coef.const(0.0), None),),
        )


def test_materialize_fills_node_data():
    tree = leaf_value_tree([4.0, 7.0])
    lp = tree.node_lp("l1")
    assert lp.node == "l1"
    assert lp.n_vars == 1
    assert np.allclose(lp.cost, [1.0])
    (self_c, link_c, sense, rhs), = lp.rows
    assert self_c == {0: 1.0} and link_c == {} and sense == ">="
    assert rhs == 7.0
    assert lp.lower[0] == 0.0 and np.isinf(lp.upper[0])


def test_non_finite_template_number_rejected():
    for bad in (float("nan"), float("inf"), {"xi": "d", "scale": float("nan")}):
        with pytest.raises(ValidationError, match="stage 2: non-finite"):
            parse_template({"n_vars": 1, "cost": [bad], "rows": []},
                           "stage 2")


def test_materialize_missing_field_names_node():
    tree = leaf_value_tree([4.0])
    template = tree.stage_templates[1]
    with pytest.raises(MissingXiField, match="l0"):
        materialize(template, "l0", {})


def test_materialize_xi_driven_cost_and_bound():
    t = parse_template({
        "n_vars": 1,
        "cost": [{"xi": "c"}],
        "rows": [],
        "var_bounds": [[0.0, {"xi": "cap"}]],
    }, where="w")
    lp = materialize(t, "n", {"c": 5.0, "cap": 2.0})
    assert lp.cost[0] == 5.0
    assert lp.lower[0] == 0.0 and lp.upper[0] == 2.0


def test_node_lp_is_built_once_and_read_only():
    tree = leaf_value_tree([4.0, 7.0])
    lp = tree.node_lp("l1")
    assert tree.node_lp("l1") is lp
    for arr in (lp.cost, lp.lower, lp.upper):
        with pytest.raises(ValueError):
            arr[0] = 0.0
