import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from drotree.lp import LinearProgram, solve_lp, OPTIMAL
from drotree.tvrisk import (ROUND_ABS, FiniteDist, psi, var_level, cvar,
                            removal_empties, value_band,
                            worst_case_expectation,
                            worst_case_expectation_restricted, categorize)

from helpers import tv_distance, worst_case_is_unique

THIRDS = FiniteDist(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]) / 3.0)


def lp_worst_case(h, q, gamma, removed=()):
    """Independent LP oracle: max p'h over the TV ball, optionally with
    removed children pinned to zero."""
    h = np.asarray(h, float)
    q = np.asarray(q, float)
    n = len(h)
    upper = np.full(2 * n, np.inf)
    for i in removed:
        upper[i] = 0.0
    prob = LinearProgram(2 * n, np.concatenate([-h, np.zeros(n)]), upper=upper)
    prob.add_row({i: 1.0 for i in range(n)}, "=", 1.0)
    for i in range(n):
        prob.add_row({i: 1.0, n + i: -1.0}, "<=", float(q[i]))
        prob.add_row({i: 1.0, n + i: 1.0}, ">=", float(q[i]))
    prob.add_row({n + i: 1.0 for i in range(n)}, "<=", 2.0 * gamma)
    sol = solve_lp(prob)
    if sol.status != OPTIMAL:
        return None
    return -sol.objective_value


def cvar_scan(h, q, alpha):
    """Rockafellar-Uryasev form minimized by scanning the support."""
    h = np.asarray(h, float)
    q = np.asarray(q, float)
    if alpha >= 1.0:
        return h[q > 0].max()
    best = np.inf
    for eta in h:
        best = min(best, eta + (q @ np.maximum(h - eta, 0.0)) / (1.0 - alpha))
    return best


def test_worked_var_and_cvar_values():
    assert var_level(THIRDS, 0.5) == pytest.approx(2.0)
    assert cvar(THIRDS, 0.0) == pytest.approx(2.0)
    assert cvar(THIRDS, 1.0) == pytest.approx(3.0)
    assert cvar(THIRDS, 0.5) == pytest.approx(8.0 / 3.0)


def test_cvar_never_exceeds_the_max():
    # values within the VaR grouping tolerance of each other: the tail
    # gain divided by 1 - alpha used to push cvar far past the max
    d = FiniteDist(np.array([1000.0, 1000.0 + 9e-7]), np.array([0.5, 0.5]))
    assert cvar(d, 0.9999) == 1000.0 + 9e-7
    d = FiniteDist(np.array([0.0, 9e-10]), np.array([0.5, 0.5]))
    assert cvar(d, 0.999) == 9e-10


def test_var_edges():
    assert var_level(THIRDS, 0.0) == pytest.approx(1.0)
    assert var_level(THIRDS, 1.0) == pytest.approx(3.0)
    padded = FiniteDist(np.array([1.0, 5.0]), np.array([1.0, 0.0]))
    # beta=1 ignores the zero-probability child
    assert var_level(padded, 1.0) == pytest.approx(1.0)
    assert cvar(padded, 1.0) == pytest.approx(1.0)


def test_worked_worst_case_half():
    res = worst_case_expectation(THIRDS, 0.5)
    assert res.value == pytest.approx(17.0 / 6.0, abs=1e-12)
    assert res.dist == pytest.approx([0.0, 1.0 / 6.0, 5.0 / 6.0], abs=1e-12)
    assert res.dist @ THIRDS.values == pytest.approx(res.value, abs=1e-9)
    assert tv_distance(res.dist, THIRDS.probs) <= 0.5 + 1e-12
    # a child 1e-12 below the sup is not tied with it: the mass moves to
    # the sup alone and the near-tied child is drained last
    near = FiniteDist(np.array([0.0, 1.0, 1.0 + 1e-12]), np.full(3, 1 / 3))
    assert worst_case_is_unique(THIRDS, 0.5)
    assert worst_case_is_unique(near, 0.5)


def test_worst_case_gamma_zero_is_mean():
    res = worst_case_expectation(THIRDS, 0.0)
    assert res.value == pytest.approx(2.0)
    assert res.dist == pytest.approx(THIRDS.probs)
    assert worst_case_is_unique(THIRDS, 0.0)


def test_worst_case_gamma_one_all_mass_on_first_max():
    res = worst_case_expectation(THIRDS, 1.0)
    assert res.value == pytest.approx(3.0)
    assert res.dist == pytest.approx([0.0, 0.0, 1.0])
    dup = FiniteDist(np.array([1.0, 3.0, 3.0]), np.array([0.5, 0.25, 0.25]))
    res2 = worst_case_expectation(dup, 1.0)
    assert res2.value == pytest.approx(3.0)
    # the added mass lands on the first max child; ties make it non-unique
    assert res2.dist == pytest.approx([0.0, 0.75, 0.25])
    assert not worst_case_is_unique(dup, 1.0)


def test_worked_restricted_middle_child():
    res = worst_case_expectation_restricted(THIRDS, 0.5, {1})
    assert res is not None
    assert res.value == pytest.approx(16.0 / 6.0, abs=1e-9)
    assert res.dist == pytest.approx([1.0 / 6.0, 0.0, 5.0 / 6.0], abs=1e-9)


def test_restricted_remove_all_is_infeasible():
    assert worst_case_expectation_restricted(THIRDS, 0.5, {0, 1, 2}) is None
    assert worst_case_expectation_restricted(THIRDS, 1.0, {0, 1, 2}) is None


def test_restricted_mass_exceeds_radius_infeasible():
    assert worst_case_expectation_restricted(THIRDS, 0.3, {0, 1}) is None


def test_removal_empties_all_gone_or_mass_beyond_radius():
    q = [0.1, 0.2, 0.3, 0.4]
    assert removal_empties(q, [0, 1, 2, 3], 1.0)
    assert removal_empties([1.0], [0], 1.0)  # a sole child
    assert removal_empties(q, [3], 0.3)
    # 0.1 + 0.2 rounds above 0.3, inside the removal tolerance
    assert not removal_empties(q, [1, 0], 0.3)
    assert not removal_empties(q, [0, 0, 1], 0.3)
    assert removal_empties(q, [0, 1], 0.3 - 2e-10)
    assert not removal_empties(q, [], 0.0)


def test_restricted_zero_prob_child_matches_unrestricted():
    d = FiniteDist(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.0]))
    full = worst_case_expectation(d, 0.4)
    res = worst_case_expectation_restricted(d, 0.4, {2})
    assert res is not None
    # removing a child the nominal never visits still forbids moving mass
    # onto it, so here the worst case drops below the unrestricted value
    assert res.value <= full.value + 1e-10
    unrestricted_lp = worst_case_expectation_restricted(d, 0.4, set())
    assert unrestricted_lp.value == pytest.approx(full.value, abs=1e-8)


def test_restricted_zero_prob_child_with_interior_sup():
    # when the removed q=0 child is not where the worst case puts mass,
    # the values coincide
    d = FiniteDist(np.array([1.0, 0.5, 3.0]), np.array([0.5, 0.0, 0.5]))
    full = worst_case_expectation(d, 0.4)
    res = worst_case_expectation_restricted(d, 0.4, {1})
    assert res.value == pytest.approx(full.value, abs=1e-8)


def test_worked_categorize():
    assert categorize(THIRDS, 0.5) == ["C1", "C2", "C4"]
    assert var_level(THIRDS, 0.5) == pytest.approx(2.0)
    assert max(THIRDS.values) == pytest.approx(3.0)


def test_categorize_all_equal_resolves_to_c4():
    d = FiniteDist(np.array([2.0, 2.0, 2.0]), np.array([1, 1, 1]) / 3.0)
    assert categorize(d, 0.5) == ["C4", "C4", "C4"]


def test_categorize_var_at_bottom():
    d = FiniteDist(np.array([0.0, 10.0]), np.array([0.9, 0.1]))
    assert var_level(d, 0.05) == pytest.approx(0.0)
    assert categorize(d, 0.05) == ["C2", "C4"]


def test_value_band_is_absolute_up_to_1e3_and_relative_beyond():
    for m in (0.0, -1.0, 15.0, -1e3, 1e3):
        assert value_band(1e-9, m) == 1e-9 + ROUND_ABS
    assert value_band(1e-9, -1e6) == pytest.approx(1e-6 + ROUND_ABS,
                                                   rel=1e-15)
    assert value_band(1e-6, 1e9) == pytest.approx(1.0, rel=1e-15)


def test_categorize_ties_are_the_same_at_any_offset_up_to_1e3():
    # a gap of 2e-9 splits the pair wherever it sits up to magnitude 1e3;
    # at 1e6 the band is 1e-6 and a gap of 1e-7 is a tie
    q = np.array([0.5, 0.5])
    for offset in (0.0, 1.0, -7.5, 999.0):
        d = FiniteDist(np.array([offset, offset + 2e-9]), q)
        assert categorize(d, 0.5) == ["C2", "C4"]
    d = FiniteDist(np.array([1e6, 1e6 + 1e-7]), q)
    assert categorize(d, 0.5) == ["C4", "C4"]


def test_categorize_rejects_degenerate_gamma():
    with pytest.raises(ValueError):
        categorize(THIRDS, 0.0)
    with pytest.raises(ValueError):
        categorize(THIRDS, 1.0)


weights = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8)
values = st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8)


@st.composite
def dists(draw):
    v = draw(values)
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=len(v),
                                 max_size=len(v))))
    return FiniteDist(np.asarray(v), w / w.sum())


@settings(max_examples=120, deadline=None)
@given(dists(), st.floats(0, 1))
def test_property_closed_form_matches_lp(d, gamma):
    res = worst_case_expectation(d, gamma)
    oracle = lp_worst_case(d.values, d.probs, gamma)
    assert abs(res.value - oracle) <= 1e-8 * max(1.0, abs(oracle))
    # maximizer really is a distribution inside the ball achieving the value
    assert res.dist.min() >= -1e-12
    assert abs(res.dist.sum() - 1.0) <= 1e-9
    assert tv_distance(res.dist, d.probs) <= gamma + 1e-9
    assert res.dist @ d.values == pytest.approx(res.value, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(dists(), st.floats(0, 1))
@example(FiniteDist(np.array([0.0, 6.5e-10]), np.array([0.5, 0.5])), 0.875)
def test_property_cvar_matches_scan(d, alpha):
    assert cvar(d, alpha) == pytest.approx(
        cvar_scan(d.values, d.probs, alpha), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(dists(), st.floats(0, 1), st.floats(0, 1))
def test_property_monotone_in_gamma(d, g1, g2):
    lo, hi = min(g1, g2), max(g1, g2)
    assert worst_case_expectation(d, lo).value <= \
        worst_case_expectation(d, hi).value + 1e-9


@settings(max_examples=60, deadline=None)
@given(dists(), st.floats(0, 1))
def test_property_between_mean_and_max(d, gamma):
    res = worst_case_expectation(d, gamma)
    mean = float(d.probs @ d.values)
    assert mean - 1e-9 <= res.value <= float(d.values.max()) + 1e-9


@settings(max_examples=60, deadline=None)
@given(dists(), st.floats(0, 1), st.data())
def test_property_restricted_never_exceeds_unrestricted(d, gamma, data):
    removed = data.draw(st.sets(st.integers(0, d.n - 1), max_size=d.n))
    res = worst_case_expectation_restricted(d, gamma, removed)
    if res is not None:
        assert res.value <= worst_case_expectation(d, gamma).value + 1e-10
        oracle = lp_worst_case(d.values, d.probs, gamma, removed)
        assert res.value == pytest.approx(oracle, abs=1e-8)
        # the maximizer is a distribution on the kept children, inside
        # the ball, attaining the value
        assert res.dist.min() >= 0.0
        assert abs(res.dist.sum() - 1.0) <= 1e-9
        assert all(res.dist[i] == 0.0 for i in removed)
        assert tv_distance(res.dist, d.probs) <= gamma + 1e-9
        assert res.dist @ d.values == pytest.approx(res.value, abs=1e-9)


@st.composite
def near_tied_dists(draw):
    """A distribution with one to three children above its largest drawn
    value by 1 to 9 times 1e-10 of its scale: near the sup, not at it."""
    v = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                      max_size=5))
    top = max(v)
    v += [top + k * 1e-10 * max(1.0, abs(top))
          for k in draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))]
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=len(v),
                                 max_size=len(v))))
    return FiniteDist(np.asarray(v), w / w.sum())


@settings(max_examples=100, deadline=None)
@given(near_tied_dists(), st.floats(0, 1), st.data())
def test_property_maximizer_attains_the_value_at_near_ties(d, gamma, data):
    removed = data.draw(st.sets(st.integers(0, d.n - 1), max_size=d.n - 1))
    assume(not removal_empties(d.probs, removed, gamma))
    res = worst_case_expectation(d, gamma, removed)
    scale = max(1.0, float(np.abs(d.values).max()))
    assert abs(res.dist @ d.values - res.value) <= 1e-13 * scale
    assert res.dist.min() >= 0.0
    assert abs(res.dist.sum() - 1.0) <= 1e-12
    assert tv_distance(res.dist, d.probs) <= gamma + 1e-9
    assert all(res.dist[i] == 0.0 for i in removed)


@settings(max_examples=80, deadline=None)
@given(dists(), st.floats(0.01, 0.99))
def test_property_categories_partition(d, gamma):
    cats = categorize(d, gamma)
    assert len(cats) == d.n
    assert all(l in ("C1", "C2", "C3", "C4") for l in cats)
    assert "C4" in cats
    c1_mass = d.probs[[l == "C1" for l in cats]].sum()
    assert c1_mass < gamma + 1e-9


def test_psi_tolerance_awareness():
    d = FiniteDist(np.array([1.0, 1.0 + 1e-12, 2.0]), np.array([1, 1, 1]) / 3.0)
    # the middle value is within tolerance of 1.0, so it counts
    assert psi(d, 1.0) == pytest.approx(2.0 / 3.0)
