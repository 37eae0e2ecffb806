import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drotree import lp as lpmod
import drotree.solver as solver_module
from drotree.gen import gen_random, gen_water_analog
from drotree.errors import NumericalBreakdown
from drotree.lp import (LinearProgram, relax, solve_lp, solve_lps,
                        OPTIMAL, INFEASIBLE, UNBOUNDED, write_cplex_lp)
from drotree.oracle import (PATHS, REALIZATIONS, RemovalSet, assess_paths,
                            assess_realizations)
from drotree.solver import build_extensive, solve_benders, solve_extensive
from drotree.tree import from_dict, to_dict

from helpers import duality_report, exact_lp_certificate


def test_trivial_binding_row():
    prob = LinearProgram(1, [1.0])
    prob.add_row({0: 1.0}, ">=", 1.0)
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-12)


def test_trivial_unbounded():
    prob = LinearProgram(1, [-1.0])
    sol_rows = LinearProgram(1, [-1.0])
    sol_rows.add_row({0: 1.0}, ">=", 0.0)
    assert solve_lp(prob).status == UNBOUNDED
    assert solve_lp(sol_rows).status == UNBOUNDED


def test_trivial_infeasible():
    prob = LinearProgram(1, [0.0])
    prob.add_row({0: 1.0}, "<=", -1.0)
    sol = solve_lp(prob)
    assert sol.status == INFEASIBLE
    assert sol.objective_value == math.inf
    assert sol.farkas is not None
    assert sol.phase1_value > 0


def test_dual_sign_conventions():
    # min x + y  s.t. x >= 2 (dual +), y <= 5 with cost pushing y up
    prob = LinearProgram(2, [1.0, -1.0])
    prob.add_row({0: 1.0}, ">=", 2.0)
    prob.add_row({1: 1.0}, "<=", 5.0)
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.primal == pytest.approx([2.0, 5.0])
    assert sol.duals[0] >= 0.0
    assert sol.duals[1] <= 0.0
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.duals[1] == pytest.approx(-1.0, abs=1e-9)


def test_free_and_fixed_and_upper_bounded_vars():
    # free variable pulled negative by an equality, fixed var, boxed var
    prob = LinearProgram(
        3, [1.0, 2.0, 1.0],
        lower=np.array([-math.inf, 3.0, 0.0]),
        upper=np.array([math.inf, 3.0, 2.0]),
    )
    prob.add_row({0: 1.0, 1: 1.0}, "=", 1.0)   # x0 = -2
    prob.add_row({2: 1.0}, ">=", 1.0)
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.primal == pytest.approx([-2.0, 3.0, 1.0], abs=1e-9)
    assert sol.objective_value == pytest.approx(-2.0 + 6.0 + 1.0, abs=1e-9)


def test_upper_bound_binds():
    prob = LinearProgram(1, [-1.0], upper=np.array([4.0]))
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.primal[0] == pytest.approx(4.0)


def test_mirrored_variable():
    # lower = -inf, upper finite
    prob = LinearProgram(1, [1.0], lower=np.array([-math.inf]),
                         upper=np.array([2.0]))
    prob.add_row({0: 1.0}, ">=", -3.0)
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.primal[0] == pytest.approx(-3.0, abs=1e-9)


def test_beale_degenerate_cycle_terminates():
    # classic cycling example for Dantzig pricing; Bland fallback must finish
    prob = LinearProgram(4, [-0.75, 150.0, -0.02, 6.0])
    prob.add_row({0: 0.25, 1: -60.0, 2: -1.0 / 25.0, 3: 9.0}, "<=", 0.0)
    prob.add_row({0: 0.5, 1: -90.0, 2: -1.0 / 50.0, 3: 3.0}, "<=", 0.0)
    prob.add_row({2: 1.0}, "<=", 1.0)
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


def _random_feasible_lp(rng, with_equalities=True):
    m = rng.integers(1, 12)
    n = rng.integers(1, 12)
    A = rng.uniform(-5, 5, size=(m, n))
    x0 = rng.uniform(0.1, 2.0, size=n)
    c = rng.uniform(0.1, 3.0, size=n)
    prob = LinearProgram(int(n), c)
    for i in range(m):
        kind = rng.integers(0, 3 if with_equalities else 2)
        coefs = {j: float(A[i, j]) for j in range(n) if abs(A[i, j]) > 1e-12}
        base = float(A[i] @ x0)
        if kind == 0:
            prob.add_row(coefs, "<=", base + float(rng.uniform(0.1, 1.0)))
        elif kind == 1:
            prob.add_row(coefs, ">=", base - float(rng.uniform(0.1, 1.0)))
        else:
            prob.add_row(coefs, "=", base)
    return prob


def test_random_strong_duality():
    rng = np.random.default_rng(761)
    for _ in range(120):
        prob = _random_feasible_lp(rng)
        sol = solve_lp(prob)
        assert sol.status == OPTIMAL
        rep = duality_report(prob, sol)
        scale = max(1.0, abs(sol.objective_value))
        assert rep["feasibility"] <= 1e-7
        assert rep["complementarity"] <= 1e-7 * scale
        assert rep["gap"] <= 1e-7 * scale


def test_farkas_certifies_infeasibility():
    # default bounds (x >= 0), every sense, rhs of both signs: the phase-1
    # duals read off the final tableau are a Farkas certificate
    rng = np.random.default_rng(2024)
    found = {"<=": 0, "=": 0, ">=": 0}
    n_infeasible = 0
    while n_infeasible < 150:
        m, n = rng.integers(2, 9), rng.integers(1, 7)
        A = rng.uniform(-5, 5, size=(m, n))
        b = rng.uniform(-5, 5, size=m)
        senses = [lpmod._SENSES[k] for k in rng.integers(0, 3, size=m)]
        prob = LinearProgram(int(n), rng.uniform(-1, 1, size=n))
        for i in range(m):
            prob.add_row({j: float(A[i, j]) for j in range(n)}, senses[i],
                         float(b[i]))
        sol = solve_lp(prob)
        if sol.status != INFEASIBLE:
            continue
        n_infeasible += 1
        y = sol.farkas
        scale = max(1.0, float(np.abs(A).max()), float(np.abs(b).max()))
        assert sol.phase1_value > lpmod.FEAS_TOL
        assert y.shape == (m,)
        assert abs(y @ b - sol.phase1_value) <= 1e-9 * scale
        assert np.all(A.T @ y <= 1e-9 * scale)
        for yi, sense in zip(y, senses):
            found[sense] += 1
            if sense == "<=":
                assert yi <= 1e-9 * scale
            elif sense == ">=":
                assert yi >= -1e-9 * scale
    assert min(found.values()) > 0


def test_dual_of_primal_negated_match():
    # primal: min c'x s.t. Ax >= b, x >= 0
    # dual as an LP: min -b'y s.t. -A'y >= -c, y >= 0; optima negate
    rng = np.random.default_rng(42)
    for _ in range(40):
        m, n = rng.integers(1, 9, size=2)
        A = rng.uniform(-5, 5, size=(m, n))
        x0 = rng.uniform(0.1, 2.0, size=n)
        b = A @ x0 - rng.uniform(0.1, 1.0, size=m)
        c = rng.uniform(0.2, 3.0, size=n)
        primal = LinearProgram(int(n), c)
        for i in range(m):
            primal.add_row({j: float(A[i, j]) for j in range(n)}, ">=", float(b[i]))
        dual = LinearProgram(int(m), -b)
        for j in range(n):
            dual.add_row({i: float(-A[i, j]) for i in range(m)}, ">=", float(-c[j]))
        ps, ds = solve_lp(primal), solve_lp(dual)
        assert ps.status == OPTIMAL and ds.status == OPTIMAL
        assert abs(ps.objective_value + ds.objective_value) <= \
            1e-7 * max(1.0, abs(ps.objective_value))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_random_lps_verify(seed):
    rng = np.random.default_rng(seed)
    prob = _random_feasible_lp(rng)
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    rep = duality_report(prob, sol)
    scale = max(1.0, abs(sol.objective_value))
    assert rep["feasibility"] <= 1e-7
    assert rep["gap"] <= 1e-7 * scale


def test_no_rows_box_minimum():
    # an LP without rows runs the general path with an empty basis
    inf = math.inf
    prob = LinearProgram(2, [1.0, 0.5], lower=np.array([1.0, 2.0]))
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.primal.tolist() == [1.0, 2.0]
    assert sol.objective_value == 2.0 and sol.duals.shape == (0,)

    # upper bound only, and a free variable at zero cost
    prob = LinearProgram(2, [-1.0, 0.0], lower=np.array([-inf, -inf]),
                         upper=np.array([3.0, inf]))
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.primal.tolist() == [3.0, 0.0]
    assert sol.objective_value == -3.0 and sol.duals.shape == (0,)

    # a free variable with a cost, an upper-bounded one with a positive cost
    for cost, upper in ((1.0, inf), (-1.0, inf), (1.0, 3.0)):
        prob = LinearProgram(1, [cost], lower=np.array([-inf]),
                             upper=np.array([upper]))
        sol = solve_lp(prob)
        assert sol.status == UNBOUNDED and sol.primal is None

    # no variables at all: no column can enter either phase
    sol = solve_lp(LinearProgram(0, []))
    assert sol.status == OPTIMAL and sol.objective_value == 0.0
    assert sol.primal.shape == (0,) and sol.duals.shape == (0,)


def test_water_root_lp_pinned(monkeypatch):
    """The extensive LP of the water analog: its shape, the digits of its
    optimum and the pivots each simplex phase takes. The final basis is
    exactly optimal, and the printed optimum is the exact one rounded."""
    lp, _ = build_extensive(gen_water_analog(0, gamma=0.95))
    assert (len(lp.rows), lp.n_vars) == (435, 309)
    phases = []   # [objective row, pivots]: each phase prices a new row
    pivot = lpmod._pivot

    def counting(tab, obj, basis, r, j):
        if not phases or phases[-1][0] is not obj:
            phases.append([obj, 0])
        phases[-1][1] += 1
        pivot(tab, obj, basis, r, j)

    monkeypatch.setattr(lpmod, "_pivot", counting)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert format(sol.objective_value, ".17g") == "66.565252385999997"
    assert sol.objective_value == float(exact_lp_certificate(lp, sol))
    assert [n for _, n in phases] == [154, 5]


@pytest.mark.parametrize("spec", [(7, 3, 2), (3, 3, 3), (5, 4, 2),
                                  (11, 3, 4), (21, 2, 4)])
def test_random_root_lps_exactly_optimal(spec):
    # the random instances of scripts/cli_bytes.py (gen --random seed,T,b)
    seed, t, branching = spec
    lp, _ = build_extensive(gen_random(seed=seed, T=t, branching=branching))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    exact = exact_lp_certificate(lp, sol)
    # the float objective c'x rounds each term: within a few ulps
    assert abs(sol.objective_value - float(exact)) <= 1e-14 * abs(exact)


def test_exact_certificate_rejects_a_wrong_basis():
    lp, _ = build_extensive(gen_random(seed=7, T=3, branching=2))
    sol = solve_lp(lp)
    outside = [k for k in range(len(sol.basis) + lp.n_vars)
               if k not in sol.basis]
    for pos, k in enumerate(outside[:4]):
        sol.basis[pos], k = k, sol.basis[pos]
        with pytest.raises(AssertionError):
            exact_lp_certificate(lp, sol)
        sol.basis[pos] = k


def test_cplex_lp_dump_roundtrip_text():
    prob = LinearProgram(2, [1.0, -2.0], upper=np.array([math.inf, 10.0]))
    prob.add_row({0: 1.0, 1: 1.0}, "<=", 5.0)
    text = write_cplex_lp(prob)
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    assert "c0:" in text


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    prob = _random_feasible_lp(rng)
    a = solve_lp(prob)
    b = solve_lp(prob)
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.duals, b.duals)


def _random_lp(rng, feasible):
    """A small LP with about half its coefficients zero and a mix of
    bounds (free, upper-only, boxed); feasible ones contain a point x0."""
    m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
    A = rng.uniform(-5, 5, size=(m, n)) * (rng.random((m, n)) < 0.5)
    x0 = rng.uniform(-2, 2, size=n)
    kinds = rng.integers(0, 4, size=n)
    lower = np.where(kinds == 0, 0.0, np.where(kinds == 3, x0 - 1, -math.inf))
    upper = np.where(np.isin(kinds, (1, 3)), x0 + 1, math.inf)
    x0 = np.maximum(x0, lower)
    prob = LinearProgram(n, rng.uniform(-1, 1, size=n), lower=lower,
                         upper=upper)
    for i in range(m):
        sense = lpmod._SENSES[rng.integers(0, 3)]
        rhs = float(A[i] @ x0) if feasible else float(rng.uniform(-5, 5))
        prob.add_row({j: float(a) for j, a in enumerate(A[i]) if a != 0.0},
                     sense, rhs)
    return prob


def _lp_corpus(monkeypatch):
    """The water root LP, the root LP and every Benders node LP of three
    random trees, and random feasible and infeasible LPs."""
    lps = [build_extensive(gen_water_analog(0, gamma=0.95))[0]]
    with monkeypatch.context() as mp:
        mp.setattr(solver_module, "solve_lps",
                   lambda batch: lps.extend(batch) or solve_lps(batch))
        for seed, T, branching in ((3, 3, 3), (5, 4, 2), (11, 3, 4)):
            tree = gen_random(seed, T=T, branching=branching)
            lps.append(build_extensive(tree)[0])
            solve_benders(tree)
    # Benders solves each of these node LPs once, batched or alone
    assert len(lps) == 115
    rng = np.random.default_rng(17)
    lps += [_random_feasible_lp(rng) for _ in range(40)]
    lps += [_random_lp(rng, feasible=f) for f in (True, False) * 60]
    return lps


def _bits(sol):
    """Every LpSolution field, floats and arrays as their raw bytes."""
    def raw(v):
        return None if v is None else np.asarray(v, dtype=float).tobytes()
    return (sol.status, raw(sol.objective_value), raw(sol.primal),
            raw(sol.duals), raw(sol.farkas), raw(sol.phase1_value),
            sol.basis)


def test_restricted_pivot_update_is_bit_identical(monkeypatch):
    """Forcing every pivot onto the restricted update, then every pivot
    onto the dense one, gives the same bits in every solution field."""
    lps = _lp_corpus(monkeypatch)
    above_all = 1 + max(lpmod._tableau(lp)[0].size for lp in lps)
    ix = np.ix_
    runs = []
    for min_cells in (0, above_all):
        restricted = []   # one entry per restricted update
        with monkeypatch.context() as mp:
            mp.setattr(lpmod, "SPARSE_MIN_CELLS", min_cells)
            mp.setattr(np, "ix_", lambda *a: restricted.append(a) or ix(*a))
            sols = [solve_lp(lp) for lp in lps]
        runs.append((sols, len(restricted)))
    (sparse, n_sparse), (dense, n_dense) = runs
    assert n_sparse > 0 and n_dense == 0
    assert {sol.status for sol in dense} >= {OPTIMAL, INFEASIBLE}
    for i, (a, b) in enumerate(zip(sparse, dense)):
        assert _bits(a) == _bits(b), f"LP {i} of the corpus"


def test_sparse_gate_takes_only_root_lps(monkeypatch):
    """On water the extensive root LP is above the gate. Every other LP
    (policy extraction, Benders) is below it, so the small LPs keep the
    dense update. A path assessment and a realization assessment at the
    root write no tableau: both re-solve warm from the kept root LP, and
    their pivots, on a tableau above the gate, take the restricted
    update. The two are Effective ones, so they do pivot."""
    sizes = []
    tableau = lpmod._tableau

    def recording(lp):
        out = tableau(lp)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(lpmod, "_tableau", recording)
    gate = lpmod.SPARSE_MIN_CELLS
    tree = gen_water_analog(0, gamma=0.95)
    outcome = solve_extensive(tree)
    assert sizes[0] >= gate and max(sizes[1:]) < gate
    sizes.clear()
    solve_benders(tree)
    assert sizes and max(sizes) < gate
    sizes.clear()
    restricted = []
    ix = np.ix_
    monkeypatch.setattr(np, "ix_", lambda *a: restricted.append(a) or ix(*a))
    leaf, child = "LHD-LHD", "LHD"
    assess_paths(tree, RemovalSet(PATHS, frozenset({leaf})), outcome)
    assess_realizations(tree, RemovalSet(REALIZATIONS, frozenset({child})),
                        outcome)
    assert sizes == [] and restricted


def _without_rows(lp, rows):
    out = LinearProgram(lp.n_vars, lp.objective, lower=lp.lower,
                        upper=lp.upper)
    out.rows = [row for i, row in enumerate(lp.rows) if i not in rows]
    return out


def test_relax_matches_the_lp_without_its_rows():
    """relax on random LPs, feasible ones and the corpus's bounded ones:
    the status and, within 1e-9, the optimum of the LP with those rows
    deleted and solved cold. A relaxation that takes no pivot returns
    the solution itself."""
    rng = np.random.default_rng(23)
    same = moved = 0
    for _ in range(150):
        lp = (_random_feasible_lp(rng) if rng.random() < 0.5
              else _random_lp(rng, feasible=True))
        sol = solve_lp(lp, keep=True)
        ineq = [i for i, row in enumerate(lp.rows) if row.sense != "="]
        if sol.status != OPTIMAL or not ineq:
            continue
        rows = sorted(rng.choice(ineq, size=rng.integers(1, len(ineq) + 1),
                                 replace=False).tolist())
        got, want = relax(sol, rows), solve_lp(_without_rows(lp, rows))
        assert got.status == want.status
        same += got is sol
        if want.status == OPTIMAL:
            moved += got is not sol
            scale = max(1.0, abs(want.objective_value))
            assert abs(got.objective_value - want.objective_value) <= \
                1e-9 * scale
    assert same > 5 and moved > 5


def test_relax_refuses_an_equality_row():
    """An equality row has no slack to free: naming it is a ValueError,
    alone or next to an inequality row whose slack prices out."""
    lp = LinearProgram(2, [1.0, 0.0])
    lp.add_row({0: 1.0}, ">=", 1.0)
    lp.add_row({0: 1.0, 1: 1.0}, "=", 3.0)
    sol = solve_lp(lp, keep=True)
    for rows in ([1], [0, 1]):
        with pytest.raises(ValueError, match="inequality rows only"):
            relax(sol, rows)
    assert relax(sol, [0]).objective_value == 0.0


def test_optimum_that_is_not_finite_breaks_down():
    """An LP that ends optimal with an objective of inf raises, alone and
    as one member of a stack, whose other members keep their results."""
    big = LinearProgram(1, [10.0], lower=np.array([1e308]))
    big.add_row({0: 1.0}, "<=", 1e308)
    small = LinearProgram(1, [10.0], lower=np.array([1.0]))
    small.add_row({0: 1.0}, "<=", 2.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalBreakdown, match="optimal objective inf"):
            solve_lp(big)
        results = solve_lps([small, big])
    assert results[0].objective_value == 10.0
    with pytest.raises(NumericalBreakdown, match="optimal objective inf"):
        results[1]


def _same_solutions(batched, alone):
    for i, (a, b) in enumerate(zip(batched, alone, strict=True)):
        assert _bits(a) == _bits(b), f"LP {i}"
        for field in ("primal", "duals", "farkas"):
            x, y = getattr(a, field), getattr(b, field)
            if x is not None:
                assert np.array_equal(np.signbit(x), np.signbit(y)), i


def test_solve_lps_is_bit_identical_to_one_at_a_time(monkeypatch):
    """The corpus in one solve_lps call gives every LP the bits solve_lp
    gives it alone. Its random LPs share shapes, so the stacked groups
    mix optimal, infeasible and unbounded members."""
    lps = _lp_corpus(monkeypatch)
    groups = {}
    for lp in lps:
        start = lpmod._tableau(lp)
        if start.tab.size < lpmod.SPARSE_MIN_CELLS:
            groups.setdefault((start.tab.shape, start.art.tobytes()),
                              []).append(lp)
    stacked = [g for g in groups.values() if len(g) > 1]
    statuses = [{solve_lp(lp).status for lp in g} for g in stacked]
    assert sum(len(g) for g in stacked) > 150
    assert sum(len(st) > 1 for st in statuses) >= 10
    assert set().union(*statuses) == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    _same_solutions(solve_lps(lps), [solve_lp(lp) for lp in lps])


def test_solve_lps_drives_out_artificials_per_member(monkeypatch):
    """x + y = 0 and -x - y = 0 leave both artificials basic at zero
    after phase 1; each member drives the first one out with one pivot
    of its own, then the stack runs phase 2."""
    lps = []
    for c, b in ((1.0, 1.0), (-1.0, 2.0), (0.5, 0.25), (2.0, 3.0)):
        lp = LinearProgram(3, [c, 1.0, 1.0])
        lp.add_row({0: 1.0, 1: 1.0}, "=", 0.0)
        lp.add_row({0: -1.0, 1: -1.0}, "=", 0.0)
        lp.add_row({2: 1.0}, ">=", b)
        lps.append(lp)
    pivots = []
    pivot = lpmod._pivot
    monkeypatch.setattr(
        lpmod, "_pivot", lambda *a: pivots.append(a[3]) or pivot(*a))
    batched = solve_lps(lps)
    assert pivots == [0] * len(lps)   # lock-step pivots do not call _pivot
    alone = [solve_lp(lp) for lp in lps]
    assert [sol.objective_value for sol in alone] == [1.0, 2.0, 0.25, 3.0]
    _same_solutions(batched, alone)


def test_solve_lps_raises_a_breakdown_only_for_its_own_lp(monkeypatch):
    """A breakdown is held with the LP it belongs to: in a stack (good,
    broken) and alone (broken2), taking it raises, taking any other
    result does not, and solve_lps itself does not raise."""
    monkeypatch.setattr(lpmod, "BREAKDOWN_TOL", 10.0)
    good, broken = LinearProgram(1, [1.0]), LinearProgram(1, [1.0])
    good.add_row({0: 100.0}, ">=", 100.0)   # its only pivot is 100
    broken.add_row({0: 1.0}, ">=", 1.0)     # its only pivot is 1
    broken2 = LinearProgram(2, [1.0, 1.0])
    broken2.add_row({0: 1.0, 1: 1.0}, ">=", 1.0)
    results = solve_lps([broken, good, broken2])
    assert len(results) == 3
    assert results[1].status == OPTIMAL and results[1].objective_value == 1.0
    assert _bits(results[1]) == _bits(solve_lp(good))
    for i, lp in ((0, broken), (2, broken2)):
        with pytest.raises(NumericalBreakdown, match="pivot magnitude"):
            results[i]
        with pytest.raises(NumericalBreakdown, match="pivot magnitude"):
            solve_lp(lp)
    with pytest.raises(NumericalBreakdown):
        list(results)


def _breakdown_lp():
    """The root LP of `gen --random 7,3,2` with one stage-3 cost set to
    -1e200: its pivots overflow to nan, and the ratio test then has a
    nan minimum."""
    blob = to_dict(gen_random(7, T=3, branching=2))
    blob["stage_templates"][2]["cost"][2] = -1e200
    return build_extensive(from_dict(blob))[0]


def test_nonfinite_ratio_minimum_is_one_breakdown_alone_and_stacked():
    lp = _breakdown_lp()
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalBreakdown) as alone:
            solve_lp(lp)
        results = solve_lps([lp, lp])
        for i in range(2):
            with pytest.raises(NumericalBreakdown) as stacked:
                results[i]
            assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == "ratio test minimum nan"


_HUGE = st.sampled_from([0.0, 1.0, -1.0, 1e200, -1e200, 1e-200])
_COEF = st.one_of(_HUGE, st.integers(-5, 5).map(float),
                  st.floats(-1e200, 1e200, allow_nan=False))


@st.composite
def _same_shape_batches(draw):
    """Two to four LPs that share their rows' senses and sparsity, their
    rhs signs and their bound kinds, so that most of them stack; their
    numbers, from +-1e-200 to +-1e200, differ."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    senses = draw(st.lists(st.sampled_from(lpmod._SENSES), min_size=m,
                           max_size=m))
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m,
                          max_size=m))
    pattern = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                            min_size=m, max_size=m))
    kinds = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    batch = []
    for _ in range(draw(st.integers(2, 4))):
        lower, upper = [], []
        for kind in kinds:
            lo, width = draw(_COEF), abs(draw(_COEF))
            lower.append(0.0 if kind == 0 else lo if kind == 3 else -math.inf)
            upper.append(lo + width if kind in (1, 3) else math.inf)
        lp = LinearProgram(n, [draw(_COEF) for _ in range(n)], lower=lower,
                           upper=upper)
        for sense, sign, used in zip(senses, signs, pattern):
            lp.add_row({j: draw(_COEF) for j in range(n) if used[j]}, sense,
                       sign * abs(draw(_COEF)))
        batch.append(lp)
    return batch


def _result(get):
    try:
        return _bits(get())
    except NumericalBreakdown as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_same_shape_batches())
@example([_breakdown_lp(), _breakdown_lp()])
def test_property_stacked_results_equal_lone_results(batch):
    """Every member of a solve_lps batch gets the bits solve_lp gives it
    alone, or both raise the same breakdown."""
    with np.errstate(all="ignore"):
        results = solve_lps(batch)
        for i, lp in enumerate(batch):
            assert _result(lambda: results[i]) == _result(lambda: solve_lp(lp))
