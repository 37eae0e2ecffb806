"""End-to-end acceptance checks.

One test per numbered guarantee, each printing a single PASS/FAIL line
(run `pytest -s tests/test_acceptance.py` to see them) and asserting at
the stated tolerance. Corpora are seeded, so every run sees the same
instances.
"""
import json
import math
import random

import numpy as np
import pytest

from drotree.cli import main as cli_main
from drotree.effectiveness import (EFFECTIVE, INEFFECTIVE, UNIDENTIFIED,
                                   classify_paths, classify_tree)
from drotree.errors import InstanceInfeasible
from drotree.gen import gen_random, gen_water_analog
from drotree.lp import solve_lp, OPTIMAL
from drotree.oracle import (PATHS, REALIZATIONS, RemovalSet, _verdict,
                            assess_paths, assess_realizations)
from drotree.solver import build_extensive, solve_benders, solve_extensive
from drotree.tree import to_dict
from drotree.tvrisk import FiniteDist, worst_case_expectation

from helpers import verify_monotonicity, verify_union_intersection
from test_tvrisk import lp_worst_case


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def cross_corpus():
    """50 solved instances shared by the cross-solver and DP checks."""
    rng = random.Random(4202)
    runs = []
    for i in range(50):
        T = (2, 3, 4)[i % 3]
        b = rng.randint(2, 4) if T < 4 else rng.randint(2, 3)
        if i == 47:
            b = 4  # one deliberately large stage-4 case
        g = round(rng.uniform(0.05, 0.95), 2)
        dep = rng.choice([0.0, 0.5])
        tree = gen_random(1000 + i, T=T, branching=b, gamma=g,
                          dependence=dep)
        runs.append((tree, solve_extensive(tree)))
    return runs


@pytest.fixture(scope="module")
def classifier_corpus():
    """30 solved and fully assessed T=3 instances for the label checks.

    For every stage>=2 node the conditional oracle verdict is recorded,
    and for every leaf the path oracle verdict, so the classifier can be
    graded against ground truth without re-solving per test.
    """
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    runs = []
    for i in range(30):
        tree = gen_random(2000 + i, T=3, branching=(2, 3, 4)[i % 3],
                          gamma=grid[i % 5])
        out = solve_extensive(tree)
        cond = classify_tree(tree, out)
        paths = {p.leaf: p for p in classify_paths(tree, out, cond=cond)}
        cond_oracle = {
            nid: assess_realizations(
                tree, RemovalSet(REALIZATIONS, frozenset([nid])), out
            )[tree.parent(nid)]
            for nid in cond
        }
        path_oracle = {
            leaf: assess_paths(tree, RemovalSet(PATHS, frozenset([leaf])),
                               out)
            for leaf in tree.leaves()
        }
        runs.append((tree, out, cond, paths, cond_oracle, path_oracle))
    return runs


@pytest.fixture(scope="module")
def removal_corpus(classifier_corpus):
    """Every single-leaf and single-realization removal on the classifier
    corpus, with its restricted extensive root LP value (None when the
    restriction is infeasible) and the oracle's result for it."""
    cases = []
    for tree, out, _, _, cond_oracle, path_oracle in classifier_corpus:
        for nid in (n.id for n in tree.nodes if n.stage >= 2):
            parent = tree.parent(nid)
            grand = tree.parent(parent)
            routes = [(path_oracle.get(nid), None, None),
                      (cond_oracle[nid], parent,
                       None if grand is None else out.policy[grand])]
            for res, root, incoming in routes:
                if res is None:
                    continue  # not a leaf: no path removal
                removals = {parent: {nid}}
                try:
                    lp, _ = build_extensive(tree, removals=removals,
                                            root=root,
                                            fixed_incoming=incoming)
                    sol = solve_lp(lp)
                    value = (sol.objective_value if sol.status == OPTIMAL
                             else None)
                except InstanceInfeasible:
                    value = None
                cases.append((tree, removals, root, incoming, value, res))
    return cases


def _removable_subset(rng, q, g):
    """A random nonempty set of children, not all of them, whose nominal
    mass stays within the radius g; None when the draw leaves none."""
    picked = [i for i in range(len(q)) if rng.random() < 0.4]
    rng.shuffle(picked)
    while picked and (len(picked) == len(q) or q[picked].sum() > g):
        picked.pop()
    return set(picked) or None


def test_criterion_01_closed_form_matches_lp_oracle():
    rng = random.Random(20260819)
    pick = random.Random(20261018)  # removal draws, apart from the cases
    worst = 0.0
    n_restricted = 0
    for case in range(1000):
        n = rng.randint(1, 10)
        vals = [round(rng.uniform(-5.0, 15.0), 0)
                if rng.random() < 0.4 else rng.uniform(-5.0, 15.0)
                for _ in range(n)]
        w = [rng.uniform(0.05, 1.0) for _ in range(n)]
        if n >= 2 and rng.random() < 0.2:
            w[rng.randrange(n)] = 0.0  # a child the nominal ignores
        q = np.array(w) / sum(w)
        q[-1] = 1.0 - q[:-1].sum()
        h = np.array(vals)
        g = 0.0 if case < 100 else 1.0 if case < 200 else rng.random()
        closed = worst_case_expectation(FiniteDist(h, q), g).value
        if g == 0.0:
            assert closed == float(q @ h), "gamma=0 must be the nominal mean"
        if g == 1.0:
            assert closed == float(h.max()), "gamma=1 must be the sup"
        worst = max(worst, abs(closed - lp_worst_case(h, q, g)))
        removed = _removable_subset(pick, q, g)
        if removed is not None:
            n_restricted += 1
            closed = worst_case_expectation(FiniteDist(h, q), g, removed).value
            worst = max(worst, abs(closed - lp_worst_case(h, q, g, removed)))
    report(1, "TV worst case closed form vs LP oracle, 1000 cases plus "
           f"{n_restricted} with removed children",
           worst <= 1e-8 and n_restricted > 0, f"max |diff| {worst:.2e}")


def test_criterion_02_cross_solver_agreement(cross_corpus):
    worst_rel = worst_gap = 0.0
    most_passes = 0
    for tree, ext in cross_corpus:
        ben = solve_benders(tree, tol=1e-8, max_iter=200)
        rel = abs(ext.objective - ben.objective) / max(1.0,
                                                       abs(ext.objective))
        worst_rel = max(worst_rel, rel)
        worst_gap = max(worst_gap, ben.gap)
        most_passes = max(most_passes, ben.passes)
    ok = worst_rel <= 1e-6 and worst_gap <= 1e-6 and most_passes <= 200
    report(2, "extensive vs nested Benders on 50 instances", ok,
           f"max rel diff {worst_rel:.2e}, max gap {worst_gap:.2e}, "
           f"max passes {most_passes}")


def test_criterion_03_dp_consistency(cross_corpus):
    rng = random.Random(777)
    worst = 0.0
    probes = 0
    for tree, ext in cross_corpus:
        rel = abs(ext.objective - ext.q_values[tree.root()]) / max(
            1.0, abs(ext.objective))
        worst = max(worst, rel)
        for node in tree.nodes:
            kids = tree.children(node.id)
            if not kids:
                continue
            dist = FiniteDist(np.array([ext.q_values[c] for c in kids]),
                              np.array(tree.q_children(node.id)))
            res = worst_case_expectation(
                dist, tree.gamma_for_children_of(node.id))
            want = float(tree.node_lp(node.id).cost
                         @ ext.policy[node.id]) + res.value
            rel = abs(ext.q_values[node.id] - want) / max(1.0, abs(want))
            worst = max(worst, rel)
        non_root = [n.id for n in tree.nodes if n.parent is not None]
        for nid in rng.sample(non_root, min(10, len(non_root))):
            lp, _ = build_extensive(tree, root=nid,
                                    fixed_incoming=ext.policy[tree.parent(nid)])
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            rel = abs(sol.objective_value - ext.q_values[nid]) / max(
                1.0, abs(ext.q_values[nid]))
            worst = max(worst, rel)
            probes += 1
    report(3, "value recursion holds and subtree re-solves match records",
           worst <= 1e-6, f"max rel err {worst:.2e}, {probes} probes")


def test_criterion_04_conditional_labels_sound(classifier_corpus):
    checked = disagreements = unidentified = total = 0
    for tree, out, cond, _, cond_oracle, _ in classifier_corpus:
        for nid, lab in cond.items():
            total += 1
            if lab.label == UNIDENTIFIED:
                unidentified += 1
                continue
            checked += 1
            if cond_oracle[nid].verdict != lab.label:
                disagreements += 1
    report(4, "identified conditional labels agree with the oracle",
           checked > 0 and disagreements == 0,
           f"{checked} checked, {disagreements} disagreements, "
           f"unidentified fraction {unidentified / total:.3f}")


def test_criterion_05_path_labels_and_arc_decomposition(classifier_corpus):
    checked = disagreements = 0
    iff_checked = iff_failures = skipped = 0
    for tree, out, cond, paths, cond_oracle, path_oracle in classifier_corpus:
        for leaf, plab in paths.items():
            if plab.label != UNIDENTIFIED:
                checked += 1
                if path_oracle[leaf].verdict != plab.label:
                    disagreements += 1
            # oracle-only restatement: a feasible path assessment is
            # effective exactly when every along-path conditional
            # assessment (also feasible) is effective
            arcs = [n for n in tree.path(leaf) if tree.node(n).stage >= 2]
            arc_results = [cond_oracle[a] for a in arcs]
            if path_oracle[leaf].infeasible or any(r.infeasible
                                                   for r in arc_results):
                skipped += 1
                continue
            iff_checked += 1
            lhs = path_oracle[leaf].verdict == EFFECTIVE
            rhs = all(r.verdict == EFFECTIVE for r in arc_results)
            if lhs != rhs:
                iff_failures += 1
    ok = disagreements == 0 and iff_failures == 0 and checked > 0
    report(5, "path labels match oracle; arc decomposition holds", ok,
           f"{checked} labels checked ({disagreements} wrong), "
           f"iff on {iff_checked} resolvable leaves ({iff_failures} broken, "
           f"{skipped} skipped)")


def test_criterion_06_removal_monotonicity():
    rng = random.Random(606)
    feasible_pairs = 0
    all_hold = True
    for i in range(10):
        tree = gen_random(3000 + i, T=3, branching=(2, 3, 4)[i % 3],
                          gamma=(0.3, 0.5, 0.7)[i % 3])
        out = solve_extensive(tree)
        leaves = tree.leaves()
        pairs = []
        # one pair per instance built to stay feasible: light leaves
        # (mass clearly inside the radius) from distinct parents
        light = [x for x in leaves
                 if tree.node(x).q_cond <= tree.gamma[-1] - 0.05]
        rng.shuffle(light)
        if len(light) >= 2:
            a = light[0]
            b = next((x for x in light[1:]
                      if tree.parent(x) != tree.parent(a)), light[1])
            pairs.append((frozenset([a]), frozenset([a, b])))
        while len(pairs) < 2:
            small = set(rng.sample(leaves,
                                   rng.randint(1, max(1, len(leaves) // 3))))
            extra = [x for x in leaves if x not in small]
            large = small | set(rng.sample(
                extra, rng.randint(1, max(1, len(extra) // 2))))
            pairs.append((frozenset(small), frozenset(large)))
        for small, large in pairs:
            holds, _, r_large = verify_monotonicity(
                tree, RemovalSet(PATHS, small),
                RemovalSet(PATHS, large), out)
            all_hold = all_hold and holds
            if not r_large.infeasible:
                feasible_pairs += 1
    report(6, "removing more paths never raises the assessment value",
           all_hold and feasible_pairs >= 5,
           f"{feasible_pairs} of 20 pairs feasible")


def test_criterion_07_union_intersection_subset():
    rng = random.Random(707)
    done = 0
    all_ok = True
    for seed in range(4000, 4040):
        if done == 10:
            break
        tree = gen_random(seed, T=3, branching=3, gamma=0.6)
        out = solve_extensive(tree)
        leaves = tree.leaves()
        singles = {x: assess_paths(tree, RemovalSet(PATHS, frozenset([x])),
                                   out) for x in leaves}
        eff = [x for x, r in singles.items()
               if r.verdict == EFFECTIVE and not r.infeasible]
        ineff = [x for x, r in singles.items() if r.verdict == INEFFECTIVE]
        if not eff or not ineff:
            continue
        # grow an ineffective set, re-checking the set verdict as we go
        chosen = [rng.choice(ineff)]
        for cand in ineff:
            if cand in chosen or len(chosen) >= 3:
                continue
            trial = frozenset(chosen + [cand])
            if assess_paths(tree, RemovalSet(PATHS, trial),
                            out).verdict == INEFFECTIVE:
                chosen.append(cand)
        s_any = frozenset(rng.sample(leaves,
                                     rng.randint(1, len(leaves) // 2)))
        res = verify_union_intersection(
            tree, RemovalSet(PATHS, frozenset([rng.choice(eff)])),
            RemovalSet(PATHS, frozenset(chosen)),
            RemovalSet(PATHS, s_any), out)
        all_ok = all_ok and res["ok"]
        done += 1
    report(7, "union stays effective, intersection and subsets stay "
           "ineffective", all_ok and done == 10, f"{done} triples verified")


def test_criterion_08_infeasible_assessment_convention():
    tree = gen_random(77, T=3, branching=3, gamma=0.5)  # last gamma < 1
    out = solve_extensive(tree)
    parent = tree.stage_nodes(2)[0]
    kids = frozenset(tree.children(parent))
    r_path = assess_paths(tree, RemovalSet(PATHS, kids), out)
    r_cond = assess_realizations(tree, RemovalSet(REALIZATIONS, kids),
                                 out)[parent]
    ok = all(r.infeasible and math.isinf(r.value) and r.verdict == EFFECTIVE
             for r in (r_path, r_cond))
    report(8, "removing every child of a node is +inf hence Effective", ok)


def test_criterion_09_water_analog_structure():
    single = {}
    for g in (0.9, 0.925, 0.95):
        tree = gen_water_analog(0, gamma=g, asymmetric=True)
        out = solve_extensive(tree)
        eff = [p.leaf for p in classify_paths(tree, out)
               if p.label == EFFECTIVE]
        single[g] = eff
    only_adverse = all(v == ["LHD-LHD"] for v in single.values())

    tree = gen_water_analog(0, gamma=0.05, asymmetric=True)
    out = solve_extensive(tree)
    cond = classify_tree(tree, out)
    stage2 = frozenset(n.id for n in tree.nodes
                       if n.stage == 2 and cond[n.id].label == EFFECTIVE)
    stage3 = {
        p: frozenset(c.split("-")[-1] for c in tree.children(p)
                     if cond[c].label == EFFECTIVE)
        for p in tree.stage_nodes(2)
    }
    differs = any(pattern != stage2 for pattern in stage3.values())
    report(9, "water analog: one adverse path at high gamma, "
           "stage-dependent patterns at low gamma",
           only_adverse and differs,
           f"high-gamma effective paths {sorted(set(map(tuple, map(list, single.values()))))}, "
           f"stage-2 pattern size {len(stage2)}")


def test_criterion_10_classify_is_deterministic(tmp_path):
    tree = gen_random(5, T=3, branching=3, gamma=0.5)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(to_dict(tree)))
    blobs = []
    for k in range(2):
        out = tmp_path / f"rep{k}.json"
        assert cli_main(["classify", str(inst), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    report(10, "repeated classify runs are byte-identical",
           blobs[0] == blobs[1])


def test_criterion_11_benders_with_removals_matches_root_lp(removal_corpus):
    worst = 0.0
    solved = 0
    for tree, removals, root, incoming, value, _ in removal_corpus:
        try:
            # a stopping gap far inside the 1e-8 agreement checked below
            ben = solve_benders(tree, tol=1e-10, removals=removals,
                                root=root, fixed_incoming=incoming)
        except InstanceInfeasible:
            assert value is None, f"{tree.name} {removals}: Benders infeasible"
            continue
        assert value is not None, f"{tree.name} {removals}: LP infeasible"
        assert ben.lower <= value + 1e-9 * max(1.0, abs(value))
        worst = max(worst, abs(ben.objective - value) / max(1.0, abs(value)))
        solved += 1
    report(11, "Benders with removals, subtree root and fixed incoming "
           "matches the restricted root LP", worst <= 1e-8 and solved > 0,
           f"{solved} of {len(removal_corpus)} removals, "
           f"max rel diff {worst:.2e}")


def test_criterion_12_oracle_matches_extensive_only_route(removal_corpus):
    mismatches = 0
    for tree, removals, _, _, value, res in removal_corpus:
        if value is None:
            want = (EFFECTIVE, True, False)
        else:
            _, label, borderline = _verdict(value, res.baseline)
            want = (label, False, borderline)
        mismatches += (res.verdict, res.infeasible, res.borderline) != want
    report(12, "oracle verdicts and flags equal the extensive-only route",
           mismatches == 0,
           f"{len(removal_corpus)} assessments, {mismatches} mismatches")
