"""Ground-truth effectiveness by re-solving.

A set of scenario paths (or of stage-(t+1) realizations) is effective
exactly when forcing it to zero probability in the relevant ambiguity
sets strictly lowers the optimal value. The restricted problem of a check
is its baseline LP with the removed children's risk rows relaxed: the
root LP for a path check, the parent's own LP for a realization check
(the root LP at stage 2, else the parent's extraction LP, which fixes the
grandparent's decision). A check is decided in three steps (_assess): a
removal that empties an ambiguity set is infeasible, hence Effective,
with no LP; a removal whose freed risk-row slacks do not price out in
the baseline's final tableau keeps the baseline (lp.relax, no pivot); any
other re-solves warm from that tableau with phase 2 alone.

The baseline LPs live on the outcome (SolveOutcome.states): a
solve_extensive outcome brings them, and a check on any other outcome,
or with none, solves the ones it needs once (solver.node_lp_state).
Warm values can differ from a cold solve of the restricted LP in the
last digits.

It also holds the label check that `drotree classify --oracle` runs:
identified_labels lists the classifier's identified labels, and
check_labels assesses each one against its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effectiveness import EFFECTIVE, INEFFECTIVE, UNIDENTIFIED, eff_tolerance
from .errors import InstanceInfeasible, InvalidRemoval, NotSolved, NumericalBreakdown
from .lp import relax
from .solver import SolveOutcome, _checked, check_removals, node_lp_state
from .tree import ScenarioTree

# decreases between eff_tolerance and this multiple of it are flagged
BORDERLINE_FACTOR = 10.0

PATHS = "Paths"
REALIZATIONS = "Realizations"


@dataclass(frozen=True)
class RemovalSet:
    """Nodes to force to zero probability: leaves for path assessment,
    one stage's nodes for conditional assessment."""

    kind: str
    ids: frozenset[str]

    def __post_init__(self):
        if self.kind not in (PATHS, REALIZATIONS):
            raise InvalidRemoval(f"unknown removal kind {self.kind!r}")
        ids = frozenset(self.ids)
        object.__setattr__(self, "ids", ids)
        if not ids:
            raise InvalidRemoval("empty removal set")


@dataclass(frozen=True)
class AssessmentResult:
    """Outcome of one assessment solve. `node` is the conditioning node
    for conditional assessments and None for whole-problem path
    assessments. An infeasible restriction gets value +inf and counts as
    Effective by convention."""

    node: str | None
    value: float
    baseline: float
    verdict: str
    infeasible: bool = False
    borderline: bool = False


def _verdict(value: float, baseline: float) -> tuple[float, str, bool]:
    """The verdict on a restricted value: Effective when the drop
    baseline - value exceeds eff_tolerance, borderline when it is also at
    most BORDERLINE_FACTOR times that."""
    eps = eff_tolerance(baseline)
    drop = baseline - value
    if drop < -eps:
        raise NumericalBreakdown(
            f"assessment value {value!r} exceeds baseline {baseline!r}; "
            "restricting the ambiguity sets cannot increase the optimum")
    effective = drop > eps
    return (value, EFFECTIVE if effective else INEFFECTIVE,
            effective and drop <= BORDERLINE_FACTOR * eps)


def _assess(tree: ScenarioTree, removals, baseline: float, outcome,
            node: str | None = None, incoming=None,
            state=None) -> AssessmentResult:
    """One assessment of the (sub)tree at `node` (the whole tree when
    None) with `removals` applied, against `baseline`. Its baseline LP is
    `state`, else node_lp_state's. Each removed child's s_c stays in the
    relaxed LP, where it can only raise node values, so the optimum is
    the restricted one."""
    try:
        removals = check_removals(tree, removals)
    except InstanceInfeasible:
        return AssessmentResult(node, math.inf, baseline, EFFECTIVE,
                                infeasible=True)
    sol, vm = state or node_lp_state(
        tree, tree.root() if node is None else node, incoming, outcome)
    res = relax(sol, [i for gone in removals.values() for c in gone
                      for i in vm.risk_rows.get(c, ())])
    value = baseline if res is sol else \
        _checked(res, "restricted problem").objective_value
    value, label, borderline = _verdict(value, baseline)
    return AssessmentResult(node, value, baseline, label,
                            borderline=borderline)


def _group_by_parent(tree: ScenarioTree, ids) -> dict[str, frozenset]:
    """The ids under each of their parents, parents in file order. The
    callers have checked that the ids share one stage below the root."""
    groups: dict[str, set] = {}
    for i in ids:
        groups.setdefault(tree.parent(i), set()).add(i)
    return {n.id: frozenset(groups[n.id]) for n in tree.nodes
            if n.id in groups}


def _validate_paths(tree: ScenarioTree, removal: RemovalSet):
    if removal.kind != PATHS:
        raise InvalidRemoval(f"expected a {PATHS} removal, got {removal.kind}")
    not_leaves = [i for i in sorted(removal.ids)
                  if tree.node(i).stage != tree.T]
    if not_leaves:
        raise InvalidRemoval(f"not scenario paths: {not_leaves}")


def assess_paths(tree: ScenarioTree, removal: RemovalSet,
                 outcome: SolveOutcome | None = None) -> AssessmentResult:
    """Solve the path assessment problem: the same nested problem except
    that each affected last-stage ambiguity set has the removed leaves
    pinned to zero probability. Compares against the unrestricted
    optimum, taken from `outcome` or, without one, from the root LP: a
    path assessment needs no policy."""
    _validate_paths(tree, removal)
    if outcome is None:
        state = node_lp_state(tree, tree.root())
        baseline = state[0].objective_value
    else:
        state, baseline = None, outcome.objective
    return _assess(tree, _group_by_parent(tree, removal.ids), baseline,
                   outcome, state=state)


def assess_realizations(tree: ScenarioTree, removal: RemovalSet,
                        outcome: SolveOutcome) -> dict[str, AssessmentResult]:
    """Conditional assessment: for each parent of a removed node, fix the
    incoming decision at the solved policy, re-solve that subtree with
    only the parent's own ambiguity set restricted, and compare against
    the recorded node value. Keyed by parent id in file order."""
    if removal.kind != REALIZATIONS:
        raise InvalidRemoval(
            f"expected a {REALIZATIONS} removal, got {removal.kind}")
    stages = {tree.node(i).stage for i in removal.ids}
    if len(stages) > 1:
        raise InvalidRemoval(f"removal spans stages {sorted(stages)}")
    if stages == {1}:
        raise InvalidRemoval("the root is not a realization of any parent")

    results: dict[str, AssessmentResult] = {}
    for parent, gone in _group_by_parent(tree, removal.ids).items():
        if parent not in outcome.q_values:
            raise NotSolved(f"no recorded value for node {parent!r}")
        baseline = outcome.q_values[parent]
        grand = tree.parent(parent)
        if grand is not None and grand not in outcome.policy:
            raise NotSolved(f"no recorded decision for node {grand!r}")
        incoming = outcome.policy[grand] if grand is not None else None
        results[parent] = _assess(tree, {parent: gone}, baseline, outcome,
                                  parent, incoming)
    return results


def assessment_json(removal: RemovalSet, result: AssessmentResult) -> dict:
    """CLI-facing shape; +inf is emitted as null next to the flag."""
    return {
        "removal": {"kind": removal.kind, "ids": sorted(removal.ids)},
        "node": result.node,
        "value": None if result.infeasible else result.value,
        "baseline": result.baseline,
        "verdict": result.verdict,
        "infeasible": result.infeasible,
        "borderline": result.borderline,
    }


def identified_labels(cond, paths) -> list[tuple[str, str, str]]:
    """(kind, id, label) of every label the classifier identified: the
    conditional labels ("cond", by node) in their order, then the path
    labels ("path", by leaf)."""
    items = [("cond", nid, cl.label) for nid, cl in cond.items()
             if cl.label != UNIDENTIFIED]
    items += [("path", p.leaf, p.label) for p in paths
              if p.label != UNIDENTIFIED]
    return items


def check_labels(tree: ScenarioTree, outcome: SolveOutcome,
                 items) -> list[dict]:
    """Assess each identified label of `items` against `outcome`, the
    baseline solve; one JSON-ready record per item, in order."""
    records = []
    for kind, nid, label in items:
        if kind == "cond":
            removal = RemovalSet(REALIZATIONS, frozenset({nid}))
            res = assess_realizations(tree, removal, outcome)[tree.parent(nid)]
        else:
            res = assess_paths(tree, RemovalSet(PATHS, frozenset({nid})),
                               outcome)
        records.append({
            "kind": kind,
            "id": nid,
            "label": label,
            "verdict": res.verdict,
            "agree": res.verdict == label,
            "value": None if res.infeasible else res.value,
            "baseline": res.baseline,
            "infeasible": res.infeasible,
        })
    return records
