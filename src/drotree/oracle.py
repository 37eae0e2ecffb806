"""Ground-truth effectiveness by re-solving.

The definitions are operational: a set of scenario paths (or of
stage-(t+1) realizations) is effective exactly when forcing it to zero
probability in the relevant ambiguity sets strictly lowers the optimal
value. This module builds those restricted problems and compares optimal
values, so it can arbitrate the cheap classifier in effectiveness.py.

A check is decided in three steps (_assess). A removal that empties an
ambiguity set is infeasible, hence Effective. Else, when the baseline
LP's duals on every removed child's risk rows are exactly zero (kept by
solve_extensive on SolveOutcome), the check is Ineffective with value
equal to the baseline, and no LP is solved. Else the restricted problem
is decided by its extensive root LP (the whole tree for a path
assessment; the parent's subtree, with the grandparent's decision fixed,
for a realization). Only that LP is solved, never the policy extraction
of solve_extensive, whose policy an assessment does not need. An
infeasible restricted LP marks the assessment infeasible.

It also holds the label check that `drotree classify --oracle` runs:
identified_labels lists the classifier's identified labels, and
check_labels assesses each one against its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effectiveness import EFFECTIVE, INEFFECTIVE, UNIDENTIFIED, eff_tolerance
from .errors import InstanceInfeasible, InvalidRemoval, NotSolved, NumericalBreakdown
from .solver import (SolveOutcome, _solve_or_raise, build_extensive,
                     check_removals)
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


def _assess(tree: ScenarioTree, removals, baseline: float, duals,
            node: str | None = None, incoming=None) -> AssessmentResult:
    """One assessment: the optimum of the (sub)tree at `node` (the whole
    tree when None, else with the parent decision fixed at `incoming`)
    with `removals` applied, judged against `baseline`. `duals` maps each
    child to its risk-row duals in that LP without removals (empty when
    unknown). Zero duals stay feasible for the restricted LP, which drops
    those rows (rhs 0) and the s_c columns, so its optimum is the
    baseline's; no tolerance, as a dual of 1e-17 is not zero."""
    try:
        removals = check_removals(tree, removals)
        if all(c in duals and not any(duals[c])
               for gone in removals.values() for c in gone):
            value = baseline
        else:
            value = _restricted_value(tree, removals, node, incoming)
    except InstanceInfeasible:
        return AssessmentResult(node, math.inf, baseline, EFFECTIVE,
                                infeasible=True)
    value, label, borderline = _verdict(value, baseline)
    return AssessmentResult(node, value, baseline, label,
                            borderline=borderline)


def _restricted_value(tree, removals, node, incoming) -> float:
    """The optimum of the restricted extensive root LP; raises
    InstanceInfeasible when the restriction leaves no feasible policy."""
    lp, _ = build_extensive(tree, removals=removals, root=node,
                            fixed_incoming=incoming)
    return _solve_or_raise(lp, "restricted problem").objective_value


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
    optimum, taken from `outcome` or, without one, from the extensive
    root LP alone: a path assessment needs no policy. With an extensive
    outcome, removed leaves whose root-LP risk-row duals are all zero are
    certified Ineffective with value == baseline and no LP; without an
    outcome, or with a Benders one, every feasible removal re-solves."""
    _validate_paths(tree, removal)
    if outcome is None:
        lp, _ = build_extensive(tree)
        baseline = float(_solve_or_raise(lp, "instance").objective_value)
        duals = {}
    else:
        baseline, duals = outcome.objective, outcome.root_duals
    return _assess(tree, _group_by_parent(tree, removal.ids), baseline,
                   duals)


def assess_realizations(tree: ScenarioTree, removal: RemovalSet,
                        outcome: SolveOutcome) -> dict[str, AssessmentResult]:
    """Conditional assessment: for each parent of a removed node, fix the
    incoming decision at the solved policy, re-solve that subtree with
    only the parent's own ambiguity set restricted, and compare against
    the recorded node value. Keyed by parent id in file order. When the
    parent's own LP in an extensive outcome (the root LP at stage 2, else
    its extraction LP) has all-zero duals on the removed children's risk
    rows, that parent's check is Ineffective with value == baseline and
    solves no LP; a Benders outcome keeps no duals and always re-solves."""
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
        results[parent] = _assess(tree, {parent: gone}, baseline,
                                  outcome.parent_duals, parent, incoming)
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
