"""Ground-truth effectiveness by re-solving.

The definitions are operational: a set of scenario paths (or of
stage-(t+1) realizations) is effective exactly when forcing it to zero
probability in the relevant ambiguity sets strictly lowers the optimal
value. This module builds those restricted problems and compares optimal
values, so it can arbitrate the cheap classifier in effectiveness.py.

Each restricted problem is first solved by nested Benders, which brackets
its optimum as lower <= v* <= upper. The verdict (drop > eff_tolerance)
and the borderline flag (drop <= BORDERLINE_FACTOR * eff_tolerance) are
step functions of the drop, so when both ends of the bracket give the
same pair, every value inside it does too, and Benders decides the
assessment with the upper bound as its value. When the bracket straddles
a threshold, or Benders stops above BENDERS_TOL or fails (an infeasible
subproblem, or a bracket inverted by its theta floor), the restricted
extensive root LP decides instead, so Benders never marks an assessment
infeasible on its own. Only the root LP is solved, never the policy
extraction of solve_extensive, whose policy an assessment does not need.

It also holds the label check that `drotree classify --oracle` runs:
identified_labels lists the classifier's identified labels, and
check_labels assesses each one against its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effectiveness import EFFECTIVE, INEFFECTIVE, UNIDENTIFIED, eff_tolerance
from .errors import InstanceInfeasible, InvalidRemoval, NotSolved, NumericalBreakdown
from .solver import (
    SolveOutcome,
    _solve_or_raise,
    build_extensive,
    check_removals,
    solve_benders,
)
from .tree import ScenarioTree

# decreases between eff_tolerance and this multiple of it are flagged
BORDERLINE_FACTOR = 10.0
# Benders' relative stopping gap for assessments: far inside the 1e-6
# verdict tolerance, so the reported value is the optimum to ~1e-10
BENDERS_TOL = 1e-10

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


def _bands(value: float, baseline: float) -> tuple[bool, bool]:
    """Where the drop baseline - value sits: (above eff_tolerance, at or
    below BORDERLINE_FACTOR times it). Verdict and flag follow from it."""
    eps = eff_tolerance(baseline)
    drop = baseline - value
    return drop > eps, drop <= BORDERLINE_FACTOR * eps


def _verdict(value: float, baseline: float) -> tuple[float, str, bool]:
    if baseline - value < -eff_tolerance(baseline):
        raise NumericalBreakdown(
            f"assessment value {value!r} exceeds baseline {baseline!r}; "
            "restricting the ambiguity sets cannot increase the optimum")
    effective, below_top = _bands(value, baseline)
    return (value, EFFECTIVE if effective else INEFFECTIVE,
            effective and below_top)


def _assess(tree: ScenarioTree, removals, baseline: float,
            node: str | None = None, incoming=None) -> AssessmentResult:
    """One assessment: the optimum of the (sub)tree at `node` (the whole
    tree when None, else with the parent decision fixed at `incoming`)
    with `removals` applied, judged against `baseline`."""
    try:
        removals = check_removals(tree, removals)
        value = _restricted_value(tree, removals, baseline, node, incoming)
    except InstanceInfeasible:
        return AssessmentResult(node, math.inf, baseline, EFFECTIVE,
                                infeasible=True)
    value, label, borderline = _verdict(value, baseline)
    return AssessmentResult(node, value, baseline, label,
                            borderline=borderline)


def _restricted_value(tree, removals, baseline, node, incoming) -> float:
    """The restricted optimum, or a Benders upper bound whose bracket
    already fixes the verdict and the borderline flag (module docstring)."""
    try:
        ben = solve_benders(tree, tol=BENDERS_TOL, removals=removals,
                            root=node, fixed_incoming=incoming)
    except (InstanceInfeasible, NumericalBreakdown):
        ben = None  # the root LP decides: infeasible, or an inverted bracket
    if ben is not None and ben.gap <= BENDERS_TOL and \
            _bands(ben.lower, baseline) == _bands(ben.objective, baseline):
        return ben.objective
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
    root LP alone: a path assessment needs no policy."""
    _validate_paths(tree, removal)
    if outcome is None:
        lp, _ = build_extensive(tree)
        baseline = float(_solve_or_raise(lp, "instance").objective_value)
    else:
        baseline = outcome.objective
    return _assess(tree, _group_by_parent(tree, removal.ids), baseline)


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
        results[parent] = _assess(tree, {parent: gone}, baseline,
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
