"""Easy-to-check effectiveness labels from primal categories.

After a solve, each non-root node gets a conditional label (Effective,
Ineffective, Unidentified) by looking at where its value sits among its
siblings: below the gamma-quantile, at it, between quantile and sup, or
at the sup. Scenario paths are then labeled by combining the conditional
labels along the path. Everything here is a cheap function of the solved
values, apart from sweep_point, which solves the tree it labels; the
expensive ground truth lives in oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSolved
from .solver import SolveOutcome, solve_extensive
from .tree import ScenarioTree, with_uniform_gamma
from .tvrisk import (REMOVAL_FEAS_TOL, FiniteDist, categorize,
                     removal_empties, value_band, worst_case_expectation)

EFFECTIVE = "Effective"
INEFFECTIVE = "Ineffective"
UNIDENTIFIED = "Unidentified"


def eff_tolerance(baseline: float) -> float:
    """Strict-decrease threshold shared by the classifier's Effective
    certificate and the assessment oracle: a removal counts as effective
    only when it lowers the value by more than this: 1e-6 up to
    |baseline| 1e3, 1e-9 |baseline| beyond (tvrisk.value_band)."""
    return value_band(1e-6, baseline)

# edge styling used by the DOT export, keyed by conditional label
_DOT_STYLE = {
    EFFECTIVE: 'style=solid penwidth=2',
    INEFFECTIVE: 'style=dotted penwidth=1',
    UNIDENTIFIED: 'style=solid penwidth=1',
}


@dataclass(frozen=True)
class CondLabel:
    """Conditional label of one node, as a child of its parent."""

    node: str
    label: str
    category: str | None  # C1..C4, or None when categories do not apply
    reason: str


@dataclass(frozen=True)
class PathLabel:
    """Label of one scenario path, identified with its leaf."""

    leaf: str
    label: str
    witness: str | None = None  # shallowest ineffective node when Ineffective
    reason: str = "arc-labels"


def _child_values(tree: ScenarioTree, outcome, node: str) -> list[float]:
    kids = tree.children(node)
    vals = []
    for c in kids:
        if c not in outcome.q_values:
            raise NotSolved(f"no recorded value for node {c!r}; solve first")
        vals.append(outcome.q_values[c])
    return vals


def classify_node_children(
    tree: ScenarioTree,
    outcome,
    node: str,
    c2_rule: str = "c1_plus_c2",
) -> list[CondLabel]:
    """Label every child of `node`, in file order.

    The paper's rules propose a label from each child's category. An
    Ineffective or residual label stands; an Effective one must pass one
    certificate: the removal empties the ball (tvrisk.removal_empties), or
    it lowers the worst case at the recorded child values by more than
    eff_tolerance(node value). Re-optimizing the stage decision can only
    lower the restricted value further, so the oracle sees at least that
    drop. A proposal that fails comes back Unidentified with reason
    "<rule>-no-drop" ("at-sup-tie" for a tie at the sup).

    The rules only apply when the radius is strictly inside (0, 1) and
    every child carries positive nominal mass; otherwise all children
    come back Unidentified and the oracle has to resolve them.

    c2_rule picks which mass gets compared against gamma when a child
    sits exactly at the quantile level:

    * "c1_plus_c2" (default): compare the cumulative mass at or below
      the quantile. This reading never contradicts the assessment
      oracle.
    * "c2_only": compare the mass of the at-quantile group itself, the
      literal summary-table reading. It can mislabel the knife-edge
      case where the at-quantile mass equals gamma exactly while
      strictly-below children exist (see tests for the worked
      counterexample), and it leaves singleton at-quantile children
      unresolved whenever their own mass stays below gamma.
    """
    if c2_rule not in ("c2_only", "c1_plus_c2"):
        raise ValueError(f"unknown c2_rule {c2_rule!r}")
    gamma = tree.gamma_for_children_of(node)
    kids = tree.children(node)
    q = tree.q_children(node)
    h = _child_values(tree, outcome, node)

    if not 0.0 < gamma < 1.0:
        return [CondLabel(c, UNIDENTIFIED, None, "gamma-boundary") for c in kids]
    if min(q) <= 0.0:
        return [CondLabel(c, UNIDENTIFIED, None, "zero-mass-child") for c in kids]

    dist = FiniteDist(h, q)
    cats = categorize(dist, gamma)
    c2_mass = sum(qi for qi, lab in zip(q, cats) if lab == "C2")
    if c2_rule == "c1_plus_c2":
        c2_mass += sum(qi for qi, lab in zip(q, cats) if lab == "C1")
    n_c2 = cats.count("C2")
    n_c4 = cats.count("C4")
    base = worst_case_expectation(dist, gamma).value
    eps = eff_tolerance(outcome.q_values.get(node, base))

    out = []
    for idx, (c, lab) in enumerate(zip(kids, cats)):
        if lab == "C1":
            out.append(CondLabel(c, INEFFECTIVE, lab, "below-var"))
            continue
        if lab == "C2" and abs(c2_mass - gamma) <= REMOVAL_FEAS_TOL:
            out.append(CondLabel(c, INEFFECTIVE, lab, "at-var-mass-equals-gamma"))
            continue
        if lab == "C2" and (c2_mass <= gamma or n_c2 > 1):
            out.append(CondLabel(c, UNIDENTIFIED, lab, "at-var-residual"))
            continue
        # the rules propose Effective; the certificate decides
        empties = removal_empties(q, [idx], gamma)
        if lab == "C4" and n_c4 > 1:  # tied at the sup: only the drop decides
            rule = "removal-infeasible" if empties else "at-sup-tie-drop"
            fail = "at-sup-tie"
        else:
            rule = {"C2": "at-var-singleton-above-gamma", "C3": "above-var",
                    "C4": "at-sup"}[lab]
            fail = rule + "-no-drop"
        if empties or \
                base - worst_case_expectation(dist, gamma, [idx]).value > eps:
            out.append(CondLabel(c, EFFECTIVE, lab, rule))
        else:
            out.append(CondLabel(c, UNIDENTIFIED, lab, fail))
    return out


def classify_tree(
    tree: ScenarioTree,
    outcome,
    c2_rule: str = "c1_plus_c2",
) -> dict[str, CondLabel]:
    """Conditional labels for every node of stage >= 2, keyed by node id."""
    labels: dict[str, CondLabel] = {}
    for t in range(1, tree.T):
        for nid in tree.stage_nodes(t):
            for cl in classify_node_children(tree, outcome, nid, c2_rule):
                labels[cl.node] = cl
    return labels


def classify_paths(
    tree: ScenarioTree,
    outcome,
    c2_rule: str = "c1_plus_c2",
    cond: dict[str, CondLabel] | None = None,
) -> list[PathLabel]:
    """Per-leaf path labels: Effective when every along-path conditional
    label is Effective, Ineffective when any is (witnessed by the
    shallowest such node), Unidentified otherwise.

    One override comes first: removing a single path only restricts the
    last-stage ambiguity set at its parent, so when that removal empties
    the set (tvrisk.removal_empties: the leaf's own mass exceeds the
    radius, or the leaf is its parent's only child) the path is
    effective by the +inf convention, whatever the arc labels say. The
    arc combination rule is silent about this corner, and the re-solving
    oracle applies the same rule, so it is decided here too."""
    if cond is None:
        cond = classify_tree(tree, outcome, c2_rule)
    out = []
    for leaf in tree.leaves():
        parent = tree.parent(leaf)
        if removal_empties(tree.q_children(parent),
                           [tree.children(parent).index(leaf)],
                           tree.gamma_for_children_of(parent)):
            out.append(PathLabel(leaf, EFFECTIVE, None, "removal-infeasible"))
            continue
        arcs = [cond[n] for n in tree.path(leaf)[1:]]
        witness = next((a.node for a in arcs if a.label == INEFFECTIVE), None)
        if witness is not None:
            out.append(PathLabel(leaf, INEFFECTIVE, witness))
        elif all(a.label == EFFECTIVE for a in arcs):
            out.append(PathLabel(leaf, EFFECTIVE))
        else:
            out.append(PathLabel(leaf, UNIDENTIFIED))
    return out


def classification_report(
    tree: ScenarioTree,
    outcome,
    c2_rule: str = "c1_plus_c2",
    cond: dict[str, CondLabel] | None = None,
    paths: list[PathLabel] | None = None,
) -> dict:
    """JSON-ready report: solve header, per-node conditional labels,
    per-leaf path labels, and the label tallies. `cond` and `paths`, when
    given, are the labels classify_tree and classify_paths return under
    the same c2_rule."""
    if cond is None:
        cond = classify_tree(tree, outcome, c2_rule)
    if paths is None:
        paths = classify_paths(tree, outcome, c2_rule, cond)

    nodes = []
    for nd in tree.nodes:
        if nd.id not in cond:
            continue
        cl = cond[nd.id]
        nodes.append({
            "id": nd.id,
            "stage": nd.stage,
            "category": cl.category,
            "cond_label": cl.label,
            "reason": cl.reason,
        })
    leaves = [
        {"id": p.leaf, "path_label": p.label, "witness": p.witness}
        for p in paths
    ]
    n_nodes = len(nodes)
    n_unid_nodes = sum(1 for n in nodes if n["cond_label"] == UNIDENTIFIED)
    return {
        "instance": tree.name,
        "solver": outcome.solver,
        "objective": outcome.objective,
        "c2_mass_rule": c2_rule,
        "nodes": nodes,
        "leaves": leaves,
        "summary": {
            "n_effective_paths": sum(1 for p in paths if p.label == EFFECTIVE),
            "n_ineffective": sum(1 for p in paths if p.label == INEFFECTIVE),
            "n_unidentified": sum(1 for p in paths if p.label == UNIDENTIFIED),
            "unidentified_node_fraction": (n_unid_nodes / n_nodes) if n_nodes else 0.0,
        },
    }


def sweep_point(tree: ScenarioTree,
                gamma: float) -> tuple[SolveOutcome, list[PathLabel]]:
    """One point of a gamma sweep: the tree with every stage radius set
    to gamma, solved by the extensive LP, and its path labels."""
    tree = with_uniform_gamma(tree, gamma)
    outcome = solve_extensive(tree)
    return outcome, classify_paths(tree, outcome)


def to_dot(tree: ScenarioTree, cond: dict[str, CondLabel]) -> str:
    """Render the tree as graphviz source. Edge style encodes the child's
    conditional label: effective bold solid, ineffective dotted,
    unidentified thin solid."""
    lines = ["digraph scenario_tree {", "  rankdir=LR;", "  node [shape=box];"]
    for node in tree.nodes:
        lines.append(f'  "{node.id}" [label="{node.id}\\nstage {node.stage}"];')
        if node.parent is not None:
            lab = cond[node.id].label if node.id in cond else UNIDENTIFIED
            lines.append(f'  "{node.parent}" -> "{node.id}" [{_DOT_STYLE[lab]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
