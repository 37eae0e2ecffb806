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
from .tvrisk import (FiniteDist, categorize, removal_empties,
                     worst_case_expectation)

EFFECTIVE = "Effective"
INEFFECTIVE = "Ineffective"
UNIDENTIFIED = "Unidentified"

# equality tolerance for probability-mass comparisons against gamma
MASS_EQ_TOL = 1e-9


def eff_tolerance(baseline: float) -> float:
    """Strict-decrease threshold shared by the classifier soundness tests
    and the assessment oracle: a removal counts as effective only when it
    lowers the value by more than this."""
    return 1e-6 * max(1.0, abs(baseline))

# edge styling used by the DOT export, keyed by conditional label
_DOT_STYLE = {
    EFFECTIVE: 'style=solid penwidth=2',
    INEFFECTIVE: 'style=dotted penwidth=1',
    UNIDENTIFIED: 'style=solid penwidth=1',
}


@dataclass(frozen=True)
class ClassifierSettings:
    """Knobs for the borderline (at-quantile) cases.

    c2_mass_rule picks which mass gets compared against gamma when a
    child sits exactly at the quantile level:

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

    c2_mass_rule: str = "c1_plus_c2"

    def __post_init__(self):
        if self.c2_mass_rule not in ("c2_only", "c1_plus_c2"):
            raise ValueError(f"unknown c2_mass_rule {self.c2_mass_rule!r}")


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
    settings: ClassifierSettings | None = None,
) -> list[CondLabel]:
    """Label every child of `node`, in file order.

    The rules only apply when the radius is strictly inside (0, 1) and
    every child carries positive nominal mass; otherwise all children
    come back Unidentified and the oracle has to resolve them.
    """
    settings = settings or ClassifierSettings()
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
    c2_mass = sum(qi for qi, lab in zip(q, cats.labels) if lab == "C2")
    if settings.c2_mass_rule == "c1_plus_c2":
        c2_mass += sum(qi for qi, lab in zip(q, cats.labels) if lab == "C1")
    n_c2 = cats.labels.count("C2")
    n_c4 = cats.labels.count("C4")

    out = []
    for idx, (c, lab) in enumerate(zip(kids, cats.labels)):
        if lab == "C4" and n_c4 > 1:
            # ties at the sup: dropping one of several sup children can
            # leave the worst case unchanged, so the blanket at-sup rule
            # does not apply. A strict drop of the restricted worst case
            # at the recorded child values still certifies Effective
            # (re-optimizing the stage decision can only drop further);
            # no drop certifies nothing either way.
            if removal_empties(q, [idx], gamma):
                out.append(CondLabel(c, EFFECTIVE, lab, "removal-infeasible"))
                continue
            base = worst_case_expectation(dist, gamma).value
            res = worst_case_expectation(dist, gamma, [idx])
            eps = eff_tolerance(outcome.q_values.get(node, base))
            if base - res.value > eps:
                out.append(CondLabel(c, EFFECTIVE, lab, "at-sup-tie-drop"))
            else:
                out.append(CondLabel(c, UNIDENTIFIED, lab, "at-sup-tie"))
        elif lab == "C4":
            out.append(CondLabel(c, EFFECTIVE, lab, "at-sup"))
        elif lab == "C3":
            out.append(CondLabel(c, EFFECTIVE, lab, "above-var"))
        elif lab == "C1":
            out.append(CondLabel(c, INEFFECTIVE, lab, "below-var"))
        elif abs(c2_mass - gamma) <= MASS_EQ_TOL and \
                not removal_empties(q, [idx], gamma):
            # a child whose removal empties the ball is effective however
            # close its mass is to gamma; it falls through to the rules below
            out.append(CondLabel(c, INEFFECTIVE, lab, "at-var-mass-equals-gamma"))
        elif c2_mass > gamma and n_c2 == 1:
            out.append(CondLabel(c, EFFECTIVE, lab, "at-var-singleton-above-gamma"))
        else:
            out.append(CondLabel(c, UNIDENTIFIED, lab, "at-var-residual"))
    return out


def classify_tree(
    tree: ScenarioTree,
    outcome,
    settings: ClassifierSettings | None = None,
) -> dict[str, CondLabel]:
    """Conditional labels for every node of stage >= 2, keyed by node id."""
    labels: dict[str, CondLabel] = {}
    for t in range(1, tree.T):
        for nid in tree.stage_nodes(t):
            for cl in classify_node_children(tree, outcome, nid, settings):
                labels[cl.node] = cl
    return labels


def classify_paths(
    tree: ScenarioTree,
    outcome,
    settings: ClassifierSettings | None = None,
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
        cond = classify_tree(tree, outcome, settings)
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
    settings: ClassifierSettings | None = None,
    cond: dict[str, CondLabel] | None = None,
    paths: list[PathLabel] | None = None,
) -> dict:
    """JSON-ready report: solve header, per-node conditional labels,
    per-leaf path labels, and the label tallies. `cond` and `paths`, when
    given, are the labels classify_tree and classify_paths return under
    the same settings."""
    settings = settings or ClassifierSettings()
    if cond is None:
        cond = classify_tree(tree, outcome, settings)
    if paths is None:
        paths = classify_paths(tree, outcome, settings, cond)

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
        "c2_mass_rule": settings.c2_mass_rule,
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
