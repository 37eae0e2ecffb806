"""Scenario tree container, instance file format, and tree queries.

Node ids are strings. Stages are 1-based; stage 1 is the root, stage T the
leaves. Children keep the order they appear in the instance file, and every
downstream ordering (risk maximizers, reports, exports) inherits it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ParseError, StageOutOfRange, UnknownNode, ValidationError
from .stage import (MALFORMED, StageTemplate, as_float, as_int,
                    materialize, parse_template, template_to_json)
from .tvrisk import PROB_SUM_TOL


@dataclass(frozen=True)
class TreeNode:
    id: str
    stage: int
    parent: str | None
    q_cond: float
    xi: dict[str, float]


@dataclass(frozen=True)
class ScenarioTree:
    name: str
    T: int
    nodes: tuple[TreeNode, ...]
    gamma: tuple[float, ...]              # radii for stages 2..T
    stage_templates: tuple[StageTemplate, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        index = {}
        child_map: dict[str, list[str]] = {}
        root = None
        for nd in self.nodes:
            if nd.id in index:
                raise ValidationError(f"node {nd.id!r}: duplicate id")
            index[nd.id] = nd
            child_map.setdefault(nd.id, [])
            if nd.stage == 1:
                if root is not None:
                    raise ValidationError(
                        f"node {nd.id!r}: second stage-1 node (root is {root})")
                root = nd.id
        for nd in self.nodes:
            if nd.parent is not None:
                if nd.parent not in index:
                    raise ValidationError(
                        f"node {nd.id!r}: parent {nd.parent!r} not in tree")
                child_map[nd.parent].append(nd.id)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_children", child_map)
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_node_lps", {})
        self._validate()

    def __reduce__(self):
        # a copy rebuilds the index and a fresh node-LP cache, whose
        # arrays are read-only again: pickling would drop that flag
        return (ScenarioTree, (self.name, self.T, self.nodes, self.gamma,
                               self.stage_templates, self.meta))

    def _validate(self):
        if self.T < 2:
            raise ValidationError("tree must have at least two stages")
        if self._root is None:
            raise ValidationError("no stage-1 root node")
        if len(self.gamma) != self.T - 1:
            raise ValidationError(
                f"gamma has {len(self.gamma)} entries, need T-1 = {self.T - 1}")
        for g in self.gamma:
            if not 0.0 <= g <= 1.0:
                raise ValidationError(f"gamma entry {g!r} outside [0, 1]")
        if len(self.stage_templates) != self.T:
            raise ValidationError(
                f"{len(self.stage_templates)} stage templates, need {self.T}")
        if any(r.link_coefs for r in self.stage_templates[0].rows):
            raise ValidationError("stage-1 template must not link backward")
        for t in range(1, self.T):
            prev_n = self.stage_templates[t - 1].n_vars
            for r in self.stage_templates[t].rows:
                for j in r.link_coefs:
                    if not 0 <= j < prev_n:
                        raise ValidationError(
                            f"stage {t + 1} template links to variable {j}, "
                            f"but stage {t} has {prev_n} variables")
        for nd in self.nodes:
            if not 1 <= nd.stage <= self.T:
                raise ValidationError(
                    f"node {nd.id!r}: stage {nd.stage} outside [1, {self.T}]")
            if (nd.parent is None) != (nd.stage == 1):
                raise ValidationError(
                    f"node {nd.id!r}: parent must be absent iff stage is 1")
            if nd.parent is not None:
                pstage = self._index[nd.parent].stage
                if pstage != nd.stage - 1:
                    raise ValidationError(
                        f"node {nd.id!r}: stage {nd.stage} but parent at "
                        f"stage {pstage}")
            if not 0.0 <= nd.q_cond <= 1.0 + PROB_SUM_TOL:
                raise ValidationError(
                    f"node {nd.id!r}: q {nd.q_cond!r} outside [0, 1]")
            where = f"node {nd.id!r}"
            for key, v in nd.xi.items():
                if not math.isfinite(v):
                    raise ValidationError(f"{where}: xi field {key!r} is {v!r}")
            for j, (lo, hi) in enumerate(
                    self.stage_templates[nd.stage - 1].var_bounds):
                if hi is not None and \
                        lo.value(nd.xi, where) > hi.value(nd.xi, where):
                    raise ValidationError(
                        f"{where}: variable {j} has lower bound above "
                        "upper bound")
        for nd in self.nodes:
            kids = self._children[nd.id]
            if nd.stage < self.T and not kids:
                raise ValidationError(
                    f"node {nd.id!r}: internal node at stage {nd.stage} "
                    "has no children")
            if nd.stage == self.T and kids:
                raise ValidationError(
                    f"node {nd.id!r}: leaf stage node has children")
            if kids:
                s = sum(self._index[k].q_cond for k in kids)
                if abs(s - 1.0) > PROB_SUM_TOL:
                    raise ValidationError(
                        f"node {nd.id!r}: children probabilities sum to "
                        f"{s!r}, not 1")

    # --- queries ------------------------------------------------------

    def node(self, node_id: str) -> TreeNode:
        try:
            return self._index[node_id]
        except KeyError:
            raise UnknownNode(f"node {node_id!r} not in tree") from None

    def root(self) -> str:
        return self._root

    def children(self, node_id: str) -> list[str]:
        self.node(node_id)
        return list(self._children[node_id])

    def parent(self, node_id: str) -> str | None:
        return self.node(node_id).parent

    def leaves(self) -> list[str]:
        return [n.id for n in self.nodes if n.stage == self.T]

    def stage_nodes(self, t: int) -> list[str]:
        if not 1 <= t <= self.T:
            raise StageOutOfRange(f"stage {t} outside [1, {self.T}]")
        return [n.id for n in self.nodes if n.stage == t]

    def path(self, node_id: str) -> list[str]:
        """Node ids from the root down to node_id inclusive."""
        nd = self.node(node_id)
        out = [nd.id]
        while nd.parent is not None:
            nd = self._index[nd.parent]
            out.append(nd.id)
        return out[::-1]

    def gamma_for_children_of(self, node_id: str) -> float:
        """Ambiguity radius of the ambiguity set sitting at node_id,
        i.e. the radius for its children's stage."""
        nd = self.node(node_id)
        if nd.stage >= self.T:
            raise StageOutOfRange(f"node {node_id!r} is a leaf")
        return self.gamma[nd.stage - 1]

    def q_children(self, node_id: str) -> list[float]:
        return [self.node(c).q_cond for c in self.children(node_id)]

    def node_lp(self, node_id: str):
        """The node's stage LP at its xi, built on the first call and
        cached on the tree; its cost and bound arrays are read-only."""
        if node_id not in self._node_lps:
            nd = self.node(node_id)
            self._node_lps[node_id] = materialize(
                self.stage_templates[nd.stage - 1], nd.id, nd.xi)
        return self._node_lps[node_id]

    def subtree_ids(self, node_id: str) -> list[str]:
        """node_id and all descendants, in file order (any file order)."""
        keep, todo = set(), [node_id]
        while todo:
            nid = todo.pop()
            keep.add(nid)
            todo.extend(self.children(nid))
        return [n.id for n in self.nodes if n.id in keep]


def with_uniform_gamma(tree: ScenarioTree, g: float) -> ScenarioTree:
    """Copy of the tree with every stage radius set to g."""
    if not 0.0 <= g <= 1.0:
        raise ValidationError(f"gamma {g!r} outside [0, 1]")
    return ScenarioTree(tree.name, tree.T, tree.nodes,
                        tuple(float(g) for _ in range(tree.T - 1)),
                        tree.stage_templates, dict(tree.meta))


def _field(obj: dict, key: str, convert):
    """convert(obj[key]); a value that is missing or of the wrong shape or
    size is a ParseError naming the key."""
    try:
        return convert(obj[key])
    except MALFORMED as exc:
        raise ParseError(
            f"instance field {key!r} missing or malformed: {exc}") from exc


def from_dict(obj: dict) -> ScenarioTree:
    name = str(obj.get("name", "unnamed"))
    T = _field(obj, "stages", as_int)
    gamma = _field(obj, "gamma", lambda gs: tuple(map(as_float, gs)))
    raw_nodes = _field(obj, "nodes", list)
    raw_templates = _field(obj, "stage_templates", list)
    nodes = []
    for nd in raw_nodes:
        try:
            nodes.append(TreeNode(
                id=str(nd["id"]),
                stage=as_int(nd["stage"]),
                parent=None if nd.get("parent") is None else str(nd["parent"]),
                q_cond=as_float(nd.get("q", 1.0)),
                xi={str(k): as_float(v) for k, v in nd.get("xi", {}).items()},
            ))
        except MALFORMED as exc:
            raise ParseError(f"malformed node entry {nd!r}: {exc}") from exc
    templates = tuple(parse_template(t, f"stage template {i + 1}")
                      for i, t in enumerate(raw_templates))
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    return ScenarioTree(name, T, tuple(nodes), gamma, templates, dict(meta))


def to_dict(tree: ScenarioTree) -> dict:
    return {
        "name": tree.name,
        "stages": tree.T,
        "gamma": list(tree.gamma),
        "nodes": [
            {"id": n.id, "stage": n.stage, "parent": n.parent,
             "q": n.q_cond, "xi": dict(n.xi)}
            for n in tree.nodes
        ],
        "stage_templates": [template_to_json(t) for t in tree.stage_templates],
        "meta": dict(tree.meta),
    }


def load_instance(path) -> ScenarioTree:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    return from_dict(obj)
