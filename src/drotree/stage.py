"""Per-stage LP templates and their realization at a tree node.

A template describes one stage's decision block symbolically: costs, rows
over the stage's own variables plus linking coefficients on the immediate
predecessor's variables, and variable bounds. Any coefficient may be a
constant or an affine read of one node field: scale * xi[field] + offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingXiField, ParseError, ValidationError

# what reading a JSON value of the wrong shape or size raises: a missing key,
# a list where an object belongs, an int of 1e400, a string for a number
MALFORMED = (KeyError, TypeError, ValueError, OverflowError, AttributeError)


def as_float(value) -> float:
    """The one reader of a number field: a JSON number as a float. A
    boolean, which float() would read as 0 or 1, or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def as_int(value) -> int:
    """as_float for an integer field, refusing a fractional number such
    as 2.5, which int() would truncate."""
    n = int(as_float(value))
    if n != value:
        raise ValueError(f"{value!r} is not an integer")
    return n


@dataclass(frozen=True)
class Coef:
    """Constant, or scale * xi[field] + offset when field is set."""

    field: str | None = None
    scale: float = 1.0
    offset: float = 0.0

    @staticmethod
    def const(v: float) -> "Coef":
        return Coef(None, 0.0, float(v))

    def value(self, xi, where: str) -> float:
        if self.field is None:
            return self.offset
        if self.field not in xi:
            raise MissingXiField(f"{where}: xi field {self.field!r} missing")
        x = float(xi[self.field])
        v = self.scale * x + self.offset
        if not math.isfinite(v):
            raise ValidationError(
                f"{where}: coefficient {self.scale!r} * {self.field} + "
                f"{self.offset!r} is {v!r} at {self.field} = {x!r}")
        return v

    @staticmethod
    def parse(obj) -> "Coef":
        if isinstance(obj, dict) and "xi" in obj:
            coef = Coef(str(obj["xi"]), as_float(obj.get("scale", 1.0)),
                        as_float(obj.get("offset", 0.0)))
        else:
            try:
                coef = Coef.const(as_float(obj))
            except TypeError:
                raise ParseError(f"bad coefficient spec {obj!r}") from None
        if not (math.isfinite(coef.scale) and math.isfinite(coef.offset)):
            raise ValidationError(f"non-finite coefficient {obj!r}")
        return coef

    def to_json(self):
        if self.field is None:
            return self.offset
        out = {"xi": self.field}
        if self.scale != 1.0:
            out["scale"] = self.scale
        if self.offset != 0.0:
            out["offset"] = self.offset
        return out


@dataclass(frozen=True)
class TemplateRow:
    self_coefs: dict[int, Coef]
    link_coefs: dict[int, Coef]
    sense: str
    rhs: Coef


@dataclass(frozen=True)
class StageTemplate:
    n_vars: int
    cost: tuple[Coef, ...]
    rows: tuple[TemplateRow, ...]
    var_bounds: tuple[tuple[Coef, Coef | None], ...]

    def __post_init__(self):
        if len(self.cost) != self.n_vars:
            raise ValidationError("template cost length != n_vars")
        if len(self.var_bounds) != self.n_vars:
            raise ValidationError("template var_bounds length != n_vars")
        for r in self.rows:
            for j in r.self_coefs:
                if not 0 <= j < self.n_vars:
                    raise ValidationError(f"row self index {j} out of range")
            if r.sense not in ("<=", "=", ">="):
                raise ValidationError(f"bad row sense {r.sense!r}")


def default_bounds(n: int) -> tuple:
    return tuple((Coef.const(0.0), None) for _ in range(n))


def parse_template(obj, where: str) -> StageTemplate:
    try:
        n = as_int(obj["n_vars"])
        cost = tuple(Coef.parse(c) for c in obj["cost"])
        rows = []
        for r in obj.get("rows", []):
            rows.append(TemplateRow(
                {int(k): Coef.parse(v) for k, v in r.get("self", {}).items()},
                {int(k): Coef.parse(v) for k, v in r.get("link", {}).items()},
                str(r["sense"]),
                Coef.parse(r["rhs"]),
            ))
        vb = obj.get("var_bounds")
        if vb is None:
            bounds = default_bounds(n)
        else:
            bounds = tuple(
                (Coef.parse(lo) if lo is not None else Coef.const(-math.inf),
                 Coef.parse(hi) if hi is not None else None)
                for lo, hi in vb)
    except (ParseError, *MALFORMED) as exc:
        raise ParseError(f"{where}: malformed template ({exc})") from exc
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    return StageTemplate(n, cost, tuple(rows), bounds)


def template_to_json(t: StageTemplate):
    return {
        "n_vars": t.n_vars,
        "cost": [c.to_json() for c in t.cost],
        "rows": [
            {"self": {str(k): v.to_json() for k, v in sorted(r.self_coefs.items())},
             "link": {str(k): v.to_json() for k, v in sorted(r.link_coefs.items())},
             "sense": r.sense,
             "rhs": r.rhs.to_json()}
            for r in t.rows
        ],
        "var_bounds": [
            [lo.to_json() if not (lo.field is None and lo.offset == -math.inf)
             else None,
             hi.to_json() if hi is not None else None]
            for lo, hi in t.var_bounds
        ],
    }


@dataclass(frozen=True)
class NodeLP:
    """A template with every coefficient evaluated at one node's xi."""

    node: str
    cost: np.ndarray
    rows: tuple  # (self: dict[int,float], link: dict[int,float], sense, rhs)
    lower: np.ndarray
    upper: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.cost.size


def materialize(template: StageTemplate, node_id: str, xi) -> NodeLP:
    where = f"node {node_id!r}"
    cost = np.array([c.value(xi, where) for c in template.cost])
    rows = []
    for r in template.rows:
        rows.append((
            {j: c.value(xi, where) for j, c in r.self_coefs.items()},
            {j: c.value(xi, where) for j, c in r.link_coefs.items()},
            r.sense,
            r.rhs.value(xi, where),
        ))
    lower = np.array([lo.value(xi, where) for lo, _ in template.var_bounds])
    upper = np.array([hi.value(xi, where) if hi is not None else math.inf
                      for _, hi in template.var_bounds])
    for arr in (cost, lower, upper):
        arr.flags.writeable = False  # the tree's cached copy is shared
    return NodeLP(node_id, cost, tuple(rows), lower, upper)
