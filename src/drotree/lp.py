"""Two-phase primal simplex on a dense tableau, with dual extraction.

Minimizes c'x subject to sparse rows with senses <=, =, >= and per-variable
bounds (defaults: lower 0, upper +inf; both may be infinite).

`_tableau` writes the LP straight into the starting tableau of its
standard form min c'y, A y (sense) b, y >= 0. A row that is <= once its
rhs is made nonnegative starts on its slack, every other row on an
artificial; so a >= row with rhs 0, such as an extensive LP's risk row,
starts on its slack (a slack crash, Bixby 1992). Phase 1 minimizes the
artificial mass, phase 2 the original cost with the artificials locked
out. Deterministic: Dantzig pricing with lowest-index tie breaks for the
first 10*(rows+cols) pivots, then Bland's rule, which cannot cycle. A
ratio test whose minimum is not finite, or an optimum whose objective is
not finite, raises NumericalBreakdown.

On a tableau of at least SPARSE_MIN_CELLS cells, a pivot updates only
the rows and columns with a nonzero in the pivot column and row while
those cells are under a quarter of the tableau; a skipped cell would only
have had 0 * x subtracted, so at most the sign of a zero differs.

solve_lps gives each LP the result solve_lp gives it, bit for bit. It
stacks the tableaus under SPARSE_MIN_CELLS cells that share their shape
and artificial columns into one (k, rows, cols+1) array (Gurung & Ray
2019, "Simultaneous solving of batched linear programs on a GPU") and
runs both phases on it in lock step, each member with a lone pivot's
arithmetic; a member leaves the stack when its phase ends. Every other
LP is solved alone. A NumericalBreakdown belongs to one LP: it is raised
when that LP's result is taken.

relax re-solves an optimal LP with some inequality rows relaxed, warm
from the final state a solve kept (keep=True): it frees those rows'
slacks and runs phase 2 on from the final basis, with no phase 1 (Gal
1995, "Postoptimal Analyses, Parametric Programming, and Related
Topics"). Its result can differ from a cold solve's in the last digits.

Dual sign convention for a minimization: the dual of a >= row is nonnegative,
the dual of a <= row is nonpositive, equality rows are free. Each row
starts on a unit column k (slack or artificial), so y_i = c_k - d_k with
d_k its final reduced cost: phase 2 gives the duals, phase 1 the Farkas
vector of an infeasible LP.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalBreakdown

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-9        # eligibility threshold for ratio-test denominators
BREAKDOWN_TOL = 1e-11   # chosen pivot below this aborts the solve
FEAS_TOL = 1e-7         # phase-1 optimum above this means infeasible
COST_TOL = 1e-9         # reduced-cost threshold for optimality
SPARSE_MIN_CELLS = 20_000   # smallest tableau whose pivots skip zero cells
MAX_PIVOTS = 200_000    # pivots per phase before the solve gives up

_SENSES = ("<=", "=", ">=")


class Row(NamedTuple):
    coefs: dict[int, float]
    sense: str
    rhs: float


@dataclass
class LinearProgram:
    """Sparse-row LP in natural (bounded-variable) form."""

    n_vars: int
    objective: np.ndarray
    rows: list[Row] = field(default_factory=list)
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.n_vars,):
            raise ValueError("objective length != n_vars")
        if self.lower is None:
            self.lower = np.zeros(self.n_vars)
        if self.upper is None:
            self.upper = np.full(self.n_vars, math.inf)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)

    def add_row(self, coefs: dict[int, float], sense: str, rhs: float) -> None:
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        for j in coefs:
            if not 0 <= j < self.n_vars:
                raise ValueError(f"column {j} out of range")
        if not math.isfinite(rhs):
            raise ValueError("rhs must be finite")
        self.rows.append(Row(dict(coefs), sense, float(rhs)))


@dataclass
class LpSolution:
    status: str
    objective_value: float
    primal: np.ndarray | None
    duals: np.ndarray | None
    # Set only when status == INFEASIBLE: phase-1 duals on the user rows,
    # read off phase 1's final objective row as the duals are off phase
    # 2's (a subgradient of the infeasibility measure w.r.t. the rhs
    # vector), and the phase-1 optimum itself. Together they give Benders
    # feasibility cuts without exposing internal bound rows.
    farkas: np.ndarray | None = None
    phase1_value: float | None = None
    # Set only when status == OPTIMAL: the final basis, as the tableau
    # column of each row in _tableau's column order. Not part of any output.
    basis: list[int] | None = None
    final: Final | None = None   # with keep=True, for relax


_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


class _Start(NamedTuple):
    """An LP's starting tableau and what reading its results needs."""

    tab: np.ndarray
    basis: list[int]
    cost: np.ndarray
    art: np.ndarray
    maps: list
    row_sign: np.ndarray
    n_user: int
    slack: list[int]   # each row's slack or surplus column, -1 for =


class Final(NamedTuple):
    """An optimal solve's final state, kept for relax: the LP, its _Start
    without its tableau, the phase-2 objective row, the basis, the final
    tableau as its shape, the flat indices of its nonzeros and their
    values, and the user rows whose freed slack would price out."""

    lp: LinearProgram
    start: _Start
    obj: np.ndarray
    basis: list[int]
    shape: tuple[int, int]
    nz: np.ndarray
    values: np.ndarray
    pricing: frozenset


def _tableau(lp: LinearProgram):
    """The starting tableau of min c'y, A y (sense) b, y >= 0, in one pass.

    Columns: a variable with a finite lower bound is lo + y, one with only
    an upper bound is hi - y, a free one is y+ - y-; maps[j] holds its
    constant and its (column, sign) pairs. Rows: the user rows, then
    x_j <= hi for each lower-bounded variable with a finite upper bound.
    Each rhs has a * constant subtracted term by term; a row whose rhs is
    then < 0, or a >= row whose rhs is then 0, is negated with its sense
    flipped (row_sign -1), so every rhs is >= 0. After the
    structural columns come a slack (<=) or surplus (>=) column per
    inequality row, an artificial per row that is not <=, and the rhs.
    A <= row starts on its slack, every other row on its artificial.

    Returns a _Start: cost is the original objective over all columns,
    art marks the artificials, basis holds each row's unit column.
    """
    lower, upper = lp.lower.tolist(), lp.upper.tolist()
    maps, c = [], []
    for j, (lo, hi) in enumerate(zip(lower, upper)):
        if lo > hi:
            raise ValueError(f"variable {j} has lower > upper")
        k = len(c)
        if math.isfinite(lo):
            maps.append((lo, ((k, 1.0),)))
        elif math.isfinite(hi):
            maps.append((hi, ((k, -1.0),)))
        else:
            maps.append((0.0, ((k, 1.0), (k + 1, -1.0))))
        c.extend(s * lp.objective[j] for _, s in maps[-1][1])
    n = len(c)

    n_user = len(lp.rows)
    rows = lp.rows + [({j: 1.0}, "<=", hi)
                      for j, (lo, hi) in enumerate(zip(lower, upper))
                      if math.isfinite(lo) and math.isfinite(hi)]
    # ents: (row, col, value)
    ents, basis, row_sign, flipped, slacks = [], [], [], [], []
    slack = n
    artificial = first_art = n + sum(sense != "=" for _, sense, _ in rows)
    for i, (coefs, sense, rhs) in enumerate(rows):
        for j, a in coefs.items():
            const, pairs = maps[j]
            rhs -= a * const
            for k, s in pairs:
                ents.append((i, k, s * a + 0.0))
        sign = 1.0
        if rhs < 0 or (rhs == 0 and sense == ">="):
            sense, sign = _FLIPPED[sense], -1.0
            flipped.append(i)
        row_sign.append(sign)
        ents.append((i, -1, sign * rhs))
        slacks.append(slack if sense != "=" else -1)
        if sense != "=":
            ents.append((i, slack, 1.0 if sense == "<=" else -1.0))
            slack += 1
        if sense == "<=":
            basis.append(slack - 1)
        else:
            ents.append((i, artificial, 1.0))
            basis.append(artificial)
            artificial += 1
    tab = np.zeros((len(rows), artificial + 1))
    for i, k, v in ents:
        tab[i, k] = v
    if flipped:
        tab[flipped, :n] *= -1.0
    cost = np.array(c + [0.0] * (artificial - n))
    art = np.arange(artificial) >= first_art
    return _Start(tab, basis, cost, art, maps, np.array(row_sign), n_user,
                  slacks)


def _pivot_breakdown(piv) -> NumericalBreakdown:
    return NumericalBreakdown(f"pivot magnitude {abs(piv):.3e}")


def _ratio_breakdown(rmin) -> NumericalBreakdown:
    return NumericalBreakdown(f"ratio test minimum {rmin:.3e}")


def _pivot(tab, obj, basis, r, j):
    piv = tab[r, j]
    if abs(piv) < BREAKDOWN_TOL:
        raise _pivot_breakdown(piv)
    pivrow = tab[r] / piv
    colvals = tab[:, j].copy()
    colvals[r] = 0.0
    if tab.size >= SPARSE_MIN_CELLS:
        rows, cols = np.flatnonzero(colvals), np.flatnonzero(pivrow)
        if rows.size * cols.size < 0.25 * tab.size:
            tab[np.ix_(rows, cols)] -= np.outer(colvals[rows], pivrow[cols])
        else:
            tab -= np.outer(colvals, pivrow)
    else:
        tab -= np.outer(colvals, pivrow)
    tab[r] = pivrow
    tab[:, j] = 0.0
    tab[r, j] = 1.0
    obj -= obj[j] * pivrow
    obj[j] = 0.0
    basis[r] = j


def _choose_leaving(tab, basis, j):
    col = tab[:, j]
    ok = col > PIVOT_TOL
    if not ok.any():
        return -1
    ratios = np.full(len(basis), math.inf)
    ratios[ok] = tab[ok, -1] / col[ok]
    rmin = ratios.min()
    if not math.isfinite(rmin):
        raise _ratio_breakdown(rmin)
    ties = np.flatnonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))
    # among minimal ratios take the row whose basic variable has the
    # lowest index: deterministic, and it is Bland's leaving rule
    return int(min(ties, key=lambda r: basis[r]))


def _run_simplex(tab, obj, basis, allowed, bland_after):
    if not allowed.any():   # no column may enter: an LP without columns
        return OPTIMAL
    it = 0
    bland = False
    while True:
        red = obj[:-1]
        if bland:
            cand = np.flatnonzero((red < -COST_TOL) & allowed)
            if cand.size == 0:
                return OPTIMAL
            j = int(cand[0])
        else:
            masked = np.where(allowed, red, 0.0)
            j = int(np.argmin(masked))
            if masked[j] >= -COST_TOL:
                return OPTIMAL
        r = _choose_leaving(tab, basis, j)
        if r < 0:
            return UNBOUNDED
        _pivot(tab, obj, basis, r, j)
        it += 1
        if it >= bland_after:
            bland = True
        if it > MAX_PIVOTS:
            raise NumericalBreakdown("simplex iteration limit")


def _run_stack(tab, obj, basis, allowed, bland_after) -> list:
    """_run_simplex on each member of a (k, m, n+1) stack of tableaus,
    returning each member's status, or the NumericalBreakdown that
    _run_simplex would have raised. It pivots every active member in
    lock step, by the same rules and with the same arithmetic on each
    cell. A member that stops leaves the working stack, which is then a
    copy of the others, and gets its rows back as they stood; so no cell
    of a stopped member is touched, and every number and the sign of
    every zero come out as they would alone. All members share one pivot
    count, so they turn to Bland's rule together."""
    k = len(tab)
    out: list = [OPTIMAL] * k
    if not allowed.any():
        return out
    at = np.arange(k)        # stack index of each active member
    t, o, b = tab, obj, basis   # the active members' rows
    ar = np.arange(k)
    it = 0
    while True:
        red = o[:, :-1]
        if it >= bland_after:
            enter = (red < -COST_TOL) & allowed
            j = enter.argmax(axis=1)
            done = ~enter[ar, j]
        else:
            masked = np.where(allowed, red, 0.0)
            j = masked.argmin(axis=1)
            done = masked[ar, j] >= -COST_TOL
        col = t[ar, :, j]
        ok = col > PIVOT_TOL
        unbounded = ~ok.any(axis=1)
        stop = done | unbounded
        n_stop = np.count_nonzero(stop)
        if n_stop == at.size:   # also every member of an LP without rows
            rmin = piv = np.zeros(at.size)
        else:
            ratios = np.full(col.shape, math.inf)
            np.divide(t[:, :, -1], col, out=ratios, where=ok)
            rmin = ratios.min(axis=1)
            ties = ratios <= (rmin + 1e-12 * (1.0 + np.abs(rmin)))[:, None]
            # _choose_leaving's rule: the lowest basic index among the ties
            r = np.where(ties, b, t.shape[2]).argmin(axis=1)
            piv = t[ar, r, j]
            stop |= ~np.isfinite(rmin) | (np.abs(piv) < BREAKDOWN_TOL)
            n_stop = np.count_nonzero(stop)
        if n_stop:
            # _run_simplex's order: optimal, unbounded, then a breakdown
            # in the ratio test before one in the pivot
            for q, d, u, m, p in zip(at[stop], done[stop], unbounded[stop],
                                     rmin[stop], piv[stop]):
                out[q] = (OPTIMAL if d else UNBOUNDED if u
                          else _ratio_breakdown(m) if not math.isfinite(m)
                          else _pivot_breakdown(p))
            if t is not tab:
                tab[at[stop]], obj[at[stop]], basis[at[stop]] = \
                    t[stop], o[stop], b[stop]
            if n_stop == at.size:
                return out
            go = ~stop
            at, t, o, b = at[go], t[go], o[go], b[go]
            j, r, piv, col = j[go], r[go], piv[go], col[go]
            ar = np.arange(at.size)
        # _pivot's dense update, member by member in one array
        pivrow = t[ar, r] / piv[:, None]
        col[ar, r] = 0.0
        t -= col[:, :, None] * pivrow[:, None, :]
        t[ar, r] = pivrow
        t[ar, :, j] = 0.0
        t[ar, r, j] = 1.0
        o -= o[ar, j][:, None] * pivrow
        o[ar, j] = 0.0
        b[ar, r] = j
        it += 1
        if it > MAX_PIVOTS:
            for q in at:
                out[q] = NumericalBreakdown("simplex iteration limit")
            if t is not tab:
                tab[at], obj[at], basis[at] = t, o, b
            return out


def _priced(tab, basis, c):
    """Row of reduced costs of c for the basis, then minus its cost."""
    obj = np.zeros(tab.shape[1])
    obj[:-1] = c
    for i, bcol in enumerate(basis):
        if c[bcol] != 0.0:
            obj -= c[bcol] * tab[i]
    return obj


def _priced_stack(tab, basis, c):
    """_priced per member of a stack, member q's costs c[q]. A basic
    column of cost 0 is skipped by mask, not multiplied by 0, as
    _priced skips it: 0 * x could flip the sign of a zero."""
    k, m = basis.shape
    obj = np.zeros((k, tab.shape[2]))
    obj[:, :-1] = c
    members = np.arange(k)
    for i in range(m):
        cb = c[members, basis[:, i]]
        nz = cb != 0.0
        n_nz = np.count_nonzero(nz)
        if n_nz == k:
            obj -= cb[:, None] * tab[:, i]
        elif n_nz:
            obj[nz] -= cb[nz, None] * tab[nz, i]
    return obj


def _drive_out(tab, obj, basis, art):
    """Pivot leftover artificials out of the basis where possible."""
    for i in range(len(basis)):
        if art[basis[i]]:
            cand = np.flatnonzero((np.abs(tab[i, :-1]) > PIVOT_TOL) & ~art)
            if cand.size:
                _pivot(tab, obj, basis, i, int(cand[0]))


def _row_duals(start, c, obj):
    """y_i = c_k - d_k at row i's unit column k, in the user's row signs."""
    unit = start.basis
    return (start.row_sign * (c[unit] - obj[unit]))[:start.n_user]


def _infeasible(start, obj) -> LpSolution:
    """An LP whose phase 1 ended on obj: its phase-1 duals certify
    infeasibility."""
    return LpSolution(INFEASIBLE, math.inf, None, None,
                      farkas=_row_duals(start, start.art.astype(float), obj),
                      phase1_value=float(-obj[-1]))


def _optimal(lp, start, tab, basis, obj, keep=False) -> LpSolution:
    y = np.zeros(tab.shape[1] - 1)
    y[basis] = tab[:, -1]
    x = np.zeros(lp.n_vars)
    for j, (const, pairs) in enumerate(start.maps):
        k, s = pairs[0]
        x[j] = const + s * y[k] if len(pairs) == 1 else y[k] - y[k + 1]
    value = float(lp.objective @ x)
    if not math.isfinite(value):   # as is any non-finite primal's
        raise NumericalBreakdown(f"optimal objective {value!r}")
    final = None
    if keep:
        nz = np.flatnonzero(tab.ravel() != 0.0)   # faster than on tab
        slack = np.array(start.slack[:start.n_user], dtype=int)
        pricing = (slack >= 0) & (obj[slack] > COST_TOL)
        final = Final(lp, start._replace(tab=None), obj, basis, tab.shape,
                      nz, tab.ravel()[nz],
                      frozenset(np.flatnonzero(pricing).tolist()))
    return LpSolution(OPTIMAL, value, x, _row_duals(start, start.cost, obj),
                      basis=basis, final=final)


def _phase1_failed(status, obj) -> bool:
    """Phase 1 ended unbounded or above FEAS_TOL: the LP is infeasible."""
    return status != OPTIMAL or -obj[-1] > FEAS_TOL


def _solve_alone(lp, start, keep=False) -> LpSolution:
    """Both phases on one tableau, with _run_simplex."""
    tab, basis, art = start.tab, list(start.basis), start.art
    ncols = art.size
    bland_after = 10 * (tab.shape[0] + ncols)

    # phase 1: minimize the artificial mass
    obj = _priced(tab, basis, art.astype(float))
    status = _run_simplex(tab, obj, basis, np.ones(ncols, dtype=bool),
                          bland_after)
    if _phase1_failed(status, obj):
        return _infeasible(start, obj)
    _drive_out(tab, obj, basis, art)

    # phase 2: original costs, artificial columns locked out
    obj = _priced(tab, basis, start.cost)
    if _run_simplex(tab, obj, basis, ~art, bland_after) == UNBOUNDED:
        return LpSolution(UNBOUNDED, -math.inf, None, None)
    return _optimal(lp, start, tab, basis, obj, keep)


def _solve_stack(lps, starts, keep) -> list:
    """_solve_alone on two or more LPs whose tableaus share their shape
    and their artificial columns, stacked and run by _run_stack; one
    LpSolution or NumericalBreakdown per LP."""
    k = len(starts)
    art = starts[0].art
    ncols = art.size
    bland_after = 10 * (starts[0].tab.shape[0] + ncols)
    tab = np.array([s.tab for s in starts])
    basis = np.array([s.basis for s in starts], dtype=np.intp)
    out: list = [None] * k

    # phase 1, then each member's drive-out
    obj = _priced_stack(tab, basis, art[None].repeat(k, 0).astype(float))
    status = _run_stack(tab, obj, basis, np.ones(ncols, dtype=bool),
                        bland_after)
    live = []
    for q, st in enumerate(status):
        if isinstance(st, NumericalBreakdown):
            out[q] = st
        elif _phase1_failed(st, obj[q]):
            out[q] = _infeasible(starts[q], obj[q])
        else:
            try:
                _drive_out(tab[q], obj[q], basis[q], art)
                live.append(q)
            except NumericalBreakdown as exc:
                out[q] = exc
    if not live:
        return out
    if len(live) < k:
        tab, basis = tab[live], basis[live]

    # phase 2 on the members that passed phase 1
    obj = _priced_stack(tab, basis, np.array([starts[q].cost for q in live]))
    status = _run_stack(tab, obj, basis, ~art, bland_after)
    rows = basis.tolist()
    for p, (q, st) in enumerate(zip(live, status)):
        if isinstance(st, NumericalBreakdown):
            out[q] = st
        elif st == UNBOUNDED:
            out[q] = LpSolution(UNBOUNDED, -math.inf, None, None)
        else:
            try:
                out[q] = _optimal(lps[q], starts[q], tab[p], rows[p], obj[p],
                                  keep)
            except NumericalBreakdown as exc:
                out[q] = exc
    return out


class LpResults(Sequence):
    """solve_lps' results, in the order of its LPs. Taking the result of
    an LP whose solve broke down raises that LP's NumericalBreakdown;
    the other results stay usable."""

    def __init__(self, items: list):
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> LpSolution:
        item = self._items[i]
        if isinstance(item, NumericalBreakdown):
            raise item
        return item


def solve_lps(lps, keep=False) -> LpResults:
    """Solve the LPs, each with the result solve_lp gives it, bit for bit;
    see the module docstring for how they are batched."""
    starts = [_tableau(lp) for lp in lps]
    groups: dict = {}
    for i, start in enumerate(starts):
        key = (i if start.tab.size >= SPARSE_MIN_CELLS
               else (start.tab.shape, start.art.tobytes()))
        groups.setdefault(key, []).append(i)
    out: list = [None] * len(starts)
    for members in groups.values():
        if len(members) > 1:
            sols = _solve_stack([lps[i] for i in members],
                                [starts[i] for i in members], keep)
        else:
            try:
                sols = [_solve_alone(lps[members[0]], starts[members[0]],
                                     keep)]
            except NumericalBreakdown as exc:
                sols = [exc]
        for i, sol in zip(members, sols):
            out[i] = sol
    return LpResults(out)


def solve_lp(lp: LinearProgram, keep=False) -> LpSolution:
    """Solve the LP alone; see module docstring for conventions. With
    keep, an optimal solution keeps its final state for relax."""
    return _solve_alone(lp, _tableau(lp), keep)


def relax(sol: LpSolution, rows) -> LpSolution:
    """sol's LP with its inequality user rows `rows` relaxed, from
    sol.final: each row's slack or surplus gets a negated copy, in the
    place of a nonbasic artificial where there is one, and phase 2 runs
    on. The result holds no duals. When no copy has a reduced cost below
    -COST_TOL the basis stays optimal, and sol itself is returned. An
    equality row has no slack to free, and is a ValueError."""
    f = sol.final
    start, (m, n) = f.start, f.shape   # n counts the rhs column
    cols = [start.slack[i] for i in rows]
    if -1 in cols:
        raise ValueError("relax takes inequality rows only")
    if f.pricing.isdisjoint(rows):
        return sol
    slots = np.setdiff1d(np.flatnonzero(start.art), f.basis)[:len(cols)]
    if slots.size < len(cols):
        slots = np.arange(n - 1, n - 1 + len(cols))
    width = max(n, slots[-1] + 2)
    tab, obj = np.zeros((m, width)), np.zeros(width)
    r, c = np.divmod(f.nz, n)
    tab[r, np.where(c < n - 1, c, width - 1)] = f.values
    obj[:n - 1], obj[-1] = f.obj[:-1], f.obj[-1]
    tab[:, slots], obj[slots] = -tab[:, cols], -obj[cols]
    allowed = np.zeros(width - 1, dtype=bool)
    allowed[:n - 1], allowed[slots] = ~start.art, True
    basis = list(f.basis)
    if _run_simplex(tab, obj, basis, allowed, 10 * (m + n)) == UNBOUNDED:
        return LpSolution(UNBOUNDED, -math.inf, None, None)
    out = _optimal(f.lp, start, tab, basis, obj)
    out.duals = None
    return out


def write_cplex_lp(lp: LinearProgram) -> str:
    """Render the LP in CPLEX LP text format (debugging aid), variable j
    named xj."""
    names = [f"x{j}" for j in range(lp.n_vars)]

    def linear(pairs):
        out = []
        for j, a in pairs:
            if not out:
                out.append(f"{'- ' if a < 0 else ''}{abs(a):.17g} {names[j]}")
            else:
                out.append(f"{'-' if a < 0 else '+'} {abs(a):.17g} {names[j]}")
        return " ".join(out) if out else "0 " + names[0]

    lines = ["Minimize",
             " obj: " + linear([(j, a) for j, a in enumerate(lp.objective)
                                if a != 0.0])]
    lines.append("Subject To")
    for i, row in enumerate(lp.rows):
        body = linear(sorted(row.coefs.items()))
        lines.append(f" c{i}: {body} {row.sense} {row.rhs:.17g}")
    lines.append("Bounds")
    for j in range(lp.n_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        if lo == 0.0 and math.isinf(hi):
            continue
        lo_s = "-inf" if math.isinf(lo) else f"{lo:.17g}"
        hi_s = "+inf" if math.isinf(hi) else f"{hi:.17g}"
        lines.append(f" {lo_s} <= {names[j]} <= {hi_s}")
    lines.append("End")
    return "\n".join(lines) + "\n"
