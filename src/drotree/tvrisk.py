"""Worst-case expectation over a total-variation ball around a nominal
finite distribution, plus the tail-risk quantities it decomposes into.

For radius gamma in [0, 1] the worst case of E_p[h] over
{p : tv(p, q) <= gamma} equals

    gamma * sup(h) + (1 - gamma) * cvar(h, gamma)

with the conditional value-at-risk taken under the nominal q. The sup runs
over every child present in the support, including zero-probability ones;
cvar at level 1 is the max over positively weighted children only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, solve_lp, OPTIMAL

PROB_SUM_TOL = 1e-12
REMOVAL_FEAS_TOL = 1e-10


def _eq_tol(sup_level: float) -> float:
    # shared equality tolerance for value comparisons, scaled to the data
    return 1e-9 * max(1.0, abs(sup_level))


@dataclass(frozen=True)
class FiniteDist:
    """Finite distribution: outcome values with nominal probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)
        if v.ndim != 1 or p.shape != v.shape or v.size == 0:
            raise ValueError("values and probs must be matching 1-d arrays")
        if np.any(p < -1e-15):
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class WorstCaseResult:
    value: float
    dist: np.ndarray       # a maximizing distribution
    tight: bool            # whether that maximizer is unique


@dataclass(frozen=True)
class PrimalCategories:
    labels: list[str]      # one of C1..C4 per child
    var_level: float
    sup_level: float


def psi(dist: FiniteDist, eta: float) -> float:
    """Nominal mass at or below eta (tolerance-aware comparison)."""
    tol = _eq_tol(float(dist.values.max()))
    return float(dist.probs[dist.values <= eta + tol].sum())


def var_level(dist: FiniteDist, beta: float) -> float:
    """Left quantile: smallest outcome value whose cumulative mass
    reaches beta. beta=0 gives the minimum value, beta=1 the largest
    positively weighted value."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta outside [0, 1]")
    if beta <= 0.0:
        return float(dist.values.min())
    for v in np.unique(dist.values):
        if psi(dist, float(v)) >= beta - 1e-12:
            return float(v)
    return float(dist.values.max())


def cvar(dist: FiniteDist, alpha: float) -> float:
    """Conditional value-at-risk under the nominal distribution.

    alpha=0 is the mean, alpha=1 the max over positively weighted values;
    in between the Rockafellar-Uryasev minimum
        min_t  t + E[(h - t)+] / (1 - alpha),
    taken over the support values. The expression is convex and piecewise
    linear in t with its kinks at the support, so the scan is exact; it
    never exceeds the max (t = max gives the max itself), which plugging
    in a tolerance-grouped VaR_alpha could.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha outside [0, 1]")
    h, q = dist.values, dist.probs
    if alpha <= 0.0:
        return float(q @ h)
    if alpha >= 1.0:
        return float(h[q > 0].max())
    # one dot product per candidate t: the stacked matmul runs the same
    # kernel as q @ x, where a single matrix-vector product would round
    # the sums differently
    excess = np.maximum(h - h[:, None], 0.0)
    gains = np.matmul(excess[:, None, :], q[:, None])[:, 0, 0]
    return float(np.min(h + gains / (1.0 - alpha)))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _ascending(dist: FiniteDist) -> np.ndarray:
    # ascending by value, first-listed first among ties
    return np.argsort(dist.values, kind="stable")


def worst_case_expectation(dist: FiniteDist, gamma: float) -> WorstCaseResult:
    """Closed-form worst case of E_p[h] over the TV ball of radius gamma.

    The returned maximizer starts from q, adds delta = min(gamma,
    1 - mass(argmax)) to the first max-value child, and drains the same
    amount from the lowest-value children upward, each floored at zero.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma outside [0, 1]")
    h, q = dist.values, dist.probs
    sup = float(h.max())
    tol = _eq_tol(sup)
    if gamma <= 0.0:
        return WorstCaseResult(float(q @ h), q.copy(), True)

    value = gamma * sup + (1.0 - gamma) * cvar(dist, gamma)

    maxmask = h >= sup - tol
    delta = min(gamma, 1.0 - float(q[maxmask].sum()))
    p = q.astype(float).copy()
    first_max = int(np.flatnonzero(maxmask)[0])
    p[first_max] += delta
    need = delta
    order = _ascending(dist)
    marginal = -1
    for idx in order:
        if need <= 1e-15:
            break
        if maxmask[idx]:
            continue
        take = min(q[idx], need)
        p[idx] -= take
        need -= take
        if take < q[idx] - 1e-15:
            marginal = int(idx)
    p = np.maximum(p, 0.0)

    n_max = int(maxmask.sum())
    tight = True
    if n_max > 1:
        tight = False
    elif marginal >= 0:
        # partially drained child: any same-valued sibling with mass left
        # could have been drained instead
        group = (np.abs(h - h[marginal]) <= tol) & ~maxmask & (q > 0)
        if int(group.sum()) > 1:
            tight = False
    return WorstCaseResult(float(value), p, tight)


def worst_case_expectation_restricted(
        dist: FiniteDist, gamma: float,
        removed: set[int] | frozenset[int]) -> WorstCaseResult | None:
    """Worst case over the TV ball with p forced to zero on `removed`
    (indices). Returns None when the restriction empties the ball, which
    happens exactly when the removed nominal mass exceeds gamma (beyond
    tolerance) or every child is removed.

    Solved as an LP with the absolute deviations split into two-sided
    bound rows, so it exercises the same machinery the assessment
    problems use.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma outside [0, 1]")
    removed = frozenset(int(i) for i in removed)
    for i in removed:
        if not 0 <= i < dist.n:
            raise ValueError(f"removed index {i} out of range")
    if len(removed) == dist.n:
        return None
    removed_mass = float(dist.probs[sorted(removed)].sum()) if removed else 0.0
    if removed_mass > gamma + REMOVAL_FEAS_TOL:
        return None

    n = dist.n
    h, q = dist.values, dist.probs
    # vars: p_0..p_{n-1}, d_0..d_{n-1}; max h'p == min -h'p
    obj = np.concatenate([-h, np.zeros(n)])
    upper = np.full(2 * n, np.inf)
    for i in removed:
        upper[i] = 0.0
    prob = LinearProgram(2 * n, obj, upper=upper)
    prob.add_row({i: 1.0 for i in range(n)}, "=", 1.0)
    for i in range(n):
        prob.add_row({i: 1.0, n + i: -1.0}, "<=", float(q[i]))
        prob.add_row({i: -1.0, n + i: -1.0}, "<=", float(-q[i]))
    prob.add_row({n + i: 0.5 for i in range(n)}, "<=", gamma)
    sol = solve_lp(prob)
    if sol.status != OPTIMAL:
        return None
    p = sol.primal[:n].copy()
    if removed:
        p[np.asarray(sorted(removed), dtype=int)] = 0.0
    value = float(h @ p)

    kept = np.ones(n, dtype=bool)
    for i in removed:
        kept[i] = False
    tol = _eq_tol(float(h.max()))
    kept_sup = float(h[kept].max())
    top = kept & (h >= kept_sup - tol)
    drained = kept & (p < q - 1e-12)
    tight = True
    if int(top.sum()) > 1 and float(np.abs(p - q).sum()) > 1e-12:
        tight = False
    elif drained.any():
        boundary = float(h[drained].max())
        group = kept & (np.abs(h - boundary) <= tol) & (q > 0) & ~top
        partially = group & (p > 1e-12)
        if int(group.sum()) > 1 and partially.any():
            tight = False
    return WorstCaseResult(value, p, tight)


def categorize(dist: FiniteDist, gamma: float) -> PrimalCategories:
    """Bucket each child by where its value sits against VaR_gamma and the
    sup: C1 below VaR, C2 at VaR, C3 strictly between, C4 at the sup. When
    VaR equals the sup, C4 takes precedence."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("categorize needs 0 < gamma < 1")
    h = dist.values
    sup = float(h.max())
    v = var_level(dist, gamma)
    tol = _eq_tol(sup)
    labels = []
    for x in h:
        if abs(x - sup) <= tol:
            labels.append("C4")
        elif abs(x - v) <= tol:
            labels.append("C2")
        elif x < v:
            labels.append("C1")
        else:
            labels.append("C3")
    return PrimalCategories(labels, float(v), sup)
