"""Worst-case expectation over a total-variation ball around a nominal
finite distribution, plus the tail-risk quantities it decomposes into.

For radius gamma in [0, 1] the worst case of E_p[h] over
{p : tv(p, q) <= gamma} equals

    gamma * sup(h) + (1 - gamma) * cvar(h, gamma)

with the conditional value-at-risk taken under the nominal q. The sup runs
over every child present in the support, including zero-probability ones;
cvar at level 1 is the max over positively weighted children only.
With some children forced to zero probability (removed nominal mass
m <= gamma) the same formula holds over the kept children, under the
nominal conditioned on them, at level (gamma - m) / (1 - m). Both cases
are closed forms; no LP is solved here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def worst_case_expectation(dist: FiniteDist, gamma: float,
                           removed=()) -> WorstCaseResult:
    """Closed-form worst case of E_p[h] over the TV ball of radius gamma,
    with p forced to zero on the `removed` children (indices), over the
    kept children K: gamma * sup_K + (1 - gamma) * cvar_a(q_K / (1 - m)),
    a = (gamma - m) / (1 - m), for removed nominal mass m.

    The returned maximizer starts from q with the removed children
    zeroed, adds delta = min(gamma, 1 - mass(argmax_K)) to the first
    max-value kept child, and drains delta - m from the lowest-value kept
    children upward, each floored at zero. Callers pass only removals for
    which removal_empties is false; m is clamped to gamma, so a rounding
    excess such as 0.1 + 0.2 against 0.3 still gives a in [0, 1].
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma outside [0, 1]")
    h, q = dist.values, dist.probs
    gone = sorted(removed)
    kept = np.ones(dist.n, dtype=bool)
    kept[gone] = False
    p = q.astype(float)
    p[gone] = 0.0
    sup = float(h[kept].max())
    m = min(float(q[gone].sum()), gamma)
    kept_mass = float(q[kept].sum())
    if gamma >= 1.0 or kept_mass <= 0.0:
        value = sup  # the cvar term carries weight 1 - gamma = 0
    else:
        # kept_mass is 1 - m up to rounding; dividing by it keeps the
        # conditional nominal a distribution when m was clamped. With
        # nothing removed the tail is dist itself, m = 0 and a = gamma
        tail = FiniteDist(h[kept], q[kept] / kept_mass) if gone else dist
        value = (gamma * sup + (1.0 - gamma)
                 * cvar(tail, (gamma - m) / (1.0 - m)))
    maxmask = kept & (h >= sup - _eq_tol(sup))
    skip = maxmask | ~kept

    # at radius 0 nothing moves, even where 1 - mass(argmax) rounds below 0
    delta = (min(gamma, 1.0 - float(q[maxmask].sum())) if gamma > 0.0
             else 0.0)
    first_max = int(np.flatnonzero(maxmask)[0])
    p[first_max] += delta
    need = delta - m
    # drain ascending by value, first-listed first among ties
    for idx in np.argsort(h, kind="stable"):
        if need <= 1e-15:
            break
        if skip[idx]:
            continue
        take = min(q[idx], need)
        p[idx] -= take
        need -= take
    return WorstCaseResult(float(value), np.maximum(p, 0.0))


def removal_empties(probs, removed, gamma: float) -> bool:
    """Whether forcing the children at indices `removed` to zero empties
    the TV ball of radius gamma around the nominal `probs`: every child is
    removed, or the removed nominal mass, summed in child order, exceeds
    gamma by more than REMOVAL_FEAS_TOL. This is the one emptiness rule;
    an empty restricted set has worst case +inf, so its removal counts as
    effective."""
    gone = sorted(set(removed))
    if len(gone) >= len(probs):
        return True
    mass = 0.0
    for i in gone:
        mass += float(probs[i])
    return mass > gamma + REMOVAL_FEAS_TOL


def worst_case_expectation_restricted(
        dist: FiniteDist, gamma: float,
        removed: set[int] | frozenset[int]) -> WorstCaseResult | None:
    """worst_case_expectation with the removed indices validated, or None
    when removal_empties says the restriction empties the ball. Nothing
    in the package calls it; it stays only because bench/tracing.py wraps
    it by name, and goes with the benchmark change of ROADMAP item 2(c)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma outside [0, 1]")
    removed = frozenset(int(i) for i in removed)
    bad = sorted(i for i in removed if not 0 <= i < dist.n)
    if bad:
        raise ValueError(f"removed indices {bad} out of range")
    if removal_empties(dist.probs, removed, gamma):
        return None
    return worst_case_expectation(dist, gamma, removed)


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
