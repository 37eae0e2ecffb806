"""Scenario trees past gen_random's tested caps, for the solve-scale workload.

gen_random allows at most four stages and branching four. The trees here
reuse gen_random's own stage templates (taken from one fixed template seed,
so every instance is the same LP model) and draw the tree's scenario data
and conditional probabilities from drotree.gen.SplitMix64 seeded by the
caller. Stages past the fourth repeat the fourth template, whose link rows
only read the previous stage's decision columns, which every template has.
Each template row carries its own high-cost slack, so every instance stays
feasible and bounded, as gen_random's do.
"""

from __future__ import annotations

from drotree import gen, tree

# gen_random(3, ...) has two rows in every stage template, the largest
# LP per node that gen_random produces with two decisions
TEMPLATE_SEED = 3
N_VARS = 2
GAMMA = 0.5


def _templates(T: int) -> list[dict]:
    base = tree.to_dict(gen.gen_random(TEMPLATE_SEED, T=min(T, 4),
                                       branching=1, n_vars=N_VARS))
    temps = base["stage_templates"]
    return temps + [temps[-1]] * (T - len(temps))


def _probs(rng: gen.SplitMix64, k: int) -> list[float]:
    # weights bounded away from zero, as in gen_random
    w = [rng.uniform(0.1, 1.0) for _ in range(k)]
    s = sum(w)
    p = [x / s for x in w]
    p[-1] = 1.0 - sum(p[:-1])
    return p


def gen_scale(seed: int, T: int, branching: int) -> tree.ScenarioTree:
    """Full tree with T stages and `branching` children per internal node;
    (branching**T - 1) / (branching - 1) nodes."""
    if T < 2 or branching < 2:
        raise ValueError("gen_scale needs T >= 2 and branching >= 2")
    temps = _templates(T)
    n_rows = [len(t["rows"]) for t in temps]
    rng = gen.SplitMix64(seed)

    def draw_xi(t: int) -> dict:
        xi = {f"d{i}": round(rng.uniform(0.5, 2.5), 9)
              for i in range(n_rows[t])}
        xi["c"] = round(rng.random(), 9)
        xi["m"] = round(rng.random(), 9)
        return xi

    nodes = [{"id": "n0", "stage": 1, "parent": None, "q": 1.0,
              "xi": draw_xi(0)}]
    frontier = ["n0"]
    for t in range(2, T + 1):
        nxt = []
        for parent in frontier:
            for q in _probs(rng, branching):
                nid = f"n{len(nodes)}"
                nodes.append({"id": nid, "stage": t, "parent": parent,
                              "q": q, "xi": draw_xi(t - 1)})
                nxt.append(nid)
        frontier = nxt
    return tree.from_dict({
        "name": f"scale-s{seed}-T{T}-b{branching}",
        "stages": T,
        "gamma": [GAMMA] * (T - 1),
        "nodes": nodes,
        "stage_templates": temps,
        "meta": {"family": "scale", "seed": seed,
                 "template_seed": TEMPLATE_SEED},
    })
