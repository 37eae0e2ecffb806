#!/usr/bin/env python3
"""Record the reference outputs the water workloads check against.

    python3 bench/make_reference.py

Writes bench/reference.json: the water analog's objective, every
realization and path label, the oracle verdict of every identified label
(the full `drotree classify --oracle` check), and the objective and path
labels at every point of the gamma grid 0:1:0.01 (as `drotree sweep`).
It takes about three minutes. Rerun it only when a change is meant to
alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from drotree import effectiveness, solver  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    tree = wl.water_tree()
    base = solver.solve_extensive(tree)
    cond = effectiveness.classify_tree(tree, base)
    paths = effectiveness.classify_paths(tree, base, None, cond)
    items = []
    for kind, nid, label in wl.oracle_items(tree, cond, paths):
        res = wl.assess(tree, kind, nid, base)
        items.append([kind, nid, label, res.verdict,
                      None if res.infeasible else res.value,
                      res.infeasible, res.borderline])
    oracle_ref = {
        "objective": base.objective,
        "cond_labels": {nid: wl.label_code(cl.label)
                        for nid, cl in cond.items()},
        "path_labels": {p.leaf: wl.label_code(p.label) for p in paths},
        "items": items,
    }

    points = []
    n = round(1.0 / wl.SWEEP_STEP)
    for i in range(n + 1):
        gamma = round(i * wl.SWEEP_STEP, 12)
        ext, labels = wl.sweep_point(tree, gamma, wl.Round())
        points.append({"gamma": gamma, "objective": ext.objective,
                       "path_labels": labels})

    ref = {
        "instance": {"family": "water", "seed": wl.WATER_SEED,
                     "gamma": wl.WATER_GAMMA},
        "oracle": oracle_ref,
        "sweep": {"step": wl.SWEEP_STEP, "points": points},
    }
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE}: {len(items)} oracle items, "
          f"{len(points)} sweep points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
