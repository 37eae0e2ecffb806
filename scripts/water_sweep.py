"""Sweep the robustness radius on the water-allocation analog.

Solves the instance on a gamma grid, tallies path labels at each point,
and reports the maximal window in which exactly one scenario path stays
effective. Writes sweep.csv plus DOT snapshots at a low and a high
radius into --out-dir.
"""
import argparse
import csv
import os
import time

from drotree.effectiveness import (EFFECTIVE, INEFFECTIVE, UNIDENTIFIED,
                                   classify_tree, sweep_point, to_dot)
from drotree.gen import gen_water_analog
from drotree.solver import solve_extensive
from drotree.tree import with_uniform_gamma


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=21,
                    help="grid points on [0, 1] (default 21)")
    ap.add_argument("--symmetric", action="store_true",
                    help="disable the stage-3 probability asymmetry")
    ap.add_argument("--out-dir", default="water_out")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    base = gen_water_analog(args.seed, asymmetric=not args.symmetric)
    rows = []
    t0 = time.perf_counter()
    for k in range(args.points):
        g = k / max(1, args.points - 1)
        out, paths = sweep_point(base, g)
        labels = [p.label for p in paths]
        eff = [p.leaf for p in paths if p.label == EFFECTIVE]
        rows.append((g, out.objective, len(eff), labels.count(INEFFECTIVE),
                     labels.count(UNIDENTIFIED),
                     ";".join(eff) if len(eff) <= 3 else ""))
        print(f"gamma={g:5.3f}  objective={out.objective:12.6f}  "
              f"effective paths={len(eff):3d}")

    csv_path = os.path.join(args.out_dir, "sweep.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gamma", "objective", "n_effective_paths",
                    "n_ineffective", "n_unidentified", "effective_leaves"])
        w.writerows(rows)

    singles = [(g, leaves) for g, _o, n_eff, _ni, _nu, leaves in rows
               if n_eff == 1]
    if singles:
        lo, hi = singles[0][0], singles[-1][0]
        print(f"\nexactly one effective path for gamma in [{lo:.3f}, "
              f"{hi:.3f}] (leaf {singles[0][1]})")

    for g, tag in ((0.05, "low"), (0.92, "high")):
        tree = with_uniform_gamma(base, g)
        out = solve_extensive(tree)
        dot_path = os.path.join(args.out_dir, f"labels_{tag}.dot")
        with open(dot_path, "w") as fh:
            fh.write(to_dot(tree, classify_tree(tree, out)))
        print(f"wrote {dot_path}")
    print(f"wrote {csv_path}  ({time.perf_counter() - t0:.1f}s total)")


if __name__ == "__main__":
    main()
