"""How much does the cheap classifier identify, and how fast, compared
with brute-force re-solving?

For a batch of random instances per radius: classify every realization
and path, verify each identified label against the assessment oracle,
and time both passes. Disagreements should always print as 0; the point
of the table is the identified fraction and the speedup. Exits 1 when
any label disagrees with the oracle.

    PYTHONPATH=src python scripts/identification_rate.py
"""
import argparse
import sys
import time

from drotree.effectiveness import classify_paths, classify_tree
from drotree.gen import gen_random
from drotree.oracle import check_labels, identified_labels
from drotree.solver import solve_extensive


def run_batch(gamma, n_instances, branching, seed0):
    identified = total = disagreements = 0
    t_classify = t_oracle = 0.0
    for i in range(n_instances):
        tree = gen_random(seed0 + i, T=3, branching=branching, gamma=gamma)
        out = solve_extensive(tree)
        if i == 0:   # the first call carries a one-off warm-up: untimed
            classify_tree(tree, out)

        t0 = time.perf_counter()
        cond = classify_tree(tree, out)
        paths = classify_paths(tree, out, cond=cond)
        t_classify += time.perf_counter() - t0

        t0 = time.perf_counter()
        items = identified_labels(cond, paths)
        records = check_labels(tree, out, items)
        t_oracle += time.perf_counter() - t0
        total += len(cond) + len(paths)
        identified += len(items)
        disagreements += sum(1 for r in records if not r["agree"])
    return identified, total, disagreements, t_classify, t_oracle


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--branching", type=int, default=3)
    ap.add_argument("--seed0", type=int, default=9000)
    ap.add_argument("--gammas", default="0.1,0.3,0.5,0.7,0.9")
    args = ap.parse_args(argv)

    print(f"{'gamma':>6} {'identified':>11} {'fraction':>9} "
          f"{'disagree':>9} {'classify_s':>11} {'oracle_s':>9} {'speedup':>8}")
    disagreements = 0
    for tok in args.gammas.split(","):
        g = float(tok)
        ident, total, dis, tc, to = run_batch(
            g, args.instances, args.branching, args.seed0)
        disagreements += dis
        speed = f"{to / tc:.1f}x" if tc > 0 and to > 0 else "-"
        print(f"{g:6.2f} {ident:6d}/{total:<4d} {ident / total:9.3f} "
              f"{dis:9d} {tc:11.3f} {to:9.3f} {speed:>8}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
