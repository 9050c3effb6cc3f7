"""Band shares of the controller families the workloads draw from.

    python3 bench/shares.py --draws 10000 --seed 1

Draws controllers of the criterion-07 family with the benchmark's own
generator (order 3-5 and 0-1 antistable modes, uniform) and counts, by
(order, antistable modes), how many stable parts are nearly cancelling,
in between or well separated (``inputs.band``).  Family A of
``bound_batch`` (criterion 08) draws its stable part the same way with
order 3-5, so its counts are the rows without antistable modes.  The
round compositions in ``workloads.py`` are apportioned from these counts.
Uses numpy and scipy only.
"""

import argparse
import collections

import numpy as np

import inputs

BANDS = ("near", "between", "clear")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--draws", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    counts = collections.Counter()
    for _ in range(args.draws):
        order, nu = int(rng.integers(3, 6)), int(rng.integers(0, 2))
        counts[inputs.band(inputs.random_part(rng, order - nu, inputs.STABLE_RE)),
               order, nu] += 1
    for title, rows in (("criterion 07 (order, antistable modes)", lambda nu: True),
                        ("criterion 08 family A (stable order)", lambda nu: nu == 0)):
        sel = {key: n for key, n in counts.items() if rows(key[2])}
        total = sum(sel.values())
        print(f"{title}: {total} draws")
        for b in BANDS:
            by = sorted((key[1:], n) for key, n in sel.items() if key[0] == b)
            n = sum(c for _, c in by)
            print(f"  {b:<8} {n:>6} {n / total:7.2%}  "
                  + ", ".join(f"{k}: {c}" for k, c in by))


if __name__ == "__main__":
    main()
