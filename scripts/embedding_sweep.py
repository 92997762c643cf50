#!/usr/bin/env python3
"""Time the embeddings of a few group rings against the mp.eig oracle.

Each group ring is taken on a seeded random unimodular basis (as the tests'
`rebased` does), and its embeddings are computed twice: by
`compute_embeddings` (exact characteristic polynomial, Newton-refined
roots) and by `oracle_embeddings` from tests/helpers.py (mpmath's QR
eigensolver).  One line per order gives both times and the largest
deviation between the two Gram forms, relative to the largest entry (at
least 1).  Exits 1 when a deviation is above 2**(-precision/2).

    PYTHONPATH=src python scripts/embedding_sweep.py [--large]
"""

import argparse
import sys
import time
from pathlib import Path

from mpmath import mp, mpf

from gradus import compute_embeddings, gram, group_ring

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import oracle_embeddings, rebased  # noqa: E402

ORDERS = {"ZC8": [8], "ZC16": [16], "C2^4": [2, 2, 2, 2], "C2^5": [2, 2, 2, 2, 2]}
LARGE = {"ZC32": [32]}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--precision", type=int, default=192)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--large", action="store_true", help="add ZC32 (rank 32)")
    args = ap.parse_args()

    p = args.precision
    bound = mpf(2) ** (-(p // 2))
    orders = {**ORDERS, **(LARGE if args.large else {})}
    print(f"{'order':6s} {'rank':>4s} {'charpoly s':>10s} {'mp.eig s':>9s} {'gram deviation':>15s}")
    ok = True
    for name, factors in orders.items():
        a = rebased(group_ring(factors)[0], name)
        new, new_s = timed(compute_embeddings, a, p, args.seed)
        old, old_s = timed(oracle_embeddings, a, p, args.seed)
        g, h = gram(new), gram(old)
        with mp.workprec(p):
            scale = max([mpf(1)] + [abs(x) for row in h.entries for x in row])
            dev = max(abs(x - y) for r, s in zip(g.entries, h.entries) for x, y in zip(r, s)) / scale
        ok &= dev <= bound
        print(f"{name:6s} {a.rank:4d} {new_s:10.3f} {old_s:9.3f} {mp.nstr(dev, 3):>15s}")
    print(f"every deviation is at most 2^-{p // 2}" if ok else f"DEVIATION ABOVE 2^-{p // 2}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
