#!/usr/bin/env python3
"""Time the embeddings, their residual and their Gram form against oracles.

Each group ring is taken on a seeded random unimodular basis (as the tests'
`rebased` does), and its embeddings are computed twice: by
`compute_embeddings` (exact characteristic polynomial, Newton-refined
roots) and by `oracle_embeddings` from tests/helpers.py (mpmath's QR
eigensolver).  On the rows of `compute_embeddings`, the integer
`_hom_residual` and `gram` are timed against `oracle_hom_residual` and
`oracle_gram`, which compute the same in mpc sums (the oracle's sums then
put on the same grid 2**(-p)Z as the Gram form).  One line per order gives
the times and the largest deviation between the Gram forms of the two
embeddings, relative to the largest entry (at least 1).  Exits 1 when that
deviation is above 2**(-precision/2), when the integer residual is below the
oracle's by more than the oracle's rounding (2**-p n (1 + max|sigma|)^2), or
when a Gram entry is off the oracle's by more than 2**(8-p) (1 + max|entry|),
compared in integers on the grid.

    PYTHONPATH=src python scripts/embedding_sweep.py [--large]
"""

import argparse
import sys
import time
from pathlib import Path

from mpmath import mp, mpf

from gradus import compute_embeddings, gram, group_ring
from gradus.embeddings import _hom_residual

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import oracle_embeddings, oracle_gram, oracle_hom_residual, rebased  # noqa: E402

ORDERS = {"ZC8": [8], "ZC16": [16], "C2^4": [2, 2, 2, 2], "C2^5": [2, 2, 2, 2, 2]}
LARGE = {"ZC32": [32]}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def largest(g):
    """The largest |entry| of a Gram form, at least 1, on its grid."""
    return max([1 << g.precision] + [abs(x) for row in g.entries for x in row])


def deviation(g, h):
    """The largest entrywise difference of two Gram forms on one grid."""
    return max(abs(x - y) for r, s in zip(g.entries, h.entries) for x, y in zip(r, s))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--precision", type=int, default=192)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--large", action="store_true", help="add ZC32 (rank 32)")
    args = ap.parse_args()

    p = args.precision
    bound = mpf(2) ** (-(p // 2))
    orders = {**ORDERS, **(LARGE if args.large else {})}
    print(
        f"{'order':6s} {'rank':>4s} {'charpoly s':>10s} {'mp.eig s':>9s} {'gram deviation':>15s}"
        f" {'residual s':>10s} {'oracle s':>8s} {'gram s':>7s} {'oracle s':>8s}"
    )
    ok = True
    for name, factors in orders.items():
        a = rebased(group_ring(factors)[0], name)
        new, new_s = timed(compute_embeddings, a, p, args.seed)
        old, old_s = timed(oracle_embeddings, a, p, args.seed)
        with mp.workprec(p):
            res, res_s = timed(_hom_residual, a, new.sigma)
            want, want_s = timed(oracle_hom_residual, a, new.sigma)
            scale = a.rank * (1 + max(abs(s) for row in new.sigma for s in row)) ** 2
            residual_ok = res >= want - mp.ldexp(scale, -p)
        g, gram_s = timed(gram, new)
        h, oracle_gram_s = timed(oracle_gram, new)
        # |entry - oracle| <= 2**(8-p) (1 + max|entry|), times 2**p on the grid
        gram_ok = deviation(g, h) << (p - 8) <= (1 << p) + largest(h)
        with mp.workprec(p):
            dev = mpf(deviation(g, gram(old))) / largest(g)
        ok &= dev <= bound and residual_ok and gram_ok
        print(
            f"{name:6s} {a.rank:4d} {new_s:10.3f} {old_s:9.3f} {mp.nstr(dev, 3):>15s}"
            f" {res_s:10.3f} {want_s:8.3f} {gram_s:7.3f} {oracle_gram_s:8.3f}"
            + ("" if residual_ok else "  RESIDUAL BELOW THE ORACLE")
            + ("" if gram_ok else "  GRAM OFF THE ORACLE")
        )
    print("every check holds" if ok else "A CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
