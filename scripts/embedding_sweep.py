#!/usr/bin/env python3
"""Time the embeddings, their residual and their Gram form against oracles.

Each order is taken on a seeded random unimodular basis (as the tests'
`rebased` does), and its embeddings are computed twice: by
`compute_embeddings` (exact characteristic polynomial, rows as Gaussian
integers on the grid 2**(-q)Z[i], q = p + 16) and by `oracle_embeddings`
from tests/helpers.py (mpmath's QR eigensolver).  On the grid rows of
`compute_embeddings`, the integer `_hom_residual` and `gram` are timed
against `oracle_hom_residual` and `oracle_gram`, which compute the same in
mpc sums (the residual at 8q bits, where the grid rows are exact, and the
Gram sums then put on the same grid 2**(-p)Z as the Gram form).  One line
per order gives the times and the largest deviation between the Gram forms
of the two embeddings, relative to the largest entry (at least 1).  Exits 1
when that deviation is above 2**(-precision/2), when the integer residual
is not the oracle's residual of the grid rows rounded up to the grid
2**(-2q)Z, or when a Gram entry is off the oracle's by more than 2**(8-p)
(1 + max|entry|), compared in integers on the grid.

The oracles run on mpmath, which gradus itself does not need: install the
`test` extra (`pip install -e '.[test]'`) first.

    PYTHONPATH=src python scripts/embedding_sweep.py [--precision P] [--large]
"""

import argparse
import sys
import time
from pathlib import Path

from mpmath import mp, mpf

from gradus import compute_embeddings, example_order, gram, group_ring, monogenic_order
from gradus.embeddings import FIXED_GUARD_BITS, _hom_residual

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import (  # noqa: E402
    as_mpc,
    oracle_embeddings,
    oracle_gram,
    oracle_hom_residual,
    rebased,
)

# group rings, kummer6 (complex roots off the unit circle) and x^4 - 1000
# (real roots of modulus above 1)
ORDERS = {
    "ZC8": group_ring([8])[0],
    "ZC16": group_ring([16])[0],
    "C2^4": group_ring([2, 2, 2, 2])[0],
    "C2^5": group_ring([2, 2, 2, 2, 2])[0],
    "kummer6": example_order("kummer6"),
    "x^4-1000": monogenic_order([-1000, 0, 0, 0, 1]),
}
LARGE = {"ZC32": group_ring([32])[0]}


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
    q = p + FIXED_GUARD_BITS
    bound = mpf(2) ** (-(p // 2))
    orders = {**ORDERS, **(LARGE if args.large else {})}
    print(
        f"{'order':8s} {'rank':>4s} {'charpoly s':>10s} {'mp.eig s':>9s} {'gram deviation':>15s}"
        f" {'residual s':>10s} {'oracle s':>8s} {'gram s':>7s} {'oracle s':>8s}"
    )
    ok = True
    for name, order in orders.items():
        a = rebased(order, name)
        new, new_s = timed(compute_embeddings, a, p, args.seed)
        old, old_s = timed(oracle_embeddings, a, p, args.seed)
        res, res_s = timed(_hom_residual, a, new.rows, q)
        rows = as_mpc(new)
        with mp.workprec(8 * q):
            want, want_s = timed(oracle_hom_residual, a, rows.sigma)
            residual_ok = res == int(mp.ceil(mp.ldexp(want, 2 * q)))
        g, gram_s = timed(gram, new)
        h, oracle_gram_s = timed(oracle_gram, rows)
        # |entry - oracle| <= 2**(8-p) (1 + max|entry|), times 2**p on the grid
        gram_ok = deviation(g, h) << (p - 8) <= (1 << p) + largest(h)
        with mp.workprec(p):
            dev = mpf(deviation(g, oracle_gram(old))) / largest(g)
        ok &= dev <= bound and residual_ok and gram_ok
        print(
            f"{name:8s} {a.rank:4d} {new_s:10.3f} {old_s:9.3f} {mp.nstr(dev, 3):>15s}"
            f" {res_s:10.3f} {want_s:8.3f} {gram_s:7.3f} {oracle_gram_s:8.3f}"
            + ("" if residual_ok else "  RESIDUAL OFF THE ORACLE")
            + ("" if gram_ok else "  GRAM OFF THE ORACLE")
        )
    print("every check holds" if ok else "A CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
