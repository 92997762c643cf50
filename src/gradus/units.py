"""Idempotents, connectedness, and roots of unity of reduced orders.

Both searches run over short lattice vectors under the canonical form and
then filter with exact ring arithmetic, so numeric noise can only cost a
retry, never a wrong answer.  Idempotents e satisfy <e, e> <= rank because
the form counts the embeddings sending e to 1; roots of unity satisfy
<z, z> = rank exactly, which bounds their search too.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .config import DEFAULT_CONFIG, RunConfig
from .embeddings import GramForm, norm, with_gram
from .errors import InternalInconsistency
from .intlinalg import Vec, vec_neg
from .lattices import enumerate_up_to, is_indecomposable
from .orders import Order, mul, power


@dataclass(frozen=True)
class UnitGroupReport:
    """All roots of unity of an order, with their multiplicative orders."""

    roots: tuple[Vec, ...]
    orders: tuple[int, ...]
    count: int
    group_closed: bool


def _euler_phi(m: int) -> int:
    out = m
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            out -= out // p
        p += 1
    if k > 1:
        out -= out // k
    return out


def torsion_order_bound(rank: int) -> int:
    """Safe upper bound on the multiplicative order of any root of unity in
    an order of the given rank: twice the square of the largest m with
    phi(m) <= rank."""
    if rank < 1:
        return 1
    largest = 1
    for m in range(1, 2 * rank * rank + 2):
        if _euler_phi(m) <= rank:
            largest = m
    return 2 * largest * largest


def element_order(a: Order, x, bound: int | None = None) -> int | None:
    """Least n >= 1 with x**n = 1, or None when no such n exists below the
    torsion bound for this rank."""
    if bound is None:
        bound = torsion_order_bound(a.rank)
    x = tuple(x)
    y = x
    for n in range(1, bound + 1):
        if y == a.one:
            return n
        y = mul(a, y, x)
    return None


def _idempotents_on(a: Order, g: GramForm, config: RunConfig) -> list[Vec]:
    found = {a.zero()}
    for v in enumerate_up_to(g, a.rank, config.enumeration_cap):
        for s in (v, vec_neg(v)):
            if mul(a, s, s) == s:
                found.add(s)
    return sorted(found)


def idempotents(a: Order, config: RunConfig | None = None) -> list[Vec]:
    """All solutions of x*x = x, found by enumerating vectors of norm up to
    the rank and filtering exactly; 0 and 1 are always present."""
    config = config or DEFAULT_CONFIG
    return with_gram(a, config, lambda g: _idempotents_on(a, g, config))


def connected_on(a: Order, g: GramForm, config: RunConfig) -> bool:
    """Connectedness of a decided on one Gram form of it.

    Computed two independent ways, by counting idempotents and by testing
    whether 1 is indecomposable in the lattice; disagreement raises
    InternalInconsistency because it can only come from a numeric fault.
    """
    by_count = len(_idempotents_on(a, g, config)) == 2
    by_lattice = is_indecomposable(g, a.one)
    if by_count != by_lattice:
        raise InternalInconsistency(
            "idempotent count and indecomposability of 1 disagree"
        )
    return by_count


def is_connected(a: Order, config: RunConfig | None = None) -> bool:
    """Whether the only idempotents are 0 and 1 (see `connected_on`)."""
    config = config or DEFAULT_CONFIG
    if a.rank == 0:
        raise ValueError("the zero ring is not eligible")
    return with_gram(a, config, lambda g: connected_on(a, g, config))


def roots_of_unity(a: Order, config: RunConfig | None = None) -> UnitGroupReport:
    """All elements of finite multiplicative order.

    Candidates are the lattice vectors of norm equal to the rank (within the
    tolerance); each is tested exactly by iterating multiplication up to the
    torsion bound.
    """
    config = config or DEFAULT_CONFIG
    n = a.rank
    bound = torsion_order_bound(n)

    def run(g: GramForm):
        with mp.workprec(g.precision):
            cands = [
                v
                for v in enumerate_up_to(g, n, config.enumeration_cap)
                if norm(g, v) >= n - g.tolerance
            ]
        found = {}
        for v in cands:
            for s in (v, vec_neg(v)):
                k = element_order(a, s, bound)
                if k is not None:
                    found[s] = k
        return found

    found = with_gram(a, config, run)
    roots = tuple(sorted(found))
    orders = tuple(found[r] for r in roots)
    root_set = set(roots)
    closed = all(
        mul(a, x, y) in root_set for x in roots for y in roots
    ) and all(
        power(a, x, found[x] - 1) in root_set for x in roots if found[x] > 1
    )
    return UnitGroupReport(roots, orders, len(roots), closed)
