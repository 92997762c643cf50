"""Named example orders used by the CLI, the test suite, and the scripts.

Every order of the registry is built in code by the constructors of
`orders`: group rings, monogenic rings, products, quotients, a tensor
product, and the rank-5 parity subring of Z^5.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from .grading import Grading, group_from_relations, make_grading
from .intlinalg import SublatticeBasis
from .orders import (
    Order,
    group_ring,
    monogenic_order,
    product_order,
    quotient_order,
    subring_order,
    validate,
)


def _tensor_order(a: Order, b: Order) -> Order:
    """Tensor product over the integers on the paired basis (i, j) -> e_i x f_j,
    numbered i * b.rank + j, so every cell and the identity are Kronecker
    products of those of the factors."""

    def kron(u, v):
        return tuple(x * y for x in u for y in v)

    pairs = [(i, j) for i in range(a.rank) for j in range(b.rank)]
    table = [[kron(a.table[i1][i2], b.table[j1][j2]) for i2, j2 in pairs] for i1, j1 in pairs]
    labels = None
    if a.labels and b.labels:
        labels = [
            f"{la}*{lb}" if la != "1" and lb != "1" else (lb if la == "1" else la)
            for la in a.labels
            for lb in b.labels
        ]
    return validate(table, kron(a.one, b.one), labels)


def _integers() -> Order:
    return monogenic_order([-1, 1]).with_labels(["1"])


def _zeta5() -> Order:
    return quotient_order(group_ring([5])[0], [(1,) * 5])[0]


def _kummer6() -> Order:
    eisenstein = monogenic_order([1, 1, 1]).with_labels(["1", "w"])
    cbrt2 = monogenic_order([-2, 0, 0, 1]).with_labels(["1", "c", "c^2"])
    return _tensor_order(eisenstein, cbrt2)


def _parity5() -> Order:
    z5 = functools.reduce(product_order, [_integers()] * 5)
    twice = [tuple(2 * (i == j) for j in range(5)) for i in range(1, 5)]
    order, _ = subring_order(z5, SublatticeBasis.from_vectors(5, [(1,) * 5, *twice]))
    return order.with_labels(["u", "2e1", "2e2", "2e3", "2e4"])


# name -> (summary, builder)
EXAMPLES: dict[str, tuple[str, Callable[[], Order]]] = {
    "z": ("the integers", _integers),
    "zxz": ("product ring Z x Z", lambda: product_order(_integers(), _integers())),
    "zc2": ("group ring of the cyclic group of order 2", lambda: group_ring([2])[0]),
    "zc3": ("group ring of the cyclic group of order 3", lambda: group_ring([3])[0]),
    "zc4": ("group ring of the cyclic group of order 4", lambda: group_ring([4])[0]),
    "zc5": ("group ring of the cyclic group of order 5", lambda: group_ring([5])[0]),
    "zc6": ("group ring of the cyclic group of order 6", lambda: group_ring([6])[0]),
    "zc2c2": ("group ring of the Klein four-group", lambda: group_ring([2, 2])[0]),
    "zsqrt2": ("Z[sqrt(2)]", lambda: monogenic_order([-2, 0, 1])),
    "zsqrtm1": ("Gaussian integers Z[i]", lambda: monogenic_order([1, 0, 1])),
    "zsqrt5": ("Z[sqrt(5)] (non-maximal quadratic order)", lambda: monogenic_order([-5, 0, 1])),
    "golden": ("Z[(1+sqrt(5))/2]", lambda: monogenic_order([-1, -1, 1])),
    "zeta5": ("Z[zeta_5] as the group ring of C5 modulo the sum of the group", _zeta5),
    "kummer6": ("Z[w, c] with w^2+w+1 = 0 and c^3 = 2, rank 6", _kummer6),
    "parity5": ("subring of Z^5 of vectors with all coordinates of equal parity", _parity5),
    "dual": ("dual numbers Z[X]/(X^2), not reduced", lambda: monogenic_order([0, 0, 1])),
}


def example_names() -> list[str]:
    return sorted(EXAMPLES)


def example_order(name: str) -> Order:
    try:
        _, builder = EXAMPLES[name]
    except KeyError:
        raise KeyError(
            f"unknown example '{name}'; available: {', '.join(example_names())}"
        ) from None
    return builder()


def natural_group_ring_grading(factors: Sequence[int]) -> tuple[Order, Grading]:
    """Group ring of the product of cyclic groups, graded by itself: the
    piece at each group element is the span of that basis vector."""
    order, elems = group_ring(factors)
    r = len(factors)
    diag = [[factors[i] * int(i == j) for j in range(r)] for i in range(r)]
    group, gen_images = group_from_relations(r, diag)
    rows_by = {}
    for i, e in enumerate(elems):
        rows_by.setdefault(group.combination(e, gen_images), []).append(order.unit(i))
    return order, make_grading(order, group, rows_by)
