"""Idempotents, connectedness, and roots of unity of reduced orders.

The primitive idempotents e_1..e_k come with the universal grading: its
product graph joins the splitting components into the factors e_i a, each
checked exactly (see `grading._atoms`), and the grading is kept once per
order object.  The idempotents are the 2^k subset sums of the e_i, and a
is connected when k = 1, so every idempotent answer on an order object, at
any precision or seed, reads that one grading, and no search runs for it.

Roots of unity factor through the e_i: a = e_1 a x ... x e_k a, so mu(a)
is the set of sums of one root of each factor, and a root of e_i a has
norm exactly r_i = rank(e_i a).  Each factor is searched on its own
lattice, spanned by the splitting components in its class: one search of
its ball of norm r_i lists its candidates, one of each +- pair, and a
connected order is searched on its own form.  `element_order` decides
each candidate v in a as v + 1 - e_i, whose order is v's order in e_i a: it
walks x, x^2, ... up to m* = max{m : phi(m) <= rank}, drops x once some
power has |Tr| > rank (a root's powers have eigenvalues on the unit
circle), and past m* falls back to the exponent gate x^L = 1,
L = lcm{m : phi(m) <= rank}.  L is even, so -v is a root exactly when v is,
and its order follows from v's.  `group_closed` is certified per factor,
by building the subgroup its roots generate, coset by coset, in
O(sum |mu(e_i a)|) products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import lcm

from .config import DEFAULT_CONFIG, RunConfig
from .embeddings import with_gram
from .grading import graded_on, universal_grading
from .intlinalg import IntMatrix, Vec, vec_add, vec_neg, vec_sub
from .lattices import GramForm, enumerate_up_to, inner, norm
from .orders import Order, mul, power, trace_vector


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


def _cyclotomic_orders(rank: int) -> list[int]:
    # phi(m) >= sqrt(m/2), so phi(m) <= rank forces m <= 2 * rank^2
    return [m for m in range(1, 2 * rank * rank + 2) if _euler_phi(m) <= rank]


@functools.lru_cache(maxsize=None)
def torsion_exponent(rank: int) -> int:
    """L = lcm{m : phi(m) <= rank}, which every root of unity in an order of
    this rank satisfies: z^L = 1.

    A root of order m in a field factor of degree d generates Q(zeta_m)
    inside it, so phi(m) <= d <= rank; the order of a root of the product
    is the lcm of the orders of its components."""
    return lcm(*_cyclotomic_orders(rank))


@functools.lru_cache(maxsize=None)
def walk_length(rank: int) -> int:
    """m* = max{m : phi(m) <= rank}, the largest order of a root of unity
    in a field of degree <= rank (1 for rank 0).  A product of fields can
    hold roots of larger order: (zeta_7, zeta_5) in Z[zeta_7] x Z[zeta_5]
    has order 35 and its negative 70, while m* = 30 at rank 10."""
    return max(_cyclotomic_orders(rank), default=1)


def element_order(a: Order, x) -> int | None:
    """Least n >= 1 with x**n = 1, or None when x is not a root of unity.

    Walk.  x, x^2, ... are formed up to x^(m*) (m* = `walk_length(rank)`),
    and the first k with x^k = 1 is the answer.

    Trace exit.  If x^m = 1 then M_x^m = I for the regular representation
    M, so the eigenvalues of every M_(x^k) are roots of unity and
    |Tr x^k| <= rank.  So the walk drops x as soon as a formed power y has
    |t . y| > rank, t = `trace_vector(a)`.  The test is exact and holds in
    any order.

    Gate.  m* bounds the order of a root only inside one field, so a walk
    that reaches x^(m*) without meeting 1 decides by the exponent gate
    x^L = 1 (L = `torsion_exponent(rank)`, by fast powering), and a root
    then walks on to its least order, a divisor of L."""
    x = tuple(x)
    t = trace_vector(a)
    n = a.rank
    y, k, walk = x, 1, walk_length(n)
    while y != a.one:
        if abs(sum(i * j for i, j in zip(t, y))) > n or (
            k == walk and power(a, x, torsion_exponent(n)) != a.one
        ):
            return None
        y = mul(a, y, x)
        k += 1
    return k


def _negated_order(a: Order, v: Vec, k: int, one: Vec) -> int:
    """The order of -v, for a root v of order k in a ring with unit `one`
    (a factor eA of a, with one = e).

    (-v)^j = (-1)^j v^j.  For even j that is `one` exactly when k | j.  For
    odd j it is `one` exactly when v^j = -one; the cyclic group <v> holds
    -one only as v^(k/2), for even k, and the exponents j = k/2 (mod k) are
    odd exactly when k = 2 (mod 4).  So -v has order k/2 when k = 2 (mod 4)
    and v^(k/2) = -one, and lcm(2, k) otherwise."""
    if k % 4 == 2 and power(a, v, k // 2) == vec_neg(one):
        return k // 2
    return lcm(2, k)


def is_subgroup(a: Order, roots) -> bool:
    """Whether the roots of unity `roots` are closed under products, by
    building the group H they generate: from H = {1}, each root s outside H
    adds the cosets H s, H s^2, ... up to the first s^r in H, and every new
    element must be one of `roots`.  The roots are then exactly H, a group,
    while an element outside them is a product of roots that the set
    misses.  This takes |H| - 1 + sum r products; the pairwise check takes
    about |roots|^2 / 2.  An empty set is closed, and a set without 1 is
    not (a root's powers reach 1).

    The cosets H s^i make up the group generated by H and s only when s
    commutes with H, so the check assumes a commutative order, which
    `orders.validate` guarantees."""
    members = set(roots)
    if not members:
        return True
    if a.one not in members:
        return False
    group = [a.one]
    seen = {a.one}
    for s in roots:
        # s^j lies in a coset H s^i (i < j) only if s^(j-i) lies in H, so
        # the walk stops at the first power in the old H
        y, size = s, len(group)
        while y not in seen:
            for h in group[:size]:
                z = mul(a, h, y)
                if z not in members:
                    return False
                group.append(z)
                seen.add(z)
            y = mul(a, y, s)
    return True


def idempotents(a: Order, config: RunConfig | None = None) -> list[Vec]:
    """All solutions of x*x = x, 0 and 1 among them, sorted: the 2^k sums
    of subsets of the primitive idempotents e_1..e_k, which the universal
    grading reads off its product graph (see `grading._atoms`).  Distinct
    subsets give distinct sums, since e_i is 0 on every other factor."""
    sums = [a.zero()]
    for e, _ in universal_grading(a, config).atoms:
        sums += [vec_add(s, e) for s in sums]
    return sorted(sums)


def is_connected(a: Order, config: RunConfig | None = None) -> bool:
    """Whether 0 and 1 are the only idempotents: whether the universal
    grading finds one primitive idempotent."""
    if a.rank == 0:
        raise ValueError("the zero ring is not eligible")
    return len(universal_grading(a, config).atoms) == 1


def roots_of_unity(a: Order, config: RunConfig | None = None) -> UnitGroupReport:
    """All elements of finite multiplicative order, as the product of the
    roots of the factors e_1 a, ..., e_k a at the primitive idempotents.

    Splitting.  The primitive idempotents e_1..e_k, which the universal
    grading reads off its product graph and keeps on a
    (`grading.graded_on`), sum to 1 and are orthogonal, so
    a = e_1 a x ... x e_k a as rings, e_i a being the order
    {v in a : e_i v = v} with unit e_i and rank r_i = t . e_i, the number of
    embeddings at which e_i is 1.  A root of a is a sum sum_i z_i of roots
    z_i = e_i z of the factors, and its order is the lcm of theirs, so the
    roots of a are the sums of one root of each factor.  For k = 0 (the zero
    ring, where 0 = 1) the empty sum 0 is its one root, of order 1.

    Completeness.  A root z of e_i a has |sigma(z)| = 1 at the r_i embeddings
    where e_i is 1 and sigma(z) = 0 at the others, so its norm under the
    canonical form of a is exactly r_i.  The candidates of factor i are the
    vectors of e_i a of norm r_i (within the tolerance, compared on the grid
    of the form g), one of each +- pair, and each factor is searched on its
    own lattice:
    - The components of the splitting (`GradedOrder.decomposition`) split a
      with index 1, and each lies in a single factor, which the grading
      keeps (`GradedOrder.component_factors`, from `grading._atoms`).
    - Stack the rows of the components of factor i as B_i.  They lie in
      e_i a and are independent, and a vector v of e_i a, an integer sum of
      all the rows, equals e_i v, in which e_i kills every row outside
      factor i and fixes the rest: so B_i is a basis of e_i a.
    - h_i = B_i F B_i^T, F = g.entries, is a matrix of exact integers on the
      grid of g, and it takes g's tolerance, so norm(h_i, x) =
      norm(g, x B_i) exactly.  `lattices.enumerate_up_to` on h_i, at norm
      r_i and with h_i's own LLL, then lists exactly the vectors of e_i a in
      the ball of norm r_i of g, one of each +- pair: its Fincke-Pohst
      completeness holds on any form.  Those of norm at least r_i, within
      the tolerance, are the candidates of factor i (the ball can hold
      shorter zero divisors, such as 2 e_1 of norm 4 in the rank-5
      subring of Z^5 of equal parities), mapped back through B_i: the same
      candidates, with the same verdicts, as a search of the ball of norm
      max r_i of the whole lattice filtered by e_i v = v.
    For k = 1, e_1 = 1, any basis of a is one of e_1 a, and the factor is
    searched on g itself, with its reduction.  The enumeration cap bounds
    each factor's search.

    Decision.  v (1 - e_i) = 0 and 1 - e_i is idempotent, so
    (v + 1 - e_i)^m = v^m + (1 - e_i), which is 1 exactly when v^m = e_i: the
    order of v + 1 - e_i in a, from one call of `element_order`, is the order
    of v in e_i a.  L is even, so -v is a root exactly when v is, and
    `_negated_order` with unit e_i gives the order of -v.

    Certificate.  Sums multiply factor by factor, (sum z_i)(sum z'_i) =
    sum z_i z'_i, so the set of sums is closed when every factor's set is.
    Conversely, when it is closed and holds 1 = sum e_i, every factor's set
    holds e_i, and z z' is the i-th part of the product of z + sum_(j != i) e_j
    and z' + sum_(j != i) e_j.  Every factor has a root, e_i, so the set of
    sums is a group exactly when every factor's set is.  z -> z + 1 - e_i is
    multiplicative and one-to-one and sends e_i to 1, so a factor's set is a
    group exactly when its shift is, and `is_subgroup` of the shifts decides
    group_closed in O(sum_i |mu(e_i a)|) products.
    """
    config = config or DEFAULT_CONFIG

    def run(g: GramForm):
        go = graded_on(a, g)
        factors = []
        for i, (e, r) in enumerate(go.atoms):
            # k = 1: a itself, on g, and the lift z -> z + 1 - e is the identity
            h, place, lift = g, tuple, tuple
            if e != a.one:
                comps = zip(go.decomposition.components, go.component_factors)
                rows = [v for c, f in comps if f == i for v in c.vectors()]
                entries = tuple(tuple(inner(g, u, v) for v in rows) for u in rows)
                h = GramForm(len(rows), entries, g.precision, g.tolerance)
                place = IntMatrix.from_rows(rows).vec_mat
                lift = functools.partial(vec_add, vec_sub(a.one, e))
            found = {}
            for x in enumerate_up_to(h, r << g.precision, config.enumeration_cap):
                if norm(h, x) < (r << g.precision) - g.tolerance:
                    continue
                v = place(x)
                k = element_order(a, lift(v))
                if k is not None:
                    found[v] = k
                    found[vec_neg(v)] = _negated_order(a, v, k, e)
            factors.append((found, lift))
        return factors

    factors = with_gram(a, config, run)
    # the empty product is {0}, and a single factor is its own product
    found = functools.reduce(_sums, [f for f, _ in factors]) if factors else {a.zero(): 1}
    roots = tuple(sorted(found))
    orders = tuple(found[r] for r in roots)
    closed = all(is_subgroup(a, [lift(z) for z in sorted(f)]) for f, lift in factors)
    return UnitGroupReport(roots, orders, len(roots), closed)


def _sums(x: dict, y: dict) -> dict:
    """{s + z: lcm of their orders} over the roots s of x and z of y, the
    roots of a product of two factors."""
    return {vec_add(s, z): lcm(k, m) for s, k in x.items() for z, m in y.items()}
