"""Commutative orders presented by integer structure constants.

An order of rank n is stored as an n x n table of coordinate vectors,
table[i][j] being the coordinates of e_i * e_j on the basis, together with
the coordinates of the multiplicative identity.  validate() is the only
entry point that produces an Order, so every Order in circulation satisfies
the ring axioms.  It checks them exactly: commutativity cell by cell, then
associativity in O(n^3) products of a table entry by an integer that packs
a whole row of products (see its docstring), then the identity in n
products of elements.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadIdentity,
    InternalInconsistency,
    NotAssociative,
    NotCommutative,
    TorsionQuotient,
)
from .intlinalg import (
    IntMatrix,
    SublatticeBasis,
    Vec,
    inverse_unimodular,
    kernel_saturated,
    snf,
)

Table = tuple[tuple[Vec, ...], ...]

# support[i][j]: the m with table[i][j][m] != 0
Support = tuple[tuple[tuple[int, ...], ...], ...]


def _support(table: Table) -> Support:
    # equal supports share one tuple: most cells of a dense table have the
    # same one, so this costs little memory over the table itself
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    return tuple(
        tuple(
            shared.setdefault(nz, nz)
            for nz in (tuple(m for m, t in enumerate(cell) if t) for cell in row)
        )
        for row in table
    )


@dataclass(frozen=True)
class Order:
    rank: int
    table: Table
    one: Vec
    labels: tuple[str, ...] | None = None
    # the nonzero entries of each cell, derived once per order so that a
    # product skips the zeros of the table
    support: Support = field(init=False, repr=False, compare=False)
    # what is derived from this order object, each entry under a key owned
    # by the function that computes it; nothing in it refers to the order
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "support", _support(self.table))

    def unit(self, i: int) -> Vec:
        return tuple(int(j == i) for j in range(self.rank))

    def zero(self) -> Vec:
        return (0,) * self.rank

    def basis(self) -> tuple[Vec, ...]:
        return tuple(self.unit(i) for i in range(self.rank))

    def with_labels(self, labels: Sequence[str]) -> "Order":
        if len(labels) != self.rank:
            raise ValueError("label count must match the rank")
        return Order(self.rank, self.table, self.one, tuple(labels))


def _mul_raw(a: Order, x: Sequence[int], y: Sequence[int]) -> Vec:
    out = [0] * len(x)
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        cells, support = a.table[i], a.support[i]
        for j, yj in ys:
            c = xi * yj
            cell = cells[j]
            for m in support[j]:
                out[m] += c * cell[m]
    return tuple(out)


def _is_list(x) -> bool:
    # lists and tuples skip the slower ABC check, which accepts them too
    return type(x) in (list, tuple) or (
        isinstance(x, Sequence) and not isinstance(x, (str, bytes))
    )


def _ints(values, what: str) -> Vec:
    """values as a tuple of integers.  Raises ValueError for anything else,
    such as a bare number, a string or a float read from an order file."""
    if not _is_list(values) or not (
        # plain ints pass in C; bools and int subclasses take the full test
        set(map(type, values)) <= {int}
        or all(isinstance(c, int) and not isinstance(c, bool) for c in values)
    ):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(values)


def table_bound(a: Order) -> int:
    """The largest |entry| of the table of a, 0 for rank 0.  Kept on the
    order object: `validate` reads it first, and later bounds of packed
    products reuse it."""
    if "table_bound" not in a.derived:
        cells = [cell for row in a.table for cell in row]
        top = max(max(map(max, cells), default=0), -min(map(min, cells), default=0))
        a.derived["table_bound"] = top
    return a.derived["table_bound"]


class Packing:
    """Kronecker substitution: digits c_0, ..., c_(count-1) with |c_t| <= B
    = bound, as z = sum_t c_t 2^(bt), b = 8 width for the fewest bytes with
    b >= bits(B) + 1.  Packing is linear, so one product of integers stands
    for a row of products; a caller bounds every digit it reads back by B.

    Why the digits read back exactly.  |c_t| <= B < 2^(b-1), so adding
    h = sum_t 2^(b-1) 2^(bt) moves every digit into [1, 2^b - 1] without
    carries: z + h is the unique base-2^b expansion of the digits
    c_t + 2^(b-1).  So its blocks of `width` bytes are equal exactly where
    the c_t are (`blocks`), and the xor with h clears block t exactly when
    c_t = 0 (`nonzero`).  The width is tight: with one byte fewer,
    b' = b - 8 <= bits(B), the digit B + 2^(b'-1) >= 2^b' does not fit.
    """

    def __init__(self, count: int, bound: int):
        self.width = (bound.bit_length() + 8) // 8
        self.size, self.half = count * self.width, 1 << (8 * self.width - 1)
        self.offset = int.from_bytes(self.half.to_bytes(self.width, "little") * count, "little")

    def pack(self, digits: Iterable[int]) -> int:
        """z for the `count` digits, from their bytes in time linear in the
        count (a sum of shifts, quadratic, is 6 times slower at the 4096
        digits of a rank-64 table row, 1 us faster at 4; Python 3.11, Xeon)."""
        shifted = map(self.half.__add__, digits)
        widths, order = itertools.repeat(self.width), itertools.repeat("little")
        data = b"".join(map(int.to_bytes, shifted, widths, order))
        return int.from_bytes(data, "little") - self.offset

    def blocks(self, zs: Iterable[int], per: int = 1) -> list[tuple[bytes, ...]]:
        """For each z of zs, its digits `per` to a block, as bytes."""
        step, offset, size = per * self.width, self.offset, self.size
        cuts, out = range(0, size, step), []
        for z in zs:
            data = (z + offset).to_bytes(size, "little")
            out.append(tuple([data[t : t + step] for t in cuts]))
        return out

    def nonzero(self, z: int) -> list[int]:
        """The t with c_t != 0, rising."""
        bits = 8 * self.width
        u = (z + self.offset) ^ self.offset
        out = []
        while u:
            out.append(((u & -u).bit_length() - 1) // bits)
            u &= -1 << (bits * (out[-1] + 1))
        return out


def _nonassociative_triple(a: Order) -> tuple[int, int, int] | None:
    """The first (i, j, k) in lexicographic order with
    (e_i e_j) e_k != e_i (e_j e_k) in the commutative table of a, or None.

    validate() states how S_j[i] packs (e_j e_i) e_k for every k, and why
    comparing block k of S_j[i] with block i of S_j[k] decides the triple.
    """
    n, bound = a.rank, table_bound(a)
    packing = Packing(n * n, n * bound * bound)
    # P_m packs row m of the table, e_m times each e_k
    packed = [packing.pack(itertools.chain.from_iterable(row)) for row in a.table]
    found, first = None, n  # later slices only matter with a smaller i
    for j, row in enumerate(table_times(a, packed)):
        # blocks[i][k] is the coordinate vector of S[j][i][k]
        blocks = packing.blocks(row, n)
        transposed = list(zip(*blocks))
        if transposed == blocks:
            continue
        # in the first row that differs from its column the first difference
        # lies right of the diagonal: one to its left is in an earlier row
        i = next((i for i in range(first) if blocks[i] != transposed[i]), None)
        if i is not None:
            k = next(k for k, (x, y) in enumerate(zip(blocks[i], transposed[i])) if x != y)
            found, first = (i, j, k), i
    return found


def validate(table: Sequence, one: Sequence[int], labels: Sequence[str] | None = None) -> Order:
    """Check the shape and the ring axioms and return the resulting Order.

    Raises ValueError for a table, identity or labels of the wrong shape or
    type, and NotCommutative, NotAssociative, or BadIdentity naming the
    first violating basis indices, in lexicographic order.

    Associativity costs O(n^3) products of a table entry by a packed
    integer, not the 2n^3 products of elements of the naive test.  Commutativity is
    checked first; given it, let S[i][j][k] = (e_i e_j) e_k.  Then
    e_i (e_j e_k) = (e_j e_k) e_i = S[j][k][i] and S[i][j][k] = S[j][i][k],
    so (i, j, k) violates associativity exactly when the slice
    S_j = (S[j][i][k])_{i,k} is not symmetric at (i, k).  Its violations
    come in pairs (i, j, k), (k, j, i), and the first one is the first
    (i, j, k) with i < k at which some S_j is not symmetric.

    With P_m = sum_{k,l} T[m][k][l] 2^(b(kn+l)), row m of the table
    packed (`Packing`), cell [j][i] of the table times the P_m is
    S_j[i] = sum_{k,l} S[j][i][k][l] 2^(b(kn+l)), whose digits are at most
    n B^2 in absolute value (B the largest |entry|): byte block k of S_j[i]
    equals block i of S_j[k] exactly when S[j][i][k] = S[j][k][i].
    """
    one_t = _ints(one, "the identity")
    n = len(one_t)
    if not _is_list(table) or len(table) != n or not all(
        _is_list(row) and len(row) == n and all(_is_list(c) and len(c) == n for c in row)
        for row in table
    ):
        raise ValueError(f"table must be {n}x{n} coordinate vectors of length {n}")
    tab: Table = tuple(tuple(_ints(cell, "a table cell") for cell in row) for row in table)
    if labels is not None and (
        not _is_list(labels) or len(labels) != n or not all(isinstance(x, str) for x in labels)
    ):
        raise ValueError(f"labels must be a list of {n} strings")
    for i in range(n):
        for j in range(i + 1, n):
            if tab[i][j] != tab[j][i]:
                raise NotCommutative(i, j)
    a = Order(n, tab, one_t, tuple(labels) if labels is not None else None)
    triple = _nonassociative_triple(a)
    if triple is not None:
        raise NotAssociative(*triple)
    units = a.basis()
    for i in range(n):
        if _mul_raw(a, one_t, units[i]) != units[i]:
            raise BadIdentity(i)
    return a


def mul(a: Order, x: Sequence[int], y: Sequence[int]) -> Vec:
    """Product of two elements given by coordinates; bilinear in both."""
    if len(x) != a.rank or len(y) != a.rank:
        raise ValueError("element length does not match the rank")
    return _mul_raw(a, x, y)


def power(a: Order, x: Sequence[int], k: int) -> Vec:
    if k < 0:
        raise ValueError("only nonnegative powers")
    out = a.one
    base = tuple(x)
    while k:
        if k & 1:
            out = mul(a, out, base)
        base = mul(a, base, base)
        k >>= 1
    return out


def regular_matrix(a: Order, x: Sequence[int]) -> IntMatrix:
    """Matrix of multiplication by x: M_x coords(y) = coords(x*y)."""
    n = a.rank
    rows = [[0] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, (cell, support) in enumerate(zip(a.table[i], a.support[i])):
            for m in support:
                rows[m][j] += xi * cell[m]
    return IntMatrix.from_rows(rows, n)


def trace_vector(a: Order) -> Vec:
    """The trace functional t: t[m] is the trace of M_{e_m}, so that
    t . coords(x) is the trace of M_x.  Kept on the order object."""
    if "trace_vector" not in a.derived:
        n = a.rank
        a.derived["trace_vector"] = tuple(
            sum(a.table[m][j][j] for j in range(n)) for m in range(n)
        )
    return a.derived["trace_vector"]


def table_times(a: Order, v: Sequence[int]) -> Iterator[list[int]]:
    """The rows of the table of a times v, one at a time, so a caller may
    stop early: cell i of row k is sum_m T[k][i][m] v[m], e_k e_i dotted
    with v: Tr(e_k e_i) for the trace vector, e_k e_i V packed for the
    packed rows of a matrix V.  The sum runs over `a.support`: on the
    benchmark's orders, up to 80 % of whose entries are nonzero, that takes
    0.6 to 0.8 of the time of sum(map(mul, cell, v)) (Python 3.11, Xeon)."""
    for k in range(a.rank):
        row = []
        for cell, nz in zip(a.table[k], a.support[k]):
            s = 0
            for m in nz:
                s += cell[m] * v[m]
            row.append(s)
        yield row


def product_matrix(x: Sequence[int], products: Iterable[Sequence[int]]) -> list[int]:
    """Row l is sum_k x_k products[l][k].  For the rows of table_times(a, v)
    that is x e_l dotted with v, and sum_l y_l row l is x y dotted with v."""
    return [sum(map(operator.mul, x, row)) for row in products]


def charpoly_rows(a: Order, z: Sequence[int]) -> tuple[Vec, tuple[Vec, ...]]:
    """Characteristic polynomial of M_z and the rows t . adj(xI - M_z).

    Faddeev-LeVerrier on the trace functional t, in integers only: with
    chi = x^n + c_{n-1} x^{n-1} + ... + c_0, beta_1 = t and
    beta_k = beta_{k-1} M_z + c_{n-k+1} t, one has
    c_{n-k} = -(beta_k . z) / k, an exact division, and
    t . adj(xI - M_z) = sum_k beta_k x^{n-k}.  beta_k . z is the trace of
    M_z times the k-th Faddeev-LeVerrier matrix, a polynomial in M_z, so n
    vector-matrix products give everything.  Returns the coefficients of
    chi, leading one first, and (beta_1, ..., beta_n).
    """
    mz = regular_matrix(a, z)
    t = trace_vector(a)
    beta = t
    betas = [t]
    chi = [1]
    for k in range(1, a.rank + 1):
        if k > 1:
            beta = tuple(b + chi[-1] * ti for b, ti in zip(mz.vec_mat(beta), t))
            betas.append(beta)
        num = -sum(b * zi for b, zi in zip(beta, z))
        c, rem = divmod(num, k)
        if rem:
            raise InternalInconsistency("Faddeev-LeVerrier division was not exact")
        chi.append(c)
    return tuple(chi), tuple(betas)


def trace_gram(a: Order) -> IntMatrix:
    """Integer Gram matrix T of the trace form (x, y) -> trace of M_{x*y}.
    Kept on the order object, so the trace form's positivity test, the CM
    certificate's T z and `nilradical` read one T."""
    if "trace_gram" not in a.derived:
        a.derived["trace_gram"] = IntMatrix.from_rows(table_times(a, trace_vector(a)), a.rank)
    return a.derived["trace_gram"]


def nilradical(a: Order) -> SublatticeBasis:
    """Basis of the ideal of nilpotent elements.

    Computed as the saturated kernel of the trace form (`trace_gram`,
    which the order keeps); each basis vector is certified nilpotent by
    repeated squaring (the nilpotency index is at most the rank).  Kept on the order object, so the CLI's report and the
    reducedness check behind the embeddings of one order share one
    computation; an equal but distinct order computes its own.
    """
    if "nilradical" in a.derived:
        return a.derived["nilradical"]
    ker = kernel_saturated(trace_gram(a))
    for v in ker.vectors():
        w = v
        for _ in range(max(1, a.rank.bit_length() + 1)):
            w = mul(a, w, w)
            if not any(w):
                break
        if any(w):
            raise InternalInconsistency(
                "trace-kernel vector is not nilpotent; the table is corrupt"
            )
    a.derived["nilradical"] = ker
    return ker


def is_reduced(a: Order) -> bool:
    return nilradical(a).rank == 0


def group_ring(cyclic_factors: Sequence[int]) -> tuple[Order, list[tuple[int, ...]]]:
    """Integral group ring of the product of cyclic groups of the given sizes.

    Returns the order together with the list of group elements indexing its
    basis (index i of the basis corresponds to elements[i]).
    """
    factors = [int(k) for k in cyclic_factors]
    if any(k < 1 for k in factors):
        raise ValueError("cyclic factors must be positive")
    elements = list(itertools.product(*(range(k) for k in factors)))
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    # one unit vector per group element, shared by every cell it fills
    units = [tuple(int(m == i) for m in range(n)) for i in range(n)]
    table = [
        [units[index[tuple((gi + hi) % k for gi, hi, k in zip(g, h, factors))]] for h in elements]
        for g in elements
    ]
    one = units[index[tuple(0 for _ in factors)]]
    labels = [_group_label(e, factors) for e in elements]
    return validate(table, one, labels), elements


def _group_label(e: tuple[int, ...], factors: Sequence[int]) -> str:
    if not any(e):
        return "1"
    if len(factors) == 1:
        return "g" if e[0] == 1 else f"g^{e[0]}"
    return "g(" + ",".join(str(c) for c in e) + ")"


def monogenic_order(f_coeffs: Sequence[int]) -> Order:
    """Order Z[X]/(f) with the power basis, f monic with the given
    coefficients listed from the constant term up to the leading 1."""
    coeffs = [int(c) for c in f_coeffs]
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic of degree at least 1")
    n = len(coeffs) - 1
    # powers of x modulo f, for exponents up to 2n-2
    powers = [[int(k == e) for k in range(n)] for e in range(n)]
    cur = list(powers[-1])
    for _ in range(n - 1):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for k in range(n):
                cur[k] -= top * coeffs[k]
        powers.append(list(cur))
    table = [[tuple(powers[i + j]) for j in range(n)] for i in range(n)]
    one = tuple(int(k == 0) for k in range(n))
    labels = ["1"] + [("x" if e == 1 else f"x^{e}") for e in range(1, n)]
    return validate(table, one, labels)


def product_order(a: Order, b: Order) -> Order:
    """Direct product ring on the concatenated bases."""
    n, m = a.rank, b.rank
    total = n + m
    table = [[None] * total for _ in range(total)]
    zero = (0,) * total
    for i in range(total):
        for j in range(total):
            if i < n and j < n:
                table[i][j] = tuple(a.table[i][j]) + (0,) * m
            elif i >= n and j >= n:
                table[i][j] = (0,) * n + tuple(b.table[i - n][j - n])
            else:
                table[i][j] = zero
    one = tuple(a.one) + tuple(b.one)
    return validate(table, one)


def ideal_closure(a: Order, gens: Sequence[Sequence[int]]) -> SublatticeBasis:
    """Smallest sublattice containing gens that is closed under
    multiplication by the order, i.e. the ideal they generate."""
    current = SublatticeBasis.from_vectors(a.rank, gens)
    while True:
        rows = list(current.vectors())
        extra = [mul(a, v, e) for v in current.vectors() for e in a.basis()]
        nxt = SublatticeBasis.from_vectors(a.rank, rows + extra)
        if nxt == current:
            return current
        current = nxt


def quotient_order(a: Order, ideal_gens: Sequence[Sequence[int]]) -> tuple[Order, IntMatrix]:
    """Quotient of the order by the ideal generated by ideal_gens.

    Returns the quotient order on a chosen integral basis together with the
    projection matrix P; the image of x is x P in quotient coordinates.
    Raises TorsionQuotient when the quotient has additive torsion.
    """
    ideal = ideal_closure(a, ideal_gens)
    if not ideal.is_saturated():
        raise TorsionQuotient(
            "the ideal is strictly contained in its saturation; the quotient has torsion"
        )
    r, n = ideal.rank, a.rank
    if r == 0:
        return a, IntMatrix.identity(n)
    _, v = snf(ideal.basis)
    # saturation makes all elementary divisors 1, so x -> last n-r coords of x@V
    # projects onto the quotient, with V^{-1} rows r..n-1 lifting the new basis
    vinv = inverse_unimodular(v)
    proj = IntMatrix.from_rows([row[r:] for row in v.entries], n - r)
    lifts = [vinv.entries[r + i] for i in range(n - r)]
    q = n - r
    table = [
        [proj.vec_mat(mul(a, lifts[i], lifts[j])) for j in range(q)]
        for i in range(q)
    ]
    one = proj.vec_mat(a.one)
    return validate(table, one), proj


def subring_order(a: Order, sub: SublatticeBasis) -> tuple[Order, IntMatrix]:
    """Order structure induced on a multiplicatively closed unital sublattice.

    Returns the suborder and its basis matrix (rows are coordinates in a).
    Raises ValueError when the sublattice is not closed or misses 1.
    """
    if sub.ambient_rank != a.rank:
        raise ValueError("sublattice does not live in this order")
    rows = sub.vectors()
    r = sub.rank
    one = sub.coordinates_of(a.one)
    if one is None:
        raise ValueError("sublattice does not contain 1")
    table = []
    for i in range(r):
        row = []
        for j in range(r):
            c = sub.coordinates_of(mul(a, rows[i], rows[j]))
            if c is None:
                raise ValueError("sublattice is not closed under multiplication")
            row.append(c)
        table.append(row)
    return validate(table, one), sub.basis


def order_to_json(a: Order) -> dict:
    data = {
        "rank": a.rank,
        "one": list(a.one),
        "table": [[list(cell) for cell in row] for row in a.table],
    }
    if a.labels is not None:
        data["labels"] = list(a.labels)
    return data


def order_from_json(data: dict) -> Order:
    if not isinstance(data, dict):
        raise ValueError("order document must be a JSON object")
    for key in ("rank", "one", "table"):
        if key not in data:
            raise ValueError(f"order document is missing '{key}'")
    if isinstance(data["rank"], bool) or not isinstance(data["rank"], int):
        raise ValueError("declared rank must be an integer")
    a = validate(data["table"], data["one"], data.get("labels"))
    if a.rank != data["rank"]:
        raise ValueError("declared rank does not match the data")
    return a
