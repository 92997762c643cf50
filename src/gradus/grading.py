"""Gradings of orders by finite abelian groups.

A grading splits the order into integer sublattices indexed by group
elements, multiplicatively compatible with the group law.  This module
verifies arbitrary gradings exactly, pushes gradings forward along group
homomorphisms, searches for the unique morphism relating two gradings, and
computes the finest grading that every other grading factors through: the
lattice of a reduced order splits into orthogonal components under its
canonical form, products of components force relations between their
indices, and the quotient group of those relations grades the order; the
same products give its primitive idempotents.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from math import prod
from typing import Iterable, Mapping, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .embeddings import with_gram
from .errors import (
    AmbiguousMorphism,
    EscalationNeeded,
    InfiniteGroup,
    InfiniteIndex,
    NoMorphism,
)
from .intlinalg import (
    IntMatrix,
    SublatticeBasis,
    Vec,
    direct_sum_index,
    hnf,
    snf,
    solve_left,
    vec_add,
    vec_scale,
)
from .lattices import GramForm, SDecomposition, universal_s_decomposition
from .orders import Order, Packing, mul, product_matrix, table_bound, table_times, trace_vector

GroupElem = tuple[int, ...]


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group in invariant-factor form.

    Elements are integer tuples, coordinate i taken modulo the i-th factor.
    Factors equal to 1 are dropped on construction, so the trivial group has
    no factors and the empty tuple as its only element.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(d) for d in self.invariant_factors if int(d) != 1)
        if any(d < 1 for d in factors):
            raise ValueError("invariant factors must be positive")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", factors)

    @property
    def identity(self) -> GroupElem:
        return (0,) * len(self.invariant_factors)

    def order(self) -> int:
        return prod(self.invariant_factors)

    def elements(self) -> list[GroupElem]:
        return list(itertools.product(*(range(d) for d in self.invariant_factors)))

    def contains(self, e: Sequence[int]) -> bool:
        return len(e) == len(self.invariant_factors) and all(
            0 <= c < d for c, d in zip(e, self.invariant_factors)
        )

    def reduce(self, e: Sequence[int]) -> GroupElem:
        return tuple(c % d for c, d in zip(e, self.invariant_factors, strict=True))

    def add(self, a: Sequence[int], b: Sequence[int]) -> GroupElem:
        return self.reduce(vec_add(a, b))

    def smul(self, k: int, a: Sequence[int]) -> GroupElem:
        return self.reduce(vec_scale(k, a))

    def combination(self, coeffs: Sequence[int], elems: Sequence[Sequence[int]]) -> GroupElem:
        """sum_i coeffs[i] elems[i]: the columns summed, then reduced once."""
        terms = [vec_scale(c, e) for c, e in zip(coeffs, elems, strict=True)]
        return self.reduce(tuple(map(sum, zip(self.identity, *terms))))

    def generators(self) -> tuple[GroupElem, ...]:
        r = len(self.invariant_factors)
        return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))

    def generated_by(self, elems: Iterable[Sequence[int]]) -> bool:
        r = len(self.invariant_factors)
        span = SublatticeBasis.from_vectors(r, _relation_rows(self, elems))
        return span == SublatticeBasis.full(r)


def _relation_rows(group: FinAbGroup, elems: Iterable[Sequence[int]]) -> list[Vec]:
    """The elements as integer rows, then d_i g_i per invariant factor d_i:
    their integer span is the preimage in Z^r of the subgroup the elements
    generate."""
    rows = [tuple(e) for e in elems]
    return rows + [vec_scale(d, g) for d, g in zip(group.invariant_factors, group.generators())]


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between invariant-factor groups, stored as the images of
    the source generators."""

    source: FinAbGroup
    target: FinAbGroup
    images: tuple[GroupElem, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source.invariant_factors):
            raise ValueError("one image per source generator is required")
        for d, img in zip(self.source.invariant_factors, self.images):
            if not self.target.contains(img):
                raise ValueError("image is not a target element")
            if any(self.target.smul(d, img)):
                raise ValueError("images do not respect the source relations")

    @classmethod
    def identity(cls, group: FinAbGroup) -> "GroupHom":
        return cls(group, group, group.generators())

    @classmethod
    def trivial(cls, source: FinAbGroup, target: FinAbGroup) -> "GroupHom":
        return cls(source, target, tuple(target.identity for _ in source.invariant_factors))

    def apply(self, e: Sequence[int]) -> GroupElem:
        return self.target.combination(e, self.images)

    def is_bijective(self) -> bool:
        if self.source.order() != self.target.order():
            return False
        return len({self.apply(e) for e in self.source.elements()}) == self.source.order()


@dataclass(frozen=True)
class Grading:
    """A grading of an order: nonzero pieces keyed by group elements.

    Pieces are kept in canonical Hermite form and sorted by group element,
    so structural equality is equality of gradings.
    """

    order: Order
    group: FinAbGroup
    pieces: tuple[tuple[GroupElem, SublatticeBasis], ...]

    def piece(self, e: Sequence[int]) -> SublatticeBasis | None:
        e = tuple(e)
        for elem, basis in self.pieces:
            if elem == e:
                return basis
        return None

    def support(self) -> tuple[GroupElem, ...]:
        return tuple(e for e, _ in self.pieces)


def make_grading(
    order: Order, group: FinAbGroup, piece_rows: Mapping[GroupElem, Iterable[Sequence[int]]]
) -> Grading:
    pieces = []
    for elem, rows in piece_rows.items():
        elem = tuple(elem)
        if not group.contains(elem):
            raise ValueError(f"{elem} is not an element of the grading group")
        basis = SublatticeBasis.from_vectors(order.rank, rows)
        if basis.rank:
            pieces.append((elem, basis))
    pieces.sort(key=lambda p: p[0])
    return Grading(order, group, tuple(pieces))


@dataclass(frozen=True)
class GradedOrder:
    """Universal grading together with the lattice splitting it came from,
    the map sending each splitting component to its group element, the
    primitive idempotents e_i as the pairs (e_i, t . e_i), t . e_i rising,
    and the map sending each splitting component to the index i of the
    factor e_i a it lies in."""

    grading: Grading
    decomposition: SDecomposition
    component_images: tuple[GroupElem, ...]
    atoms: tuple[tuple[Vec, int], ...]
    component_factors: tuple[int, ...]


@dataclass(frozen=True)
class GradingReport:
    ok: bool
    identity_ok: bool
    closure_ok: bool
    closure_failures: tuple[tuple[GroupElem, GroupElem], ...]
    ranks_additive: bool
    index: int | None


def group_from_relations(
    num_gens: int, relations: Iterable[Sequence[int]]
) -> tuple[FinAbGroup, tuple[GroupElem, ...]]:
    """Finite abelian group presented on num_gens generators by additive
    relation vectors; returns the group and the images of the generators.

    Raises InfiniteGroup when the presented group is infinite.
    """
    rel_rows = sorted({tuple(int(x) for x in r) for r in relations})
    if any(len(r) != num_gens for r in rel_rows):
        raise ValueError("relation length does not match the generator count")
    if num_gens == 0:
        return FinAbGroup(()), ()
    if not rel_rows:
        raise InfiniteGroup("no relations on a positive number of generators")
    s, v = snf(IntMatrix.from_rows(rel_rows, num_gens))
    diag = [s.entries[i][i] for i in range(min(len(rel_rows), num_gens))]
    diag += [0] * (num_gens - len(diag))
    if any(d == 0 for d in diag):
        raise InfiniteGroup("presentation has a free quotient")
    keep = [i for i, d in enumerate(diag) if d >= 2]
    group = FinAbGroup(tuple(diag[i] for i in keep))
    images = tuple(
        tuple(v.entries[j][i] % diag[i] for i in keep) for j in range(num_gens)
    )
    return group, images


def verify_grading(a: Order, gr: Grading) -> GradingReport:
    """Exact verdict on the grading axioms; no floating point involved."""
    if gr.order != a:
        raise ValueError("grading refers to a different order")
    if any(basis.ambient_rank != a.rank for _, basis in gr.pieces):
        raise ValueError("piece ambient rank does not match the order")
    ranks_additive = sum(b.rank for _, b in gr.pieces) == a.rank
    try:
        index = direct_sum_index([b for _, b in gr.pieces], a.rank)
    except InfiniteIndex:
        index = None
    idp = gr.piece(gr.group.identity)
    # at rank 0, 1 = 0 lies in every piece, even when there is none
    identity_ok = a.rank == 0 or (idp is not None and idp.contains(a.one))
    failures = []
    for (e1, p1), (e2, p2) in itertools.combinations_with_replacement(gr.pieces, 2):
        target = gr.group.add(e1, e2)
        tgt = gr.piece(target)
        good = True
        for u in p1.vectors():
            for v in p2.vectors():
                w = mul(a, u, v)
                if not any(w):
                    continue
                if tgt is None or not tgt.contains(w):
                    good = False
                    break
            if not good:
                break
        if not good:
            failures.append((e1, e2))
    closure_ok = not failures
    ok = identity_ok and closure_ok and ranks_additive and index == 1
    return GradingReport(ok, identity_ok, closure_ok, tuple(failures), ranks_additive, index)


def push_forward(gr: Grading, f: GroupHom) -> Grading:
    """Grading obtained by summing pieces over the fibers of f."""
    if f.source != gr.group:
        raise ValueError("homomorphism source does not match the grading group")
    rows_by: dict[GroupElem, list[Vec]] = {}
    for elem, basis in gr.pieces:
        rows_by.setdefault(f.apply(elem), []).extend(basis.vectors())
    return make_grading(gr.order, f.target, rows_by)


def homogeneous_parts(gr: Grading, x: Sequence[int]) -> dict[GroupElem, Vec]:
    """Unique splitting of x as a sum of one element per piece; returns the
    nonzero parts keyed by group element."""
    n = gr.order.rank
    if len(x) != n:
        raise ValueError("element length does not match the order")
    tags: list[GroupElem] = []
    rows: list[Vec] = []
    for elem, basis in gr.pieces:
        for v in basis.vectors():
            tags.append(elem)
            rows.append(v)
    coeffs = solve_left(IntMatrix.from_rows(rows, n), x)
    if coeffs is None:
        raise ValueError("the pieces do not split the ambient lattice")
    parts: dict[GroupElem, Vec] = {}
    for c, elem, row in zip(coeffs, tags, rows):
        if c:
            parts[elem] = vec_add(parts.get(elem, (0,) * n), vec_scale(c, row))
    return {e: p for e, p in parts.items() if any(p)}


def is_homogeneous_element(gr: Grading, x: Sequence[int]) -> bool:
    return len(homogeneous_parts(gr, x)) <= 1


def is_homogeneous_sublattice(gr: Grading, h: SublatticeBasis) -> bool:
    """Whether h is the direct sum of its intersections with the pieces,
    i.e. every homogeneous part of every member of h lies in h."""
    if h.ambient_rank != gr.order.rank:
        raise ValueError("sublattice does not live in the graded order")
    for v in h.vectors():
        for part in homogeneous_parts(gr, v).values():
            if not h.contains(part):
                return False
    return True


def find_morphism(u: GradedOrder, c: Grading) -> GroupHom:
    """The unique homomorphism f with push_forward(u, f) == c.

    Locates, for each supported element of u, the piece of c containing it,
    extends along the group generators, and verifies the result exactly.
    Raises AmbiguousMorphism when a piece lands in no or several pieces of c
    and NoMorphism when no homomorphism reproduces c.

    The equality push_forward(u, f) == c is the whole verification: it puts
    the piece of u at elem inside the piece of c at f(elem), and that piece
    of u lies in exactly one piece of c, the one at placement[elem], so f
    agrees with the placement on the support.
    """
    gu = u.grading
    if gu.order != c.order:
        raise ValueError("gradings refer to different orders")
    gam, delta = gu.group, c.group
    placement: dict[GroupElem, GroupElem] = {}
    for elem, basis in gu.pieces:
        hits = [d for d, cb in c.pieces if cb.contains_sublattice(basis)]
        if len(hits) != 1:
            raise AmbiguousMorphism(
                f"piece at {elem} is contained in {len(hits)} pieces of the target grading"
            )
        placement[elem] = hits[0]
    r = len(gam.invariant_factors)
    support = list(placement)
    # the generators are the unit rows e_i; the support generates the group
    # exactly when the relation rows span Z^r, that is when their Hermite
    # form H = U m starts with the identity, and then row i of U solves
    # x m = e_i
    h, u = hnf(IntMatrix.from_rows(_relation_rows(gam, support), r))
    if h.entries[:r] != IntMatrix.identity(r).entries:
        raise NoMorphism("support of the grading does not generate its group")
    placed = list(placement.values())
    images = tuple(delta.combination(sol[: len(placed)], placed) for sol in u.entries[:r])
    try:
        f = GroupHom(gam, delta, images)
    except ValueError as exc:
        raise NoMorphism(f"candidate images do not define a homomorphism: {exc}") from exc
    if push_forward(gu, f) != c:
        raise NoMorphism("pushforward along the candidate does not reproduce the grading")
    return f


def universal_grading(a: Order, config: RunConfig | None = None) -> GradedOrder:
    """The grading of a reduced order that every grading factors through.

    Pipeline: embeddings -> Gram form -> finest orthogonal lattice splitting
    -> relations from products of splitting vectors -> presented group ->
    pieces summed per group element.  Each product is formed once, and the
    same table of products certifies the result exactly (see
    `_grading_from_gram`); a failed certificate triggers a precision
    escalation and retry in `with_gram`.  The answer is kept on a (see
    `graded_on`), and a kept one is read without a form.
    """
    if "grading" not in a.derived:
        return with_gram(a, config or DEFAULT_CONFIG, lambda g: graded_on(a, g))
    group, pieces, *rest = a.derived["grading"]
    return GradedOrder(Grading(a, group, pieces), *rest)


def graded_on(a: Order, g: GramForm) -> GradedOrder:
    """The universal grading of a from the splitting of g, kept once per
    order object: its components are unique (Eichler) and sorted, so it does
    not depend on the form, and every query on a reads it.  The entry holds
    no reference to a, as nothing in `a.derived` may."""
    if "grading" not in a.derived:
        go = _grading_from_gram(a, g)
        gr, *rest = (getattr(go, f.name) for f in fields(go))
        a.derived["grading"] = (gr.group, gr.pieces, *rest)
    return universal_grading(a)


def _grading_from_gram(a: Order, g) -> GradedOrder:
    """The universal grading from the splitting of g, certified exactly.

    Row m of the stacked splitting basis lies in component block[m].  Each
    product of rows m <= m' is formed once (the order is commutative), on
    the splitting, by `_product_table`: `met` records (block[m], block[m'],
    s) for every component s it meets.  The relations
    e_s1 + e_s2 - e_s3, one per recorded triple, present the group, and the
    certificate checks on the same table that images[s1] + images[s2] =
    images[s3] for every triple.  A failure raises EscalationNeeded.

    The certificate gives the verdict of `verify_grading`:
    - closure: a piece is the Z-span of the components mapped to its
      element, so by bilinearity a product of two pieces is a Z-sum of
      products of splitting vectors, each in the components it meets, and
      these all map to the sum of the two elements;
    - ranks add up and the index is 1: the pieces together have the rows of
      the stack as a basis, and the stack is unimodular (it has an inverse);
    - 1 lies in the identity piece, as in every grading: write
      1 = sum_g 1_g in homogeneous parts.  For homogeneous x of degree h,
      x = sum_g 1_g x with 1_g x of degree g + h, so comparing degrees
      gives 1_g x = 0 for g != 0.  Each 1_h is homogeneous, so
      1_g = 1_g 1 = sum_h 1_g 1_h = 0 for g != 0, and 1 = 1_0.
    The certificate and the check that the support generates the group
    guard against a wrong presentation of the group.
    """
    dec = universal_s_decomposition(g)
    comps = dec.components
    rows = _stack(comps)
    block = [s for s, c in enumerate(comps) for _ in range(c.rank)]
    met: set[tuple[int, int, int]] = set()
    products, packing = _product_table(a, rows, dec.inverse)
    for i, row in enumerate(products):
        for j, z in enumerate(row, i):
            met.update((block[i], block[j], block[m]) for m in packing.nonzero(z))
    k = len(comps)
    relations = [[(t == s1) + (t == s2) - (t == s3) for t in range(k)] for s1, s2, s3 in met]
    try:
        group, images = group_from_relations(k, relations)
    except InfiniteGroup as exc:
        raise EscalationNeeded(f"relations of the splitting present an infinite group: {exc}") from exc
    if any(group.add(images[s1], images[s2]) != images[s3] for s1, s2, s3 in met):
        raise EscalationNeeded("the presented group fails the product certificate")
    comps_by: dict[GroupElem, list[SublatticeBasis]] = {}
    for img, comp in zip(images, comps):
        comps_by.setdefault(img, []).append(comp)
    # a lone component is in Hermite form already, and is its own piece
    pieces = sorted(
        (img, cs[0] if len(cs) == 1 else SublatticeBasis.from_vectors(a.rank, _stack(cs)))
        for img, cs in comps_by.items()
    )
    grading = Grading(a, group, tuple(pieces))
    if not group.generated_by(grading.support()):
        raise EscalationNeeded("support of the assembled grading does not generate the group")
    return GradedOrder(grading, dec, images, *_atoms(a, dec, rows, block, met))


def _atoms(
    a: Order, dec: SDecomposition, rows: Sequence[Vec], block: Sequence[int], met
) -> tuple[tuple[tuple[Vec, int], ...], tuple[int, ...]]:
    """The primitive idempotents of a as the pairs (e_i, t . e_i) in
    increasing trace, from the product graph of the splitting dec: row m of
    its stacked `rows` lies in component block[m], and every triple
    (s1, s2, s3) of `met` is an edge s1 - s2.  Also the index i of the
    factor e_i a that each component lies in: its class's.

    Why.  The factors e_i a are orthogonal, as sigma(e_i e_j) = 0, so each
    component lies in one of them (Eichler: the splitting into
    indecomposables is unique), and no edge joins two factors.  Within a
    factor the graph is connected: were S, T a split with no edge between
    them, 1_S, the sum over S of the parts 1_c of 1 = sum_c 1_c, would act
    as 1 on the span of S (x = x 1 = x 1_S) and as 0 on that of T, an
    idempotent other than 0 and e_i.  So e_i is the sum of 1_c over class i.

    Check.  The e_i sum to 1; each must be a nonzero idempotent and
    annihilate the others, exactly, in O(k^2) products.  A graph that splits
    a factor's class fails this, since the factor is connected, and a
    failure raises EscalationNeeded.  One class needs neither sum nor
    product: its e_1 is 1, of trace rank a."""
    label = list(range(len(dec.components)))  # the class of each component
    for s1, s2, _ in met:
        if label[s1] != label[s2]:
            old, new = label[s2], label[s1]
            label = [new if c == old else c for c in label]
    if len(set(label)) == 1:
        return ((a.one, a.rank),), (0,) * len(label)
    sums = dict.fromkeys(label, a.zero())
    for c, row, s in zip(dec.inverse.vec_mat(a.one), rows, block):
        if c:
            sums[label[s]] = vec_add(sums[label[s]], vec_scale(c, row))
    atoms = list(sums.values())
    for i, e in enumerate(atoms):
        if not any(e) or mul(a, e, e) != e or any(any(mul(a, e, f)) for f in atoms[i + 1 :]):
            raise EscalationNeeded("the product graph gives no primitive idempotents")
    t = trace_vector(a)
    # the atoms are distinct, so the classes c never decide the order
    ranked = sorted((sum(map(operator.mul, t, e)), e, c) for c, e in sums.items())
    return tuple((e, r) for r, e, _ in ranked), tuple(map([c for *_, c in ranked].index, label))


def _stack(comps: Sequence[SublatticeBasis]) -> list[Vec]:
    """The basis rows of the sublattices, one after another."""
    return [v for c in comps for v in c.vectors()]


def _product_table(
    a: Order, rows: Sequence[Vec], inverse: IntMatrix
) -> tuple[list[list[int]], Packing]:
    """The products of the splitting vectors on the splitting, packed:
    entry [i][j] packs the coordinates of rows[i] * rows[i + j] on the
    rows (the product times `inverse`, the inverse of the stacked rows);
    returns the entries and their `orders.Packing`.

    Row i costs one `product_matrix` of rows[i], whose row l is rows[i] e_l
    on the splitting, and one row-vector product with it per entry; the
    order is commutative, so the entries j >= 0 are all of them.  A digit
    is at most n V X^2 T in absolute value (X the largest |row|_1, T the
    largest |table entry|, V the largest |inverse entry|)."""
    n = len(rows)
    bound = n * max(map(abs, itertools.chain.from_iterable(inverse.entries)), default=0)
    bound *= max((sum(map(abs, x)) for x in rows), default=0) ** 2
    bound *= table_bound(a)
    packing = Packing(n, bound)
    # columns[l][k] = e_l e_k on the splitting, packed
    columns = list(table_times(a, [packing.pack(r) for r in inverse.entries]))
    table = []
    for i, x in enumerate(rows):
        matrix = product_matrix(x, columns)
        table.append([sum(map(operator.mul, y, matrix)) for y in rows[i:]])
    return table, packing


def grading_to_json(gr: Grading, component_images: Sequence[GroupElem] | None = None) -> dict:
    data = {
        "group": {"invariant_factors": list(gr.group.invariant_factors)},
        "pieces": [
            {"element": list(elem), "basis": [list(v) for v in basis.vectors()]}
            for elem, basis in gr.pieces
        ],
        "generator_map": [list(e) for e in component_images] if component_images else [],
    }
    return data


def grading_from_json(order: Order, data: dict) -> Grading:
    group = FinAbGroup(tuple(data["group"]["invariant_factors"]))
    rows_by: dict[GroupElem, list[Sequence[int]]] = {}
    for item in data["pieces"]:
        rows_by.setdefault(tuple(item["element"]), []).extend(item["basis"])
    return make_grading(order, group, rows_by)
