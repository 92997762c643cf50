import dataclasses
import itertools
import random
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gradus import grading, orders
from gradus.config import DEFAULT_CONFIG, RunConfig
from gradus.embeddings import with_gram
from gradus.errors import (
    AmbiguousMorphism,
    InfiniteGroup,
    NoMorphism,
    NotReduced,
    PrecisionExhausted,
)
from gradus.examples import example_order, natural_group_ring_grading
from gradus.grading import (
    FinAbGroup,
    GroupHom,
    find_morphism,
    grading_from_json,
    grading_to_json,
    group_from_relations,
    homogeneous_parts,
    is_homogeneous_element,
    is_homogeneous_sublattice,
    make_grading,
    push_forward,
    universal_grading,
    verify_grading,
)
from gradus.intlinalg import SublatticeBasis
from gradus.orders import group_ring, monogenic_order, nilradical

from helpers import (
    dual_numbers_grading,
    oracle_presentation,
    oracle_product_table,
    oracle_subgroup,
    quadratic_grading,
    random_hom,
    rebased,
)


def test_finabgroup_normalization():
    g = FinAbGroup((1, 2, 4))
    assert g.invariant_factors == (2, 4)
    assert g.order() == 8
    assert len(g.elements()) == 8
    assert FinAbGroup(()).elements() == [()]
    with pytest.raises(ValueError):
        FinAbGroup((2, 3))


def test_finabgroup_arithmetic():
    g = FinAbGroup((2, 4))
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.smul(3, (1, 2)) == (1, 2)
    assert g.combination((3, -1), [(1, 2), (1, 1)]) == (0, 1)
    assert g.combination((), []) == g.identity
    assert g.generated_by([(1, 0), (0, 1)])
    assert not g.generated_by([(0, 2)])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(), (2,), (6,), (2, 4), (3, 3), (2, 2, 2)]).flatmap(
        lambda f: st.tuples(
            st.just(f),
            st.lists(st.tuples(*[st.integers(-7, 7)] * len(f)), max_size=3),
        )
    )
)
def test_generated_by_agrees_with_the_closure(case):
    factors, elems = case
    group = FinAbGroup(factors)
    assert group.generated_by(elems) == (len(oracle_subgroup(group, elems)) == group.order())


def test_grouphom_validation():
    c4 = FinAbGroup((4,))
    c2 = FinAbGroup((2,))
    f = GroupHom(c4, c2, ((1,),))
    assert f.apply((3,)) == (1,)
    with pytest.raises(ValueError):
        f.apply((3, 1))  # one coefficient per source generator
    with pytest.raises(ValueError):
        GroupHom(c2, c4, ((1,),))  # 2*(1,) != 0 in C4
    ident = GroupHom.identity(c4)
    assert ident.apply((3,)) == (3,)
    triv = GroupHom.trivial(c4, c2)
    assert triv.apply((3,)) == (0,)


def test_group_from_relations_two_generator_example():
    # products force the first generator trivial and the second of order 2
    group, images = group_from_relations(2, [(1, 0), (-1, 2)])
    assert group.invariant_factors == (2,)
    assert images == ((0,), (1,))


def test_group_from_relations_infinite():
    with pytest.raises(InfiniteGroup):
        group_from_relations(1, [])
    with pytest.raises(InfiniteGroup):
        group_from_relations(2, [(1, 1)])


def test_group_from_relations_trivial():
    group, images = group_from_relations(2, [(1, 0), (0, 1)])
    assert group.invariant_factors == ()
    assert images == ((), ())


def test_group_from_relations_reads_a_mapping_as_its_nonzero_entries():
    dense = [(1, 0, -1), (0, 4, 0), (2, 0, 0)]
    sparse = [{0: 1, 2: -1}, {1: 4, 0: 0}, {0: 2}]
    assert group_from_relations(3, sparse) == group_from_relations(3, dense)
    assert group_from_relations(3, sparse)[0].invariant_factors == (2, 4)


@pytest.mark.parametrize("relation", [{2: 1}, {-1: 1}, {0: 1, 5: 0}, (1,), (1, 0, 0)])
def test_group_from_relations_rejects_a_relation_off_the_generators(relation):
    with pytest.raises(ValueError):
        group_from_relations(2, [(1, 0), relation])


def triple_relation(s1, s2, s3):
    """e_s1 + e_s2 - e_s3, written as a test would: a Counter."""
    rel = Counter((s1, s2))
    rel[s3] -= 1
    return rel


def group_ring_triples(factors, perm, keep):
    """The triples (a, b, a + b) of the group ring of the product of cyclic
    groups of these orders, each element numbered through perm, the pairs
    a <= b kept where keep says so."""
    elems = list(itertools.product(*map(range, factors)))
    index = {e: perm[i] for i, e in enumerate(elems)}
    pairs = itertools.combinations_with_replacement(elems, 2)
    return [
        (index[a], index[b], index[tuple((x + y) % d for x, y, d in zip(a, b, factors))])
        for (a, b), kept in zip(pairs, keep)
        if kept
    ]


GROUPS = [(2,), (3,), (4,), (2, 2), (6,), (2, 4), (3, 3), (2, 2, 2), (12,), (2, 6)]
TRIPLE_SETS = st.one_of(
    st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            st.just(k), st.lists(st.tuples(*[st.integers(0, k - 1)] * 3), max_size=40)
        )
    ),
    st.sampled_from(GROUPS).flatmap(
        lambda f: st.tuples(
            st.just(f),
            st.permutations(range(prod(f))),
            st.lists(st.booleans(), min_size=prod(f) ** 2, max_size=prod(f) ** 2),
        ).map(lambda c: (prod(f), group_ring_triples(*c)))
    ),
)


def check_presentation(num_gens, relations, dense):
    """group_from_relations against `oracle_presentation`: the same
    invariant factors or InfiniteGroup on both sides, and images that send
    every relation to 0 and generate the group, so that they differ from
    the oracle's by at most an automorphism."""
    try:
        want = oracle_presentation(num_gens, dense)
    except InfiniteGroup:
        with pytest.raises(InfiniteGroup):
            group_from_relations(num_gens, relations)
        return
    group, images = group_from_relations(num_gens, relations)
    assert group == want[0]
    assert len(images) == num_gens and all(map(group.contains, images))
    assert all(group.combination(row, images) == group.identity for row in dense)
    assert group.generated_by(images)


@settings(max_examples=150, deadline=None)
@given(TRIPLE_SETS)
def test_group_from_relations_on_triples_agrees_with_the_oracle(case):
    k, triples = case
    dense = [[(t == s1) + (t == s2) - (t == s3) for t in range(k)] for s1, s2, s3 in triples]
    check_presentation(k, [triple_relation(*t) for t in triples], dense)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda k: st.tuples(
            st.just(k), st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), max_size=6)
        )
    )
)
def test_group_from_relations_on_dense_rows_agrees_with_the_oracle(case):
    k, rows = case
    check_presentation(k, rows, rows)
    check_presentation(k, [{g: x for g, x in enumerate(r) if x} for r in rows], rows)


@pytest.mark.parametrize("factors", [[12], [3, 3], [2] * 6])
def test_snf_sees_at_most_one_column_per_possible_invariant_factor(monkeypatch, factors):
    # a group of order m has at most log2(m) invariant factors; the unit
    # pivots leave snf no more columns than that, where the whole relation
    # matrix had one per component
    a = rebased(group_ring(factors)[0], str(factors))
    shapes = []
    real = grading.snf

    def recorded(m):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(grading, "snf", recorded)
    go = universal_grading(a)
    assert go.grading.group.invariant_factors == tuple(sorted(factors))
    assert len(shapes) == 1
    assert shapes[0][1] <= prod(factors).bit_length() - 1


def test_universal_grading_zsqrt2():
    a = example_order("zsqrt2")
    go = universal_grading(a)
    assert go.grading.group.invariant_factors == (2,)
    assert dict(go.grading.pieces) == {
        (0,): SublatticeBasis.from_vectors(2, [(1, 0)]),
        (1,): SublatticeBasis.from_vectors(2, [(0, 1)]),
    }
    assert verify_grading(a, go.grading).ok


def test_universal_grading_golden_is_trivial():
    go = universal_grading(example_order("golden"))
    assert go.grading.group.invariant_factors == ()
    assert [b.rank for _, b in go.grading.pieces] == [2]


@pytest.mark.parametrize("name", ["kummer6", "golden", "zeta5"])
def test_universal_grading_is_the_same_at_every_precision_and_seed(name):
    # a fresh order per config, so that each run computes its own grading
    # rather than reading the one kept on the order object
    runs = [
        universal_grading(example_order(name), RunConfig(precision=p, seed=seed))
        for p in (128, 192, 256, 512)
        for seed in range(4)
    ]
    got = [(go.grading.group.invariant_factors, go.grading.pieces, go.atoms) for go in runs]
    assert got == got[:1] * len(got)


def test_universal_grading_rejects_non_reduced():
    with pytest.raises(NotReduced):
        universal_grading(example_order("dual"))


REBASED_ORDERS = {
    "zc8": lambda: group_ring([8])[0],
    "zc3c3": lambda: group_ring([3, 3])[0],
    "kummer6": lambda: example_order("kummer6"),
    "zeta5": lambda: example_order("zeta5"),
    "parity5": lambda: example_order("parity5"),
}


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(REBASED_ORDERS))
def test_universal_grading_forms_each_product_of_splitting_vectors_once(monkeypatch, name):
    # one product matrix per splitting vector, every product read off one
    # of them, and none formed in the order: a product formed twice would
    # cost a second matrix or a call of the order's product.  These orders
    # are connected, so the check of their one primitive idempotent, 1,
    # forms no product either.  The form is built first, so the count is
    # the grading's alone: the certificate of an integer form forms
    # product matrices too
    a = rebased(REBASED_ORDERS[name](), name)
    with_gram(a, DEFAULT_CONFIG, lambda g: g)
    matrices = counting(monkeypatch, grading, "product_matrix")
    products = counting(monkeypatch, orders, "_mul_raw")
    go = universal_grading(a)
    rows = [v for c in go.decomposition.components for v in c.vectors()]
    assert sorted(x for x, _ in matrices) == sorted(rows)
    assert len(matrices) == a.rank
    assert products == []
    assert go.atoms == ((a.one, a.rank),)
    assert verify_grading(a, go.grading).ok


def unpack(z, n, width):
    """The balanced base-2^width digits of z, least significant first."""
    out = []
    for _ in range(n):
        c = z % (1 << width)
        if c >= 1 << (width - 1):
            c -= 1 << width
        out.append(c)
        z = (z - c) >> width
    assert z == 0
    return tuple(out)


@pytest.mark.parametrize("seed", [0, 1])
def test_product_table_equals_the_products_formed_in_the_order(seed):
    cases = [group_ring(group)[0] for group in ([8], [2, 2, 2], [3, 3], [2, 6])]
    cases += [rebased(a, seed) for a in cases]
    cases += [rebased(make(), seed) for make in REBASED_ORDERS.values()]
    for a in cases:
        dec = universal_grading(a).decomposition
        rows = [v for c in dec.components for v in c.vectors()]
        table, packing = grading._product_table(a, rows, dec.inverse)
        n = len(rows)
        got = [[unpack(z, n, 8 * packing.width) for z in row] for row in table]
        assert got == oracle_product_table(a, dec)
        supports = [[packing.nonzero(z) for z in row] for row in table]
        assert supports == [[[m for m, c in enumerate(p) if c] for p in row] for row in got]


# name -> (order, forms tried): the four orders that are neither totally
# real nor of CM type try the five numeric levels, 192 bits doubled up to
# 3072; those of CM type try their integer form first
NUMERIC_LEVELS = {
    "kummer6": (lambda: example_order("kummer6"), 5),
    "x3-150": (lambda: monogenic_order([-150, 0, 0, 1]), 5),
    "x4-20": (lambda: monogenic_order([-20, 0, 0, 0, 1]), 5),
    "x4-1000": (lambda: monogenic_order([-1000, 0, 0, 0, 1]), 5),
    **{name: (lambda name=name: example_order(name), 6) for name in ["zc4", "zc6", "zsqrtm1"]},
}


@pytest.mark.parametrize("name", NUMERIC_LEVELS)
def test_a_wrong_group_fails_the_certificate_at_every_precision(monkeypatch, name):
    # rotating the component images by one breaks the product relations,
    # and only the certificate on the product table can see that
    build, forms = NUMERIC_LEVELS[name]
    a = rebased(build(), name)
    presented = grading.group_from_relations
    calls = []

    def rotated(num_gens, relations):
        group, images = presented(num_gens, relations)
        calls.append(num_gens)
        return group, images[1:] + images[:1]

    monkeypatch.setattr(grading, "group_from_relations", rotated)
    with pytest.raises(PrecisionExhausted, match="certificate"):
        universal_grading(a)
    assert len(calls) == forms


def test_a_certificate_failing_on_the_exact_form_hands_over_to_the_numeric_levels(monkeypatch):
    # a totally real order: the exact trace form fails first, then each of
    # the five numeric levels, 192 bits doubled up to 3072
    a = rebased(example_order("zc2c2"), "zc2c2")
    presented, split = grading.group_from_relations, grading.universal_s_decomposition
    forms = []

    def rotated(num_gens, relations):
        group, images = presented(num_gens, relations)
        return group, images[1:] + images[:1]

    def decompose(g):
        forms.append(g.precision)
        return split(g)

    monkeypatch.setattr(grading, "group_from_relations", rotated)
    monkeypatch.setattr(grading, "universal_s_decomposition", decompose)
    with pytest.raises(PrecisionExhausted, match="certificate"):
        universal_grading(a)
    assert forms == [0, 192, 384, 768, 1536, 3072]


@pytest.mark.parametrize("name", ["zc2c2", "zc6", "kummer6", "parity5", "zxz"])
def test_graded_pieces_are_those_of_make_grading(name):
    # a lone component is its piece; the grading equals the one built from
    # the rows of the components at each element
    a = rebased(example_order(name), name)
    go = universal_grading(a)
    rows_by = {}
    for img, comp in zip(go.component_images, go.decomposition.components):
        rows_by.setdefault(img, []).extend(comp.vectors())
    assert go.grading == make_grading(a, go.grading.group, rows_by)


def test_an_infinite_presented_group_exhausts_the_precision(monkeypatch):
    calls = []

    def infinite(num_gens, relations):
        calls.append(num_gens)
        raise InfiniteGroup("presentation has a free quotient")

    monkeypatch.setattr(grading, "group_from_relations", infinite)
    for name in ("x3-150", "zsqrtm1"):
        build, forms = NUMERIC_LEVELS[name]
        calls.clear()
        with pytest.raises(PrecisionExhausted, match="infinite group"):
            universal_grading(build())
        assert len(calls) == forms


def test_a_support_that_does_not_generate_exhausts_the_precision(monkeypatch):
    # C2 with every component at 0 passes the product certificate, but its
    # support {0} does not generate C2
    calls = []

    def collapsed(num_gens, relations):
        calls.append(num_gens)
        return FinAbGroup((2,)), ((0,),) * num_gens

    monkeypatch.setattr(grading, "group_from_relations", collapsed)
    for name in ("x3-150", "zsqrtm1"):
        build, forms = NUMERIC_LEVELS[name]
        calls.clear()
        with pytest.raises(PrecisionExhausted, match="does not generate"):
            universal_grading(build())
        assert len(calls) == forms


def test_universal_grading_group_ring_is_natural():
    a, natural = natural_group_ring_grading([2, 2])
    go = universal_grading(a)
    assert go.grading.group.order() == 4
    assert go.grading.group.invariant_factors == (2, 2)
    f = find_morphism(go, natural)
    assert f.is_bijective()
    assert push_forward(go.grading, f) == natural


def test_verify_natural_grading_passes():
    a, natural = natural_group_ring_grading([3])
    report = verify_grading(a, natural)
    assert report.ok
    assert report.index == 1


def test_verify_rejects_bad_closure():
    a = example_order("zsqrt2")
    group = FinAbGroup((2,))
    bad = make_grading(a, group, {(0,): [(1, 0)], (1,): [(1, 1)]})
    report = verify_grading(a, bad)
    assert not report.ok
    assert not report.closure_ok
    assert ((1,), (1,)) in report.closure_failures
    assert report.index == 1  # the splitting itself is fine


def test_verify_trivial_grading_passes():
    for name in ["z", "zsqrt2", "golden", "zxz"]:
        a = example_order(name)
        gr = make_grading(a, FinAbGroup(()), {(): a.basis()})
        assert verify_grading(a, gr).ok


def test_verify_passes_the_universal_grading_of_the_zero_ring():
    # no pieces: the ranks add up to 0, the index of the empty sum is 1, and
    # 1 = 0 lies in the identity piece although there is none
    a = orders.validate([], [])
    report = verify_grading(a, universal_grading(a).grading)
    assert report.ok
    assert (report.identity_ok, report.ranks_additive, report.index) == (True, True, 1)


def test_verify_reports_missing_sum():
    a = example_order("zsqrt2")
    gr = make_grading(a, FinAbGroup(()), {(): [(1, 0)]})
    report = verify_grading(a, gr)
    assert not report.ok
    assert not report.ranks_additive
    assert report.index is None


def test_push_forward_identity_and_trivial():
    a, natural = natural_group_ring_grading([2, 2])
    ident = GroupHom.identity(natural.group)
    assert push_forward(natural, ident) == natural
    triv = GroupHom.trivial(natural.group, FinAbGroup(()))
    collapsed = push_forward(natural, triv)
    assert [b.rank for _, b in collapsed.pieces] == [4]


def test_push_forward_projection_fibers():
    a, natural = natural_group_ring_grading([2, 2])
    proj = GroupHom(natural.group, FinAbGroup((2,)), (((1,), (0,))))
    pushed = push_forward(natural, proj)
    assert [b.rank for _, b in pushed.pieces] == [2, 2]
    assert verify_grading(a, pushed).ok


def test_find_morphism_identity_case():
    go = universal_grading(example_order("zsqrt2"))
    f = find_morphism(go, go.grading)
    assert f == GroupHom.identity(go.grading.group)


def test_find_morphism_roundtrip_on_pushforwards():
    rng = random.Random(20260811)
    for name in ["zsqrt2", "zc2c2", "zc3"]:
        go = universal_grading(example_order(name))
        for _ in range(6):
            f = random_hom(rng, go.grading.group)
            pushed = push_forward(go.grading, f)
            assert find_morphism(go, pushed) == f


def test_find_morphism_ambiguous_on_non_grading():
    go = universal_grading(example_order("zc2"))
    a = go.grading.order
    fake = make_grading(
        a, FinAbGroup((2,)), {(0,): [(1, 1)], (1,): [(1, -1)]}
    )
    with pytest.raises(AmbiguousMorphism):
        find_morphism(go, fake)


def test_find_morphism_rejects_inconsistent_placement():
    a, natural = natural_group_ring_grading([2, 2])
    go = universal_grading(a)
    g1 = natural.piece((1, 0)).vectors()
    g2 = natural.piece((0, 1)).vectors()
    g12 = natural.piece((1, 1)).vectors()
    ones = natural.piece((0, 0)).vectors()
    shuffled = make_grading(
        a,
        FinAbGroup((2, 2)),
        {(0, 0): ones, (1, 0): list(g1) + list(g2), (0, 1): g12},
    )
    with pytest.raises(NoMorphism):
        find_morphism(go, shuffled)


def test_find_morphism_rejects_a_placement_no_homomorphism_follows():
    # Z[C3] with its pieces at 1 and 2 swapped into 2 and 1 of C6: the
    # generator's image 2 defines a homomorphism, 1 -> 2, but it sends the
    # piece at 2 to 4, so its push-forward is not the target
    go = universal_grading(example_order("zc3"))
    pieces = dict(go.grading.pieces)
    swapped = make_grading(
        go.grading.order,
        FinAbGroup((6,)),
        {(0,): pieces[(0,)].vectors(), (2,): pieces[(1,)].vectors(), (1,): pieces[(2,)].vectors()},
    )
    with pytest.raises(NoMorphism, match="does not reproduce"):
        find_morphism(go, swapped)


def test_find_morphism_rejects_images_that_break_the_source_relations():
    # Z[C2] with its pieces at 0 and 1 of C3: the generator of C2 would go
    # to 1, which 2 does not send to 0
    go = universal_grading(example_order("zc2"))
    pieces = dict(go.grading.pieces)
    tripled = make_grading(
        go.grading.order, FinAbGroup((3,)), {(0,): pieces[(0,)].vectors(), (1,): pieces[(1,)].vectors()}
    )
    with pytest.raises(NoMorphism, match="do not define a homomorphism"):
        find_morphism(go, tripled)


def test_a_homomorphism_between_groups_of_different_order_is_not_bijective():
    assert not GroupHom.trivial(FinAbGroup((2,)), FinAbGroup((4,))).is_bijective()
    assert not GroupHom(FinAbGroup((4,)), FinAbGroup((2,)), ((1,),)).is_bijective()


def test_find_morphism_rejects_a_support_that_does_not_generate():
    # Z[sqrt2] with its pieces at 0 and 2 of C4: the support generates 2C4,
    # so no generator of C4 has a preimage to read off
    go = universal_grading(example_order("zsqrt2"))
    a = go.grading.order
    pieces = dict(go.grading.pieces)
    coarse = make_grading(
        a, FinAbGroup((4,)), {(0,): pieces[(0,)].vectors(), (2,): pieces[(1,)].vectors()}
    )
    with pytest.raises(NoMorphism, match="does not generate"):
        find_morphism(dataclasses.replace(go, grading=coarse), go.grading)


def test_homogeneous_parts_of_one_and_zero():
    for factors in ([2], [2, 2], [3]):
        a, natural = natural_group_ring_grading(factors)
        parts = homogeneous_parts(natural, a.one)
        assert list(parts) == [natural.group.identity]
        assert homogeneous_parts(natural, a.zero()) == {}


def test_homogeneous_parts_zsqrt2():
    a, gr = quadratic_grading(2)
    parts = homogeneous_parts(gr, (3, 2))
    assert parts == {(0,): (3, 0), (1,): (0, 2)}
    assert not is_homogeneous_element(gr, (3, 2))
    assert is_homogeneous_element(gr, (0, 5))


def test_homogeneous_sublattice_whole_and_skew():
    a, gr = quadratic_grading(2)
    assert is_homogeneous_sublattice(gr, SublatticeBasis.full(2))
    skew = SublatticeBasis.from_vectors(2, [(1, 1)])
    assert not is_homogeneous_sublattice(gr, skew)


def test_nilradical_is_homogeneous_in_graded_dual_numbers():
    a, gr = dual_numbers_grading()
    assert verify_grading(a, gr).ok
    rad = nilradical(a)
    assert rad.vectors() == ((0, 1),)
    assert is_homogeneous_sublattice(gr, rad)


def test_universal_pieces_pairwise_orthogonal():
    from mpmath import mp

    from gradus.embeddings import compute_embeddings, gram
    from gradus.lattices import inner

    for name in ["zc2c2", "zsqrt2", "kummer6"]:
        a = example_order(name)
        go = universal_grading(a)
        g = gram(compute_embeddings(a))
        with mp.workprec(g.precision):
            pieces = go.grading.pieces
            for i, (_, p) in enumerate(pieces):
                for _, q in pieces[i + 1 :]:
                    for u in p.vectors():
                        for v in q.vectors():
                            assert abs(inner(g, u, v)) <= g.tolerance


def test_grading_json_round_trip():
    go = universal_grading(example_order("zsqrt2"))
    data = grading_to_json(go.grading, go.component_images)
    back = grading_from_json(go.grading.order, data)
    assert back == go.grading
    assert verify_grading(go.grading.order, back).ok
