"""Harder end-to-end cases for the grading pipeline: partial support,
non-cyclic groups beyond the acceptance list, and randomized orders."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gradus.config import RunConfig
from gradus.examples import example_order, natural_group_ring_grading
from gradus.grading import (
    FinAbGroup,
    find_morphism,
    push_forward,
    universal_grading,
    verify_grading,
)
from gradus.intlinalg import SublatticeBasis
from gradus.orders import group_ring, is_reduced, monogenic_order, product_order
from gradus.units import idempotents, roots_of_unity

from helpers import change_of_basis, random_hom


def test_cubic_power_basis_grades_cyclically():
    # Z[X]/(X^3 - 2): the power basis is orthogonal under the canonical
    # form, and cube relations force a cyclic group of order 3
    a = monogenic_order([-2, 0, 0, 1])
    go = universal_grading(a)
    assert go.grading.group.invariant_factors == (3,)
    assert dict(go.grading.pieces) == {
        (0,): SublatticeBasis.from_vectors(3, [(1, 0, 0)]),
        (1,): SublatticeBasis.from_vectors(3, [(0, 1, 0)]),
        (2,): SublatticeBasis.from_vectors(3, [(0, 0, 1)]),
    }


def test_product_of_quadratics_has_partial_support():
    # Z[sqrt2] x Z[sqrt2]: four lattice components but only three nonzero
    # pieces; the piece at the fourth group element is empty
    q = monogenic_order([-2, 0, 1])
    a = product_order(q, q)
    go = universal_grading(a)
    group = go.grading.group
    assert group.invariant_factors == (2, 2)
    assert len(go.grading.pieces) == 3
    ranks = sorted(b.rank for _, b in go.grading.pieces)
    assert ranks == [1, 1, 2]
    identity_piece = go.grading.piece(group.identity)
    assert identity_piece.rank == 2
    assert identity_piece.contains(a.one)
    report = verify_grading(a, go.grading)
    assert report.ok
    # morphism machinery still works with a supported proper subset
    rng = random.Random(5)
    for _ in range(5):
        f = random_hom(rng, group)
        pushed = push_forward(go.grading, f)
        assert find_morphism(go, pushed) == f


def test_gaussian_times_integers():
    a = product_order(monogenic_order([1, 0, 1]), monogenic_order([-1, 1]))
    go = universal_grading(a)
    assert go.grading.group.invariant_factors == (2,)
    pieces = dict(go.grading.pieces)
    assert pieces[(0,)].rank == 2
    assert pieces[(1,)].rank == 1
    assert pieces[(0,)].contains(a.one)


def test_larger_group_rings_grade_naturally():
    for factors in ([8], [2, 4], [3, 3]):
        a, natural = natural_group_ring_grading(factors)
        go = universal_grading(a)
        assert go.grading.group.order() == natural.group.order()
        f = find_morphism(go, natural)
        assert f.is_bijective()
        assert push_forward(go.grading, f) == natural


def test_group_ring_of_c2c2c2():
    a, natural = natural_group_ring_grading([2, 2, 2])
    go = universal_grading(a)
    assert go.grading.group.invariant_factors == (2, 2, 2)
    assert all(b.rank == 1 for _, b in go.grading.pieces)
    f = find_morphism(go, natural)
    assert f.is_bijective()


def test_cyclotomic_power_bases_are_orthogonal():
    # for conductors 8 and 16 the exponential sums over the unit group
    # vanish off the diagonal, so the power basis splits completely and the
    # order grades by a cyclic group of the basis size, even though the
    # fraction fields famously admit competing gradings
    z8 = monogenic_order([1, 0, 0, 0, 1])
    go = universal_grading(z8)
    assert go.grading.group.invariant_factors == (4,)
    assert [b.rank for _, b in go.grading.pieces] == [1, 1, 1, 1]
    assert roots_of_unity(z8).count == 8

    z16 = monogenic_order([1] + [0] * 7 + [1])
    go = universal_grading(z16)
    assert go.grading.group.invariant_factors == (8,)
    assert all(b.rank == 1 for _, b in go.grading.pieces)


def test_rank_twelve_cases():
    from gradus.orders import group_ring, quotient_order

    zc13, _ = group_ring([13])
    a, _ = quotient_order(zc13, [tuple(1 for _ in range(13))])
    go = universal_grading(a)
    assert go.grading.group.invariant_factors == ()
    assert [b.rank for _, b in go.grading.pieces] == [12]

    a, _ = group_ring([12])
    go = universal_grading(a)
    assert go.grading.group.invariant_factors == (12,)
    assert roots_of_unity(a).count == 24


def test_mixed_product_units_and_idempotents():
    # units and idempotents multiply across ring factors
    a = product_order(example_order("zc2"), example_order("z"))
    assert len(idempotents(a)) == 4
    assert roots_of_unity(a).count == 8  # mu(Z[C2]) x mu(Z) = 4 * 2


def test_universal_grading_is_presentation_independent():
    from helpers import random_unimodular

    rng = random.Random(31)
    for name in ["zsqrt2", "zc2c2", "kummer6", "zeta5"]:
        a = example_order(name)
        go = universal_grading(a)
        for _ in range(3):
            u_rows = random_unimodular(rng, a.rank, steps=8)
            b, uinv = change_of_basis(a, u_rows)
            gob = universal_grading(b)
            assert (
                gob.grading.group.invariant_factors
                == go.grading.group.invariant_factors
            )
            # transport the original pieces into the new coordinates; the
            # two gradings of b must then be related by a bijective morphism
            from gradus.grading import make_grading

            transported = make_grading(
                b,
                go.grading.group,
                {
                    elem: [uinv.vec_mat(v) for v in basis.vectors()]
                    for elem, basis in go.grading.pieces
                },
            )
            assert verify_grading(b, transported).ok
            f = find_morphism(gob, transported)
            assert f.is_bijective()
            assert push_forward(gob.grading, f) == transported


@st.composite
def reduced_orders(draw):
    """Products of one or two small monogenic orders, filtered to reduced."""
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        deg = draw(st.integers(1, 2))
        coeffs = [draw(st.integers(-3, 3)) for _ in range(deg)] + [1]
        polys.append(coeffs)
    orders = [monogenic_order(c) for c in polys]
    a = orders[0]
    for b in orders[1:]:
        a = product_order(a, b)
    assume(a.rank <= 4)
    assume(is_reduced(a))
    return a


@settings(max_examples=25, deadline=None)
@given(reduced_orders(), st.integers(0, 3))
def test_pipeline_on_random_reduced_orders(a, seed):
    config = RunConfig(seed=seed)
    go = universal_grading(a, config)
    report = verify_grading(a, go.grading)
    assert report.ok
    group = go.grading.group
    assert group.order() >= 1
    assert group.generated_by(go.grading.support())
    identity_piece = go.grading.piece(group.identity)
    assert identity_piece is not None and identity_piece.contains(a.one)
    # collapsing everything is always a valid pushforward that round-trips
    from gradus.grading import GroupHom

    triv = push_forward(go.grading, GroupHom.trivial(group, FinAbGroup(())))
    assert [b.rank for _, b in triv.pieces] == [a.rank]
    f = find_morphism(go, triv)
    assert all(img == () for img in f.images)


def test_radical_cubic_with_wide_norm_spread_grades_in_any_basis():
    # Z[X]/(X^3 - 1000): the power basis is orthogonal with norms 3, 300 and
    # 30000, so the short-vector pool is large, yet the grading is C3 on the
    # lines Z * x^i in every presentation
    from helpers import random_unimodular

    from gradus.intlinalg import IntMatrix

    a = monogenic_order([-1000, 0, 0, 1])
    lines = {SublatticeBasis.from_vectors(3, [e]) for e in a.basis()}
    rng = random.Random(3)
    presentations = [(a, IntMatrix.identity(3))]
    for _ in range(2):
        u_rows = random_unimodular(rng, 3, steps=8)
        presentations.append((change_of_basis(a, u_rows)[0], IntMatrix.from_rows(u_rows)))
    for b, u in presentations:
        gr = universal_grading(b).grading
        assert gr.group.invariant_factors == (3,)
        assert {
            SublatticeBasis.from_vectors(3, [u.vec_mat(v) for v in piece.vectors()])
            for _, piece in gr.pieces
        } == lines


@pytest.mark.parametrize(
    "a, searches",
    # Z[C8] has Gram form 8 * identity on the group basis, so every basis
    # vector has norm 8 < 2 min d = 16; Z[X]/(X^3 - 1000) has norms 3, 300
    # and 30000 on its power basis, and only the first is below 2 min d = 6
    [(group_ring([8])[0], 0), (monogenic_order([-1000, 0, 0, 1]), 2)],
    ids=["zc8", "x3-1000"],
)
def test_splitting_searches_each_basis_vector_at_or_above_the_bound_once(
    monkeypatch, a, searches
):
    # the reduced basis of a lattice that splits into rank-1 parts is, up to
    # sign, the indecomposables themselves, so each basis vector is a leaf:
    # after one search when its norm is at least 2 min d - 2 AMBIGUITY_SPAN
    # tol, d the exact pivots, and with none below
    from helpers import random_unimodular

    import gradus.lattices as lattices
    from gradus.embeddings import compute_embeddings, gram
    from gradus.lattices import AMBIGUITY_SPAN, norm
    from gradus.lattices import universal_s_decomposition

    b, _ = change_of_basis(a, random_unimodular(random.Random(8), a.rank))
    g = gram(compute_embeddings(b))
    basis, _, _, (_, delta) = g.reduction  # the LLL basis is made before counting
    calls = []
    real = lattices.search_centred_ball

    def counted(g, v, visit):
        calls.append(v)
        return real(g, v, visit)

    monkeypatch.setattr(lattices, "search_centred_ball", counted)
    dec = universal_s_decomposition(g)
    assert len(dec.components) == a.rank
    assert len(calls) == searches
    bound = 2 * min(map(Fraction, delta[1:], delta)) - 2 * AMBIGUITY_SPAN * g.tolerance
    assert sorted(calls) == sorted(v for v in basis.entries if norm(g, v) >= bound)


def test_the_leaf_bound_is_exact_on_an_integer_form(monkeypatch):
    # the reduced pivots of zeta5's integer form are 4, 15/4, 10/3 and 5/2,
    # so its basis vectors, of norm 4, are below 2 min d = 5 and leaves
    # without a search, as on its numeric form; the floors of the pivots,
    # 2 min D = 4, would search each of them
    import gradus.lattices as lattices
    from gradus.embeddings import cm_form, compute_embeddings, gram
    from gradus.lattices import universal_s_decomposition

    a = example_order("zeta5")
    forms = {"integer": cm_form(a, 192, 0), "numeric": gram(compute_embeddings(a))}
    assert forms["integer"].reduction[1] == [4, 3, 3, 2]
    calls = {}
    real = lattices._split
    for kind, g in forms.items():
        calls[kind] = []
        monkeypatch.setattr(lattices, "_split", lambda g, v, c=calls[kind]: c.append(v) or real(g, v))
        assert len(universal_s_decomposition(g).components) == 1
    assert len(calls["integer"]) == len(calls["numeric"]) == 0
