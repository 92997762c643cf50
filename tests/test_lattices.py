import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import gradus.lattices as lattices
from gradus.config import DEFAULT_CONFIG
from gradus.embeddings import (
    ESCALATION_BUDGET,
    compute_embeddings,
    escalate,
    gram,
)
from gradus.errors import (
    AmbiguousSign,
    AmbiguousZero,
    EnumerationBudgetExceeded,
    EscalationNeeded,
    NoMorphism,
    PrecisionExhausted,
)
from gradus.examples import example_names, example_order
from gradus.intlinalg import SublatticeBasis, leading_minors, solve_definite, vec_neg
from gradus.lattices import (
    FP_BITS,
    GramForm,
    enumerate_up_to,
    gram_from_strings,
    inner,
    is_indecomposable,
    is_nonneg,
    is_zero,
    LLL_DELTA,
    norm,
    SDecomposition,
    _fincke_pohst,
    lll_reduce,
    search_centred_ball,
    universal_s_decomposition,
)
from gradus.orders import group_ring, is_reduced, monogenic_order

from helpers import (
    SMALL_RINGS,
    as_mpc,
    component_refinement_map,
    dot_form,
    frac_ldl,
    is_decomposition,
    oracle_ball_points,
    oracle_centred_search,
    oracle_coordinates,
    oracle_finest_orthogonal_partition,
    oracle_gram_entries,
    oracle_indecomposable,
    oracle_inner,
    oracle_lll,
    oracle_short_vectors,
    oracle_verdict,
    quad_form,
    random_unimodular,
    real,
    rebased,
    rebased_samples,
    reference_s_decomposition,
    small_ring_product,
)

STD2 = gram_from_strings([["1", "0"], ["0", "1"]])
A2 = gram_from_strings([["2", "1"], ["1", "2"]])
TWO_I = gram_from_strings([["2", "0"], ["0", "2"]])
REBASED = rebased_samples()


def str_gram(rows):
    return gram_from_strings([[str(x) for x in row] for row in rows])


@st.composite
def pd_grams(draw, max_dim=3, lo=-2, hi=2):
    n = draw(st.integers(1, max_dim))
    rows = []
    for i in range(n):
        row = [draw(st.integers(lo, hi)) for _ in range(i)]
        row.append(draw(st.integers(1, hi + 1)))
        row.extend([0] * (n - i - 1))
        rows.append(row)
    g = [
        [sum(rows[i][k] * rows[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return g


def test_is_decomposition_examples():
    assert is_decomposition(STD2, (1, 1), (1, 0), (0, 1))
    assert not is_decomposition(STD2, (1, 0), (2, 0), (-1, 0))
    assert is_decomposition(STD2, (1, 0), (1, 0), (0, 0))
    assert not is_decomposition(STD2, (1, 1), (1, 0), (1, 0))


def test_is_indecomposable_examples():
    assert is_indecomposable(STD2, (1, 0))
    assert not is_indecomposable(STD2, (1, 1))
    # both unit vectors decompose it with inner product 0
    assert not is_indecomposable(A2, (1, 1))
    with pytest.raises(ValueError):
        is_indecomposable(STD2, (0, 0))


def short_vectors(g, bound, **kw):
    """The pool of norm <= bound (an integer) as a lexicographic list."""
    return sorted(enumerate_up_to(g, bound << g.precision, **kw))


def test_enumerate_up_to_std2():
    assert short_vectors(STD2, 1) == [(0, 1), (1, 0)]
    assert short_vectors(STD2, 2) == [(0, 1), (1, -1), (1, 0), (1, 1)]


def test_enumerate_up_to_two_i():
    assert short_vectors(TWO_I, 2) == [(0, 1), (1, 0)]


def test_enumeration_cap():
    with pytest.raises(EnumerationBudgetExceeded):
        short_vectors(STD2, 100, cap=3)


@settings(max_examples=60, deadline=None)
@given(pd_grams(), st.integers(1, 8))
def test_enumeration_matches_box_oracle(gm, bound):
    g = str_gram(gm)
    got = short_vectors(g, bound, cap=10**5)
    want = oracle_short_vectors(gm, bound)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(pd_grams(max_dim=4))
@example([[4, 0, 0, 2], [0, 4, 0, 2], [0, 0, 9, 3], [2, 2, 3, 7]])
def test_lll_basis_spans_and_does_not_grow(gm):
    # a swap never raises the largest Gram-Schmidt norm d_i, and those of
    # the standard basis are at most its diagonal.  The basis norms can
    # grow: the example reduces to a basis with a vector of norm 10 > 9.
    g = str_gram(gm)
    red, D, M, minors = lll_reduce(g)
    assert (red, D, M, minors) == oracle_lll(g)
    n = len(gm)
    assert SublatticeBasis.from_vectors(n, red) == SublatticeBasis.full(n)
    assert max(D) <= max(g.entries[i][i] for i in range(n))


def check_lll_ldl_data(g):
    # the basis and its (D, M) are those of the exact Fraction LLL
    assert lll_reduce(g) == oracle_lll(g)


@settings(max_examples=40, deadline=None)
@given(pd_grams(max_dim=4))
def test_lll_ldl_data_matches_the_returned_basis(gm):
    check_lll_ldl_data(str_gram(gm))


@pytest.mark.parametrize("name", list(REBASED))
def test_lll_ldl_data_matches_the_returned_basis_on_rebased_orders(name):
    check_lll_ldl_data(gram(compute_embeddings(REBASED[name][2])))


LLL_ORDERS = {
    **{name: example_order(name) for name in example_names() if is_reduced(example_order(name))},
    **{
        name: rebased(group_ring(factors)[0], name)
        for name, factors in {"ZC8": [8], "C2xC4": [2, 4], "ZC12": [12]}.items()
    },
}


@pytest.mark.parametrize("name", list(LLL_ORDERS))
def test_lll_matches_the_oracle(name):
    # the O(n) integral updates make the same choices as an exact LDL after
    # every step, ties included, and (D, M) are the data of the final basis
    check_lll_ldl_data(gram(compute_embeddings(LLL_ORDERS[name])))


def test_universal_s_decomposition_identity3():
    g = str_gram([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    dec = universal_s_decomposition(g)
    assert len(dec.components) == 3
    # components are ordered by their lexicographically smallest basis vector
    assert [c.vectors() for c in dec.components] == [
        ((0, 0, 1),),
        ((0, 1, 0),),
        ((1, 0, 0),),
    ]


def test_universal_s_decomposition_a2_is_connected():
    dec = universal_s_decomposition(A2)
    assert len(dec.components) == 1
    assert dec.components[0] == SublatticeBasis.full(2)


def test_universal_s_decomposition_two_i():
    dec = universal_s_decomposition(TWO_I)
    assert [c.vectors() for c in dec.components] == [((0, 1),), ((1, 0),)]


def test_decomposition_inverse_reads_splitting_coordinates():
    dec = universal_s_decomposition(TWO_I)
    # the stacked rows are (0, 1) and (1, 0)
    assert dec.inverse.vec_mat((3, 5)) == (5, 3)
    index_two = SDecomposition(
        2,
        (SublatticeBasis.from_vectors(2, [(2, 0)]), SublatticeBasis.from_vectors(2, [(0, 1)])),
    )
    with pytest.raises(ValueError):
        index_two.inverse


def test_decomposition_invariants_on_fixtures():
    for name in ["zc2", "zc3", "zsqrt2", "golden", "zeta5", "kummer6"]:
        a = example_order(name)
        g = gram(compute_embeddings(a))
        dec = universal_s_decomposition(g)
        assert all(c.rank > 0 for c in dec.components)
        assert sum(c.rank for c in dec.components) == a.rank
        with mp.workprec(g.precision):
            for i, c in enumerate(dec.components):
                for d in dec.components[i + 1 :]:
                    for u in c.vectors():
                        for v in d.vectors():
                            from gradus.lattices import inner

                            assert abs(inner(g, u, v)) <= g.tolerance


def test_refinement_map_to_coarser_splitting():
    g = str_gram([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    dec = universal_s_decomposition(g)
    coarser = [
        SublatticeBasis.from_vectors(3, [(1, 0, 0), (0, 1, 0)]),
        SublatticeBasis.from_vectors(3, [(0, 0, 1)]),
    ]
    assert component_refinement_map(dec, coarser) == [1, 0, 0]
    assert component_refinement_map(dec, list(dec.components)) == [0, 1, 2]
    with pytest.raises(NoMorphism):
        component_refinement_map(
            dec, [SublatticeBasis.from_vectors(3, [(1, 0, 0)]), coarser[0]]
        )


def test_ambiguous_entry_triggers_escalation_request():
    # off-diagonal magnitude sits inside the ambiguous zero band
    tiny = "2.3283064365386962890625e-10"  # 2^-32, band at 128 bits is [2^-42, 2^-26]
    g = gram_from_strings([["1", tiny], [tiny, "1"]], precision=128)
    with pytest.raises(EscalationNeeded):
        universal_s_decomposition(g)


def test_splitting_recurses_into_the_parts_of_a_basis_vector(monkeypatch):
    # with swaps turned off (delta = 0), LLL keeps e1, of norm 2, in the basis
    # of [[2, 1, 0], [1, 1, 0], [0, 0, 1]]; the search kernel is complete on
    # any basis.  e1 splits into (1, -1, 0) + (0, 1, 0), and (0, 1, 0), a
    # basis vector met again, is searched only once: 4 searches in all
    monkeypatch.setattr(lattices, "LLL_DELTA", (0, 1))
    gm = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
    g = str_gram(gm)
    assert (1, 0, 0) in g.reduction[0].entries
    searched = []
    real = lattices.search_centred_ball

    def counted(g, v, visit):
        searched.append(v)
        return real(g, v, visit)

    monkeypatch.setattr(lattices, "search_centred_ball", counted)
    dec = universal_s_decomposition(g)
    assert sorted(searched) == [(0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, 0)]
    want = [SublatticeBasis.from_vectors(3, b) for b in oracle_finest_orthogonal_partition(gm)]
    assert len(dec.components) == len(want) == 3
    assert set(dec.components) == set(want)


def decompose_through_the_loop(gm):
    """The splitting of an integral form through the precision loop, read
    again at each level, as `gradus decompose` runs it."""
    rows = [[str(x) for x in row] for row in gm]
    form = functools.partial(gram_from_strings, rows)
    return escalate(DEFAULT_CONFIG.precision, form, universal_s_decomposition)


def test_a_part_no_shorter_than_its_whole_exhausts_the_precision(monkeypatch):
    # a faulty splitting that returns -v, so the other part is 2v; e2, of
    # norm 3 >= 2 min D = 2, is the vector searched at each level
    calls = []

    def faulty(g, v):
        calls.append(v)
        return vec_neg(v)

    monkeypatch.setattr(lattices, "_split", faulty)
    with pytest.raises(PrecisionExhausted, match="no shorter"):
        decompose_through_the_loop([[1, 0], [0, 3]])
    assert calls == [(0, 1)] * (ESCALATION_BUDGET + 1)


@pytest.mark.parametrize(
    "gm, searched, ranks",
    # diag(1, 3): min D = 1, so e1 (norm 1 < 2) is a leaf unsearched and e2
    # (norm 3) is searched; A2: min D = 3/2, and both basis vectors, of
    # norm 2 < 3, are leaves unsearched
    [([[1, 0], [0, 3]], [(0, 1)], [1, 1]), ([[2, 1], [1, 2]], [], [2])],
    ids=["diag(1,3)", "a2"],
)
def test_basis_vectors_below_twice_the_least_pivot_are_not_searched(
    monkeypatch, gm, searched, ranks
):
    calls = []
    real = lattices.search_centred_ball

    def counted(g, v, visit):
        calls.append(v)
        return real(g, v, visit)

    monkeypatch.setattr(lattices, "search_centred_ball", counted)
    dec = decompose_through_the_loop(gm)
    assert calls == searched
    assert [c.rank for c in dec.components] == ranks


def test_a_splitting_without_an_integer_inverse_exhausts_the_precision(monkeypatch):
    calls = []

    def singular(m):
        calls.append(m)
        raise ValueError("matrix is not unimodular")

    monkeypatch.setattr(lattices, "inverse_unimodular", singular)
    with pytest.raises(PrecisionExhausted, match="failed to split the lattice exactly"):
        decompose_through_the_loop([[2, 0], [0, 3]])
    assert len(calls) == ESCALATION_BUDGET + 1


def test_norms_in_band_are_counted_inside_bound():
    # bound + tolerance admits norms that are exactly on the bound
    got = short_vectors(TWO_I, 4)
    assert (1, 1) in got and (1, -1) in got
    # and norms up to one tolerance above a grid limit: norm 5, tolerance 2
    g = GramForm(1, ((5,),), 4, 2)
    assert enumerate_up_to(g, 3) == [(1,)]
    assert enumerate_up_to(g, 2) == []


def test_no_finer_coordinate_splitting_at_desk_scale():
    # brute force over all partitions of the standard basis: every
    # orthogonal one must be a coarsening of the computed decomposition
    from helpers import set_partitions

    for name in ["zxz", "zc2", "zsqrt2", "golden", "zeta5", "parity5", "zc6", "kummer6"]:
        a = example_order(name)
        g = gram(compute_embeddings(a))
        dec = universal_s_decomposition(g)
        n = a.rank
        with mp.workprec(g.precision):
            for part in set_partitions(list(range(n))):
                ortho = all(
                    abs(g.entries[i][j]) <= g.tolerance
                    for b1, b2 in itertools.combinations(part, 2)
                    for i in b1
                    for j in b2
                )
                if not ortho:
                    continue
                blocks = [
                    SublatticeBasis.from_vectors(n, [tuple(int(c == i) for c in range(n)) for i in b])
                    for b in part
                ]
                # must succeed: the computed splitting refines every valid one
                assert len(component_refinement_map(dec, blocks)) == len(dec.components)


def test_component_count_bounds():
    from gradus.units import idempotents

    for name in ["z", "zxz", "zc2", "zc3", "zc2c2", "zsqrt2", "golden", "zeta5"]:
        a = example_order(name)
        g = gram(compute_embeddings(a))
        dec = universal_s_decomposition(g)
        k = len(dec.components)
        assert k <= a.rank
        # number of idempotents is 2 to the number of factors of the spectrum
        spec_components = len(idempotents(a)).bit_length() - 1
        assert k >= spec_components


def block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


A2_ROWS = [[2, 1], [1, 2]]
A3_ROWS = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
# orthogonal sums whose indecomposable blocks have rank above 1; each has at
# most 7 indecomposable +/- pairs, which the partition oracle can afford
BLOCK_SUMS = {
    "a2+a2+z": block_sum(A2_ROWS, A2_ROWS, [[1]]),
    "a3+z": block_sum(A3_ROWS, [[1]]),
    "[[2,1],[1,3]]+z": block_sum([[2, 1], [1, 3]], [[1]]),
}


def rebased_block_sums(per_sum=3, max_diagonal=12):
    """Each block sum in `per_sum` seeded random bases; bases with a larger
    diagonal entry are skipped, because the oracles scan a box up to it."""
    out = []
    for name, gm in BLOCK_SUMS.items():
        rng = random.Random(name)
        n = len(gm)
        kept = 0
        while kept < per_sum:
            u = random_unimodular(rng, n, steps=6)
            h = [
                [sum(u[i][a] * gm[a][b] * u[j][b] for a in range(n) for b in range(n)) for j in range(n)]
                for i in range(n)
            ]
            if max(h[i][i] for i in range(n)) <= max_diagonal:
                out.append(h)
                kept += 1
    return out


@pytest.mark.parametrize("gm", rebased_block_sums())
def test_splitting_of_rebased_block_sums_matches_oracle(gm):
    n = len(gm)
    dec = universal_s_decomposition(str_gram(gm))
    want = [SublatticeBasis.from_vectors(n, b) for b in oracle_finest_orthogonal_partition(gm)]
    assert len(dec.components) == len(want)
    assert set(dec.components) == set(want)


GROUP_RINGS = ([2], [3], [4], [2, 2], [5], [6], [8], [2, 4], [3, 3])


def order_form(a, seed):
    return gram(compute_embeddings(rebased(a, seed)))


def rebased_form(gm, seed):
    n = len(gm)
    u = random_unimodular(random.Random(seed), n, steps=6)
    ug = [[sum(u[i][a] * gm[a][b] for a in range(n)) for b in range(n)] for i in range(n)]
    return str_gram([[sum(x * y for x, y in zip(r, w)) for w in u] for r in ug])


seeds = st.integers(0, 2**16)
splitting_forms = st.one_of(
    # rebased group rings, x^n - c and block-diagonal forms
    st.builds(order_form, st.sampled_from(GROUP_RINGS).map(lambda f: group_ring(f)[0]), seeds),
    st.builds(
        order_form,
        st.builds(
            lambda n, c: monogenic_order([c] + [0] * (n - 1) + [1]),
            st.integers(2, 4),
            st.integers(-(10**6), 10**6).filter(bool),
        ),
        seeds,
    ),
    st.builds(
        rebased_form,
        st.lists(pd_grams(max_dim=2), min_size=1, max_size=3).map(lambda bs: block_sum(*bs)),
        seeds,
    ),
)


@settings(max_examples=40, deadline=None)
@given(splitting_forms)
def test_splitting_matches_the_search_on_every_vector(g):
    # skipping the search below 2 min D - 2 AMBIGUITY_SPAN tol changes no
    # component; the vectors still searched are among the reference's
    want, all_searched = reference_s_decomposition(g)
    calls = []
    real = lattices.search_centred_ball

    def counted(g, v, visit):
        calls.append(v)
        return real(g, v, visit)

    lattices.search_centred_ball = counted
    try:
        dec = universal_s_decomposition(g)
    finally:
        lattices.search_centred_ball = real
    assert dec.components == want
    assert set(calls) <= set(all_searched)


def check_pool_less_indecomposability(gm):
    g = str_gram(gm)
    pool = oracle_short_vectors(gm, max(gm[i][i] for i in range(len(gm))))
    for v in pool:
        assert is_indecomposable(g, v) == oracle_indecomposable(gm, v, pool), v


@pytest.mark.parametrize("gm", rebased_block_sums())
def test_pool_less_indecomposability_matches_oracle(gm):
    check_pool_less_indecomposability(gm)


@settings(max_examples=40, deadline=None)
@given(pd_grams())
def test_pool_less_indecomposability_matches_oracle_on_random_forms(gm):
    check_pool_less_indecomposability(gm)


def test_pool_less_test_keeps_the_ambiguous_sign_signal():
    # <e1, e2> = -2^-32 is inside the ambiguous sign band at 128 bits, so
    # whether e1 + e2 splits into e1 and e2 cannot be decided; e1 lies just
    # outside the ball |x - v/2|^2 <= |v|^2/4 and only the widened radius
    # reaches it
    tiny = "-2.3283064365386962890625e-10"
    g = gram_from_strings([["1", tiny], [tiny, "1"]], precision=128)
    with pytest.raises(AmbiguousSign):
        is_indecomposable(g, (1, 1))
    with pytest.raises(EscalationNeeded):
        universal_s_decomposition(g)


# ------------------------------------------ the grid form against mpf sums

PRECISIONS = st.sampled_from([128, 192, 256])

# small rebased orders, as in test_embeddings
grid_orders = st.one_of(
    st.lists(st.sampled_from(sorted(SMALL_RINGS)), min_size=1, max_size=3)
    .filter(lambda names: sum(2 - (n == "z") for n in names) <= 5)
    .map(small_ring_product),
    st.integers(2, 6).map(lambda m: group_ring([m])[0]),
)

# values placed at these multiples of the tolerance: zero, inside the
# ambiguous band three times, and nonzero twice
TOLERANCE_MULTIPLES = [(1, 2), (2, 1), (1 << 8, 1), (1 << 15, 1), (1 << 17, 1), (1 << 20, 1)]


def verdict(test, g, value):
    try:
        return test(g, value)
    except AmbiguousZero as exc:
        return type(exc)


def check_against_mpf_sums(g, values, u, v):
    """The integer inner product of g agrees with the mpf sum over the real
    entries `values` within the rounding of the grid, and is_zero and
    is_nonneg give the verdicts of the mpf form on it and on values inside
    and around the ambiguous band."""
    p = g.precision
    got = inner(g, u, v)
    assert norm(g, u) == inner(g, u, u)
    with mp.workprec(4 * p):
        slack = mp.ldexp(sum(map(abs, u)) * sum(map(abs, v)) + 1, -p)
        assert abs(mp.ldexp(got, -p) - oracle_inner(values, u, v)) <= slack
    with mp.workprec(p):
        cases = [(got, oracle_inner(values, u, v))]
    for m, d in TOLERANCE_MULTIPLES:
        for sign in (1, -1):
            k = sign * g.tolerance * m // d
            cases.append((k, real(g, k)))
    for value, at_p in cases:
        assert verdict(is_zero, g, value) == oracle_verdict(values, p, at_p)
        assert verdict(is_nonneg, g, value) == oracle_verdict(values, p, at_p, sign=True)


def vectors(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n)


@settings(max_examples=40, deadline=None)
@given(pd_grams(max_dim=4), PRECISIONS, st.data())
def test_grid_form_matches_mpf_sums_on_integral_forms(gm, precision, data):
    g = gram_from_strings([[str(x) for x in row] for row in gm], precision)
    with mp.workprec(precision):
        values = [[mp.mpf(x) for x in row] for row in gm]
    n = len(gm)
    check_against_mpf_sums(g, values, data.draw(vectors(n)), data.draw(vectors(n)))


@settings(max_examples=30, deadline=None)
@given(grid_orders, st.integers(0, 2**32), PRECISIONS, st.data())
def test_grid_form_matches_mpf_sums_on_orders(a, basis_seed, precision, data):
    e = compute_embeddings(rebased(a, basis_seed), precision)
    g = gram(e)
    values = oracle_gram_entries(as_mpc(e), 4 * precision)
    check_against_mpf_sums(g, values, data.draw(vectors(e.n)), data.draw(vectors(e.n)))


# ------------------------------------------ the integer Fincke-Pohst kernel

# scales of an exact form on the grid 2**-64: 2**1200 is beyond double range
SCALES = st.sampled_from([1, 1 << 64, 1 << 1200])


def exact_form(gm, scale=1, precision=64):
    """The integer matrix gm times scale as a grid form with tolerance 0."""
    n = len(gm)
    return GramForm(n, tuple(tuple(x * scale for x in row) for row in gm), precision, 0)


def check_ball_search(gm, scale, v):
    seen = set()
    search_centred_ball(exact_form(gm, scale), v, lambda x: seen.add(tuple(x)))
    want = oracle_ball_points(gm, v)
    assert want <= seen
    return want


@settings(max_examples=50, deadline=None)
@given(pd_grams(max_dim=4), SCALES, st.data())
def test_centred_search_visits_every_ball_point(gm, scale, data):
    # 0 and v lie exactly on the sphere, and tolerance 0 leaves no margin;
    # v stays short because the oracle scans boxes around v/2
    v = data.draw(st.tuples(*[st.integers(-2, 2)] * len(gm)))
    check_ball_search(gm, scale, v)


def check_ldl_coordinates(g, v, w):
    # the exact LDL that LLL leaves solves for the coordinates of w in its
    # basis, as the inverse of the basis does, and the search centred by
    # that LDL visits the points of the search centred by that inverse
    basis, _, _, ldl = g.reduction
    target = [inner(g, b, w) for b in basis.entries]  # B F w^T
    assert solve_definite(ldl, target) == (oracle_coordinates(basis, w), 1)
    seen = []
    search_centred_ball(g, v, seen.append)
    assert seen == oracle_centred_search(g, v)


@settings(max_examples=50, deadline=None)
@given(pd_grams(max_dim=4), SCALES, st.data())
def test_the_ldl_of_lll_gives_the_coordinates_of_the_inverse_basis(gm, scale, data):
    v = data.draw(st.tuples(*[st.integers(-2, 2)] * len(gm)))
    w = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * len(gm)))
    check_ldl_coordinates(exact_form(gm, scale), v, w)


@functools.lru_cache(maxsize=None)
def rebased_form(name):
    return gram(compute_embeddings(REBASED[name][2]))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(REBASED)), st.data())
def test_the_ldl_of_lll_gives_the_coordinates_of_the_inverse_basis_on_rebased_orders(name, data):
    # v is short: a sum of LLL basis vectors, as the splitting searches
    g = rebased_form(name)
    v = g.reduction[0].vec_mat(data.draw(st.tuples(*[st.integers(-1, 1)] * g.n)))
    w = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * g.n))
    check_ldl_coordinates(g, v, w)


@pytest.mark.parametrize("scale", [1, 1 << 64, 1 << 1200], ids=["1", "2^64", "2^1200"])
def test_centred_search_visits_every_point_of_a_thin_ball(scale):
    # a draw of the test above: the coordinate box around this ball holds
    # about 786,000 points and the ball 1,976
    gm = [[4, 4, 4, -2], [4, 5, 6, -1], [4, 6, 9, -2], [-2, -1, -2, 7]]
    assert len(check_ball_search(gm, scale, (-2, -2, -1, -1))) == 1976


@pytest.mark.parametrize("bits", [1, 2])
@settings(max_examples=40, deadline=None)
@given(pd_grams(max_dim=4), st.integers(1, 8), SCALES, st.data())
def test_searches_stay_complete_on_a_coarse_fixed_point_grid(bits, gm, bound, scale, data):
    # on the grid 2^-1 or 2^-2 the widening delta is most of each radius, so
    # many scanned x_i cost more than the remaining budget and are skipped;
    # every point of the exact ball must still be visited
    v = data.draw(st.tuples(*[st.integers(-2, 2)] * len(gm)))
    # each call builds its own form, so its reduction is made on this grid
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattices, "FP_BITS", bits)
        got = short_vectors(str_gram(gm), bound, cap=10**5)
        assert got == oracle_short_vectors(gm, bound)
        check_ball_search(gm, scale, v)


@pytest.mark.parametrize("scale", [1, 1 << 64, 1 << 1200])
def test_centred_search_reaches_every_point_on_the_sphere(scale):
    # Z^3 in the basis (1,1,0), (0,1,1), (0,0,1); v = (1,0,1) is (1,1,1),
    # and each of its 8 subsets x has <x, v - x> = 0 exactly
    assert len(check_ball_search([[2, 1, 0], [1, 2, 1], [0, 1, 1]], scale, (1, 0, 1))) == 8


def test_grid_is_fine_enough_for_pivots_of_very_different_size():
    # the ball around e_1/2 holds 0 and e_1 only; on a grid 2**-64 for every
    # pivot the budget that the huge pivot 3 * 2**200 leaves over from its
    # rounding margin is near 2**138, which the pivot 3 scans over more than
    # 2**69 values of the first coordinate
    g = exact_form([[3, 0, 0], [0, 3 << 200, 0], [0, 0, 3 << 400]])
    visits = []

    def visit(x):
        visits.append(x)
        assert len(visits) < 10**4, "the search does not stop"
        return False

    search_centred_ball(g, (0, 1, 0), visit)
    assert {(0, 0, 0), (0, 1, 0)} <= set(visits) and len(visits) <= 4
    assert is_indecomposable(g, (0, 1, 0))


@settings(max_examples=40, deadline=None)
@given(pd_grams(max_dim=4), SCALES)
def test_kernel_data_is_the_exact_ldl_on_the_grid(gm, scale):
    g = exact_form(gm, scale)
    basis, D, M, _ = g.reduction
    rows = basis.entries
    h = [[dot_form(g.entries, u, w) for w in rows] for u in rows]
    d, mu = frac_ldl(h)
    exact_D = [x.numerator // x.denominator for x in d]
    K = FP_BITS + max(exact_D).bit_length() - min(exact_D).bit_length()
    for i in range(g.n):
        assert D[i] == exact_D[i]
        for j in range(i + 1, g.n):
            assert abs(M[i][j - i - 1] - mu[j][i] * 2**K) <= Fraction(1, 2)


@pytest.mark.parametrize(
    "h", [[[1, 2], [2, 1]], [[1, 1], [1, 1]], [[-1]], [[2, 0, 0], [0, 1, 1], [0, 1, 1]]]
)
def test_kernel_data_rejects_a_form_that_is_not_positive_definite(h):
    with pytest.raises(AmbiguousZero, match="form is not positive definite"):
        lll_reduce(exact_form(h))


def e8_gram():
    """The Gram matrix of E8 on its simple roots (its Cartan matrix): the
    chain e0 - ... - e6 with e7 attached to e4."""
    gm = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]:
        gm[i][j] = gm[j][i] = -1
    return gm


def test_kernel_data_rejects_a_pivot_below_one_grid_unit():
    # E8 is even and unimodular, so every basis has d_0 >= 2 and prod d_i = 1:
    # its standard pivots are positive, but some pivot of the reduced basis
    # is below the unit of the grid
    assert leading_minors(e8_gram()) is not None
    with pytest.raises(AmbiguousZero, match="a reduced pivot is less than one grid unit"):
        lll_reduce(exact_form(e8_gram()))


def test_a_reduced_pivot_below_one_grid_unit_hands_the_exact_form_to_the_numeric_levels():
    # the exact E8 form fails only on its reduced pivots, and the first
    # numeric level splits E8, which is indecomposable, into one component
    doc = [[str(x) for x in row] for row in e8_gram()]
    levels = []

    def form(p):
        levels.append(p)
        return gram_from_strings(doc, p)

    exact = exact_form(e8_gram(), precision=0)
    dec = escalate(64, form, universal_s_decomposition, lambda p: exact)
    assert (len(dec.components), levels) == (1, [64])


@settings(max_examples=40, deadline=None)
@given(pd_grams(max_dim=4), SCALES)
def test_lll_basis_is_unimodular_size_reduced_and_lovasz(gm, scale):
    # checked in Fractions on B gm B^T, whose mu and Lovasz test do not
    # depend on the scale of the grid; det(B gm B^T) = det(gm) makes the
    # integer matrix B unimodular
    rows, _, _, _ = lll_reduce(exact_form(gm, scale))
    d, mu = frac_ldl([[dot_form(gm, u, v) for v in rows] for u in rows])
    assert math.prod(d) == math.prod(frac_ldl(gm)[0])
    dlt = Fraction(*LLL_DELTA)
    for k in range(len(gm)):
        assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
        if k:
            assert d[k] >= (dlt - mu[k][k - 1] ** 2) * d[k - 1]


@settings(max_examples=40, deadline=None)
@given(pd_grams(), st.integers(0, 8))
def test_exact_enumeration_matches_the_box_oracle(gm, bound):
    # the real form is gm itself, on the grid 2**-1200, with tolerance 0:
    # the pool is exactly the set of v with v gm v^T <= bound, and the cap
    # is exceeded exactly when that set is larger
    g = exact_form(gm, 1 << 1200, precision=1200)
    want = oracle_short_vectors(gm, bound)
    assert short_vectors(g, bound, cap=len(want)) == want
    if want:
        with pytest.raises(EnumerationBudgetExceeded):
            short_vectors(g, bound, cap=len(want) - 1)


@settings(max_examples=60, deadline=None)
@given(pd_grams(max_dim=4), SCALES, st.integers(0, 8))
def test_origin_search_visits_one_point_of_each_pair(gm, scale, bound):
    # tolerance 0 and an exact form: the pairs on the sphere must be reached
    g = exact_form(gm, scale)
    basis, D, M, _ = g.reduction
    visits = []
    _fincke_pohst(D, M, (0,) * len(gm), bound * scale, lambda x: visits.append(tuple(x)))
    seen = {basis.vec_mat(x) for x in visits}
    assert len(seen) == len(visits)
    assert (0,) * len(gm) in seen
    assert not any(tuple(-c for c in v) in seen for v in seen if any(v))
    for w in oracle_short_vectors(gm, bound):
        assert w in seen or tuple(-c for c in w) in seen


@settings(max_examples=60, deadline=None)
@given(pd_grams(max_dim=4), SCALES, st.integers(0, 8))
def test_pool_comes_in_exact_norm_then_lexicographic_order(gm, scale, bound):
    g = exact_form(gm, scale)
    want = sorted(oracle_short_vectors(gm, bound), key=lambda v: (quad_form(gm, v), v))
    assert enumerate_up_to(g, bound * scale) == want


def test_searches_match_the_oracles():
    gm = [[2, 1, 0], [1, 2, 1], [0, 1, 3]]
    g = str_gram(gm)
    assert short_vectors(g, 3) == oracle_short_vectors(gm, 3)
    pool = oracle_short_vectors(gm, 4)
    for v in pool:
        assert is_indecomposable(g, v) == oracle_indecomposable(gm, v, pool)
