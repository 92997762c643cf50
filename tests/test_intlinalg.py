import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gradus.errors import InfiniteIndex
from gradus.intlinalg import (
    IntMatrix,
    SublatticeBasis,
    direct_sum_index,
    hnf,
    inverse_unimodular,
    kernel_saturated,
    leading_minors,
    snf,
    solve_left,
)

from helpers import (
    dense_snf,
    frac_ldl,
    matmul,
    oracle_det,
    oracle_hnf,
    oracle_invariant_factors,
    random_unimodular,
)


@st.composite
def matrices(draw, max_dim=5, lo=-9, hi=9):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(st.integers(lo, hi), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return IntMatrix.from_rows(rows)


def is_unimodular(u):
    h, _ = hnf(u)
    return h == IntMatrix.identity(u.rows)


def test_hnf_identity():
    m = IntMatrix.identity(2)
    h, u = hnf(m)
    assert h == m
    assert u == m


def test_hnf_zero():
    m = IntMatrix.zeros(2, 2)
    h, u = hnf(m)
    assert h == m
    assert u == IntMatrix.identity(2)


def test_hnf_frozen_small_case():
    m = IntMatrix.from_rows([[2, 4], [1, 3]])
    h, u = hnf(m)
    # oracle: pairwise-gcd row reduction gives the canonical form directly
    assert list(h.entries) == oracle_hnf([[2, 4], [1, 3]], 2)
    assert h.entries == ((1, 1), (0, 2))
    assert h.entries[0][0] * h.entries[1][1] == 2
    assert matmul(u, m) == h


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_hnf_reconstructs_and_matches_oracle(m):
    h, u = hnf(m)
    assert matmul(u, m) == h
    assert is_unimodular(u)
    assert list(h.entries) == oracle_hnf(m.entries, m.cols)


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=4), st.integers(0, 2**32))
def test_hnf_canonical_under_row_equivalence(m, seed):
    rng = random.Random(seed)
    p = IntMatrix.from_rows(random_unimodular(rng, m.rows))
    h1, _ = hnf(m)
    h2, _ = hnf(matmul(p, m))
    assert h1 == h2


def test_snf_forced_diagonal():
    s, _ = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.entries == ((1, 0), (0, 6))


def test_snf_identity_and_zero():
    s, _ = snf(IntMatrix.identity(3))
    assert s == IntMatrix.identity(3)
    s, _ = snf(IntMatrix.zeros(2, 3))
    assert s == IntMatrix.zeros(2, 3)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_snf_reconstructs_divides_and_matches_oracle(m):
    s, v = snf(m)
    # S = U m V for a unimodular U: m V and S span the same row lattice
    assert SublatticeBasis.from_vectors(m.cols, matmul(m, v).entries) == (
        SublatticeBasis.from_vectors(m.cols, s.entries)
    )
    assert is_unimodular(v)
    diag = [s.entries[i][i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert s.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert diag == oracle_invariant_factors(m.entries, m.cols)


@st.composite
def sparse_matrices(draw, max_rows=8, max_cols=6):
    """Mostly zero matrices, zero rows among them, whose entries often
    leave a pivot that divides neither the rest of its row nor some later
    row, so the elimination takes the offending-row path."""
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(1, max_cols))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9])
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    return IntMatrix.from_rows(rows, c)


@st.composite
def relation_matrices(draw, max_gens=7):
    """Relation matrices of a universal grading: one row e_s1 + e_s2 - e_s3
    per triple, which is 2 e_s - e_t or e_s when indices repeat, and some
    rows twice."""
    k = draw(st.integers(1, max_gens))
    index = st.integers(0, k - 1)
    rows = []
    for s1, s2, s3 in draw(st.lists(st.tuples(index, index, index), max_size=14)):
        rel = [0] * k
        rel[s1] += 1
        rel[s2] += 1
        rel[s3] -= 1
        rows.append(rel)
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return IntMatrix.from_rows(rows, k)


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(max_dim=6), sparse_matrices(), relation_matrices()))
@example(IntMatrix.from_rows([[2, 0], [0, 3]]))  # the offending row is pulled up
@example(IntMatrix.from_rows([[0, 0, 0], [0, 4, 6], [0, 0, 0], [6, 0, 9]]))
@example(IntMatrix.from_rows([[2, -1, 0], [2, -1, 0], [0, 2, -1], [-1, 0, 2]]))
@example(IntMatrix.zeros(0, 3))
def test_snf_equals_the_dense_elimination(m):
    # the sparse elimination performs the dense one's operations in its
    # order, so S and V (and with V every generator map) agree exactly
    assert snf(m) == dense_snf(m)


def test_kernel_trivial_cases():
    assert kernel_saturated(IntMatrix.identity(3)).rank == 0
    k = kernel_saturated(IntMatrix.zeros(3, 3))
    assert k.basis == IntMatrix.identity(3)
    assert kernel_saturated(IntMatrix.from_rows([[2, 0], [0, 0]])).vectors() == ((0, 1),)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_kernel_annihilates_and_is_maximal(m):
    k = kernel_saturated(m)
    for v in k.vectors():
        assert all(x == 0 for x in m.vec_mat(v))
    assert k.rank == m.rows - SublatticeBasis.from_vectors(m.cols, m.entries).rank
    assert k.is_saturated()


def test_direct_sum_index_examples():
    e1 = SublatticeBasis.from_vectors(2, [(1, 0)])
    e2 = SublatticeBasis.from_vectors(2, [(0, 1)])
    two_e1 = SublatticeBasis.from_vectors(2, [(2, 0)])
    assert direct_sum_index([e1, e2], 2) == 1
    assert direct_sum_index([two_e1, e2], 2) == 2
    with pytest.raises(InfiniteIndex):
        direct_sum_index([e1], 2)
    with pytest.raises(InfiniteIndex):
        direct_sum_index([e1, e1], 2)


@st.composite
def parts_of(draw, max_n=4):
    """Parts of Z^n, either spans of random vectors or the spans of the
    consecutive row blocks of a random n x n matrix, whose ranks often add
    up to n."""
    n = draw(st.integers(1, max_n))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    if draw(st.booleans()):
        blocks = draw(st.lists(st.lists(vector, max_size=3), min_size=1, max_size=4))
    else:
        rows = draw(st.lists(vector, min_size=n, max_size=n))
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
        bounds = [0, *cuts, n]
        blocks = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
    return n, [SublatticeBasis.from_vectors(n, b) for b in blocks]


@settings(max_examples=150, deadline=None)
@given(parts_of())
@example((2, [SublatticeBasis.from_vectors(2, [(1, 1)]), SublatticeBasis.from_vectors(2, [(2, 2)])]))
@example((3, [SublatticeBasis.from_vectors(3, [(2, 0, 0), (0, 3, 0)]),
              SublatticeBasis.from_vectors(3, [(1, 1, 5)])]))
def test_direct_sum_index_is_the_determinant_of_the_stacked_parts(case):
    n, parts = case
    stacked = [v for p in parts for v in p.vectors()]
    det = oracle_det(stacked) if len(stacked) == n else 0
    if det:
        assert direct_sum_index(parts, n) == abs(det)
    else:
        with pytest.raises(InfiniteIndex):
            direct_sum_index(parts, n)


def test_solve_left():
    m = IntMatrix.from_rows([[2, 0], [1, 1]])
    x = solve_left(m, (3, 1))
    assert x is not None
    assert m.vec_mat(x) == (3, 1)
    assert solve_left(m, (1, 0)) is None


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=4), st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_solve_left_round_trip(m, coeffs):
    target = m.vec_mat(tuple(coeffs[: m.rows]))
    x = solve_left(m, target)
    assert x is not None
    assert m.vec_mat(x) == target


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5))
def test_inverse_unimodular(seed, n):
    rng = random.Random(seed)
    u = IntMatrix.from_rows(random_unimodular(rng, n))
    v = inverse_unimodular(u)
    assert matmul(u, v) == IntMatrix.identity(n)


def test_sublattice_canonical_equality():
    a = SublatticeBasis.from_vectors(2, [(1, 1), (0, 2)])
    b = SublatticeBasis.from_vectors(2, [(1, 3), (1, 1)])
    assert a == b
    assert a.contains((2, 4))
    assert not a.contains((0, 1))


def test_sublattice_saturation():
    s = SublatticeBasis.from_vectors(2, [(2, 1)])
    assert s.is_saturated()
    t = SublatticeBasis.from_vectors(2, [(2, 4)])
    assert not t.is_saturated()
    assert t.saturation() == SublatticeBasis.from_vectors(2, [(1, 2)])


@settings(max_examples=80, deadline=None)
@given(
    matrices(max_dim=4, lo=-5, hi=5),
    st.integers(1, 3),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)
def test_coordinates_of_matches_solve_left(m, scale, coeffs, other):
    # m may have dependent rows (rank-deficient sums), scaling its rows
    # gives non-saturated sublattices, and `other` is usually not a member
    rows = [tuple(scale * x for x in r) for r in m.entries]
    sub = SublatticeBasis.from_vectors(m.cols, rows)
    member = IntMatrix.from_rows(rows).vec_mat(tuple(coeffs[: m.rows]))
    for target in (member, tuple(other[: m.cols]), tuple(coeffs[: m.cols])):
        got = sub.coordinates_of(target)
        assert got == solve_left(sub.basis, target)
        assert sub.contains(target) == (got is not None)
        if got is not None:
            assert sub.basis.vec_mat(got) == target
    assert sub.coordinates_of(member) is not None


def test_coordinates_of_edge_cases():
    zero = SublatticeBasis.zero(3)
    assert zero.coordinates_of((0, 0, 0)) == ()
    assert zero.coordinates_of((0, 1, 0)) is None
    assert SublatticeBasis.from_vectors(2, [(2, 4)]).coordinates_of((1, 2)) is None
    with pytest.raises(ValueError):
        SublatticeBasis.full(2).coordinates_of((1, 2, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=0, max_size=6))
def test_one_vector_spans_its_hermite_form(v):
    # the Hermite form of a single row is that row with a positive pivot,
    # or no row at all
    h, _ = hnf(IntMatrix.from_rows([v], len(v)))
    want = tuple(r for r in h.entries if any(r))
    assert SublatticeBasis.from_vectors(len(v), [v]).vectors() == want


@st.composite
def symmetric_matrices(draw, max_dim=5):
    """Symmetric integer matrices, positive definite or not: A A^T + s I
    for a small integer A and shift s, or entries drawn at random."""
    n = draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
        s = draw(st.integers(-2, 3))
        return [[sum(x * y for x, y in zip(a[i], a[j])) + s * (i == j) for j in range(n)] for i in range(n)]
    lower = [draw(st.lists(st.integers(-9, 9), min_size=i + 1, max_size=i + 1)) for i in range(n)]
    return [[lower[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(), st.integers(0, 4))
@example([[2, -1], [-1, 2]], 0)
@example([[1, 2], [2, 1]], 0)
@example([[4, 2], [2, 4]], 3)
def test_leading_minors_are_the_minors_up_to_the_first_pivot_at_most_floor(f, floor):
    # Delta_i against the Leibniz determinant of each leading block, and
    # lam[i][j] = Delta_j mu_ij against the exact LDL data; each row is
    # handed over as its lower triangle, so an entry above the diagonal
    # would be out of range, and no row after the first failing pivot is read
    n = len(f)
    minors = [1] + [oracle_det([r[:k] for r in f[:k]]) for k in range(1, n + 1)]
    bad = next((i for i in range(n) if minors[i + 1] <= floor * minors[i]), None)
    read = []

    def rows():
        for i, row in enumerate(f):
            read.append(i)
            yield row[: i + 1]

    out = leading_minors(rows(), floor)
    if bad is not None:
        assert out is None
        assert read == list(range(bad + 1))
        return
    lam, delta = out
    assert delta == minors
    _, mu = frac_ldl(f)
    for i in range(n):
        assert lam[i] == [minors[j + 1] * (mu[i][j] if j < i else 1) for j in range(i + 1)]
