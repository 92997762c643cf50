import random
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

import gradus.orders as orders
from gradus.errors import BadIdentity, NotAssociative, NotCommutative, TorsionQuotient
from gradus.examples import example_names, example_order
from gradus.intlinalg import IntMatrix, SublatticeBasis, kernel_saturated, vec_add
from gradus.orders import (
    group_ring,
    is_reduced,
    monogenic_order,
    mul,
    nilradical,
    order_from_json,
    order_to_json,
    power,
    product_order,
    quotient_order,
    regular_matrix,
    subring_order,
    trace_gram,
    trace_vector,
    validate,
)
from helpers import change_of_basis, oracle_nonassociative_triple, random_unimodular, rebased

ZC2_TABLE = [
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
]


def test_validate_group_ring_table():
    a = validate(ZC2_TABLE, [1, 0])
    assert a.rank == 2


def test_validate_rank_one():
    a = validate([[[1]]], [1])
    assert a.rank == 1


def test_validate_rejects_noncommutative():
    table = [
        [[1, 0], [0, 1]],
        [[1, 0], [1, 0]],
    ]
    with pytest.raises(NotCommutative) as exc:
        validate(table, [1, 0])
    assert exc.value.indices == (0, 1)


def test_validate_rejects_nonassociative():
    # e1*e1 = e2, e1*e2 = 0, e2*e2 = e1 forces (e1 e1) e2 != e1 (e1 e2)
    table = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 1, 0]],
    ]
    with pytest.raises(NotAssociative) as exc:
        validate(table, [1, 0, 0])
    assert exc.value.indices == (1, 1, 2)


def test_validate_shape_and_type_checks():
    # tuples pass like lists; a bool is not an integer, an int subclass is
    assert validate((((1, 0), (0, 1)), ((0, 1), (1, 0))), (1, 0)).rank == 2
    with pytest.raises(ValueError):
        validate([[[True]]], [1])
    with pytest.raises(ValueError):
        validate([[[1]]], [True])
    Unit = IntEnum("Unit", {"ONE": 1})
    assert validate([[[Unit.ONE]]], [Unit.ONE]).one == (1,)


# symmetric perturbations of a table cell: small ones, and ones that need a
# wide packing digit
PERTURBATIONS = [1, -1, 2, -2, 10**30, -(10**30), -(2**64)]


@st.composite
def perturbed_tables(draw):
    """(table, identity) of a small order on a random basis, or of an
    all-zero table, with 0-3 symmetric perturbations of its cells."""
    kind = draw(st.sampled_from(["group ring", "monogenic", "zero"]))
    if kind == "zero":
        n = draw(st.integers(0, 3))
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        one = [int(i == 0) for i in range(n)]
    else:
        if kind == "group ring":
            factors = draw(st.sampled_from([[1], [2], [3], [4], [5], [6], [2, 2], [2, 3]]))
            a = group_ring(factors)[0]
        else:
            a = monogenic_order(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4)) + [1])
        seed = draw(st.integers(0, 10**6))
        b = change_of_basis(a, random_unimodular(random.Random(seed), a.rank))[0]
        n = b.rank
        table = [[list(cell) for cell in row] for row in b.table]
        one = list(b.one)
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i, j, m = (draw(st.integers(0, n - 1)) for _ in range(3))
        d = draw(st.sampled_from(PERTURBATIONS))
        table[i][j][m] += d
        if i != j:
            table[j][i][m] += d
    return table, one


@settings(max_examples=100, deadline=None)
@given(perturbed_tables())
def test_validate_agrees_with_the_triple_loop(case):
    table, one = case
    n = len(one)
    triple = oracle_nonassociative_triple(table)
    bad_identity = next(
        (
            k
            for k in range(n)
            if [sum(one[i] * table[i][k][m] for i in range(n)) for m in range(n)]
            != [int(m == k) for m in range(n)]
        ),
        None,
    )
    if triple is not None:
        with pytest.raises(NotAssociative) as exc:
            validate(table, one)
        assert exc.value.indices == triple
    elif bad_identity is not None:
        with pytest.raises(BadIdentity) as exc:
            validate(table, one)
        assert exc.value.indices == (bad_identity,)
    else:
        assert validate(table, one).table == tuple(tuple(map(tuple, row)) for row in table)


def test_validate_multiplies_only_to_check_the_identity(monkeypatch):
    # associativity needs no product of elements: the n products left are
    # 1 * e_i, where the naive test made 2n^3 + n
    a = rebased(group_ring([4, 4])[0], 16)
    calls = []
    real = orders._mul_raw
    monkeypatch.setattr(orders, "_mul_raw", lambda *args: calls.append(args) or real(*args))
    validate(a.table, a.one)
    assert 0 < len(calls) <= a.rank == 16


def test_validate_rejects_bad_identity():
    table = [
        [[2, 0], [0, 2]],
        [[0, 2], [2, 0]],
    ]
    with pytest.raises(BadIdentity) as exc:
        validate(table, [1, 0])
    assert exc.value.indices == (0,)


def test_mul_examples():
    a = validate(ZC2_TABLE, [1, 0])
    assert mul(a, (0, 1), (0, 1)) == (1, 0)
    assert mul(a, (3, 2), a.one) == (3, 2)
    b = monogenic_order([-2, 0, 1])
    assert mul(b, (0, 1), (0, 1)) == (2, 0)


def test_regular_matrix():
    a = validate(ZC2_TABLE, [1, 0])
    assert regular_matrix(a, a.one).entries == ((1, 0), (0, 1))
    assert regular_matrix(a, (0, 1)).entries == ((0, 1), (1, 0))
    x, y = (1, 2), (3, -1)
    both = regular_matrix(a, vec_add(x, y))
    mx, my = regular_matrix(a, x), regular_matrix(a, y)
    assert both.entries == tuple(vec_add(r, s) for r, s in zip(mx.entries, my.entries))


def test_nilradical_dual_numbers():
    a = monogenic_order([0, 0, 1])
    rad = nilradical(a)
    assert rad.vectors() == ((0, 1),)
    assert not is_reduced(a)


def test_nilradical_zsqrt2_empty():
    a = monogenic_order([-2, 0, 1])
    assert trace_gram(a).entries == ((2, 0), (0, 4))
    assert nilradical(a).rank == 0
    assert is_reduced(a)


@pytest.mark.parametrize(
    "a",
    [example_order(name) for name in example_names()]
    + [rebased(example_order("kummer6"), 1), rebased(group_ring([2, 4])[0], 1)],
    ids=example_names() + ["kummer6-rebased", "zc2c4-rebased"],
)
def test_trace_gram_is_the_entrywise_trace_of_each_product(a):
    # entry (i, j) is sum_m T_ijm tr_m for the trace vector tr, summed term by term
    n, tr = a.rank, trace_vector(a)
    want = [[sum(a.table[i][j][m] * tr[m] for m in range(n)) for j in range(n)] for i in range(n)]
    assert trace_gram(a) == IntMatrix.from_rows(want, n)


def digits_of(p, z):
    """The digits of z packed by p, read by an independent decoder: balanced
    base-2^b digits, least significant first."""
    b, out = 8 * p.width, []
    for _ in range(p.size // p.width):
        c = z % (1 << b)
        c -= (c >= 1 << (b - 1)) << b
        out.append(c)
        z = (z - c) >> b
    assert z == 0
    return out


def reads_back(p, digits):
    """Whether the digits survive packing and `Packing.blocks`."""
    try:
        blocks = p.blocks([p.pack(digits)])[0]
    except OverflowError:
        return False
    half = 1 << (8 * p.width - 1)
    return [int.from_bytes(x, "little") - half for x in blocks] == list(digits)


BOUNDS = st.sampled_from([1, 127, 128, 255, 256, 2**15 - 1, 2**15, 2**16]) | st.integers(1, 2**80)


@settings(max_examples=300, deadline=None)
@given(st.data(), BOUNDS, st.integers(1, 4), st.integers(1, 4))
def test_packed_digits_read_back_and_the_width_is_tight(data, bound, blocks, per):
    # digits from {-B, -1, 0, 1, B} and values in between; the blocks of
    # `per` digits round-trip, equal blocks mean equal digits, the nonzero
    # reader agrees with the blocks, and one byte fewer cannot carry +B
    # (nor -B, unless B is the narrower width's 2^(b'-1))
    count = blocks * per
    digit = st.sampled_from([-bound, -1, 0, 1, bound]) | st.integers(-bound, bound)
    cs = data.draw(st.lists(digit, min_size=count, max_size=count))
    ds = data.draw(st.lists(digit, min_size=count, max_size=count) | st.just(cs))
    p = orders.Packing(count, bound)
    z, w = p.pack(cs), p.pack(ds)
    assert digits_of(p, z) == cs and reads_back(p, cs)
    assert (p.blocks([z], per) == p.blocks([w], per)) == (cs == ds)
    assert [b"".join(x) for x in p.blocks([z, w], per)] == [b"".join(x) for x in p.blocks([z, w])]
    assert [p.nonzero(z), p.nonzero(w)] == [[t for t, c in enumerate(x) if c] for x in (cs, ds)]
    if p.width > 1:
        narrow = orders.Packing(count, (1 << (8 * p.width - 9)) - 1)
        assert narrow.width == p.width - 1
        t = data.draw(st.integers(0, count - 1))
        for sign in (1, -1):
            cs = [0] * count
            cs[t] = sign * bound
            assert reads_back(narrow, cs) == (sign < 0 and bound == 1 << (8 * narrow.width - 1))


@pytest.mark.parametrize("name", ["kummer6", "parity5", "zc6"])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_table_times_packed_rows_is_each_product_times_the_matrix(name, seed):
    # cell [k][i] of the table times the packed rows of V is e_k e_i V, and
    # the product matrix of x is x e_l V over l, each formed in integers
    a = rebased(example_order(name), seed)
    n, rng = a.rank, random.Random(seed)
    v = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
    x = [rng.randint(-5, 5) for _ in range(n)]
    p = orders.Packing(n, 5 * n * n * orders.table_bound(a) * 50)
    cells = list(orders.table_times(a, [p.pack(row) for row in v]))
    e = a.basis()
    for k in range(n):
        for i in range(n):
            want = [sum(c * v[m][j] for m, c in enumerate(mul(a, e[k], e[i]))) for j in range(n)]
            assert digits_of(p, cells[k][i]) == want
    for lth, z in enumerate(orders.product_matrix(x, cells)):
        xe = mul(a, x, e[lth])
        assert digits_of(p, z) == [sum(c * v[m][j] for m, c in enumerate(xe)) for j in range(n)]


def test_nilradical_product_empty():
    one = monogenic_order([-1, 1])
    a = product_order(one, one)
    assert is_reduced(a)


def test_quotient_by_nilradical_is_reduced():
    a = monogenic_order([0, 0, 1])
    b, _ = quotient_order(a, nilradical(a).vectors())
    assert b.rank == 1
    assert is_reduced(b)


def test_group_ring_examples():
    a, elems = group_ring([2])
    assert a.table == validate(ZC2_TABLE, [1, 0]).table
    assert elems == [(0,), (1,)]
    z, _ = group_ring([1])
    assert z.rank == 1
    k4, elems4 = group_ring([2, 2])
    assert k4.rank == 4
    # e_g * e_h = e_{gh} for a sample pair
    i = elems4.index((1, 0))
    j = elems4.index((0, 1))
    m = elems4.index((1, 1))
    assert mul(k4, k4.unit(i), k4.unit(j)) == k4.unit(m)


def test_quotient_order_zeta5():
    zc5, _ = group_ring([5])
    q, proj = quotient_order(zc5, [(1, 1, 1, 1, 1)])
    assert q.rank == 4
    g_img = proj.vec_mat((0, 1, 0, 0, 0))
    assert power(q, g_img, 5) == q.one
    assert power(q, g_img, 1) != q.one


def test_quotient_order_zc2_augmentation():
    zc2, _ = group_ring([2])
    q, proj = quotient_order(zc2, [(1, 1)])
    assert q.rank == 1
    # the quotient is the ring of integers on either generator choice
    assert q.one in ((1,), (-1,))
    assert mul(q, q.one, q.one) == q.one
    assert proj.vec_mat(zc2.one) == q.one
    assert proj.vec_mat((1, 1)) == (0,)


def test_quotient_order_closes_the_ideal_in_a_second_pass():
    # the span of 1 - g^2 alone is not an ideal: one pass adds g - g^3, and
    # a second finds that span of rank 2 closed.  Z[C4] / (1 - g^2) is Z[C2],
    # with g mapped to an element g' of square 1 such that 1, g' is a basis
    a, _ = group_ring([4])
    gens = [(1, 0, -1, 0)]
    assert orders.ideal_closure(a, gens) == SublatticeBasis.from_vectors(
        4, [(1, 0, -1, 0), (0, 1, 0, -1)]
    )
    b, proj = quotient_order(a, gens)
    assert b.rank == 2
    g = proj.vec_mat(a.unit(1))
    assert proj.vec_mat(a.one) == b.one
    assert mul(b, g, g) == b.one
    assert SublatticeBasis.from_vectors(2, [b.one, g]) == SublatticeBasis.full(2)


def test_quotient_by_the_zero_ideal_is_the_order():
    a, _ = group_ring([4])
    b, proj = quotient_order(a, [])
    assert b is a
    assert proj == IntMatrix.identity(4)


def poly_mul(f, g):
    """The product of two polynomials, coefficients constant term first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


MONIC = st.lists(st.integers(-2, 2), max_size=2).map(lambda c: c + [1])


@st.composite
def quotient_cases(draw):
    """(order, ideal generators, x, y): Z[C_n] / (1 - g^k) for k | n <= 8,
    or a monogenic Z[x] / (g^2 h) by its nilradical, sometimes on a seeded
    random basis, and two elements of the order."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        k = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        a, _ = group_ring([n])
        gens = [vec_add(a.one, [-x for x in a.unit(k % n)])]
    else:
        g = draw(MONIC.filter(lambda c: len(c) > 1))
        a = monogenic_order(poly_mul(poly_mul(g, g), draw(MONIC)))
        gens = list(nilradical(a).vectors())
    if draw(st.booleans()):
        u = random_unimodular(random.Random(draw(st.integers(0, 99))), a.rank)
        a, uinv = change_of_basis(a, u)
        gens = [uinv.vec_mat(x) for x in gens]
    element = st.lists(st.integers(-3, 3), min_size=a.rank, max_size=a.rank)
    return a, gens, draw(element), draw(element)


def nilradical_case(f, x, y):
    a = monogenic_order(f)
    return a, list(nilradical(a).vectors()), x, y


@settings(max_examples=60, deadline=None)
@given(quotient_cases())
@example(nilradical_case([0, 0, -1, 1], [1, 2, -1], [0, -3, 2]))  # x^2 (x - 1)
@example(nilradical_case([1, 0, 2, 0, 1], [1, 2, -1, 3], [0, -3, 2, 1]))  # (x^2 + 1)^2
@example(  # Z[C8] / (1 - g^2)
    (
        group_ring([8])[0],
        [(1, 0, -1, 0, 0, 0, 0, 0)],
        [1, 2, 0, 0, 0, 0, 0, 3],
        [0, 1, 0, 0, -1, 0, 0, 0],
    )
)
def test_quotient_order_projects_onto_a_ring_with_the_ideal_as_kernel(case):
    a, gens, x, y = case
    b, proj = quotient_order(a, gens)
    assert proj.vec_mat(a.one) == b.one
    assert proj.vec_mat(mul(a, x, y)) == mul(b, proj.vec_mat(x), proj.vec_mat(y))
    assert SublatticeBasis.from_vectors(b.rank, proj.entries) == SublatticeBasis.full(b.rank)
    assert kernel_saturated(proj) == orders.ideal_closure(a, gens)


def test_quotient_order_torsion_rejected():
    z = monogenic_order([-1, 1])
    with pytest.raises(TorsionQuotient):
        quotient_order(z, [(2,)])


def test_monogenic_examples():
    a = monogenic_order([-2, 0, 1])
    assert a.table[1][1] == (2, 0)
    z = monogenic_order([-1, 1])
    assert z.rank == 1
    gold = monogenic_order([-1, -1, 1])
    assert gold.table[1][1] == (1, 1)


def test_product_order():
    z = monogenic_order([-1, 1])
    a = product_order(z, z)
    assert a.rank == 2
    assert mul(a, (1, 0), (1, 0)) == (1, 0)
    assert mul(a, (0, 1), (0, 1)) == (0, 1)
    assert mul(a, (1, 0), (0, 1)) == (0, 0)
    assert a.one == (1, 1)


def test_product_with_rank_zero():
    z = monogenic_order([-1, 1])
    nil = validate([], [])
    a = product_order(z, nil)
    assert a.rank == 1
    assert a.table == z.table


def test_subring_order():
    a = monogenic_order([-2, 0, 1])
    sub = SublatticeBasis.from_vectors(2, [(1, 0), (0, 2)])  # Z + 2*sqrt(2)*Z
    b, basis = subring_order(a, sub)
    assert b.rank == 2
    assert b.table[1][1] == (8, 0)  # (2*sqrt2)^2 = 8
    open_sub = SublatticeBasis.from_vectors(2, [(0, 1)])
    with pytest.raises(ValueError):
        subring_order(a, open_sub)


def test_json_round_trip():
    a, _ = group_ring([3])
    data = order_to_json(a)
    b = order_from_json(data)
    assert b.table == a.table
    assert b.one == a.one
    assert b.labels == a.labels


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=2))
def test_group_ring_validates_and_is_reduced(factors):
    a, elems = group_ring(factors)
    assert a.rank == len(elems)
    # group rings of abelian groups are reduced over Z
    assert is_reduced(a)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
)
def test_mul_bilinear_and_associative(x, y, z):
    a = monogenic_order([-1, -1, 1])
    x, y, z = tuple(x), tuple(y), tuple(z)
    xy = mul(a, x, y)
    assert mul(a, xy, z) == mul(a, x, mul(a, y, z))
    s = tuple(p + q for p, q in zip(x, y))
    assert mul(a, s, z) == tuple(
        p + q for p, q in zip(mul(a, x, z), mul(a, y, z))
    )
