import functools
import itertools
import random
import json

import pytest
from hypothesis import given, settings, strategies as st

import gradus.units as units
from gradus.cli import main
from gradus.config import DEFAULT_CONFIG
from gradus.embeddings import ESCALATION_BUDGET
from gradus.errors import NotReduced, PrecisionExhausted
from gradus.examples import example_order, natural_group_ring_grading
from gradus.grading import homogeneous_parts, universal_grading
import gradus.orders as orders
from gradus.orders import (
    group_ring,
    monogenic_order,
    mul,
    order_to_json,
    product_order,
    validate,
)
from gradus.units import (
    element_order,
    idempotents,
    is_connected,
    is_subgroup,
    roots_of_unity,
    torsion_exponent,
    walk_length,
)

from helpers import (
    SMALL_RINGS,
    brute_idempotents,
    oracle_generated,
    oracle_group_closed,
    oracle_idempotents,
    oracle_roots,
    rebased,
    small_ring_product,
    torsion_order_bound,
)


def integers_power(k):
    e = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return validate([[e[i] if i == j else (0,) * k for j in range(k)] for i in range(k)], (1,) * k)


def test_idempotents_product_ring():
    a = example_order("zxz")
    assert idempotents(a) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_idempotents_zc2():
    a, _ = group_ring([2])
    assert idempotents(a) == [(0, 0), (1, 0)]


def test_idempotents_parity_ring():
    a = example_order("parity5")
    idem = idempotents(a)
    assert idem == [a.zero(), a.one]


@pytest.mark.parametrize("name", ["z", "zxz", "zc2", "zsqrt2", "golden"])
def test_idempotents_match_box_oracle(name):
    a = example_order(name)
    data = order_to_json(a)
    assert idempotents(a) == brute_idempotents(data["table"], data["one"])


def test_idempotents_need_reduced():
    with pytest.raises(NotReduced):
        idempotents(example_order("dual"))


def test_is_connected():
    assert is_connected(example_order("z"))
    assert not is_connected(example_order("zxz"))
    assert is_connected(example_order("zsqrt2"))
    assert is_connected(example_order("parity5"))
    # integral group rings are connected: (1 +- g)/2 is not integral
    assert is_connected(example_order("zc2"))


def test_element_order_basics():
    a, _ = group_ring([4])
    assert element_order(a, a.one) == 1
    g = a.unit(1)
    assert element_order(a, g) == 4
    z = monogenic_order([-1, 1])
    assert element_order(z, (2,)) is None
    assert element_order(z, (-1,)) == 2
    # norm 5 = rank, like the roots, but (2,1,0,0,0)^120 != 1
    assert element_order(integers_power(5), (2, 1, 0, 0, 0)) is None
    # an idempotent is its own power with trace 1 <= rank, so neither the
    # walk nor the trace exit drops it: the exponent gate does
    assert element_order(integers_power(5), (1, 0, 0, 0, 0)) is None


def test_element_order_of_primitive_twelfth_roots():
    # Z[zeta_12] = Z[x]/(x^4 - x^2 + 1), with x a primitive 12th root
    a = monogenic_order([1, 0, -1, 0, 1])
    assert torsion_exponent(a.rank) == 120
    assert element_order(a, a.unit(1)) == 12
    c12, _ = group_ring([12])
    assert element_order(c12, c12.unit(1)) == 12


def test_torsion_exponent_table():
    assert [torsion_exponent(n) for n in (0, 1, 2, 4, 6)] == [1, 2, 12, 120, 2520]


def test_walk_length_table():
    # the largest m with phi(m) <= rank
    assert [walk_length(n) for n in (0, 1, 2, 4, 5, 6, 8, 10)] == [1, 2, 6, 12, 12, 18, 30, 30]


def cyclotomic_product(*ms):
    """Z[zeta_m1] x Z[zeta_m2] x ... for prime m, each on its power basis."""
    a = monogenic_order([1] * ms[0])
    for m in ms[1:]:
        a = product_order(a, monogenic_order([1] * m))
    return a


def test_element_order_beyond_the_walk_length():
    # (zeta_7, zeta_5) in rank 10 has order 35 > walk_length(10) = 30, so
    # the walk alone does not decide it; its negative has order 70
    a = cyclotomic_product(7, 5)
    x = tuple(int(i in (1, 7)) for i in range(10))
    assert element_order(a, x) == 35
    assert element_order(a, tuple(-c for c in x)) == 70


@pytest.mark.parametrize("ms, seed", [((5, 3), 7), ((7, 5), None)])
def test_roots_of_products_with_orders_beyond_the_walk_length(ms, seed):
    # Z[zeta_5] x Z[zeta_3] has roots of order 30 > walk_length(6) = 18, and
    # Z[zeta_7] x Z[zeta_5] of orders 35 and 70 > walk_length(10) = 30
    a = cyclotomic_product(*ms)
    if seed is not None:
        a = rebased(a, seed)
    report = roots_of_unity(a)
    assert dict(zip(report.roots, report.orders)) == oracle_roots(a)
    assert max(report.orders) > walk_length(a.rank)
    assert report.group_closed


@pytest.mark.parametrize("name", ["z^3", "zc4", "zeta5", "z[zeta5]xz[zeta3]"])
def test_subgroup_certificate_matches_pairwise_closure(name):
    # subgroups generated by random roots, each also with one element
    # removed and with one root added
    a = {
        "z^3": integers_power(3),
        "zc4": group_ring([4])[0],
        "zeta5": example_order("zeta5"),
        "z[zeta5]xz[zeta3]": cyclotomic_product(5, 3),
    }[name]
    roots = list(roots_of_unity(a).roots)
    rng = random.Random(name)
    verdicts = set()
    for _ in range(12):
        group = oracle_generated(a, rng.sample(roots, rng.randint(0, 2)))
        others = [r for r in roots if r not in group]
        subsets = [group, group - {rng.choice(sorted(group))}]
        if others:
            subsets.append(group | {rng.choice(others)})
        for subset in subsets:
            subset = rng.sample(sorted(subset), len(subset))
            want = oracle_group_closed(a, subset)
            assert is_subgroup(a, subset) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    assert is_subgroup(a, []) and oracle_group_closed(a, [])


def test_roots_of_z5_take_38_products(monkeypatch):
    # Z^5 is five copies of Z, each searched at norm 1: 25 products test
    # e_i v = v on the five pool vectors, one walk and one sign gate take 3,
    # and the certificate of {1, 1 - 2 e_i} takes 2 per factor
    a = rebased(integers_power(5), 0)
    roots_of_unity(a)  # the numeric context, computed once
    calls = []
    real = orders._mul_raw

    def counted(a, x, y):
        calls.append(None)
        return real(a, x, y)

    monkeypatch.setattr(orders, "_mul_raw", counted)
    assert roots_of_unity(a).count == 32
    assert len(calls) == 38


def test_roots_of_z8_search_norm_one_only(monkeypatch):
    # the factors of Z^8 have rank 1, so the pool holds the 8 pairs +-e_i
    # and each factor sends its one candidate to the exact filter, not the
    # 4,664 pairs of norm 8
    a = rebased(integers_power(8), 0)
    roots_of_unity(a)  # the numeric context, computed once
    orders_walked, pools = [], []
    real_order, real_pool = units.element_order, units.enumerate_up_to

    def walked(a, x):
        orders_walked.append(x)
        return real_order(a, x)

    def pooled(*args):
        pools.append(real_pool(*args))
        return pools[-1]

    monkeypatch.setattr(units, "element_order", walked)
    monkeypatch.setattr(units, "enumerate_up_to", pooled)
    report = roots_of_unity(a)
    assert report.count == 256 and report.group_closed
    assert len(orders_walked) <= 8
    assert [len(p) for p in pools] == [8]


def test_torsion_order_bound_small_ranks():
    # the bound of `oracle_roots`, from sympy's totient
    assert torsion_order_bound(1) == 8  # largest m with phi(m) <= 1 is 2
    assert torsion_order_bound(4) == 288  # largest m with phi(m) <= 4 is 12


@pytest.mark.parametrize(
    "factors,size",
    [([2], 2), ([3], 3), ([4], 4), ([2, 2], 4)],
)
def test_group_ring_roots_are_plus_minus_group(factors, size):
    a, elems = group_ring(factors)
    report = roots_of_unity(a)
    assert report.count == 2 * size
    assert report.group_closed
    want = set()
    for i in range(len(elems)):
        want.add(a.unit(i))
        want.add(tuple(-c for c in a.unit(i)))
    assert set(report.roots) == want


def test_quotient_ring_has_ten_roots():
    report = roots_of_unity(example_order("zeta5"))
    assert report.count == 10
    assert report.group_closed


def test_integers_roots():
    report = roots_of_unity(example_order("z"))
    assert set(report.roots) == {(1,), (-1,)}
    assert set(report.orders) == {1, 2}


def test_sqrt_of_a_mersenne_prime_is_answered_although_every_chi_is_singular_mod_it():
    # in Z[sqrt P], P = 2^61 - 1, every chi_z = (x - a)^2 - b^2 P has the
    # discriminant 4 b^2 P = 0 mod P, so a squarefreeness test done only
    # mod P would skip every splitting element; the test over Q answers
    p = 2**61 - 1
    a = monogenic_order([-p, 0, 1])
    for z in [(3, 1), (-5, 2), (0, 7)]:
        chi, _ = orders.charpoly_rows(a, z)
        assert chi[0] == 1 and (chi[1] ** 2 - 4 * chi[2]) % p == 0
    assert sorted(idempotents(a)) == [(0, 0), (1, 0)]
    report = roots_of_unity(a)
    assert set(report.roots) == {(1, 0), (-1, 0)}
    assert report.group_closed


def test_roots_contain_plus_minus_one_and_even_count():
    for name in ["z", "zsqrt2", "golden", "zc3", "zeta5"]:
        a = example_order(name)
        report = roots_of_unity(a)
        assert a.one in report.roots
        assert tuple(-c for c in a.one) in report.roots
        assert report.count % 2 == 0
        assert report.group_closed


def test_roots_multiplicative_orders_are_exact():
    a, _ = group_ring([4])
    report = roots_of_unity(a)
    for r, k in zip(report.roots, report.orders):
        acc = a.one
        for _ in range(k):
            acc = mul(a, acc, r)
        assert acc == a.one or k == 1
        assert element_order(a, r) == k


def test_idempotents_live_in_identity_piece():
    for factors in ([2], [2, 2], [3]):
        a, natural = natural_group_ring_grading(factors)
        b1 = natural.piece(natural.group.identity)
        for e in idempotents(a):
            assert b1.contains(e)


def test_roots_homogeneous_when_identity_piece_connected():
    # identity pieces here are spans of 1, which are connected
    for name in ["zc2", "zc4", "zc2c2", "kummer6"]:
        a = example_order(name)
        go = universal_grading(a)
        for r in roots_of_unity(a).roots:
            assert len(homogeneous_parts(go.grading, r)) == 1


@pytest.mark.parametrize(
    "drop",
    [
        [(1, 0, 0)],
        [(0, 1, 1)],
        [(1, 0, 0), (0, 1, 1)],
        list(itertools.product((0, 1), repeat=3)),
        # leaves {0, (1, 0, 0)}: a Boolean algebra, but without 1
        [e for e in itertools.product((0, 1), repeat=3) if e not in [(0, 0, 0), (1, 0, 0)]],
    ],
)
def test_a_partial_idempotent_search_fails_the_certificate_at_every_level(
    monkeypatch, tmp_path, capsys, drop
):
    # Z^3 has the 8 idempotents of {0, 1}^3; a search that misses some of
    # them is no Boolean algebra, so every query escalates until the budget
    # is spent
    a = integers_power(3)
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(order_to_json(a)))
    real = units.search_centred_ball
    tried = []

    def search(g, v, visit):
        tried.append(g.precision)
        return real(g, v, lambda x: x not in drop and visit(x))

    monkeypatch.setattr(units, "search_centred_ball", search)
    levels = [DEFAULT_CONFIG.precision * 2**k for k in range(ESCALATION_BUDGET + 1)]
    for query in (idempotents, is_connected):
        tried.clear()
        with pytest.raises(PrecisionExhausted):
            query(a)
        assert tried == levels
    tried.clear()
    assert main(["analyze", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "PrecisionExhausted"
    assert tried == levels


# -------------------------------------------- searches against the oracles

# the connected factors of the products below
FACTORS = {
    "z": monogenic_order(SMALL_RINGS["z"]),
    "z[i]": monogenic_order(SMALL_RINGS["z[i]"]),
    "z[w]": monogenic_order(SMALL_RINGS["z[w]"]),
    "zc4": group_ring([4])[0],
    "zeta5": example_order("zeta5"),
}


# products of up to rank 5, the small group rings, and products of rank 6
# and 7 with factors of rank 2 and 4
torsion_orders = st.one_of(
    st.lists(st.sampled_from(sorted(SMALL_RINGS)), min_size=1, max_size=3)
    .filter(lambda names: sum(2 - (n == "z") for n in names) <= 5)
    .map(small_ring_product),
    st.sampled_from([[2], [3], [4], [2, 2]]).map(lambda f: group_ring(f)[0]),
    st.lists(st.sampled_from(sorted(FACTORS)), min_size=2, max_size=3)
    .filter(lambda names: 6 <= sum(FACTORS[n].rank for n in names) <= 7)
    .map(lambda names: functools.reduce(product_order, map(FACTORS.get, names))),
)


@settings(max_examples=25, deadline=None)
@given(torsion_orders, st.integers(0, 2**32))
def test_idempotents_and_connectedness_match_the_oracle(a, seed):
    a = rebased(a, seed)
    want = oracle_idempotents(a)
    assert idempotents(a) == want
    assert is_connected(a) == (len(want) == 2)


@settings(max_examples=25, deadline=None)
@given(torsion_orders, st.integers(0, 2**32))
def test_roots_of_unity_match_the_oracle(a, seed):
    a = rebased(a, seed)
    report = roots_of_unity(a)
    assert dict(zip(report.roots, report.orders)) == oracle_roots(a)
    assert report.group_closed == oracle_group_closed(a, report.roots)
