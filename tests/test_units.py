import itertools
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
from gradus.orders import group_ring, monogenic_order, mul, order_to_json, validate
from gradus.units import (
    element_order,
    idempotents,
    is_connected,
    roots_of_unity,
    torsion_exponent,
)

from helpers import (
    SMALL_RINGS,
    brute_idempotents,
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


def test_element_order_of_primitive_twelfth_roots():
    # Z[zeta_12] = Z[x]/(x^4 - x^2 + 1), with x a primitive 12th root
    a = monogenic_order([1, 0, -1, 0, 1])
    assert torsion_exponent(a.rank) == 120
    assert element_order(a, a.unit(1)) == 12
    c12, _ = group_ring([12])
    assert element_order(c12, c12.unit(1)) == 12


def test_torsion_exponent_table():
    assert [torsion_exponent(n) for n in (0, 1, 2, 4, 6)] == [1, 2, 12, 120, 2520]


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

# products of up to rank 5, and the small group rings
torsion_orders = st.one_of(
    st.lists(st.sampled_from(sorted(SMALL_RINGS)), min_size=1, max_size=3)
    .filter(lambda names: sum(2 - (n == "z") for n in names) <= 5)
    .map(small_ring_product),
    st.sampled_from([[2], [3], [4], [2, 2]]).map(lambda f: group_ring(f)[0]),
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
    assert report.group_closed
