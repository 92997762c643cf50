"""Hard inputs answer under a counted work bound.

Each grading of an order with huge coefficients splits the reduced basis
with a few centred searches of a few visits each, whatever the size of the
lattice's short-vector pool (x^4 - 1000 has 66,462 vectors up to its largest
reduced-basis norm), and a basis vector shorter than twice the least pivot
of the reduced basis is a leaf with no search at all; each input's number
of searches is pinned exactly.  The bounds count work, not time: a search
that visits more points than the bound stops at once and fails the test.

Totally real inputs whose embeddings are out of reach, Z[C2^6] (a degree-64
characteristic polynomial with 64 integer roots of one parity) and
x^2 - 10^310 (coefficients beyond a double), answer every query on their
exact trace form, with one grading and no embeddings computed, in under
2 s each.  So does Z^14, whose roots of unity come from one search per
factor Z, of two visits each.  Each factor is searched on its own lattice,
so Z^10 x Z[zeta_32] lists 1 vector per Z and 16 for Z[zeta_32], not the
more than 10^6 of the ball of norm 16 of the whole lattice."""

import functools
import random
import time

import pytest

import gradus.embeddings as embeddings
import gradus.grading as grading
import gradus.lattices as lattices
import gradus.units as units
from gradus.config import RunConfig
from gradus.grading import universal_grading
from gradus.intlinalg import SublatticeBasis
from gradus.orders import Order, group_ring, monogenic_order, product_order
from gradus.units import idempotents, roots_of_unity

from helpers import change_of_basis, integers_power, random_unimodular, rebased

# (coefficients of the monic polynomial, low degree first; invariant
# factors; centred searches of the splitting)
HARD = {
    "x2-10^20": ([-(10**20), 0, 1], (2,), 1),
    "x2-x-10^30": ([-(10**30), -1, 1], (), 1),
    "x3-2*10^12": ([-2 * 10**12, 0, 0, 1], (3,), 3),
    "x3-10^200": ([-(10**200), 0, 0, 1], (3,), 2),
    "x4-1000": ([-1000, 0, 0, 0, 1], (4,), 3),
}


def counted_searches(monkeypatch, max_searches, max_visits):
    """Counts of the centred searches and their visits; past either bound
    the search fails the test."""
    count = {"searches": 0, "visits": 0}
    real = lattices.search_centred_ball

    def search(g, v, visit):
        count["searches"] += 1
        if count["searches"] > max_searches:
            raise AssertionError(f"more than {max_searches} centred searches")

        def counted(x):
            count["visits"] += 1
            if count["visits"] > max_visits:
                raise AssertionError(f"more than {max_visits} visits")
            return visit(x)

        return real(g, v, counted)

    def pool(*args, **kwargs):
        raise AssertionError("the grading enumerated a short-vector pool")

    monkeypatch.setattr(lattices, "search_centred_ball", search)
    monkeypatch.setattr(lattices, "enumerate_up_to", pool)
    return count


@pytest.mark.parametrize("name", list(HARD))
def test_huge_coefficients_grade_under_a_work_bound(monkeypatch, name):
    # a cyclic answer is the grading with x^k in degree k; the trivial one
    # has the whole order as its one piece
    coefficients, factors, searches = HARD[name]
    n = len(coefficients) - 1
    count = counted_searches(monkeypatch, 3 * n, 20 * n)
    go = universal_grading(monogenic_order(coefficients))
    assert go.grading.group.invariant_factors == factors
    if factors:
        unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        want = {(k,): SublatticeBasis.from_vectors(n, [unit[k]]) for k in range(n)}
    else:
        want = {(): SublatticeBasis.full(n)}
    assert dict(go.grading.pieces) == want
    assert count["searches"] == searches


@functools.cache
def exact_input(name):
    if name == "x2-10^310":
        return monogenic_order([-(10**310), 0, 1])
    a = group_ring([2] * 6)[0]
    if name == "Z[C2^6] dense":
        # 4n elementary steps give table entries up to about 10^4
        a = change_of_basis(a, random_unimodular(random.Random(name), 64, steps=256))[0]
    return a


# (name, query, its answer: the invariant factors, or the count)
EXACT = [
    (name, query, answer)
    for name, factors, roots in [
        ("Z[C2^6]", (2,) * 6, 128),
        ("Z[C2^6] dense", (2,) * 6, 128),
        ("x2-10^310", (2,), 2),
    ]
    for query, answer in [("grade", factors), ("idempotents", 2), ("units", roots)]
]


@pytest.mark.parametrize("name, query, answer", EXACT, ids=[f"{n}-{q}" for n, q, _ in EXACT])
def test_totally_real_hard_inputs_answer_on_the_exact_form(monkeypatch, name, query, answer):
    # a fresh order object on the same table: the query pays for its own
    # trace form and LLL, but not for validating the table again; every
    # query runs one grading, whose primitive idempotents the idempotent
    # and root queries read
    a = exact_input(name)
    a = Order(a.rank, a.table, a.one)
    calls, gradings = [], []
    real, real_grading = embeddings._proposed_embeddings, grading._grading_from_gram
    monkeypatch.setattr(
        embeddings, "_proposed_embeddings", lambda *args: calls.append(args) or real(*args)
    )
    monkeypatch.setattr(
        grading, "_grading_from_gram", lambda *args: gradings.append(args) or real_grading(*args)
    )
    run = {
        "grade": lambda: universal_grading(a).grading.group.invariant_factors,
        "idempotents": lambda: len(idempotents(a)),
        "units": lambda: roots_of_unity(a).count,
    }[query]
    start = time.perf_counter()
    assert run() == answer
    assert time.perf_counter() - start < 2
    assert calls == []
    assert len(gradings) == 1


@pytest.mark.parametrize("k, visits", [(8, 16), (14, 28)])
def test_roots_of_z_k_visit_about_one_point_per_pair(monkeypatch, k, visits):
    # the budget of a Fincke-Pohst search is kept on its own grid 2**(-2K),
    # so a coordinate of true cost 1 is charged in full: each factor Z of
    # Z^k is searched on its own form at norm 1, over its pair +-1 and its
    # origin, two visits per factor
    a = integers_power(k)
    count, calls = [0], []
    real_search, real_embeddings = lattices._fincke_pohst, embeddings._proposed_embeddings

    def search(D, M, C, limit, visit):
        def counted(x):
            count[0] += 1
            return visit(x)

        return real_search(D, M, C, limit, counted)

    monkeypatch.setattr(lattices, "_fincke_pohst", search)
    monkeypatch.setattr(
        embeddings, "_proposed_embeddings", lambda *args: calls.append(args) or real_embeddings(*args)
    )
    start = time.perf_counter()
    report = roots_of_unity(a)
    assert time.perf_counter() - start < 2
    assert report.count == 2**k and report.group_closed
    assert count[0] == visits
    assert calls == []


@pytest.mark.parametrize("k, seed", [(10, None), (8, 0)])
def test_roots_of_z_k_times_z_zeta32_search_each_factor_alone(monkeypatch, k, seed):
    # the ball of norm 16 of the whole lattice of Z^10 x Z[zeta_32] holds
    # more than 10^6 vectors (Z^8 x Z[zeta_32], rebased: 153,040); each
    # factor's own ball of norm r_i holds its pair +-1 in Z and the 16 pairs
    # +-zeta^j in Z[zeta_32], so a cap of 16 vectors per search suffices
    z, zeta32 = monogenic_order([-1, 1]), monogenic_order([1] + [0] * 15 + [1])
    a = functools.reduce(product_order, [z] * k + [zeta32])
    if seed is not None:
        a = rebased(a, seed)
    pools = []
    real = units.enumerate_up_to

    def pooled(*args):
        pools.append(real(*args))
        return pools[-1]

    monkeypatch.setattr(units, "enumerate_up_to", pooled)
    report = roots_of_unity(a, RunConfig(enumeration_cap=16))
    assert report.count == 2**k * 32 and report.group_closed
    assert [len(p) for p in pools] == [1] * k + [16]
