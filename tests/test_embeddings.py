import cmath
import functools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from sympy import Matrix, symbols

import gradus.embeddings as embeddings
import gradus.lattices as lattices
import gradus.orders as orders
from gradus.embeddings import (
    compute_embeddings,
    gram,
    trace_form,
    with_gram,
)
from gradus.errors import (
    AmbiguousSign,
    AmbiguousZero,
    DegenerateSplitting,
    EscalationNeeded,
    NotReduced,
)
from gradus.examples import example_names, example_order
from gradus.lattices import (
    GramForm,
    enumerate_up_to,
    gram_from_strings,
    grid_str,
    is_nonneg,
    is_zero,
    norm,
)
from gradus.config import DEFAULT_CONFIG
from gradus.grading import universal_grading
from gradus.orders import (
    charpoly_rows,
    is_reduced,
    group_ring,
    monogenic_order,
    nilradical,
    product_order,
    quotient_order,
    regular_matrix,
    trace_gram,
    trace_vector,
    validate,
)
from gradus import grading
from gradus.units import idempotents, roots_of_unity

from helpers import (
    SMALL_RINGS,
    as_mpc,
    cm_mutants,
    mpf_grid_point,
    oracle_cm_checks,
    oracle_cm_form,
    oracle_embeddings,
    oracle_gram,
    oracle_grid_str,
    oracle_hom_residual,
    real,
    rebased,
    rebased_samples,
    reference_roots,
    small_ring_product,
)


def close(a, b, tol):
    return abs(a - b) <= tol


def rows_as_set(e):
    rows = as_mpc(e).sigma
    return {tuple((mp.nstr(mp.re(x), 12), mp.nstr(mp.im(x), 12)) for x in row) for row in rows}


def test_embeddings_zc2():
    a, _ = group_ring([2])
    e = compute_embeddings(a)
    assert e.n == 2
    want = {(("1.0", "0.0"), ("1.0", "0.0")), (("1.0", "0.0"), ("-1.0", "0.0"))}
    assert rows_as_set(e) == want


def test_embeddings_integers():
    a = monogenic_order([-1, 1])
    e = compute_embeddings(a)
    assert e.n == 1
    assert e.rows == (((1 << (e.precision + embeddings.FIXED_GUARD_BITS),), (0,)),)
    assert e.residual == 0


def test_embeddings_zsqrt2_matches_root_oracle():
    a = monogenic_order([-2, 0, 1])
    e = as_mpc(compute_embeddings(a))
    with mp.workprec(e.precision):
        root = mp.sqrt(2)
        vals = sorted((mp.re(row[1]) for row in e.sigma))
        assert close(vals[0], -root, mpf(10) ** -40)
        assert close(vals[1], root, mpf(10) ** -40)


def test_embeddings_require_reduced():
    with pytest.raises(NotReduced):
        compute_embeddings(monogenic_order([0, 0, 1]))


def test_embeddings_each_row_multiplicative():
    a = example_order("kummer6")
    e = as_mpc(compute_embeddings(a))
    tol = mpf(2) ** (-e.precision // 2 + 8)
    with mp.workprec(e.precision):
        for row in e.sigma:
            for i in range(a.rank):
                for j in range(a.rank):
                    lin = mp.fsum(
                        t * row[m] for m, t in enumerate(a.table[i][j]) if t
                    )
                    assert abs(row[i] * row[j] - lin) <= tol


def test_gram_zc2():
    a, _ = group_ring([2])
    g = gram(compute_embeddings(a))
    for i in range(2):
        for j in range(2):
            assert close(real(g, g.entries[i][j]), 2 * int(i == j), real(g, g.tolerance))


def test_gram_zsqrt2_hand_values():
    g = gram(compute_embeddings(monogenic_order([-2, 0, 1])))
    want = [[2, 0], [0, 4]]
    for i in range(2):
        for j in range(2):
            assert close(real(g, g.entries[i][j]), want[i][j], real(g, g.tolerance))


def test_gram_golden_hand_values():
    g = gram(compute_embeddings(monogenic_order([-1, -1, 1])))
    want = [[2, 1], [1, 3]]
    for i in range(2):
        for j in range(2):
            assert close(real(g, g.entries[i][j]), want[i][j], real(g, g.tolerance))


@pytest.mark.parametrize(
    "name", ["z", "zc2", "zc3", "zc2c2", "zsqrt2", "golden", "zeta5", "kummer6", "parity5"]
)
def test_norm_of_one_is_rank(name):
    a = example_order(name)
    g = gram(compute_embeddings(a))
    assert close(real(g, norm(g, a.one)), a.rank, real(g, g.tolerance))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=2))
def test_group_ring_gram_is_order_times_identity(factors):
    a, elems = group_ring(factors)
    n = a.rank
    g = gram(compute_embeddings(a))
    for i in range(n):
        for j in range(n):
            assert close(real(g, g.entries[i][j]), n * int(i == j), real(g, g.tolerance))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_zeta5_norm_formula(coords):
    # the squared length of the image of sum x_g g is the sum of squared
    # coordinate differences over unordered pairs
    zc5, _ = group_ring([5])
    q, proj = quotient_order(zc5, [(1, 1, 1, 1, 1)])
    g = gram(compute_embeddings(q))
    img = proj.vec_mat(coords)
    want = sum(
        (coords[i] - coords[j]) ** 2 for i in range(5) for j in range(i + 1, 5)
    )
    assert close(real(g, norm(g, img)), want, real(g, g.tolerance))


def test_parity_ring_short_vector():
    a = example_order("parity5")
    g = gram(compute_embeddings(a))
    # (2,0,0,0,0) in ambient Z^5 is 2*u - 2e1 - 2e2 - 2e3 - 2e4 in the basis
    coords = (2, -1, -1, -1, -1)
    assert close(real(g, norm(g, coords)), 4, real(g, g.tolerance))
    assert a.rank == 5


@pytest.mark.parametrize("name", ["zc3", "zsqrt2", "kummer6", "parity5"])
def test_norm_bounds_count_of_nonvanishing_embeddings(name):
    a = example_order(name)
    e = compute_embeddings(a)
    g = gram(e)
    tol = real(g, g.tolerance)
    with mp.workprec(g.precision):
        for v in enumerate_up_to(g, (a.rank + 2) << g.precision):
            hits = 0
            for row in as_mpc(e).sigma:
                val = mp.fsum(c * row[i] for i, c in enumerate(v) if c)
                if abs(val) > tol:
                    hits += 1
            assert real(g, norm(g, v)) >= hits - tol


def test_zero_and_sign_bands():
    g = gram_from_strings([["2", "0"], ["0", "2"]], precision=128)
    tol = g.tolerance
    assert is_zero(g, tol // 2)
    assert not is_zero(g, tol * (1 << 20))
    with pytest.raises(AmbiguousZero):
        is_zero(g, tol * 16)
    assert is_nonneg(g, -tol // 2)
    assert not is_nonneg(g, -tol * (1 << 20))
    with pytest.raises(AmbiguousSign):
        is_nonneg(g, -tol * 16)


def test_gram_from_strings_validation():
    with pytest.raises(ValueError):
        gram_from_strings([["1", "2"], ["3", "4"]])
    with pytest.raises(ValueError):
        gram_from_strings([["1", "2", "0"], ["2", "1", "0"]])


# ----------------------------------------- reading and printing grid values

GRID_BITS = st.sampled_from([64, 192, 768, 3072])


def entry_grid(x, p):
    return gram_from_strings([[x]], precision=p).entries[0][0]


@st.composite
def dyadic_decimals(draw, p):
    # m * 2**e with |m| < 2**p, written out exactly as a decimal string;
    # e = -p - 1 puts odd m on a tie between two grid points
    m = draw(st.integers(-(1 << p) + 1, (1 << p) - 1))
    e = draw(st.one_of(st.integers(-p - 40, 40), st.just(-p - 1)))
    return str(m << e) if e >= 0 else f"{m * 5**-e}e{e}"


@settings(max_examples=150, deadline=None)
@given(st.data(), GRID_BITS)
def test_entries_are_read_onto_the_nearest_grid_point(data, p):
    # one exact rounding, ties to even; where the value has at most p
    # significant bits it is also what the mpf reader gave
    x = data.draw(
        st.one_of(
            st.integers(-(1 << p) + 1, (1 << p) - 1),
            st.floats(allow_nan=False, allow_infinity=False),
            dyadic_decimals(p),
        )
    )
    got = entry_grid(x, p)
    assert got == round(Fraction(Decimal(x)) * (1 << p))
    assert got == mpf_grid_point(x, p)


@settings(max_examples=150, deadline=None)
@given(st.decimals(allow_nan=False, allow_infinity=False), GRID_BITS)
def test_long_decimals_stay_within_a_grid_step_of_the_mpf_reader(d, p):
    # the mpf reader rounded to p significant bits first: the two differ
    # only beyond p bits, by at most one step plus that relative rounding
    got = entry_grid(str(d), p)
    assert got == round(Fraction(d) * (1 << p))
    old = mpf_grid_point(str(d), p)
    assert abs(got - old) <= 1 + (abs(old) >> (p - 1))


def test_tiny_entries_read_as_zero_without_their_power_of_ten():
    assert gram_from_strings([["1e-999999999"]]).entries == ((0,),)
    assert gram_from_strings([["-7e-193"]], precision=192).entries == ((0,),)
    want = round(Fraction(1, 10**57) * 2**192)
    assert gram_from_strings([["1e-57"]], precision=192).entries == ((want,),)


def test_symmetry_is_checked_on_the_grid_points():
    # 1e-80 is under half a step of the grid at 192 bits
    assert gram_from_strings([["1", "1e-80"], ["0", "1"]]).entries == ((1 << 192, 0), (0, 1 << 192))
    with pytest.raises(ValueError):
        gram_from_strings([["1", "1e-50"], ["0", "1"]])


def half_point(rng, p, digits, bits):
    # the grid point at +-1 from (k + 1/2) * 10**e, k of `digits` digits,
    # near 2**bits on the grid: the digit after the last printed one is a 5
    k = rng.randrange(10 ** (digits - 1), 10**digits)
    e = int((bits - p) * 0.30103) - digits + 1
    num, den = (2 * k + 1) * 10 ** max(e, 0), 2 * 10 ** max(-e, 0)
    return (num << p) // den + rng.randrange(-1, 2)


@settings(max_examples=200, deadline=None)
@given(GRID_BITS, st.booleans(), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_grid_str_rounds_half_away_from_zero(p, wide, half, negative, rng):
    # exact rationals are the oracle.  x has a uniform number of bits up to
    # p + 3000, or sits within a grid step of a decimal tie, where a
    # half-even, truncating or double rounding misprints the last digit
    digits = max(8, int(0.301 * p) - 8) if wide else 8
    bits = rng.randrange(1, p + 3000)
    x = half_point(rng, p, digits, bits) if half else rng.getrandbits(bits) | 1 << (bits - 1)
    x = -x if negative else x
    assert grid_str(GramForm(0, (), p, 0), x, digits) == oracle_grid_str(x, p, digits)


@pytest.mark.parametrize("p", [64, 192, 768])
def test_grid_str_near_ties_and_layout_edges(p):
    # ties and their neighbours at every bit length around digits * log2(10),
    # and every decimal exponent around the edges of the fixed-point layout
    rng = random.Random(p)
    g = GramForm(0, (), p, 0)
    for digits in (8, max(8, int(0.301 * p) - 8)):
        span = int(digits * 3.33)
        bits = [b for b in range(span - 10, span + 60) for _ in range(4)]
        xs = [half_point(rng, p, digits, b) for b in bits]
        for e in (-(digits // 3), -5, digits - 1, digits):
            xs += [round(Fraction(3, 2) * Fraction(10) ** (e + dx) * 2**p) for dx in (-1, 0, 1)]
        for x in xs + [-x for x in xs]:
            assert grid_str(g, x, digits) == oracle_grid_str(x, p, digits)
    # a tie rounds away from zero, and a value a hair above the tie
    # 1.00000005e-4 rounds up (mpmath's nstr, which floors its leading bits
    # before rounding, prints 0.0001 at p = 64)
    assert grid_str(g, 5 << (p - 2), 2) == "1.3"
    assert grid_str(g, -5 << (p - 2), 2) == "-1.3"
    x = -(-100000005 * 2**p // 10**12)
    assert grid_str(g, x, 8) == oracle_grid_str(x, p, 8) == "0.00010000001"


def test_grid_str_formats():
    g = GramForm(0, (), 64, 0)
    assert grid_str(g, 0, 8) == "0.0"
    assert grid_str(g, 5 << 64, 8) == "5.0"
    assert grid_str(g, -(3 << 62), 8) == "-0.75"
    assert grid_str(g, (10**8 - 1) << 64, 8) == "99999999.0"
    assert grid_str(g, 10**8 << 64, 8) == "1.0e+8"
    assert grid_str(g, 1, 8) == "5.4210109e-20"
    # more digits than int and str convert by default: 1 - 10**(-5200)
    # rounds up through 5,109 nines
    g = GramForm(0, (), 17300, 0)
    x = (10**5200 - 1 << 17300) // 10**5200
    assert grid_str(g, x, 5109) == mp.nstr(real(g, x), 5109) == "1.0"
    assert grid_str(g, -x // 3, 5109) == mp.nstr(real(g, -x // 3), 5109)


def test_embeddings_retry_when_qr_does_not_converge():
    # Z x Z[i] x Z on a rebased basis: at 192 bits and seed 0 the first
    # splitting element repeats an eigenvalue (mp.eig's QR iteration did not
    # converge on it); its characteristic polynomial is not squarefree, so
    # it is rejected exactly and the next element must be tried
    table = [
        [(-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (-3, 0, 0, 0)],
        [(0, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 0), (0, -2, 0, 0)],
        [(0, 0, 0, 0), (0, 0, 0, 0), (-3, -2, 0, 1), (0, 0, -1, 0)],
        [(-3, 0, 0, 0), (0, -2, 0, 0), (0, 0, -1, 0), (-6, -2, 0, -1)],
    ]
    a = validate(table, (2, 1, 0, -1))
    e = compute_embeddings(a, 192, 0)
    assert e.n == 4
    assert roots_of_unity(a).count == 16


@pytest.mark.parametrize("name", ["zsqrt2", "kummer6", "zeta5", "parity5"])
def test_embeddings_fall_back_when_the_start_fails(monkeypatch, name):
    # when the double-precision proposer gives up on the first splitting
    # element, the next seeded element gives the same embeddings, in the
    # order of its own eigenvalues
    a = example_order(name)
    want = compute_embeddings(a, 192, 0)
    real_aberth = embeddings._aberth
    calls = []

    def aberth(chi):
        calls.append(chi)
        return None if len(calls) == 1 else real_aberth(chi)

    monkeypatch.setattr(embeddings, "_aberth", aberth)
    got = compute_embeddings(a, 192, 0)
    assert len(calls) == 2 and calls[0] != calls[1]
    assert (got.n, got.precision) == (want.n, want.precision)
    with mp.workprec(192):
        bound = mpf(2) ** -96
        matched = [
            k
            for row in as_mpc(got).sigma
            for k, w in enumerate(as_mpc(want).sigma)
            if all(abs(x - y) <= bound for x, y in zip(row, w))
        ]
    assert sorted(matched) == list(range(want.n))


def test_embeddings_raise_unrelated_root_errors(monkeypatch):
    # only a failed proposal means "try the next element"; any other
    # exception from the root step is a fault and propagates
    def aberth(chi):
        raise RuntimeError("unrelated fault")

    monkeypatch.setattr(embeddings, "_aberth", aberth)
    with pytest.raises(RuntimeError, match="unrelated fault"):
        compute_embeddings(example_order("zsqrt2"), 192, 0)


def test_repeated_eigenvalue_is_skipped_exactly(monkeypatch):
    # Z[sqrt2] at 256 bits and seed 3 draws z = -8 first, so chi = (x + 8)^2:
    # the element is rejected by the exact squarefree test, before any root
    # is computed, and the next one is used
    a = example_order("zsqrt2")
    rng = random.Random("3:256:0")
    assert [rng.randrange(-16, 17) for _ in range(2)] == [-8, 0]
    assert charpoly_rows(a, (-8, 0))[0] == (1, 16, 64)
    calls = []
    real = embeddings._roots
    monkeypatch.setattr(embeddings, "_roots", lambda chi, *rest: calls.append(chi) or real(chi, *rest))
    e = compute_embeddings(a, 256, 3)
    assert e.n == 2 and e.precision == 256
    assert (1, 16, 64) not in calls and len(calls) == 1


@pytest.mark.parametrize("name", example_names())
def test_charpoly_matches_sympy(name):
    a = example_order(name)
    rng = random.Random(name)
    for _ in range(3):
        z = [rng.randrange(-9, 10) for _ in range(a.rank)]
        m = Matrix([list(r) for r in regular_matrix(a, z).entries])
        want = tuple(int(c) for c in m.charpoly(symbols("x")).all_coeffs())
        chi, betas = charpoly_rows(a, z)
        assert chi == want
        assert betas[0] == trace_vector(a)


def test_embeddings_deterministic_for_seed():
    a = example_order("kummer6")
    e1 = compute_embeddings(a, seed=7)
    e2 = compute_embeddings(a, seed=7)
    assert e1.rows == e2.rows


@pytest.mark.parametrize("name", ["zxz", "zc2c2", "zeta5", "kummer6"])
def test_embedding_rows_pairwise_distinct(name):
    a = example_order(name)
    e = compute_embeddings(a)
    g = gram(e)
    e = as_mpc(e)
    with mp.workprec(e.precision):
        for i in range(e.n):
            for j in range(i + 1, e.n):
                gap = max(abs(x - y) for x, y in zip(e.sigma[i], e.sigma[j]))
                assert gap > real(g, g.tolerance)


REBASED = rebased_samples()


@pytest.mark.parametrize("name", list(REBASED))
def test_embeddings_follow_a_change_of_basis(name):
    # sigma(u_i) = sum_j U_ij sigma(e_j): the rows on the new basis are the
    # old rows mapped through U, in some order
    a, u, b = REBASED[name]
    e, eb = as_mpc(compute_embeddings(a)), as_mpc(compute_embeddings(b))
    with mp.workprec(e.precision):
        bound = mpf(2) ** (-(e.precision // 2))
        mapped = [
            [mp.fsum(c * row[j] for j, c in enumerate(ui) if c) for ui in u] for row in e.sigma
        ]
        matches = [
            [k for k, m in enumerate(mapped) if max(abs(x - y) for x, y in zip(row, m)) <= bound]
            for row in eb.sigma
        ]
    assert sorted(k for hits in matches for k in hits) == list(range(a.rank))


# ------------------------------------------------- rows against mp.eig


def assert_rows_match_the_oracle(a, precision=192, seed=0):
    # the embeddings do not depend on the splitting element, so the rows
    # must agree as sets, each within 2**(-p/2) of exactly one oracle row
    e = as_mpc(compute_embeddings(a, precision, seed))
    want = oracle_embeddings(a, precision, seed)
    with mp.workprec(precision):
        bound = mpf(2) ** (-(precision // 2))
        matches = [
            [
                k
                for k, other in enumerate(want.sigma)
                if all(abs(x - y) <= bound * (1 + abs(y)) for x, y in zip(row, other))
            ]
            for row in e.sigma
        ]
    assert sorted(k for hits in matches for k in hits) == list(range(a.rank))


# products of up to rank 5, and the cyclic group rings Z[C2] .. Z[C6]
oracle_orders = st.one_of(
    st.lists(st.sampled_from(sorted(SMALL_RINGS)), min_size=1, max_size=3)
    .filter(lambda names: sum(2 - (n == "z") for n in names) <= 5)
    .map(small_ring_product),
    st.integers(2, 6).map(lambda m: group_ring([m])[0]),
)


@settings(max_examples=30, deadline=None)
@given(oracle_orders, st.integers(0, 2**32), st.sampled_from([128, 192, 256]), st.integers(0, 3))
def test_embeddings_match_the_oracle(a, basis_seed, precision, seed):
    assert_rows_match_the_oracle(rebased(a, basis_seed), precision, seed)


ORACLE_FIXTURES = {
    **{name: example_order(name) for name in example_names() if is_reduced(example_order(name))},
    "x^3-150": monogenic_order([-150, 0, 0, 1]),
    "x^4-20": monogenic_order([-20, 0, 0, 0, 1]),
}


@pytest.mark.parametrize("name", list(ORACLE_FIXTURES))
def test_embeddings_match_the_oracle_on_fixtures(name):
    assert_rows_match_the_oracle(ORACLE_FIXTURES[name])


# ---------------------------------------- grid rows, residual and Gram form


def threshold(e):
    # the bound compute_embeddings holds the residual to, 2**(-p/2) n (1 +
    # max|sigma|)^2, for mpc rows
    biggest = max(abs(s) for row in e.sigma for s in row)
    return mpf(2) ** (-(e.precision // 2)) * e.n * (1 + biggest) ** 2


def nudged(e, k, bits):
    # e with its k-th row moved by 2**(-bits) in its last entry, and the
    # conjugate row (if any) moved to match
    eps = 1 << (e.precision + embeddings.FIXED_GUARD_BITS - bits)
    re, im = e.rows[k]
    moved = re[:-1] + (re[-1] + eps,)
    conj = tuple(-y for y in im)
    rows = list(e.rows)
    for i, other in enumerate(e.rows):
        if other == (re, conj):
            rows[i] = (moved, conj)
    rows[k] = (moved, im)
    return embeddings.EmbeddingMatrix(e.n, tuple(rows), e.precision, e.residual)


@settings(max_examples=30, deadline=None)
@given(
    oracle_orders,
    st.integers(0, 2**32),
    st.sampled_from([128, 192, 256]),
    st.integers(0, 3),
    st.sampled_from([None, 4]),
    st.integers(0, 5),
)
def test_residual_is_the_oracle_residual_of_the_grid_rows(
    a, basis_seed, precision, seed, nudge, row
):
    # the integer residual is the residual of the grid rows rounded up to
    # the grid 2**(-2q)Z, exactly, also on rows moved by 2**(-p/4), and the
    # residual kept for one row of each conjugate pair is that of all rows
    b = rebased(a, basis_seed)
    e = compute_embeddings(b, precision, seed)
    if nudge:
        e = nudged(e, row % e.n, precision // nudge)
    q = precision + embeddings.FIXED_GUARD_BITS
    got = embeddings._hom_residual(b, e.rows, q)
    if not nudge:
        assert got == e.residual
    rows = as_mpc(e)
    # the rows are exact binary numbers, and at 8q bits the oracle's
    # rounding is far below the distance of an irrational residual from
    # the grid 2**(-2q)Z
    with mp.workprec(8 * q):
        true = oracle_hom_residual(b, rows.sigma)
        assert got == int(mp.ceil(mp.ldexp(true, 2 * q)))
    with mp.workprec(precision):
        assert (true <= threshold(rows)) == (not nudge)


@settings(max_examples=30, deadline=None)
@given(oracle_orders, st.integers(0, 2**32), st.sampled_from([128, 192, 256]), st.integers(0, 3))
def test_gram_matches_the_oracle(a, basis_seed, precision, seed):
    # on the grid 2**(-p)Z, in integers: every entry is within 2**(8-p) (1 +
    # max|entry|) of the oracle's, and the tolerance, max(|entry|, 2**p)
    # >> (p/3), within that bound >> (p/3) plus the one unit of its floor
    e = compute_embeddings(rebased(a, basis_seed), precision, seed)
    g, h = gram(e), oracle_gram(as_mpc(e))
    p, shift = precision, precision - 8
    limit = (1 << p) + max(abs(x) for row in h.entries for x in row)
    for r, s in zip(g.entries, h.entries):
        for x, y in zip(r, s):
            assert abs(x - y) << shift <= limit
    shift += p // lattices.TOLERANCE_EXPONENT
    assert abs(g.tolerance - h.tolerance) << shift <= limit + (1 << shift)


@pytest.mark.parametrize("name", ["zsqrt2", "zeta5", "kummer6", "zc6"])
def test_a_row_moved_by_a_quarter_of_the_bits_escalates(monkeypatch, name):
    real = embeddings._row

    def moved(a, columns, lam, bits, q):
        re, im = real(a, columns, lam, bits, q)
        p = q - embeddings.FIXED_GUARD_BITS
        return re[:-1] + (re[-1] + (1 << (q - p // 4)),), im

    monkeypatch.setattr(embeddings, "_row", moved)
    with pytest.raises(EscalationNeeded):
        compute_embeddings(example_order(name))


def test_roots_beyond_double_range_give_grid_rows():
    # chi = x^2 - 10^310 overflows a double, and the Aberth iteration on
    # chi(s x)/s^2 still proposes its roots: the rows are (1, +-10^155)
    # within one grid unit, and real roots give real rows
    e = compute_embeddings(monogenic_order([-(10**310), 0, 1]), 192)
    q = 192 + embeddings.FIXED_GUARD_BITS
    assert e.precision == 192
    for (re, im), sign in zip(sorted(e.rows, key=lambda row: row[0][1]), (-1, 1)):
        assert abs(re[0] - (1 << q)) <= 1 and abs(re[1] - sign * (10**155 << q)) <= 1
        assert im == (0, 0)


def test_cube_root_beyond_double_range_is_certified():
    # x^3 - 10^200: one real and two complex rows, each within the residual
    # bound of compute_embeddings, which is the exact residual of the rows
    a = monogenic_order([-(10**200), 0, 0, 1])
    e = compute_embeddings(a, 192)
    q = 192 + embeddings.FIXED_GUARD_BITS
    assert e.n == 3 and sum(im == (0, 0, 0) for _, im in e.rows) == 1
    assert e.residual == embeddings._hom_residual(a, e.rows, q)
    rows = as_mpc(e)
    with mp.workprec(192):
        assert mpf(e.residual) / 2 ** (2 * q) <= threshold(rows)
        cube = mpf(10) ** 200
        for row in rows.sigma:
            assert abs(row[1] ** 3 - cube) <= cube * mpf(2) ** -150


@pytest.mark.parametrize("bits", [64, 192])
def test_newton_gives_up_without_quadratic_convergence(bits):
    # the double root of x^2 - 2x + 1 halves each step, so no full-grid step
    # gets below 2^(-bits/2); at x^2 from 0, chi' vanishes at the start
    assert embeddings._newton([1, -2, 1], 1.1, 0, bits) is None
    assert embeddings._newton([1, 0, 0], 0.0, 0, bits) is None
    root = embeddings._newton([1, 0, -2], 1.4, 0, bits)
    assert root is not None and abs(root[0] - math.isqrt(2 << 2 * bits)) <= 1


def test_a_failed_newton_moves_on_to_the_next_splitting_element(monkeypatch):
    # Newton fails on every start of the first splitting element's chi, so
    # its roots are None after the first pass, and the embeddings come from
    # a later element
    first = compute_embeddings(example_order("kummer6"))
    bad = []
    real_newton = embeddings._newton

    def newton(chi, *rest):
        bad[:] = bad or [chi]
        return None if chi == bad[0] else real_newton(chi, *rest)

    monkeypatch.setattr(embeddings, "_newton", newton)
    e = compute_embeddings(example_order("kummer6"))
    assert e.splitting != first.splitting and e.residual is not None
    assert len(e.rows) == e.n == 6


def test_an_aberth_iteration_without_sweeps_proposes_no_roots(monkeypatch):
    # no splitting element gets roots: the reduced zc5 is degenerate, and
    # the dual numbers, whose chi is never squarefree, are not reduced
    monkeypatch.setattr(embeddings, "ABERTH_SWEEPS", 0)
    assert embeddings._aberth([1, 0, -2]) is None
    with pytest.raises(DegenerateSplitting):
        compute_embeddings(example_order("zc5"))
    with pytest.raises(NotReduced):
        compute_embeddings(example_order("dual"))


@pytest.mark.parametrize("start", [complex(math.inf, 0), 1 + 0j])
def test_an_aberth_iteration_that_breaks_down_proposes_no_roots(monkeypatch, start):
    # every start at the same point: at infinity the value of chi is not
    # finite, and at 1 the repulsion divides by zero; neither settles
    monkeypatch.setattr(
        embeddings, "cmath", SimpleNamespace(exp=lambda z: start, isfinite=cmath.isfinite)
    )
    assert embeddings._aberth([1, 0, 1]) is None


def test_roots_are_refused_when_the_refined_roots_outnumber_the_starts(monkeypatch):
    # one made-up start for x^2 + 1: it refines to i, which stands for the
    # pair +-i, two roots for one start, so no roots are returned
    monkeypatch.setattr(embeddings, "_aberth", lambda chi: (0, [0.1 + 0.9j]))
    assert embeddings._roots([1, 0, 1], 128, 1 << 80) is None


def test_the_zero_ring_has_no_embeddings_and_the_empty_form():
    # rank 0: no rows and residual 0, the empty form on the working grid,
    # no short vectors, and one point in every centred ball, the empty one
    p = DEFAULT_CONFIG.precision
    e = compute_embeddings(validate([], []))
    assert e == embeddings.EmbeddingMatrix(0, (), p, 0)
    g = gram(e)
    assert g == GramForm(0, (), p, 0)
    assert enumerate_up_to(g, 1 << p) == []
    visited = []
    assert lattices.search_centred_ball(g, (), lambda x: visited.append(x) or True) is True
    assert lattices.search_centred_ball(g, (), visited.append) is False
    assert visited == [(), ()]


# chi (leading coefficient first), real roots, conjugate pairs
ROOT_CASES = {
    # (x - 10^6)^2 + 1: the pair 10^6 +- i lies a millionth of its size off
    # the real axis, and its two starts are each other's mirror images
    "pair-near-axis": ([1, -2 * 10**6, 10**12 + 1], 0, 1),
    # one real root and one pair, beyond double range
    "x3-10^200": ([1, 0, 0, -(10**200)], 1, 1),
    # x^4 - 2: the start of the real root -2^(1/4) has Im < 0 and no mirror,
    # so a plain Im >= 0 filter would miss it and refine all four starts
    "x4-2": ([1, 0, 0, 0, -2], 2, 1),
}


@pytest.mark.parametrize("name", list(ROOT_CASES))
def test_newton_refines_one_start_per_conjugate_pair(monkeypatch, name):
    chi, n_real, n_pairs = ROOT_CASES[name]
    p = 192
    bits = p + 64
    floor = 1 << (bits - p // 4)
    want = reference_roots(chi, bits, floor)
    starts = embeddings._aberth(chi)[1]
    if name == "x4-2":
        assert any(-1e-10 < x.imag < 0 for x in starts)
    calls = []
    real_newton = embeddings._newton
    monkeypatch.setattr(
        embeddings, "_newton", lambda chi, x, *rest: calls.append(x) or real_newton(chi, x, *rest)
    )
    got = embeddings._roots(chi, bits, floor)
    assert got == want
    assert sum(im == 0 for _, im in got) == n_real and len(got) == n_real + n_pairs
    assert len(calls) == n_real + n_pairs


def test_skipped_starts_are_refined_when_the_kept_ones_do_not_account_for_every_root(
    monkeypatch,
):
    # x^2 - 2 from two made-up starts (the roots are 2 * start): the upper
    # start lies nearer to the lower one's conjugate than the lower one
    # does, so the lower one is skipped, but the upper one refines to the
    # real root +sqrt2 alone; then the skipped start, and only it, is
    # refined, to -sqrt2, and the answer is the reference's
    chi = [1, 0, -2]
    monkeypatch.setattr(embeddings, "_aberth", lambda chi: (1, [0.1 + 0.5j, -0.4 - 0.5j]))
    bits, floor = 128, 1 << 80
    want = reference_roots(chi, bits, floor)
    calls = []
    real_newton = embeddings._newton
    monkeypatch.setattr(
        embeddings, "_newton", lambda chi, x, *rest: calls.append(x) or real_newton(chi, x, *rest)
    )
    got = embeddings._roots(chi, bits, floor)
    assert got == want
    assert [(re > 0, im) for re, im in got] == [(True, 0), (False, 0)]
    assert calls == [0.1 + 0.5j, -0.4 - 0.5j]


@pytest.mark.parametrize(
    "a",
    [example_order(name) for name in example_names()]
    + [rebased(group_ring(f)[0], 0) for f in ([8], [3, 3], [12], [2, 2, 2])],
    ids=example_names() + ["zc8", "zc3c3", "zc12", "zc2c2c2"],
)
def test_roots_match_the_reference_that_refines_every_start(monkeypatch, a):
    seen = []
    real_roots = embeddings._roots

    def roots(chi, bits, floor):
        got = real_roots(chi, bits, floor)
        seen.append((chi, bits, floor, got))
        return got

    monkeypatch.setattr(embeddings, "_roots", roots)
    try:
        compute_embeddings(a)
    except NotReduced:
        assert not seen  # no chi of a non-reduced order is squarefree
    for chi, bits, floor, got in seen:
        assert got == reference_roots(chi, bits, floor)


# ------------------------------------------------ the exact trace form

# x^2 - d, x^2 - x - d and Z, all totally real
REAL_QUADRATICS = st.one_of(
    st.integers(2, 60).filter(lambda d: math.isqrt(d) ** 2 != d).map(lambda d: [-d, 0, 1]),
    st.integers(1, 60).map(lambda d: [-d, -1, 1]),
    st.just([-1, 1]),
)

totally_real_orders = st.one_of(
    st.lists(REAL_QUADRATICS, min_size=1, max_size=3).map(
        lambda fs: functools.reduce(product_order, map(monogenic_order, fs))
    ),
    # of the group rings of 2-groups, those of exponent 2 are totally real
    st.integers(1, 4).map(lambda k: group_ring([2] * k)[0]),
)


@settings(max_examples=30, deadline=None)
@given(totally_real_orders, st.integers(0, 2**32))
def test_the_exact_form_is_the_numeric_form_of_a_totally_real_order(a, seed):
    # the trace form on the grid p = 0, moved onto the grid of the numeric
    # form, is that form within its tolerance
    a = rebased(a, seed)
    exact = trace_form(a)
    assert (exact.precision, exact.tolerance) == (0, 0)
    assert exact.entries == trace_gram(a).entries
    g = gram(compute_embeddings(a))
    assert all(
        abs(x - (y << g.precision)) <= g.tolerance
        for row, erow in zip(g.entries, exact.entries)
        for x, y in zip(row, erow)
    )


@pytest.mark.parametrize("name", ["zc3", "zc4", "zsqrtm1", "zeta5", "kummer6", "dual"])
def test_an_order_that_is_not_totally_real_is_rejected_at_its_first_bad_pivot(monkeypatch, name):
    # Sylvester's test reads the rows of the trace form T only up to the
    # first leading minor <= 0, and decides once per order; T is formed
    # from the table once per order, and the CM form and the nilradical
    # read that T
    t = Matrix(trace_gram(example_order(name)).entries)
    first_bad = next(k for k in range(1, t.rows + 1) if t[:k, :k].det() <= 0)
    read, formed = [], []
    real_minors, real_times = embeddings.leading_minors, orders.table_times

    def minors(rows, *floor):
        return real_minors((read.append(i) or row for i, row in enumerate(rows)), *floor)

    def times(a, v):
        if v is trace_vector(a):
            formed.append(v)
        return real_times(a, v)

    monkeypatch.setattr(embeddings, "leading_minors", minors)
    for module in (orders, embeddings):
        monkeypatch.setattr(module, "table_times", times)
    a = example_order(name)
    assert trace_form(a) is None
    assert trace_form(a) is None
    assert read == list(range(first_bad))
    try:
        embeddings.cm_form(a, DEFAULT_CONFIG.precision, DEFAULT_CONFIG.seed)
    except NotReduced:
        assert name == "dual"
    nilradical(a)
    assert len(formed) == 1


# reduced orders that are neither totally real nor of CM type: a (x) Q has
# a factor that is neither totally real nor CM
NOT_CM = {
    "kummer6": lambda: example_order("kummer6"),
    "x3-150": lambda: monogenic_order([-150, 0, 0, 1]),
    "x4-20": lambda: monogenic_order([-20, 0, 0, 0, 1]),
    "x4-1000": lambda: monogenic_order([-1000, 0, 0, 0, 1]),
}


@pytest.mark.parametrize("name", NOT_CM)
def test_an_order_that_is_not_totally_real_answers_on_its_numeric_form(monkeypatch, name):
    # every query takes the numeric form it took before the exact forms
    # came first, and gives the answers read off that form; the rows that
    # failed to give an integer form are that form's rows
    g = gram(compute_embeddings(NOT_CM[name]()))
    emb = []
    real = embeddings._proposed_embeddings
    monkeypatch.setattr(
        embeddings, "_proposed_embeddings", lambda *args: emb.append(args) or real(*args)
    )
    a = NOT_CM[name]()
    assert with_gram(a, DEFAULT_CONFIG, lambda form: form) == g
    b = NOT_CM[name]()
    assert universal_grading(a) == grading.graded_on(b, g)
    assert idempotents(a) == idempotents(b)
    assert len(emb) == 1


# ------------------------------------ the certified form of CM-type orders

# reduced orders whose algebra is a product of totally real and CM fields,
# and which are not totally real
CM = {
    **{name: (lambda name=name: example_order(name)) for name in ["zc3", "zc4", "zc5", "zc6"]},
    "zsqrtm1": lambda: example_order("zsqrtm1"),
    "zeta5": lambda: example_order("zeta5"),
    "x3-1000": lambda: monogenic_order([-1000, 0, 0, 1]),
    "x4-16": lambda: monogenic_order([-16, 0, 0, 0, 1]),
    "zc3xzi": lambda: product_order(group_ring([3])[0], monogenic_order([1, 0, 1])),
}


@pytest.mark.parametrize("name", CM)
def test_the_cm_form_is_the_rounded_oracle_form(name):
    # the integer form is certified at 192 bits, and equals the mpmath Gram
    # form at 384 bits rounded to integers
    a = CM[name]()
    g = embeddings.cm_form(a, 192, 0)
    assert (g.precision, g.tolerance) == (0, 0)
    assert g.entries == oracle_cm_form(a)


CM_GROUPS = st.sampled_from([[3], [4], [5], [6], [8], [2, 4], [2, 3], [3, 3]])


@settings(max_examples=12, deadline=None)
@given(CM_GROUPS, st.integers(0, 2**32), st.integers(0, 3))
def test_the_cm_form_of_a_rebased_group_ring_is_the_rounded_oracle_form(factors, seed, run_seed):
    a = rebased(group_ring(factors)[0], seed)
    g = embeddings.cm_form(a, 192, run_seed)
    assert g is not None and g.entries == oracle_cm_form(a)


@pytest.mark.parametrize("name", NOT_CM)
def test_an_order_that_is_not_of_cm_type_is_rejected(name):
    # no integer form: the rows stay the numeric form of their level, which
    # their residual certified
    a = NOT_CM[name]()
    assert embeddings.cm_form(a, 192, 0) is None
    assert a.derived[("gram", 192, 0)] == gram(compute_embeddings(NOT_CM[name]()))
    assert embeddings.cm_form(a, 384, 1) is None  # decided once per order
    assert ("gram", 384, 1) not in a.derived


@pytest.mark.parametrize("name", ["zc3", "zc4", "zc5", "zc6"])
def test_the_certificate_rejects_forms_that_are_not_canonical(name):
    # each mutant passes every check but one, so the certificate needs all
    # three: check 1 (<1, u> = Tr u), check 2 (G positive definite) and
    # check 3 (the adjoint of z is a multiplication).  z = g - 1 has the
    # distinct eigenvalues zeta^k - 1 and kills the trivial factor, on
    # which the scaled mutant differs, so its w = G^-1 T z passes check 3;
    # the trace form T is the form of the involution x -> x
    a = example_order(name)
    g = embeddings.cm_form(a, 192, 0).entries
    pair, scaled = cm_mutants(a, g)
    trace = trace_gram(a).entries
    g_minus_1 = tuple(x - y for x, y in zip(a.unit(1), a.one))
    for z in (compute_embeddings(a, 192, 0).splitting, g_minus_1):
        assert embeddings._cm_certificate(a, z, g)
        assert oracle_cm_checks(a, z, g) == (True, True, True)
        assert oracle_cm_checks(a, z, pair) == (True, True, False)
        assert oracle_cm_checks(a, z, scaled) == (False, True, True)
        assert oracle_cm_checks(a, z, trace) == (True, False, True)
        assert not embeddings._cm_certificate(a, z, pair)
        assert not embeddings._cm_certificate(a, z, scaled)
        assert not embeddings._cm_certificate(a, z, trace)


@pytest.mark.parametrize("name", ["zc4", "zsqrtm1", "zeta5"])
def test_an_order_of_cm_type_answers_on_its_integer_form(monkeypatch, name):
    # every query takes the certified integer form, and gives the answers
    # read off it; the embeddings of the first level proposed it
    emb = []
    real = embeddings._proposed_embeddings
    monkeypatch.setattr(
        embeddings, "_proposed_embeddings", lambda *args: emb.append(args) or real(*args)
    )
    a = example_order(name)
    g = with_gram(a, DEFAULT_CONFIG, lambda form: form)
    assert (g.precision, g.tolerance) == (0, 0)
    b = example_order(name)
    assert universal_grading(a) == grading.graded_on(b, g)
    assert idempotents(a) == idempotents(b)
    assert roots_of_unity(a) == roots_of_unity(b)
    assert len(emb) == 2  # one for a, one for b


def test_a_non_reduced_order_still_exits_2(tmp_path, capsys):
    from gradus.cli import main
    from gradus.orders import order_to_json

    path = tmp_path / "dual.json"
    path.write_text(json.dumps(order_to_json(example_order("dual"))))
    for command in ("grade", "units", "idempotents"):
        assert main([command, str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NotReduced"
