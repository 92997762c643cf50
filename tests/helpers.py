"""Independent oracles used across the test suite.

Everything here is deliberately written from scratch with naive algorithms
(pairwise extended-gcd elimination, Fraction Gaussian elimination, explicit
box scans, partition search) so the library under test and its checks share
no code paths.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import floor, gcd, isqrt
from typing import NamedTuple


def xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def oracle_hnf(rows, cols):
    """Canonical row-style Hermite form via pairwise xgcd elimination."""
    work = [list(r) for r in rows]
    n = len(work)
    piv = 0
    pivots = []
    for col in range(cols):
        if piv == n:
            break
        pivot_row = None
        for r in range(piv, n):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[piv], work[pivot_row] = work[pivot_row], work[piv]
        for r in range(piv + 1, n):
            if not work[r][col]:
                continue
            a, b = work[piv][col], work[r][col]
            g, s, t = xgcd(a, b)
            u, v = -(b // g), a // g
            new_piv = [s * p + t * q for p, q in zip(work[piv], work[r])]
            new_r = [u * p + v * q for p, q in zip(work[piv], work[r])]
            work[piv], work[r] = new_piv, new_r
        if work[piv][col] < 0:
            work[piv] = [-x for x in work[piv]]
        pivots.append((piv, col))
        piv += 1
    for r, c in pivots:
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
    return [tuple(r) for r in work]


def oracle_invariant_factors(rows, cols):
    """Invariant factors of an integer matrix via gcds of minors."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return []
    s = smith_normal_form(Matrix([list(r) for r in rows]))
    out = []
    for i in range(min(s.rows, s.cols)):
        out.append(abs(int(s[i, i])))
    return out


def oracle_det(rows):
    """Determinant of a square integer matrix by the Leibniz sum."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def oracle_subgroup(group, elems):
    """The subgroup of a FinAbGroup generated by `elems`, by closure."""
    gens = [group.reduce(e) for e in elems]
    out, frontier = {group.identity}, [group.identity]
    while frontier:
        new = {group.add(x, g) for x in frontier for g in gens} - out
        out |= new
        frontier = list(new)
    return out


def frac_inverse(mat):
    """Exact inverse of a rational square matrix via Gaussian elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def matmul(a, b):
    """The product of two IntMatrix values, as an IntMatrix."""
    from gradus.intlinalg import IntMatrix

    if a.cols != b.rows:
        raise ValueError("shape mismatch in matrix product")
    return IntMatrix.from_rows([b.vec_mat(r) for r in a.entries], b.cols)


def quad_form(gram, v):
    return sum(v[i] * sum(gram[i][j] * v[j] for j in range(len(v))) for i in range(len(v)))


def dot_form(gram, u, v):
    return sum(u[i] * sum(gram[i][j] * v[j] for j in range(len(v))) for i in range(len(u)))


def oracle_short_vectors(gram, bound):
    """All nonzero v with v G v^T <= bound, one per +/- pair, by scanning an
    explicit coordinate box derived from the inverse form."""
    n = len(gram)
    inv = frac_inverse(gram)
    box = []
    for i in range(n):
        radius2 = Fraction(bound) * inv[i][i]
        lim = isqrt(int(radius2)) + 1
        box.append(range(-lim, lim + 1))
    out = set()
    for v in itertools.product(*box):
        if not any(v):
            continue
        if quad_form(gram, v) <= bound:
            for c in v:
                if c:
                    if c < 0:
                        v = tuple(-x for x in v)
                    break
            out.add(v)
    return sorted(out)


def oracle_ball_points(gram, v):
    """All integer x with <x, v - x> >= 0 under an integer form: the points
    of the ball |x - v/2|^2 <= |v|^2/4, kept by that exact test from a scan
    that covers the ball.

    With the exact LDL data of the form (`frac_ldl`), y = x - v/2 has
    |y|^2 = sum_j d_j (y_j + sum_{i>j} mu_ij y_i)^2.  The scan fixes x from
    its last coordinate: once the coordinates above j are fixed, a point of
    the ball has y_j within sqrt(R/d_j) of -sum_{i>j} mu_ij y_i, R the part
    of the radius^2 that the fixed terms leave, and R never drops below 0.
    So the scan is a box per coordinate, as wide as the ball's slice there
    and not as the whole ball's shadow, which for a thin ball holds many
    more lattice points than the ball."""
    n = len(gram)
    d, mu = frac_ldl(gram)
    c = [Fraction(a, 2) for a in v]
    x = [0] * n
    out = set()

    def scan(j, budget):
        if j < 0:
            p = tuple(x)
            if dot_form(gram, p, [a - b for a, b in zip(v, p)]) >= 0:
                out.add(p)
            return
        centre = c[j] - sum(mu[i][j] * (x[i] - c[i]) for i in range(j + 1, n))
        lim = isqrt(floor(budget / d[j])) + 1
        for xj in range(floor(centre) - lim, floor(centre) + lim + 2):
            rest = budget - d[j] * (xj - centre) ** 2
            if rest >= 0:
                x[j] = xj
                scan(j - 1, rest)

    scan(n - 1, Fraction(quad_form(gram, v), 4))
    return out


def frac_ldl(gram):
    """Exact LDL data of a positive-definite rational matrix, as Fractions:
    (d, mu) with gram = L diag(d) L^T and L[i][j] = mu[i][j] for j < i."""
    n = len(gram)
    d = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            s = Fraction(gram[i][j]) - sum(mu[i][t] * mu[j][t] * d[t] for t in range(j))
            mu[i][j] = s / d[j]
        d[i] = Fraction(gram[i][i]) - sum(mu[i][t] ** 2 * d[t] for t in range(i))
    return d, mu


def oracle_indecomposable(gram, v, pool):
    """Exact decomposability test: some nonzero x != v with q(x) < q(v) and
    <x, v - x> >= 0 disqualifies v."""
    qv = quad_form(gram, v)
    for cand in pool:
        if quad_form(gram, cand) >= qv:
            continue
        for x in (cand, tuple(-c for c in cand)):
            if x == tuple(v):
                continue
            y = tuple(a - b for a, b in zip(v, x))
            if not any(y):
                continue
            if dot_form(gram, x, y) >= 0:
                return False
    return True


def set_partitions(items):
    """All partitions of a list, as lists of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def oracle_finest_orthogonal_partition(gram):
    """Brute-force reference for the finest orthogonal splitting.

    Enumerates a generating set (all vectors up to the largest diagonal
    entry), keeps the indecomposable ones, tries every partition, keeps the
    orthogonal partitions, and returns the unique finest one as a list of
    sorted generator blocks.
    """
    n = len(gram)
    bound = max(gram[i][i] for i in range(n))
    vecs = oracle_short_vectors(gram, bound)
    indec = [v for v in vecs if oracle_indecomposable(gram, v, vecs)]
    best = None
    for part in set_partitions(indec):
        ok = all(
            dot_form(gram, x, y) == 0
            for b1, b2 in itertools.combinations(part, 2)
            for x in b1
            for y in b2
        )
        if ok and (best is None or len(part) > len(best)):
            best = part
    assert best is not None
    finest = [sorted(b) for b in best]
    finest.sort()
    return finest


def random_unimodular(rng, n, steps=12):
    """Random unimodular matrix as a product of elementary operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 1:
            m[i] = [-x for x in m[i]]
        elif i != j:
            c = rng.randrange(-3, 4)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def change_of_basis(a, u_rows):
    """The same ring presented on the basis with rows u_rows (unimodular),
    and the inverse of that basis."""
    from gradus.intlinalg import IntMatrix, inverse_unimodular
    from gradus.orders import mul, validate

    u = IntMatrix.from_rows(u_rows)
    uinv = inverse_unimodular(u)
    n = a.rank
    table = [
        [uinv.vec_mat(mul(a, u.row(i), u.row(j))) for j in range(n)]
        for i in range(n)
    ]
    one = uinv.vec_mat(a.one)
    return validate(table, one), uinv


def rebased(a, seed):
    """a on a seeded random unimodular basis, as `rebased_samples` does."""
    return change_of_basis(a, random_unimodular(random.Random(seed), a.rank))[0]


# the polynomials x - 1, x^2 + 1, x^2 + x + 1 and x^2 - 2 of Z, Z[i], Z[w]
# and Z[sqrt2], constant term first
SMALL_RINGS = {"z": [-1, 1], "z[i]": [1, 0, 1], "z[w]": [1, 1, 1], "z[sqrt2]": [-2, 0, 1]}


def integers_power(k):
    """Z^k with componentwise multiplication."""
    from gradus.orders import validate

    e = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return validate([[e[i] if i == j else (0,) * k for j in range(k)] for i in range(k)], (1,) * k)


def small_ring_product(names):
    """The product of the SMALL_RINGS named, in order."""
    from gradus.orders import monogenic_order, product_order

    a = monogenic_order(SMALL_RINGS[names[0]])
    for name in names[1:]:
        a = product_order(a, monogenic_order(SMALL_RINGS[name]))
    return a


def rebased_samples():
    """{name: (order, basis rows u, the order on basis u)} for a few orders
    with complex or large embeddings, each on a seeded random unimodular
    basis."""
    from gradus.examples import example_order
    from gradus.orders import group_ring, monogenic_order

    bases = {
        "kummer6": example_order("kummer6"),
        "zeta5": example_order("zeta5"),
        "zc2c4": group_ring([2, 4])[0],
        "x^3-1000": monogenic_order([-1000, 0, 0, 1]),
        "x^2-150000": monogenic_order([-150000, 0, 1]),
    }
    out = {}
    for name, a in bases.items():
        u = random_unimodular(random.Random(name), a.rank)
        out[name] = (a, u, change_of_basis(a, u)[0])
    return out


def quadratic_grading(d):
    """Z[sqrt(d)] with its splitting into 1-span and sqrt(d)-span."""
    from gradus.grading import FinAbGroup, make_grading
    from gradus.orders import monogenic_order

    order = monogenic_order([-d, 0, 1])
    grading = make_grading(order, FinAbGroup((2,)), {(0,): [(1, 0)], (1,): [(0, 1)]})
    return order, grading


def dual_numbers_grading():
    """Dual numbers graded by residue of the exponent: constants at the
    identity, the nilpotent line at the other element."""
    from gradus.grading import FinAbGroup, make_grading
    from gradus.orders import monogenic_order

    order = monogenic_order([0, 0, 1])
    grading = make_grading(order, FinAbGroup((2,)), {(0,): [(1, 0)], (1,): [(0, 1)]})
    return order, grading


def random_hom(rng, source):
    """Seeded random homomorphism out of an invariant-factor group."""
    from gradus.grading import FinAbGroup, GroupHom

    pool = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (12,)]
    target = FinAbGroup(rng.choice(pool))
    images = []
    for d in source.invariant_factors:
        img = tuple(
            rng.randrange(gcd(m, d)) * (m // gcd(m, d))
            for m in target.invariant_factors
        )
        images.append(img)
    return GroupHom(source, target, tuple(images))


def brute_roots_of_unity(table, one, radius=3, max_order=72):
    """All x in a small coordinate box with x**k = 1 for some k <= max_order;
    complete for the tiny fixtures it is used on."""
    n = len(one)

    def mul(x, y):
        out = [0] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                for m in range(n):
                    out[m] += x[i] * y[j] * table[i][j][m]
        return tuple(out)

    one = tuple(one)
    out = []
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        acc = tuple(v)
        for _ in range(max_order):
            if acc == one:
                out.append(tuple(v))
                break
            acc = mul(acc, v)
    return sorted(out)


def oracle_nonassociative_triple(table):
    """The first (i, j, k) in lexicographic order with
    (e_i e_j) e_k != e_i (e_j e_k), or None: the naive triple loop of 2n^3
    products of elements on the raw table."""
    n = len(table)

    def mul(x, y):
        out = [0] * n
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    out[m] += x[i] * y[j] * table[i][j][m]
        return out

    units = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        if mul(table[i][j], units[k]) != mul(units[i], table[j][k]):
            return (i, j, k)
    return None


def brute_idempotents(table, one, radius=3):
    """All x with x*x = x inside a small coordinate box; complete for the
    tiny fixtures it is used on."""
    n = len(one)

    def mul(x, y):
        out = [0] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                for m in range(n):
                    out[m] += x[i] * y[j] * table[i][j][m]
        return tuple(out)

    out = []
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        if mul(v, v) == v:
            out.append(tuple(v))
    return sorted(out)


def oracle_idempotents(a):
    """All idempotents by the norm-<=rank enumeration: <e, e> counts the
    embeddings sending e to 1, so every idempotent has norm <= rank; each
    short vector and its negative is kept when e*e = e exactly."""
    from gradus.config import DEFAULT_CONFIG
    from gradus.embeddings import with_gram
    from gradus.lattices import enumerate_up_to
    from gradus.orders import mul

    def run(g):
        found = {a.zero()}
        for v in enumerate_up_to(g, a.rank << g.precision):
            for s in (v, tuple(-c for c in v)):
                if mul(a, s, s) == s:
                    found.add(s)
        return sorted(found)

    return with_gram(a, DEFAULT_CONFIG, run)


def oracle_atoms(a):
    """The primitive idempotents of a as the pairs (e, t . e) in increasing
    trace (t the trace functional), from `oracle_idempotents`.  t . e counts
    the embeddings at which e is 1, so walked by trace, a nonzero e that
    annihilates every atom kept before it is an atom; the idempotents must
    then be the 2^k subset sums of the k atoms."""
    from gradus.orders import mul, trace_vector

    found = oracle_idempotents(a)
    t = trace_vector(a)
    atoms = []
    for r, e in sorted((sum(i * j for i, j in zip(t, e)), e) for e in found):
        if any(e) and not any(any(mul(a, e, p)) for p, _ in atoms):
            atoms.append((e, r))
    sums = [a.zero()]
    for p, _ in atoms:
        sums += [tuple(i + j for i, j in zip(s, p)) for s in sums]
    assert sorted(sums) == found
    return tuple(atoms)


def torsion_order_bound(rank):
    """Safe upper bound on the multiplicative order of any root of unity in
    an order of the given rank: twice the square of the largest m with
    phi(m) <= rank (phi(m) >= sqrt(m/2), so m <= 2 rank^2)."""
    from sympy import totient

    if rank < 1:
        return 1
    return 2 * max(m for m in range(1, 2 * rank * rank + 2) if totient(m) <= rank) ** 2


def oracle_roots(a):
    """{root: multiplicative order} for every root of unity: the vectors of
    norm = rank and their negatives, each multiplied by itself up to
    `torsion_order_bound(rank)` times until it reaches 1."""
    from mpmath import mp

    from gradus.config import DEFAULT_CONFIG
    from gradus.embeddings import with_gram
    from gradus.lattices import enumerate_up_to, norm
    from gradus.orders import mul

    n = a.rank
    bound = torsion_order_bound(n)

    def run(g):
        with mp.workprec(max(g.precision, 64)):
            floor = n - real(g, g.tolerance)
        pool = enumerate_up_to(g, n << g.precision)
        cands = [v for v in pool if real(g, norm(g, v)) >= floor]
        found = {}
        for v in cands:
            for s in (v, tuple(-c for c in v)):
                y = s
                for k in range(1, bound + 1):
                    if y == a.one:
                        found[s] = k
                        break
                    y = mul(a, y, s)
        return found

    return with_gram(a, DEFAULT_CONFIG, run)


def oracle_group_closed(a, roots):
    """Whether every product of two of `roots` is one of them."""
    from gradus.orders import mul

    members = set(roots)
    return all(mul(a, x, y) in members for x in members for y in members)


def oracle_generated(a, gens):
    """The set of all products of `gens` (roots of unity), and 1."""
    from gradus.orders import mul

    out, frontier = {a.one}, [a.one]
    while frontier:
        new = {mul(a, x, g) for x in frontier for g in gens} - out
        out |= new
        frontier = list(new)
    return out


class MpcEmbeddings(NamedTuple):
    """Embedding rows as mpc tuples: sigma[k][i] is the k-th homomorphism
    applied to basis vector i."""

    n: int
    sigma: tuple
    precision: int


def as_mpc(e):
    """The grid rows of an `EmbeddingMatrix` as the complex numbers they
    stand for, each entry an exact mpc, for comparisons with the oracles."""
    from mpmath import mp, mpc

    from gradus.embeddings import FIXED_GUARD_BITS

    q = e.precision + FIXED_GUARD_BITS
    bits = max([1] + [abs(x).bit_length() for row in e.rows for part in row for x in part])
    with mp.workprec(bits):
        sigma = tuple(
            tuple(mpc(mp.ldexp(x, -q), mp.ldexp(y, -q)) for x, y in zip(*row)) for row in e.rows
        )
    return MpcEmbeddings(e.n, sigma, e.precision)


def oracle_embeddings(a, precision=192, seed=0):
    """The embeddings of a reduced order read off the eigenvectors of the
    transpose of M_z by mpmath's QR eigensolver (`mp.eig`), for the same
    seeded splitting elements as `compute_embeddings`: each eigenvector is
    scaled so that sigma(1) = 1, and the first element whose eigenvalues are
    farther apart than 2**(-precision/4) is used.  Rows are sorted by
    eigenvalue; nothing is certified here."""
    from mpmath import mp, mpf

    from gradus.embeddings import SPLITTING_TRIES
    from gradus.orders import regular_matrix

    n = a.rank
    with mp.workprec(precision):
        floor = mpf(2) ** (-(precision // 4))
        for attempt in range(SPLITTING_TRIES):
            rng = random.Random(f"{seed}:{precision}:{attempt}")
            coeffs = [rng.randrange(-8 * n, 8 * n + 1) for _ in range(n)]
            mzt = mp.matrix(regular_matrix(a, coeffs).entries).T
            try:
                eigvals, eigvecs = mp.eig(mzt)
            except RuntimeError as exc:
                if "failed to converge" not in str(exc):
                    raise
                continue
            gaps = [abs(eigvals[i] - eigvals[j]) for i in range(n) for j in range(i)]
            if gaps and min(gaps) <= floor:
                continue
            rows = []
            for k in sorted(range(n), key=lambda k: (mp.re(eigvals[k]), mp.im(eigvals[k]))):
                w = [eigvecs[r, k] for r in range(n)]
                at_one = mp.fsum(c * w[i] for i, c in enumerate(a.one) if c)
                rows.append(tuple(x / at_one for x in w))
            return MpcEmbeddings(n, tuple(rows), precision)
    raise AssertionError("no splitting element separated the spectrum")


def oracle_hom_residual(a, sigma):
    """max |sigma(e_i) sigma(e_j) - sigma(e_i e_j)| and |sigma(1) - 1| over
    every row, each an `mp.fsum` of complex products at the current
    precision."""
    from mpmath import mp, mpf

    n = a.rank
    worst = mpf(0)
    for row in sigma:
        one_val = mp.fsum(c * row[i] for i, c in enumerate(a.one) if c)
        worst = max(worst, abs(one_val - 1))
        for i in range(n):
            for j in range(i, n):
                lin = mp.fsum(t * row[m] for m, t in enumerate(a.table[i][j]) if t)
                worst = max(worst, abs(row[i] * row[j] - lin))
    return worst


def oracle_gram_entries(e, precision):
    """The real Gram matrix sum_k Re(sigma_k(e_i) conj sigma_k(e_j)) of mpc
    rows e (`as_mpc` or `oracle_embeddings`), each entry an `mp.fsum` of
    complex products at the given precision."""
    from mpmath import mp

    with mp.workprec(precision):
        return [[mp.re(mp.fsum(row[i] * mp.conj(row[j]) for row in e.sigma)) for j in range(e.n)]
                for i in range(e.n)]


def oracle_gram(e):
    """The Gram form of `oracle_gram_entries` at the precision p of e, each
    entry put on the nearest point of the grid 2**(-p)Z."""
    from mpmath import mp

    from gradus.lattices import GramForm, _tolerance

    p = e.precision
    with mp.workprec(p):
        entries = tuple(
            tuple(int(mp.nint(mp.ldexp(x, p))) for x in row) for row in oracle_gram_entries(e, p)
        )
    return GramForm(e.n, entries, p, _tolerance(entries, p))


def oracle_cm_form(a, precision=384):
    """The canonical form of an order of CM type as an integer matrix: the
    Gram matrix of the mpmath embeddings (`oracle_embeddings`) at
    `precision` bits, each entry rounded to the nearest integer, which it
    lies within 2**(-precision/2) of."""
    from mpmath import mp

    entries = oracle_gram_entries(oracle_embeddings(a, precision), precision)
    with mp.workprec(precision):
        rounded = tuple(tuple(int(mp.nint(x)) for x in row) for row in entries)
        slack = mp.ldexp(1, -(precision // 2))
        assert all(abs(x - y) <= slack for r, s in zip(entries, rounded) for x, y in zip(r, s))
    return rounded


def oracle_cm_checks(a, z, entries):
    """The three checks of `embeddings._cm_certificate` on the symmetric
    integer matrix G = entries, by other means, in sympy rationals:
    (one G = t, G positive definite, the G-adjoint A = G^-1 M_z^T G of
    multiplication by z is multiplication by w = A coords(1))."""
    from sympy import Matrix, zeros

    from gradus.orders import regular_matrix, trace_vector

    n = a.rank
    g = Matrix(entries)
    one = Matrix([list(a.one)])
    adjoint = g.inv() * Matrix(regular_matrix(a, z).entries).T * g
    w = adjoint * one.T
    mw = zeros(n, n)
    for i in range(n):
        mw += w[i] * Matrix(regular_matrix(a, a.unit(i)).entries)
    return list(one * g) == list(trace_vector(a)), g.is_positive_definite, adjoint == mw


def cm_mutants(a, entries):
    """Two wrong forms of a group ring on its group basis, from its
    canonical form G = entries: G with the entries (1, 2) and (2, 1) raised
    by 1, and G M_f for f = 1 + the sum of the group, the form scaled by
    |G| + 1 on the trivial factor.  The first keeps row 0, the row of 1,
    and passes checks 1 and 2 of the certificate; the second is <x, f y>,
    with f fixed by conjugation, and passes checks 2 and 3."""
    from gradus.orders import regular_matrix

    pair = [list(row) for row in entries]
    pair[1][2] += 1
    pair[2][1] += 1
    f = tuple(1 + (i == 0) for i in range(a.rank))
    mf = regular_matrix(a, f).entries
    scaled = [[sum(x * mf[k][j] for k, x in enumerate(row)) for j in range(a.rank)] for row in entries]
    return tuple(map(tuple, pair)), tuple(map(tuple, scaled))


def real(g, x):
    """A value on the grid 2**(-p)Z of the Gram form g (an entry, inner
    product, norm, tolerance or LDL pivot, as an integer or mpf) as the real
    it stands for, an mpf at the precision p of g, or at 64 bits for an
    exact form (p = 0)."""
    from mpmath import mp

    with mp.workprec(max(g.precision, 64)):
        return mp.ldexp(x, -g.precision)


def mpf_grid_point(x, precision):
    """A Gram entry (str, int or float) on the grid 2**(-p)Z the way
    `gram_from_strings` read it through mpmath: rounded to p significant
    bits, then to the nearest grid point."""
    from mpmath import mp, mpf

    with mp.workprec(precision):
        return int(mp.nint(mp.ldexp(mpf(x), precision)))


def oracle_inner(entries, u, v):
    """<u, v> over a real Gram matrix the way `lattices.inner` computed it
    on mpf entries: u_i times one `mp.fsum` per row, at the working
    precision."""
    from mpmath import mp, mpf

    total = mpf(0)
    for i, ui in enumerate(u):
        if ui:
            total += ui * mp.fsum(entries[i][j] * vj for j, vj in enumerate(v) if vj)
    return total


def oracle_verdict(entries, precision, value, sign=False):
    """The zero verdict (or with sign=True the sign verdict) on a real value
    as `lattices.is_zero` and `is_nonneg` gave it on mpf entries, against
    the tolerance 2**(-p/3) max(1, max|entry|): True, False, or the
    exception class raised in the ambiguous band."""
    from mpmath import mp, mpf

    from gradus.lattices import AMBIGUITY_SPAN, TOLERANCE_EXPONENT
    from gradus.errors import AmbiguousSign, AmbiguousZero

    with mp.workprec(precision):
        biggest = max([mpf(1)] + [abs(x) for row in entries for x in row])
        tol = mp.ldexp(biggest, -(precision // TOLERANCE_EXPONENT))
        if sign:
            if value >= -tol:
                return True
            return False if value <= -AMBIGUITY_SPAN * tol else AmbiguousSign
        if abs(value) <= tol:
            return True
        return False if abs(value) >= AMBIGUITY_SPAN * tol else AmbiguousZero


def oracle_grid_str(x, precision, digits):
    """x * 2**(-precision) printed as `lattices.grid_str` should: the
    exact rational rounded half away from zero to `digits` significant
    digits, in fixed point when min(-(digits // 3), -5) < exponent < digits
    and as d.ddd e+-k otherwise, trailing zeros cut down to one."""
    if not x:
        return "0.0"
    v = Fraction(abs(x), 1 << precision)
    e = (abs(x).bit_length() - precision) * 3 // 10
    while Fraction(10) ** e > v:
        e -= 1
    while Fraction(10) ** (e + 1) <= v:
        e += 1
    # the leading `digits` digits, rounded: 10**(digits-1) <= k <= 10**digits
    k = floor(v / Fraction(10) ** (e - digits + 1) + Fraction(1, 2))
    if k == 10**digits:
        k, e = k // 10, e + 1
    lead, suffix = str(k), ""
    if min(-(digits // 3), -5) < e < digits:
        whole, frac = (lead[: e + 1], lead[e + 1 :]) if e >= 0 else ("0", "0" * (-e - 1) + lead)
    else:
        whole, frac, suffix = lead[0], lead[1:], f"e{e:+d}"
    return f"{'-' if x < 0 else ''}{whole}.{frac.rstrip('0') or '0'}{suffix}"


def oracle_coordinates(basis, v):
    """The coordinates of v in a unimodular basis (an IntMatrix): v times
    the exact inverse of the basis, from its Hermite form."""
    from gradus.intlinalg import inverse_unimodular

    return inverse_unimodular(basis).vec_mat(v)


def oracle_centred_search(g, v):
    """The points, in order, that `lattices.search_centred_ball` visits
    around v / 2 when its centre comes from `oracle_coordinates`: the same
    Fincke-Pohst search on the same LLL data and radius."""
    from gradus.lattices import AMBIGUITY_SPAN, norm
    from gradus.lattices import _fincke_pohst, _grid_bits

    basis, D, M, _ = g.reduction
    K = _grid_bits(D)
    centre = [c << (K - 1) for c in oracle_coordinates(basis, v)]
    limit = -(-norm(g, v) // 4) + AMBIGUITY_SPAN * g.tolerance
    visits = []
    _fincke_pohst(D, M, centre, limit, lambda x: visits.append(basis.vec_mat(x)))
    return visits


def oracle_lll(g):
    """LLL of the standard lattice under the grid form g in exact Fraction
    arithmetic: the exact LDL data of B F B^T (`frac_ldl`) is recomputed
    after every size-reduction step and every swap.  Same reduction order
    (b_k against b_(k-1), ..., b_0, then the Lovasz test), same tie rule
    (round(mu) half to even) and delta = 99/100.  Returns the basis rows,
    D_i = floor(d_i), M[i] = (round(mu_ji 2**K), half up, for j > i), K =
    FP_BITS plus the spread of the bit lengths of D, and the exact LDL
    (lam, delta) of the basis in the format of `intlinalg.leading_minors`:
    delta = [1, d_0, d_0 d_1, ...], the leading minors, and lam[j][i] =
    Delta_i mu_ji for i <= j (mu_jj = 1)."""
    from gradus.lattices import FP_BITS, LLL_DELTA

    n = g.n
    dlt = Fraction(*LLL_DELTA)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def ldl():
        return frac_ldl([[dot_form(g.entries, u, v) for v in basis] for u in basis])

    d, mu = ldl()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                d, mu = ldl()
        if d[k] >= (dlt - mu[k][k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            d, mu = ldl()
            k = max(k - 1, 1)
    D = [x.numerator // x.denominator for x in d]
    K = FP_BITS + max(D, default=0).bit_length() - min(D, default=0).bit_length()
    M = [
        tuple(floor(mu[j][i] * 2**K + Fraction(1, 2)) for j in range(i + 1, n))
        for i in range(n)
    ]
    minors = [Fraction(1)]
    for x in d:
        minors.append(minors[-1] * x)
    lam = [[minors[i + 1] * (mu[j][i] if i < j else 1) for i in range(j + 1)] for j in range(n)]
    assert all(x.denominator == 1 for x in minors + [y for row in lam for y in row])
    lam = [[int(x) for x in row] for row in lam]
    return [tuple(row) for row in basis], D, M, (lam, [int(x) for x in minors])


def dense_snf(m):
    """Smith normal form on dense rows: the elimination of `intlinalg.snf`
    (smallest pivot first in row-major order, rows then columns cleared,
    offending rows pulled up), with every operation applied to the whole
    matrix.  Returns (S, V) as IntMatrix values."""
    from gradus.intlinalg import IntMatrix

    nr, nc = m.rows, m.cols
    s = [list(r) for r in m.entries]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_sub(i, j, q):
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]

    def col_sub(i, j, q):
        for r in s:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if s[i][j] and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        while True:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
            piv = s[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if s[i][t]:
                    row_sub(i, t, s[i][t] // piv)
                    if s[i][t]:
                        dirty = True
            if dirty:
                live = [i for i in range(t + 1, nr) if s[i][t]]
                swap_rows(t, min(live, key=lambda i: abs(s[i][t])))
                continue
            for j in range(t + 1, nc):
                if s[t][j]:
                    col_sub(j, t, s[t][j] // piv)
                    if s[t][j]:
                        dirty = True
            if dirty:
                live = [j for j in range(t + 1, nc) if s[t][j]]
                swap_cols(t, min(live, key=lambda j: abs(s[t][j])))
                continue
            offender = next(
                (i for i in range(t + 1, nr) for j in range(t + 1, nc) if s[i][j] % piv), None
            )
            if offender is None:
                break
            s[t] = [a + b for a, b in zip(s[t], s[offender])]
        t += 1
    return (
        IntMatrix(tuple(tuple(r) for r in s), nc),
        IntMatrix(tuple(tuple(r) for r in v), nc),
    )


def oracle_presentation(num_gens, relations):
    """The group presented on num_gens generators by the relations, each a
    mapping {generator: coefficient} or a dense row, and the images of the
    generators: `dense_snf` of the whole matrix of distinct dense rows,
    sorted.  Raises InfiniteGroup for an infinite group."""
    from gradus.errors import InfiniteGroup
    from gradus.grading import FinAbGroup
    from gradus.intlinalg import IntMatrix

    dense = set()
    for rel in relations:
        items = rel.items() if isinstance(rel, dict) else enumerate(rel)
        row = [0] * num_gens
        for g, x in items:
            row[g] += x
        dense.add(tuple(row))
    rows = sorted(dense)
    s, v = dense_snf(IntMatrix.from_rows(rows, num_gens))
    diag = [s.entries[i][i] if i < len(rows) else 0 for i in range(num_gens)]
    if 0 in diag:
        raise InfiniteGroup("the relations leave a free quotient")
    keep = [i for i, d in enumerate(diag) if d > 1]
    group = FinAbGroup(tuple(diag[i] for i in keep))
    return group, tuple(tuple(v.entries[j][i] % diag[i] for i in keep) for j in range(num_gens))


def oracle_product_table(a, dec):
    """The products of the splitting vectors of dec on the splitting, entry
    [i][j] for rows i and i + j, each formed with `orders.mul` and mapped
    by `SDecomposition.inverse`."""
    from gradus.orders import mul

    rows = [v for c in dec.components for v in c.vectors()]
    return [[dec.inverse.vec_mat(mul(a, x, y)) for y in rows[i:]] for i, x in enumerate(rows)]


def is_decomposition(g, z, x, y):
    """Whether (x, y) decomposes z under the form g: z = x + y exactly and
    <x, y> >= 0."""
    from gradus.lattices import inner, is_nonneg

    if tuple(z) != tuple(a + b for a, b in zip(x, y, strict=True)):
        return False
    return is_nonneg(g, inner(g, x, y))


def component_refinement_map(dec, coarser):
    """For each component of dec, the index of the coarser part containing
    it; the coarser parts must each be the sum of the components they
    receive, else NoMorphism.  This is the universality witness of the
    splitting."""
    from gradus.errors import NoMorphism
    from gradus.intlinalg import SublatticeBasis

    assignment = []
    for comp in dec.components:
        hits = [t for t, m in enumerate(coarser) if m.contains_sublattice(comp)]
        if len(hits) != 1:
            raise NoMorphism(
                f"component is contained in {len(hits)} parts of the coarser splitting"
            )
        assignment.append(hits[0])
    for t, m in enumerate(coarser):
        comps = [comp for s, comp in enumerate(dec.components) if assignment[s] == t]
        rows = [v for comp in comps for v in comp.vectors()]
        if SublatticeBasis.from_vectors(dec.ambient_rank, rows) != m:
            raise NoMorphism("coarser part is not the sum of the components mapped to it")
    return assignment


def reference_s_decomposition(g):
    """The finest orthogonal splitting with a centred search on every vector
    popped, the oracle of `lattices.universal_s_decomposition`, which skips
    the search below a bound.  Returns (components, searched vectors); a
    part no shorter than its whole raises AssertionError."""
    from gradus.lattices import inner, is_zero, norm
    from gradus.intlinalg import SublatticeBasis, vec_neg, vec_sub
    from gradus.lattices import _split

    classes, seen, searched = [], set(), []
    stack = list(g.reduction[0].entries)
    while stack:
        v = stack.pop()
        key = max(v, vec_neg(v))
        if key in seen:
            continue
        seen.add(key)
        searched.append(v)
        x = _split(g, v)
        if x is not None:
            y = vec_sub(v, x)
            assert norm(g, x) < norm(g, v) and norm(g, y) < norm(g, v)
            stack += [x, y]
            continue
        met = [any(not is_zero(g, inner(g, u, key)) for u in c) for c in classes]
        classes = [c for c, m in zip(classes, met) if not m] + [
            [key] + [u for c, m in zip(classes, met) if m for u in c]
        ]
    components = sorted(
        (SublatticeBasis.from_vectors(g.n, c) for c in classes), key=lambda c: min(c.vectors())
    )
    return tuple(components), searched


def reference_roots(chi, bits, floor):
    """`embeddings._roots` refining every Aberth start: the real roots and
    the upper ones, or None when a start fails to refine, two refined roots
    lie within the floor, or the real roots and the pairs do not account
    for every root."""
    from gradus import embeddings

    proposal = embeddings._aberth(chi)
    if proposal is None:
        return None
    scale, starts = proposal
    roots = [embeddings._newton(chi, x, scale, bits) for x in starts]
    if None in roots or len(roots) > 1 and embeddings._min_separation(roots) <= floor**2:
        return None
    real = [(re, 0) for re, im in roots if 2 * abs(im) < floor]
    upper = [r for r in roots if 2 * r[1] >= floor]
    return real + upper if len(real) + 2 * len(upper) == len(roots) else None


def summed_gram_entries(e):
    """The entries of `embeddings.gram` of e, summing every row instead of
    each conjugate pair once, doubled: sum_k Re(s_ki conj s_kj) over all
    rows, exact on the grid 2**(-2q), rounded once to 2**(-p)."""
    from gradus.embeddings import FIXED_GUARD_BITS

    shift = e.precision + 2 * FIXED_GUARD_BITS
    return tuple(
        tuple(
            (sum(re[i] * re[j] + im[i] * im[j] for re, im in e.rows) + (1 << (shift - 1))) >> shift
            for j in range(e.n)
        )
        for i in range(e.n)
    )


def fixed_point_cm_form(a, precision=192, seed=0):
    """The CM form proposed from the fixed-point rows alone, as
    `embeddings.cm_form` proposed it before the double-precision proposal:
    the rows of the first splitting element that gives rows, their Gram
    form F summed over every row, G = F rounded to integers when F lies
    within 2**(p/2) of 2**p G, then `embeddings._cm_certificate`.  The
    entries of the certified form, or None."""
    from gradus import embeddings

    e = embeddings._proposed_embeddings(a, precision, seed)
    f = summed_gram_entries(e)
    half, slack = 1 << (precision - 1), 1 << (precision // 2)
    entries = tuple(tuple((x + half) >> precision for x in row) for row in f)
    near = all(
        abs(x - (y << precision)) <= slack for r, s in zip(f, entries) for x, y in zip(r, s)
    )
    g = embeddings._cm_certificate(a, e.splitting, entries) if near else None
    return None if g is None else g.entries
