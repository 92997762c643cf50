"""Complex embeddings of a reduced order and its canonical inner product.

A reduced order of rank n has exactly n ring homomorphisms into the complex
numbers.  Each one, written as the row (sigma(e_0), ..., sigma(e_{n-1})), is a
common left eigenvector of the multiplication matrices: sigma * M_x =
sigma(x) * sigma.  `compute_embeddings` reads them off the exact
characteristic polynomial of a seeded splitting element: doubles propose
its roots, and from there on everything is integer arithmetic on
fixed-point grids.  The rows come out as Gaussian integers on the grid
2**(-q) Z[i], q = p + 16 for the working precision p, every later step
reads those integers, and their exact homomorphism residual certifies
them.

The inner product <x, y> = sum over embeddings of sigma(x) * conj(sigma(y))
is assembled into a `lattices.GramForm` on the grid 2**(-p) Z: each entry
is one exact integer sum on the grid 2**(-2q) Z, shifted once onto
2**(-p) Z, so the form is a matrix F of Python integers with F / 2**p ~
<e_i, e_j>, and its zero tolerance covers the rounding of the entries.
The verdicts on the form, its LLL and the Fincke-Pohst searches are those
of `lattices`, on exact integer data.

Two kinds of order have an exact form, on the grid p = 0 with tolerance
0, which `with_gram` tries before the numeric levels.  When every
embedding is real the form is the integer trace form Tr(xy), and
`trace_form` gives it with no embeddings at all.  When a (x) Q is a
product of totally real and CM fields (every group ring Z[G] of a finite
abelian group, Z[i], Z[zeta_5], x^3 - 1000), the form is the integer form
Tr(x i(y)), i complex conjugation: `cm_form` rounds the Gram form of the
first level's rows to integers and certifies the result in O(n^3) integer
operations, which is also a third proof of reducedness.  The homomorphism
residual then belongs to the numeric levels only: an order whose integer
form is certified never computes it.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence, TypeVar

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DegenerateSplitting, EscalationNeeded, NotReduced, PrecisionExhausted
from .intlinalg import Vec, leading_minors, solve_definite
from .lattices import GramForm, _tolerance
from .orders import (
    Order,
    charpoly_rows,
    Packing,
    is_reduced,
    product_matrix,
    table_bound,
    table_times,
    trace_gram,
    trace_vector,
)

# seeded splitting elements tried at one precision before the spectrum is
# declared degenerate
SPLITTING_TRIES = 8

# sweeps of the double-precision Aberth iteration, and Newton steps at full
# precision after the doubling ones, before a root proposal counts as failed
ABERTH_SWEEPS = 100
NEWTON_EXTRA_STEPS = 8

# fractional bits of the fixed-point grid of the rows, beyond the working
# precision
FIXED_GUARD_BITS = 16

# how many times one query may double the precision in total, so no level
# exceeds precision * 2**ESCALATION_BUDGET
ESCALATION_BUDGET = 4

T = TypeVar("T")

# a row on the grid 2**(-q) Z[i]: the real and the imaginary parts of its
# entries, as integers in units of 2**(-q)
Row = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """All ring homomorphisms into C, evaluated on the basis, on the grid
    2**(-q) Z[i], q = precision + FIXED_GUARD_BITS.

    rows[k] = (re, im) stands for the k-th homomorphism: sigma_k(e_i) is
    (re[i] + i im[i]) / 2**q.  Rows are sorted by the eigenvalue of the
    splitting element, whose coordinates are `splitting`, so the output is
    reproducible for a fixed seed, and the row of a non-real eigenvalue and
    that of its conjugate are exact conjugates.  residual is the
    homomorphism residual of the rows rounded up to the grid 2**(-2q) Z, an
    integer in units of 2**(-2q), or None while it is not yet computed (see
    `certified`).
    """

    n: int
    rows: tuple[Row, ...]
    precision: int
    residual: int | None
    splitting: Vec = ()


def _exact_form(rows: Sequence[Sequence[int]]) -> GramForm | None:
    """The exact form (grid p = 0, tolerance 0) of the symmetric integer
    matrix with these rows, or None when it is not positive definite.  The
    form keeps the minors of Sylvester's test by `intlinalg.leading_minors`,
    which stops at the first pivot <= 0, as its `GramForm.minors`."""
    ldl = leading_minors(rows)
    if ldl is None:
        return None
    g = GramForm(len(rows), tuple(map(tuple, rows)), 0, 0)
    g.__dict__["minors"] = ldl  # the value the cached property would compute
    return g


def compute_embeddings(
    a: Order,
    precision: int = DEFAULT_CONFIG.precision,
    seed: int = DEFAULT_CONFIG.seed,
) -> EmbeddingMatrix:
    """Compute the n embeddings of a reduced order at one precision, as rows
    of Gaussian integers on the grid 2**(-q) Z[i], q = p + 16.

    For a seeded splitting element z, `charpoly_rows` gives, in integers,
    chi = det(xI - M_z) and the rows beta_k with t . adj(xI - M_z) =
    sum_k beta_k x^{n-k}, t the trace functional.  An element whose chi is
    not squarefree (gcd(chi, chi') != 1 over Q) has a repeated eigenvalue
    and is skipped.  Otherwise the roots lambda of chi are proposed in
    double precision, refined by Newton's method on the grid 2**(-bits)
    Z[i], bits = p + max bitlength(beta) + 32, and each gives the row
    sigma_lambda(e_i) = w_i / (w . one) with w = sum_k lambda^{n-k} beta_k.
    Since adj(lambda - M_z) is a polynomial in M_z, w . one is its trace,
    chi'(lambda), which is nonzero because lambda is a simple root; so the
    row is a left eigenvector of M_z for lambda, scaled to sigma(1) = 1.
    (Equally: adj(lambda - M_z) = chi'(lambda) M_e for the idempotent e of
    K (x) C belonging to lambda, and t . coords(e) = Tr(e) = 1.)  The rows
    are then `certified`: their exact homomorphism residual must be at most
    2**(-p/2) n (1 + max|sigma|)^2.

    This is one of the pipeline's three reducedness checks.  The others
    are the positive-definite trace form of `trace_form`, which proves a
    totally real order reduced, and the positive-definite form Tr(x i(y))
    that `cm_form` certifies for an order of CM type.  `with_gram` tries
    those first; a non-reduced order passes neither, so every query on one
    reaches this check, which `with_gram` runs once per order object,
    precision and seed (it keeps only successes), and raises NotReduced.  A
    squarefree chi proves reducedness by itself: its n roots are distinct,
    so it is also the minimal polynomial of M_z, the powers 1, z, ...,
    z^(n-1) are independent, and the n dimensional algebra a (x) Q is Q[z]
    = Q[x]/(chi), a product of fields by the Chinese remainder theorem, as
    the irreducible factors of chi are distinct.  A subring of a reduced
    ring is reduced.  So the exact nilradical (`orders.is_reduced`) is
    consulted only when every try has failed: it raises NotReduced for a
    non-reduced order, whose chi is never squarefree, and otherwise
    DegenerateSplitting.  Raises DegenerateSplitting when no seeded
    splitting element separates the eigenvalues and EscalationNeeded when
    the homomorphism residual is too large; `with_gram` retries both at a
    doubled precision.
    """
    return certified(a, _proposed_embeddings(a, precision, seed))


def _proposed_embeddings(a: Order, precision: int, seed: int) -> EmbeddingMatrix:
    """The rows of `compute_embeddings` with residual None, for `cm_form`,
    whose certified integer form needs no residual."""
    n = a.rank
    if n == 0:
        return EmbeddingMatrix(0, (), precision, None)
    p = precision
    q = p + FIXED_GUARD_BITS
    for attempt in range(SPLITTING_TRIES):
        rng = random.Random(f"{seed}:{p}:{attempt}")
        coeffs = [rng.randrange(-8 * n, 8 * n + 1) for _ in range(n)]
        chi, betas = charpoly_rows(a, coeffs)
        if not _squarefree(chi):
            continue
        bits = p + max(abs(b).bit_length() for beta in betas for b in beta) + 32
        # the separation floor 2**(-p/4) on the grid 2**(-bits)
        roots = _roots(chi, bits, 1 << (bits - p // 4))
        if roots is None:
            continue
        columns = list(zip(*betas))
        rows = [_row(a, columns, lam, bits, q) for lam in roots]
        keyed = []
        for (re, im), row in zip(roots, rows):
            keyed.append(((re, im), row))
            if im:
                keyed.append(((re, -im), (row[0], tuple(-y for y in row[1]))))
        keyed.sort(key=lambda item: item[0])
        return EmbeddingMatrix(n, tuple(row for _, row in keyed), p, None, tuple(coeffs))
    if not is_reduced(a):
        raise NotReduced("only reduced orders admit this computation")
    raise DegenerateSplitting(
        f"no splitting element separated the spectrum after {SPLITTING_TRIES} tries at {p} bits"
    )


def certified(a: Order, e: EmbeddingMatrix) -> EmbeddingMatrix:
    """e with its homomorphism residual, or EscalationNeeded when the
    residual is above 2**(-p/2) n (1 + max|sigma|)^2.  A conjugate row has
    the same residual as its partner, so only the rows whose imaginary part
    is lexicographically at least its negative are checked: the real rows
    and one row of each conjugate pair."""
    p = e.precision
    q = p + FIXED_GUARD_BITS
    rows = [(re, im) for re, im in e.rows if im >= tuple(-y for y in im)]
    residual = _hom_residual(a, rows, q)
    biggest = math.isqrt(max((x * x + y * y for re, im in rows for x, y in zip(re, im)), default=0))
    # residual <= 2**(-p/2) n (1 + max|sigma|)^2, in units of 2**(-2q)
    if residual << (p // 2) <= e.n * ((1 << q) + biggest) ** 2:
        return replace(e, residual=residual)
    raise EscalationNeeded(f"embedding residual is above threshold at {p} bits")


def _squarefree(chi: Sequence[int]) -> bool:
    """Whether gcd(chi, chi') = 1 over Q, by a primitive pseudo-remainder
    sequence in integers (coefficients leading first)."""
    deg = len(chi) - 1
    f = list(chi)
    g = [c * (deg - k) for k, c in enumerate(chi[:-1])]
    while len(g) > 1:
        r = _pseudo_remainder(f, g)
        if not r:
            return False
        content = math.gcd(*r)
        f, g = g, [c // content for c in r]
    return True


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """f times a power of g's leading coefficient, reduced mod g; leading
    zeros are stripped, so a zero remainder is []."""
    lead = g[0]
    while len(f) >= len(g):
        top = f[0]
        f = [lead * x - top * y for x, y in zip(f, g + [0] * (len(f) - len(g)))][1:]
        while f and not f[0]:
            f.pop(0)
    return f


def _round_div(num: int, den: int) -> int:
    """num / den rounded to the nearest integer (halves up), den > 0."""
    return (2 * num + den) // (2 * den)


def _roots(chi: Sequence[int], bits: int, floor: int) -> list[tuple[int, int]] | None:
    """The real roots and the roots in the upper half-plane of a squarefree
    chi on the grid 2**(-bits) Z[i], as Gaussian integers (re, im) in units
    of 2**(-bits), or None when the roots are not pairwise farther apart
    than the separation floor, `floor` units.

    The starts come from `_aberth`; when it fails, or its refined roots
    collide, the caller moves on to the next splitting element.  chi is
    real, so a root nearer to its own conjugate than the roots are to one
    another is real and is returned with imaginary part exactly 0; the
    others come in conjugate pairs, and one of each pair is returned.

    Newton refines one start per conjugate pair.  A start x below the real
    axis is skipped when another start y lies nearer to its conjugate than
    x does, |y - conj x| < 2 |Im x|: y stands for conj x, and x for the
    root of the pair that is not returned.  The test is needed because a
    real root's start often has a tiny negative imaginary part, and it then
    has no such neighbour.  The refined roots are classified as above, and
    they are accepted when the real ones and the upper ones with their
    conjugates, the n roots the rows are built from, number n and are
    pairwise farther apart than the floor: the conditions every start's
    refinement must meet, checked on the roots used.  Otherwise the
    skipped starts are refined too and all n are decided as if none had
    been skipped, so no verdict is worse than refining every start.
    """
    proposal = _aberth(chi)
    if proposal is None:
        return None
    scale, starts = proposal
    n = len(starts)
    mirrored = [
        x.imag < 0
        and any(abs(y - x.conjugate()) < -2 * x.imag for j, y in enumerate(starts) if j != i)
        for i, x in enumerate(starts)
    ]
    roots = {i: _newton(chi, x, scale, bits) for i, x in enumerate(starts) if not mirrored[i]}
    if None in roots.values():
        return None
    real, upper = _real_and_upper(roots.values(), floor)
    used = real + upper + [(re, -im) for re, im in upper]
    if len(used) == n and (n == 1 or _min_separation(used) > floor**2):
        return real + upper
    roots = [roots[i] if i in roots else _newton(chi, x, scale, bits) for i, x in enumerate(starts)]
    if None in roots or n > 1 and _min_separation(roots) <= floor**2:
        return None
    real, upper = _real_and_upper(roots, floor)
    if len(real) + 2 * len(upper) == n:
        return real + upper
    return None


def _real_and_upper(roots, floor: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The roots nearer to the real axis than half the floor, with imaginary
    part set to 0, and those at least that far above it."""
    real = [(re, 0) for re, im in roots if 2 * abs(im) < floor]
    upper = [r for r in roots if 2 * r[1] >= floor]
    return real, upper


def _aberth(chi: Sequence[int]) -> tuple[int, list[complex]] | None:
    """Roots of the monic chi in double precision by the Aberth-Ehrlich
    iteration, as (e, xs) with the roots 2**e xs, or None when it does not
    settle.

    The iteration runs on chi(s x) / s^n, s = 2**e for the least e with
    |c_k| < s^k for every coefficient c_k of x^{n-k}, so s <= 2 max
    |c_k|^(1/k) < 2 s (Fujiwara's bound on the roots).  The rescaled
    coefficients c_k / s^k are below 1, and each is put into a double by
    one correctly rounded integer division, which cannot overflow.  A root
    is settled once |chi(x)| is within the rounding error of its
    evaluation, 4 n eps sum |c_k| |x|^k.
    """
    n = len(chi) - 1
    e = max((-(-abs(c).bit_length() // k) for k, c in enumerate(chi[1:], 1) if c), default=0)
    coeffs = [c / (1 << (e * k)) for k, c in enumerate(chi)]
    # every root lies within twice this radius (Fujiwara)
    radius = max(abs(c) ** (1 / k) for k, c in enumerate(coeffs[1:], 1)) or 1.0
    xs = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    settled = [False] * n
    noise = 4 * n * sys.float_info.epsilon
    try:
        for _ in range(ABERTH_SWEEPS):
            moved = False
            for i, x in enumerate(xs):
                if settled[i]:
                    continue
                val = der = 0j
                bound = 0.0
                for c in coeffs:
                    der = der * x + val
                    val = val * x + c
                    bound = bound * abs(x) + abs(c)
                if not (cmath.isfinite(val) and math.isfinite(bound)):
                    return None
                if abs(val) <= noise * bound:
                    settled[i] = True
                    continue
                ratio = val / der
                repel = sum(1 / (x - y) for j, y in enumerate(xs) if j != i)
                xs[i] = x - ratio / (1 - ratio * repel)
                moved = True
            if not moved:
                return e, xs
    except ZeroDivisionError:
        pass
    return None


def _newton(chi: Sequence[int], start: complex, scale: int, bits: int) -> tuple[int, int] | None:
    """2**scale start refined to a root of chi by Newton's method on the
    grid 2**(-bits) Z[i], as a Gaussian integer in units of 2**(-bits).

    The double start is put on a grid at most 106 bits fine exactly, and the
    grid doubles at each step, chi and chi' evaluated by Horner's rule in
    integers; then up to NEWTON_EXTRA_STEPS steps on the full grid must
    bring a step down to 2**(-bits/2) (1 + |x|), or the result is None, as
    it is when chi' vanishes at an iterate.
    """
    grids = [bits]
    while grids[-1] > 106:
        grids.append((grids[-1] + 1) // 2)
    b = grids[-1]
    parts = (start.real.as_integer_ratio(), start.imag.as_integer_ratio())
    xr, xi = (_round_div(num << (scale + b), den) for num, den in parts)
    for k, grid in enumerate(grids[::-1] + [bits] * NEWTON_EXTRA_STEPS):
        if k >= len(grids):
            size = (1 << bits) + math.isqrt(xr * xr + xi * xi)
            if (sr * sr + si * si) << (bits // 2 * 2) <= size * size:
                return xr, xi
        xr, xi, b = xr << (grid - b), xi << (grid - b), grid
        vr = vi = dr = di = 0
        for c in chi:
            dr, di = ((dr * xr - di * xi) >> b) + vr, ((dr * xi + di * xr) >> b) + vi
            vr, vi = ((vr * xr - vi * xi) >> b) + (c << b), (vr * xi + vi * xr) >> b
        den = dr * dr + di * di
        if not den:
            return None
        sr = _round_div((vr * dr + vi * di) << b, den)
        si = _round_div((vi * dr - vr * di) << b, den)
        xr, xi = xr - sr, xi - si
    return None


def _row(a: Order, columns, lam: tuple[int, int], bits: int, q: int) -> Row:
    """sigma_lambda on the basis on the grid 2**(-q) Z[i]: w = sum_k
    lambda^{n-k} beta_k from the powers of lambda = (re + i im) 2**(-bits)
    on the grid 2**(-bits) Z[i], then w / (w . one) in one rounded Gaussian
    division; `columns` are the coordinates of the beta_k, column by
    column."""
    lr, li = lam
    powers = [(1 << bits, 0)]
    for _ in range(len(columns) - 1):
        r, i = powers[-1]
        powers.append(((r * lr - i * li) >> bits, (r * li + i * lr) >> bits))
    pr, pi = zip(*reversed(powers))
    wr = [sum(map(operator.mul, col, pr)) for col in columns]
    wi = [sum(map(operator.mul, col, pi)) for col in columns]
    ar, ai = (sum(c * w[i] for i, c in enumerate(a.one) if c) for w in (wr, wi))
    den = ar * ar + ai * ai
    return (
        tuple(_round_div((x * ar + y * ai) << q, den) for x, y in zip(wr, wi)),
        tuple(_round_div((y * ar - x * ai) << q, den) for x, y in zip(wr, wi)),
    )


def _min_separation(roots: Sequence[tuple[int, int]]) -> int:
    """The least squared distance |r_i - r_j|^2 of two Gaussian integers."""
    pairs = ((x, y) for k, x in enumerate(roots) for y in roots[k + 1 :])
    return min((xr - yr) ** 2 + (xi - yi) ** 2 for (xr, xi), (yr, yi) in pairs)


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n else 0


def _hom_residual(a: Order, rows: Sequence[Row], q: int) -> int:
    """The homomorphism residual of rows on the grid 2**(-q) Z[i], max
    |sigma(e_i) sigma(e_j) - sigma(e_i e_j)| and |sigma(1) - 1|, rounded
    up to the grid 2**(-2q) Z: an integer in units of 2**(-2q).

    With sigma = S / 2**q for Gaussian integers S, the residuals are
    (S_i S_j - 2**q sum_m T_ijm S_m) / 2**(2q) and (sum_i c_i S_i - 2**q) /
    2**q, c = coords(1), exact Gaussian integers over 2**(2q).  The sums
    sum_m T_ijm S_m are cell j of row i of `orders.table_times` of the real
    and of the imaginary parts, and as the table is commutative the cells
    with j >= i suffice.  The table is integral, so the conjugate of a row
    has the same residual, and a caller may pass one row of each conjugate
    pair.
    """
    n = a.rank
    shift = 1 << q
    one = [(i, c) for i, c in enumerate(a.one) if c]
    worst_pair = worst_one = 0
    for re, im in rows:
        dre = sum(c * re[i] for i, c in one) - shift
        dim = sum(c * im[i] for i, c in one)
        worst_one = max(worst_one, dre * dre + dim * dim)
        for i, (lre, lim) in enumerate(zip(table_times(a, re), table_times(a, im))):
            ri, ii = re[i], im[i]
            for j in range(i, n):
                dre = ri * re[j] - ii * im[j] - (lre[j] << q)
                dim = ri * im[j] + ii * re[j] - (lim[j] << q)
                worst_pair = max(worst_pair, dre * dre + dim * dim)
    return _ceil_sqrt(max(worst_pair, worst_one << (2 * q)))


def gram(e: EmbeddingMatrix) -> GramForm:
    """Gram form of the canonical inner product from an embedding matrix.

    Each entry sum_k Re(s_ki conj s_kj) of the rows s on the grid
    2**(-q) Z[i] is an exact integer sum on the grid 2**(-2q) Z, and one
    integer shift rounds it to the nearest point of 2**(-p) Z.
    """
    n, p = e.n, e.precision
    if n == 0:
        return GramForm(0, (), p, 0)
    shift = p + 2 * FIXED_GUARD_BITS
    half = 1 << (shift - 1)
    re_cols = list(zip(*(re for re, _ in e.rows)))
    im_cols = list(zip(*(im for _, im in e.rows)))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        ri, ii = re_cols[i], im_cols[i]
        for j in range(i, n):
            real = sum(map(operator.mul, ri, re_cols[j])) + sum(map(operator.mul, ii, im_cols[j]))
            entries[i][j] = entries[j][i] = (real + half) >> shift
    return GramForm(n, tuple(map(tuple, entries)), p, _tolerance(entries, p))


def trace_form(a: Order) -> GramForm | None:
    """The canonical form of a totally real order, exactly: the trace form
    Tr(xy) with its integer entries on the grid p = 0 and tolerance 0, or
    None when the trace form is not positive definite.  Decided once per
    order object and kept on it, the "no" included.

    Why it is the canonical form.  When every embedding sigma is real,
    sum_sigma sigma(x) conj sigma(y) = sum_sigma sigma(xy) = Tr(xy).  The
    test needs no embeddings, since the trace form is positive definite
    exactly when a is reduced and totally real.  A nilpotent x has Tr(x x)
    = 0, so a positive-definite trace form proves a reduced.  For reduced
    a, a (x) R is R^r1 x C^r2, and the trace form of each C, 2 Re(zw), has
    signature (1, 1), so the form is positive definite exactly when r2 = 0
    (Conner-Perlis, A Survey of Trace Forms of Algebraic Number Fields).

    The test is Sylvester's criterion by `intlinalg.leading_minors`
    (`_exact_form`), whose minors `lattices.lll_reduce` starts from.  It
    reads the trace form T that the order keeps (`orders.trace_gram`), the
    same T as the CM certificate's T z and `orders.nilradical`, and stops
    at the first pivot <= 0.
    """
    if "trace_form" not in a.derived:
        a.derived["trace_form"] = _exact_form(trace_gram(a).entries)
    return a.derived["trace_form"]


def cm_form(a: Order, precision: int, seed: int) -> GramForm | None:
    """The canonical form of an order of CM type, exactly: the integer form
    Tr(x i(y)), i complex conjugation, on the grid p = 0 with tolerance 0,
    or None when the order is not of CM type, that is, when a (x) Q is not
    a product of totally real and CM fields, or its form is not recognised
    at this precision.  Decided once per order object, from the rows of
    the first (precision, seed) that gives rows, and kept on it, the "no"
    included.

    Numerics propose: the Gram form F of the uncertified rows must lie
    within 2**(p/2) of 2**p G for an integer matrix G, a test of O(n^2)
    that is all an order that is not of CM type pays for.  Integers
    decide, in `_cm_certificate`.  On a "no" the same rows are `certified`
    and their form F is kept as the numeric level (precision, seed), so
    that level computes no embeddings and no form of its own;
    NotReduced, DegenerateSplitting and EscalationNeeded come out as they
    would from that level.  Why a rational form of an order of CM type is
    integral: each entry is a sum of products sigma(e_i) conj(sigma(e_j))
    of algebraic integers, and rational.
    """
    if "cm_form" not in a.derived:
        e = _proposed_embeddings(a, precision, seed)
        f = gram(e)
        p = precision
        half, slack = 1 << (p - 1), 1 << (p // 2)
        entries = tuple(tuple((x + half) >> p for x in row) for row in f.entries)
        near = all(
            abs(x - (y << p)) <= slack
            for row, rounded in zip(f.entries, entries)
            for x, y in zip(row, rounded)
        )
        a.derived["cm_form"] = g = _cm_certificate(a, e.splitting, entries) if near else None
        if g is None:
            certified(a, e)
            _numeric_form(a, precision, seed, f)
    return a.derived["cm_form"]


def _cm_certificate(a: Order, z: Sequence[int], entries) -> GramForm | None:
    """The exact form of the symmetric integer matrix G = entries when it is
    the canonical form <x, y> = sum_sigma sigma(x) conj(sigma(y)) of a, else
    None, given an element z of a whose characteristic polynomial is
    squarefree.  Three checks, in O(n^3) integer operations:

    1. one G = t, the trace functional: <1, u> = Tr(u) for every u.
    2. `leading_minors(G)` are positive: G is positive definite
       (`_exact_form`, whose form keeps them for LLL).
    3. For w = y / d, integer y, check d M_z^T G = G M_y, that is <z x,
       v> = <x, w v> for all x, v (M_x the matrix of multiplication by x,
       M_x coords(v) = coords(x v)).  w is proposed as the solution of G w
       = T z, T the trace form that the order keeps (`orders.trace_gram`),
       by `solve_definite` on the minors of check 2: when G is the
       canonical form, <e_k, i(z)> = Tr(i(e_k) i(z)) = Tr(e_k z), so w =
       i(z); but any w that passes is a proof.  As G is symmetric, G M_y
       is the transpose of M_y^T G, and row k of M_u^T G is <u e_k, e_j>
       over j.
       The table times the rows of G, packed (`orders.Packing`), gives
       <e_k e_i, e_j> over j, packed, and the rows of M_u^T G are the
       `product_matrix` of u: O(n^3) products of integers and no matrix of
       multiplication.  The digits of d M_z^T G and M_y^T G are at most
       n^2 d max|z| B T and n^2 max|y| B T in absolute value (B the largest
       |entry| of G, T that of the table), and the two sides are compared
       digit by digit as byte blocks.

    Why the checks prove it.  Write B(x, y) = x G y^T on A = a (x) Q.
    - The x whose B-adjoint is a multiplication, B(x u, v) = B(u, i(x) v),
      form a subalgebra: it contains 1 (i(1) = 1), and with x and x' it
      contains x + x' and x x' (the adjoint of M_x M_x' is M_i(x') M_i(x),
      as A is commutative).  Check 3 puts z in it, and z generates A, as
      its chi is squarefree (see `compute_embeddings`).  So i is defined on
      all of A, uniquely (M_b = M_b' gives b = b'), and it is an algebra
      endomorphism.
    - By check 1, B(x, y) = B(1, i(x) y) = Tr(i(x) y).  B is symmetric, so
      Tr(i(i(x)) y) = Tr(i(x) i(y)) = Tr(i(x y)) = Tr(x y) for all y (put
      u = x y in Tr(i(u)) = B(u, 1) = B(1, u) = Tr(u)), and the trace form
      of the reduced A is non-degenerate: i is an involution.
    - By check 2, Tr(i(x) x) > 0 for x != 0, also on A (x) R = R^r1 x C^r2:
      i is a positive involution.  It permutes the factors, and fixes each
      one, since i(f) = f' != f for idempotents f, f' of two factors would
      give Tr(i(f) f) = Tr(f' f) = 0.  On R it is the identity, and on C
      it is conjugation, since Tr(x x) = 2 Re(x^2) < 0 at x = sqrt(-1).
      So i is complex conjugation, and B(x, y) = Tr(i(x) y) = sum_sigma
      conj(sigma(x)) sigma(y), the canonical form.
    - A positive-definite Tr(i(x) x) also proves a reduced: a nilpotent x
      has i(x) x nilpotent, of trace 0.
    """
    n = a.rank
    if tuple(product_matrix(a.one, zip(*entries))) != trace_vector(a):
        return None
    g = _exact_form(entries)
    if g is None:
        return None
    # T z = (Tr(e_k z))_k
    y, d = solve_definite(g.minors, product_matrix(z, trace_gram(a).entries))
    top = max(max(map(max, entries)), -min(map(min, entries))) * table_bound(a)
    top *= n * n * max(d * max(map(abs, z)), max(map(abs, y)))
    packing = Packing(n, top)
    # row k of M_u^T G, <u e_k, e_j> over j, packed, is sum_i u_i h[k][i]
    h = list(table_times(a, [packing.pack(row) for row in entries]))
    left = packing.blocks([d * x for x in product_matrix(z, h)])
    return g if left == list(zip(*packing.blocks(product_matrix(y, h)))) else None


def escalate(
    precision: int,
    form: Callable[[int], GramForm],
    fn: Callable[[GramForm], T],
    exact: Callable[[int], GramForm | None] | None = None,
) -> T:
    """Run fn on an exact form, then on form(p), doubling p on ambiguity.

    This is the pipeline's only precision loop.  The levels try precision
    times 2**k for k = 0 .. ESCALATION_BUDGET, moving on whenever form,
    exact or fn raise EscalationNeeded or DegenerateSplitting.  When every
    level fails, the last DegenerateSplitting is re-raised, and any other
    failure becomes PrecisionExhausted.  form(p) is the Gram form on the
    grid 2**(-p) Z: the embeddings form of an order (`with_gram`), or a
    document read again (`gram_from_strings` is exact, so each level reads
    it afresh).

    exact(p), when the caller gives it, is the caller's exact form
    (tolerance 0) or None, asked at each level until it gives a form; that
    form is tried once, before form(p) of its level, and counts as no
    level: its verdicts are exact, so EscalationNeeded from it comes from a
    fault or from a reduced pivot below one grid unit (`lattices.lll_reduce`,
    as for the E8 form), and moves on to form(p) of the same level.
    """
    p = precision
    for _ in range(ESCALATION_BUDGET + 1):
        try:
            g = exact(p) if exact else None
            if g is not None:
                exact = None
                try:
                    return fn(g)
                except EscalationNeeded:
                    pass
            return fn(form(p))
        except (EscalationNeeded, DegenerateSplitting) as exc:
            last = exc
        p *= 2
    if isinstance(last, DegenerateSplitting):
        raise last
    raise PrecisionExhausted(f"numeric verdicts stayed ambiguous up to {p // 2} bits: {last}")


def with_gram(a: Order, config: RunConfig, fn: Callable[[GramForm], T]) -> T:
    """Run fn on the Gram form of a, through `escalate` from
    config.precision.

    The exact form comes first: the trace form of a totally real order
    (`trace_form`), else the form of an order of CM type (`cm_form`,
    decided from the rows of the first level).  Either serves every query
    at any precision or seed.  Otherwise the form of each (precision, seed)
    is computed once per order object and kept on it (successes only).
    Either way every query on that object shares the form, and through
    `GramForm.reduction` the LLL basis; an equal but distinct order
    computes its own.
    """

    def exact(p: int) -> GramForm | None:
        return trace_form(a) or cm_form(a, p, config.seed)

    return escalate(config.precision, lambda p: _numeric_form(a, p, config.seed), fn, exact)


def _numeric_form(a: Order, precision: int, seed: int, f: GramForm | None = None) -> GramForm:
    """The Gram form of the certified embeddings of a at (precision, seed),
    kept on a; `cm_form` passes the form f of rows it certified itself."""
    key = ("gram", precision, seed)
    if key not in a.derived:
        a.derived[key] = f or gram(compute_embeddings(a, precision, seed))
    return a.derived[key]
