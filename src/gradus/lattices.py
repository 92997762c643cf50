"""Positive-definite lattice machinery over a Gram form on the grid 2**(-p)Z.

A `GramForm` is a symmetric positive-definite matrix F of Python integers
on the grid 2**(-p) Z, F / 2**p the matrix of an inner product on Z^n.
Inner products u F v^T are exact integers, and the zero and sign verdicts
integer comparisons against a tolerance on the same grid, with a wide
ambiguous band in between: any value landing in the band aborts the
computation so the caller can escalate the precision instead of guessing.
The tolerance covers the rounding of the entries, so an exactly known form
can carry tolerance 0, and its verdicts are then exact.  This module also
owns number input and output, with `decimal` and `fractions`:
`gram_from_strings` reads decimal entries exactly onto the grid, and
`grid_str` prints grid values correctly rounded.  `embeddings` builds the
forms of an order.

LLL is integral: it reduces the exact grid Gram matrix from the form's one
fraction-free LDL (`GramForm.minors`) and ends with the exact LDL of the
reduced basis, which gives each centre's coordinates in that basis.  The
Fincke-Pohst searches run on that data, with mu and the centres in fixed
point on the grid 2**(-K) Z, K = `_grid_bits(D)` read off the pivots.
Each node widens its range by a proven bound on that rounding, so every
search is complete by proof (see `_fincke_pohst`) and its callers decide
the points exactly.

Provides LLL reduction of the standard basis, one Fincke-Pohst enumeration
kernel (short vectors around the origin, and the centred ball of the
lattice points x with <x, v - x> >= 0, which decides whether v
decomposes), and the finest orthogonal splitting
of the whole lattice into mutually orthogonal sublattices.  The splitting
splits each reduced-basis vector into indecomposables, at most one centred
search per vector and none below a bound the pivots give, each part
strictly shorter than its whole; the indecomposables reached sum to the
basis, so they generate the lattice, and their classes under "nonzero
inner product" span the parts.  One exact inverse of the
stacked class bases proves that they split the lattice with index 1 and
gives the coordinates the grading reads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal, InvalidOperation
from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_CONFIG
from .errors import AmbiguousSign, AmbiguousZero, EnumerationBudgetExceeded, EscalationNeeded
from .intlinalg import (
    IntMatrix,
    SublatticeBasis,
    Vec,
    inverse_unimodular,
    leading_minors,
    solve_definite,
    vec_neg,
    vec_sub,
)

# |value| <= tol counts as zero, |value| >= AMBIGUITY_SPAN * tol as nonzero;
# anything in between needs more precision.
AMBIGUITY_SPAN = 1 << 16

# the zero tolerance of a form at p bits is 2**(-p/TOLERANCE_EXPONENT) times
# its largest entry (at least 1), on the grid of the form
TOLERANCE_EXPONENT = 3

# the largest decimal exponent a Gram entry may have: |x| < 10**(E + 1).
# The exact grid value of 10**E is an integer of about 3.3 E bits, so the
# bound keeps reading one entry to milliseconds, far above the 10**310 of
# the largest forms in use
MAX_DECIMAL_EXPONENT = 10_000

# the Lovasz constant delta = 99/100 of LLL, as (numerator, denominator)
LLL_DELTA = (99, 100)

# fractional bits of the fixed-point Fincke-Pohst data when the pivots of
# the basis have equal bit lengths (see `_grid_bits`)
FP_BITS = 64


@dataclass(frozen=True)
class GramForm:
    """Symmetric positive-definite matrix of the canonical form on the grid
    2**(-p) Z, p = precision: entries[i][j] is the integer F_ij with
    F_ij / 2**p ~ <e_i, e_j>, and tolerance, the zero tolerance of every
    verdict on the form, is an integer on the same grid."""

    n: int
    entries: tuple[tuple[int, ...], ...]
    precision: int
    tolerance: int

    @functools.cached_property
    def minors(self) -> tuple | None:
        """The fraction-free LDL (lam, delta) of the entries,
        `intlinalg.leading_minors` at the floor `tolerance`, or None at the
        first pivot at most the tolerance.  The one elimination of the form:
        computed once per form object, or kept from the positivity test of
        an exact form (`embeddings._exact_form`), and LLL starts from a
        copy of it."""
        return leading_minors(self.entries, self.tolerance)

    @functools.cached_property
    def reduction(self) -> tuple:
        """The LLL basis of the form (rows of an IntMatrix), the fixed-point
        LDL data (D, M) of its Gram matrix on the grid of the form, and the
        exact LDL (lam, delta) of that Gram matrix, which solves for a
        vector's coordinates in the basis (`lll_reduce`).  Computed once
        per form object and shared by every enumeration and decomposition
        test on it."""
        rows, D, M, ldl = lll_reduce(self)
        return IntMatrix.from_rows(rows, self.n), D, M, ldl


def _tolerance(entries, precision: int) -> int:
    biggest = max((abs(x) for row in entries for x in row), default=0)
    return max(biggest, 1 << precision) >> (precision // TOLERANCE_EXPONENT)


def gram_from_strings(
    rows: Sequence[Sequence[str]], precision: int = DEFAULT_CONFIG.precision
) -> GramForm:
    """Gram form from decimal-string entries, as used in the JSON exchange
    format.  The matrix must be a list of rows, square and symmetric as
    given, and each entry a string, int or float naming a finite real below
    10**(MAX_DECIMAL_EXPONENT + 1) in magnitude; anything else raises
    ValueError.  Each entry is read exactly and put on the nearest point of
    the grid 2**(-precision)Z (ties to even), and the symmetry is checked on
    those grid points."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ValueError("gram matrix must be a list of rows")
    n = len(rows)
    entries = tuple(tuple(_grid_point(x, precision) for x in row) for row in rows)
    if any(len(r) != n for r in entries):
        raise ValueError("gram matrix must be square")
    if any(entries[i][j] != entries[j][i] for i in range(n) for j in range(i + 1, n)):
        raise ValueError("gram matrix must be symmetric")
    return GramForm(n, entries, precision, _tolerance(entries, precision))


def _grid_point(x, precision: int) -> int:
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise ValueError(f"gram entry {x!r} is not a number")
    try:
        d = Decimal(x)
    except InvalidOperation:
        raise ValueError(f"gram entry {x!r} is not a number") from None
    if not d.is_finite():
        raise ValueError(f"gram entry {x!r} is not a finite real")
    # |d| < 10**(-precision) is under half a grid step: 0 without building
    # the power of ten of a tiny exponent
    exponent = d.adjusted()
    if exponent < -precision:
        return 0
    if exponent > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"gram entry of order 10**{exponent} is above 10**{MAX_DECIMAL_EXPONENT}")
    return round(Fraction(d) * (1 << precision))


def grid_str(g: GramForm, x: int, digits: int) -> str:
    """The value x * 2**(-p) on the grid of g, rounded half away from zero
    to `digits` (>= 1) significant digits, in mpmath's `nstr` layout: fixed
    point when min(-(digits // 3), -5) < exponent < digits, and trailing
    zeros cut down to at least one digit after the point."""
    if not x:
        return "0.0"
    ctx = Context(prec=digits, rounding=ROUND_HALF_UP)
    d = ctx.divide(Decimal(x), 1 << g.precision).normalize(ctx)
    fixed = min(-(digits // 3), -5) < d.adjusted() < digits
    head, e, exponent = f"{d:{'f' if fixed else 'e'}}".partition("e")
    return (head if "." in head else head + ".0") + e + exponent


def inner(g: GramForm, u: Sequence[int], v: Sequence[int]) -> int:
    """Inner product of two integer coordinate vectors under the form: the
    exact integer u F v^T on the grid of g."""
    if len(u) != g.n or len(v) != g.n:
        raise ValueError("vector length does not match the form")
    return sum(ui * sum(map(operator.mul, row, v)) for ui, row in zip(u, g.entries) if ui)


def norm(g: GramForm, v: Sequence[int]) -> int:
    return inner(g, v, v)


def is_zero(g: GramForm, value: int) -> bool:
    """Tolerance verdict on an inner product on the grid of g.

    Raises AmbiguousZero when the magnitude falls in the band where neither
    verdict is safe; callers escalate precision on that signal.
    """
    mag = abs(value)
    if mag <= g.tolerance:
        return True
    if mag >= AMBIGUITY_SPAN * g.tolerance:
        return False
    raise AmbiguousZero(
        f"|{grid_str(g, value, 8)}| is inside the ambiguous zero band at {g.precision} bits"
    )


def is_nonneg(g: GramForm, value: int) -> bool:
    """Sign verdict used by decomposition tests: is value >= 0 up to the
    tolerance?  Raises AmbiguousSign just below zero, inside the band."""
    if value >= -g.tolerance:
        return True
    if value <= -(AMBIGUITY_SPAN * g.tolerance):
        return False
    raise AmbiguousSign(
        f"{grid_str(g, value, 8)} is inside the ambiguous sign band at {g.precision} bits"
    )


@dataclass(frozen=True)
class SDecomposition:
    """Pairwise-orthogonal sublattices whose sum is the whole lattice.

    Row m of the stacked component bases is vector m of the splitting, and
    `inverse` maps an element to its coordinates on those rows."""

    ambient_rank: int
    components: tuple[SublatticeBasis, ...]

    @functools.cached_property
    def inverse(self) -> IntMatrix:
        """Inverse of the stacked component bases: x = c . stack exactly
        when c = inverse.vec_mat(x).  Raises ValueError unless the
        components split the lattice with index 1."""
        rows = [v for c in self.components for v in c.vectors()]
        return inverse_unimodular(IntMatrix.from_rows(rows, self.ambient_rank))


def _grid_bits(D: Sequence[int]) -> int:
    """The fractional bits K of the fixed-point Fincke-Pohst data over the
    pivots D: FP_BITS plus the spread of their bit lengths.

    Any K >= 1 keeps a search complete (see `_fincke_pohst`); K sets how
    far it scans beyond the exact ball.  A node of pivot d_i hands its
    child up to about 4 delta_i sqrt(R_i d_i) 2**(-K) more budget than the
    exact remainder, and a node of pivot d_j below scans that surplus over
    a range of about sqrt(surplus / d_j).  On the grid 2**(-FP_BITS) alone
    a huge pivot swamps a tiny one: around e_1/2 under diag(3, 3 2**200,
    3 2**400) the surplus of d_1 is near d_1 2**(-63), which the pivot 3
    scans over more than 2**69 values for a ball of two points.  Widening
    the grid by the ratio of the largest pivot to the smallest keeps every
    surplus as small against min D as 2**(-FP_BITS) is against max D."""
    return FP_BITS + max(D, default=0).bit_length() - min(D, default=0).bit_length()


def lll_reduce(
    g: GramForm,
) -> tuple[list[Vec], list[int], list[tuple[int, ...]], tuple[list[list[int]], list[int]]]:
    """LLL-reduced basis of the standard lattice under the form g, with the
    fixed-point LDL data (D, M) of its Gram matrix on the grid of g and its
    exact LDL.

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7) on the exact Gram matrix F = g.entries.  It starts from a
    copy of `g.minors`, the `intlinalg.leading_minors` of F: the leading
    minors Delta_i (Delta_-1 = 1) and the integers lambda_ji = Delta_i
    mu_ji, so that the Gram matrix of the basis is L diag(d) L^T with
    L[j][i] = mu_ji and d_i = Delta_i / Delta_(i-1).  Size reduction
    subtracts round(mu_kj) b_j from b_k (a tie rounds half to even), and a
    swap of b_(k-1) and b_k updates Delta_(k-1), lambda_(k-1)(k-1) =
    Delta_(k-1) and the rest of lambda in O(n) exact divisions, so (lambda,
    Delta) stay the `leading_minors` of the Gram matrix of the basis.  The
    Lovasz test with delta = 99/100 is 100 (Delta_k Delta_(k-2) +
    lambda_k(k-1)^2) >= 99 Delta_(k-1)^2.

    Termination: every Delta_i is a positive integer, size reduction leaves
    them unchanged, and a swap replaces Delta_(k-1) by (Delta_k Delta_(k-2)
    + lambda_k(k-1)^2) / Delta_(k-1) < 99/100 Delta_(k-1), so their product
    falls by that factor with every swap.

    Returns the basis rows, D_i = floor(d_i), M[i] = (M_ji for j > i) with
    M_ji = round(mu_ji 2**K) (half up), K = `_grid_bits(D)`, and the exact
    LDL (lam, delta) of the Gram matrix of the basis in the format of
    `leading_minors` (delta[i + 1] = Delta_i, delta[0] = 1, lam[j][i] =
    lambda_ji for i <= j), so that d_i = delta[i + 1] / delta[i].  Raises
    AmbiguousZero, which callers treat as a request for more precision,
    when a pivot of the standard basis has d_i <= g.tolerance, or, with its
    own message, one of the final basis has D_i <= g.tolerance, which
    includes D_i = 0 (the exact E8 form, with positive minors, has one).
    """
    n, tol = g.n, g.tolerance
    num, den = LLL_DELTA
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    if g.minors is None:
        raise AmbiguousZero("form is not positive definite at the working precision")
    # delta[i + 1] = Delta_i; lam is lower triangular
    lam, delta = [list(row) for row in g.minors[0]], list(g.minors[1])
    k = 1
    while k < n:
        row = lam[k]
        for j in range(k - 1, -1, -1):
            q, r = divmod(2 * row[j] + delta[j + 1], 2 * delta[j + 1])
            if r == 0 and q & 1:  # a tie mu_kj = q - 1/2 rounds to even
                q -= 1
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                row[j] -= q * delta[j + 1]
                for t in range(j):
                    row[t] -= q * lam[j][t]
        m = row[k - 1]
        if den * (delta[k + 1] * delta[k - 1] + m * m) >= num * delta[k] ** 2:
            k += 1
            continue
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        lam[k - 1][: k - 1], row[: k - 1] = row[: k - 1], lam[k - 1][: k - 1]
        b = (delta[k + 1] * delta[k - 1] + m * m) // delta[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (delta[k + 1] * lam[i][k - 1] - m * t) // delta[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // delta[k + 1]
        delta[k] = lam[k - 1][k - 1] = b
        k = max(k - 1, 1)
    D = [delta[i + 1] // delta[i] for i in range(n)]
    if any(x <= tol for x in D):
        raise AmbiguousZero("a reduced pivot is less than one grid unit above the zero tolerance")
    K = _grid_bits(D)
    M = [
        tuple(
            ((lam[j][i] << (K + 1)) + delta[i + 1]) // (2 * delta[i + 1])
            for j in range(i + 1, n)
        )
        for i in range(n)
    ]
    return [tuple(row) for row in basis], D, M, (lam, delta)


def _fincke_pohst(D, M, C, limit: int, visit) -> bool:
    """Call visit(x) on every integer coordinate vector x in the reduced
    basis with Q(x - c) <= limit (on one of x and -x when c = 0), and
    possibly on a few points just outside, until visit returns True; return
    whether it did.

    Q(y) = y H y^T for H the exact Gram matrix of the basis on the grid of
    the form, written through its LDL data as Q(y) = sum_i d_i (y_i + sum_{j>i}
    mu_ji y_j)^2; D, M are those of `lll_reduce`, and C_i = c_i 2**K with
    K = `_grid_bits(D)` is the centre on the grid 2**(-K) Z.  Depth-first
    from the last coordinate (Fincke-Pohst), in integers only.  `x` is reused between
    calls: copy what is kept.

    Completeness.  Given x_j for j > i, Q(x - c) <= limit requires
    d_i (x_i - t_i)^2 <= R_i, where t_i = c_i - sum_{j>i} mu_ji (x_j - c_j) is
    the conditional centre and R_i = limit - sum_{j>i} d_j (x_j - t_j)^2 the
    exact remaining budget.  With y_j = x_j 2**K - C_j the node computes
    T_i = C_i - (sum_{j>i} M_ji y_j >> K); since |M_ji - mu_ji 2**K| <= 1/2
    and the shift floors, |T_i - t_i 2**K| <= sum_{j>i} |y_j| / 2**(K+1) + 1
    <= delta_i = floor(sum_{j>i} |y_j| / 2**(K+1)) + 2.  The node holds an
    integer budget B_i >= R_i 2**(2K) on the grid 2**(-2K) (B = limit << 2K
    at the top).  Then every admissible x_i has |x_i 2**K - t_i 2**K| <=
    sqrt(B_i / D_i) < isqrt(B_i // D_i) + 1 (as D_i <= d_i), so |x_i 2**K -
    T_i| is below the radius isqrt(B_i // D_i) + 1 + delta_i, the range
    scanned.  Its exact cost d_i (x_i - t_i)^2 2**(2K) on that grid is at
    least s_i = D_i max(0, |x_i 2**K - T_i| - delta_i)^2, an integer charged
    unrounded, so s_i <= R_i 2**(2K) <= B_i passes the test below, and the
    child gets B_i - s_i >= (R_i - d_i (x_i - t_i)^2) 2**(2K) = R_{i-1}
    2**(2K).  By induction every point of the exact ball is visited.

    Symmetry.  At the origin (C = 0) the ball is symmetric, and a node
    whose coordinates above it are all 0 scans x_i >= 0 only.  Of a pair x,
    -x (x != 0) in the exact ball, the one whose last nonzero coordinate is
    positive has x_j = 0 above that coordinate and x_j > 0 at it, so every
    node on its path scans its coordinate and the argument above reaches
    it.  The other is never visited: its last nonzero coordinate is
    negative, at a node that scans only x_i >= 0.  So one point of each
    pair of the exact ball is visited, and 0 once.
    """
    n = len(D)
    K = _grid_bits(D)
    origin = not any(C)
    x = [0] * n
    y = [0] * n

    def descend(i, budget, spread):
        # spread = sum_{j>i} |y_j|, which at the origin is 0 exactly when
        # every coordinate above i is 0
        t = C[i] - (sum(map(operator.mul, M[i], y[i + 1 :])) >> K)
        delta = (spread >> (K + 1)) + 2
        d = D[i]
        radius = math.isqrt(budget // d) + 1 + delta
        low = -((radius - t) >> K)
        if origin and not spread:
            low = max(low, 0)
        for xi in range(low, ((t + radius) >> K) + 1):
            fixed = xi << K
            e = abs(fixed - t) - delta
            spent = d * e * e if e > 0 else 0
            if spent > budget:
                continue
            x[i] = xi
            y[i] = fixed - C[i]
            if visit(x) if i == 0 else descend(i - 1, budget - spent, spread + abs(y[i])):
                return True
        return False

    try:
        return limit >= 0 and descend(n - 1, limit << 2 * K, 0)
    finally:
        # descend refers to itself; unbinding it frees visit and what visit
        # holds now rather than at the next cyclic collection
        del descend


def enumerate_up_to(
    g: GramForm, limit: int, cap: int = DEFAULT_CONFIG.enumeration_cap
) -> list[Vec]:
    """All nonzero vectors v with norm(g, v) <= limit + tolerance, for an
    integer limit on the grid of g, one representative per +/- pair (the
    lexicographically positive one), in increasing norm and
    lexicographically among equal norms.

    The search visits one point of each pair (see `_fincke_pohst`) and
    proposes a superset of the ball; each point is kept on its exact norm,
    so the output and the cap count are exactly that set."""
    n = g.n
    if n == 0:
        return []
    limit += g.tolerance
    basis, D, M, _ = g.reduction
    zero = (0,) * n
    found: list[tuple[int, Vec]] = []

    def keep(x):
        if any(x):
            v = basis.vec_mat(x)
            q = norm(g, v)
            if q <= limit:
                found.append((q, max(v, vec_neg(v))))
                if len(found) > cap:
                    raise EnumerationBudgetExceeded(
                        f"more than {cap} short vectors below bound {grid_str(g, limit, 8)}"
                    )
        return False

    _fincke_pohst(D, M, zero, limit, keep)
    found.sort()
    return [v for _, v in found]


def search_centred_ball(g: GramForm, v: Sequence[int], visit) -> bool:
    """Call visit(x) on every lattice vector x with <x, v - x> >= 0, and
    possibly on a few more, until visit returns True; return whether it did.

    <x, v - x> = |v|^2/4 - |x - v/2|^2, so these are the lattice points of
    the ball |x - v/2|^2 <= |v|^2/4, listed by a centred Fincke-Pohst search
    (complete by `_fincke_pohst`) and passed in the original basis.  The
    radius is widened by AMBIGUITY_SPAN * tolerance, so every point whose
    sign test is not a clear "negative" is visited; visit makes the exact
    decision.

    The centre.  The coordinates c of v in the LLL basis B (rows b_i),
    c B = v, solve H c^T = B F v^T for the Gram matrix H = B F B^T of the
    basis, as H c^T = B F (c B)^T.  H is positive definite, so that
    solution is unique, and `solve_definite` finds it in O(n^2) operations
    on the exact LDL of H that LLL leaves (`lll_reduce`).  It is integral:
    B is unimodular (an LLL basis of the standard lattice), so c = v B^(-1)
    has integer entries, and the solution y / d in lowest terms has d = 1.
    """
    if g.n == 0:
        return bool(visit(()))
    basis, D, M, ldl = g.reduction
    # F v^T, then B F v^T
    column = [sum(map(operator.mul, row, v)) for row in g.entries]
    coords, _ = solve_definite(ldl, [sum(map(operator.mul, b, column)) for b in basis.entries])
    # v / 2 in the reduced basis, on the grid 2**(-K) Z of the search
    K = _grid_bits(D)
    centre = [c << (K - 1) for c in coords]
    # |v|^2 / 4 rounded up, on the grid of g
    limit = -(-norm(g, v) // 4) + AMBIGUITY_SPAN * g.tolerance
    return _fincke_pohst(D, M, centre, limit, lambda x: visit(basis.vec_mat(x)))


def _split(g: GramForm, v: Vec) -> Vec | None:
    """The first point x of `search_centred_ball` other than 0 and v with
    <x, v - x> >= 0, which splits v into x + (v - x), or None when v is
    indecomposable.  One inside the ambiguous band raises AmbiguousSign."""
    found = []

    def splits(x):
        if any(x) and x != v and is_nonneg(g, inner(g, x, vec_sub(v, x))):
            found.append(x)
            return True
        return False

    search_centred_ball(g, v, splits)
    return found[0] if found else None


def is_indecomposable(g: GramForm, v: Sequence[int]) -> bool:
    """Whether v admits no decomposition v = x + (v - x) into two nonzero
    parts with <x, v - x> >= 0 (see `_split`)."""
    v = tuple(v)
    if not any(v):
        raise ValueError("the zero vector is not eligible")
    return _split(g, v) is None


def universal_s_decomposition(g: GramForm) -> SDecomposition:
    """Finest splitting of the lattice into pairwise-orthogonal sublattices.

    The finest orthogonal splitting is unique (Eichler), and every
    indecomposable vector lies in exactly one of its parts, so the classes
    of *any* generating set of indecomposables under "nonzero inner
    product" span the parts.  Such a set comes from the reduced basis: each
    basis vector v is split by `_split` into x + (v - x), the parts are split
    in turn, and a vector that does not split is a leaf, kept once per +/-
    pair.  Every basis vector is a signed sum of the leaves below it, so the
    leaves generate the lattice.  A vector met again up to sign is searched
    only once: the leaves below its first meeting sum to it as well.

    A vector v with |v|^2 + 2 AMBIGUITY_SPAN tol < 2 min d, d the exact
    pivots Delta_i / Delta_(i-1) of the reduced basis and tol the
    tolerance, is a leaf with no search.  A nonzero lattice vector x =
    sum_i x_i b_i with x_k its last nonzero coordinate has |x|^2 >= x_k^2
    d_k >= d_k, so lambda_1 >= min d.  The search accepts, or finds
    ambiguous, only a pair x, v - x of nonzero vectors with <x, v - x> >
    -AMBIGUITY_SPAN tol (see `is_nonneg`), and then 2 min d <= |x|^2 +
    |v - x|^2 = |v|^2 - 2<x, v - x> < |v|^2 + 2 AMBIGUITY_SPAN tol.  So
    below the bound the search would find no split and raise nothing: the
    leaf is its verdict.  The bound is exact: on the grid p = 0 of an
    exact form the floors D_i = floor(d_i) would lose up to one unit of
    each pivot.

    Termination: |x|^2 + |v - x|^2 = |v|^2 - 2<x, v - x> <= |v|^2, so both
    parts are strictly shorter than v, and the norms on the exact grid form,
    which `lll_reduce` proved positive definite, are positive integers.  A
    part that is not strictly shorter can only come from a wrong numeric
    verdict and raises EscalationNeeded.  A leaf joins, in one class, every
    class with a member it has a nonzero inner product with, so the classes
    are the connected components of the leaves.  The exact inverse of the
    stacked component bases (`SDecomposition.inverse`), which exists
    exactly when the components split the lattice with index 1, guards
    against a wrong numeric verdict.
    """
    n = g.n
    classes: list[list[Vec]] = []
    seen: set[Vec] = set()
    basis, _, _, (_, delta) = g.reduction
    # the least pivot d_i = delta[i + 1] / delta[i], as num / den: v is a
    # leaf without a search when (|v|^2 + band) den < 2 num
    num, den = 1, 0
    for hi, lo in zip(delta[1:], delta):
        if hi * den < num * lo:
            num, den = hi, lo
    band = 2 * AMBIGUITY_SPAN * g.tolerance
    stack = list(basis.entries)
    while stack:
        v = stack.pop()
        key = max(v, vec_neg(v))  # of +/-v, the one with a positive first entry
        if key in seen:
            continue
        seen.add(key)
        q = norm(g, v)
        x = None if (q + band) * den < 2 * num else _split(g, v)
        if x is not None:
            y = vec_sub(v, x)
            if not (norm(g, x) < q and norm(g, y) < q):
                raise EscalationNeeded("a splitting of a vector has a part no shorter than it")
            stack += [x, y]
            continue
        # F key^T, so that each <u, key> below is one dot product
        column = [sum(map(operator.mul, row, key)) for row in g.entries]
        met = [any(not is_zero(g, sum(map(operator.mul, u, column))) for u in c) for c in classes]
        joined = [key] + [u for c, m in zip(classes, met) if m for u in c]
        classes = [c for c, m in zip(classes, met) if not m] + [joined]
    components = sorted(
        (SublatticeBasis.from_vectors(n, c) for c in classes), key=lambda c: min(c.vectors())
    )
    dec = SDecomposition(n, tuple(components))
    try:
        dec.inverse  # exists exactly when the components split with index 1
    except ValueError as exc:
        raise EscalationNeeded(
            "indecomposable vectors failed to split the lattice exactly; "
            "a zero test was likely misclassified"
        ) from exc
    return dec
