"""Complex embeddings of a reduced order and its canonical inner product.

A reduced order of rank n has exactly n ring homomorphisms into the complex
numbers.  Each one, written as the row (sigma(e_0), ..., sigma(e_{n-1})), is a
common left eigenvector of the multiplication matrices: sigma * M_x =
sigma(x) * sigma.  For a seeded integer combination z of the basis, the
characteristic polynomial chi of M_z and the rows t . adj(xI - M_z), t the
trace functional, are computed exactly in integers; z is used only when chi
is squarefree, which is decided exactly.  Each root lambda of chi is then
refined by Newton's method, and t . adj(lambda - M_z) is the left
eigenvector of lambda, scaled so that sigma(1) = 1.  A residual bound
certifies that every row really is multiplicative to within the working
precision p: the rows are rounded once to the grid 2**(-q) Z[i], q = p + 16,
the residuals sigma(e_i) sigma(e_j) - sigma(e_i e_j) and sigma(1) - 1 are
computed exactly in integers on that grid, and a rounding slack of at most
(4 max|sigma| + 2 + 2 max_ij sum_m |T_ijm|) 2**(-q) turns their maximum
into a proven upper bound on the residual of the rows themselves (see
`_hom_residual`).

The inner product <x, y> = sum over embeddings of sigma(x) * conj(sigma(y))
is assembled into a Gram form on the grid 2**(-p) Z: each entry is one
exact integer sum on the grid 2**(-2q) Z, shifted once onto 2**(-p) Z, so
the form is a matrix F of Python integers with F / 2**p ~ <e_i, e_j>.
Inner products u F v^T are then exact integers, and the zero and sign
verdicts integer comparisons against a tolerance on the same grid, with a
wide ambiguous band in between: any value landing in the band aborts the
computation so the caller can escalate the precision instead of guessing.
The tolerance covers the rounding of the entries, so an exactly known form
can carry tolerance 0, and its verdicts are then exact.  mpmath stays where
numerics propose: the roots and rows here, and the LDL data that steers LLL
in `lattices`.  The Fincke-Pohst searches of `lattices` run on exact
integer data and are complete by proof.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import random
import sys
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int, round_ceiling, to_fixed

from .config import RunConfig
from .errors import (
    AmbiguousSign,
    AmbiguousZero,
    DegenerateSplitting,
    EscalationNeeded,
    NotReduced,
    PrecisionExhausted,
)
from .orders import Order, charpoly_rows, is_reduced

# |value| <= tol counts as zero, |value| >= AMBIGUITY_SPAN * tol as nonzero;
# anything in between needs more precision.
AMBIGUITY_SPAN = 1 << 16

# the zero tolerance of a form at p bits is 2**(-p/TOLERANCE_EXPONENT) times
# its largest entry (at least 1), on the grid of the form
TOLERANCE_EXPONENT = 3

# seeded splitting elements tried at one precision before the spectrum is
# declared degenerate
SPLITTING_TRIES = 8

# sweeps of the double-precision Aberth iteration, and Newton steps at full
# precision after the doubling ones, before a root proposal counts as failed
ABERTH_SWEEPS = 100
NEWTON_EXTRA_STEPS = 8

# fractional bits of the fixed-point grid of the residual and the Gram form,
# beyond the working precision
FIXED_GUARD_BITS = 16

# Gram forms kept by numeric_context.  The queries on one order run back to
# back, so a few entries give full reuse while bounding the memory held.
CONTEXT_CACHE_SIZE = 4

T = TypeVar("T")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """All ring homomorphisms into C, evaluated on the basis.

    sigma[k][i] is the k-th homomorphism applied to basis vector i.  Rows are
    sorted by the eigenvalue of the splitting element, so the output is
    reproducible for a fixed seed.
    """

    n: int
    sigma: tuple[tuple[mpc, ...], ...]
    precision: int
    residual: mpf


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


def compute_embeddings(a: Order, precision: int = 192, seed: int = 0) -> EmbeddingMatrix:
    """Numerically compute the n embeddings of a reduced order at one precision.

    For a seeded splitting element z, `charpoly_rows` gives, in integers,
    chi = det(xI - M_z) and the rows beta_k with t . adj(xI - M_z) =
    sum_k beta_k x^{n-k}, t the trace functional.  An element whose chi is
    not squarefree (gcd(chi, chi') != 1 over Q) has a repeated eigenvalue
    and is skipped.  Otherwise the roots lambda of chi are proposed in
    double precision, refined by Newton's method to p + max bitlength(beta)
    + 32 bits, and each gives the row sigma_lambda(e_i) = w_i / (w . one)
    with w = sum_k lambda^{n-k} beta_k.  Since adj(lambda - M_z) is a
    polynomial in M_z, w . one is its trace, chi'(lambda), which is
    nonzero because lambda is a simple root; so the row is a left
    eigenvector of M_z for lambda, scaled to sigma(1) = 1.  (Equally:
    adj(lambda - M_z) = chi'(lambda) M_e for the idempotent e of K (x) C
    belonging to lambda, and t . coords(e) = Tr(e) = 1.)  The homomorphism
    residual then certifies every row at the working precision.

    This is the pipeline's only reducedness check: every query reaches it
    through `numeric_context`, which keeps only successes, so it runs once
    per order and precision, and a non-reduced order raises NotReduced from
    every query.  Raises DegenerateSplitting when no seeded splitting
    element separates the eigenvalues and EscalationNeeded when the
    homomorphism residual is too large; `with_gram` retries both at a
    doubled precision.
    """
    if not is_reduced(a):
        raise NotReduced("only reduced orders admit this computation")
    n = a.rank
    if n == 0:
        return EmbeddingMatrix(0, (), precision, mpf(0))
    p = precision
    with mp.workprec(p):
        sep_floor = mpf(2) ** (-(p // 4))
        for attempt in range(SPLITTING_TRIES):
            rng = random.Random(f"{seed}:{p}:{attempt}")
            coeffs = [rng.randrange(-8 * n, 8 * n + 1) for _ in range(n)]
            chi, betas = charpoly_rows(a, coeffs)
            if not _squarefree(chi):
                continue
            bits = p + max(abs(b).bit_length() for beta in betas for b in beta) + 32
            roots = _roots(chi, bits, sep_floor)
            if roots is None:
                continue
            columns = list(zip(*betas))
            rows = [_row(a, columns, lam, bits) for lam in roots]
            keyed = []
            for lam, row in zip(roots, rows):
                keyed.append(((lam.real, lam.imag), row))
                if lam.imag:
                    keyed.append(((lam.real, -lam.imag), tuple(x.conjugate() for x in row)))
            keyed.sort(key=lambda item: item[0])
            sigma = tuple(row for _, row in keyed)
            # a conjugate row has the same residual as its partner
            residual = _hom_residual(a, rows)
            scale = n * (1 + max(abs(s) for row in rows for s in row)) ** 2
            if residual <= mpf(2) ** (-(p // 2)) * scale:
                return EmbeddingMatrix(n, sigma, p, residual)
            raise EscalationNeeded(f"embedding residual is above threshold at {p} bits")
    raise DegenerateSplitting(
        f"no splitting element separated the spectrum after {SPLITTING_TRIES} tries at {p} bits"
    )


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


def _roots(chi: Sequence[int], bits: int, sep_floor: mpf) -> list[mpc] | None:
    """The real roots and the roots in the upper half-plane of a squarefree
    chi at `bits` bits, or None when the roots are not pairwise farther
    apart than sep_floor.

    The starts come from `_aberth`; when it fails, or its refined roots
    collide, the caller moves on to the next splitting element.  chi is
    real, so a root nearer to its own conjugate than the roots are to one
    another is real and is returned with imaginary part 0; the others come
    in conjugate pairs, and one of each pair is returned.
    """
    starts = _aberth(chi)
    if starts is None:
        return None
    roots = [_newton(chi, x, bits) for x in starts]
    if any(r is None for r in roots) or _min_separation(roots) <= sep_floor:
        return None
    with mp.workprec(bits):
        real = [mpc(r.real) for r in roots if 2 * abs(r.imag) < sep_floor]
    upper = [r for r in roots if r.imag >= sep_floor / 2]
    if len(real) + 2 * len(upper) == len(roots):
        return real + upper
    return None


def _aberth(chi: Sequence[int]) -> list[complex] | None:
    """Roots of the monic chi in double precision by the Aberth-Ehrlich
    iteration, or None when it overflows or does not settle.

    A root is settled once |chi(x)| is within the rounding error of its
    evaluation, 4 n eps sum |c_k| |x|^k.
    """
    n = len(chi) - 1
    try:
        coeffs = [float(c) for c in chi]
    except OverflowError:
        return None
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
                return xs
    except ZeroDivisionError:
        pass
    return None


def _newton(chi: Sequence[int], x, bits: int) -> mpc | None:
    """x refined to a root of chi at `bits` bits by Newton's method, the
    precision doubling at each step; None unless a step at full precision
    ends up below half the bits."""
    precs = [bits]
    while precs[-1] > 106:
        precs.append((precs[-1] + 1) // 2)
    try:
        x = mpc(x)
        for prec in reversed(precs):
            with mp.workprec(prec):
                val, der = mp.polyval(chi, x, derivative=True)
                step = val / der
                x = x - step
        with mp.workprec(bits):
            for _ in range(NEWTON_EXTRA_STEPS):
                if abs(step) <= mp.ldexp(1 + abs(x), -(bits // 2)):
                    return x
                val, der = mp.polyval(chi, x, derivative=True)
                step = val / der
                x = x - step
    except ZeroDivisionError:
        pass
    return None


def _row(a: Order, columns, lam: mpc, bits: int) -> tuple[mpc, ...]:
    """sigma_lambda on the basis, w / (w . one) for w = sum_k lambda^{n-k}
    beta_k, computed at `bits` bits and divided at the caller's precision;
    `columns` are the coordinates of the beta_k, column by column."""
    with mp.workprec(bits):
        x = lam if lam.imag else lam.real
        powers = [mpf(1)]
        for _ in range(len(columns) - 1):
            powers.append(powers[-1] * x)
        powers.reverse()
        w = [mp.fdot(col, powers) for col in columns]
        at_one = mp.fdot(a.one, w)
    return tuple(mpc(x / at_one) for x in w)


def _min_separation(roots) -> mpf:
    n = len(roots)
    if n == 1:
        return mpf(1)
    return min(abs(roots[i] - roots[j]) for i in range(n) for j in range(i + 1, n))


def _fixed_rows(sigma, q: int) -> list[tuple[list[int], list[int]]]:
    """Each row as its real and imaginary parts on the grid 2**(-q)Z:
    floor(x * 2**q), so every entry moves by less than sqrt(2) 2**(-q)."""
    return [
        ([to_fixed(x.real._mpf_, q) for x in row], [to_fixed(x.imag._mpf_, q) for x in row])
        for row in sigma
    ]


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n else 0


def _hom_residual(a: Order, sigma) -> mpf:
    """Proven upper bound on the homomorphism residual of the given rows,
    max |sigma(e_i) sigma(e_j) - sigma(e_i e_j)| and |sigma(1) - 1|,
    computed in integers.

    Each row is rounded once to the grid 2**(-q)Z[i], q = p + 16 for the
    working precision p: s_i = S_i / 2**q with Gaussian integers S_i, and
    eps_i = sigma_i - s_i has |eps_i| <= delta < 2**(1-q) <= 1.  On the
    grid the residuals are exact: rho_ij = (S_i S_j - 2**q sum_m T_ijm
    S_m) / 2**(2q) and rho_1 = (sum_i c_i S_i - 2**q) / 2**q, c = coords(1).
    The true residuals differ from them by

        r_ij - rho_ij = eps_i sigma_j + s_i eps_j - sum_m T_ijm eps_m,
        r_1 - rho_1 = sum_i c_i eps_i.

    With A = max |S_i| rounded up, |s_i| <= A 2**(-q) and |sigma_j| <=
    A 2**(-q) + delta, so |r_ij| <= |rho_ij| + delta (2 A 2**(-q) + delta
    + sum_m |T_ijm|) and |r_1| <= |rho_1| + delta ||c||_1.  Both are at
    most the largest grid residual plus

        2**(1-q) (2 A 2**(-q) + 1 + W),  W = max(max_ij sum_m |T_ijm|, ||c||_1),

    which is what is returned, as a multiple of 2**(-2q) rounded up to an
    mpf.  A non-finite entry gives infinity.  The table is integral, so the
    conjugate of a row has the same residual, and a caller may pass one row
    of each conjugate pair.
    """
    n = a.rank
    if any(not mp.isfinite(x) for row in sigma for x in row):
        return mpf("inf")
    q = mp.prec + FIXED_GUARD_BITS
    shift = 1 << q
    width = max([sum(map(abs, cell)) for row in a.table for cell in row] + [sum(map(abs, a.one))])
    one = [(i, c) for i, c in enumerate(a.one) if c]
    worst_pair = worst_one = biggest = 0
    for re, im in _fixed_rows(sigma, q):
        biggest = max([biggest] + [x * x + y * y for x, y in zip(re, im)])
        dre = sum(c * re[i] for i, c in one) - shift
        dim = sum(c * im[i] for i, c in one)
        worst_one = max(worst_one, dre * dre + dim * dim)
        for i in range(n):
            ri, ii, cells, support = re[i], im[i], a.table[i], a.support[i]
            for j in range(i, n):
                cell = cells[j]
                lre = lim = 0
                for m in support[j]:
                    lre += cell[m] * re[m]
                    lim += cell[m] * im[m]
                dre = ri * re[j] - ii * im[j] - (lre << q)
                dim = ri * im[j] + ii * re[j] - (lim << q)
                worst_pair = max(worst_pair, dre * dre + dim * dim)
    grid = max(_ceil_sqrt(worst_pair), _ceil_sqrt(worst_one) << q)
    slack = 2 * (2 * _ceil_sqrt(biggest) + ((1 + width) << q))
    bound = mp.make_mpf(from_int(grid + slack, mp.prec, round_ceiling))
    return mp.ldexp(bound, -2 * q)


def _tolerance(entries, precision: int) -> int:
    biggest = max((abs(x) for row in entries for x in row), default=0)
    return max(biggest, 1 << precision) >> (precision // TOLERANCE_EXPONENT)


def gram(e: EmbeddingMatrix) -> GramForm:
    """Gram form of the canonical inner product from an embedding matrix.

    The rows are rounded once to the grid 2**(-q)Z[i] of `_hom_residual`,
    each entry sum_k Re(s_ki conj s_kj) is an exact integer sum on the grid
    2**(-2q)Z, and one integer shift rounds it to the nearest point of
    2**(-p)Z.
    """
    n, p = e.n, e.precision
    if n == 0:
        return GramForm(0, (), p, 0)
    q = p + FIXED_GUARD_BITS
    shift = 2 * q - p
    half = 1 << (shift - 1)
    rows = _fixed_rows(e.sigma, q)
    re_cols = list(zip(*(re for re, _ in rows)))
    im_cols = list(zip(*(im for _, im in rows)))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        ri, ii = re_cols[i], im_cols[i]
        for j in range(i, n):
            real = sum(map(operator.mul, ri, re_cols[j])) + sum(map(operator.mul, ii, im_cols[j]))
            entries[i][j] = entries[j][i] = (real + half) >> shift
    return GramForm(n, tuple(map(tuple, entries)), p, _tolerance(entries, p))


def gram_from_strings(rows: Sequence[Sequence[str]], precision: int = 192) -> GramForm:
    """Gram form from decimal-string entries, as used in the JSON exchange
    format.  The matrix must be a list of rows, square and symmetric as
    given, and each entry a string, int or float naming a finite real;
    anything else raises ValueError.  Each entry is read at the given
    precision and put on the nearest point of the grid 2**(-precision)Z."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ValueError("gram matrix must be a list of rows")
    n = len(rows)
    with mp.workprec(precision):
        values = tuple(tuple(_finite_real(x) for x in row) for row in rows)
        if any(len(r) != n for r in values):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if values[i][j] != values[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        entries = tuple(tuple(int(mp.nint(mp.ldexp(x, precision))) for x in row) for row in values)
    return GramForm(n, entries, precision, _tolerance(entries, precision))


def _finite_real(x) -> mpf:
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise ValueError(f"gram entry {x!r} is not a number")
    value = mpf(x)
    if not mp.isfinite(value):
        raise ValueError(f"gram entry {x!r} is not a finite real")
    return value


def as_real(g: GramForm, x: int) -> mpf:
    """A value on the grid of g as a real at the precision of g, for
    display."""
    with mp.workprec(g.precision):
        return mp.ldexp(x, -g.precision)


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
        f"|{mp.nstr(as_real(g, value), 8)}| is inside the ambiguous zero band at {g.precision} bits"
    )


def is_nonneg(g: GramForm, value: int) -> bool:
    """Sign verdict used by decomposition tests: is value >= 0 up to the
    tolerance?  Raises AmbiguousSign just below zero, inside the band."""
    if value >= -g.tolerance:
        return True
    if value <= -(AMBIGUITY_SPAN * g.tolerance):
        return False
    raise AmbiguousSign(
        f"{mp.nstr(as_real(g, value), 8)} is inside the ambiguous sign band at {g.precision} bits"
    )


@functools.lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def numeric_context(a: Order, precision: int, seed: int) -> GramForm:
    """Gram form of a at one precision, computed once and shared by every
    query on the same (order, precision, seed)."""
    return gram(compute_embeddings(a, precision, seed))


def with_gram(a: Order, config: RunConfig, fn: Callable[[GramForm], T]) -> T:
    """Run fn on the Gram form of a, doubling the precision on ambiguity.

    This is the pipeline's only precision loop: it tries config.precision
    times 2**k for k = 0 .. config.escalation_budget, moving on whenever the
    embeddings or fn raise EscalationNeeded or DegenerateSplitting.  When
    every level fails, the last DegenerateSplitting is re-raised, and any
    other failure becomes PrecisionExhausted.
    """
    p = config.precision
    for _ in range(config.escalation_budget + 1):
        try:
            return fn(numeric_context(a, p, config.seed))
        except (EscalationNeeded, DegenerateSplitting) as exc:
            last = exc
        p *= 2
    if isinstance(last, DegenerateSplitting):
        raise last
    raise PrecisionExhausted(f"numeric verdicts stayed ambiguous up to {p // 2} bits: {last}")
