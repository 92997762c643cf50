"""Complex embeddings of a reduced order and its canonical inner product.

A reduced order of rank n has exactly n ring homomorphisms into the complex
numbers.  Each one, written as the row (sigma(e_0), ..., sigma(e_{n-1})), is a
common left eigenvector of the multiplication matrices: sigma * M_x =
sigma(x) * sigma.  So the rows are recovered numerically as the
eigenvectors of the transpose of M_z for a seeded integer combination z of
the basis, computed at the working precision and scaled so that
sigma(1) = 1.  A residual bound certifies that every row really is
multiplicative to within the working precision.

The inner product <x, y> = sum over embeddings of sigma(x) * conj(sigma(y))
is assembled into a Gram form.  Entries can be irrational, so zero tests are
made against a tolerance, with a wide ambiguous band in between: any value
landing in the band aborts the computation so the caller can escalate the
precision instead of guessing.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from mpmath import mp, mpc, mpf

from .config import RunConfig
from .errors import (
    AmbiguousSign,
    AmbiguousZero,
    DegenerateSplitting,
    EscalationNeeded,
    NotReduced,
    PrecisionExhausted,
)
from .orders import Order, is_reduced, regular_matrix

# |value| <= tol counts as zero, |value| >= AMBIGUITY_SPAN * tol as nonzero;
# anything in between needs more precision.
AMBIGUITY_SPAN = 1 << 16

# the zero tolerance of a form at p bits is 2**(-p/TOLERANCE_EXPONENT) times
# its largest entry (at least 1)
TOLERANCE_EXPONENT = 3

# seeded splitting elements tried at one precision before the spectrum is
# declared degenerate
SPLITTING_TRIES = 8

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
    """Real symmetric positive-definite matrix of the canonical form."""

    n: int
    entries: tuple[tuple[mpf, ...], ...]
    precision: int
    tolerance: mpf
    residual: mpf


def compute_embeddings(a: Order, precision: int = 192, seed: int = 0) -> EmbeddingMatrix:
    """Numerically compute the n embeddings of a reduced order at one precision.

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
            # the transpose of M_z: its eigenvectors are the left ones of M_z
            mzt = mp.matrix(regular_matrix(a, coeffs).entries).T
            try:
                eigvals, eigvecs = mp.eig(mzt)
            except (ZeroDivisionError, mp.NoConvergence):  # pragma: no cover
                continue
            except RuntimeError as exc:
                # mp.eig's QR iteration raises a bare RuntimeError when it
                # does not converge, as it can on a repeated eigenvalue
                if "failed to converge" not in str(exc):
                    raise
                continue
            if _min_separation(eigvals) <= sep_floor:
                continue
            sigma = []
            for k in range(n):
                w = [eigvecs[r, k] for r in range(n)]
                at_one = mp.fsum(c * w[i] for i, c in enumerate(a.one) if c)
                sigma.append(tuple(x / at_one for x in w))
            order_keys = sorted(range(n), key=lambda k: (mp.re(eigvals[k]), mp.im(eigvals[k])))
            sigma = tuple(sigma[k] for k in order_keys)
            residual = _hom_residual(a, sigma)
            scale = n * (1 + max(abs(s) for row in sigma for s in row)) ** 2
            if residual <= mpf(2) ** (-(p // 2)) * scale:
                return EmbeddingMatrix(n, sigma, p, residual)
            raise EscalationNeeded(f"embedding residual is above threshold at {p} bits")
    raise DegenerateSplitting(
        f"no splitting element separated the spectrum after {SPLITTING_TRIES} tries at {p} bits"
    )


def _min_separation(eigvals) -> mpf:
    n = len(eigvals)
    if n == 1:
        return mpf(1)
    return min(abs(eigvals[i] - eigvals[j]) for i in range(n) for j in range(i + 1, n))


def _hom_residual(a: Order, sigma) -> mpf:
    n = a.rank
    worst = mpf(0)
    for row in sigma:
        one_val = mp.fsum(c * row[i] for i, c in enumerate(a.one) if c)
        worst = max(worst, abs(one_val - 1))
        for i in range(n):
            for j in range(i, n):
                lin = mp.fsum(
                    t * row[m] for m, t in enumerate(a.table[i][j]) if t
                )
                worst = max(worst, abs(row[i] * row[j] - lin))
    return worst


def _tolerance(entries, precision: int) -> mpf:
    biggest = max((abs(x) for row in entries for x in row), default=mpf(1))
    return mpf(2) ** (-(precision // TOLERANCE_EXPONENT)) * max(biggest, mpf(1))


def gram(e: EmbeddingMatrix) -> GramForm:
    """Gram form of the canonical inner product from an embedding matrix."""
    n = e.n
    if n == 0:
        return GramForm(0, (), e.precision, mpf(0), e.residual)
    with mp.workprec(e.precision):
        entries = [[mpf(0)] * n for _ in range(n)]
        worst_imag = mpf(0)
        for i in range(n):
            for j in range(i, n):
                val = mp.fsum(row[i] * mp.conj(row[j]) for row in e.sigma)
                worst_imag = max(worst_imag, abs(mp.im(val)))
                entries[i][j] = entries[j][i] = mp.re(val)
        tol = _tolerance(entries, e.precision)
        residual = max(e.residual, worst_imag)
    return GramForm(n, tuple(tuple(r) for r in entries), e.precision, tol, residual)


def gram_from_strings(rows: Sequence[Sequence[str]], precision: int = 192) -> GramForm:
    """Gram form from decimal-string entries, as used in the JSON exchange
    format.  The matrix must be a list of rows, square and symmetric as
    given, and each entry a string, int or float naming a finite real;
    anything else raises ValueError."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ValueError("gram matrix must be a list of rows")
    n = len(rows)
    with mp.workprec(precision):
        entries = tuple(tuple(_finite_real(x) for x in row) for row in rows)
        if any(len(r) != n for r in entries):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        tol = _tolerance(entries, precision)
    return GramForm(n, entries, precision, tol, mpf(0))


def _finite_real(x) -> mpf:
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise ValueError(f"gram entry {x!r} is not a number")
    value = mpf(x)
    if not mp.isfinite(value):
        raise ValueError(f"gram entry {x!r} is not a finite real")
    return value


def inner(g: GramForm, u: Sequence[int], v: Sequence[int]) -> mpf:
    """Inner product of two integer coordinate vectors under the form."""
    if len(u) != g.n or len(v) != g.n:
        raise ValueError("vector length does not match the form")
    with mp.workprec(g.precision):
        total = mpf(0)
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = g.entries[i]
            total += ui * mp.fsum(row[j] * vj for j, vj in enumerate(v) if vj)
        return total


def norm(g: GramForm, v: Sequence[int]) -> mpf:
    return inner(g, v, v)


def is_zero(g: GramForm, value: mpf) -> bool:
    """Tolerance verdict on a computed inner product.

    Raises AmbiguousZero when the magnitude falls in the band where neither
    verdict is safe; callers escalate precision on that signal.
    """
    mag = abs(value)
    if mag <= g.tolerance:
        return True
    if mag >= AMBIGUITY_SPAN * g.tolerance:
        return False
    raise AmbiguousZero(
        f"|{mp.nstr(value, 8)}| is inside the ambiguous zero band at {g.precision} bits"
    )


def is_nonneg(g: GramForm, value: mpf) -> bool:
    """Sign verdict used by decomposition tests: is value >= 0 up to the
    tolerance?  Raises AmbiguousSign just below zero, inside the band."""
    if value >= -g.tolerance:
        return True
    if value <= -(AMBIGUITY_SPAN * g.tolerance):
        return False
    raise AmbiguousSign(
        f"{mp.nstr(value, 8)} is inside the ambiguous sign band at {g.precision} bits"
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
