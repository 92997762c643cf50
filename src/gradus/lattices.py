"""Positive-definite lattice machinery over a numeric Gram form.

Provides LLL reduction of the standard basis, Fincke-Pohst enumeration of
short vectors, decomposition tests for single vectors, and the finest
orthogonal splitting of the whole lattice into mutually orthogonal
sublattices.  The splitting algorithm enumerates every vector up to the
largest reduced-basis norm, keeps the indecomposable ones (every lattice is
generated by those), and groups them into the connected components of the
nonzero-inner-product graph; the components span the answer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from mpmath import mp, mpf

from .errors import (
    AmbiguousZero,
    EnumerationBudgetExceeded,
    EscalationNeeded,
    InfiniteIndex,
    NoMorphism,
)
from .intlinalg import (
    SublatticeBasis,
    Vec,
    direct_sum_index,
    vec_sub,
)
from .embeddings import GramForm, inner, is_nonneg, is_zero, norm

LLL_DELTA = "0.99"

# Gram forms whose reduction is kept; the queries on one order share one
# form, so a few entries suffice.
REDUCTION_CACHE_SIZE = 4


@dataclass(frozen=True)
class SDecomposition:
    """Pairwise-orthogonal sublattices whose sum is the whole lattice."""

    ambient_rank: int
    components: tuple[SublatticeBasis, ...]
    gram: GramForm


def _gram_of(g: GramForm, rows: Sequence[Sequence[int]]):
    k = len(rows)
    out = [[mpf(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            out[i][j] = out[j][i] = inner(g, rows[i], rows[j])
    return out


def _ldl(gmat, tol):
    """Unit lower-triangular LDL data of a positive-definite matrix.

    Returns (d, mu) with gmat = L D L^T, L[i][j] = mu[i][j] for j < i.
    Raises AmbiguousZero when a pivot is too small to trust, which callers
    treat as a request for more precision.
    """
    k = len(gmat)
    d = [mpf(0)] * k
    mu = [[mpf(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i):
            s = gmat[i][j]
            for t in range(j):
                s -= mu[i][t] * mu[j][t] * d[t]
            mu[i][j] = s / d[j]
        s = gmat[i][i]
        for t in range(i):
            s -= mu[i][t] ** 2 * d[t]
        if s <= tol:
            raise AmbiguousZero("form is not positive definite at the working precision")
        d[i] = s
    return d, mu


def lll_reduce(g: GramForm, delta: str = LLL_DELTA) -> list[Vec]:
    """LLL-reduced basis of the standard lattice under the form g.

    Arithmetic on the Gram-Schmidt data runs at the precision of g; the
    basis itself stays integral throughout.
    """
    n = g.n
    if n <= 1:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    with mp.workprec(g.precision):
        dlt = mpf(delta)
        basis = [[int(i == j) for j in range(n)] for i in range(n)]

        def gso():
            return _ldl(_gram_of(g, basis), g.tolerance)

        d, mu = gso()
        k = 1
        while k < n:
            for j in range(k - 1, -1, -1):
                q = int(mp.nint(mu[k][j]))
                if q:
                    basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                    # standard coefficient update keeps the GS data exact
                    mu[k][j] -= q
                    for t in range(j):
                        mu[k][t] -= q * mu[j][t]
            if d[k] >= (dlt - mu[k][k - 1] ** 2) * d[k - 1]:
                k += 1
            else:
                basis[k - 1], basis[k] = basis[k], basis[k - 1]
                d, mu = gso()
                k = max(k - 1, 1)
        return [tuple(row) for row in basis]


@functools.lru_cache(maxsize=REDUCTION_CACHE_SIZE)
def _reduction(g: GramForm):
    """LLL basis of g with the LDL data of its Gram matrix, computed once
    per form and shared by every enumeration and decomposition on it."""
    with mp.workprec(g.precision):
        red = tuple(lll_reduce(g))
        d, mu = _ldl(_gram_of(g, red), g.tolerance)
    return red, d, mu


def enumerate_up_to(g: GramForm, bound, cap: int = 10**6) -> list[Vec]:
    """All nonzero vectors v with <v, v> <= bound (up to the tolerance),
    one representative per +/- pair, sorted lexicographically."""
    n = g.n
    if n == 0:
        return []
    with mp.workprec(g.precision):
        limit = mpf(bound) + g.tolerance
        red, d, mu = _reduction(g)
        found: set[Vec] = set()
        x = [0] * n

        def descend(i, budget):
            if budget < 0:
                return
            center = mp.fsum(mu[j][i] * x[j] for j in range(i + 1, n) if x[j])
            radius = mp.sqrt(budget / d[i])
            lo = int(mp.ceil(-center - radius))
            hi = int(mp.floor(-center + radius))
            for xi in range(lo, hi + 1):
                x[i] = xi
                spent = d[i] * (xi + center) ** 2
                if spent > budget:
                    continue
                if i == 0:
                    if any(x):
                        v = tuple(
                            sum(x[r] * red[r][c] for r in range(n)) for c in range(n)
                        )
                        for c in v:
                            if c:
                                if c < 0:
                                    v = tuple(-y for y in v)
                                break
                        found.add(v)
                        if len(found) > cap:
                            raise EnumerationBudgetExceeded(
                                f"more than {cap} short vectors below bound {mp.nstr(limit, 8)}"
                            )
                else:
                    descend(i - 1, budget - spent)
            x[i] = 0

        descend(n - 1, limit)
    return sorted(found)


def is_decomposition(g: GramForm, z: Sequence[int], x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether (x, y) decomposes z: z = x + y exactly and <x, y> >= 0."""
    if tuple(z) != tuple(a + b for a, b in zip(x, y, strict=True)):
        return False
    return is_nonneg(g, inner(g, x, y))


def is_indecomposable(g: GramForm, v: Sequence[int], pool: Sequence[Vec] | None = None) -> bool:
    """Whether v admits no decomposition into two nonzero parts.

    `pool` may carry a precomputed enumeration of vectors with norm up to at
    least <v, v>; any nontrivial part of v must appear there up to sign.
    """
    v = tuple(v)
    if not any(v):
        raise ValueError("the zero vector is not eligible")
    with mp.workprec(g.precision):
        nv = norm(g, v)
        if pool is None:
            pool = enumerate_up_to(g, nv)
        for cand in pool:
            if norm(g, cand) > nv + g.tolerance:
                continue
            for x in (cand, tuple(-c for c in cand)):
                if x == v:
                    continue
                if is_nonneg(g, inner(g, x, vec_sub(v, x))):
                    return False
    return True


def universal_s_decomposition(g: GramForm, cap: int = 10**6) -> SDecomposition:
    """Finest splitting of the lattice into pairwise-orthogonal sublattices.

    Enumerates all vectors up to the largest reduced-basis norm, filters the
    indecomposable ones, and groups them by connectivity under nonzero inner
    products.  The grouping provably reproduces the unique finest orthogonal
    decomposition, because the enumerated indecomposables generate the
    lattice and any valid orthogonal splitting must be a coarsening of the
    finest one.
    """
    n = g.n
    if n == 0:
        return SDecomposition(0, (), g)
    with mp.workprec(g.precision):
        red, _, _ = _reduction(g)
        bound = max(norm(g, r) for r in red)
        pool = enumerate_up_to(g, bound, cap)
        norms = {v: norm(g, v) for v in pool}
        indec = [
            v
            for v in pool
            if is_indecomposable(g, v, pool=[u for u in pool if norms[u] <= norms[v] + g.tolerance])
        ]
        parent = list(range(len(indec)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(indec)):
            for j in range(i + 1, len(indec)):
                if find(i) != find(j) and not is_zero(g, inner(g, indec[i], indec[j])):
                    parent[find(i)] = find(j)
        groups: dict[int, list[Vec]] = {}
        for i, v in enumerate(indec):
            groups.setdefault(find(i), []).append(v)
        components = [
            SublatticeBasis.from_vectors(n, vs) for vs in groups.values()
        ]
        components.sort(key=lambda c: min(c.vectors()))
        try:
            index = direct_sum_index(components, n)
        except InfiniteIndex:
            index = None
        if index != 1:
            raise EscalationNeeded(
                "indecomposable vectors failed to split the lattice exactly; "
                "a zero test was likely misclassified"
            )
    return SDecomposition(n, tuple(components), g)


def component_refinement_map(
    dec: SDecomposition, coarser: Sequence[SublatticeBasis]
) -> list[int]:
    """For each component of dec, the index of the coarser part containing
    it; the coarser parts must each be the sum of the components they
    receive.  This is the defining universality witness of the splitting."""
    assignment = []
    for comp in dec.components:
        hits = [t for t, m in enumerate(coarser) if m.contains_sublattice(comp)]
        if len(hits) != 1:
            raise NoMorphism(
                f"component is contained in {len(hits)} parts of the coarser splitting"
            )
        assignment.append(hits[0])
    for t, m in enumerate(coarser):
        rows = [
            v
            for s, comp in enumerate(dec.components)
            if assignment[s] == t
            for v in comp.vectors()
        ]
        if SublatticeBasis.from_vectors(dec.ambient_rank, rows) != m:
            raise NoMorphism("coarser part is not the sum of the components mapped to it")
    return assignment
