"""Exact integer linear algebra: Hermite and Smith normal forms, saturated
kernels, canonical sublattice bases, and fraction-free leading minors.

Everything here works on arbitrary-precision Python integers; no floating
point is involved at any stage.  The Hermite form is row-style with positive
pivots and entries above each pivot reduced into [0, pivot), which makes it a
unique representative of the row space and lets sublattices be compared by
structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Sequence

from .errors import InfiniteIndex

Vec = tuple[int, ...]


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u: Sequence[int]) -> Vec:
    return tuple(-a for a in u)


def vec_scale(k: int, u: Sequence[int]) -> Vec:
    return tuple(k * a for a in u)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major integer matrix.

    The column count is stored explicitly so matrices with zero rows keep a
    well-defined shape.
    """

    entries: tuple[Vec, ...]
    cols: int

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise ValueError("declared column count does not match rows")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(data, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(r[j] for r in self.entries) for j in range(self.cols)), self.rows)

    def vec_mat(self, v: Sequence[int]) -> Vec:
        """Row action: v as a row vector times this matrix."""
        if len(v) != self.rows:
            raise ValueError("vector length does not match row count")
        out = [0] * self.cols
        for k, row in zip(v, self.entries):
            if k:
                for j, r in enumerate(row):
                    out[j] += k * r
        return tuple(out)


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U m and U unimodular.  H is canonical: pivots
    are positive, every entry above a pivot is reduced into [0, pivot), and
    zero rows sink to the bottom.  Two matrices with the same row space get
    the same H.
    """
    n, ncols = m.rows, m.cols
    h = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    piv = 0
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        if piv == n:
            break
        while True:
            live = [r for r in range(piv, n) if h[r][col]]
            if not live:
                break
            r0 = min(live, key=lambda r: abs(h[r][col]))
            if r0 != piv:
                h[piv], h[r0] = h[r0], h[piv]
                u[piv], u[r0] = u[r0], u[piv]
            clean = True
            for r in range(piv + 1, n):
                if h[r][col]:
                    q = h[r][col] // h[piv][col]
                    h[r] = [a - q * b for a, b in zip(h[r], h[piv])]
                    u[r] = [a - q * b for a, b in zip(u[r], u[piv])]
                    if h[r][col]:
                        clean = False
            if clean:
                break
        if piv < n and h[piv][col]:
            if h[piv][col] < 0:
                h[piv] = [-x for x in h[piv]]
                u[piv] = [-x for x in u[piv]]
            pivots.append((piv, col))
            piv += 1
    for r, c in pivots:
        p = h[r][c]
        for i in range(r):
            q = h[i][c] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
    return (
        IntMatrix(tuple(tuple(r) for r in h), ncols),
        IntMatrix(tuple(tuple(r) for r in u), n),
    )


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (S, V) with S = U m V diagonal for a unimodular U that is not
    computed, V unimodular, and nonnegative diagonal entries satisfying
    d1 | d2 | ...  Pivoting always selects the smallest nonzero entry (the
    first in row-major order among equals), which keeps coefficient growth
    tame at the ranks this library targets.  At step t the pivot's column
    is cleared below it, then its row to its right, and a row that the
    pivot does not divide is pulled up, until the pivot divides all that
    is left.

    The elimination is dense, which is enough for both callers, whose
    inputs are small by construction: `grading.group_from_relations`
    eliminates the unit pivots first, which on every order graded so far
    leaves one column per invariant factor (127 x 7 for Z[C2^7], where the
    relations are 8129 x 128), and `orders.quotient_order` passes the
    Hermite basis of an ideal, at most rank x rank.
    """
    nr, nc = m.rows, m.cols
    s = [list(r) for r in m.entries]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_cols(i: int, j: int):
        for r in s + v:
            r[i], r[j] = r[j], r[i]

    for t in range(min(nr, nc)):
        # rows and columns before t are diagonal already
        live = [(abs(x), i, j) for i in range(t, nr) for j in range(t, nc) if (x := s[i][j])]
        if not live:
            break
        _, i0, j0 = min(live)
        s[t], s[i0] = s[i0], s[t]
        swap_cols(t, j0)
        while True:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
            row, piv = s[t], s[t][t]
            for i in range(t + 1, nr):
                if q := s[i][t] // piv:
                    s[i] = [a - q * b for a, b in zip(s[i], row)]
            live = [i for i in range(t + 1, nr) if s[i][t]]
            if live:
                i0 = min(live, key=lambda i: abs(s[i][t]))
                s[t], s[i0] = s[i0], s[t]
                continue
            # column t is zero below the pivot, so a column operation
            # changes row t of S and nothing else of it
            for j in range(t + 1, nc):
                if q := row[j] // piv:
                    row[j] -= q * piv
                    for r in v:
                        r[j] -= q * r[t]
            live = [j for j in range(t + 1, nc) if row[j]]
            if live:
                swap_cols(t, min(live, key=lambda j: abs(row[j])))
                continue
            offender = next((r for r in s[t + 1 :] if any(x % piv for x in r)), None)
            if offender is None:
                break
            # pull the offending row up so the next pass shrinks the pivot
            s[t] = [a + b for a, b in zip(row, offender)]
    return IntMatrix(tuple(map(tuple, s)), nc), IntMatrix(tuple(map(tuple, v)), nc)


def _hermite_coordinates(rows: Sequence[Vec], v: Sequence[int]) -> Vec | None:
    """Coordinates of v on nonzero rows in Hermite form, or None when v is
    not in their span.  Each coordinate is forced by its row's pivot: v is
    reduced pivot by pivot, and it is a member exactly when nothing is
    left."""
    t = [int(x) for x in v]
    coords = []
    for row in rows:
        c = next(j for j, x in enumerate(row) if x)
        q = t[c] // row[c]
        coords.append(q)
        if q:
            t = [a - q * b for a, b in zip(t, row)]
    return None if any(t) else tuple(coords)


def solve_left(m: IntMatrix, target: Sequence[int]) -> Vec | None:
    """An integer row vector x with x m = target, or None: target is
    reduced on the nonzero rows of H = U m, and its coordinates y there
    give x = y U."""
    if len(target) != m.cols:
        raise ValueError("target length does not match column count")
    h, u = hnf(m)
    rows = tuple(r for r in h.entries if any(r))
    y = _hermite_coordinates(rows, target)
    if y is None:
        return None
    return u.vec_mat(y + (0,) * (m.rows - len(rows)))


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular square matrix."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be unimodular")
    h, u = hnf(m)
    if h != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return u


def leading_minors(rows: Iterable[Sequence[int]], floor: int = 0) -> tuple | None:
    """Sylvester's test by fraction-free (Bareiss) elimination of a
    symmetric integer matrix F, read row by row from entries 0..i of row i.

    Returns (lam, delta): delta[i + 1] = Delta_i, the leading (i + 1)-minor
    (delta[0] = 1), and lam[i][j] = Delta_j mu_ij for j <= i, where F = L
    diag(d) L^T, L[i][j] = mu_ij and d_i = Delta_i / Delta_(i-1).  Returns
    None at the first pivot d_i <= floor (floor >= 0), before row i + 1 is
    read.  Each division is by a minor > 0 and exact by Sylvester's identity
    (Bareiss, Math. Comp. 1968; Cohen, Alg. 2.2.6).
    """
    lam, delta = [], [1]
    for i, row in enumerate(rows):
        li: list[int] = []
        lam.append(li)
        for j in range(i + 1):
            u, lj = row[j], lam[j]
            for t in range(j):
                u = (delta[t + 1] * u - li[t] * lj[t]) // delta[t]
            li.append(u)
        if li[i] <= floor * delta[i]:
            return None
        delta.append(li[i])
    return lam, delta


def solve_definite(ldl: tuple, target: Sequence[int]) -> tuple[Vec, int]:
    """The solution x of F x^T = target^T, as (y, d) with x = y / d in
    lowest terms and d > 0, from (lam, delta) = `leading_minors(F)` of a
    positive-definite F, in O(n^2) exact operations.

    With F = L diag(d) L^T, the elimination that gave lam, run on target
    as one more column, gives B_i = Delta_(i-1) u_i for L u = target (a
    minor of [F | target], so every division is exact), and back
    substitution of L^T x = diag(d)^(-1) u reads x_i = (B_i - sum_{j>i}
    lam_ji x_j) / Delta_i.  It runs on Y = Delta_(n-1) x = adj(F) target,
    which is integral (Cramer's rule), so each of its divisions is exact
    too.
    """
    lam, delta = ldl
    n = len(lam)
    b = list(target)
    for i, li in enumerate(lam):
        u = b[i]
        for t in range(i):
            u = (delta[t + 1] * u - li[t] * b[t]) // delta[t]
        b[i] = u
    y = [0] * n
    for i in range(n - 1, -1, -1):
        rest = sum(lam[j][i] * y[j] for j in range(i + 1, n))
        y[i] = (delta[n] * b[i] - rest) // delta[i + 1]
    g = gcd(delta[n], *y)
    return tuple(x // g for x in y), delta[n] // g


@dataclass(frozen=True)
class SublatticeBasis:
    """A sublattice of Z^n held in canonical Hermite form.

    Canonicity makes structural equality coincide with equality of the
    underlying sublattices.
    """

    ambient_rank: int
    basis: IntMatrix

    @classmethod
    def from_vectors(cls, ambient_rank: int, vectors: Iterable[Sequence[int]]) -> "SublatticeBasis":
        m = IntMatrix.from_rows(vectors, ambient_rank)
        if m.cols != ambient_rank:
            raise ValueError("vectors do not live in the declared ambient lattice")
        if m.rows == 1:
            # the Hermite form of one row: the row with a positive pivot
            v = m.entries[0]
            lead = next((x for x in v if x), 0)
            rows = () if not lead else (v,) if lead > 0 else (vec_neg(v),)
        else:
            h, _ = hnf(m)
            rows = tuple(r for r in h.entries if any(r))
        return cls(ambient_rank, IntMatrix(rows, ambient_rank))

    @classmethod
    def zero(cls, ambient_rank: int) -> "SublatticeBasis":
        return cls(ambient_rank, IntMatrix((), ambient_rank))

    @classmethod
    def full(cls, ambient_rank: int) -> "SublatticeBasis":
        return cls(ambient_rank, IntMatrix.identity(ambient_rank))

    @property
    def rank(self) -> int:
        return self.basis.rows

    def vectors(self) -> tuple[Vec, ...]:
        return self.basis.entries

    def coordinates_of(self, v: Sequence[int]) -> Vec | None:
        """Coordinates of v on the basis rows, or None when v is not in the
        sublattice."""
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match the ambient rank")
        return _hermite_coordinates(self.basis.entries, v)

    def contains(self, v: Sequence[int]) -> bool:
        return self.coordinates_of(v) is not None

    def contains_sublattice(self, other: "SublatticeBasis") -> bool:
        return all(self.contains(v) for v in other.vectors())

    def saturation(self) -> "SublatticeBasis":
        """Smallest saturated sublattice containing this one."""
        if self.rank == 0:
            return self
        # right kernel of the basis, then the left kernel of that kernel
        right = kernel_saturated(self.basis.transpose())
        if right.rank == 0:
            return SublatticeBasis.full(self.ambient_rank)
        return kernel_saturated(right.basis.transpose())

    def is_saturated(self) -> bool:
        return self == self.saturation()


def kernel_saturated(m: IntMatrix) -> SublatticeBasis:
    """Basis of {v : v m = 0}; such a kernel is saturated automatically."""
    h, u = hnf(m)
    rows = [u.entries[i] for i in range(m.rows) if not any(h.entries[i])]
    return SublatticeBasis.from_vectors(m.rows, rows)


def direct_sum_index(parts: Sequence[SublatticeBasis], ambient_rank: int) -> int:
    """Index of the sum of the parts inside the ambient standard lattice.

    Raises InfiniteIndex unless the part ranks add up to the ambient rank and
    the sum has full rank.  The parts form a direct sum filling the ambient
    lattice exactly when this returns 1.
    """
    if any(p.ambient_rank != ambient_rank for p in parts):
        raise ValueError("parts live in different ambient lattices")
    total = sum(p.rank for p in parts)
    if total != ambient_rank:
        raise InfiniteIndex(
            f"part ranks sum to {total}, ambient rank is {ambient_rank}"
        )
    span = SublatticeBasis.from_vectors(ambient_rank, [v for p in parts for v in p.vectors()])
    if span.rank != ambient_rank:
        raise InfiniteIndex("sum of parts does not have full rank")
    # at full rank the Hermite pivots are the diagonal
    return prod(span.basis.entries[i][i] for i in range(ambient_rank))
