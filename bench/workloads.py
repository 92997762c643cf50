"""Seeded workloads of the gradus benchmark.

Every workload is a list of base orders with known answers.  A batch
presents each base order once, in a random unimodular basis drawn afresh
from the seed and the batch index.  The program receives only the rebased
`Order`; the answer checks map its output back to the base coordinates and
compare with answers derived here, outside the pipeline.

Rebasing goes through the public `validate`, `mul` and `inverse_unimodular`.
`SublatticeBasis.from_vectors` is not used for it: its Hermite form would
turn a unimodular basis back into the identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import gradus
from gradus.intlinalg import IntMatrix, SublatticeBasis, inverse_unimodular

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Case:
    """One base order and the facts its answers are checked against."""

    label: str
    build: Callable[[], "gradus.Order"]
    expect: dict


@dataclass(frozen=True)
class Instance:
    """A base order presented in the basis given by the rows of `u`;
    `uinv` maps base coordinates back to presented ones."""

    case: Case
    order: "gradus.Order"
    u: IntMatrix
    uinv: IntMatrix

    def to_base(self, x) -> Vec:
        """Coordinates in the base order of an element given in the
        presented basis."""
        return self.u.vec_mat(x)


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[str, ...]
    op_budget_s: float
    enumeration_cap: int
    # the base orders of a batch, given the batch's phase (see make_batch)
    cases: Callable[[float], list[Case]]


# ----------------------------------------------------------------- rebasing


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """The unitriangular matrix with random signs on its superdiagonal, its
    rows randomly negated.  Its inverse is a full triangle of +-1, so every
    element has dense coordinates and the standard basis is far from
    reduced.  The rows are not permuted: a permutation makes the cost of the
    embeddings (the splitting element's spectrum) vary up to ninefold
    between draws, which would bury any change in the program under the
    luck of the draw."""
    rows = [
        [int(j == i) + (rng.choice((-1, 1)) if j == i + 1 else 0) for j in range(n)]
        for i in range(n)
    ]
    return [[x * s for x in row] for row, s in zip(rows, rng.choices((-1, 1), k=n))]


def rebase(a: "gradus.Order", u: IntMatrix, uinv: IntMatrix) -> "gradus.Order":
    """The order `a` on the basis whose i-th vector has base coordinates
    u.row(i); `uinv` is the inverse of `u`."""
    n = a.rank
    table = [
        [uinv.vec_mat(gradus.orders.mul(a, u.row(i), u.row(j))) for j in range(n)]
        for i in range(n)
    ]
    return gradus.orders.validate(table, uinv.vec_mat(a.one))


def present(case: Case, rng: random.Random) -> Instance:
    base = case.build()
    u = IntMatrix.from_rows(random_unimodular(rng, base.rank), base.rank)
    uinv = inverse_unimodular(u)
    return Instance(case, rebase(base, u, uinv), u, uinv)


# the golden ratio's fractional part: successive multiples of it spread over
# [0, 1) as evenly as any sequence can
GOLDEN = (5**0.5 - 1) / 2


def make_batch(workload: Workload, seed: int, batch: int) -> list[Instance]:
    """The orders of batch `batch`, freshly drawn and presented; the same
    seed and batch index always give the same tables.  A workload's seeded
    parameters are placed by the batch's phase, the seed's offset plus
    `batch` golden-ratio steps, so the batches of a run sweep each range
    evenly and the run's total cost hardly depends on the seed."""
    phase = (random.Random(f"{workload.name}:{seed}").random() + batch * GOLDEN) % 1.0
    rng = random.Random(f"{workload.name}:{seed}:{batch}")
    return [present(case, rng) for case in workload.cases(phase)]


# ------------------------------------------------------------ base orders


def integers_power(k: int) -> "gradus.Order":
    """Z^k with componentwise multiplication."""
    e = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    table = [[e[i] if i == j else (0,) * k for j in range(k)] for i in range(k)]
    return gradus.orders.validate(table, (1,) * k)


# ----------------------------------------------------------- expectations
#
# Fixtures: the counts the acceptance suite asserts (Higman's 2|G| roots for
# group rings, the C2 split of Z[sqrt d], the C3 grading of kummer6 with
# rank-2 pieces, 10 roots in Z[zeta_5], a connected parity5) completed by
# the elementary facts for the rest: the canonical form of Z^k is the
# standard one, so Z x Z has 4 idempotents and 4 roots and a trivial
# grading; Z[(1+sqrt 5)/2] and Z[zeta_5] have non-orthogonal indecomposable
# lattices, hence trivial gradings; parity5 has the 32 sign vectors as roots
# and the vectors 2e_i, all joined by (1,1,1,1,1), as indecomposables.
# Z^5, added to the fixtures, has the 32 sign vectors as roots and the 32
# 0/1 vectors as idempotents.  It is the one order here whose candidates
# for roots (trace-form norm 5) include non-roots, the 80 vectors like
# (2,1,0,0,0), so it runs the torsion filter to its bound.
#
# Keys: connected, factors (invariant factors of the universal
# grading), piece_ranks (sorted), roots, idempotents, natural (group-ring
# cyclic factors: the grading must map bijectively onto the natural one),
# split (the base-coordinate piece spans of Z[sqrt d]).

FIXTURE_FACTS = {
    "z": dict(connected=True, factors=(), piece_ranks=[1], roots=2, idempotents=2),
    "zxz": dict(connected=False, factors=(), piece_ranks=[2], roots=4, idempotents=4),
    "zc2": dict(connected=True, factors=(2,), piece_ranks=[1] * 2, roots=4, idempotents=2, natural=[2]),
    "zc3": dict(connected=True, factors=(3,), piece_ranks=[1] * 3, roots=6, idempotents=2, natural=[3]),
    "zc4": dict(connected=True, factors=(4,), piece_ranks=[1] * 4, roots=8, idempotents=2, natural=[4]),
    "zc5": dict(connected=True, factors=(5,), piece_ranks=[1] * 5, roots=10, idempotents=2, natural=[5]),
    "zc6": dict(connected=True, factors=(6,), piece_ranks=[1] * 6, roots=12, idempotents=2, natural=[6]),
    "zc2c2": dict(connected=True, factors=(2, 2), piece_ranks=[1] * 4, roots=8, idempotents=2, natural=[2, 2]),
    "zsqrt2": dict(connected=True, factors=(2,), piece_ranks=[1, 1], roots=2, idempotents=2, split=True),
    "zsqrtm1": dict(connected=True, factors=(2,), piece_ranks=[1, 1], roots=4, idempotents=2, split=True),
    "zsqrt5": dict(connected=True, factors=(2,), piece_ranks=[1, 1], roots=2, idempotents=2, split=True),
    "golden": dict(connected=True, factors=(), piece_ranks=[2], roots=2, idempotents=2),
    "zeta5": dict(connected=True, factors=(), piece_ranks=[4], roots=10, idempotents=2),
    "kummer6": dict(connected=True, factors=(3,), piece_ranks=[2, 2, 2], roots=6, idempotents=2),
    "parity5": dict(connected=True, factors=(), piece_ranks=[5], roots=32, idempotents=2),
}

Z5_FACTS = dict(connected=False, factors=(), piece_ranks=[5], roots=32, idempotents=32)


def _fixture_cases(phase: float) -> list[Case]:
    """Every fixture and Z^5, those of rank 3 and more twice and Z[zeta_5]
    four times.  The ops on the seven fixtures of rank 1 and 2 take a few
    milliseconds, those on Z[C3] and Z[C2xC2] about 0.06 s, those on
    Z[zeta_5] 0.13-0.18 s and those on Z[C4] 0.07-0.17 s, depending on the
    basis; the rest take more.  This puts the median op among the Z[zeta_5]
    and Z[C4] ops, away from a gap in cost where it would jump between
    runs."""
    cases = [
        Case(name, (lambda name=name: gradus.example_order(name)), facts)
        for name, facts in FIXTURE_FACTS.items()
    ] + [Case("z^5", lambda: integers_power(5), Z5_FACTS)]
    cases += [c for c in cases if sum(c.expect["piece_ranks"]) >= 3]
    return cases + [c for c in cases if c.label == "zeta5"]


# the rank-9 and rank-12 rings twice: the median op then falls among the
# rank-9 ones and the tail op among the rank-12 ones however many batches a
# run completes, instead of on a gap in cost between two ranks
GROUP_RINGS = ([8], [2, 4], [2, 2, 2], [9], [3, 3], [10], [12], [2, 6], [9], [3, 3], [12], [2, 6])


def _group_ring_cases(phase: float) -> list[Case]:
    return [
        Case(
            "ZC" + "x".join(map(str, f)),
            (lambda f=f: gradus.group_ring(f)[0]),
            dict(natural=f),
        )
        for f in GROUP_RINGS
    ]


def _spread(phase: float, lo: int, hi: int, k: int) -> list[int]:
    """k integers spread evenly over [lo, hi], each placed by `phase` in a
    window of a tenth of the range around its place.  The cost of x^n - c
    grows like c^2, so narrow windows keep the cost of a batch nearly
    independent of the seed."""
    step = (hi - lo) / k
    offset = (phase - 0.5) * (hi - lo) / 10
    return [round(lo + (i + 0.5) * step + offset) for i in range(k)]


# (degree, c range, values per batch): x^n - c for seeded c
RADICAL_FAMILIES = ((3, 100, 300, 3), (4, 10, 40, 3), (2, 10**5, 2 * 10**5, 1))


def _radical_case(n: int, c: int) -> Case:
    return Case(
        f"x^{n}-{c}",
        (lambda: gradus.monogenic_order([-c] + [0] * (n - 1) + [1])),
        dict(radical=n),
    )


def _radical_cases(phase: float) -> list[Case]:
    return [
        _radical_case(n, c)
        for n, lo, hi, k in RADICAL_FAMILIES
        for c in _spread(phase, lo, hi, k)
    ]


# ------------------------------------------------------------- answer gate


class WrongAnswer(Exception):
    """An op returned an answer that differs from the expected one."""


def _require(ok: bool, inst: Instance, what: str):
    if not ok:
        raise WrongAnswer(f"{inst.case.label}: {what}")


def _check_grading(inst: Instance, go, facts: dict):
    a = inst.order
    n = a.rank
    gr = go.grading
    _require(gradus.verify_grading(a, gr).ok, inst, "returned grading fails verify_grading")
    if "factors" in facts:
        _require(gr.group.invariant_factors == tuple(facts["factors"]), inst,
                 f"group {gr.group.invariant_factors}, expected {facts['factors']}")
        _require(sorted(b.rank for _, b in gr.pieces) == facts["piece_ranks"], inst,
                 "piece ranks differ")
    base_pieces = {
        elem: SublatticeBasis.from_vectors(n, [inst.to_base(v) for v in b.vectors()])
        for elem, b in gr.pieces
    }
    if "natural" in facts:
        _, natural = gradus.natural_group_ring_grading(facts["natural"])
        presented = gradus.make_grading(
            a, natural.group,
            {elem: [inst.uinv.vec_mat(v) for v in b.vectors()] for elem, b in natural.pieces},
        )
        f = gradus.find_morphism(go, presented)
        _require(f.is_bijective(), inst, "morphism onto the natural grading is not bijective")
    if facts.get("split"):
        want = {SublatticeBasis.from_vectors(n, [e]) for e in ((1, 0), (0, 1))}
        _require(set(base_pieces.values()) == want, inst, "pieces are not Z + sqrt(d)Z")
    if "radical" in facts:
        k = facts["radical"]
        _require(gr.group.invariant_factors == (k,), inst, f"group is not C{k}")
        want = {
            SublatticeBasis.from_vectors(n, [tuple(int(i == j) for j in range(n))])
            for i in range(n)
        }
        _require(set(base_pieces.values()) == want, inst, "pieces are not the x^i lines")
        one = base_pieces[gr.group.identity]
        _require(one.contains(tuple(int(j == 0) for j in range(n))), inst, "1 is not in degree 0")


def _check_roots(inst: Instance, report, facts: dict):
    _require(len({inst.to_base(r) for r in report.roots}) == report.count == len(report.roots),
             inst, "root count is inconsistent")
    _require(report.count == facts["roots"], inst,
             f"{report.count} roots, expected {facts['roots']}")
    _require(report.group_closed, inst, "roots are not closed under products")


def _check_idempotents(inst: Instance, idem, facts: dict):
    _require(len({inst.to_base(e) for e in idem}) == len(idem), inst, "idempotents repeat")
    _require(len(idem) == facts["idempotents"], inst,
             f"{len(idem)} idempotents, expected {facts['idempotents']}")


def check(inst: Instance, answers: dict):
    """Raise WrongAnswer unless every answer of the op is the expected one."""
    facts = inst.case.expect
    if "connected" in answers:
        _require(answers["connected"] == facts["connected"], inst, "connectedness differs")
    if "grading" in answers:
        _check_grading(inst, answers["grading"], facts)
    if "roots" in answers:
        _check_roots(inst, answers["roots"], facts)
    if "idempotents" in answers:
        _check_idempotents(inst, answers["idempotents"], facts)


# --------------------------------------------------------------- registry
#
# Why each workload exists, and which planned change it should show or not
# show, is in README.md next to this file.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixtures",
            ("connected", "grading", "roots", "idempotents"),
            op_budget_s=20.0,
            enumeration_cap=gradus.DEFAULT_CONFIG.enumeration_cap,
            cases=_fixture_cases,
        ),
        Workload(
            "group-rings",
            ("grading",),
            op_budget_s=40.0,
            enumeration_cap=gradus.DEFAULT_CONFIG.enumeration_cap,
            cases=_group_ring_cases,
        ),
        Workload(
            "radical",
            ("grading",),
            op_budget_s=40.0,
            enumeration_cap=20000,
            cases=_radical_cases,
        ),
    )
}


# query name -> the gradus function that answers it
QUERIES = {
    "connected": "is_connected",
    "grading": "universal_grading",
    "roots": "roots_of_unity",
    "idempotents": "idempotents",
}


def run_queries(inst: Instance, queries, config) -> dict:
    """The op: every query of the workload on one presented order, called
    through the attributes of the `gradus` package."""
    return {q: getattr(gradus, QUERIES[q])(inst.order, config) for q in queries}
