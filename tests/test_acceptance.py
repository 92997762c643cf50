"""Acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run pytest with -s to see the lines as they happen).  Numeric work runs at
the default 192 bits except for the robustness criterion, which repeats the
whole battery over a grid of precisions and seeds and demands identical
results.
"""

import contextlib
import io
import json
import random
import time
from contextlib import contextmanager

from mpmath import mp

from gradus.cli import main as cli_main
from gradus.config import RunConfig
from gradus.embeddings import compute_embeddings, gram
from gradus.examples import example_order, natural_group_ring_grading
from gradus.grading import (
    FinAbGroup,
    find_morphism,
    grading_from_json,
    homogeneous_parts,
    is_homogeneous_sublattice,
    push_forward,
    universal_grading,
    verify_grading,
)
from gradus.intlinalg import SublatticeBasis
from gradus.orders import nilradical, order_to_json
from gradus.lattices import gram_from_strings, norm, universal_s_decomposition
from gradus.units import idempotents, is_connected, roots_of_unity

from helpers import (
    brute_idempotents,
    brute_roots_of_unity,
    dual_numbers_grading,
    oracle_finest_orthogonal_partition,
    random_hom,
    real,
)

GROUP_RING_CASES = [("zc2", [2]), ("zc3", [3]), ("zc4", [4]), ("zc2c2", [2, 2]), ("zc6", [6])]
QUADRATIC_CASES = [("zsqrt2", True), ("zsqrtm1", True), ("zsqrt5", True), ("golden", False)]
HIGMAN_CASES = [("zc2", 2), ("zc3", 3), ("zc4", 4), ("zc2c2", 4)]
DEDEKIND_FIXTURES = ["zsqrt2", "zsqrtm1", "golden", "kummer6", "zeta5"]
ORACLE_FIXTURES = ["z", "zxz", "zc2", "zc3", "zc4", "zc2c2", "zsqrt2", "zsqrtm1", "zsqrt5", "golden", "zeta5"]
UNIVERSALITY_FIXTURES = [name for name, _ in GROUP_RING_CASES] + [
    name for name, _ in QUADRATIC_CASES
] + ["kummer6"]


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {text}")
        raise
    print(f"criterion {num:2d}: PASS  {text}")


def cli_grade_json(tmp_path, name, *options):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(order_to_json(example_order(name))))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["grade", str(path), "--format", "json", *options])
    assert code == 0
    return json.loads(buf.getvalue())


def check_group_ring_universal(name, factors, config=None):
    a, natural = natural_group_ring_grading(factors)
    go = universal_grading(a, config)
    canonical = FinAbGroup(tuple(factors))
    assert go.grading.group.order() == canonical.order()
    assert all(b.rank == 1 for _, b in go.grading.pieces)
    f = find_morphism(go, natural)
    assert f.is_bijective()
    assert push_forward(go.grading, f) == natural
    return go


def check_quadratic(name, nontrivial, config=None):
    a = example_order(name)
    go = universal_grading(a, config)
    if nontrivial:
        assert go.grading.group.invariant_factors == (2,)
        assert dict(go.grading.pieces) == {
            (0,): SublatticeBasis.from_vectors(2, [(1, 0)]),
            (1,): SublatticeBasis.from_vectors(2, [(0, 1)]),
        }
    else:
        assert go.grading.group.invariant_factors == ()
        assert [b.rank for _, b in go.grading.pieces] == [2]
    return go


def check_kummer(config=None):
    a = example_order("kummer6")
    go = universal_grading(a, config)
    assert go.grading.group.invariant_factors == (3,)
    assert [b.rank for _, b in go.grading.pieces] == [2, 2, 2]
    return go


def check_higman(name, size, config=None):
    a = example_order(name)
    report = roots_of_unity(a, config)
    assert report.count == 2 * size
    units = {a.unit(i) for i in range(a.rank)}
    units |= {tuple(-c for c in u) for u in units}
    assert set(report.roots) == units
    return report


def integeric_gram(name, config=None):
    config = config or RunConfig()
    a = example_order(name)
    g = gram(compute_embeddings(a, precision=config.precision, seed=config.seed))
    out = []
    tol = real(g, g.tolerance)
    with mp.workprec(g.precision):
        for row in g.entries:
            ints = []
            for x in row:
                k = int(mp.nint(real(g, x)))
                assert abs(real(g, x) - k) <= tol, "fixture Gram is not integral"
                ints.append(k)
            out.append(ints)
    return a, g, out


def check_oracle_agreement(name, oracle_blocks, config=None):
    config = config or RunConfig()
    a, g, gm = integeric_gram(name, config)
    dec = universal_s_decomposition(g)
    want = sorted(
        (SublatticeBasis.from_vectors(a.rank, block) for block in oracle_blocks),
        key=lambda s: s.basis.entries,
    )
    got = sorted(dec.components, key=lambda s: s.basis.entries)
    assert got == want


def thm_one_four_checks(a, grading, idem, roots):
    rad = nilradical(a)
    assert is_homogeneous_sublattice(grading, rad)
    b1 = grading.piece(grading.group.identity)
    assert b1 is not None
    for e in idem:
        assert b1.contains(e)
    from gradus.orders import subring_order

    b1_order, _ = subring_order(a, b1)
    if b1_order.rank and is_connected(b1_order):
        for r in roots:
            assert len(homogeneous_parts(grading, r)) == 1


def universality_roundtrips(go, rng, count=3):
    for _ in range(count):
        f = random_hom(rng, go.grading.group)
        pushed = push_forward(go.grading, f)
        assert verify_grading(go.grading.order, pushed).ok
        assert find_morphism(go, pushed) == f


def test_criterion_1_group_rings(tmp_path):
    with criterion(1, "universal gradings of group rings are the natural ones"):
        for name, factors in GROUP_RING_CASES:
            t0 = time.perf_counter()
            data = cli_grade_json(tmp_path, name)
            a, natural = natural_group_ring_grading(factors)
            parsed = grading_from_json(a, data)
            assert verify_grading(a, parsed).ok
            check_group_ring_universal(name, factors)
            assert time.perf_counter() - t0 < 5.0


def test_criterion_2_quadratic_orders():
    with criterion(2, "quadratic orders split as 1-span plus root-span, or stay trivial"):
        for name, nontrivial in QUADRATIC_CASES:
            t0 = time.perf_counter()
            check_quadratic(name, nontrivial)
            assert time.perf_counter() - t0 < 1.0


def test_criterion_3_rank6_cubic_tower():
    with criterion(3, "rank-6 tower grades by a cyclic group of order 3 with rank-2 pieces"):
        t0 = time.perf_counter()
        check_kummer()
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_higman():
    with criterion(4, "group rings have exactly the +/- group elements as roots of unity"):
        for name, size in HIGMAN_CASES:
            t0 = time.perf_counter()
            check_higman(name, size)
            assert time.perf_counter() - t0 < 30.0


def test_criterion_5_quotient_units():
    with criterion(5, "the rank-4 cyclotomic quotient has exactly 10 roots of unity"):
        t0 = time.perf_counter()
        report = roots_of_unity(example_order("zeta5"))
        assert report.count == 10
        assert time.perf_counter() - t0 < 10.0


def test_criterion_6_parity_ring():
    with criterion(6, "parity ring: reduced, connected, with a short vector below rank"):
        t0 = time.perf_counter()
        a = example_order("parity5")
        assert a.rank == 5
        assert nilradical(a).rank == 0
        assert is_connected(a)
        g = gram(compute_embeddings(a))
        assert abs(real(g, norm(g, (2, -1, -1, -1, -1))) - 4) <= real(g, g.tolerance)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_7_graded_structure_suite():
    with criterion(7, "nilradical homogeneous, idempotents in the identity piece, roots homogeneous"):
        for name, factors in GROUP_RING_CASES:
            a, natural = natural_group_ring_grading(factors)
            thm_one_four_checks(a, natural, idempotents(a), roots_of_unity(a).roots)
        for name, nontrivial in QUADRATIC_CASES:
            a = example_order(name)
            go = universal_grading(a)
            thm_one_four_checks(a, go.grading, idempotents(a), roots_of_unity(a).roots)
        a = example_order("kummer6")
        go = universal_grading(a)
        thm_one_four_checks(a, go.grading, idempotents(a), roots_of_unity(a).roots)
        # non-reduced fixture with a hand-supplied grading; idempotents and
        # roots come from an exhaustive box search
        a, grading = dual_numbers_grading()
        data = order_to_json(a)
        idem = brute_idempotents(data["table"], data["one"])
        assert idem == [(0, 0), (1, 0)]
        roots = brute_roots_of_unity(data["table"], data["one"])
        assert roots == [(-1, 0), (1, 0)]
        thm_one_four_checks(a, grading, idem, roots)


def test_criterion_8_dedekind_cyclic():
    with criterion(8, "maximal-order fixtures grade by cyclic groups"):
        for name in DEDEKIND_FIXTURES:
            go = universal_grading(example_order(name))
            assert len(go.grading.group.invariant_factors) <= 1


def test_criterion_9_universality():
    with criterion(9, "pushforwards along random homomorphisms round-trip"):
        rng = random.Random(1202)
        for name in UNIVERSALITY_FIXTURES:
            go = universal_grading(example_order(name))
            universality_roundtrips(go, rng, count=3)


def test_criterion_10_lattice_oracle():
    with criterion(10, "lattice splitting agrees with the brute-force partition oracle"):
        for name in ORACLE_FIXTURES:
            _, _, gm = integeric_gram(name)
            blocks = oracle_finest_orthogonal_partition(gm)
            check_oracle_agreement(name, blocks)


def _battery(config):
    """Canonical summary of every computed result; must be identical for
    every precision and seed."""
    summary = {}
    for name, factors in GROUP_RING_CASES:
        go = check_group_ring_universal(name, factors, config)
        summary[f"grade:{name}"] = (
            go.grading.group.invariant_factors,
            tuple((e, b.basis.entries) for e, b in go.grading.pieces),
            go.component_images,
        )
    for name, nontrivial in QUADRATIC_CASES:
        go = check_quadratic(name, nontrivial, config)
        summary[f"grade:{name}"] = (
            go.grading.group.invariant_factors,
            tuple((e, b.basis.entries) for e, b in go.grading.pieces),
        )
    go = check_kummer(config)
    summary["grade:kummer6"] = (
        go.grading.group.invariant_factors,
        tuple((e, b.basis.entries) for e, b in go.grading.pieces),
    )
    for name, size in HIGMAN_CASES:
        report = check_higman(name, size, config)
        summary[f"units:{name}"] = (report.roots, report.orders)
    report = roots_of_unity(example_order("zeta5"), config)
    assert report.count == 10
    summary["units:zeta5"] = (report.roots, report.orders)
    a = example_order("parity5")
    assert is_connected(a, config)
    summary["idem:parity5"] = tuple(idempotents(a, config))
    for name in DEDEKIND_FIXTURES:
        go = universal_grading(example_order(name), config)
        assert len(go.grading.group.invariant_factors) <= 1
    rng = random.Random(77)
    for name in UNIVERSALITY_FIXTURES:
        go = universal_grading(example_order(name), config)
        universality_roundtrips(go, rng, count=3)
    for name in ORACLE_FIXTURES:
        _, _, gm = integeric_gram(name, config)
        summary[f"decomp:{name}"] = tuple(
            c.basis.entries
            for c in universal_s_decomposition(
                gram_from_strings(
                    [[str(x) for x in row] for row in gm],
                    precision=config.precision,
                ),
            ).components
        )
    return summary


def test_criterion_11_robustness():
    with criterion(11, "identical results at 128/192/256 bits and four seeds"):
        reference = _battery(RunConfig(precision=192, seed=0))
        for precision in (128, 192, 256):
            for seed in (0, 1, 2, 3):
                if (precision, seed) == (192, 0):
                    continue
                got = _battery(RunConfig(precision=precision, seed=seed))
                assert got == reference
