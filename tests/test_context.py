"""One numeric context per order object and one precision-escalation loop.

Every query on an order that needs a Gram form takes it from
`embeddings.with_gram`, which tries the exact trace form of a totally real
order first, then the certified integer form of an order of CM type,
decided at its first level, and otherwise computes the
embeddings once per (precision, seed), and keeps the form on the order
object; `embeddings.escalate`, the loop behind it, is the only code that
doubles the precision.  The LLL reduction is kept on the form, and the
nilradical and the certified universal grading, with the primitive
idempotents, on the order.  Reducedness is proved once, by the trace
form, the integer form or the embeddings behind that context.  Nothing is
kept at module level: a
test gets a fresh context by building a fresh order, and an order dropped
by its caller is freed with everything derived from it.
"""

import gc
import json
import weakref

import pytest

import gradus.embeddings as embeddings
import gradus.grading as grading
import gradus.intlinalg as intlinalg
import gradus.lattices as lattices
import gradus.orders as orders
from gradus.cli import main
from gradus.config import RunConfig
from gradus.errors import AmbiguousZero, DegenerateSplitting, PrecisionExhausted
from gradus.examples import example_order
from gradus.grading import universal_grading
from gradus.orders import nilradical, order_to_json, validate
from gradus.units import UnitGroupReport, idempotents, is_connected, roots_of_unity


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_queries_on_one_order_share_one_context(monkeypatch):
    emb = counting(monkeypatch, embeddings, "_proposed_embeddings")
    lll = counting(monkeypatch, lattices, "lll_reduce")
    nil = counting(monkeypatch, orders, "nilradical")
    a = example_order("zc4")
    assert is_connected(a) is True
    assert universal_grading(a).grading.group.invariant_factors == (4,)
    assert roots_of_unity(a).count == 8
    assert len(idempotents(a)) == 2
    assert len(emb) == 1
    assert len(lll) == 1
    # a squarefree characteristic polynomial of the splitting element
    # proves the order reduced, so no nilradical is computed
    assert nil == []


CONFIGS = (RunConfig(), RunConfig(precision=384, seed=1), RunConfig(precision=256, seed=2))

# name -> (connected, invariant factors, roots of unity, idempotents)
FACTS = {
    "zc4": (True, (4,), 8, 2),
    "zeta5": (True, (), 10, 2),
    "zxz": (False, (), 4, 4),
    "kummer6": (True, (3,), 6, 2),
}


@pytest.mark.parametrize("name", FACTS)
def test_idempotent_and_root_queries_share_one_search(monkeypatch, name):
    # connectedness, the idempotents and the factors of the roots all read
    # the primitive idempotents of the one grading kept on the order, at
    # every config; only the roots' pool takes the form of each config.
    # The totally real zxz takes its exact trace form for it, and zc4 and
    # zeta5, of CM type, their integer form, certified from the embeddings
    # of the first config; kummer6, neither, computes the embeddings of
    # each config
    gradings = counting(monkeypatch, grading, "_grading_from_gram")
    emb = counting(monkeypatch, embeddings, "_proposed_embeddings")
    connected, factors, roots, count = FACTS[name]
    a = example_order(name)
    for config in CONFIGS:
        assert is_connected(a, config) is connected
        assert universal_grading(a, config).grading.group.invariant_factors == factors
        assert roots_of_unity(a, config).count == roots
        assert len(idempotents(a, config)) == count
    assert len(gradings) == 1
    levels = {"zxz": (), "kummer6": CONFIGS}.get(name, CONFIGS[:1])
    assert [args[1:3] for args in emb] == [(c.precision, c.seed) for c in levels]


def test_each_exact_form_is_eliminated_once(monkeypatch):
    # the positivity test of an exact form computes its leading minors, and
    # its LLL starts from them: one elimination for zc2c2's trace form, and
    # for zc4 one for its CM form after the lazy rejection of its trace form
    minors = []
    real = intlinalg.leading_minors

    def counted(*args):
        minors.append(args)
        return real(*args)

    # wherever the package calls it
    for module in (embeddings, lattices):
        monkeypatch.setattr(module, "leading_minors", counted, raising=False)
    for name, calls in [("zc2c2", 1), ("zc4", 2)]:
        minors.clear()
        a = example_order(name)
        assert is_connected(a) is True
        assert len(universal_grading(a).decomposition.components) == 4
        assert len(minors) == calls


@pytest.mark.parametrize("name", ["zc2c2", "zc4", "kummer6"])
def test_a_reduced_basis_takes_no_hermite_form(monkeypatch, name):
    # the centred searches solve for coordinates on the exact LDL that LLL
    # leaves: no inverse of the basis, and no Hermite form at all
    g = embeddings.with_gram(example_order(name), RunConfig(), lambda g: g)
    hermite = counting(monkeypatch, intlinalg, "hnf")
    basis = g.reduction[0]
    for v in basis.entries:
        lattices.search_centred_ball(g, v, lambda x: False)
    assert hermite == []


def test_queries_on_the_zero_ring():
    a = validate([], [])
    assert idempotents(a) == [()]
    with pytest.raises(ValueError):
        is_connected(a)
    # the empty product of factors: 0 = 1 is the one root, of order 1
    assert roots_of_unity(a) == UnitGroupReport(((),), (1,), 1, True)
    go = universal_grading(a)
    assert go.grading.group.invariant_factors == ()
    assert go.grading.pieces == ()
    assert go.component_images == ()


def test_analyze_computes_embeddings_once(monkeypatch, tmp_path, capsys):
    emb = counting(monkeypatch, embeddings, "_proposed_embeddings")
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order_to_json(example_order("kummer6"))))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["connected"] is True
    assert data["gram"]["precision"] == 192
    assert len(emb) == 1


def test_analyze_of_an_order_of_cm_type_prints_its_integer_form(monkeypatch, tmp_path, capsys):
    # the embeddings of the first level propose the form, and the certified
    # integer form is what analyze prints, on the grid p = 0
    emb = counting(monkeypatch, embeddings, "_proposed_embeddings")
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order_to_json(example_order("zeta5"))))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["connected"] is True
    assert (data["gram"]["precision"], data["gram"]["tolerance"]) == (0, "0.0")
    assert data["gram"]["gram"][0] == ["4.0", "-1.0", "-1.0", "-1.0"]
    assert len(emb) == 1


@pytest.mark.parametrize("command", [["analyze"], ["grade", "--mod-nilradical"]])
def test_a_cli_run_computes_the_nilradical_once(monkeypatch, tmp_path, command):
    # the CLI's report and the reducedness check behind the embeddings
    # share one trace-form kernel
    kernels = counting(monkeypatch, orders, "kernel_saturated")
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order_to_json(example_order("kummer6"))))
    assert main([command[0], str(path), *command[1:]]) == 0
    assert len(kernels) == 1


def test_idempotent_queries_search_once(monkeypatch, tmp_path, capsys):
    # is_connected and idempotents read the grading kept on the order, and
    # analyze grades once the order it reads
    gradings = counting(monkeypatch, grading, "_grading_from_gram")
    a = example_order("zxz")
    assert is_connected(a) is False
    assert len(idempotents(a)) == 4
    assert len(gradings) == 1
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order_to_json(a)))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["connected"] is False
    assert len(gradings) == 2


def dropped_after(queries):
    """A weak reference to an order that ran `queries` and was dropped."""
    a = example_order("zc4")
    for query in queries:
        query(a)
    return weakref.ref(a)


def test_a_dropped_order_is_freed_with_its_context():
    # the context hangs off the order and never refers back to it, and no
    # search leaves a reference cycle behind, so the order dies with its
    # last reference, without the cyclic collector
    queries = [nilradical, universal_grading, roots_of_unity, idempotents]
    gc.disable()
    try:
        assert dropped_after(queries)() is None
    finally:
        gc.enable()


def ambiguous_grading(monkeypatch, tried):
    def decompose(g):
        tried.append(g.precision)
        raise AmbiguousZero("forced ambiguous verdict")

    monkeypatch.setattr(grading, "universal_s_decomposition", decompose)
    return universal_grading


def ambiguous_idempotents(monkeypatch, tried):
    # the idempotents are read off the grading, so they escalate with it
    ambiguous_grading(monkeypatch, tried)
    return idempotents


@pytest.mark.parametrize("query", [ambiguous_grading, ambiguous_idempotents])
# (config, escalation budget)
@pytest.mark.parametrize("config", [(RunConfig(), 4), (RunConfig(precision=128), 2)])
def test_ambiguity_doubles_precision_up_to_the_budget(monkeypatch, query, config):
    config, budget = config
    monkeypatch.setattr(embeddings, "ESCALATION_BUDGET", budget)
    tried = []
    run = query(monkeypatch, tried)
    with pytest.raises(PrecisionExhausted):
        run(example_order("kummer6"), config)
    assert tried == [config.precision * 2**k for k in range(budget + 1)]


def test_embedding_failures_share_the_budget(monkeypatch):
    # a residual too large at the first level costs one level of the same
    # budget, instead of opening an inner loop of its own
    real = embeddings._hom_residual
    config = RunConfig()

    def residual(a, rows, q):
        out = real(a, rows, q)
        # a residual of 1, in units of 2**(-2q), at the first level only
        return 1 << (2 * q) if q == config.precision + embeddings.FIXED_GUARD_BITS else out

    monkeypatch.setattr(embeddings, "_hom_residual", residual)
    tried = []
    run = ambiguous_grading(monkeypatch, tried)
    with pytest.raises(PrecisionExhausted):
        run(example_order("kummer6"), config)
    assert tried == [config.precision * 2**k for k in range(1, embeddings.ESCALATION_BUDGET + 1)]


@pytest.mark.parametrize("name, factors", [("zsqrtm1", (2,)), ("zc4", (4,))])
def test_an_order_of_cm_type_needs_no_residual(monkeypatch, name, factors):
    # its integer form is certified without the homomorphism residual, so
    # a residual too large at every level changes nothing
    monkeypatch.setattr(embeddings, "_hom_residual", lambda a, rows, q: 1 << (2 * q))
    emb = counting(monkeypatch, embeddings, "_proposed_embeddings")
    assert universal_grading(example_order(name)).grading.group.invariant_factors == factors
    assert len(emb) == 1


def test_degenerate_spectrum_at_every_level(monkeypatch, tmp_path, capsys):
    # kummer6 is neither totally real nor of CM type, so every level
    # separates the refined roots (an order of CM type answers on the form
    # its double-precision roots propose, before any separation test)
    monkeypatch.setattr(embeddings, "_min_separation", lambda roots: 0)
    with pytest.raises(DegenerateSplitting):
        roots_of_unity(example_order("kummer6"))
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order_to_json(example_order("kummer6"))))
    assert main(["analyze", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DegenerateSplitting"


@pytest.mark.parametrize("query", [ambiguous_grading, ambiguous_idempotents])
def test_the_exact_form_comes_first_and_the_numeric_ladder_follows(monkeypatch, query):
    # on a totally real order the exact trace form is tried once, on the
    # grid p = 0, and a failure there (only a fault can cause one) hands
    # over to the unchanged numeric levels, which still have the whole budget
    emb = counting(monkeypatch, embeddings, "_proposed_embeddings")
    tried = []
    run = query(monkeypatch, tried)
    with pytest.raises(PrecisionExhausted):
        run(example_order("zsqrt2"), RunConfig())
    levels = [192 * 2**k for k in range(embeddings.ESCALATION_BUDGET + 1)]
    assert tried == [0] + levels
    assert [args[1] for args in emb] == levels


@pytest.mark.parametrize("query", [ambiguous_grading, ambiguous_idempotents])
@pytest.mark.parametrize("name", ["zsqrtm1", "zc4", "zeta5"])
def test_the_cm_form_comes_first_and_the_numeric_ladder_follows(monkeypatch, query, name):
    # on an order of CM type the first level's rows propose the integer
    # form, which is tried once, on the grid p = 0; a failure there (only a
    # fault can cause one) hands over to the numeric levels, which still
    # have the whole budget.  The first of them certifies its rows afresh
    emb = counting(monkeypatch, embeddings, "_proposed_embeddings")
    tried = []
    run = query(monkeypatch, tried)
    with pytest.raises(PrecisionExhausted):
        run(example_order(name), RunConfig())
    levels = [192 * 2**k for k in range(embeddings.ESCALATION_BUDGET + 1)]
    assert tried == [0] + levels
    assert [args[1] for args in emb] == [192] + levels


def test_a_totally_real_order_computes_no_embeddings(monkeypatch):
    # the exact form serves every query at every precision and seed
    emb = counting(monkeypatch, embeddings, "_proposed_embeddings")
    lll = counting(monkeypatch, lattices, "lll_reduce")
    a = example_order("zxz")
    for config in (RunConfig(), RunConfig(precision=384, seed=1)):
        assert universal_grading(a, config).grading.group.invariant_factors == ()
        assert roots_of_unity(a, config).count == 4
        assert len(idempotents(a, config)) == 4
    assert len(emb) == 0
    # one reduction of the order's form, shared by every query, and one of
    # each factor's rank-1 form per roots query
    assert len(lll) == 1 + 2 * 2

