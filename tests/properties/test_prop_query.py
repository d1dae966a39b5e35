"""The query differential property: a runtime-optimized query plan ≡ its
static plan.

Hypothesis draws a relation (with or without a hash index on ``id`` and an
ordered index on ``v``) and a query from a small grammar: equality, modulo
and comparison predicates, a predicate that divides by the argument ``k``
(so ``k = 0`` raises inside the scan), stacked ``select``, ``exists`` with
and without its range variable, and projection.  The function compiled
statically and the same function reflectively optimized must return the
same rows (in order, unless the optimized plan reads an index), the same
scalar, or raise the same exception to their caller.  The optimized plan is
drawn two ways: ``optimize_result``'s closure, or the variant one PGO round
installs after profiling a call of the function.  Each plan gives one
outcome, instruction count included, on the VM, on the reference loop and
on a VM under a ``ClosureProfile``.

TL has no join syntax, so ``select`` over ``join`` is drawn as a TML term
and its plain and ``integrated_optimize``-d forms are compared the same way.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.parser import parse_term
from repro.lang import TycoonSystem
from repro.machine.codegen import compile_function
from repro.machine.runtime import UncaughtTmlException
from repro.machine.vm import VM, instantiate
from repro.obs.profile import ClosureProfile
from repro.query import Relation, integrated_optimize
from repro.query.algebra import query_registry
from repro.reflect import optimize_hot, optimize_result
from repro.store.heap import ObjectHeap

from tests.machine.reference_vm import ReferenceVM

_HEAP = ObjectHeap()
_SYSTEM = TycoonSystem(heap=_HEAP)
_counter = [0]

_ROWS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 50)), max_size=14)


def _predicate():
    """A where-clause over the range variable ``{r}`` and the argument ``k``."""
    return st.one_of(
        st.just("{r}.id == k"),
        st.just("k == {r}.id"),
        st.builds("{{r}}.v % {} == {}".format, st.integers(2, 7), st.integers(0, 6)),
        st.builds(
            "{{r}}.v {} {}".format, st.sampled_from(["<", ">=", ">"]), st.integers(0, 50)
        ),
        st.builds("{{r}}.v / k > {}".format, st.integers(0, 10)),
        st.builds("k > {}".format, st.integers(-1, 20)),
    )


def _select(pred):
    return pred.map(
        lambda p: "select r from db.data as r : Row where " + p.format(r="r") + " end"
    )


def _stacked(pred):
    return st.tuples(pred, pred).map(
        lambda ps: "select b from (select a from db.data as a : Row where "
        + ps[0].format(r="a")
        + " end) as b : Row where "
        + ps[1].format(r="b")
        + " end"
    )


def _exists(pred):
    return pred.map(lambda p: "exists r : Row in db.data : " + p.format(r="r"))


def _project(pred):
    return st.tuples(st.sampled_from(["r.v", "r.v + k", "r.id * 2"]), pred).map(
        lambda tp: f"select {tp[0]} from db.data as r : Row where "
        + tp[1].format(r="r")
        + " end"
    )


#: query shape -> (result annotation of ``f``, strategy of its body over ``db.data``)
_QUERIES = {
    "select": ("", _select),
    "stacked": ("", _stacked),
    "exists": (": Bool", _exists),
    "project": ("", _project),
}


#: every way to run a plan: the VM (its row loops call the predicates'
#: texts directly), the reference loop, a profiled VM (a nested run per row)
_ENGINES = (VM, ReferenceVM, lambda **how: VM(profiler=ClosureProfile(), **how))


def _observe(closure, args, in_order: bool):
    """One plan's outcome, the same on every engine, to the instruction."""
    outcomes = []
    for engine in _ENGINES:
        vm = engine(store=_HEAP, foreign=_SYSTEM.foreign)
        try:
            value = vm.call(closure, list(args)).value
        except UncaughtTmlException as exc:
            outcomes.append(("raise", exc.value, vm.instructions))
            continue
        if isinstance(value, Relation):
            rows = value.to_tuples()
            value = ("rows", rows if in_order else sorted(rows))
        outcomes.append(("value", value, vm.instructions))
    assert outcomes[1:] == outcomes[:1] * 2, outcomes
    return outcomes[0][:2]


@pytest.mark.parametrize("shape", sorted(_QUERIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_optimized_query_function_matches_its_static_plan(shape, data):
    annotation, body = _QUERIES[shape]
    rows = data.draw(_ROWS)
    expression = data.draw(body(_predicate()))
    k = data.draw(st.integers(-2, 14))
    _counter[0] += 1
    db, module = f"db{_counter[0]}", f"q{_counter[0]}"
    relation = Relation("data", ["id", "v"])
    relation.insert_many(rows)
    if data.draw(st.booleans()):
        relation.create_index("id")
    if data.draw(st.booleans()):
        relation.create_index("v", ordered=True)
    _HEAP.store(relation)
    _SYSTEM.register_data_module(db, {"data": relation})
    _SYSTEM.compile(
        f"module {module} export f\nimport {db}\n"
        "type Row = tuple id: Int, v: Int end\n"
        f"let f(k: Int){annotation} = {expression.replace('db.data', db + '.data')}\nend"
    )

    static_plan = _SYSTEM.closure(module, "f")
    if data.draw(st.booleans(), label="through PGO"):
        result, plan = _pgo_variant(module, k)
    else:
        result = optimize_result(_SYSTEM, module, "f")
        plan = result.closure
    in_order = result.query_stats.count("index-select") == 0
    static = _observe(static_plan, [k], in_order)
    optimized = _observe(plan, [k], in_order)
    assert optimized == static, (expression, k, result.query_stats.total)


def _pgo_variant(module: str, k: int):
    """Profile one call of ``module.f``, run a PGO round over the module and
    link what it installed: (the round's result, the linked variant)."""
    profile = ClosureProfile()
    vm = _SYSTEM.vm()
    vm.profiler = profile
    try:
        vm.call(_SYSTEM.closure(module, "f"), [k])
    except UncaughtTmlException:
        pass
    qualified = f"{module}.f"
    report = optimize_hot(_SYSTEM, profile, top=1, modules=[module])
    assert [c.qualified for c in report.selected] == [qualified], report.refused
    variant = _SYSTEM.closure(module, "f")
    assert variant.code.name == f"{qualified}'"
    return report.results[qualified], variant


_JOIN = """
proc(right k ce cc)
  (join proc(a b cej ccj)
          ([] a 0 cont(x) ([] b 0 cont(y)
            (== x y cont() (ccj true) cont() (ccj false))))
        #oid:{oid} right ce
        cont(t)
          (select proc(row ce2 cc2) ([] row {column} cont(val) {test})
                  t ce cc))
"""

#: the selection's test of column ``val`` of a join row; the second raises
#: through ``ce2`` when ``k = 0``
_JOIN_TESTS = [
    "(> val {c} cont() (cc2 true) cont() (cc2 false))",
    "(/ val k ce2 cont(q) (> q {c} cont() (cc2 true) cont() (cc2 false)))",
]


@given(
    _ROWS,
    _ROWS,
    st.sampled_from([0, 1, 2, 3]),
    st.sampled_from(_JOIN_TESTS),
    st.integers(0, 30),
    st.integers(-1, 3),
)
@example([(0, 0)], [], 0, _JOIN_TESTS[1], 0, 0)  # a raising predicate, nothing to join
@settings(max_examples=40, deadline=None)
def test_select_over_join_matches_its_plain_plan(left_rows, right_rows, column, test, c, k):
    registry = query_registry()
    left = Relation("l", ["id", "v"])
    left.insert_many(left_rows)
    right = Relation("r", ["key", "w"])
    right.insert_many(right_rows)
    oid = _HEAP.store(left)
    source = _JOIN.format(oid=int(oid), column=column, test=test.format(c=c))
    term = parse_term(source, prims=registry.names())
    optimized = integrated_optimize(term, registry, heap=_HEAP).term

    def run(code_term):
        return _observe(instantiate(compile_function(code_term, registry)), [right, k], False)

    assert run(optimized) == run(term), (source, k)
