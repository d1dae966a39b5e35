"""Tests for the relational-algebra extension primitives (§4.2, §2.3)."""

import pytest

from repro.core.parser import parse_term
from repro.core.syntax import Abs, UNIT
from repro.machine.codegen import compile_function
from repro.machine.cps_interp import Interpreter
from repro.machine.runtime import UncaughtTmlException
from repro.machine.vm import VM, instantiate
from repro.query.algebra import query_registry
from repro.query.relation import Relation


@pytest.fixture
def registry():
    return query_registry()


@pytest.fixture
def people():
    rel = Relation("people", ["name", "age"])
    rel.insert_many([("ann", 34), ("bob", 12), ("cy", 19)])
    return rel


def run_both(source, args, registry):
    """Run a proc on both engines; assert agreement; return the value — or
    raise the VM's ``UncaughtTmlException`` when both raise the same one."""
    term = parse_term(source, prims=registry.names())
    assert isinstance(term, Abs)

    interp = Interpreter(registry=registry)
    code = compile_function(term, registry)
    outcomes = []
    for run in (
        lambda: interp.call(interp.make_closure(term), list(args)).value,
        lambda: VM().call(instantiate(code), list(args)).value,
    ):
        try:
            outcomes.append(run())
        except UncaughtTmlException as raised:
            outcomes.append(raised)
    interp_value, vm_value = outcomes

    if isinstance(vm_value, UncaughtTmlException):
        assert isinstance(interp_value, UncaughtTmlException), interp_value
        assert interp_value.value == vm_value.value
        raise vm_value
    if isinstance(interp_value, Relation):
        assert interp_value.to_tuples() == vm_value.to_tuples()
    else:
        assert interp_value == vm_value
    return vm_value


PREDICATE_TRAPS = """
proc(rel ce cc)
  (λ(^h) (pushHandler h cont()
            (select proc(x ce2 cc2) ([] x 9 cont(v) (cc2 true)) rel ce
                    cont(r) (popHandler cont() (cc 1))))
   cont(exv) (cc exv))
"""


def test_a_trap_in_a_predicate_does_not_take_the_handler_around_the_query(people, registry):
    """The predicate's run sees only the handlers it pushed: its boundsError
    fails the predicate, and ``select`` hands it to its own ``ce`` — here the
    caller's — instead of the handler pushed around the query answering it
    as the predicate's result."""
    with pytest.raises(UncaughtTmlException) as raised:
        run_both(PREDICATE_TRAPS, [people], registry)
    assert raised.value.value == "boundsError"


ADULTS = """
proc(rel ce cc)
  (select proc(x ce2 cc2)
            ([] x 1 cont(age) (>= age 18 cont() (cc2 true) cont() (cc2 false)))
          rel ce cc)
"""


def test_select(people, registry):
    out = run_both(ADULTS, [people], registry)
    assert out.to_tuples() == [("ann", 34), ("cy", 19)]


def test_project(people, registry):
    src = """
    proc(rel ce cc)
      (project proc(x ce2 cc2) ([] x 0 cont(n) (cc2 n))
               rel ce cc)
    """
    out = run_both(src, [people], registry)
    assert out.to_tuples() == [("ann",), ("bob",), ("cy",)]


def test_project_records(people, registry):
    src = """
    proc(rel ce cc)
      (project proc(x ce2 cc2)
                 ([] x 1 cont(a) ([] x 0 cont(n) (vector a n cc2)))
               rel ce cc)
    """
    out = run_both(src, [people], registry)
    assert out.to_tuples() == [(34, "ann"), (12, "bob"), (19, "cy")]


def test_join(registry):
    left = Relation("l", ["id", "v"])
    left.insert_many([(1, "a"), (2, "b")])
    right = Relation("r", ["key", "w"])
    right.insert_many([(2, "x"), (3, "y"), (2, "z")])
    src = """
    proc(l r ce cc)
      (join proc(a b ce2 cc2)
              ([] a 0 cont(x) ([] b 0 cont(y)
                (== x y cont() (cc2 true) cont() (cc2 false))))
            l r ce cc)
    """
    out = run_both(src, [left, right], registry)
    assert out.to_tuples() == [(2, "b", 2, "x"), (2, "b", 2, "z")]


def test_exists_short_circuits(people, registry):
    src = """
    proc(rel ce cc)
      (exists proc(x ce2 cc2)
                ([] x 1 cont(a) (> a 30 cont() (cc2 true) cont() (cc2 false)))
              rel ce cc)
    """
    assert run_both(src, [people], registry) is True


def test_empty_and_count(people, registry):
    src = "proc(rel ce cc) (empty rel cont(e) (count rel cont(n) (vector e n cc)))"
    out = run_both(src, [people], registry)
    assert out.slots == (False, 3)


def test_boolean_connectives(registry):
    src = "proc(a b ce cc) (and a b cont(x) (or x b cont(y) (not y cont(z) (cc z)))))"
    # fix paren count
    src = "proc(a b ce cc) (and a b cont(x) (not x cont(z) (cc z)))"
    assert run_both(src, [True, True], registry) is False
    assert run_both(src, [True, False], registry) is True


def test_insert(registry):
    rel = Relation("t", ["v"])
    src = """
    proc(rel ce cc)
      (vector 42 cont(row) (insert rel row ce cc))
    """
    term = parse_term(src, prims=registry.names())
    code = compile_function(term, registry)
    result = VM().call(instantiate(code), [rel])
    assert result.value == UNIT
    assert rel.to_tuples() == [(42,)]


def test_indexscan(people, registry):
    people.create_index("age")
    src = 'proc(rel ce cc) (indexscan rel "age" 12 ce cc)'
    out = run_both(src, [people], registry)
    assert out.to_tuples() == [("bob", 12)]


def test_indexscan_without_index_raises(people, registry):
    src = 'proc(rel ce cc) (indexscan rel "age" 12 ce cc)'
    with pytest.raises(UncaughtTmlException):
        run_both(src, [people], registry)


def test_rangescan(people, registry):
    people.create_index("age", ordered=True)
    src = 'proc(rel ce cc) (rangescan rel "age" 12 20 ce cc)'
    out = run_both(src, [people], registry)
    assert {t[0] for t in out.to_tuples()} == {"bob", "cy"}


def test_predicate_exception_reaches_ce(people, registry):
    src = """
    proc(rel ce cc)
      (select proc(x ce2 cc2) (ce2 "boom") rel cont(e) (cc e) cc)
    """
    # wrap: the select's ce is a cont delivering the error value
    term = parse_term(src, prims=registry.names())
    code = compile_function(term, registry)
    result = VM().call(instantiate(code), [people])
    assert result.value == "boom"


def test_predicate_type_error(people, registry):
    src = """
    proc(rel ce cc)
      (select proc(x ce2 cc2) (cc2 7) rel cont(e) (cc e) cc)
    """
    term = parse_term(src, prims=registry.names())
    code = compile_function(term, registry)
    result = VM().call(instantiate(code), [people])
    assert "boolean" in result.value


def test_non_relation_argument(registry):
    src = "proc(rel ce cc) (count rel cc)"
    with pytest.raises(UncaughtTmlException):
        run_both(src, [42], registry)


def test_boolean_folds_registered(registry):
    call = parse_term("(and true x ^k)", prims=registry.names())
    folded = registry.lookup("and").meta_evaluate(call)
    assert folded is not None

    call = parse_term("(and false x ^k)", prims=registry.names())
    folded = registry.lookup("and").meta_evaluate(call)
    from repro.core.syntax import Lit

    assert folded.args == (Lit(False),)

    call = parse_term("(not true ^k)", prims=registry.names())
    assert registry.lookup("not").meta_evaluate(call).args == (Lit(False),)
