"""Tests for the relational-algebra extension primitives (§4.2, §2.3)."""

import pytest

from repro.core.parser import parse_term
from repro.core.syntax import Abs, UNIT
from repro.machine.codegen import compile_function
from repro.machine.cps_interp import Interpreter
from repro.machine.isa import flatten_codes
from repro.machine.runtime import MachineError, UncaughtTmlException
from repro.machine.vm import VM, StepLimitExceeded, instantiate
from repro.obs.profile import ClosureProfile
from repro.query.algebra import query_registry
from repro.query.relation import Relation

from tests.machine.reference_vm import ReferenceVM


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


#: an operator calling a predicate that answers ``{answer}``, its ``ce`` a
#: continuation that answers what it is passed
NOT_A_BOOLEAN = {
    "select": "(select proc(x ce2 cc2) (cc2 {answer}) rel cont(e) (cc e) cc)",
    "exists": "(exists proc(x ce2 cc2) (cc2 {answer}) rel cont(e) (cc e) cc)",
    "join": "(join proc(x y ce2 cc2) (cc2 {answer}) rel rel cont(e) (cc e) cc)",
}


@pytest.mark.parametrize("answer", ["7", "unit"])
@pytest.mark.parametrize("operator", sorted(NOT_A_BOOLEAN))
def test_a_predicate_answering_no_boolean_fails_the_operator_at_its_ce(
    operator, answer, people, registry
):
    """Only ``true`` keeps a row and only ``false`` drops one: any other
    answer is the operator's type error, at its exception continuation."""
    body = NOT_A_BOOLEAN[operator].format(answer=answer)
    value = run_both(f"proc(rel ce cc) {body}", [people], registry)
    assert value == "queryTypeError: predicate did not return a boolean"


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


def test_join_whose_renamed_field_collides_reaches_ce(registry):
    """``r_a`` is the right ``a`` renamed, and a left field too: the join has
    no name for it, and says so at its exception continuation."""
    left = Relation("l", ["a", "r_a"])
    left.insert_many([(1, 2)])
    right = Relation("r", ["a"])
    right.insert_many([(1,)])
    src = "proc(l r ce cc) (join proc(a b ce2 cc2) (cc2 true) l r ce cc)"
    with pytest.raises(UncaughtTmlException) as raised:
        run_both(src, [left, right], registry)
    assert raised.value.value == "queryError: join: duplicate field names ('a', 'r_a', 'r_a')"


# ---------------------------------------------------------------------------
# the row loop: every operator, every way a predicate can end, on the VM (its
# direct path into the predicate's text), the reference loop and the CPS
# interpreter
# ---------------------------------------------------------------------------

#: how a predicate of the row ``x`` ends -> its body
PREDICATES = {
    "one-activation": (
        "([] x 1 cont(age) (print age cont(u)"
        " (>= age 18 cont() (cc2 true) cont() (cc2 false))))"
    ),
    # ``k`` is a closure of its own: every row takes two activations
    "several-activations": (
        "(print x cont(w) ([] x 1 cont(age) (λ(k) (k age) cont(a) (print a cont(u)"
        " (>= a 18 cont() (cc2 true) cont() (cc2 false))))))"
    ),
    "raises-through-ce": (
        '([] x 1 cont(age) (print age cont(u) (>= age 18 cont() (ce2 "old") cont() (cc2 false))))'
    ),
    "traps-unhandled": "(print x cont(u) ([] x 9 cont(v) (cc2 true)))",
    "traps-unhandled-in-a-later-activation": "(λ(k) (k x) cont(r) ([] r 9 cont(v) (cc2 true)))",
    "traps-into-its-own-handler": (
        "(λ(^h) (pushHandler h cont() ([] x 9 cont(v) (popHandler cont() (cc2 true))))"
        " cont(exv) (print exv cont(u) (cc2 false)))"
    ),
    "halts": "([] x 1 cont(age) (>= age 18 cont() (halt true) cont() (cc2 false)))",
    "non-boolean": "([] x 1 cont(age) (cc2 age))",
}

#: operator -> a call of it with the predicate ``{body}`` over ``rel``
OPERATORS = {
    "select": "(select proc(x ce2 cc2) {body} rel ce {cc})",
    "project": "(project proc(x ce2 cc2) {body} rel ce {cc})",
    "exists": "(exists proc(x ce2 cc2) {body} rel ce {cc})",
    "join": "(join proc(x y ce2 cc2) {body} rel rel ce {cc})",
}


def under_a_handler(operator, body):
    """The operator's call inside a handler of the run around it, which the
    predicate must not see: a trap no handler of its own answers fails the
    predicate at the operator's ``ce``."""
    call = OPERATORS[operator].format(body=body, cc="cont(r) (popHandler cont() (cc r))")
    return f'(λ(^h) (pushHandler h cont() {call}) cont(exv) (cc "the handler around"))'

#: a predicate taking one value fewer than the operator passes
WRONG_ARITY = {
    "select": "(select proc(ce2 cc2) (cc2 true) rel ce cc)",
    "project": "(project proc(ce2 cc2) (cc2 true) rel ce cc)",
    "exists": "(exists proc(ce2 cc2) (cc2 true) rel ce cc)",
    "join": "(join proc(x ce2 cc2) (cc2 true) rel rel ce cc)",
}


def _shown(value):
    if isinstance(value, Relation):
        return ("relation", value.fields, value.to_tuples())
    return repr(value)


def _outcome(machine, run):
    """What a caller sees of one run: how it ended, with what, and the output."""
    try:
        value = run().value
    except UncaughtTmlException as raised:
        return ("raise", _shown(raised.value), machine.output)
    except MachineError:
        return ("error", None, machine.output)
    return ("value", _shown(value), machine.output)


def query(body, registry):
    """The TML term ``proc(rel ce cc) body`` and a closure of its code."""
    term = parse_term(f"proc(rel ce cc) {body}", prims=registry.names())
    return term, instantiate(compile_function(term, registry))


def row_loop(body, rows, registry):
    """Run ``proc(rel ce cc) body`` over ``rows`` on the VM, the reference loop
    and the interpreter; assert agreement (instructions too, between the two
    TAM engines) and return the outcome."""
    relation = Relation("people", ["name", "age"])
    relation.insert_many(rows)
    term, closure = query(body, registry)
    outcomes = []
    for machine in (VM(), ReferenceVM()):
        outcome = _outcome(machine, lambda: machine.call(closure, [relation]))
        outcomes.append((*outcome, machine.instructions))
    vm, reference = outcomes
    assert vm == reference
    interp = Interpreter(registry=registry)
    assert _outcome(interp, lambda: interp.call(interp.make_closure(term), [relation])) == vm[:3]
    return vm


ROWS = [("ann", 34), ("bob", 12), ("cy", 19)]


@pytest.mark.parametrize("ending", sorted(PREDICATES))
@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_row_loop_matches_the_reference(operator, ending, registry):
    kind, _, _, instructions = row_loop(under_a_handler(operator, PREDICATES[ending]), ROWS, registry)
    assert instructions > 0
    if ending.startswith(("raises", "traps-unhandled")) or (
        ending == "non-boolean" and operator != "project"
    ):
        assert kind == "raise"
    else:
        assert kind == "value"


@pytest.mark.parametrize("rows", [[], ROWS], ids=["empty", "three-rows"])
@pytest.mark.parametrize("operator", sorted(WRONG_ARITY))
def test_row_loop_with_a_predicate_of_the_wrong_arity(operator, rows, registry):
    """The arity error is the nested run's, on the first row: a relation
    without rows never calls the predicate."""
    kind, _, _, _ = row_loop(WRONG_ARITY[operator], rows, registry)
    assert kind == ("error" if rows else "value")


def test_an_unprofiled_row_loop_does_not_go_through_apply(people, registry, monkeypatch):
    """The rows call the predicate's text directly, and the test above is not
    about the fallback: with ``VM.apply`` unusable the query still answers."""
    closure = instantiate(compile_function(parse_term(ADULTS, prims=registry.names()), registry))

    def no_apply(self, closure, args):
        raise AssertionError("VM.apply re-entered")

    monkeypatch.setattr(VM, "apply", no_apply)
    out = VM().procedure(closure, 1)(people)
    assert out.to_tuples() == [("ann", 34), ("cy", 19)]


def test_the_reference_never_runs_a_tier_text(people, registry):
    """``ReferenceVM`` re-enters through its own loop, so its query runs stay
    reference runs: with every text of the query made to fail, it answers,
    and the VM does not."""
    closure = instantiate(compile_function(parse_term(ADULTS, prims=registry.names()), registry))

    def tier(vm, free, args, *counted):
        raise AssertionError("a tier text ran")

    for code in flatten_codes(closure.code):
        code.tier = code.tier_counted = tier
    assert ReferenceVM().call(closure, [people]).value.to_tuples() == [("ann", 34), ("cy", 19)]
    with pytest.raises(AssertionError, match="a tier text ran"):
        VM().call(closure, [people])


# ---------------------------------------------------------------------------
# a step limit or a profile: every row is a nested run
# ---------------------------------------------------------------------------

SEVERAL = OPERATORS["select"].format(body=PREDICATES["several-activations"], cc="cc")


def _stopped(machine_type, closure, relation, limit):
    machine = machine_type(step_limit=limit)
    try:
        result = machine.call(closure, [relation])
    except StepLimitExceeded as stopped:
        return ("limit", stopped.instructions, stopped.partial.output, machine.instructions)
    return ("value", _shown(result.value), result.output, result.instructions)


def test_every_step_limit_over_a_multi_activation_select(people, registry):
    _, closure = query(SEVERAL, registry)
    total = VM().call(closure, [people]).instructions
    outcomes = set()
    for limit in range(1, total + 2):
        outcome = _stopped(VM, closure, people, limit)
        assert outcome == _stopped(ReferenceVM, closure, people, limit), limit
        outcomes.add(outcome[0])
    assert outcomes == {"limit", "value"}


@pytest.mark.parametrize("ending", sorted(PREDICATES))
def test_profiled_row_loop_credits_the_predicate_like_the_reference(ending, people, registry):
    _, closure = query(under_a_handler("select", PREDICATES[ending]), registry)
    credits = []
    for machine_type in (VM, ReferenceVM):
        machine = machine_type(profiler=ClosureProfile())
        _outcome(machine, lambda: machine.call(closure, [people]))
        credits.append(
            {name: (s.invocations, s.instructions) for name, s in machine.profiler.closures.items()}
        )
    assert credits[0] == credits[1]
    assert credits[0]["fn/anon"][0] > 0  # the predicate's, credited to it
