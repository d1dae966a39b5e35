"""Property tests for the optimizer's walks: ``count_all`` and the expansion
pass's single survey walk (candidates, census and top uid in one pass)
against references built the slow way."""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.core.names import Name
from repro.core.occurrences import count_all
from repro.core.syntax import Abs, App, Lit, PrimApp, Var, iter_subterms, max_uid
from repro.rewrite.expansion import _survey
from repro.rewrite.rules import _split_fix

from tests.properties.test_prop_core import straightline_terms

# A small pool, so binders repeat and the candidate map sees a name bound
# twice (the later binding in walk order must win, as it always has).
_VALS = [Name("v", uid, "val") for uid in range(6)]
_CONTS = [Name("k", uid, "cont") for uid in range(6, 10)]


@st.composite
def _params(draw, max_size=3):
    return tuple(draw(st.lists(st.sampled_from(_VALS + _CONTS), max_size=max_size, unique=True)))


@st.composite
def _values(draw, depth):
    kind = draw(st.sampled_from(["lit", "var", "abs"] if depth > 0 else ["lit", "var"]))
    if kind == "lit":
        return Lit(draw(st.integers(0, 3)))
    if kind == "var":
        return Var(draw(st.sampled_from(_VALS + _CONTS)))
    return Abs(draw(_params()), draw(_applications(depth - 1)))


@st.composite
def _applications(draw, depth=3):
    """Random (not necessarily well-formed) applications: calls, let
    bindings of abstractions, primitive calls and ``Y`` groups."""
    kind = draw(st.sampled_from(["call", "let", "prim", "Y"] if depth > 0 else ["call", "prim"]))
    values = st.lists(_values(depth), max_size=3)
    if kind == "call":
        return App(Var(draw(st.sampled_from(_VALS + _CONTS))), tuple(draw(values)))
    if kind == "prim":
        return PrimApp(draw(st.sampled_from(["+", "==", "halt"])), tuple(draw(values)))
    if kind == "let":
        params = draw(_params())
        args = tuple(draw(_values(depth)) for _ in params)
        return App(Abs(params, draw(_applications(depth - 1))), args)
    members = draw(st.lists(st.sampled_from(_VALS), max_size=3, unique=True))
    c0, c = draw(st.sampled_from(_CONTS)), draw(st.sampled_from(_CONTS))
    if c0 == c:
        return PrimApp("Y", (Abs((c0,), draw(_applications(depth - 1))),))
    entry = draw(_values(depth))
    # a member calling one of the group is a recursive candidate
    calls = st.sampled_from(members).map(lambda v: Abs((), App(Var(v), ())))
    abses = tuple(draw(st.one_of(_values(depth), calls)) for _ in members)
    return PrimApp("Y", (Abs((c0, *members, c), App(Var(c), (entry,) + abses)),))


_TERMS = st.one_of(_applications(), straightline_terms())

#: ``v0`` let-bound to an abstraction twice, the inner binding walked last
_INNER = App(Abs((_VALS[0],), App(Var(_VALS[0]), ())), (Abs((), PrimApp("halt", ())),))
_REBOUND = App(Abs((_VALS[0],), _INNER), (Abs((_VALS[1],), App(Var(_VALS[1]), ())),))


def _reference_census(term):
    return Counter(node.name for node in iter_subterms(term) if isinstance(node, Var))


def _reference_candidates(term):
    """The candidate collection as a walk of its own, the way the expansion
    pass found candidates before the survey took it over."""
    candidates = {}
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Abs):
            stack.append(node.body)
        elif isinstance(node, App):
            if isinstance(node.fn, Abs):
                for param, arg in zip(node.fn.params, node.args):
                    if isinstance(arg, Abs):
                        candidates[param] = (arg, False, False)
            stack.append(node.fn)
            stack.extend(node.args)
        elif isinstance(node, PrimApp):
            if node.prim == "Y":
                split = _split_fix(node)
                if split is not None:
                    _, c0, vs, _, body = split
                    group = set(vs) | {c0}
                    for v, abs_value in zip(vs, body.args[1:]):
                        if isinstance(abs_value, Abs):
                            occurrences = _reference_census(abs_value)
                            recursive = any(name in occurrences for name in group)
                            candidates[v] = (abs_value, recursive, True)
            stack.extend(node.args)
    return candidates


@given(_TERMS)
@settings(max_examples=200, deadline=None)
def test_count_all_equals_the_reference_count(term):
    assert count_all(term) == _reference_census(term)


@given(_TERMS)
@example(_REBOUND)
@settings(max_examples=200, deadline=None)
def test_the_survey_walk_equals_its_three_references(term):
    candidates, census, top = _survey(term)
    assert census == _reference_census(term)
    assert top == max_uid(term)
    reference = _reference_candidates(term)
    assert {name: (c.definition, c.recursive, c.y_bound) for name, c in candidates.items()} == (
        reference
    )
    for name, candidate in candidates.items():
        assert candidate.definition is reference[name][0]
        assert candidate.costed is None


def test_the_generator_draws_what_the_survey_looks_for():
    """Let-bound and Y-bound candidates, recursive and not, and a name bound
    twice: without them the survey property checks little."""
    seen = Counter()

    @given(_applications())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def tally(term):
        candidates = _reference_candidates(term)
        binders = [p for node in iter_subterms(term) if isinstance(node, Abs) for p in node.params]
        seen["let"] += any(not y for _, _, y in candidates.values())
        seen["Y"] += any(y for _, _, y in candidates.values())
        seen["recursive"] += any(r for _, r, _ in candidates.values())
        seen["rebound"] += len(binders) != len(set(binders))
        let_bound = [
            param
            for node in iter_subterms(term)
            if isinstance(node, App) and isinstance(node.fn, Abs)
            for param, arg in zip(node.fn.params, node.args)
            if isinstance(arg, Abs)
        ]
        seen["let-bound twice"] += len(let_bound) != len(set(let_bound))

    tally()
    kinds = ("let", "Y", "recursive", "rebound", "let-bound twice")
    assert all(seen[kind] > 0 for kind in kinds), seen
