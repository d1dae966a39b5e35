"""Tests for the abstract interpreter over TAM code families."""

import pytest

from repro.analysis.absint import (
    ARRAY,
    BOOL,
    BOT,
    INT,
    NIL,
    STR,
    TOP,
    AbsVal,
    Summary,
    analyze_code,
    closure_kind,
    join_kind,
    kind_from_token,
    kind_le,
    kind_of_value,
    summarize_graph,
)
from repro.analysis.callgraph import ImageGraph
from repro.analysis.diagnostics import Severity
from repro.core.names import NameSupply
from repro.core.syntax import UNIT
from repro.lang import TycoonSystem
from repro.machine.isa import CodeObject
from repro.machine.runtime import TmlArray, TmlVector
from repro.store.heap import ObjectHeap


# ---------------------------------------------------------------------- lattice


class TestKindLattice:
    def test_join_identities(self):
        assert join_kind(BOT, INT) == INT
        assert join_kind(INT, BOT) == INT
        assert join_kind(INT, INT) == INT
        assert join_kind(INT, STR) == TOP
        assert join_kind(TOP, BOT) == TOP

    def test_le_is_a_partial_order(self):
        kinds = [BOT, INT, STR, BOOL, ARRAY, closure_kind(2), closure_kind(), TOP]
        for k in kinds:
            assert kind_le(k, k)
            assert kind_le(BOT, k)
            assert kind_le(k, TOP)
        assert not kind_le(INT, STR)
        assert not kind_le(TOP, INT)

    def test_closure_arities(self):
        # closure/2 <= closure/? <= top, but closure/2 vs closure/3 -> closure/?
        assert kind_le(closure_kind(2), closure_kind())
        assert not kind_le(closure_kind(), closure_kind(2))
        joined = join_kind(closure_kind(2), closure_kind(3))
        assert joined == closure_kind()

    def test_join_le_consistency(self):
        kinds = [BOT, INT, BOOL, closure_kind(1), TOP]
        for a in kinds:
            for b in kinds:
                j = join_kind(a, b)
                assert kind_le(a, j) and kind_le(b, j)

    def test_token_roundtrip(self):
        for kind in (BOT, INT, STR, ARRAY, closure_kind(3), closure_kind(), TOP):
            assert kind_from_token(kind.token) == kind

    def test_unknown_token_widens(self):
        assert kind_from_token("no-such-kind") == TOP


class TestKindOfValue:
    def test_bool_is_not_int(self):
        # the VM's arith requires type(x) is int: True must not pass for 1
        assert kind_of_value(True) == BOOL
        assert kind_of_value(7) == INT

    def test_runtime_values(self):
        assert kind_of_value("s") == STR
        assert kind_of_value(UNIT) == NIL
        assert kind_of_value(TmlArray([1])) == ARRAY
        assert kind_of_value(TmlVector([1])) == ARRAY


class TestSummaryRoundtrip:
    def test_as_dict_from_dict(self):
        summary = Summary(
            name="m.f", arity=4, is_proc=True, result="int", halts="bot",
            raises="str", effect="pure", ret_deltas=(0, 1), escapes=(2,),
        )
        back = Summary.from_dict(summary.as_dict())
        assert back == summary

    def test_serialized_fields_are_tuples(self):
        # the heap serializer rejects python lists
        data = Summary.bottom("f", 3).as_dict()
        assert isinstance(data["ret_deltas"], tuple)
        assert isinstance(data["escapes"], tuple)

    def test_unknown_deltas_survive(self):
        data = Summary.top("f", 3).as_dict()
        assert data["ret_deltas"] is None
        assert Summary.from_dict(data).ret_deltas is None


# ---------------------------------------------------- hand-built code families


def _proc(supply, instrs, consts=(), nregs=8, free_names=(), codes=()):
    params = (
        supply.fresh_val("x"),
        supply.fresh_cont("ce"),
        supply.fresh_cont("cc"),
    )
    return CodeObject(
        name="t",
        params=params,
        nregs=nregs,
        instrs=list(instrs),
        consts=list(consts),
        codes=list(codes),
        free_names=tuple(free_names),
        is_proc=True,
    )


class TestGuaranteedTraps:
    def test_add_on_string_const_tam101(self):
        supply = NameSupply()
        code = _proc(
            supply,
            instrs=[
                ("const", 3, 0),
                ("add", 4, 3, 3, 5, 6),
                ("tailcall", 2, (4,)),
            ],
            consts=["boom"],
        )
        analysis = analyze_code(code, name="t")
        codes = {d.code for d in analysis.diagnostics if d.is_error}
        assert codes == {"TAM101"}
        # the trapping path delivers nothing via cc
        assert analysis.summary.result == "bot"
        assert analysis.summary.raises == "str"

    def test_honest_add_is_clean(self):
        supply = NameSupply()
        code = _proc(
            supply,
            instrs=[
                ("const", 3, 0),
                ("add", 4, 3, 3, 5, 6),
                ("tailcall", 2, (4,)),
            ],
            consts=[1],
        )
        analysis = analyze_code(code, name="t")
        assert [d for d in analysis.diagnostics if d.is_error] == []
        assert analysis.summary.result == "int"

    def test_resolved_arity_mismatch_tam102(self):
        supply = NameSupply()
        f = supply.fresh_val("f")
        code = _proc(
            supply,
            instrs=[
                ("free", 3, 0),
                ("tailcall", 3, (0, 2)),  # m.g wants 4 args, gets 2
            ],
            free_names=(f,),
        )
        analysis = analyze_code(
            code,
            name="t",
            bindings={f: AbsVal(closure_kind(4), callee="m.g")},
            summaries={"m.g": Summary.top("m.g", 4)},
        )
        assert {d.code for d in analysis.diagnostics if d.is_error} == {"TAM102"}

    def test_tailcall_on_non_closure_tam101(self):
        supply = NameSupply()
        code = _proc(
            supply,
            instrs=[("const", 3, 0), ("tailcall", 3, (0,))],
            consts=[42],
        )
        analysis = analyze_code(code, name="t")
        assert {d.code for d in analysis.diagnostics if d.is_error} == {"TAM101"}


def _handler_findings(code):
    return [d for d in analyze_code(code).diagnostics if d.code == "TAM020"]


class TestHandlerDepth:
    def test_bare_poph_fires_tam020(self):
        supply = NameSupply()
        code = _proc(supply, instrs=[("poph",), ("tailcall", 2, (0,))])
        found = _handler_findings(code)
        assert [d.code for d in found] == ["TAM020"]
        assert found[0].severity == Severity.WARNING

    def test_balanced_push_pop_is_clean(self):
        supply = NameSupply()
        code = _proc(
            supply,
            instrs=[("pushh", 0), ("poph",), ("tailcall", 2, (0,))],
        )
        assert _handler_findings(code) == []

    def test_double_pop_fires(self):
        supply = NameSupply()
        code = _proc(
            supply,
            instrs=[("pushh", 0), ("poph",), ("poph",), ("tailcall", 2, (0,))],
        )
        assert [d.code for d in _handler_findings(code)] == ["TAM020"]


# ----------------------------------------------------------- interprocedural


SRC = """
module t
export deep fact main
let add3(a: Int, b: Int, c: Int): Int = a + b + c
let deep(x: Int): Int = add3(x, x, x)
let fact(n: Int): Int = if n < 2 then 1 else n * fact(n - 1) end
let main(): Int = fact(6) + deep(4)
end
"""


@pytest.fixture(scope="module")
def analyses(tmp_path_factory):
    image = tmp_path_factory.mktemp("absint") / "img.db"
    system = TycoonSystem(heap=ObjectHeap(str(image)))
    system.compile(SRC)
    system.persist("t")
    system.heap.commit()
    graph = ImageGraph.from_system(system)
    result = summarize_graph(graph)
    system.heap.close()
    return result


class TestInterprocedural:
    def test_library_ops_resolve_to_int(self, analyses):
        # `+` compiles to a tailcall through the frozen `int.add` binding:
        # precision here *requires* the interprocedural fixpoint
        assert analyses["t.deep"].summary.result == "int"
        assert analyses["t.add3"].summary.result == "int"

    def test_recursion_converges(self, analyses):
        summary = analyses["t.fact"].summary
        assert summary.result == "int"
        assert summary.effect == "pure"
        assert summary.ret_deltas == (0,)

    def test_raises_tracks_trap_payloads(self, analyses):
        # overflow/type traps carry string payloads through ce
        assert analyses["t.fact"].summary.raises in ("str", "top")

    def test_stdlib_analyzed_clean(self, analyses):
        for qualified, analysis in analyses.items():
            assert [d for d in analysis.diagnostics if d.is_error] == [], qualified

    def test_seeded_summaries_are_final(self, analyses):
        # re-run with every summary seeded: nothing left to analyze
        image_summaries = {q: a.summary for q, a in analyses.items()}
        graph_like = type(
            "G", (), {"nodes": {}, "edges": {}, "bindings_for": lambda self, q: {}}
        )()
        assert summarize_graph(graph_like, seeded=image_summaries) == {}
