"""Integration tests: embedded TL queries + the integrated optimizer (Fig. 4)."""

import pytest

from repro.core.syntax import PrimApp, iter_subterms, term_size
from repro.lang import TycoonSystem
from repro.machine.runtime import UncaughtTmlException
from repro.query import Relation, integrated_optimize
from repro.reflect import optimize_result
from repro.store.heap import ObjectHeap


@pytest.fixture
def setup(tmp_path):
    heap = ObjectHeap(str(tmp_path / "q.tyc"))
    system = TycoonSystem(heap=heap)
    people = Relation("people", ["id", "name", "age"])
    for i in range(300):
        people.insert((i, f"p{i}", (i * 7) % 90))
    people.create_index("id")
    heap.store(people)
    system.register_data_module("db", {"people": people})
    system.compile(
        """
        module q export adults names seniors_of_adults byid anyone count_demo
        import db
        type Person = tuple id: Int, name: String, age: Int end
        let adults(people) =
          select p from people as p : Person where p.age >= 18 end
        let names(people) =
          select p.name from people as p : Person end
        let seniors_of_adults() =
          select q from
            (select p from db.people as p : Person where p.age >= 18 end)
            as q : Person
          where q.age >= 65 end
        let byid(k: Int) =
          select p from db.people as p : Person where p.id == k end
        let anyone(limit: Int): Bool =
          exists p : Person in db.people : limit > 10
        let count_demo(people): Int =
          size(array(1, people)) -- placeholder arity exercise
        end
        """
    )
    return system, people


class TestEmbeddedQueries:
    def test_select_where(self, setup):
        system, people = setup
        out = system.call("q", "adults", [people]).value
        expected = [t for t in people.to_tuples() if t[2] >= 18]
        assert out.to_tuples() == expected

    def test_projection(self, setup):
        system, people = setup
        out = system.call("q", "names", [people]).value
        assert out.to_tuples()[:2] == [("p0",), ("p1",)]

    def test_programming_language_expression_in_where(self, setup):
        """§4.2's motivation: PL variables and calls inside query clauses."""
        system, people = setup
        system.compile(
            """
            module pl export f
            type Person = tuple id: Int, name: String, age: Int end
            let threshold(x: Int): Int = x * 2
            let f(people, lim: Int) =
              select p from people as p : Person where p.age >= threshold(lim) end
            end
            """
        )
        out = system.call("pl", "f", [people, 30]).value
        expected = [t for t in people.to_tuples() if t[2] >= 60]
        assert out.to_tuples() == expected

    def test_query_exception_propagates(self, setup):
        system, people = setup
        system.compile(
            """
            module err export f
            type Person = tuple id: Int, name: String, age: Int end
            let f(people) =
              select p from people as p : Person where (1 / (p.id - 5)) > 0 end
            end
            """
        )
        with pytest.raises(UncaughtTmlException):
            system.call("err", "f", [people])

    def test_query_exception_catchable(self, setup):
        system, people = setup
        system.compile(
            """
            module err2 export f
            type Person = tuple id: Int, name: String, age: Int end
            let f(people): Int =
              try
                begin
                  select p from people as p : Person where (1 / (p.id - 5)) > 0 end;
                  1
                end
              catch(e) -1 end
            end
            """
        )
        assert system.call("err2", "f", [people]).value == -1


class TestIntegratedOptimization:
    def test_merge_select_through_reflection(self, setup):
        system, people = setup
        result = optimize_result(system, "q", "seniors_of_adults")
        assert result.query_stats.count("merge-select") == 1
        slow = system.call("q", "seniors_of_adults", [])
        fast = system.vm().call(result.closure, [])
        assert slow.value.to_tuples() == fast.value.to_tuples()

    def test_index_select_through_reflection(self, setup):
        system, people = setup
        result = optimize_result(system, "q", "byid")
        assert result.query_stats.count("index-select") == 1
        prims = {
            n.prim for n in iter_subterms(result.term) if isinstance(n, PrimApp)
        }
        assert "indexscan" in prims

        before = people.scans
        out = system.vm().call(result.closure, [42])
        assert out.value.to_tuples() == [(42, "p42", (42 * 7) % 90)]
        assert people.scans == before  # no full scan

    def test_trivial_exists_through_reflection(self, setup):
        system, people = setup
        result = optimize_result(system, "q", "anyone")
        assert result.query_stats.count("trivial-exists") == 1
        assert system.vm().call(result.closure, [50]).value is True
        assert system.vm().call(result.closure, [5]).value is False

    def test_both_optimizers_interact(self, setup):
        """Fig. 4: program inlining exposes the query pattern, the query
        rewrite then replaces the access path — neither alone suffices."""
        system, people = setup
        result = optimize_result(system, "q", "byid")
        # program optimizer inlined library calls (int.eq et al.)...
        assert result.stats.inlined_sites + result.stats.count("subst") > 0
        # ...which enabled the runtime query rewrite
        assert result.query_stats.count("index-select") == 1

    def test_integrated_optimize_direct_api(self, setup):
        system, people = setup
        from repro.reflect.reach import term_of_closure

        closure = system.closure("q", "adults")
        term = term_of_closure(closure, system.heap)
        result = integrated_optimize(term, system.registry, heap=system.heap)
        assert result.stats.rounds >= 1
        assert term_size(result.term) > 0
