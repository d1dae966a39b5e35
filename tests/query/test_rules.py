"""Tests for the §4.2 query rewrite rules on CPS terms.

The rules fire in the program optimizer's expansion pass when it runs
against a heap, so each test optimizes its term with ``integrated_optimize``.
"""

import pytest

from repro.core.parser import parse_term
from repro.core.syntax import Abs, PrimApp
from repro.core.wellformed import check
from repro.machine.codegen import compile_function
from repro.machine.vm import VM, instantiate
from repro.query.algebra import query_registry
from repro.query.relation import Relation
from repro.query.optimizer import integrated_optimize
from repro.query.rules import is_effect_safe
from repro.store.heap import ObjectHeap


@pytest.fixture
def registry():
    return query_registry()


def parse(source, registry):
    return parse_term(source, prims=registry.names())


def optimize(term, registry, heap=None):
    """A runtime optimization of ``term``: a fresh heap unless one is given."""
    return integrated_optimize(term, registry, heap=heap or ObjectHeap())


#: σp(σq(R)) in the paper's CPS template
NESTED_SELECTS = """
proc(rel ce cc)
  (select proc(x ce1 cc1)
            ([] x 0 cont(v) (>= v 10 cont() (cc1 true) cont() (cc1 false)))
          rel ce
          cont(tempRel)
            (select proc(y ce2 cc2)
                      ([] y 0 cont(w) (<= w 20 cont() (cc2 true) cont() (cc2 false)))
                    tempRel ce cc))
"""


class TestMergeSelect:
    def test_fires_on_paper_shape(self, registry):
        term = parse(NESTED_SELECTS, registry)
        result = optimize(term, registry)
        out = result.term
        assert result.query_stats.count("merge-select") == 1
        check(out, registry)
        # exactly one select remains
        selects = [
            n for n in _prims(out) if n.prim == "select"
        ]
        assert len(selects) == 1

    def test_merged_query_equivalent_and_single_scan(self, registry):
        rel = Relation("nums", ["v"])
        rel.insert_many([(i,) for i in range(0, 40, 3)])

        term = parse(NESTED_SELECTS, registry)
        merged = optimize(term, registry).term

        out_orig = _run(term, [rel], registry)
        scans_orig = rel.scans
        out_merged = _run(merged, [rel], registry)
        scans_merged = rel.scans - scans_orig

        assert out_orig.to_tuples() == out_merged.to_tuples()
        # the merged plan scans the base relation exactly once and never
        # materializes (and re-scans) a temporary relation
        assert scans_merged == 1
        assert len(out_orig) == len(out_merged)

    def test_short_circuit_preserved(self, registry):
        """p is evaluated only on q-passing rows: errors in p must not fire
        for rows q rejects."""
        src = """
        proc(rel ce cc)
          (select proc(x ce1 cc1)
                    ([] x 0 cont(v) (> v 0 cont() (cc1 true) cont() (cc1 false)))
                  rel ce
                  cont(t)
                    (select proc(y ce2 cc2)
                              ([] y 0 cont(w)
                                (/ 100 w ce2 cont(q)
                                  (> q 10 cont() (cc2 true) cont() (cc2 false))))
                            t ce cc))
        """
        rel = Relation("nums", ["v"])
        rel.insert_many([(0,), (5,), (50,)])  # 0 would divide-by-zero in p
        term = parse(src, registry)
        merged = optimize(term, registry).term
        out = _run(merged, [rel], registry)
        assert out.to_tuples() == [(5,)]

    def test_blocked_when_temp_used_elsewhere(self, registry):
        src = """
        proc(rel ce cc)
          (select proc(x ce1 cc1) (cc1 true)
                  rel ce
                  cont(t)
                    (select proc(y ce2 cc2) (cc2 true)
                            t ce cont(r) (join p t r ce cc)))
        """
        result = optimize(parse(src, registry), registry)
        assert result.query_stats.count("merge-select") == 0

    def test_blocked_on_different_exception_continuations(self, registry):
        src = """
        proc(rel ce cc)
          (select proc(x ce1 cc1) (cc1 true)
                  rel cont(e) (cc e)
                  cont(t)
                    (select proc(y ce2 cc2) (cc2 true) t ce cc))
        """
        result = optimize(parse(src, registry), registry)
        assert result.query_stats.count("merge-select") == 0


class TestMergeProject:
    def test_composition(self, registry):
        src = """
        proc(rel ce cc)
          (project proc(x ce1 cc1) ([] x 0 cont(v) (cc1 v))
                   rel ce
                   cont(t)
                     (project proc(y ce2 cc2) (* y y ce2 cc2)
                              t ce cc))
        """
        rel = Relation("nums", ["v"])
        rel.insert_many([(2,), (3,)])
        term = parse(src, registry)
        result = optimize(term, registry)
        merged = result.term
        assert result.query_stats.count("merge-project") == 1
        assert _run(merged, [rel], registry).to_tuples() == [(4,), (9,)]


class TestTrivialExists:
    SRC = """
    proc(rel limit ce cc)
      (exists proc(x ce1 cc1)
                (> limit 100 cont() (cc1 true) cont() (cc1 false))
              rel ce cc)
    """

    def test_fires_when_var_unused(self, registry):
        term = parse(self.SRC, registry)
        result = optimize(term, registry)
        out = result.term
        assert result.query_stats.count("trivial-exists") == 1
        # rewrites to an O(1) emptiness check + one predicate evaluation
        prims = {n.prim for n in _prims(out)}
        assert "exists" not in prims
        assert "empty" in prims

    def test_equivalence(self, registry):
        rel = Relation("r", ["v"])
        term = parse(self.SRC, registry)
        merged = optimize(term, registry).term

        # empty relation: false regardless of the predicate
        assert _run(merged, [rel, 500], registry) is False
        rel.insert((1,))
        assert _run(merged, [rel, 500], registry) is True
        assert _run(merged, [rel, 50], registry) is False

    def test_blocked_when_var_used(self, registry):
        src = """
        proc(rel ce cc)
          (exists proc(x ce1 cc1)
                    ([] x 0 cont(v) (> v 0 cont() (cc1 true) cont() (cc1 false)))
                  rel ce cc)
        """
        result = optimize(parse(src, registry), registry)
        assert result.query_stats.count("trivial-exists") == 0

    def test_blocked_on_effectful_predicate(self, registry):
        src = """
        proc(rel f ce cc)
          (exists proc(x ce1 cc1) (f 1 ce1 cc1) rel ce cc)
        """
        result = optimize(parse(src, registry), registry)
        assert result.query_stats.count("trivial-exists") == 0


class TestIndexSelect:
    def _stored_relation(self, tmp_path, indexed=True):
        heap = ObjectHeap()
        rel = Relation("items", ["id", "v"])
        rel.insert_many([(i, i * i) for i in range(50)])
        if indexed:
            rel.create_index("id")
        oid = heap.store(rel)
        return heap, rel, oid

    def _select_by_id(self, oid, registry):
        src = f"""
        proc(k ce cc)
          (select proc(x ce1 cc1)
                    ([] x 0 cont(t) (== t k cont() (cc1 true) cont() (cc1 false)))
                  #oid:{int(oid)} ce cc)
        """
        return parse(src, registry)

    def test_fires_with_index(self, registry, tmp_path):
        heap, rel, oid = self._stored_relation(tmp_path)
        term = self._select_by_id(oid, registry)
        result = optimize(term, registry, heap)
        out = result.term
        assert result.query_stats.count("index-select") == 1
        prims = {n.prim for n in _prims(out)}
        assert "indexscan" in prims and "select" not in prims

    def test_blocked_without_index(self, registry, tmp_path):
        heap, rel, oid = self._stored_relation(tmp_path, indexed=False)
        result = optimize(self._select_by_id(oid, registry), registry, heap)
        assert result.query_stats.count("index-select") == 0

    def test_blocked_without_heap(self, registry, tmp_path):
        heap, rel, oid = self._stored_relation(tmp_path)
        result = integrated_optimize(self._select_by_id(oid, registry), registry)
        assert result.query_stats.count("index-select") == 0

    def test_equivalence_and_no_scan(self, registry, tmp_path):
        heap, rel, oid = self._stored_relation(tmp_path)
        term = self._select_by_id(oid, registry)
        out = optimize(term, registry, heap).term

        before = rel.scans
        result = _run(out, [7], registry, store=heap)
        assert result.to_tuples() == [(7, 49)]
        assert rel.scans == before  # index lookup, no full scan

    def test_commuted_equality_matches(self, registry, tmp_path):
        heap, rel, oid = self._stored_relation(tmp_path)
        src = f"""
        proc(k ce cc)
          (select proc(x ce1 cc1)
                    ([] x 0 cont(t) (== k t cont() (cc1 true) cont() (cc1 false)))
                  #oid:{int(oid)} ce cc)
        """
        result = optimize(parse(src, registry), registry, heap)
        assert result.query_stats.count("index-select") == 1


class TestEffectSafety:
    def test_pure_and_read_safe(self, registry):
        term = parse(
            "([] x 0 cont(v) (> v 1 cont() (^k true) cont() (^k false)))", registry
        )
        assert is_effect_safe(term, registry)

    def test_write_unsafe(self, registry):
        term = parse("([]:= x 0 1 cont(u) (k u))", registry)
        assert not is_effect_safe(term, registry)

    def test_unknown_call_unsafe(self, registry):
        term = parse("(f 1 ^ce ^cc)", registry)
        assert not is_effect_safe(term, registry)

    def test_continuation_call_safe(self, registry):
        term = parse("(^k 1)", registry)
        assert is_effect_safe(term, registry)


def _prims(term):
    from repro.core.syntax import iter_subterms

    return [n for n in iter_subterms(term) if isinstance(n, PrimApp)]


def _run(term, args, registry, store=None):
    assert isinstance(term, Abs)
    code = compile_function(term, registry)
    return VM(store=store).call(instantiate(code), list(args)).value


class TestPushSelectJoin:
    def _setup(self, indexed_fields=()):
        heap = ObjectHeap()
        left = Relation("l", ["id", "v"])
        left.insert_many([(i, i * 2) for i in range(30)])
        right = Relation("r", ["key", "w"])
        right.insert_many([(i % 10, i * 5) for i in range(20)])
        loid = heap.store(left)
        return heap, left, right, loid

    def _query(self, loid, registry):
        # σ(v > 20)(L ⋈ S) with the join predicate l.id == r.key
        src = f"""
        proc(right ce cc)
          (join proc(a b cej ccj)
                  ([] a 0 cont(x) ([] b 0 cont(y)
                    (== x y cont() (ccj true) cont() (ccj false))))
                #oid:{int(loid)} right ce
                cont(t)
                  (select proc(row ce2 cc2)
                            ([] row 1 cont(val)
                              (> val 20 cont() (cc2 true) cont() (cc2 false)))
                          t ce cc))
        """
        return parse_term(src, prims=registry.names())

    def test_fires_when_predicate_is_left_only(self, registry):
        heap, left, right, loid = self._setup()
        term = self._query(loid, registry)
        result = optimize(term, registry, heap)
        out = result.term
        assert result.query_stats.count("push-select-join") == 1
        # select now sits on the base relation, inside-out
        prims = [n.prim for n in _prims(out)]
        assert prims.index("select") < prims.index("join")

    def test_equivalence_and_fewer_join_probes(self, registry):
        heap, left, right, loid = self._setup()
        term = self._query(loid, registry)
        pushed = optimize(term, registry, heap).term

        out_orig = _run(term, [right], registry, store=heap)
        scans_orig = (left.scans, right.scans)
        out_pushed = _run(pushed, [right], registry, store=heap)

        assert sorted(out_orig.to_tuples()) == sorted(out_pushed.to_tuples())
        # pushed plan joins a pre-filtered left side: right gets scanned
        # once per surviving left row instead of once per left row
        assert right.scans - scans_orig[1] < scans_orig[1]

    def test_blocked_on_right_side_predicate(self, registry):
        heap, left, right, loid = self._setup()
        # the predicate touches column 2 (= right side of the join row)
        src = f"""
        proc(right ce cc)
          (join proc(a b cej ccj) (ccj true)
                #oid:{int(loid)} right ce
                cont(t)
                  (select proc(row ce2 cc2)
                            ([] row 2 cont(val)
                              (> val 20 cont() (cc2 true) cont() (cc2 false)))
                          t ce cc))
        """
        result = optimize(parse_term(src, prims=registry.names()), registry, heap)
        assert result.query_stats.count("push-select-join") == 0

    def test_blocked_without_heap(self, registry):
        heap, left, right, loid = self._setup()
        term = self._query(loid, registry)
        result = integrated_optimize(term, registry)
        assert result.query_stats.count("push-select-join") == 0

    def test_blocked_when_row_escapes(self, registry):
        heap, left, right, loid = self._setup()
        src = f"""
        proc(right f ce cc)
          (join proc(a b cej ccj) (ccj true)
                #oid:{int(loid)} right ce
                cont(t)
                  (select proc(row ce2 cc2) (f row ce2 cc2)
                          t ce cc))
        """
        result = optimize(parse_term(src, prims=registry.names()), registry, heap)
        assert result.query_stats.count("push-select-join") == 0

    def test_blocked_when_predicate_can_raise(self, registry):
        # pushed below the join the predicate would also run on left rows
        # that match nothing on the right, and raise where the join does not
        heap, left, right, loid = self._setup()
        src = f"""
        proc(right k ce cc)
          (join proc(a b cej ccj) (ccj false)
                #oid:{int(loid)} right ce
                cont(t)
                  (select proc(row ce2 cc2)
                            ([] row 1 cont(val)
                              (/ val k ce2 cont(q) (> q 1 cont() (cc2 true) cont() (cc2 false))))
                          t ce cc))
        """
        term = parse_term(src, prims=registry.names())
        result = optimize(term, registry, heap)
        assert result.query_stats.count("push-select-join") == 0
        assert _run(result.term, [right, 0], registry, store=heap).to_tuples() == []
