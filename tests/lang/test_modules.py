"""Tests for module compilation, linking and persistence (Fig. 3 lifecycle)."""

import pytest

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

from repro.core.syntax import Abs, Oid
from repro.lang import (
    CompileOptions,
    TLError,
    TycoonSystem,
    compile_module,
    link_module,
    load_module,
    store_module,
)
from repro.lang.errors import TLCheckError
from repro.lang.modules import CompiledModule, StoredModule, compile_stdlib, link_stdlib
from repro.lang.types import (
    BOOL, CHAR, INT, STRING, UNIT, UNKNOWN, FunSig, ModuleInterface, TArray, TFun, TRecord,
    term_type, type_term,
)
from repro.machine.binfmt import encode_code
from repro.machine.isa import VMClosure
from repro.machine.vm import VM
from repro.store.heap import ObjectHeap
from repro.store.serialize import Blob, decode_value, encode_value
from scripts.audit_negative_control import flip_one_bit
from tests.store import legacy_module

SRC = """
module calc export inc fact
let inc(x: Int): Int = x + 1
let fact(n: Int): Int = if n <= 1 then 1 else n * fact(n - 1) end
end
"""


class TestCompilation:
    def test_compile_produces_terms_and_code(self):
        compiled = compile_module(SRC)
        assert set(compiled.functions) == {"inc", "fact"}
        fn = compiled.functions["inc"]
        assert isinstance(fn.term, Abs)
        assert fn.code.is_proc

    def test_ptml_attached_by_default(self):
        compiled = compile_module(SRC)
        assert isinstance(compiled.functions["inc"].code.ptml_ref, Blob)

    def test_externals_cover_free_names(self):
        compiled = compile_module(SRC)
        fn = compiled.functions["fact"]
        assert set(fn.externals) == set(fn.code.free_names)

    def test_sibling_reference_recorded(self):
        compiled = compile_module(SRC)
        kinds = {ref.kind for ref in compiled.functions["fact"].externals.values()}
        assert "sibling" in kinds  # the recursive fact call
        assert "import" in kinds  # the int library ops

    def test_static_optimization_shrinks_local_redexes(self):
        from repro.core.syntax import term_size
        from repro.rewrite import OptimizerConfig

        # a locally bound lambda is a static redex the optimizer removes
        src = """
        module t export f
        let f(x: Int): Int = let g = fn(v) => v + 1 in g(x)
        end
        """
        plain = compile_module(src, options=CompileOptions(optimizer=None))
        optimized = compile_module(
            src, options=CompileOptions(optimizer=OptimizerConfig())
        )
        assert term_size(optimized.functions["f"].term) < term_size(
            plain.functions["f"].term
        )

    def test_static_optimization_cannot_shrink_library_code(self):
        """Section 6: library-call-only functions offer the static optimizer
        nothing to do — the abstraction barrier in action."""
        from repro.core.syntax import term_size
        from repro.rewrite import OptimizerConfig

        plain = compile_module(SRC, options=CompileOptions(optimizer=None))
        optimized = compile_module(
            SRC, options=CompileOptions(optimizer=OptimizerConfig())
        )
        assert term_size(optimized.functions["fact"].term) == term_size(
            plain.functions["fact"].term
        )


class TestLinking:
    def test_mutual_recursion_backpatched(self):
        compiled = compile_module(SRC)
        linked = link_module(compiled, link_stdlib())
        vm = VM()
        assert vm.call(linked.member("fact"), [6]).value == 720

    def test_missing_import_rejected(self):
        compiled = compile_module(SRC)
        with pytest.raises(TLError, match="not linked"):
            link_module(compiled, {})

    def test_member_access_errors(self):
        compiled = compile_module(SRC)
        linked = link_module(compiled, link_stdlib())
        with pytest.raises(TLError, match="no member"):
            linked.member("missing")

    def test_exported_closures_are_vm_closures(self):
        linked = link_module(compile_module(SRC), link_stdlib())
        assert isinstance(linked.member("inc"), VMClosure)


class TestPersistence:
    def test_store_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "mods.tyc")
        heap = ObjectHeap(path)
        compiled = compile_module(SRC)
        store_module(heap, compiled)
        heap.commit()
        heap.close()

        heap2 = ObjectHeap(path)
        loaded = load_module(heap2, "calc")
        linked = link_module(loaded, link_stdlib())
        assert VM(store=heap2).call(linked.member("fact"), [5]).value == 120
        heap2.close()

    def test_ptml_blobs_become_oids(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "p.tyc"))
        compiled = compile_module(SRC)
        store_module(heap, compiled)
        for fn in compiled.functions.values():
            assert isinstance(fn.code.ptml_ref, Oid)
            assert isinstance(heap.load(fn.code.ptml_ref), Blob)
        heap.close()

    def test_module_registered_as_root(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "r.tyc"))
        store_module(heap, compile_module(SRC))
        assert "module:calc" in heap.root_names()
        heap.close()

    def test_system_persist_and_reload(self, tmp_path):
        path = str(tmp_path / "sys.tyc")
        heap = ObjectHeap(path)
        system = TycoonSystem(heap=heap)
        system.compile(SRC)
        system.persist("calc")
        system.commit()
        heap.close()

        heap2 = ObjectHeap(path)
        system2 = TycoonSystem(heap=heap2)
        system2.load("calc")
        assert system2.call("calc", "fact", [5]).value == 120
        heap2.close()

    def test_the_record_holds_ptml_references_and_load_regenerates(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "ref.tyc"))
        compiled = compile_module(SRC)
        store_module(heap, compiled)
        stored = heap.load_root("module:calc")
        assert [(name, ref) for name, ref, _ in stored.functions] == [
            (name, fn.code.ptml_ref) for name, fn in compiled.functions.items()
        ]
        loaded = load_module(heap, "calc")
        for name, fn in compiled.functions.items():
            again = loaded.functions[name]
            assert again.code.ptml_ref == fn.code.ptml_ref
            assert again.term == fn.term
            assert encode_code(again.code) == encode_code(fn.code)
        heap.close()

    def test_a_function_without_ptml_is_refused_by_name(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "none.tyc"))
        heap.set_root("module:calc", heap.store(
            StoredModule("calc", ("inc",), {}, [("inc", None, {})])
        ))
        with pytest.raises(TLError, match="calc.inc"):
            load_module(heap, "calc")
        heap.close()

    def test_ill_formed_ptml_is_refused_by_name(self, tmp_path):
        path = str(tmp_path / "flip.tyc")
        heap = ObjectHeap(path)
        store_module(heap, compile_module(SRC))
        heap.commit()
        heap.close()
        assert flip_one_bit(path, "calc", "fact") == "n"
        heap = ObjectHeap(path)
        with pytest.raises(TLError, match="calc.fact: stored PTML refused"):
            load_module(heap, "calc")
        heap.close()


LIB = "module lib export f let f(n: Int): Int = n + {} end"
APP = "module app export g import lib let g(n: Int): Int = lib.f(n) + lib.f(n) end"


def _optimized_image(path):
    """``lib`` and ``app`` persisted, ``app.g`` given a variant by a PGO
    round and committed."""
    from repro.obs.profile import profile_call
    from repro.reflect import optimize_hot

    system = TycoonSystem(heap=ObjectHeap(path))
    system.compile(LIB.format(1))
    system.compile(APP)
    system.persist("lib")
    _, profile = profile_call(system, "app", "g", [1])
    assert [c.qualified for c in optimize_hot(system, profile, top=1).selected] == ["app.g"]
    system.commit()
    return system


class TestVariants:
    """A function's PGO variant is part of its module record."""

    def test_the_record_carries_the_variant_and_load_regenerates_it(self, tmp_path):
        system = _optimized_image(str(tmp_path / "v.tyc"))
        stored = system.heap.load_root("module:app")
        ((name, (ref, fingerprint, deps, attributes)),) = stored.variants.items()
        assert name == "g" and isinstance(ref, Oid)
        assert isinstance(system.heap.load(ref), Blob)
        first = load_module(system.heap, "app", system.registry)
        again = load_module(system.heap, "app", system.registry)
        variant = first.functions["g"].variant
        assert variant.code.name == "app.g'" and variant.code.free_names == ()
        assert (variant.code.ptml_ref, variant.fingerprint, variant.deps) == (ref, fingerprint, deps)
        assert variant.attributes == attributes
        assert encode_code(again.functions["g"].variant.code) == encode_code(variant.code)
        system.heap.close()

    def test_corrupt_variant_ptml_is_refused_by_name(self, tmp_path):
        system = _optimized_image(str(tmp_path / "bad.tyc"))
        ref = system.heap.load_root("module:app").variants["g"][0]
        system.heap.update(ref, Blob(b"not ptml"))
        with pytest.raises(TLError, match="app.g': stored PTML refused"):
            load_module(system.heap, "app", system.registry)
        system.heap.close()

    def test_the_link_uses_the_variant_while_its_dependencies_are_current(self, tmp_path):
        system = _optimized_image(str(tmp_path / "link.tyc"))
        variant = system._compiled("app").functions["g"].variant
        assert [name for name, _ in variant.deps] == ["app.g", "int.add", "lib.f"]
        assert system.current(variant.deps)
        assert system.closure("app", "g").code is variant.code
        assert system.call("app", "g", [1]).value == 4
        system.compile(LIB.format(100))  # not persisted: in-process only
        assert not system.current(variant.deps)
        assert system.closure("app", "g").code.name == "app.g"
        assert system.call("app", "g", [1]).value == 202
        system.heap.close()


def _reopened(path, compiled):
    """``compiled`` stored, committed and loaded back from a reopened heap
    (so the record is decoded, not served from the cache)."""
    heap = ObjectHeap(path)
    store_module(heap, compiled)
    heap.commit()
    heap.close()
    heap = ObjectHeap(path)
    try:
        return load_module(heap, compiled.name)
    finally:
        heap.close()


class TestInterfaces:
    """A module record carries the module's interface."""

    ROW = TRecord((("x", INT), ("tags", TArray(CHAR))))
    SHAPES = ModuleInterface(
        "shapes",
        types={"Row": ROW, "Table": TRecord((("rows", TArray(ROW)), ("ok", BOOL)))},
        functions={"g": FunSig("g", (TArray(ROW), UNKNOWN), TFun((INT, STRING), UNIT))},
        values={"v": TArray(TFun((), TArray(INT))), "s": STRING},
    )

    def test_every_type_shape_round_trips_through_its_term(self):
        shapes = [*self.SHAPES.types.values(), *self.SHAPES.values.values()]
        shapes += [INT, BOOL, CHAR, STRING, UNIT, UNKNOWN, TFun((), UNIT)]
        for ty in shapes:
            assert term_type(type_term(ty)) == ty

    def test_every_type_shape_round_trips_through_a_module_record(self, tmp_path):
        compiled = CompiledModule("shapes", self.SHAPES, {}, {"s": "text"}, ("g", "v", "s"))
        assert _reopened(str(tmp_path / "shapes.tyc"), compiled).interface == self.SHAPES

    def test_a_compiled_interface_loads_as_it_compiled(self, tmp_path):
        source = """
        module shapes export Row, Table, first, limit
        type Row = tuple x: Int, tags: Array(Char) end
        type Table = tuple rows: Array(Row), ok: Bool end
        let limit = 3
        let first(t: Table, tag: Char): Row = t.rows[0]
        end
        """
        compiled = compile_module(source)
        assert compiled.interface.functions["first"].params[0].fields[0][1] == TArray(
            compiled.interface.types["Row"]
        )
        assert _reopened(str(tmp_path / "c.tyc"), compiled).interface == compiled.interface

    def test_a_record_with_variants_and_an_interface_loads(self, tmp_path):
        path = str(tmp_path / "both.tyc")
        _optimized_image(path).heap.close()
        system = TycoonSystem(heap=ObjectHeap(path))
        loaded = system.load("app")
        assert loaded.functions["g"].variant is not None
        assert loaded.interface == ModuleInterface("app", functions={"g": FunSig("g", (INT,), INT)})
        system.compile("module app2 export h import app let h(n: Int): Int = app.g(n) + 1 end")
        assert system.call("app2", "h", [1]).value == 5
        assert system.closure("app", "g").code.name == "app.g'"
        system.heap.close()


class TestOldImages:
    """An image whose module records hold TAM code objects (the layout
    before PTML was the only stored code) loads with no migration."""

    def test_an_old_layout_record_loads_and_answers(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "old.tyc"))
        legacy_module.install(heap)
        loaded = load_module(heap, "calc")
        for name, oid in legacy_module.PTML_OIDS.items():
            assert loaded.functions[name].code.ptml_ref == Oid(oid)
            assert loaded.functions[name].variant is None
        linked = link_module(loaded, link_stdlib())
        assert VM(store=heap).call(linked.member("fact"), [6]).value == 720
        assert VM(store=heap).call(linked.member("inc"), [41]).value == 42
        heap.close()

    def test_old_code_regenerates_as_the_source_compiles(self, tmp_path):
        heap = ObjectHeap(str(tmp_path / "old.tyc"))
        legacy_module.install(heap)
        loaded = load_module(heap, "calc")
        fresh = compile_module(legacy_module.SOURCE)
        for name, fn in fresh.functions.items():
            assert encode_code(loaded.functions[name].code) == encode_code(fn.code)
        heap.close()

    def test_records_that_end_before_the_interface_or_the_variants_load(self, tmp_path):
        """The record's tail is optional: one written before interfaces
        (with or without variants) loads with an empty interface."""
        system = _optimized_image(str(tmp_path / "tail.tyc"))
        stored = system.heap.load_root("module:app")
        system.heap.close()
        empty = dataclasses.replace(stored, interface=ModuleInterface("app"))
        interface_tail = len(encode_value(({}, {}, {})))
        old = decode_value(encode_value(empty)[:-interface_tail])
        assert old.interface == ModuleInterface("app")
        assert old.variants == stored.variants
        bare = dataclasses.replace(empty, variants={})
        older = decode_value(encode_value(bare)[:-interface_tail - 1])
        assert (older.variants, older.interface) == ({}, ModuleInterface("app"))
        assert [f[:2] for f in older.functions] == [f[:2] for f in stored.functions]

    def test_an_importer_of_an_old_record_is_refused_by_its_missing_interface(self, tmp_path):
        path = str(tmp_path / "old.tyc")
        heap = ObjectHeap(path)
        legacy_module.install(heap)
        heap.close()
        system = TycoonSystem(heap=ObjectHeap(path))
        assert system.load("calc").interface == ModuleInterface("calc")
        with pytest.raises(TLCheckError, match="'calc' is stored without its interface"):
            system.compile("module user export h import calc let h(n: Int): Int = calc.inc(n) end")
        assert system.call("calc", "inc", [1]).value == 2
        system.heap.close()

    def test_a_system_calls_an_old_module_without_loading_it_first(self, tmp_path):
        path = str(tmp_path / "old.tyc")
        heap = ObjectHeap(path)
        legacy_module.install(heap)
        heap.close()
        system = TycoonSystem(heap=ObjectHeap(path))
        assert system.call("calc", "fact", [5]).value == 120
        system.heap.close()


def _corpus_image(path):
    """Compile and persist every Stanford program and the query corpus
    into a file image (the system stores the stdlib itself); returns the
    image's module names and ``qualified -> encode_code`` of what compiled."""
    from perf.corpus import QUERY_SOURCE, stanford_programs
    from repro.query.relation import Relation

    system = TycoonSystem(heap=ObjectHeap(path))
    system.register_data_module("db", {"data": Relation("data", ["id", "v"])})
    modules = [system.compile(p.source) for p in stanford_programs()]
    modules.append(system.compile(QUERY_SOURCE))
    for module in modules:
        system.persist(module.name)
    modules += compile_stdlib(system.options).values()
    system.commit()
    system.heap.close()
    codes = {
        f"{module.name}.{name}": encode_code(fn.code)
        for module in modules
        for name, fn in module.functions.items()
    }
    return [module.name for module in modules], codes


_REGENERATE = """
import hashlib, json, sys
from repro.lang.modules import load_module
from repro.machine.binfmt import encode_code
from repro.query.algebra import query_registry
from repro.store.heap import ObjectHeap

heap = ObjectHeap(sys.argv[1])
digests = {}
for name in json.loads(sys.argv[2]):
    for fn_name, fn in load_module(heap, name, query_registry()).functions.items():
        digests[f"{name}.{fn_name}"] = hashlib.sha256(encode_code(fn.code)).hexdigest()
print(json.dumps(digests))
"""


class TestRegeneration:
    """TAM is a pure function of PTML: every function of the stdlib, the
    Stanford suite and the query corpus loads as the code it compiled to."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("corpus") / "corpus.tyc")
        names, codes = _corpus_image(path)
        return path, names, codes

    def test_in_process(self, corpus):
        from repro.query.algebra import query_registry

        path, names, codes = corpus
        heap = ObjectHeap(path)
        regenerated = {
            f"{name}.{fn_name}": encode_code(fn.code)
            for name in names
            for fn_name, fn in load_module(heap, name, query_registry()).functions.items()
        }
        heap.close()
        assert len(codes) > 40
        assert regenerated == codes

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_in_a_fresh_process(self, corpus, seed):
        import repro

        path, names, codes = corpus
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        )
        run = subprocess.run(
            [sys.executable, "-c", _REGENERATE, path, json.dumps(names)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        assert json.loads(run.stdout) == {
            name: hashlib.sha256(code).hexdigest() for name, code in codes.items()
        }
