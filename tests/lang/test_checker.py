"""Tests for the TL checker: binding, arities, record shapes."""

import pytest

from repro.lang.check import check_module
from repro.lang.errors import TLCheckError
from repro.lang.parser import parse_module
from repro.lang.types import ModuleInterface, TRecord, INT, FunSig


def check_src(source, available=None):
    return check_module(parse_module(source), (available or {}).get)


class TestBinding:
    def test_unbound_identifier(self):
        with pytest.raises(TLCheckError, match="unbound identifier"):
            check_src("module m export let f() = nonexistent end")

    def test_locals_params_and_siblings_resolve(self):
        checked = check_src(
            """
            module m export f
            let g(x: Int): Int = x
            let f(a: Int): Int = let b = a in g(b)
            end
            """
        )
        assert checked.interface.functions["f"].arity == 1

    def test_builtins_resolve(self):
        check_src("module m export let f(n: Int) = array(n, 0) end")

    def test_export_of_undefined_name(self):
        with pytest.raises(TLCheckError, match="exports undefined"):
            check_src("module m export ghost end")

    def test_module_constant_must_be_literal(self):
        with pytest.raises(TLCheckError, match="must be a literal"):
            check_src("module m export let k = 1 + 2 end")

    def test_assignment_needs_var(self):
        with pytest.raises(TLCheckError, match="not a mutable variable"):
            check_src("module m export let f(x: Int) = begin x := 1; x end end")


class TestArities:
    def test_sibling_call_arity(self):
        with pytest.raises(TLCheckError, match="argument"):
            check_src(
                """
                module m export
                let g(x: Int): Int = x
                let f(): Int = g(1, 2)
                end
                """
            )

    def test_builtin_arity(self):
        with pytest.raises(TLCheckError, match="argument"):
            check_src("module m export let f() = size(1, 2) end")

    def test_calling_non_function(self):
        with pytest.raises(TLCheckError, match="cannot call"):
            check_src("module m export let f(x: Int) = x(1) end")


class TestRecords:
    SRC = """
    module m export T
    type T = tuple x: Int, y: Int end
    let mk(a: Int): T = tuple x = a, y = 0 end
    let getx(t: T): Int = t.x
    end
    """

    def test_field_access_resolves_to_index(self):
        checked = check_src(self.SRC)
        field_res = [
            r for r in checked.resolutions.values() if r.kind == "field"
        ]
        assert [r.index for r in field_res] == [0]

    def test_unknown_field(self):
        with pytest.raises(TLCheckError, match="no field"):
            check_src(
                """
                module m export
                type T = tuple x: Int end
                let f(t: T): Int = t.z
                end
                """
            )

    def test_access_without_shape_rejected(self):
        with pytest.raises(TLCheckError, match="unknown record shape"):
            check_src("module m export let f(t) = t.x end")

    def test_annotation_enables_access(self):
        check_src(
            """
            module m export
            type T = tuple x: Int end
            let f(t) = let u : T = t in u.x
            end
            """
        )

    def test_duplicate_record_field(self):
        with pytest.raises(TLCheckError, match="duplicate"):
            check_src("module m export let f() = tuple a = 1, a = 2 end end")

    def test_exported_type_in_interface(self):
        checked = check_src(self.SRC)
        assert isinstance(checked.interface.types["T"], TRecord)


class TestImports:
    def other_interface(self):
        interface = ModuleInterface(name="other")
        interface.functions["helper"] = FunSig("helper", (INT,), INT)
        interface.types["T"] = TRecord((("v", INT),))
        return {"other": interface}

    def test_import_member_resolves(self):
        checked = check_src(
            """
            module m export
            import other
            let f(x: Int): Int = other.helper(x)
            end
            """,
            self.other_interface(),
        )
        refs = [r for r in checked.resolutions.values() if r.kind == "module_ref"]
        assert refs and refs[0].module == "other"

    def test_unknown_import(self):
        with pytest.raises(TLCheckError, match="unknown module"):
            check_src("module m export import nope end")

    def test_unknown_member(self):
        with pytest.raises(TLCheckError, match="no export"):
            check_src(
                """
                module m export
                import other
                let f() = other.missing(1)
                end
                """,
                self.other_interface(),
            )

    def test_imported_record_type(self):
        check_src(
            """
            module m export
            import other
            let f(t: other.T): Int = t.v
            end
            """,
            self.other_interface(),
        )

    def test_local_binding_shadows_import(self):
        # `other` as a parameter: other.x is a field access, not a module ref
        with pytest.raises(TLCheckError, match="unknown record shape"):
            check_src(
                """
                module m export
                import other
                let f(other) = other.helper
                end
                """,
                self.other_interface(),
            )


class TestQueryChecking:
    def test_select_var_scoping(self):
        check_src(
            """
            module m export
            type P = tuple age: Int end
            let f(people) = select p from people as p : P where p.age > 1 end
            end
            """
        )

    def test_exists_returns_bool(self):
        checked = check_src(
            """
            module m export f
            type P = tuple age: Int end
            let f(people): Bool = exists p : P in people : p.age > 1
            end
            """
        )
        assert checked.interface.functions["f"] is not None
