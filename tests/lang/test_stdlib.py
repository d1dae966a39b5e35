"""Tests for the dynamically bound standard library (repro.lang.stdlib)."""

import pytest

from repro.core.wellformed import check
from repro.lang.modules import compile_stdlib, link_stdlib
from repro.lang.stdlib import (
    BUILTIN_FUNS,
    OP_FUNS,
    STDLIB_MODULE_NAMES,
    build_stdlib,
    stdlib_interfaces,
)
from repro.machine.vm import VM
from repro.primitives.registry import default_registry
from repro.store.serialize import Blob


def test_all_modules_present():
    definitions = build_stdlib()
    assert set(definitions) == set(STDLIB_MODULE_NAMES)


def test_every_definition_is_well_formed():
    registry = default_registry()
    for module in build_stdlib().values():
        for fn in module.functions:
            check(fn.term, registry)


def test_op_funs_reference_real_functions():
    interfaces = stdlib_interfaces()
    for op, (module, member) in OP_FUNS.items():
        assert member in interfaces[module].functions, f"{op} -> {module}.{member}"


def test_builtin_funs_reference_real_functions():
    interfaces = stdlib_interfaces()
    for name, (module, member, arity) in BUILTIN_FUNS.items():
        sig = interfaces[module].functions[member]
        assert sig.arity == arity, f"builtin {name}"


def test_compiled_stdlib_carries_ptml():
    compiled = compile_stdlib()
    for module in compiled.values():
        for fn in module.functions.values():
            assert isinstance(fn.code.ptml_ref, Blob), f"{module.name}.{fn.name}"


@pytest.mark.parametrize(
    "module,member,args,expected",
    [
        ("int", "add", [2, 3], 5),
        ("int", "sub", [2, 3], -1),
        ("int", "mul", [6, 7], 42),
        ("int", "div", [-7, 2], -3),
        ("int", "mod", [-7, 2], -1),
        ("int", "lt", [1, 2], True),
        ("int", "ge", [1, 2], False),
        ("int", "eq", [5, 5], True),
        ("int", "ne", [5, 5], False),
        ("int", "neg", [9], -9),
        ("int", "min", [4, 9], 4),
        ("int", "max", [4, 9], 9),
        ("bits", "band", [12, 10], 8),
        ("bits", "shl", [1, 8], 256),
        ("bits", "bnot", [0], -1),
    ],
)
def test_library_function_semantics(module, member, args, expected):
    linked = link_stdlib()
    vm = VM()
    assert vm.call(linked[module].member(member), args).value == expected


def test_arraylib_lifecycle():
    linked = link_stdlib()
    vm = VM()
    arr = vm.call(linked["arraylib"].member("new"), [3, 7]).value
    assert vm.call(linked["arraylib"].member("size"), [arr]).value == 3
    vm.call(linked["arraylib"].member("set"), [arr, 1, 99])
    assert vm.call(linked["arraylib"].member("get"), [arr, 1]).value == 99


def test_charlib():
    from repro.core.syntax import Char

    linked = link_stdlib()
    vm = VM()
    assert vm.call(linked["charlib"].member("ord"), [Char("A")]).value == 65
    assert vm.call(linked["charlib"].member("chr"), [97]).value == Char("a")


def test_math_sqrt_via_ccall():
    from repro.lang.foreign import default_foreign

    linked = link_stdlib()
    vm = VM(foreign=default_foreign())
    assert vm.call(linked["math"].member("sqrt"), [169]).value == 13


def test_io_print():
    linked = link_stdlib()
    vm = VM()
    result = vm.call(linked["io"].member("print"), ["hello"])
    assert vm.output == ["hello"]


def test_interfaces_cached():
    assert stdlib_interfaces() is stdlib_interfaces()


def test_stdlib_ptml_stored_in_heap():
    from repro.core.syntax import Oid
    from repro.store.heap import ObjectHeap

    heap = ObjectHeap()
    link_stdlib(heap=heap)
    module = heap.load_root("module:int")
    for name, ref, _ in module.functions:
        assert isinstance(ref, Oid)
        assert isinstance(heap.load(ref), Blob)
